"""
The pinned outputs of tests/pins.py: CI runs them all in one step, each pin
in its own process under its own limit, and a wrong, failed or late output
fails its pin.
"""

import dataclasses
import re
from pathlib import Path

import pytest

import pins

WORKFLOW = Path(__file__).resolve().parents[1] / ".github" / "workflows" / "tests.yml"


def test_one_ci_step_runs_every_pin():
    # the workflow is read as text, so the suite needs no YAML parser
    text = WORKFLOW.read_text()
    assert "python -c" not in text and not re.search(r"\btimeout \d", text)
    (step,) = [
        step for step in re.split(r"^      - ", text, flags=re.MULTILINE) if "tests/pins.py" in step
    ]
    # every pin, on every Python version, under the limit it holds itself
    assert re.findall(r"^.*tests/pins\.py.*$", step, flags=re.MULTILINE) == [
        "        run: PYTHONPATH=src python tests/pins.py"
    ]
    assert "if:" not in step
    assert all(entry.seconds > 0 for entry in pins.PINS.values())


def test_a_wrong_output_fails_its_pin(capsys, monkeypatch):
    line = pins.PINS["long_tl_and_2b_words"]
    right = pins.REPEATED_LETTER_LINE
    wrong = right.replace("9", "8", 1)
    assert line.holds(right + "\n") and not line.holds(wrong + "\n")
    digest = pins.PINS["basis_word"]
    (text,) = digest.outputs()
    changed = text[:100] + chr(ord(text[100]) ^ 1) + text[101:]
    assert digest.holds(text) and not digest.holds(changed)

    assert pins.main(["long_tl_and_2b_words", "basis_word"]) == 0
    capsys.readouterr()
    broken = dataclasses.replace(line, outputs=lambda: iter([wrong + "\n"]))
    monkeypatch.setitem(pins.PINS, "long_tl_and_2b_words", broken)
    assert pins.main(["long_tl_and_2b_words", "basis_word"]) == 1
    out = capsys.readouterr().out
    assert f"FAIL long_tl_and_2b_words: {wrong}\n  pinned: {right}\n" in out
    assert f"ok basis_word: {digest.expected}\n" in out

    # an exit status other than 0 fails the pin, as it failed the CI step
    with pytest.raises(pins.Mismatch, match="exited 2"):
        pins._blobcat("reduce", "--n", "2", "--level", "tl", "--word", "3")
    capsys.readouterr()
    assert pins.main(["basis_word", "no_such_pin"]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and "no_such_pin" in captured.err


def test_a_child_late_or_failed_fails_its_pin(capfd, monkeypatch):
    late = dataclasses.replace(pins.PINS["basis_word"], seconds=0.01)
    line = pins.PINS["long_tl_and_2b_words"]
    # the child knows no pin of this name, so it exits 2
    monkeypatch.setattr(
        pins, "PINS", {"basis_word": late, "no_such_pin": line, "long_tl_and_2b_words": line}
    )
    assert pins.main([]) == 1
    # the children write to the same stdout, so read it by file descriptor
    out, err = capfd.readouterr()
    assert "FAIL basis_word: over its 0.01 s limit\n" in out
    assert "FAIL no_such_pin: exited 2\n" in out and "error: no pin no_such_pin" in err
    assert f"ok long_tl_and_2b_words: {pins.REPEATED_LETTER_LINE}\n" * 2 in out
    assert "FAIL long_tl_and_2b_words" not in out
