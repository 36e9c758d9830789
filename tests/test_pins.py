"""The pinned outputs of tests/pins.py: CI runs each once, and a wrong output fails."""

import dataclasses
import re
from pathlib import Path

import pytest

import pins

WORKFLOW = Path(__file__).resolve().parents[1] / ".github" / "workflows" / "tests.yml"


def test_each_pin_is_one_ci_step():
    # the workflow is read as text, so the suite needs no YAML parser
    text = WORKFLOW.read_text()
    assert "python -c" not in text
    steps = re.split(r"^      - ", text, flags=re.MULTILINE)[1:]
    calls = {}
    for index, step in enumerate(steps):
        for names in re.findall(r"tests/pins\.py\b(.*)", step):
            assert names.split(), "a step runs every pin"
            for name in names.split():
                calls.setdefault(name, []).append(index)
    assert sorted(calls) == sorted(pins.PINS)
    assert {name: len(where) for name, where in calls.items()} == dict.fromkeys(pins.PINS, 1)
    # each call runs in a fresh process under its own time limit
    timed = re.findall(r"timeout \d+ env PYTHONPATH=src python tests/pins\.py \w", text)
    assert len(timed) == len(re.findall(r"tests/pins\.py", text))


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
