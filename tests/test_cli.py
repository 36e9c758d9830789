"""Command-line behaviour: outputs, determinism, exit codes, fault injection."""

import argparse
import ast
import collections
import functools
import hashlib
import io
import json
import os
import random
import re
import shlex
import subprocess
import sys
import types
from pathlib import Path

import pytest

import blobcat
from blobcat import algebra, cli, enumeration, triangles, verify
from blobcat.cli import main
from blobcat.normal_forms import format_blocks
from blobcat.triangles import blobbed_entry

from pins import (
    COUNT_PAST_DIGIT_LIMIT_SHA256,
    DEEP_TL_REDUCED,
    DEEP_TL_WORD,
    ENUMERATE_DEEP_SHA256,
    REPEATED_LETTER_LINE,
)


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_count_matches_table(capsys):
    code, out, _ = run(capsys, "count", "--n", "9", "--s", "4", "--which", "d")
    assert code == 0 and out == "221004\n"


def test_dim_output(capsys):
    code, out, _ = run(capsys, "dim", "--n", "2")
    assert code == 0
    assert out == "19\n[6, 10, 3]\n"


def test_reduce_output(capsys):
    code, out, _ = run(capsys, "reduce", "--n", "2", "--level", "sb", "--word", "1,0,2,1")
    assert code == 0 and out == "k * [1]\n"
    code, out, _ = run(capsys, "reduce", "--n", "3", "--level", "tl", "--word", "")
    assert code == 0 and out == "1 * []\n"


def test_reduce_past_recursion_limit_is_malformed_input(capsys):
    # no level recurses once per rewrite (the next two tests reduce 3,000
    # letters), so past the default recursion limit a word is refused only
    # when it is malformed: here by one bad letter at its end
    word = ",".join(["1"] * 3000 + ["3"])
    for level in ("tl", "2btl", "sb"):
        code, out, err = run(capsys, "reduce", "--n", "2", "--level", level, "--word", word)
        assert code == 2, level
        assert err.startswith("error:") and len(err.splitlines()) == 1, level
        assert out == "", level


def test_reduce_at_the_blob_level_takes_any_length(capsys):
    # 2,999 square rewrites, far past the default recursion limit: the blob
    # level folds the word one generator at a time
    word = ",".join(["1"] * 3000)
    code, out, err = run(capsys, "reduce", "--n", "2", "--level", "sb", "--word", word)
    assert code == 0 and err == ""
    assert out == REPEATED_LETTER_LINE + "\n"


def test_reduce_at_the_tl_and_2b_levels_takes_any_length(capsys):
    # the same word: TL and the two-boundary level rewrite in a loop, with
    # no recursion per rewrite
    word = ",".join(["1"] * 3000)
    for level in ("tl", "2btl"):
        code, out, err = run(capsys, "reduce", "--n", "2", "--level", level, "--word", word)
        assert (code, err) == (0, ""), level
        assert out == REPEATED_LETTER_LINE + "\n", level


def test_enumerate_lists_forms_of_any_bracket_count(capsys):
    # the k-th form at rank 1200 has k brackets, so the 1100th lies past
    # the default recursion limit; the bracket walk keeps no frame per bracket
    code, out, err = run(capsys, "enumerate", "--n", "1200", "--s", "0", "--limit", "1100")
    assert (code, err) == (0, "")
    assert json.loads(out)["count"] == 1100
    assert hashlib.sha256(out.encode()).hexdigest() == ENUMERATE_DEEP_SHA256


def test_reduce_deep_tl_redex_at_rank_10(capsys):
    # a product of two rank-10 FC normal forms of affine length 3: its first
    # TL redex lies so deep in its class that a walk to it passes the class
    # cap; the heap witness takes it in one step
    code, out, err = run(capsys, "reduce", "--n", "10", "--level", "tl", "--word", DEEP_TL_WORD)
    assert (code, err) == (0, "")
    assert out == DEEP_TL_REDUCED + "\n"


def test_triangle_csv(capsys):
    code, out, _ = run(
        capsys, "triangle", "--kind", "blobbed", "--rows", "3", "--cols", "4",
        "--format", "csv",
    )
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "i\\j,0,1,2,3"
    assert lines[1] == "0,1,0,1,0"
    assert lines[3] == "2,2,0,4,0"


def test_triangle_json_round_trip(capsys):
    code, out, _ = run(
        capsys, "triangle", "--kind", "blobbed", "--rows", "6", "--cols", "6",
        "--format", "json",
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["kind"] == "blobbed"
    for i, row in enumerate(payload["entries"]):
        for j, value in enumerate(row):
            assert int(value) == blobbed_entry(i, j)


def test_enumerate_json(capsys):
    code, out, _ = run(capsys, "enumerate", "--n", "2", "--s", "1", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["count"] == 25
    words = {e["word"] for e in payload["elements"]}
    assert "2" in words
    positives = [e for e in payload["elements"] if e["positive"]]
    assert len(positives) == 14
    assert all(e["blocks"] is not None for e in positives)
    assert all(
        e["blocks"] is None and e["blobbed"] is None
        for e in payload["elements"]
        if not e["positive"]
    )


def test_enumerate_filters_and_limit(capsys):
    code, out, _ = run(capsys, "enumerate", "--n", "2", "--s", "1", "--positive")
    payload = json.loads(out)
    assert payload["filter"] == "positive" and payload["count"] == 14
    code, out, _ = run(capsys, "enumerate", "--n", "2", "--s", "1", "--blobbed")
    payload = json.loads(out)
    assert payload["filter"] == "blobbed" and payload["count"] == 10
    code, out, _ = run(
        capsys, "enumerate", "--n", "2", "--s", "1", "--blobbed", "--limit", "4"
    )
    assert json.loads(out)["count"] == 4


@pytest.mark.parametrize("limit, code, count", [("0", 0, 0), ("1", 0, 1), ("-1", 2, None)])
def test_enumerate_limit_bounds(capsys, limit, code, count):
    got, out, err = run(capsys, "enumerate", "--n", "2", "--s", "1", "--limit", limit)
    assert got == code
    if count is None:
        assert out == "" and "--limit" in err
    else:
        assert json.loads(out)["count"] == count


# sha256 of the `enumerate --n N --s S` stdout: the listing order is
# user-visible, so it is pinned as well as the set of elements
ENUMERATE_SHA256 = {
    (1, 0): "a2dc8d3778e48fae5202895b0bef75c02036c1b9a89dee59640ec04f95867af0",
    (1, 1): "376e53a17e479a155f84d195aed545f37f112cf587658fe633e43aa7988105e4",
    (1, 2): "973684d3fc928b9b1167d72d02231a73a7a292e18a9ecb369b149450f9a5c1c3",
    (1, 3): "a7304b71db23d965e68afd5bdb07b687bc16666a08a41d1ab4c1bc8f60e338fb",
    (2, 0): "3c49cd3ce6dbc4cd3746fcf7eee899a8691896f2b0bfff98344e8b29da2eff17",
    (2, 1): "c96ce130ecd35b18fe1e9dab0763448421351b0152f97b89993350a1b8d71349",
    (2, 2): "ab08d8ac45397335a9c81d61c2ebcd68dfa58a48d730877582ccade2566dcac6",
    (2, 3): "92932c836fe14456a2ce3ecc7d73d63b71a324a2348a82d9f7fd48240fee8647",
    (3, 0): "24356221a876c40f29152321ef1da9f0e71984dcdca9290cdb9e12b5f7a295ce",
    (3, 1): "98b1b6b161aeb4f426af3de0910b97bfc7e33d1e27161a430f9394bd1d8b2ef6",
    (3, 2): "7ef018376f99108f1cfbfc80278c21d569a1d36e7e0a9c314b39c93c26d363ac",
    (3, 3): "6f7f4aa3d492dc67044bbe8c091a36ac9a942e570159c39997409e814ef3f78e",
    (4, 0): "1246141d00f26e44b3004ab1ee688b95eb63042d1ecce6f9ad83885bed213a40",
    (4, 1): "fa4d76438709bbf4436891855cc258adaeeb1dcaa64bd78bed33fd8f2524e916",
    (4, 2): "9609a39e7bc2e5d45217b7769be31ea3a91ed565f0cd76f4dfa265c26b6e9bef",
    (4, 3): "a78177825a15a6b1beaf0f6b9d0be27cd335c4bdebb35f300be5c042dd2fcdaa",
}


@pytest.mark.parametrize("n, s", sorted(ENUMERATE_SHA256))
def test_enumerate_output_is_pinned(capsys, n, s):
    code, out, _ = run(capsys, "enumerate", "--n", str(n), "--s", str(s))
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == ENUMERATE_SHA256[n, s]


# sha256 of the stdouts of `enumerate --n N --s S [filter]` for n = 1..6 and
# s = 0..4, concatenated in that order; recorded before normal forms were
# read off the heap
ENUMERATE_SWEEP_SHA256 = {
    "": "dea22e950c2c620567ce23f9987c82482e22a62bd4d3f42089645a33f6dc51ef",
    "--positive": "d53c82e4e159c1983365eac30161a4b5bf09f0727d58cdcd0545727b268a268f",
    "--blobbed": "017a57f0233ef2fdd1aca0847b74b29080747bb6a82f00e15f7295bb9d3338d2",
}


@pytest.mark.parametrize("selector", sorted(ENUMERATE_SWEEP_SHA256))
def test_enumerate_sweep_is_pinned(capsys, selector):
    h = hashlib.sha256()
    for n in range(1, 7):
        for s in range(5):
            argv = ["enumerate", "--n", str(n), "--s", str(s)] + ([selector] if selector else [])
            code, out, _ = run(capsys, *argv)
            assert code == 0
            h.update(out.encode())
    assert h.hexdigest() == ENUMERATE_SWEEP_SHA256[selector]


# the count outputs, recorded before the triangles were read off binomial rows
TRIANGLE_SHA256 = {
    ("blobbed", "csv"): "d9502f965eca81b0bef4201bc2d3a10e9a7378e4c872ca9ac5b6738a91b62ed9",
    ("blobbed", "json"): "df0ca87b1a81cfce1e0ff74b58a9613eac6c6325d340e5c564ccb54767dc8a4c",
    ("classical", "csv"): "52713ba42b4ee8ac3b2ff4df0de0df971bfda49e8816d106cb3fd2a812a0f7bc",
    ("classical", "json"): "3b307b66221b0ee42a163f335134fbb5b3abee3a1c609b2cbe07bfb40ebca4e0",
}
# stdout of `dim --n N` for N = 1..90, concatenated
DIM_SHA256 = "ac369d4d2039b9cce59d57c4fa534450a97e9d8542256a0f34f69f40fdc4f1fb"


# sha256 of the stdout of `dim --n N`, and of `count --n 512 --s S --which W`:
# N = 128, 256, 512 and the counts recorded before blob_polynomial read every
# d(s) off one pair of wing sequences, N = 1000 before it read them off the
# convolutions of the wing complements
DIM_LARGE_SHA256 = {
    128: "5bdabecaf4a14b2bb34cc38baed144f6047f11142b46b1b924c947d7444ce0c3",
    256: "46bfb168457be645280c184c96de8410fe8729265d8f571b6e691f67fbb32c9a",
    512: "210a15bfd6bf9c83a3e32755d097705d2e9132c4f1de0b22c2c8b89e5eef9c0a",
    1000: "0d47d0cd648bcb2d2b3cf33fd45a3ab53ea3c9d6bba3295c6c4444a9d26d1210",
}
COUNT_512_SHA256 = {
    ("b", 1): "6c2b02cf5ef1ac6088017bf5d224a4db4f6dcb6aa5c3cc8d57c88cfffa64cf97",
    ("b", 128): "091cc90e4e584c231d131c110c6d4db95fd6e2c4e9a490848d9d2ea2b7904045",
    ("b", 256): "8fffb62371e897e559a6e6753c0fad2e81e24caf96d903cba96c0ef851e48588",
    ("b", 511): "140efbc9400a3f40ab15cab19998af12bfe68489be61dd0927e2244e369a6f14",
    ("d", 1): "eeb174831fd5949715b7d5c9aa73aae03e49a45014eb4dfb81496e3209a1b715",
    ("d", 128): "cf9c2cb2233c60b6340c8cfa25486b3fc7db0b079038e897668967643b47b8f9",
    ("d", 256): "d1bbf05d1ad06dc930b8d3e5c1c93d7a0cb598434786c5f4affa80d92a2d6d3c",
    ("d", 511): "a66672d89e346d5144d20604f8c022eb87bca7028abef454218d34728548f4c1",
}


@pytest.mark.parametrize("kind, fmt", sorted(TRIANGLE_SHA256))
def test_triangle_output_is_pinned(capsys, kind, fmt):
    code, out, _ = run(
        capsys, "triangle", "--kind", kind, "--rows", "80", "--cols", "80", "--format", fmt
    )
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == TRIANGLE_SHA256[kind, fmt]


def test_dim_output_is_pinned(capsys):
    outs = []
    for n in range(1, 91):
        code, out, _ = run(capsys, "dim", "--n", str(n))
        assert code == 0
        outs.append(out)
    assert hashlib.sha256("".join(outs).encode()).hexdigest() == DIM_SHA256


@pytest.mark.parametrize("n", sorted(DIM_LARGE_SHA256))
def test_dim_output_is_pinned_at_large_n(capsys, n):
    code, out, _ = run(capsys, "dim", "--n", str(n))
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == DIM_LARGE_SHA256[n]


@pytest.mark.parametrize("which, s", sorted(COUNT_512_SHA256))
def test_count_output_is_pinned_at_rank_512(capsys, which, s):
    code, out, _ = run(capsys, "count", "--n", "512", "--s", str(s), "--which", which)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == COUNT_512_SHA256[which, s]


def test_count_prints_past_the_digit_limit(capsys):
    # 4,335 digits, past the 4,300-digit int-to-str limit of Python 3.10.7+;
    # the process's own limit is left as it was
    limit = getattr(sys, "get_int_max_str_digits", lambda: None)()
    code, out, err = run(capsys, "count", "--n", "7200", "--s", "3600", "--which", "a")
    assert (code, err) == (0, "")
    assert hashlib.sha256(out.encode()).hexdigest() == COUNT_PAST_DIGIT_LIMIT_SHA256
    assert getattr(sys, "get_int_max_str_digits", lambda: None)() == limit


@pytest.fixture
def lowest_digit_limit():
    """The int-to-str digit limit at its floor, 640, so 641 digits trip it."""
    if not hasattr(sys, "set_int_max_str_digits"):
        pytest.skip("this Python has no int-to-str digit limit")
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(640)
    yield
    sys.set_int_max_str_digits(limit)


@pytest.mark.parametrize(
    "argv",
    [
        ("count", "--n", "1100", "--s", "550", "--which", "a"),
        ("dim", "--n", "1100"),
        ("triangle", "--kind", "blobbed", "--rows", "2140", "--cols", "40"),
        ("triangle", "--kind", "blobbed", "--rows", "2140", "--cols", "40", "--format", "json"),
    ],
)
def test_every_exact_output_passes_the_digit_limit_and_keeps_it(capsys, lowest_digit_limit, argv):
    code, out, err = run(capsys, *argv)
    assert (code, err) == (0, "")
    assert sys.get_int_max_str_digits() == 640
    sys.set_int_max_str_digits(0)
    if argv[0] == "count":
        expected = triangles.blobbed_closed(2200, 1100)
        assert out == f"{expected}\n"
    elif argv[0] == "dim":
        coeffs = enumeration.blob_polynomial(1100)
        expected = sum(coeffs)
        assert out == f"{expected}\n{list(coeffs)}\n"
    else:
        expected = triangles.blobbed_closed(2139, 39)
        cells = out.replace('"', " ").replace(",", " ").split()
        assert str(expected) in cells
    assert len(str(expected)) > 640


def fresh(*args):
    """Run python with blobcat importable, in a new process; return its stdout."""
    env = dict(os.environ, PYTHONPATH=str(Path(blobcat.__file__).parent.parent))
    done = subprocess.run(
        [sys.executable, *args], env=env, capture_output=True, text=True, check=True
    )
    return done.stdout


def test_import_does_not_build_the_parser():
    code = "import blobcat.cli as c; print(c._parser.cache_info().currsize)"
    assert fresh("-c", code) == "0\n"


def test_import_loads_no_dataclasses_inspect_or_typing():
    # start-up is most of a count or dim call, and these three modules (with
    # ast, dis and tokenize behind them) were most of the import: blobcat
    # loads them only if the stdlib modules that it imports do, on this Python
    heavy = {"dataclasses", "inspect", "typing"}
    stdlib = set()
    for path in Path(blobcat.__file__).parent.glob("*.py"):
        for stmt in ast.parse(path.read_text()).body:
            if isinstance(stmt, ast.Import):
                stdlib.update(alias.name for alias in stmt.names)
            elif isinstance(stmt, ast.ImportFrom) and not stmt.level:
                stdlib.add(stmt.module)
    stdlib = (stdlib | {"sys"}) - heavy - {"__future__"}
    code = (
        f"import {', '.join(sorted(stdlib))}\n"
        f"loaded = set(sys.modules)\n"
        f"import blobcat.cli\n"
        f"print(sorted(set({sorted(heavy)!r}) & (set(sys.modules) - loaded)))"
    )
    assert fresh("-S", "-c", code) == "[]\n"


def test_a_call_the_table_reads_loads_no_argparse():
    # argparse, with gettext behind it, was a few ms of the import; a call
    # that the table declines loads them, and gets its answer from argparse
    code = (
        "import sys, blobcat.cli\n"
        "def main(*argv):\n"
        "    blobcat.cli.main(argv)\n"
        "    print(sorted({'argparse', 'gettext'} & set(sys.modules)))\n"
        "main('count', '--n', '9', '--s', '4', '--which', 'd')\n"
        "main('count', '--n', '9', '--s', '4', '--which=d')\n"
    )
    assert fresh("-S", "-c", code) == "221004\n[]\n221004\n['argparse', 'gettext']\n"


@pytest.mark.parametrize(
    "second, extra",
    [
        (("enumerate", "--n", "2", "--s=1"), ("--lim", "1")),
        (("verify", "--suite=tables"), ("--max", "2")),
    ],
)
def test_reused_parser_answers_as_a_fresh_process(capsys, second, extra):
    # the same call with one more option first: nothing of it may carry over;
    # "--s=1", "--suite=tables" and the abbreviations send both calls to argparse
    assert cli._read([*second, *extra]) is None and cli._read(list(second)) is None
    run(capsys, *second, *extra)
    code, out, _ = run(capsys, *second)
    assert code == 0
    assert out == fresh("-m", "blobcat.cli", *second)
    assert cli._parser.cache_info().currsize == 1


def test_reused_parser_survives_rejected_calls(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["count", "--n", "x", "--s", "1", "--which", "a"])
    assert exc.value.code == 2
    code, _, _ = run(capsys, "enumerate", "--n", "2", "--s", "1", "--limit", "-1")
    assert code == 2
    code, out, _ = run(capsys, "count", "--n", "9", "--s", "4", "--which", "d")
    assert code == 0 and out == "221004\n"


# a cheap valid call of each command
VALID_CALLS = {
    "triangle": ("triangle", "--kind", "blobbed", "--rows", "3", "--cols", "3"),
    "count": ("count", "--n", "9", "--s", "4", "--which", "d"),
    "enumerate": ("enumerate", "--n", "2", "--s", "1", "--limit", "2"),
    "grid": ("grid", "--blocks", "0:0"),
    "reduce": ("reduce", "--n", "2", "--level", "sb", "--word", "1,0,2,1"),
    "dim": ("dim", "--n", "2"),
    "verify": ("verify", "--suite", "tables", "--max-n", "2"),
}
COUNT = ("count", "--n", "3", "--s", "1")
EXTRA = (*COUNT, "--which", "a", "extra")


def outcome(capsys, argv):
    """(return status or ("exit", SystemExit code), stdout, stderr) of main(argv)."""
    try:
        status = main(argv)
    except SystemExit as exc:
        status = ("exit", exc.code)
    captured = capsys.readouterr()
    return status, captured.out, captured.err


def generator(argv):
    yield from argv


def full_parser_only(monkeypatch):
    """Build the full parser, then empty the option table, so argparse parses every argv."""
    cli._parser()
    monkeypatch.setattr(cli, "_COMMANDS", {})


@pytest.mark.parametrize(
    "argv, shape",
    [
        *(pytest.param(argv, list, id=name) for name, argv in VALID_CALLS.items()),
        pytest.param(("count", "-h"), list, id="command-help"),
        pytest.param(("-h",), list, id="top-help"),
        pytest.param((), list, id="empty"),
        pytest.param(("frobnicate", "--n", "3"), list, id="unknown-command"),
        pytest.param(("count", "--n", "x", "--s", "1", "--which", "a"), list, id="bad-int"),
        pytest.param((*COUNT, "--which", "z"), list, id="bad-choice"),
        pytest.param(COUNT, list, id="missing-required"),
        pytest.param((*COUNT, "--which", "a", "--bogus"), list, id="unknown-option"),
        pytest.param((*COUNT, "--which", "a", "--n", "4"), list, id="repeated-option"),
        pytest.param(("count", "--n=3", "--s", "1", "--which", "a"), list, id="equals"),
        pytest.param((*COUNT, "--wh", "a"), list, id="abbreviation"),
        pytest.param(EXTRA, list, id="extra-positional"),
        pytest.param((*COUNT, "--which", "a", "--"), list, id="dashes-at-end"),
        pytest.param((*COUNT, "--", "--which", "a"), list, id="dashes-in-middle"),
        pytest.param(("dim", "--", "--n", "2"), list, id="dashes-after-command"),
        pytest.param(
            ("enumerate", "--n", "2", "--s", "1", "--positive", "--blobbed"),
            list,
            id="exclusive-options",
        ),
        pytest.param(VALID_CALLS["count"], tuple, id="tuple"),
        pytest.param(VALID_CALLS["count"], generator, id="generator"),
        pytest.param(EXTRA, generator, id="generator-extra"),
    ],
)
def test_dispatch_answers_as_the_full_parser(capsys, monkeypatch, argv, shape):
    dispatched = outcome(capsys, shape(argv))
    full_parser_only(monkeypatch)
    assert dispatched == outcome(capsys, shape(argv))


@pytest.mark.parametrize("argv", [VALID_CALLS["count"], EXTRA], ids=["valid", "extra"])
def test_dispatch_from_sys_argv_answers_as_the_full_parser(capsys, monkeypatch, argv):
    env = dict(os.environ, PYTHONPATH=str(Path(blobcat.__file__).parent.parent))
    done = subprocess.run(
        [sys.executable, "-m", "blobcat.cli", *argv], env=env, capture_output=True, text=True
    )
    full_parser_only(monkeypatch)
    status, out, err = outcome(capsys, list(argv))
    code = status[1] if isinstance(status, tuple) else status
    assert (done.returncode, done.stdout, done.stderr) == (code, out, err)


@pytest.mark.parametrize("argv", VALID_CALLS.values(), ids=VALID_CALLS.keys())
def test_a_valid_call_is_parsed_once(capsys, monkeypatch, argv):
    # once, by the table: argparse neither parses it nor is built for it
    parsers = []
    real = argparse.ArgumentParser.parse_known_args

    def spy(self, *args, **kwargs):
        parsers.append(self.prog)
        return real(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "parse_known_args", spy)
    monkeypatch.setattr(cli, "_parser", functools.cache(cli.build_parser))
    status, _, _ = outcome(capsys, list(argv))
    assert status == 0
    assert parsers == []
    assert cli._parser.cache_info().currsize == 0


# what the grammar below draws option values from: every choice, one value
# off every choice, an option name, and strings that int() takes or refuses
# in odd ways
GRAMMAR_VALUES = ("", "-3", "-h", "x", "\u0663", "1_0", " 7", "4", "JSON") + tuple(
    sorted(
        {c for cmd in cli._COMMANDS.values() for o in cmd.options.values() for c in o.choices or ()}
    )
)


def grammar_argv(rng):
    """
    A seeded argv of one command: mostly its required options, then up to
    two parts of any shape (full or abbreviated names, --opt=value, repeats,
    both members of a group, flags, --, -h, strays), all parts shuffled.
    """
    name = rng.choice(list(cli._COMMANDS))
    options = list(cli._COMMANDS[name].options.values())

    def value(o):
        if rng.random() < 0.5:
            return rng.choice(GRAMMAR_VALUES)
        return rng.choice(o.choices or ("4", "\u0663", "1_0", " 7"))

    def tokens(o):
        if o.type is None:
            return [o.flag]
        return [o.flag, value(o)]

    parts = []
    if rng.random() < 0.8:
        groups = set()
        for o in options:
            if o.required and (o.group is None or o.group not in groups):
                groups.add(o.group)
                parts.append(tokens(o))
    for _ in range(rng.randrange(3)):
        o = rng.choice(options)
        shape = rng.randrange(8)
        if shape == 0 and len(o.flag) > 3:
            parts.append([o.flag[: rng.randrange(3, len(o.flag))], *tokens(o)[1:]])
        elif shape == 1:
            parts.append([f"{o.flag}={value(o)}"])
        elif shape == 2:
            parts.append([o.flag])
        elif shape == 3:
            parts.append([rng.choice(("--", "-h", rng.choice(GRAMMAR_VALUES)))])
        else:
            parts.append(tokens(o))
    rng.shuffle(parts)
    return [name, *(token for part in parts for token in part)]


def test_the_table_reads_a_call_as_the_full_parser_does(capsys):
    parser = cli.build_parser()
    rng = random.Random(61)
    taken, refused = collections.Counter(), 0
    for _ in range(3000):
        argv = grammar_argv(rng)
        try:
            full = vars(parser.parse_args(argv, types.SimpleNamespace()))
        except SystemExit:
            full = None
        capsys.readouterr()
        read = cli._read(argv)
        # the table takes an argv only if argparse takes it whole, with equal fields
        assert read is None or vars(read) == full, argv
        if read is not None:
            taken[argv[0]] += 1
        refused += full is None
    assert set(taken) == set(cli._COMMANDS), taken
    assert sum(taken.values()) > 300 and refused > 300, (taken, refused)


def test_arguments_left_over_get_the_full_parsers_error(capsys):
    status, out, err = outcome(capsys, list(EXTRA))
    assert status == ("exit", 2) and out == ""
    assert err.startswith(cli.build_parser().format_usage())
    assert err.endswith("blobcat: error: unrecognized arguments: extra\n")


def test_grid_from_blocks_and_word(capsys):
    code, out, _ = run(
        capsys, "grid", "--blocks", "7:8,4:8,3:7,1:4,0:1,0:0", "--render", "svg"
    )
    assert code == 0 and out.count("<circle") == 19
    code, out_blocks, _ = run(capsys, "grid", "--blocks", "0:1", "--n", "1")
    code, out_word, _ = run(capsys, "grid", "--word", "0,1", "--n", "1")
    assert out_blocks == out_word
    assert out_blocks.splitlines()[1].count("*") == 2


# sha256 of the concatenated stdout of `grid --blocks B --n N --render R` for
# every block list of `iter_positive_blocks(n, s)`, n 1..5, s 0..3, in that
# order (3,844 lists), recorded while the grid was still a point-set object
GRID_SHA256 = {
    "ascii": "aa046200b5cce352c5b5d6a3b7fd45f9a8b369a275a373801bcca4ffd7c39ce9",
    "svg": "7affc140e0e1e161ac44a66e090d538882fbaf1dc9090b6194058752bb96f132",
}


@pytest.mark.parametrize("fmt", sorted(GRID_SHA256))
def test_grid_output_is_pinned(capsys, fmt):
    h = hashlib.sha256()
    renders = 0
    for n in range(1, 6):
        for s in range(0, 4):
            for blocks in enumeration.iter_positive_blocks(n, s):
                text = format_blocks(blocks)
                code, out, _ = run(
                    capsys, "grid", "--blocks", text, "--n", str(n), "--render", fmt
                )
                assert code == 0, (n, blocks)
                h.update(out.encode())
                renders += 1
    assert renders == 3844
    assert h.hexdigest() == GRID_SHA256[fmt]


@pytest.mark.skipif(sys.platform != "linux", reason="reads VmHWM from /proc")
def test_grid_streams_its_drawing():
    # the descending rank-4000 word draws 48 MB of ASCII; held as one string
    # before printing, it took the process past 110 MB.  VmHWM is the peak of
    # this process image alone: ru_maxrss keeps that of the forking test run
    word = ",".join(map(str, range(3999, -1, -1)))
    code = (
        "import os, sys\n"
        "from blobcat.cli import main\n"
        "out, sys.stdout = sys.stdout, open(os.devnull, 'w')\n"
        f"assert main(['grid', '--word', '{word}', '--n', '4000']) == 0\n"
        "status = open('/proc/self/status').read().split()\n"
        "print(status[status.index('VmHWM:') + 1], file=out)\n"
    )
    assert int(fresh("-c", code)) < 60 * 1024


def test_grid_rejects_non_positive_word(capsys):
    code, _, err = run(capsys, "grid", "--word", "1,0,1", "--n", "2")
    assert code == 2 and "positive" in err


@pytest.mark.parametrize("source", [("--blocks", "0:0"), ("--word", "1")])
def test_grid_rejects_explicit_rank_zero(capsys, source):
    code, out, err = run(capsys, "grid", *source, "--n", "0")
    assert code == 2 and out == ""
    assert err.startswith("error:") and len(err.splitlines()) == 1


def test_grid_inferred_rank_is_at_least_one(capsys):
    _, inferred, _ = run(capsys, "grid", "--blocks", "0:0")
    _, explicit, _ = run(capsys, "grid", "--blocks", "0:0", "--n", "1")
    assert inferred == explicit


class ClosedOnWrite(io.StringIO):
    """A stdout whose reader has gone, seen on the first write."""

    def write(self, text):
        raise BrokenPipeError(32, "Broken pipe")


class ClosedOnFlush(io.StringIO):
    """A stdout whose reader has gone, seen only when the buffer is flushed."""

    def flush(self):
        raise BrokenPipeError(32, "Broken pipe")


@pytest.mark.parametrize("stdout", [ClosedOnWrite, ClosedOnFlush])
def test_closed_stdout_exits_141_quietly(capsys, monkeypatch, stdout):
    monkeypatch.setattr(sys, "stdout", stdout())
    assert main(["count", "--n", "9", "--s", "4", "--which", "d"]) == 141
    assert capsys.readouterr().err == ""


def test_closed_pipe_exits_141_quietly_in_a_fresh_process():
    # 113,665 bytes overfill the pipe, so the write fails once the reader closes
    env = dict(os.environ, PYTHONPATH=str(Path(blobcat.__file__).parent.parent))
    argv = [sys.executable, "-m", "blobcat.cli", "enumerate", "--n", "5", "--s", "2"]
    with subprocess.Popen(argv, env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE) as proc:
        assert proc.stdout.read(1) == b"{"
        proc.stdout.close()
        err = proc.stderr.read()
        assert proc.wait() == 141
    assert err == b""


def test_malformed_input_exits_two(capsys):
    code, _, err = run(capsys, "reduce", "--n", "2", "--level", "sb", "--word", "1,x")
    assert code == 2 and "error" in err


@pytest.mark.parametrize(
    "argv, what",
    [
        (("reduce", "--n", "12", "--level", "tl", "--word", "1_0"), "malformed word"),
        (("reduce", "--n", "12", "--level", "tl", "--word", "\u0661,\u0662"), "malformed word"),
        (("grid", "--word", "1,\u00b2"), "malformed word"),
        (("grid", "--blocks", "0:1_0"), "malformed block"),
        (("grid", "--n", "12", "--blocks", "\u0660:\u0661"), "malformed block"),
    ],
)
def test_letters_other_than_ascii_digits_exit_two(capsys, argv, what):
    # int() reads underscores and non-ASCII digits; a word or block does not
    code, out, err = run(capsys, *argv)
    assert code == 2 and out == "" and what in err


def test_output_determinism(capsys):
    argv = ("enumerate", "--n", "2", "--s", "2", "--format", "json")
    _, first, _ = run(capsys, *argv)
    _, second, _ = run(capsys, *argv)
    assert first == second
    argv = ("triangle", "--kind", "classical", "--rows", "8", "--cols", "8")
    _, first, _ = run(capsys, *argv)
    _, second, _ = run(capsys, *argv)
    assert first == second


def test_verify_tables_suite(capsys):
    code, out, _ = run(capsys, "verify", "--suite", "tables")
    assert code == 0
    assert "PASS tables:excluded: 90 cells" in out
    assert out.strip().endswith("3/3 checks passed")


def test_verify_max_n_subset(capsys):
    code, out, _ = run(capsys, "verify", "--suite", "tables", "--max-n", "3")
    assert code == 0
    assert "PASS tables:excluded: 30 cells" in out
    assert "PASS tables:blobbed: 30 cells" in out


@pytest.mark.parametrize("max_n", ["3", "200"])
def test_verify_triangle_suite_ignores_max_n(capsys, max_n):
    # its checks are indexed by triangle entry, not by rank
    code, out, _ = run(capsys, "verify", "--suite", "triangle", "--max-n", max_n)
    assert code == 0
    assert "PASS triangle:closed-form: i <= 64, both kinds against their recurrence\n" in out


def test_verify_algebra_max_n_is_the_largest_rank(capsys):
    code, out, _ = run(capsys, "verify", "--suite", "algebra", "--max-n", "1")
    assert code == 0
    assert out.splitlines() == [
        "PASS algebra:confluence: 0 random words",
        "PASS algebra:quotient-identities: 0 TL->2B and 0 2B->SB elements"
        " plus 1 boundary identities",
        "PASS algebra:blob-closure: table sizes [25]",
        "3/3 checks passed",
    ]


def test_verify_reports_a_product_that_leaves_the_basis(capsys, monkeypatch):
    x = algebra.sb_basis(2)[-1]
    reduce_word = algebra.reduce_word

    def stray(level, n, word):
        scalar, out = reduce_word(level, n, word)
        return (scalar, (1, 1)) if (n, word) == (2, x + x) else (scalar, out)

    monkeypatch.setattr(algebra, "reduce_word", stray)
    code, out, _ = run(capsys, "verify", "--suite", "algebra", "--max-n", "2")
    assert code == 1
    lines = out.splitlines()
    assert lines[0].startswith("PASS algebra:confluence:")
    assert lines[1].startswith("PASS algebra:quotient-identities:")
    assert lines[2] == (
        f"FAIL algebra:blob-closure: n=2 product {x} * {x} left the blob basis: (1, 1)"
    )
    assert lines[3:] == ["2/3 checks passed"]


@pytest.mark.parametrize("argv", [("--max-n", "0"), ("--suite", "tables", "--max-n", "-1")])
def test_verify_rejects_max_n_below_one(capsys, argv):
    code, out, err = run(capsys, "verify", *argv)
    assert code == 2 and out == "" and "--max-n" in err


def test_verify_reports_injected_fault(monkeypatch):
    d_count = enumeration.d_count

    def broken(n, s):
        value = d_count(n, s)
        return value + 1 if (n, s) == (4, 2) else value

    monkeypatch.setattr(enumeration, "d_count", broken)
    failed = {c.name: c.detail for c in verify.verify_tables() if not c.ok}
    # b = a - d, so the fault reaches the blobbed table too
    assert failed == {
        "tables:excluded": "(n=4,s=2) got 149 want 148",
        "tables:blobbed": "(n=4,s=2) got 89 want 90",
    }


def test_verify_exit_code_on_failure(capsys, monkeypatch):
    def broken_suite(max_n=9):
        return [verify.Check("tables:excluded", False, "injected")]

    monkeypatch.setitem(verify.SUITES, "tables", broken_suite)
    code, out, _ = run(capsys, "verify", "--suite", "tables")
    assert code == 1 and "FAIL tables:excluded: injected" in out


README = Path(__file__).resolve().parent.parent / "README.md"


def _readme_block(heading, lang):
    """The first ```lang block under the README section `heading`."""
    section = README.read_text().split(f"\n## {heading}\n", 1)[1].split("\n## ", 1)[0]
    return section.split(f"```{lang}\n", 1)[1].split("```", 1)[0]


def test_readme_command_lines_run(capsys):
    # each line of "Command line" exits 0, and a "# -> a and b" note names
    # the stdout lines
    lines = [x for x in _readme_block("Command line", "sh").splitlines() if x.strip()]
    assert len(lines) == 7
    notes = 0
    for line in lines:
        argv = shlex.split(line, comments=True)
        assert argv[0] == "blobcat", line
        code, out, err = run(capsys, *argv[1:])
        assert code == 0 and err == "", line
        if "# ->" in line:
            assert out.splitlines() == line.split("# ->", 1)[1].strip().split(" and "), line
            notes += 1
    assert notes == 3


def test_readme_library_example_runs(capsys):
    code = _readme_block("Library example", "python")
    exec(compile(code, str(README), "exec"), {})
    expected = [x.split("#", 1)[1].strip() for x in code.splitlines() if x.startswith("print(")]
    assert expected == ["k^2 (1,)"]
    assert capsys.readouterr().out.splitlines() == expected


# perfbench/tracer.py wraps these four, so they stay until the benchmark
# stops tracing them (ROADMAP item 1)
TRACED_ONLY = {"same_element", "is_reduced_fc", "is_positive", "positive_blocks_of"}


def test_every_public_name_is_used_in_src_or_named_in_the_readme():
    # a public module-level function or class of blobcat is read by other
    # code in src/ (an ast walk, so docstrings do not count), or named in a
    # README backtick span, or traced by the benchmark; else it belongs in
    # tests/oracles.py or nowhere
    trees = [ast.parse(p.read_text()) for p in sorted(Path(blobcat.__file__).parent.glob("*.py"))]
    public, used = set(), set()
    for tree in trees:
        for stmt in tree.body:
            own = None
            if isinstance(stmt, (ast.FunctionDef, ast.ClassDef)) and not stmt.name.startswith("_"):
                own = stmt.name
                public.add(own)
            for node in ast.walk(stmt):
                name = node.id if isinstance(node, ast.Name) else getattr(node, "attr", None)
                if isinstance(node, (ast.Name, ast.Attribute)) and name != own:
                    used.add(name)
    spans = re.findall(r"`([^`]+)`", README.read_text().replace("```", "`"))
    named = {word for span in spans for word in re.findall(r"[A-Za-z_]\w*", span)}
    assert public - used - named <= TRACED_ONLY


def test_only_words_names_the_heap_scan_and_heads():
    # `words` alone knows the scan format and the heads format: no other
    # module of blobcat names their readers in code (an ast walk over names,
    # attributes and imports, so docstrings do not count)
    readers = {"scan_closure", "scan_drop", "_heads"}
    for path in sorted(Path(blobcat.__file__).parent.glob("*.py")):
        if path.stem != "words":
            named = set()
            for node in ast.walk(ast.parse(path.read_text())):
                if isinstance(node, ast.Name):
                    named.add(node.id)
                elif isinstance(node, (ast.Attribute, ast.alias)):
                    named.add(node.attr if isinstance(node, ast.Attribute) else node.name)
            assert not named & readers, path.name
