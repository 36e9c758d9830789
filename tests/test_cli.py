"""Command-line behaviour: outputs, determinism, exit codes, fault injection."""

import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import blobcat
from blobcat import cli, verify
from blobcat.cli import main
from blobcat.triangles import blobbed_entry


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
    # the kernel recurses once per rewrite; ROADMAP item 2's loop will turn
    # this into exit 0 with "d^2999 * [1]"
    word = ",".join(["1"] * 3000)
    code, out, err = run(capsys, "reduce", "--n", "2", "--level", "tl", "--word", word)
    assert code == 2
    assert err.startswith("error:") and len(err.splitlines()) == 1
    assert out == ""


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


# the count outputs, recorded before the triangles were read off binomial rows
TRIANGLE_SHA256 = {
    ("blobbed", "csv"): "d9502f965eca81b0bef4201bc2d3a10e9a7378e4c872ca9ac5b6738a91b62ed9",
    ("blobbed", "json"): "df0ca87b1a81cfce1e0ff74b58a9613eac6c6325d340e5c564ccb54767dc8a4c",
    ("classical", "csv"): "52713ba42b4ee8ac3b2ff4df0de0df971bfda49e8816d106cb3fd2a812a0f7bc",
    ("classical", "json"): "3b307b66221b0ee42a163f335134fbb5b3abee3a1c609b2cbe07bfb40ebca4e0",
}
# stdout of `dim --n N` for N = 1..90, concatenated
DIM_SHA256 = "ac369d4d2039b9cce59d57c4fa534450a97e9d8542256a0f34f69f40fdc4f1fb"


# recorded before blob_polynomial read every d(s) off one pair of wing
# sequences: sha256 of the stdout of `dim --n N`, and of
# `count --n 512 --s S --which W`
DIM_LARGE_SHA256 = {
    128: "5bdabecaf4a14b2bb34cc38baed144f6047f11142b46b1b924c947d7444ce0c3",
    256: "46bfb168457be645280c184c96de8410fe8729265d8f571b6e691f67fbb32c9a",
    512: "210a15bfd6bf9c83a3e32755d097705d2e9132c4f1de0b22c2c8b89e5eef9c0a",
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


@pytest.mark.parametrize(
    "second, extra",
    [
        (("enumerate", "--n", "2", "--s", "1"), ("--limit", "1")),
        (("verify", "--suite", "tables"), ("--max-n", "2")),
    ],
)
def test_reused_parser_answers_as_a_fresh_process(capsys, second, extra):
    # the same call with one more option first: nothing of it may carry over
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


def test_grid_from_blocks_and_word(capsys):
    code, out, _ = run(
        capsys, "grid", "--blocks", "7:8,4:8,3:7,1:4,0:1,0:0", "--render", "svg"
    )
    assert code == 0 and out.count("<circle") == 19
    code, out_blocks, _ = run(capsys, "grid", "--blocks", "0:1", "--n", "1")
    code, out_word, _ = run(capsys, "grid", "--word", "0,1", "--n", "1")
    assert out_blocks == out_word
    assert out_blocks.splitlines()[1].count("*") == 2


def test_grid_rejects_non_positive_word(capsys):
    code, _, err = run(capsys, "grid", "--word", "1,0,1", "--n", "2")
    assert code == 2 and "positive" in err


def test_malformed_input_exits_two(capsys):
    code, _, err = run(capsys, "reduce", "--n", "2", "--level", "sb", "--word", "1,x")
    assert code == 2 and "error" in err


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


@pytest.mark.parametrize("argv", [("--max-n", "0"), ("--suite", "tables", "--max-n", "-1")])
def test_verify_rejects_max_n_below_one(capsys, argv):
    code, out, err = run(capsys, "verify", *argv)
    assert code == 2 and out == "" and "--max-n" in err


def test_verify_reports_injected_fault(capsys):
    from blobcat import enumeration

    def broken(n, s):
        value = enumeration.d_count(n, s)
        return value + 1 if (n, s) == (4, 2) else value

    checks = verify.verify_tables(d_fn=broken)
    failed = [c for c in checks if not c.ok]
    assert len(failed) == 1
    assert "(n=4,s=2) got 149 want 148" in failed[0].detail


def test_verify_exit_code_on_failure(capsys, monkeypatch):
    def broken_suite(max_n=9):
        return [verify.Check("tables:excluded", False, "injected")]

    monkeypatch.setitem(verify.SUITES, "tables", broken_suite)
    code, out, _ = run(capsys, "verify", "--suite", "tables")
    assert code == 1 and "FAIL tables:excluded: injected" in out
