"""Command-line behaviour: outputs, determinism, exit codes, fault injection."""

import hashlib
import json

import pytest

from blobcat import verify
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
