"""
Acceptance gate: one test per criterion, exact arithmetic, hard time budgets.

Run with `pytest tests/test_acceptance.py -v -s` to see one line per
criterion.  Each criterion is a check in blobcat.verify, the same code that
`blobcat verify` runs; here it runs under a time budget and must cover
exactly the stated number of cases, so a check whose range shrinks fails.
Every expected value is frozen in blobcat.verify or blobcat.tables.
"""

import json
import random
import time
from functools import partial

from blobcat import normal_forms, verify
from blobcat.algebra import AlgebraLevel, reduce_word
from blobcat.cli import main
from blobcat.words import is_reduced_fc


class Budget:
    def __init__(self, name, seconds):
        self.name = name
        self.seconds = seconds
        self.start = time.perf_counter()

    def done(self, detail):
        elapsed = time.perf_counter() - self.start
        line = f"{self.name}: {detail} ({elapsed:.2f}s / {self.seconds:.0f}s budget)"
        assert elapsed < self.seconds, f"FAIL {line}"
        print(f"PASS {line}")


def accept(name, seconds, cases, *checks):
    """Run the checks under one budget; all must pass over exactly `cases` cases."""
    budget = Budget(name, seconds)
    results = [check() for check in checks]
    for result in results:
        assert result.ok, f"{result.name}: {result.detail}"
    assert [r.cases for r in results] == list(cases), [r.name for r in results]
    budget.done(", ".join(f"{r.name} {r.detail}" for r in results))


def test_criterion_1_excluded_table():
    accept("criterion 1 excluded-count table", 1.0, [90], verify.check_excluded)


def test_criterion_2_blobbed_table():
    accept("criterion 2 blobbed-count table", 1.0, [90], verify.check_blobbed)


def test_criterion_3_dimension_sequence():
    accept("criterion 3 dimension sequence", 1.0, [9], verify.check_dimension_sequence)


def test_criterion_4_oracle_vs_formula():
    # affine lengths 0..min(n+1, 6) at ranks 1..5: 25 (n, s) pairs
    checks = [partial(verify.check_oracle, n) for n in range(1, 6)]
    accept("criterion 4 oracle vs formula", 60.0, [3, 4, 5, 6, 7], *checks)


def test_dimension_polynomial_one_pass():
    # blob_polynomial(n) against b_count(n, s) for every s, n = 1..90
    accept("dimension polynomial in one pass", 10.0, [90], verify.check_dim_polynomial)


def test_criterion_5_triangle_coherence():
    accept(
        "criterion 5 triangle coherence",
        5.0,
        [14223, 3241, 495],
        verify.check_triangle_closed_form,
        verify.check_triangle_identities,
        verify.check_triangle_decompositions,
    )


def test_criterion_6_finite_part_generation_counts():
    accept("criterion 6 finite-part generation", 30.0, [8], verify.check_finite_part)


def test_criterion_7_rewriting_confluence():
    accept("criterion 7 rewriting confluence", 60.0, [630], verify.check_confluence)


def test_long_words_reduce_at_rank_8():
    # Redex-free classes of long words are certified from the heap instead of
    # walked.  A word whose first blob redex lies deep in its class still
    # walks to it (see test_deep_blob_redex_is_found_in_few_members).
    budget = Budget("long words at rank 8", 10.0)
    n = 8
    rng = random.Random(8)
    words = [tuple(rng.randint(0, n) for _ in range(length)) for length in (20,) * 10 + (30,) * 10]
    for level in AlgebraLevel:
        for word in words:
            left = reduce_word(level, n, word, "leftmost")
            right = reduce_word(level, n, word, "rightmost")
            assert left == right, (level, word)
            assert is_reduced_fc(n, left[1]), (level, word)
    budget.done(f"{len(words)} words of length 20 and 30, three levels, two strategies")


def test_enumerate_streams_its_forms(capsys, monkeypatch):
    # the first forms at rank 10 without building a whole FC set: fc_forms(10, 3)
    # holds 966,816 forms and takes over a minute to build
    def refuse(n, s):
        raise AssertionError("enumerate built a whole FC set")

    monkeypatch.setattr(normal_forms, "fc_forms", refuse)
    budget = Budget("enumerate --limit at rank 10", 3.0)
    for s, limit in ((3, 1), (0, 2)):
        argv = ["enumerate", "--n", "10", "--s", str(s), "--limit", str(limit)]
        assert main(argv) == 0
        assert json.loads(capsys.readouterr().out)["count"] == limit
    budget.done("s = 3 limit 1, s = 0 limit 2")


def test_criterion_8_quotient_identities():
    # 114 non-positive elements (TL -> 2B), 68 non-blobbed positive elements
    # (2B -> SB), the rank-3 descent chain, the rank-1 identity
    accept("criterion 8 quotient identities", 30.0, [184], verify.check_quotient_identities)


def test_criterion_9_blob_closure():
    # bases of 5, 19 and 84 elements: tables of 25 + 361 + 7056 products
    accept("criterion 9 blob closure", 120.0, [7442], verify.check_blob_closure)
