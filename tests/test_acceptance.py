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

from blobcat import enumeration, grids, normal_forms, verify
from blobcat.algebra import AlgebraLevel, in_index_set, reduce_word
from blobcat.cli import main
from blobcat.words import is_reduced_fc

from oracles import walk_reduce

SB = AlgebraLevel.SYMPLECTIC_BLOB


class Budget:
    def __init__(self, name, seconds):
        self.name = name
        self.seconds = seconds
        self.start = time.perf_counter()

    def done(self, detail):
        elapsed = time.perf_counter() - self.start
        line = f"{self.name}: {detail} ({elapsed:.2f}s / {self.seconds:g}s budget)"
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
    # walked, and a deep blob redex is rewritten by the blob step (see
    # test_deep_blob_redexes_reduce_at_ranks_6_and_8).
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


def test_deep_blob_redexes_reduce_at_ranks_6_and_8():
    # The long words of seeds 1-30 at rank 8 and one rank-6 blob product hold
    # blob redexes deep in their classes: a class walk to them takes seconds,
    # or passes the class cap and raises ClassSizeError (a word of seed 14,
    # and the product).  Positive words take the blob step from the heap.
    budget = Budget("deep blob redexes at ranks 6 and 8", 10.0)
    x = (5, 4, 3, 2, 1, 6, 5, 4, 3, 2, 6, 5, 4, 6, 5, 6)
    y = (0, 2, 1, 0, 3, 2, 1, 0, 5, 4, 3, 6)
    cases = [(6, x + y)]
    for seed in range(1, 31):
        rng = random.Random(seed)
        lengths = (20,) * 10 + (30,) * 10
        cases += [(8, tuple(rng.randint(0, 8) for _ in range(m))) for m in lengths]
    for n, word in cases:
        for level in AlgebraLevel:
            left = reduce_word(level, n, word, "leftmost")
            assert left == reduce_word(level, n, word, "rightmost"), (level, n, word)
            assert in_index_set(level, n, left[1]), (level, n, word)
    budget.done(f"{len(cases)} words, three levels, two strategies")


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


def test_block_reading_scales_with_rank():
    # the descending word is 4,000 one-letter blocks and the staircase 2,000
    # two-letter ones; a reader that rescans the rank per block takes seconds
    n = 4000
    descending = tuple(range(n - 1, -1, -1))
    staircase = tuple(a for k in range(n - 1, 0, -2) for a in (k - 1, k))
    grids.iji_blocks.cache_clear()
    grids.jij_blocks.cache_clear()
    budget = Budget("rigid blocks at rank 4000", 0.25)
    assert normal_forms.blocks_of_word(n, descending) == tuple((a, a) for a in descending)
    assert normal_forms.blocks_of_word(n, staircase) == tuple(
        (k - 1, k) for k in range(n - 1, 0, -2)
    )
    assert in_index_set(AlgebraLevel.SYMPLECTIC_BLOB, n, descending)
    budget.done("descending and staircase words, one cold blob-level query")


def test_criterion_8_quotient_identities():
    # 114 non-positive elements (TL -> 2B), 68 non-blobbed positive elements
    # (2B -> SB), the rank-3 descent chain, the rank-1 identity
    accept("criterion 8 quotient identities", 30.0, [184], verify.check_quotient_identities)


def test_blob_step_matches_the_class_walk():
    # verify's 2B -> SB check compares the kernel with itself on the image,
    # which is circular once the kernel takes that step; here a reducer that
    # only walks classes (oracles.walk_reduce) is the reference instead.
    # Every non-blobbed positive block word: ranks 2-3 at affine lengths 0-4,
    # rank 4 at 0-3, rank 5 at 0-1 (rank 4 at length 4 and rank 5 at length
    # 2 would add about 2 s and 55 s); both strategies, 1,474 reductions.
    budget = Budget("blob step against the class walk", 30.0)
    cases = 0
    for n, max_s in ((2, 4), (3, 4), (4, 3), (5, 1)):
        for s in range(max_s + 1):
            for blocks in enumeration.iter_positive_blocks(n, s):
                if grids.is_blobbed(n, blocks):
                    continue
                word = normal_forms.block_word(blocks)
                for strategy in ("leftmost", "rightmost"):
                    expected = walk_reduce(SB, n, word, strategy)
                    assert reduce_word(SB, n, word, strategy) == expected, (n, word, strategy)
                    cases += 1
    assert cases == 1474
    budget.done(f"{cases} reductions at ranks 2-5")


def test_criterion_9_blob_closure():
    # bases of 5, 19 and 84 elements: tables of 25 + 361 + 7056 products
    accept("criterion 9 blob closure", 120.0, [7442], verify.check_blob_closure)
