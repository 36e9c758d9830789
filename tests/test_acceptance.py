"""
Acceptance gate: one test per criterion, exact arithmetic, hard time budgets.

Run with `pytest tests/test_acceptance.py -v -s` to see one line per
criterion.  Every expected value is frozen here or in blobcat.tables; the
exhaustive block oracles and the two-strategy rewriting runs are the
independent legs backing the closed formulas and the basis claims.
"""

import math
import random
import time

from blobcat import enumeration as en
from blobcat import grids, normal_forms as nfm, tables
from blobcat.algebra import (
    KL,
    KR,
    AlgebraLevel,
    quotient_image_check,
    reduce_word,
    sb_basis,
    structure_constants,
)
from blobcat.triangles import (
    binomial,
    blobbed_closed,
    blobbed_entry,
    central_binomial_decomposition,
    general_binomial_decomposition,
)
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


def test_criterion_1_excluded_table():
    budget = Budget("criterion 1 excluded-count table", 1.0)
    for n in range(1, 10):
        for s in range(10):
            assert en.d_count(n, s) == tables.EXCLUDED_TABLE[n - 1][s], (n, s)
    budget.done("90 cells exact")


def test_criterion_2_blobbed_table():
    budget = Budget("criterion 2 blobbed-count table", 1.0)
    for n in range(1, 10):
        for s in range(10):
            assert en.b_count(n, s) == tables.BLOBBED_TABLE[n - 1][s], (n, s)
    budget.done("90 cells exact")


def test_criterion_3_dimension_sequence():
    budget = Budget("criterion 3 dimension sequence", 1.0)
    got = tuple(en.p_dim(n) for n in range(1, 10))
    assert got == (5, 19, 84, 335, 1428, 5748, 24104, 97287, 404148)
    budget.done("9 terms exact")


def test_criterion_4_oracle_vs_formula():
    budget = Budget("criterion 4 oracle vs formula", 60.0)
    pairs = 0
    for n in range(1, 6):
        for s in range(0, min(n + 1, 6) + 1):
            assert en.oracle_positive_count(n, s) == blobbed_entry(2 * n, 2 * s), (n, s)
            assert en.oracle_blobbed_count(n, s) == en.b_count(n, s), (n, s)
            pairs += 1
    budget.done(f"{pairs} (n,s) pairs, both oracles exact")


def test_criterion_5_triangle_coherence():
    budget = Budget("criterion 5 triangle coherence", 5.0)
    for i in range(0, 65):
        for j in range(i % 2, i + 1, 2):
            assert blobbed_closed(i, j) == blobbed_entry(i, j), (i, j)
    for j in range(0, 41):
        assert blobbed_entry(j, 0) == blobbed_entry(j - 1, 1), j
    for i in range(1, 41):
        for j in range(1, 41):
            value = blobbed_entry(i, j)
            assert value == sum(
                blobbed_entry(i - 1 - k, j + 1 - k) for k in range(j + 1)
            ), (i, j)
            assert value == sum(
                blobbed_entry(i - 1 - k, j - 1 + k) for k in range(i + 1)
            ), (i, j)
    for i in range(1, 31):
        total = sum(w * c for _, w, c in central_binomial_decomposition(i))
        assert total == binomial(2 * i, i), i
        for j in range(1, i + 1):
            total = sum(w * c for _, w, c in general_binomial_decomposition(i, j))
            assert total == binomial(2 * i - j, i), (i, j)
    budget.done("closed form to 64, identities to 40, decompositions to 30")


def test_criterion_6_finite_part_generation_counts():
    budget = Budget("criterion 6 finite-part generation", 30.0)
    for n in range(1, 9):
        forms = nfm.fc_forms(n, 0)
        catalan = math.comb(2 * n, n) // (n + 1)
        assert len(forms) == (n + 2) * catalan - 1, n
        positive = sum(1 for f in forms if nfm.is_positive(n, f))
        assert positive == math.comb(2 * n, n), n
    budget.done("totals and positive counts for n <= 8")


def test_criterion_7_rewriting_confluence():
    budget = Budget("criterion 7 rewriting confluence", 60.0)
    rng = random.Random(20240817)
    per_level = 0
    for level in AlgebraLevel:
        per_level = 0
        for n in (2, 3, 4):
            for _ in range(70):
                word = tuple(rng.randint(0, n) for _ in range(rng.randint(0, 12)))
                left = reduce_word(level, n, word, "leftmost")
                right = reduce_word(level, n, word, "rightmost")
                assert left == right, (level, n, word)
                _, out = left
                assert is_reduced_fc(n, out), (level, n, word)
                nf = nfm.normal_form_of_word(n, out)
                if level >= AlgebraLevel.TWO_BOUNDARY:
                    assert nfm.is_positive(n, nf), (level, n, word)
                if level == AlgebraLevel.SYMPLECTIC_BLOB:
                    blocks = nfm.positive_blocks_of(n, nf)
                    assert grids.is_blobbed(n, blocks), (level, n, word)
                per_level += 1
    budget.done(f"{per_level} words per level, two strategies, outputs sound")


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


def test_criterion_8_quotient_identities():
    budget = Budget("criterion 8 quotient identities", 30.0)
    checked = 0
    for n in (2, 3):
        for s in range(0, 3):
            for f in nfm.fc_forms(n, s):
                word = nfm.word_of_normal_form(n, f)
                if nfm.is_positive(n, f):
                    continue
                assert quotient_image_check(
                    AlgebraLevel.TL, AlgebraLevel.TWO_BOUNDARY, n, word
                ), (n, s, f)
                checked += 1
    # the full descent chain through both boundaries at rank 3
    chain = (2, 3, 2, 1, 0, 1, 2, 3)
    assert reduce_word(AlgebraLevel.TWO_BOUNDARY, 3, chain) == (KL * KR, (2, 3))
    # the rank-1 boundary identity is the defining relation itself
    assert reduce_word(AlgebraLevel.TWO_BOUNDARY, 1, (1, 0, 1)) == (KL, (1,))
    budget.done(f"{checked} non-positive elements plus the descent chain")


def test_criterion_9_blob_closure():
    budget = Budget("criterion 9 blob closure", 120.0)
    expected_sizes = {1: 25, 2: 361, 3: 7056}
    for n in (1, 2, 3):
        basis = set(sb_basis(n))
        table = structure_constants(n)
        assert len(table) == expected_sizes[n], n
        assert all(target in basis for _, target in table.values()), n
    budget.done("tables of 25, 361, 7056 close over the blob bases")
