"""Counting formulas, their recurrences, and the exhaustive block oracles."""

import hashlib
import random

import pytest

from blobcat import enumeration as en
from blobcat import tables
from blobcat.enumeration import (
    COUNTS,
    CountKind,
    a_count,
    b_count,
    blob_polynomial,
    d_count,
    iter_positive_blocks,
    oracle_blobbed_count,
    oracle_positive_count,
    p_dim,
)
from blobcat.algebra import AlgebraLevel, in_index_set
from blobcat.grids import is_blobbed
from blobcat.normal_forms import block_word, check_blocks, iter_fc_forms
from blobcat.triangles import blobbed_entry
from oracles import blob_polynomial_by_convolutions, convolve, i_nr, i_t, j_nr, j_t


@pytest.mark.parametrize("n,s,expected", [(1, 0, 2), (2, 1, 14), (2, 2, 16)])
def test_a_count_examples(n, s, expected):
    assert a_count(n, s) == expected


def test_wing_count_examples():
    assert i_t(4, 0) == 6
    assert j_t(2, 0) == 3
    assert i_t(3, 0) == 6
    assert i_nr(2, 0) == 1
    assert i_nr(3, 1) == 0
    assert j_nr(3, 0) == 1
    assert j_nr(2, 1) == 0
    # the outermost extension is a single grid on both wings
    assert i_nr(4, 3) == 1
    assert j_nr(5, 4) == 1


def test_wing_row_sums():
    for n in range(2, 13, 2):
        assert sum(i_nr(n, r) for r in range(n)) == i_t(n, 0)
    for n in range(3, 13, 2):
        assert sum(j_nr(n, r) for r in range(n)) == j_t(n, 0)


@pytest.mark.parametrize(
    "n,s,expected", [(4, 2, 148), (9, 4, 221004), (1, 2, 4), (1, 1, 1), (4, 1, 36), (9, 1, 15876)]
)
def test_d_count_examples(n, s, expected):
    assert d_count(n, s) == expected


def test_d_count_edge_cases():
    assert d_count(5, 0) == 0
    for n in range(1, 8):
        for s in range(n + 1, n + 4):
            assert d_count(n, s) == a_count(n, s)
    assert d_count(2, 1) == i_t(2, 0) ** 2
    assert d_count(3, 1) == j_t(3, 0) ** 2


@pytest.mark.parametrize("n,s,expected", [(3, 1, 41), (5, 5, 3), (2, 3, 0)])
def test_b_count_examples(n, s, expected):
    assert b_count(n, s) == expected


def test_tables_reproduced():
    for n in range(1, 10):
        for s in range(10):
            assert d_count(n, s) == tables.EXCLUDED_TABLE[n - 1][s]
            assert b_count(n, s) == tables.BLOBBED_TABLE[n - 1][s]


def test_dimension_examples():
    assert p_dim(1) == 5
    assert p_dim(3) == 84
    assert p_dim(9) == 404148
    assert blob_polynomial(2) == (6, 10, 3)
    for n in range(1, 10):
        assert p_dim(n) == tables.DIMENSION_SEQUENCE[n - 1]
        assert sum(blob_polynomial(n)) == p_dim(n)


def _naive_convolution(x, y):
    out = [0] * (len(x) + len(y) - 1) if x and y else []
    for i, a in enumerate(x):
        for j, b in enumerate(y):
            out[i + j] += a * b
    return out


@pytest.mark.parametrize(
    "x, y",
    [
        ([], []),
        ([], [3]),
        ([5], []),
        ([0], [0]),
        ([7], [9]),
        ([0, 0, 0], [0, 0]),
        ([1, 0, 2], [0, 0, 0, 3]),
        # every coefficient at its list's maximum bit length, with the bound
        # a whole number of bytes: 7 + 8 + bit_length(1) = 16 bits, and the
        # one coefficient, 127 * 255, needs 15 of them
        ([2**7 - 1], [2**8 - 1]),
        # 5 + 8 + bit_length(4) = 16 bits: the central coefficient, 4 (2^5 - 1)
        # (2^8 - 1), needs 15 of the 16 bits of its 2-byte field
        ([2**5 - 1] * 4, [2**8 - 1] * 6),
        # 100 + 153 + bit_length(3) = 255 bits in 32-byte fields
        ([2**100 - 1] * 3, [2**153 - 1] * 3),
    ],
)
def test_convolve_edge_cases(x, y):
    assert convolve(x, y) == _naive_convolution(x, y)


def test_convolve_matches_naive_convolution():
    rng = random.Random(23)
    for _ in range(300):
        bits_x, bits_y = rng.randint(0, 300), rng.randint(0, 300)
        x = [rng.getrandbits(bits_x) for _ in range(rng.randint(0, 40))]
        y = [rng.getrandbits(bits_y) for _ in range(rng.randint(0, 40))]
        if x and rng.random() < 0.3:
            x = [(1 << bits_x) - 1] * len(x)
        assert convolve(x, y) == _naive_convolution(x, y)
        assert convolve(x, x) == _naive_convolution(x, x)


def test_blob_polynomial_matches_the_convolution_oracle():
    # the fields are w = 8 ((2n + 8) // 8) bits, 2 to 8 bits more than 2n:
    # n = 1..300 meets each of the four slacks (one per n mod 4) 75 times
    for n in [*range(1, 301), 512]:
        assert blob_polynomial(n) == blob_polynomial_by_convolutions(n), n
    coeffs = blob_polynomial(1000)
    for s in (1, 500, 1000):
        assert coeffs[s] == b_count(1000, s), s


def test_positive_count_recurrence():
    # splitting along the top grid row: a_{n+1}^{s-1} = a_n^{s-2} + 2 a_n^{s-1} + a_n^s
    for n in range(2, 13):
        for s in range(2, n + 1):
            assert a_count(n + 1, s - 1) == (
                a_count(n, s - 2) + 2 * a_count(n, s - 1) + a_count(n, s)
            )


def test_positive_count_column_identity():
    for n in range(1, 13):
        assert a_count(n + 1, 0) == a_count(n, 1) + a_count(n, 0)


def test_iter_positive_blocks_valid_and_exact():
    for n in (1, 2, 3):
        for s in range(0, 4):
            blocks_list = list(iter_positive_blocks(n, s))
            for blocks in blocks_list:
                check_blocks(n, blocks)
                assert sum(1 for _, r in blocks if r == n) == s
            assert len(set(blocks_list)) == len(blocks_list)


# sha256 of repr([list(iter_positive_blocks(n, s)) for n 1..7 for s 0..7]),
# 143,570 lists, recorded with the two nested generators it replaced
BLOCK_ORDER_SHA256 = "44c2cafdbd3b957a129b9630b3bbec890729569a890414c3c738a36b6ba8d4e0"


def test_iter_positive_blocks_order_is_pinned():
    lists = [list(iter_positive_blocks(n, s)) for n in range(1, 8) for s in range(8)]
    assert sum(map(len, lists)) == 143570
    assert hashlib.sha256(repr(lists).encode()).hexdigest() == BLOCK_ORDER_SHA256


def test_iter_positive_blocks_checks_arguments_at_the_call():
    with pytest.raises(ValueError):
        iter_positive_blocks(2, -1)
    with pytest.raises(ValueError):
        iter_positive_blocks(0, 1)
    with pytest.raises(ValueError):
        a_count(True, 1)  # bool subclasses int; at rank True this counted 4
    # the affine length is checked as the rank is: True counted as 1, and
    # 2.0 listed the 32 forms of affine length 2, while d_count(2, 2.0)
    # raised TypeError from a slice
    for fn in (a_count, b_count, d_count, iter_positive_blocks, iter_fc_forms):
        with pytest.raises(ValueError, match="affine length"):
            fn(2, True)
    for fn in (d_count, iter_positive_blocks, iter_fc_forms):
        with pytest.raises(ValueError, match="affine length"):
            fn(2, 2.0)


def test_rank_one_block_lists_are_not_all_positive_elements():
    # at rank 1 the block lists outnumber the positive elements: a_count
    # counts block lists, and only 2, 3, 0, ... of them spell a word that
    # is reduced, fully commutative and free of both boundary triples;
    # the blobbed lists are exactly the blob-level basis words
    tb, sb = AlgebraLevel.TWO_BOUNDARY, AlgebraLevel.SYMPLECTIC_BLOB
    for s, positive in enumerate((2, 3, 0, 0, 0)):
        blocks_list = list(iter_positive_blocks(1, s))
        assert len(blocks_list) == a_count(1, s) == (2, 4, 4, 4, 4)[s]
        words = [block_word(blocks) for blocks in blocks_list]
        assert sum(in_index_set(tb, 1, word) for word in words) == positive, s
        blobbed = [in_index_set(sb, 1, word) for word in words]
        assert blobbed == [is_blobbed(1, blocks) for blocks in blocks_list], s
        assert sum(blobbed) == b_count(1, s), s


# at (1, 1500) the first list holds 1,500 rows; a generator that recursed
# once per row raised RecursionError there
@pytest.mark.parametrize("n,s,expected", [(1, 1, 4), (2, 0, 6), (3, 2, 62), (1, 1500, 4)])
def test_oracle_positive_examples(n, s, expected):
    assert oracle_positive_count(n, s) == a_count(n, s) == expected


@pytest.mark.parametrize("n,s,expected", [(2, 1, 10), (4, 4, 3), (3, 4, 0), (2, 3, 0)])
def test_oracle_blobbed_examples(n, s, expected):
    assert oracle_blobbed_count(n, s) == expected


def test_oracles_match_formulas():
    for n in range(1, 5):
        for s in range(0, min(n + 1, 6) + 1):
            assert oracle_positive_count(n, s) == blobbed_entry(2 * n, 2 * s)
            assert oracle_blobbed_count(n, s) == b_count(n, s)


def test_oracle_budget():
    # the oracles take any rank and affine length; the limits are verify's
    for n, s in ((6, 3), (7, 1)):
        assert oracle_positive_count(n, s) == a_count(n, s)
        assert oracle_blobbed_count(n, s) == b_count(n, s)


def test_count_dispatch_and_table():
    assert set(COUNTS) == set(CountKind)
    assert COUNTS[CountKind.A](2, 1) == 14
    assert COUNTS[CountKind.D](9, 4) == 221004


def test_exact_halving_guard():
    # every halved entry divides evenly across a wide sweep
    for n in range(1, 20):
        for t in range(0, 12):
            j_t(n, t)


def test_wings_read_as_runs_match_the_single_entries():
    # past t = n/2 both wings sit at 2^n, so the runs reach the diagonal
    for n in range(1, 40):
        main, other = en._wings(n, n + 3)
        x = [i_t(n, t) for t in range(n + 3)]
        y = [j_t(n, t) for t in range(n + 3)]
        assert (main, other) == ((x, y) if n % 2 == 0 else (y, x)), n


def test_excluded_counts_from_generated_words():
    # third independent leg: count pattern-containing positive elements from
    # the generated normal forms via the word-level containment oracle
    from blobcat import grids, normal_forms as nfm
    from oracles import contains_pattern

    for n in (2, 3):
        iji = nfm.block_word(grids.iji_blocks(n))
        jij = nfm.block_word(grids.jij_blocks(n))
        for s in range(0, 4):
            hits = 0
            for f in nfm.fc_forms(n, s):
                if not nfm.is_positive(n, f):
                    continue
                word = nfm.word_of_normal_form(n, f)
                if contains_pattern(n, word, iji) or contains_pattern(n, word, jij):
                    hits += 1
            assert hits == d_count(n, s), (n, s)


def test_d_count_wing_sums_match_closed_form():
    # d_count evaluates one formula; the closed form is checked in verify
    from blobcat import verify

    check = verify.check_d_forms()
    assert check.ok, check.detail
    assert check.cases == 4005
