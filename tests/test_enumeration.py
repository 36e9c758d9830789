"""Counting formulas, their recurrences, and the exhaustive block oracles."""

import pytest

from blobcat import enumeration as en
from blobcat import tables
from blobcat.enumeration import (
    CountKind,
    a_count,
    b_count,
    blob_polynomial,
    count,
    d_count,
    i_nr,
    i_t,
    iter_positive_blocks,
    j_nr,
    j_t,
    oracle_blobbed_count,
    oracle_positive_count,
    p_dim,
)
from blobcat.normal_forms import check_blocks
from blobcat.triangles import blobbed_entry


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


@pytest.mark.parametrize("n,s,expected", [(1, 1, 4), (2, 0, 6), (3, 2, 62)])
def test_oracle_positive_examples(n, s, expected):
    assert oracle_positive_count(n, s) == expected


@pytest.mark.parametrize("n,s,expected", [(2, 1, 10), (4, 4, 3), (3, 4, 0), (2, 3, 0)])
def test_oracle_blobbed_examples(n, s, expected):
    assert oracle_blobbed_count(n, s) == expected


def test_oracles_match_formulas():
    for n in range(1, 5):
        for s in range(0, min(n + 1, 6) + 1):
            assert oracle_positive_count(n, s) == blobbed_entry(2 * n, 2 * s)
            assert oracle_blobbed_count(n, s) == b_count(n, s)


def test_oracle_budget():
    with pytest.raises(ValueError):
        oracle_positive_count(6, 0)
    with pytest.raises(ValueError):
        oracle_blobbed_count(2, 7)


def test_count_dispatch_and_table():
    assert count(CountKind.A, 2, 1) == 14
    assert count(CountKind.D, 9, 4) == 221004


def test_exact_halving_guard():
    # every halved entry divides evenly across a wide sweep
    for n in range(1, 20):
        for t in range(0, 12):
            j_t(n, t)


def test_excluded_counts_from_generated_words():
    # third independent leg: count pattern-containing positive elements from
    # the generated normal forms via the word-level containment oracle
    from blobcat import grids, normal_forms as nfm
    from blobcat.words import contains_pattern

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
