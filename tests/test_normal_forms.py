"""Normal forms: expansion, generation, positivity, bar/tilde, rigid blocks."""

import math
import random

import pytest

from blobcat import normal_forms as nfm
from blobcat import words
from blobcat.normal_forms import (
    Bracket,
    DescentTail,
    DescentZerosTail,
    FirstType,
    LengthOne,
    LengthZero,
    SecondType,
    bar,
    block_word,
    blocks_affine_length,
    blocks_of_word,
    check_blocks,
    check_normal_form,
    classify_left_not_right,
    classify_non_left_positive,
    fc_forms,
    format_blocks,
    is_left_positive,
    is_positive,
    is_right_positive,
    nf_of_positive_blocks,
    normal_form_of_word,
    parse_blocks,
    positive_blocks_of,
    tilde,
    word_of_normal_form,
)
from blobcat.words import affine_length, canonical_word, contains_pattern, is_reduced_fc

RANKS = (1, 2, 3)
LENGTHS = (0, 1, 2, 3)


def catalan(n):
    return math.comb(2 * n, n) // (n + 1)


# ---------------------------------------------------------------------------
# expansion


def test_word_of_simple_brackets():
    assert word_of_normal_form(3, LengthZero((Bracket(0, 1),))) == (0, 1)
    assert word_of_normal_form(3, LengthZero(())) == ()
    assert Bracket(-2, 2).word() == (2, 1, 0, 1, 2)


def test_word_of_first_type():
    # the edge brackets are empty at i = f = n; the middle descends through 0
    assert word_of_normal_form(2, FirstType(2, 1, 2)) == (2, 1, 0, 1, 2)
    assert word_of_normal_form(3, FirstType(3, 1, 3)) == (3, 2, 1, 0, 1, 2, 3)
    assert word_of_normal_form(2, FirstType(1, 1, 2)) == (1, 2, 1, 0, 1, 2)


def test_word_of_second_type():
    assert word_of_normal_form(2, SecondType((), 1, ())) == (0, 1, 2)
    assert word_of_normal_form(2, SecondType((2, 1), 0, ())) == (2, 1, 2)
    assert word_of_normal_form(
        3, SecondType((2,), 1, (Bracket(0, 0),))
    ) == (2, 3, 0, 1, 2, 3, 0)


def test_word_of_length_one():
    assert word_of_normal_form(2, LengthOne(2, ())) == (2,)
    assert word_of_normal_form(2, LengthOne(0, DescentTail(0))) == (0, 1, 2, 1, 0)
    assert word_of_normal_form(
        3, LengthOne(0, DescentZerosTail(2, (1, 0)))
    ) == (0, 1, 2, 3, 2, 0, 1, 0)


def test_invalid_forms_rejected():
    with pytest.raises(ValueError):
        check_normal_form(2, FirstType(2, 0, 2))
    with pytest.raises(ValueError):
        check_normal_form(2, LengthOne(-1, ()))
    with pytest.raises(ValueError):
        check_normal_form(3, SecondType((1, 2), 0, ()))
    with pytest.raises(ValueError):
        check_normal_form(3, LengthZero((Bracket(2, 1),)))
    with pytest.raises(ValueError):
        check_normal_form(3, LengthZero((Bracket(1, 2), Bracket(1, 1))))


# ---------------------------------------------------------------------------
# generation


def test_generation_counts_affine_length_zero():
    for n in range(1, 7):
        forms = fc_forms(n, 0)
        assert len(forms) == (n + 2) * catalan(n) - 1
        positive = sum(1 for f in forms if is_positive(n, f))
        assert positive == math.comb(2 * n, n)


def test_generation_positive_counts_match_triangle():
    from blobcat.triangles import blobbed_entry

    for n in (2, 3, 4):
        for s in LENGTHS:
            positive = sum(1 for f in fc_forms(n, s) if is_positive(n, f))
            assert positive == blobbed_entry(2 * n, 2 * s), (n, s)


def test_generation_is_unique_and_reduced():
    cases = [(n, s) for n in (1, 2, 3, 4) for s in LENGTHS] + [(5, 1), (6, 1)]
    for n, s in cases:
        seen = set()
        for f in fc_forms(n, s):
            word = word_of_normal_form(n, f)
            assert is_reduced_fc(n, word), (n, s, f)
            assert affine_length(n, word) == s
            key = canonical_word(n, word)
            assert key not in seen, (n, s, f)
            seen.add(key)


def _fc_elements_grown(n, max_s):
    """
    Canonical words of all FC elements of affine length <= max_s, grown one
    letter at a time from the identity.  FC elements are closed under
    prefixes (Stembridge 1996), so every one is reached.
    """
    found = {()}
    frontier = [()]
    while frontier:
        grown = []
        for word in frontier:
            for a in range(n + 1):
                longer = word + (a,)
                if affine_length(n, longer) > max_s or not is_reduced_fc(n, longer):
                    continue
                key = canonical_word(n, longer)
                if key not in found:
                    found.add(key)
                    grown.append(key)
        frontier = grown
    return found


@pytest.mark.parametrize("n, max_s", [(1, 3), (2, 3), (3, 3), (4, 2), (5, 1)])
def test_generation_matches_prefix_growth(n, max_s):
    grown = _fc_elements_grown(n, max_s)
    for s in range(max_s + 1):
        forms = fc_forms(n, s)
        generated = {canonical_word(n, word_of_normal_form(n, f)) for f in forms}
        assert len(generated) == len(forms), (n, s)
        assert generated == {w for w in grown if affine_length(n, w) == s}, (n, s)


def test_generation_and_shortening_use_no_oracle(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("oracle called on a production path")

    monkeypatch.setattr(words, "is_reduced_fc", refuse)
    monkeypatch.setattr(words, "canonical_word", refuse)
    monkeypatch.setattr(nfm, "is_reduced_fc", refuse)
    fc_forms.cache_clear()
    assert [len(fc_forms(5, s)) for s in LENGTHS] == [293, 1092, 1086, 1137]

    monkeypatch.setattr(nfm, "normal_form_of_word", refuse)
    for n in (2, 3):
        for s in LENGTHS:
            for f in fc_forms(n, s):
                if not is_left_positive(n, f):
                    bar(n, f)
                elif not is_right_positive(n, f):
                    tilde(n, f)


def test_rank_one_census():
    # the rank-1 group is finite: 2, 4, 1 elements at affine lengths 0, 1, 2
    assert len(fc_forms(1, 0)) == 2
    assert len(fc_forms(1, 1)) == 4
    assert len(fc_forms(1, 2)) == 1
    assert len(fc_forms(1, 3)) == 0
    [top] = fc_forms(1, 2)
    assert word_of_normal_form(1, top) == (1, 0, 1)
    assert isinstance(top, FirstType)


def test_normal_form_of_word_round_trip():
    for n in RANKS:
        for s in LENGTHS:
            for f in fc_forms(n, s):
                word = word_of_normal_form(n, f)
                assert normal_form_of_word(n, word) == f


def test_normal_form_of_word_from_scrambled_class_members():
    rng = random.Random(29)
    for n in (1, 2, 3, 4):
        for s in (0, 1, 2):
            for f in fc_forms(n, s):
                word = _scrambled(rng, word_of_normal_form(n, f))
                assert normal_form_of_word(n, word) == f, (n, s, word)


def test_normal_form_of_word_rejects_non_fc():
    with pytest.raises(ValueError):
        normal_form_of_word(2, (1, 0, 1, 0))


# ---------------------------------------------------------------------------
# positivity detectors


def test_detector_agreement_with_containment_oracle():
    for n in (1, 2, 3, 4):
        for s in LENGTHS:
            for f in fc_forms(n, s):
                word = word_of_normal_form(n, f)
                left = not contains_pattern(n, word, (1, 0, 1))
                right = not contains_pattern(n, word, (n - 1, n, n - 1))
                assert is_left_positive(n, f) == left, (n, s, f)
                assert is_right_positive(n, f) == right, (n, s, f)
                assert is_positive(n, f) == (left and right), (n, s, f)


def test_classification_matches_detectors():
    for n in (2, 3):
        for s in LENGTHS:
            for f in fc_forms(n, s):
                left = classify_non_left_positive(n, f)
                assert (left is None) == is_left_positive(n, f), (n, s, f)
                lnr = classify_left_not_right(n, f)
                expected = is_left_positive(n, f) and not is_right_positive(n, f)
                assert (lnr is not None) == expected, (n, s, f)


def test_positivity_examples():
    assert not is_left_positive(2, FirstType(2, 1, 2))
    assert not is_left_positive(3, LengthZero((Bracket(2, 2), Bracket(-1, 1))))
    assert is_positive(3, LengthZero(()))


# ---------------------------------------------------------------------------
# bar and tilde


def test_bar_examples():
    image, extra = bar(2, LengthZero((Bracket(-1, 1),)))
    assert word_of_normal_form(2, image) == (1,) and not extra

    image, extra = bar(3, FirstType(3, 1, 3))
    assert word_of_normal_form(3, image) == (3, 2, 3) and not extra

    image, extra = bar(3, FirstType(3, 2, 3))
    assert image == FirstType(3, 1, 3) and extra

    image, extra = bar(3, FirstType(2, 1, -1))
    assert image == FirstType(2, 1, 1) and not extra

    image, extra = bar(3, LengthZero((Bracket(2, 2), Bracket(-1, 1))))
    assert image == LengthZero((Bracket(2, 2), Bracket(1, 1))) and not extra


def test_bar_requires_non_left_positive():
    with pytest.raises(ValueError):
        bar(2, LengthZero(()))


def test_bar_undefined_on_rank_one_braid():
    with pytest.raises(ValueError):
        bar(1, FirstType(1, 1, 1))


def test_tilde_examples():
    # descent tail with h > 0 contracts to the single run [0, h]
    w = LengthOne(0, DescentTail(1))
    assert tilde(2, w) == LengthZero((Bracket(0, 1),))
    # h == 0 contracts to the left boundary braid
    w = LengthOne(0, DescentTail(0))
    assert word_of_normal_form(2, tilde(2, w)) == (0, 1, 0)
    # descent with trailing zero runs keeps the runs
    w = LengthOne(0, DescentZerosTail(2, (1, 0)))
    assert tilde(3, w) == LengthZero(
        (Bracket(0, 2), Bracket(0, 1), Bracket(0, 0))
    )


def test_tilde_requires_left_not_right():
    with pytest.raises(ValueError):
        tilde(2, LengthZero(()))


def test_bar_and_tilde_shrink_across_generation():
    # every image is itself a generated normal form, not just a valid one
    for n in (2, 3, 4, 5):
        generated = set().union(*(fc_forms(n, s) for s in LENGTHS))
        for s in LENGTHS:
            for f in fc_forms(n, s):
                word = word_of_normal_form(n, f)
                if not is_left_positive(n, f):
                    image, _ = bar(n, f)
                    assert len(word_of_normal_form(n, image)) < len(word), (n, f)
                    assert image in generated, (n, f)
                elif not is_right_positive(n, f):
                    image = tilde(n, f)
                    shorter = word_of_normal_form(n, image)
                    assert len(shorter) < len(word), (n, f)
                    assert is_positive(n, image), (n, f)
                    assert image in generated, (n, f)


# ---------------------------------------------------------------------------
# rigid blocks


def test_block_validation_examples():
    check_blocks(8, ((7, 8), (4, 8), (3, 7), (1, 4), (0, 1), (0, 0)))
    assert check_blocks(3, ()) == ()
    with pytest.raises(ValueError):
        check_blocks(2, ((1, 2), (1, 1)))
    with pytest.raises(ValueError):
        check_blocks(2, ((0, 1), (0, 1)))
    with pytest.raises(ValueError):
        check_blocks(2, ((2, 1),))


def test_block_affine_length_counts_full_rows():
    blocks = ((7, 8), (4, 8), (3, 7), (1, 4), (0, 1), (0, 0))
    assert blocks_affine_length(8, blocks) == 2
    assert block_word(blocks).count(8) == 2


def test_block_text_encoding():
    blocks = ((7, 8), (4, 8), (3, 7), (1, 4), (0, 1), (0, 0))
    text = "7:8,4:8,3:7,1:4,0:1,0:0"
    assert format_blocks(blocks) == text
    assert parse_blocks(text) == blocks
    assert parse_blocks("") == ()
    with pytest.raises(ValueError):
        parse_blocks("1-2")


def test_blocks_round_trip_with_normal_forms():
    from blobcat import enumeration

    for n in (2, 3, 4):
        for s in range(0, 5):
            for blocks in enumeration.iter_positive_blocks(n, s):
                nf = nf_of_positive_blocks(n, blocks)
                assert word_of_normal_form(n, nf) == block_word(blocks)
                assert positive_blocks_of(n, nf) == blocks


def _scrambled(rng, word):
    """A random member of the commutation class, by swaps of commuting neighbours."""
    w = list(word)
    for _ in range(4 * len(w)):
        p = rng.randrange(max(len(w) - 1, 1))
        if p + 1 < len(w) and abs(w[p] - w[p + 1]) > 1:
            w[p], w[p + 1] = w[p + 1], w[p]
    return tuple(w)


def test_blocks_are_read_from_any_class_member():
    from blobcat import enumeration

    rng = random.Random(61)
    checked = 0
    for n in range(1, 7):
        for s in range(4):
            for blocks in enumeration.iter_positive_blocks(n, s):
                word = block_word(blocks)
                assert blocks_of_word(n, word) == blocks
                assert blocks_of_word(n, _scrambled(rng, word)) == blocks, (n, blocks)
                checked += 1
    assert checked > 10_000


def test_blocks_of_a_non_positive_word_are_refused():
    with pytest.raises(ValueError):
        blocks_of_word(2, (1, 0, 1))


def test_positive_generation_completeness():
    from blobcat import enumeration

    for n in (2, 3, 4):
        for s in range(0, 5):
            generated = {
                canonical_word(n, word_of_normal_form(n, f))
                for f in fc_forms(n, s)
                if is_positive(n, f)
            }
            blocks = {
                canonical_word(n, block_word(b))
                for b in enumeration.iter_positive_blocks(n, s)
            }
            assert generated == blocks, (n, s)


def test_rank_one_block_exception():
    # at rank 1 the block form <0,1><0,0> spells the right boundary pattern
    # itself, so it is a valid block word that is not a positive element
    from blobcat import enumeration

    blocks = set(enumeration.iter_positive_blocks(1, 1))
    assert ((0, 1), (0, 0)) in blocks
    assert block_word(((0, 1), (0, 0))) == (0, 1, 0)
    generated = {
        canonical_word(1, word_of_normal_form(1, f))
        for f in fc_forms(1, 1)
        if is_positive(1, f)
    }
    assert generated == {(1,), (0, 1), (1, 0)}


def test_positive_blocks_requires_positive():
    with pytest.raises(ValueError):
        positive_blocks_of(2, LengthZero((Bracket(-1, 1),)))
