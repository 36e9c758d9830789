"""Scalar ring, rewriting kernel, quotient identities, structure constants."""

import itertools
import random
from functools import lru_cache

import pytest

from blobcat import algebra, cli, enumeration, grids, normal_forms as nfm, verify, words
from blobcat.algebra import (
    D,
    DL,
    DR,
    K,
    KL,
    KR,
    AlgebraElement,
    AlgebraLevel,
    BasisElement,
    Scalar,
    in_index_set,
    multiply,
    reduce_word,
    rewrite_rules,
    sb_basis,
    structure_constants,
)
from blobcat.words import canonical_word, format_word, iter_commutation_class, parse_word

import oracles
from oracles import (
    adversarial_word,
    commutation_class,
    exhaustive_words,
    find_redex,
    grown_fc_word,
    loop_reduce,
    quotient_image_check,
    rewrite_at,
    walk_redex,
)
from pins import DEEP_TL_WORD, class_shuffle, reduce_line, seeded_word, shuffled_fill

TL = AlgebraLevel.TL
TB = AlgebraLevel.TWO_BOUNDARY
SB = AlgebraLevel.SYMPLECTIC_BLOB


def random_scalar(rng, size=3):
    out = Scalar.zero()
    for _ in range(size):
        mono = Scalar.integer(rng.randint(-3, 3))
        for name in ("d", "dL", "dR", "kL", "kR", "k"):
            for _ in range(rng.randint(0, 2)):
                mono = mono * Scalar.param(name)
        out = out + mono
    return out


# ---------------------------------------------------------------------------
# scalars


def test_scalar_ring_axioms():
    rng = random.Random(5)
    for _ in range(40):
        a, b, c = (random_scalar(rng) for _ in range(3))
        assert a + b == b + a
        assert (a + b) + c == a + (b + c)
        assert a * b == b * a
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c
        assert a + Scalar.zero() == a
        assert a * Scalar.one() == a
        assert a - a == Scalar.zero()


def test_scalar_text_form():
    assert str(Scalar.one()) == "1"
    assert str(Scalar.zero()) == "0"
    assert str(K) == "k"
    assert str(KL * KL * D * DR) == "d*dR*kL^2"
    assert str(Scalar.integer(2) * DL) == "2*dL"
    assert str(Scalar.integer(-1) * KR) == "-kR"
    assert str(D + KL) == "kL + d"  # terms sort by exponent vector
    assert repr(D + KL) == "Scalar(kL + d)"
    assert repr(Scalar.zero()) == "Scalar(0)"


def test_scalar_substitution():
    s = DL * DL * KR + DR * D
    merged = s.substitute({"dL": "dR"})
    assert merged == DR * DR * KR + DR * D
    assert (DL - DR).substitute({"dL": "dR"}) == Scalar.zero()


def test_specialization_preserves_reduce_identities():
    # identities produced by the kernel, whole and with a suffix reduced
    # first, remain identities after collapsing the two boundary loop weights
    collapse = {"dL": "dR", "kL": "kR"}
    for n, word in [(2, (1, 0, 1, 0, 1)), (3, (0, 0, 3, 3, 1, 0, 1))]:
        scalar, _ = reduce_word(TB, n, word)
        lhs = scalar.substitute(collapse)
        for cut in range(1, len(word)):
            tail_scalar, tail = reduce_word(TB, n, word[cut:])
            rhs_scalar, _ = reduce_word(TB, n, word[:cut] + tail)
            assert lhs == (tail_scalar * rhs_scalar).substitute(collapse), (n, word, cut)


# ---------------------------------------------------------------------------
# the rule sets


def test_rule_sets_grow_along_the_quotient_chain():
    for n in (2, 3, 4):
        tl = {r.pattern for r in rewrite_rules(TL, n)}
        tb = {r.pattern for r in rewrite_rules(TB, n)}
        sb = {r.pattern for r in rewrite_rules(SB, n)}
        assert tl < tb < sb or (tl <= tb <= sb)
        assert (1, 0, 1) in tb and (n - 1, n, n - 1) in tb
    # at rank 1 the blob rules shadow the boundary triples
    sb1 = {r.pattern: r.scalar for r in rewrite_rules(SB, 1)}
    assert sb1[(1, 0, 1)] == K and sb1[(0, 1, 0)] == K
    tl1 = {r.pattern: r.scalar for r in rewrite_rules(TL, 1)}
    assert tl1[(0, 1, 0, 1)] == KL


def _cuts_disagree(table, word, same):
    """Does reducing some prefix or suffix of `word` first change its reduction?"""
    scalar, out = table[word]
    for cut in range(1, len(word)):
        for a, b in ((0, cut), (cut, len(word))):
            first, factor = table[word[a:b]]
            rest_scalar, rest = table[word[:a] + factor + word[b:]]
            if rest != out or not same(first * rest_scalar, scalar):
                return True
    return False


def test_rank_one_cut_disagreements_are_as_the_readme_states():
    # README "Notes on rank 1": of the 2,047 rank-1 words of up to 10
    # letters, 1,696 disagree at some cut at the two-boundary level, none
    # once kR is renamed kL, and none at TL or the blob level.  Every factor
    # and every rest is itself such a word, so each word is reduced once per
    # level and every cut is read from that table.
    rank_one = list(exhaustive_words(1, 10))
    assert len(rank_one) == 2047

    def renamed_equal(x, y):
        return x.substitute({"kR": "kL"}) == y.substitute({"kR": "kL"})

    tables = {level: {w: reduce_word(level, 1, w) for w in rank_one} for level in AlgebraLevel}
    exact = Scalar.__eq__
    counts = [
        sum(_cuts_disagree(tables[level], w, same) for w in rank_one)
        for level, same in ((TL, exact), (TB, exact), (TB, renamed_equal), (SB, exact))
    ]
    assert counts == [0, 1696, 0, 0]


@lru_cache(maxsize=None)
def _classes_up_to(n, max_len):
    """Every commutation class of the words at rank n of at most `max_len` letters, once each."""
    seen, classes = set(), []
    for word in exhaustive_words(n, max_len):
        if word not in seen:
            members = commutation_class(n, word)
            seen |= members
            classes.append(sorted(members))
    return classes


def _rewrites_off_target(level, n, max_len):
    """
    Every rule of the level at every position of every member of every class
    up to `max_len` letters: the number of rewrites, and the first member,
    position and rule whose rewrite, reduced and times the rule's scalar, is
    not the member reduced (or None).
    """
    by_first_letter = oracles.rules_by_first_letter(level, n)
    rewrites = 0
    for members in _classes_up_to(n, max_len):
        for member in members:
            for pos, letter in enumerate(member):
                for rule in by_first_letter.get(letter, ()):
                    if member[pos : pos + len(rule.pattern)] != rule.pattern:
                        continue
                    rewrites += 1
                    scalar, out = reduce_word(level, n, rewrite_at(member, pos, rule))
                    if (rule.scalar * scalar, out) != reduce_word(level, n, member):
                        return rewrites, (member, pos, rule)
    return rewrites, None


_RANK_ONE_OPEN = pytest.mark.xfail(
    strict=True,
    reason="at rank 1 the 2B and SB rules are not locally confluent until kL, kR "
    "are identified; the first rewrite off target is on (0,1,0,1) (ROADMAP item 3a)",
)


@pytest.mark.parametrize(
    "level, n, max_len, rewrites",
    [
        pytest.param(TL, 1, 10, 9732, id="tl-1"),
        pytest.param(TB, 1, 10, None, id="2b-1", marks=_RANK_ONE_OPEN),
        pytest.param(SB, 1, 10, None, id="sb-1", marks=_RANK_ONE_OPEN),
        pytest.param(TL, 2, 8, 23512, id="tl-2"),
        pytest.param(TB, 2, 8, 27522, id="2b-2"),
        pytest.param(SB, 2, 8, 28211, id="sb-2"),
        pytest.param(TL, 3, 7, 35386, id="tl-3"),
        pytest.param(TB, 3, 7, 38572, id="2b-3"),
        pytest.param(SB, 3, 7, 38590, id="sb-3"),
        pytest.param(TL, 4, 6, 21243, id="tl-4"),
        # I J I has 8 letters at rank 4, so no blob rule fits in 6
        pytest.param(TB, 4, 6, 22415, id="2b-4"),
        pytest.param(SB, 4, 6, 22415, id="sb-4"),
    ],
)
def test_every_one_step_rewrite_lands_where_the_word_reduces(level, n, max_len, rewrites):
    # termination plus local confluence gives unique normal forms (ROADMAP
    # item 18): no rewrite the rules allow anywhere in a class may change
    # where the word reduces
    counted, off = _rewrites_off_target(level, n, max_len)
    assert off is None, f"{format_word(off[0])} at {off[1]} by {off[2]}"
    assert counted == rewrites


def test_rule_scalars_are_monomials_of_coefficient_one():
    # a rewrite step adds the rule's exponents to the tail's (_reduce_canonical)
    for level in AlgebraLevel:
        for n in range(1, 9):
            for rule in rewrite_rules(level, n):
                ((exps, coeff),) = rule.scalar.terms.items()
                assert coeff == 1 and min(exps) >= 0, (level, n, rule)
            assert algebra._rule_steps(level, n)


@pytest.mark.parametrize(
    "bad",
    [
        algebra.Rule((1, 1), (1,), Scalar.integer(2) * D),
        algebra.Rule((1, 1), (1,), D + K),
        algebra.Rule((1, 1), (1,), Scalar.zero()),
        # every rewrite keeps the first letters of its pattern
        algebra.Rule((1, 2, 1), (2,), Scalar.one()),
    ],
)
def test_rule_index_rejects_a_scalar_that_is_not_a_unit_monomial(monkeypatch, bad):
    rules = rewrite_rules(TL, 2)
    assert rules[1].pattern == (1, 1)
    broken = rules[:1] + (bad,) + rules[2:]
    monkeypatch.setattr(algebra, "rewrite_rules", lambda level, n: broken)
    with pytest.raises(ValueError, match="coefficient 1|proper prefix"):
        algebra._rule_steps.__wrapped__(TL, 2)


@pytest.mark.parametrize(
    "level,n,word,scalar,out",
    [
        (TL, 3, (2, 1, 2), Scalar.one(), (2,)),
        (TL, 2, (0, 1, 0, 1), KL, (0, 1)),
        (TL, 2, (1, 2, 1, 2), KR, (1, 2)),
        (TB, 2, (1, 0, 1), KL, (1,)),
        (TB, 3, (2, 1, 0, 1, 2), KL, (2,)),
        (SB, 2, (1, 0, 2, 1), K, (1,)),
        (TL, 2, (), Scalar.one(), ()),
        (TL, 4, (0, 0), DL, (0,)),
        (TL, 4, (2, 2), D, (2,)),
        (TL, 4, (4, 4), DR, (4,)),
        (TB, 3, (2, 3, 2, 1, 0, 1, 2, 3), KL * KR, (2, 3)),
        (SB, 3, (1, 3, 0, 2, 1, 3), K, (1, 3)),
    ],
)
def test_reduce_examples(level, n, word, scalar, out):
    assert reduce_word(level, n, word) == (scalar, out)


@pytest.mark.parametrize("word", [(1.0, 1), (1, "1"), (None,), (3,), (1, True, 0)])
def test_reduce_rejects_non_integer_letters(word):
    # check_word is the one check of rank and letters on this path; bool
    # subclasses int, so True is refused as a letter and as a rank
    with pytest.raises(ValueError):
        reduce_word(TL, 2, word)
    with pytest.raises(ValueError):
        reduce_word(TL, 0, ())
    with pytest.raises(ValueError):
        reduce_word(TL, True, (1, 0))


# every public entry point that takes a word or rigid blocks, as a call of
# (rank, word or blocks), with an argument on which reading it as empty
# gives another answer or raises
_IJI, _JIJ = grids.iji_blocks(2), grids.jij_blocks(2)
_ONE_SHOT_CALLS = {
    "check_word": (words.check_word, (1, 1, 1)),
    "canonical_word": (words.canonical_word, (2, 1, 0)),
    "iter_commutation_class": (lambda n, w: list(iter_commutation_class(n, w)), (2, 1, 0)),
    "same_element": (lambda n, w: words.same_element(n, w, (0, 2, 1)), (2, 0, 1)),
    "heap_state": (words.heap_state, (1, 1)),
    "is_reduced_fc": (words.is_reduced_fc, (1, 1)),
    "normal_form_of_word": (nfm.normal_form_of_word, (1, 2, 0, 1)),
    "blocks_of_word": (nfm.blocks_of_word, (1, 2, 0, 1)),
    "check_blocks": (nfm.check_blocks, _IJI),
    "obliques": (grids.obliques, _IJI),
    "is_blobbed": (grids.is_blobbed, _IJI),
    "oblique_shortening_word": (grids.oblique_shortening_word, _JIJ),
    "render_lines": (lambda n, b: list(grids.render_lines(n, b, "ascii")), _IJI),
    "render": (lambda n, b: grids.render(n, b, "svg"), _IJI),
    "blob_image_holds": (verify.blob_image_holds, _IJI),
}
for _level in AlgebraLevel:
    _ONE_SHOT_CALLS |= {
        f"reduce_word {_level.name}": (lambda n, w, v=_level: reduce_word(v, n, w), (1, 1, 1)),
        f"in_index_set {_level.name}": (lambda n, w, v=_level: in_index_set(v, n, w), (1, 1)),
        f"from_word {_level.name}": (lambda n, w, v=_level: AlgebraElement.from_word(v, n, w), (1, 0, 1)),
        f"BasisElement {_level.name}": (lambda n, w, v=_level: BasisElement(v, n, w), (2, 1)),
    }


@pytest.mark.parametrize("feed", [iter, lambda xs: (x for x in xs)], ids=["iter", "generator"])
@pytest.mark.parametrize("name", sorted(_ONE_SHOT_CALLS))
def test_entry_points_read_a_one_shot_iterable_once(feed, name):
    # an iterator or generator is the word or blocks it yields, read once:
    # not the empty word it is once a check has consumed it
    call, arg = _ONE_SHOT_CALLS[name]
    assert call(2, feed(arg)) == call(2, arg), name


def _assert_fold_matches_the_step_loop(level, n, word):
    got, want = reduce_word(level, n, word), loop_reduce(level, n, word)
    assert got[0] is want[0] and got[1] == want[1], (level, n, word, got, want)
    assert type(got[1]) is tuple and reduce_line(got) == reduce_line(want)


def test_fold_matches_the_step_loop_exhaustive():
    # every word at rank 1 up to 12 letters, rank 2 up to 8 and rank 3 up
    # to 6: the heap-scan fold gives the monomial and word of the kernel's
    # own steps, rank 1 included, where the two-boundary rules overlap
    checked = 0
    for n, max_len in ((1, 12), (2, 8), (3, 6)):
        for word in exhaustive_words(n, max_len):
            for level in (TL, TB):
                _assert_fold_matches_the_step_loop(level, n, word)
                checked += 1
    assert checked == 46_986


def test_fold_matches_the_step_loop_random():
    # seeded words at ranks 4 to 64, one in eight of up to 400 letters
    rng = random.Random(3232)
    for i in range(240):
        n = rng.randint(4, 64)
        length = rng.randint(0, 400 if i % 8 == 0 else 40)
        word = tuple(rng.randint(0, n) for _ in range(length))
        for level in (TL, TB):
            _assert_fold_matches_the_step_loop(level, n, word)


def test_fold_matches_the_step_loop_on_adversarial_words(monkeypatch):
    # heads whose rewrites each drop an early piece across a stretch that no
    # rewrite touches (oracles.adversarial_word), so the scanner reads the
    # stretch again once per head; at ranks 1 and 2 the stretch is random
    # letters, and at rank 1 the two-boundary rules overlap
    unread, drop = [], words.scan_drop

    def counting_drop(word, start, stop, scan):
        unread.append(stop - start)
        return drop(word, start, stop, scan)

    monkeypatch.setattr(words, "scan_drop", counting_drop)
    for n in (1, 2, 16, 64):
        rng = random.Random(9000 + n)
        for length in (8, 40, 120, 300):
            for _ in range(3):
                word = adversarial_word(rng, n, length)
                for level in (TL, TB):
                    unread.clear()
                    _assert_fold_matches_the_step_loop(level, n, word)
                    if n == 64 and length == 300:
                        # eleven heads, each read again across the stretch
                        assert sum(unread) > 5 * len(word), (level, word)


@pytest.mark.parametrize("level", [TL, TB])
@pytest.mark.parametrize(
    "n, word, text",
    [
        (2, (1,) * 50 + (3,), "1," * 50 + "3"),
        (2, (1, 0) * 20 + (-1,), "1,0," * 20 + "-1"),
        (0, (), ""),
        (2, (1,) * 9 + (1.0,), None),
        (2, (0, "1"), None),
        (3, (2, 3, 2, None), None),
        (1.5, (1, 1), None),
        (2, (1,) * 9 + (False,), None),
        (True, (1, 1), None),
    ],
)
def test_fold_rejects_malformed_input_before_any_work(monkeypatch, capsys, level, n, word, text):
    # a bad letter at the end of a word with redexes is refused before
    # `reduce_word` hands the word to the fold, so `blobcat reduce` exits 2
    # with no output
    def refuse(*args):
        raise AssertionError("the fold began on the word before the input check")

    monkeypatch.setattr(algebra, "_fold", refuse)
    with pytest.raises(ValueError):
        reduce_word(level, n, word)
    if text is not None:
        level_name = {TL: "tl", TB: "2btl"}[level]
        assert cli.main(["reduce", "--n", str(n), "--level", level_name, "--word", text]) == 2
        out, err = capsys.readouterr()
        assert out == "" and err.startswith("error:")


def test_fold_takes_no_class_walk_and_canonicalises_once(monkeypatch):
    # TL and 2B reduce on the heap scanner alone: no blob-level fill, no
    # class walk, and one canonical word, at the end; the blob level from
    # `_LOOP_RANK` on reduces through `_blob_loop` alone, one call and one
    # canonical word per `_CHUNK` letters, however many blob steps a chunk
    # takes
    def refuse(*args):
        raise AssertionError("a redex search or class walk on the TL/2B path")

    monkeypatch.setattr(algebra, "_reduce_canonical", refuse)
    monkeypatch.setattr(algebra, "iter_commutation_class", refuse)
    canonicalised, canonical = [], words._canonical_word

    def counting(n, word):
        canonicalised.append(word)
        return canonical(n, word)

    monkeypatch.setattr(algebra, "_canonical_word", counting)
    rng = random.Random(77)
    cases = [(8, DEEP_RANK_8), (10, DEEP_RANK_10), (2, (1,) * 500)]
    cases += [(n, tuple(rng.randint(0, n) for _ in range(60))) for n in range(1, 13)]
    for level in (TL, TB):
        for n, word in cases:
            canonicalised.clear()
            scalar, out = reduce_word(level, n, word)
            assert len(canonicalised) == 1 and in_index_set(level, n, out), (level, n, word)
    steps, blob_step = [], grids._blob_step

    def stepping(n, word):
        shorter = blob_step(n, word)
        if shorter is not None:
            steps.append(word)
        return shorter

    monkeypatch.setattr(algebra, "_blob_step", stepping)
    stepped = 0
    for n in (7, 8, 64):
        odd, even = grids.i_word(n), grids.j_word(n)
        blob_cases = [odd + even + odd, even + odd + even, (odd + even) * 3 + odd]
        blob_cases += [tuple(rng.randint(0, n) for _ in range(k)) for k in (60, 300, 700)]
        blob_cases += [DEEP_RANK_8] * (n == 8)
        for word in blob_cases:
            canonicalised.clear()
            steps.clear()
            scalar, out = reduce_word(SB, n, word)
            chunks = -(-len(word) // algebra._CHUNK)
            assert len(canonicalised) == chunks and in_index_set(SB, n, out), (n, word)
            stepped += bool(steps)
    assert stepped >= 9


def test_reduce_is_class_invariant():
    rng = random.Random(41)
    for _ in range(50):
        n = rng.randint(2, 4)
        word = tuple(rng.randint(0, n) for _ in range(rng.randint(1, 9)))
        expected = reduce_word(SB, n, word)
        for member in sorted(commutation_class(n, word))[:5]:
            assert reduce_word(SB, n, member) == expected


def test_tower_commutes_on_a_seeded_stream():
    # the laws of reduction (oracles.law_mismatch), the tower law first,
    # past every exhaustive range:
    # 300 words of up to 60 letters at each rank 2-12, then 100 of up to
    # 1,500 letters at ranks 16, 24, 32 and 64, and 40 at rank 256
    checked = 0
    for n, count, longest in [(n, 300, 60) for n in range(2, 13)] + [
        (16, 100, 1500),
        (24, 100, 1500),
        (32, 100, 1500),
        (64, 100, 1500),
        (256, 40, 1500),
    ]:
        rng = random.Random(4600 + n)
        for _ in range(count):
            word = tuple(rng.randint(0, n) for _ in range(rng.randint(0, longest)))
            assert oracles.law_mismatch(n, word) is None, (n, word)
            checked += 1
    assert checked == 3740


@pytest.mark.xfail(
    strict=True,
    reason="at rank 1 the tower commutes only once kL = kR = k; the semantics "
    "is open (ROADMAP item 3)",
)
@pytest.mark.parametrize(
    "word",
    [
        pytest.param((0, 1, 0, 1), id="tl-to-2b"),
        pytest.param((0, 1, 0), id="2b-to-sb"),
    ],
)
def test_rank_one_tower_commutes(word):
    # (0,1,0,1) is kL*[0,1] at TL but kR*[0,1] at 2B, and (0,1,0) is
    # kR*[0] at 2B but k*[0] at SB
    assert oracles.law_mismatch(1, word) is None


def test_confluence_check_catches_a_swapped_boundary_scalar(monkeypatch):
    # a mutant rule set: the left boundary braid (0,1,0,1) scales by kR, not
    # kL; reducing a suffix first then meets (1,0,1) or (1,0,1,0) at kL instead
    rules = rewrite_rules

    def mutant(level, n):
        return tuple(
            algebra.Rule(r.pattern, r.replacement, KR) if r.pattern == (0, 1, 0, 1) else r
            for r in rules(level, n)
        )

    caches = (algebra._rule_steps, algebra._reduce_canonical, algebra._rows)
    for cache in caches:
        cache.cache_clear()
    try:
        with monkeypatch.context() as patch:
            patch.setattr(algebra, "rewrite_rules", mutant)
            check = verify.check_confluence()
    finally:
        for cache in caches:
            cache.cache_clear()
    assert not check.ok and check.cases == 630
    assert "cut mismatch" in check.detail, check.detail
    assert verify.check_confluence().ok


def test_index_soundness_uses_the_stated_detectors():
    rng = random.Random(6)
    for _ in range(60):
        n = rng.randint(2, 4)
        word = tuple(rng.randint(0, n) for _ in range(rng.randint(0, 10)))
        _, out = reduce_word(TB, n, word)
        nf = nfm.normal_form_of_word(n, out)
        assert nfm.is_positive(n, nf)
        _, out = reduce_word(SB, n, word)
        nf = nfm.normal_form_of_word(n, out)
        assert grids.is_blobbed(n, nfm.positive_blocks_of(n, nf))


# ---------------------------------------------------------------------------
# the redex search: rule index and heap certificate


def _reference_find_redex(level, n, word):
    """
    The plain class walk (`oracles.walk_redex`, leftmost) as a step of the
    kernel's shape, (shorter word, rule scalar), plus the members it visited
    and the pattern it rewrote.
    """
    hit = walk_redex(level, n, word, "leftmost")
    if hit is None:
        return None
    visited, member, pos, rule = hit
    return (rewrite_at(member, pos, rule), rule.scalar), visited, rule.pattern


def _kernel_step(level, n, word):
    """`oracles.find_redex` with its packed monomial read as a Scalar."""
    step = find_redex(level, n, word)
    if step is None:
        return None
    shorter, exps = step
    return shorter, algebra._unpacked(exps)


def _assert_step_from_heap(level, n, word, step):
    """
    A step taken from the heap: its scalar is some rule's, and some class
    member holds that rule's pattern at a position whose rewrite is the
    step's word up to commutation.
    """
    shorter, scalar = step
    target = canonical_word(n, shorter)
    rules = [rule for rule in rewrite_rules(level, n) if rule.scalar == scalar]
    assert any(
        canonical_word(n, rewrite_at(member, pos, rule)) == target
        for member in iter_commutation_class(n, word)
        for rule in rules
        for pos in range(len(member))
        if member[pos : pos + len(rule.pattern)] == rule.pattern
    ), (level, n, word, shorter, scalar)


def _assert_same_redex_choice(n, word):
    """
    Compare at every level; return the patterns chosen and the levels at
    which the step oracle took a heap step.  It walks as the reference
    does for `len(word)` members, as the blob-level fill does; a word whose
    first redex lies past them takes its step from the heap.
    """
    patterns = set()
    heap_levels = set()
    for level in (TL, TB, SB):
        expected = _reference_find_redex(level, n, word)
        step = _kernel_step(level, n, word)
        if expected is None:
            assert step is None, (level, n, word)
            continue
        walked, visited, pattern = expected
        patterns.add(pattern)
        if visited > len(word):
            _assert_step_from_heap(level, n, word, step)
            heap_levels.add(level)
        else:
            assert step == walked, (level, n, word)
    return patterns, heap_levels


# per level, the words of the exhaustive range (raw spellings and canonical
# words) whose first redex lies past len(word) members; all are at rank 3,
# and 53 of the blob level's are positive words that take the blob step
HEAP_STEP_COUNTS = {TL: 106, TB: 46, SB: 97}


def test_redex_choice_matches_reference_exhaustive():
    heap_steps = {level: set() for level in (TL, TB, SB)}
    for n in (1, 2, 3):
        for word in exhaustive_words(n, 7):
            for w in {word, canonical_word(n, word)}:
                for level in _assert_same_redex_choice(n, w)[1]:
                    heap_steps[level].add((n, w))
    assert {level: len(found) for level, found in heap_steps.items()} == HEAP_STEP_COUNTS


def test_redex_choice_matches_reference_random():
    rng = random.Random(4061)
    for n in (4, 5, 6):
        for _ in range(300):
            word = tuple(rng.randint(0, n) for _ in range(rng.randint(0, 12)))
            _assert_same_redex_choice(n, word)
    # at high rank, letters from a window of three to five (at either end or
    # inside) keep the classes small; no letter repeats its predecessor, so
    # the braid rules at both boundary pairs get chosen, not only the squares
    for n in (12, 64):
        keys = set()
        for _ in range(400):
            width = rng.randint(2, 4)
            low = rng.choice((0, n - width, rng.randint(0, n - width)))
            word = [rng.randint(low, low + width) for _ in range(rng.randint(0, 12))]
            word = tuple(x for p, x in enumerate(word) if p == 0 or x != word[p - 1])
            patterns, _ = _assert_same_redex_choice(n, word)
            keys |= {pattern[:2] for pattern in patterns}
        assert {(0, 0), (0, 1), (1, 0), (n - 1, n), (n, n - 1), (n, n)} <= keys, n


def _rank_three_blob_table():
    basis = sb_basis(3)
    return [reduce_word(SB, 3, x + y) for x, y in itertools.product(basis, repeat=2)]


def test_reduce_word_shares_one_scalar_per_value():
    scalars = [scalar for scalar, _ in _rank_three_blob_table()]
    rng = random.Random(1414)
    for level in AlgebraLevel:
        for n in range(1, 7):
            for _ in range(150):
                word = tuple(rng.randint(0, n) for _ in range(rng.randint(0, 14)))
                scalars.append(reduce_word(level, n, word)[0])
    # the list keeps every object alive, so no id is reused
    assert len({id(s) for s in scalars}) == len(set(scalars)) > 80


def test_equal_monomials_come_back_as_one_instance():
    # `Scalar`'s promise: `reduce_word` hands out one shared instance per
    # monomial, whichever path reached it: the TL fold, the two-boundary
    # fold, a blob fold that fills empty slots and one that reads them.
    # The blob fills take every route of `algebra._fill`: short positive
    # products and squares, the boundary triple 1,0,1 by its rule, and
    # I J I = 1,0,2,1, a positive product of as many letters as I J I,
    # through the memo, which no other word here reaches
    cases = (
        ((1,), (Scalar.one(),) * 3),
        ((1, 1, 1), (D * D,) * 3),
        ((0, 0, 2, 2), (DL * DR,) * 3),
        ((1, 0, 1), (Scalar.one(), KL, KL)),
        ((1, 0, 2, 1), (Scalar.one(), Scalar.one(), K)),
    )
    for word, (tl, tb, sb) in cases:
        algebra._rows.cache_clear()
        algebra._reduce_canonical.cache_clear()
        miss = reduce_word(SB, 2, word)
        filled = algebra._reduce_canonical.cache_info()
        assert (filled.currsize > 0) == (word == (1, 0, 2, 1)), word
        hit = reduce_word(SB, 2, word)
        assert algebra._reduce_canonical.cache_info() == filled
        scalars = [reduce_word(TL, 2, word)[0], reduce_word(TB, 2, word)[0], miss[0], hit[0]]
        assert scalars == [tl, tb, sb, sb], word
        assert all(s is t for s in scalars for t in scalars if s == t), word


def test_reduce_memo_bytes_per_entry():
    import gc
    import tracemalloc

    # every product that the action rows of ranks 1-6 send the memo
    # (`_fill`'s last route), so the memo at its bound; words outside that
    # route it does not reduce.  The TL and two-boundary levels keep no
    # memo, so only blob-level work fills it
    slots = [(n, b, g) for n in range(1, 7) for b in sb_basis(n) for g in range(n + 1)]

    def job():
        for n, b, g in slots:
            _, at, closure = words._closing_gap(n, b, g)
            if closure is None and len(b) + 1 >= algebra._iji_length(n):
                algebra._reduce_canonical(n, b[:at] + (g,) + b[at:])

    job()  # build the rules and the shared scalars first
    algebra._reduce_canonical.cache_clear()
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        job()
        gc.collect()
        grown = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    entries = algebra._reduce_canonical.cache_info().currsize
    assert entries > 3000
    # ~320 B an entry holding its own packed int and its key; ~270 B when
    # entries held one shared Scalar per monomial, ~555 B with a fresh
    # Scalar per entry (rank-5 products, rewrites memoised too)
    assert grown / entries < 480, grown / entries


def test_tl_and_two_boundary_reductions_keep_no_memo():
    import gc
    import tracemalloc

    # a seeded stream of random TL and two-boundary words at ranks 3-8,
    # reduced and multiplied as basis elements: with no memo at these
    # levels, four times the ops leave what one time leaves, give or take
    # the one shared Scalar per new monomial (~42 KB here); a memo of every
    # rewrite grew ~2.6 MB over the same stream
    rng = random.Random(31)

    def ops(count):
        for _ in range(count):
            n, level = rng.randint(3, 8), rng.choice((TL, TB))
            words = [tuple(rng.randint(0, n) for _ in range(rng.randint(6, 14))) for _ in "xy"]
            x, y = (BasisElement(level, n, reduce_word(level, n, w)[1]) for w in words)
            multiply(x, y)

    ops(300)  # build the rules at every rank first
    memo = algebra._reduce_canonical.cache_info().currsize
    gc.collect()
    tracemalloc.start()
    try:
        ops(300)
        gc.collect()
        once = tracemalloc.get_traced_memory()[0]
        ops(900)
        gc.collect()
        four_times = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert four_times - once < 256 * 1024, (once, four_times)
    assert algebra._reduce_canonical.cache_info().currsize == memo


def _whole_word(n, word):
    """The blob level's whole word reduced by one-step rewrites (`oracles.loop_reduce`),
    which reads neither the action rows nor `algebra._blob_loop`."""
    return loop_reduce(SB, n, word)


def test_blob_fold_matches_the_whole_word_rewrite_exhaustive():
    # every word at rank 1 up to 12 letters, rank 2 up to 8, rank 3 up to 6
    # and rank 4 up to 5: folding letter by letter through the action table
    # gives what rewriting the whole word gives
    cases = 0
    for n, max_length in ((1, 12), (2, 8), (3, 6), (4, 5)):
        for word in exhaustive_words(n, max_length):
            assert reduce_word(SB, n, word) == _whole_word(n, word), (n, word)
            cases += 1
    assert cases == 27_399


def test_blob_fold_matches_the_whole_word_rewrite_random():
    # ranks 4-6 fold through the rows, ranks 7-8 through the heap-scan loop
    rng = random.Random(3030)
    for n in range(4, 9):
        for _ in range(2000):
            word = tuple(rng.randint(0, n) for _ in range(rng.randint(0, 24)))
            assert reduce_word(SB, n, word) == _whole_word(n, word), (n, word)


def test_action_table_holds_one_entry_per_basis_word_and_generator():
    # every state of the fold is a basis word, so the table is bounded by
    # |B| rows of n + 1 entries, and the rank-4 table, whose factors are all
    # the prefixes of basis words, fills it
    algebra._rows.cache_clear()
    structure_constants(4)
    rows = algebra._rows(4)
    assert len(rows) == len(sb_basis(4)) == 335
    assert set(rows) == set(sb_basis(4))
    assert all(row[-1] == word for word, row in rows.items())
    entries = [entry for row in rows.values() for entry in row[:-1] if entry is not None]
    assert len(entries) == 5 * 335 == 1675
    # an entry holds its monomial packed, and a trivial step is the packing 0
    trivial = [exps for exps, _ in entries if exps == 0]
    assert trivial and all(type(exps) is int for exps, _ in entries)


def test_blob_words_from_rank_7_leave_the_rows_and_the_memo_alone():
    # from rank 7 the blob level reduces through the heap-scan loop, which
    # reads no row and fills no slot: the rows and the memo keep only what
    # ranks 1-6 put there, at most 50,882 row entries and 5,699 memo words
    reduce_word(SB, 6, seeded_word(6, 1_000))
    rows, memo = algebra._rows.cache_info(), algebra._reduce_canonical.cache_info()
    for n in (7, 8, 16, 64):
        for length in (0, 1, 30, 1_000):
            reduce_word(SB, n, seeded_word(n, length))
    assert algebra._rows.cache_info() == rows
    assert algebra._reduce_canonical.cache_info() == memo


def test_blob_action_matches_the_whole_word_rewrite_exhaustive():
    # every entry of the blob action at ranks 1-5: a basis word times one
    # generator folds to what rewriting the whole product gives, so the
    # table is right at these ranks
    for n in range(1, 6):
        entries = 0
        for b in sb_basis(n):
            for g in range(n + 1):
                assert reduce_word(SB, n, b + (g,)) == _whole_word(n, b + (g,)), (n, b, g)
                entries += 1
    assert entries == 8568  # at rank 5


def test_row_fills_take_no_blob_loop(monkeypatch):
    # every slot of the rank-4 and rank-5 action rows, filled cold: a fill
    # whose g closes a chain or a triple (`words._closing_gap`'s closure)
    # takes the rule and folds the rest through a shorter row, and the memo
    # folds the word its class walk rewrites, or its blob step's word,
    # from the empty row, so neither calls `_blob_loop`.  Every entry is
    # what one-step rewrites of the whole product give
    # (`oracles.loop_reduce`)
    handed, loop = [], algebra._blob_loop

    def spy(n, word):
        handed.append((n, word))
        return loop(n, word)

    monkeypatch.setattr(algebra, "_blob_loop", spy)
    algebra._rows.cache_clear()
    algebra._reduce_canonical.cache_clear()
    for n in (4, 5):
        for b in sb_basis(n):
            for g in range(n + 1):
                assert reduce_word(SB, n, b + (g,)) == loop_reduce(SB, n, b + (g,)), (n, b, g)
    assert handed == []


def test_a_fill_reads_no_heap_for_its_key(monkeypatch):
    # every slot of the rank-4 rows, filled cold against a memo warm on the
    # products it takes, those where g closes nothing on the row's word,
    # at gap 1 or 2: the key is the row's word with g inserted, and a fill
    # where g closes something folds the rest of the word through a
    # shorter row, so no fill canonicalises at all, and every entry is what
    # one-step rewrites of the whole product give (`oracles.loop_reduce`)
    n = 4
    slots = [(b, g) for b in sb_basis(n) for g in range(n + 1)]
    warmed = 0
    for b, g in slots:
        key = canonical_word(n, b + (g,))
        if words._closing_gap(n, b, g)[2] is None and len(key) >= algebra._iji_length(n):
            algebra._reduce_canonical(n, key)
            warmed += 1
    expected = {(b, g): loop_reduce(SB, n, b + (g,)) for b, g in slots}
    calls = []

    def counting(n, word):
        calls.append(word)
        return words._canonical_word(n, word)

    monkeypatch.setattr(algebra, "_canonical_word", counting)
    algebra._rows.cache_clear()
    try:
        for (b, g), reduced in expected.items():
            row = [None] * (n + 1) + [b]
            assert algebra._fill(n, row, g) is row[g]
            assert (algebra._unpacked(row[g][0]), row[g][1][-1]) == reduced, (b, g)
    finally:
        algebra._rows.cache_clear()
    assert (warmed, calls) == (334, [])


def test_the_fill_order_does_not_change_the_rows(monkeypatch):
    # every slot of the rank 1-5 rows, filled from cold rows in three
    # seeded random orders (`pins.shuffled_fill`): each table is what
    # one-step rewrites of the whole product give (`oracles.loop_reduce`),
    # with no call of `_blob_loop`; a fill nests fills only on rows of
    # words shorter than its own, and every fold that a fill starts, of its
    # closing tail or of the shorter word of its memo call, whose key is
    # the fill's product, folds fewer letters than that product, so nested
    # fills end
    expected = {
        (n, b, g): loop_reduce(SB, n, b + (g,))
        for n in range(1, 6)
        for b in sb_basis(n)
        for g in range(n + 1)
    }
    fill, fold, callers, nested, folded = algebra._fill, algebra._fold_rows, [], [], []

    def refuse(n, word):
        raise AssertionError(f"a row fill reached the blob loop on {word}")

    def spy(n, row, g):
        if callers:
            nested.append((len(row[-1]), callers[-1]))
        callers.append(len(row[-1]))
        try:
            return fill(n, row, g)
        finally:
            callers.pop()

    def fold_spy(n, exps, row, word):
        if callers:  # a memo call folds from the empty row, a closing tail never
            folded.append((len(row[-1]) + len(word), callers[-1] + 1, row[-1] == ()))
        return fold(n, exps, row, word)

    monkeypatch.setattr(algebra, "_blob_loop", refuse)
    monkeypatch.setattr(algebra, "_fill", spy)
    monkeypatch.setattr(algebra, "_fold_rows", fold_spy)
    try:
        for seed in (1, 2, 3):
            for n in range(1, 6):
                shuffled_fill(random.Random(seed), n)
                rows = algebra._rows(n)
                for b in sb_basis(n):
                    for g in range(n + 1):
                        exps, target = rows[b][g]
                        assert (algebra._unpacked(exps), target[-1]) == expected[n, b, g], (n, b, g)
    finally:
        algebra._rows.cache_clear()
    assert nested and all(inner < outer for inner, outer in nested)
    assert any(by_memo for *_, by_memo in folded)
    assert all(inner < outer for inner, outer, _ in folded)


def test_a_square_fill_takes_no_memo(monkeypatch):
    # every slot of the rank 1-6 rows whose product closes the square g g,
    # filled cold: the entry is the row itself times the square's scalar,
    # and no fill reaches the memo; a positive product of as many letters
    # as I J I still does, here I J I itself, which rewrites to k times I
    calls, memo = [], algebra._reduce_canonical

    def spy(n, word):
        calls.append(word)
        return memo(n, word)

    monkeypatch.setattr(algebra, "_reduce_canonical", spy)
    algebra._rows.cache_clear()
    try:
        squares = 0
        for n in range(1, 7):
            steps = algebra._rule_steps(SB, n)
            for b in sb_basis(n):
                for g in range(n + 1):
                    if words._closing_gap(n, b, g)[0] == 0:
                        row = algebra._rows(n).setdefault(b, [None] * (n + 1) + [b])
                        assert algebra._fill(n, row, g) == (steps[g, g][1], row), (n, b, g)
                        assert row[g][1] is row
                        squares += 1
        assert (squares, calls) == (15_845, [])
        assert reduce_word(SB, 2, (1, 0, 2, 1)) == (K, (1,))
        assert calls == [(1, 0, 2, 1)]
    finally:
        algebra._rows.cache_clear()


def test_a_short_positive_fill_is_its_own_basis_word(monkeypatch):
    # every slot of the rank 1-6 rows where g closes nothing on the basis
    # word (`words._closing_gap`'s closure is None, at gap 1 or 2) and the
    # product has fewer letters than I J I, filled cold: the entry is the
    # product's least class member times 1, a basis index, and what
    # one-step rewrites of the whole product give at ranks 1-5, with no
    # call of `_blob_loop` or the memo
    calls, loop, memo = [], algebra._blob_loop, algebra._reduce_canonical

    def spy(inner):
        def called(n, word):
            calls.append(word)
            return inner(n, word)

        return called

    monkeypatch.setattr(algebra, "_blob_loop", spy(loop))
    monkeypatch.setattr(algebra, "_reduce_canonical", spy(memo))
    algebra._rows.cache_clear()
    short = 0
    try:
        for n in range(1, 7):
            for b in sb_basis(n):
                for g in range(n + 1):
                    _, at, closure = words._closing_gap(n, b, g)
                    word = b[:at] + (g,) + b[at:]
                    if closure is not None or len(word) >= algebra._iji_length(n):
                        continue
                    row = [None] * (n + 1) + [b]
                    exps, target = algebra._fill(n, row, g)
                    assert (exps, target[-1], calls) == (0, word, []), (n, b, g)
                    assert in_index_set(SB, n, word), (n, b, g)
                    if n < 6:
                        assert loop_reduce(SB, n, b + (g,)) == (Scalar.one(), word), (n, b, g)
                    short += 1
    finally:
        algebra._rows.cache_clear()
    assert short == 6_647


def test_a_full_fill_leaves_the_memo_at_its_bound(monkeypatch):
    # every slot of the rank 1-6 rows, filled cold, with no call of
    # `_blob_loop`: only the 10,902 positive products of at least as many
    # letters as I J I reach the memo, 10,491 from a fill the memo did not
    # start and 411 from the fold of a memo word, and it ends at 5,699
    # words, the distinct products and nothing else, the most that any
    # sequence of fills leaves there
    entries, memo = [], algebra._reduce_canonical
    depth = [0]

    def refuse(n, word):
        raise AssertionError(f"a row fill reached the blob loop on {word}")

    def spy(n, word):
        entries.append((n, word, depth[0] > 0))
        depth[0] += 1
        try:
            return memo(n, word)
        finally:
            depth[0] -= 1

    monkeypatch.setattr(algebra, "_blob_loop", refuse)
    monkeypatch.setattr(algebra, "_reduce_canonical", spy)
    algebra._rows.cache_clear()
    memo.cache_clear()
    for n in range(1, 7):
        for b in sb_basis(n):
            for g in range(n + 1):
                reduce_word(SB, n, b + (g,))
    nested = [inside for _, _, inside in entries]
    assert (nested.count(False), nested.count(True)) == (10_491, 411)
    for n, word, _ in entries:
        assert words.heap_state(n, word) == words.HeapState.POSITIVE, (n, word)
        assert len(word) >= algebra._iji_length(n), (n, word)
    assert memo.cache_info().currsize == len({(n, w) for n, w, _ in entries}) == 5_699


def test_fewer_letters_than_iji_read_no_blocks(monkeypatch):
    # I J I is the shorter alternation, at n + 1 + (n + 1) // 2 letters, and
    # a pattern is contained cell by cell, so every positive block list with
    # fewer cells is blobbed, and its word is answered with no column read,
    # by the blob test of a word and by `in_index_set` alike
    for n in range(1, 257):
        i, j = grids.i_word(n), grids.j_word(n)
        assert n + 1 + (n + 1) // 2 == min(len(i + j + i), len(j + i + j)), n
    read = []

    def spy(read_columns):
        def reading(n, *lists):
            read.append(lists)
            return read_columns(n, *lists)

        return reading

    monkeypatch.setattr(grids, "_word_columns", spy(words._word_columns))
    monkeypatch.setattr(algebra, "_columns", spy(words._columns))
    short = 0
    for n in range(1, 7):
        bound = n + 1 + (n + 1) // 2
        assert sum(r - l + 1 for l, r in grids.iji_blocks(n)) == bound
        for s in range(n + 2):
            for blocks in enumeration.iter_positive_blocks(n, s):
                if sum(r - l + 1 for l, r in blocks) < bound:
                    assert grids.is_blobbed(n, blocks), (n, blocks)
                    word = nfm.block_word(blocks)
                    assert grids._blob_step(n, word) is None
                    assert in_index_set(SB, n, word) == in_index_set(TB, n, word)
                    short += 1
    assert (short, read) == (3_154, [])
    for n in range(1, 7):
        i, j = grids.i_word(n), grids.j_word(n)
        for blocks, shorter in ((grids.iji_blocks(n), i), (grids.jij_blocks(n), j)):
            assert grids._blob_step(n, nfm.block_word(blocks)) == shorter
    assert len(read) == 12


@pytest.mark.parametrize("letter", [3, -1, True, 1.0])
def test_blob_level_refuses_the_letters_tl_refuses(letter):
    # a row keeps its basis word past slot n, so an unchecked letter would
    # read it; the word is checked before any row is looked up
    algebra._rows.cache_clear()
    for word in ((letter,), (1, 0, letter), (0, 1, 0, 2, letter)):
        with pytest.raises(ValueError) as tl:
            reduce_word(TL, 2, word)
        with pytest.raises(ValueError) as sb:
            reduce_word(SB, 2, word)
        assert str(sb.value) == str(tl.value)
    assert algebra._rows(2) == {(): [None, None, None, ()]}


@lru_cache(maxsize=None)
def _rule_patterns(level, n):
    return tuple(rule.pattern for rule in rewrite_rules(level, n))


def _redex_free_levels(n, word):
    """Oracle: enumerate the class once and look for each level's patterns in every member."""
    members = commutation_class(n, word)
    factors = {m[p:q] for m in members for p in range(len(m)) for q in range(p + 2, len(m) + 1)}
    return {
        level: not any(pattern in factors for pattern in _rule_patterns(level, n))
        for level in (TL, TB, SB)
    }


def test_index_set_is_exactly_the_redex_free_words_exhaustive():
    # the redex search ends on the heap pass that `in_index_set` reads, so it
    # must be exact at every level
    cases = 0
    for n in (1, 2, 3, 4):
        truth = {}
        for word in exhaustive_words(n, 7):
            key = canonical_word(n, word)
            if key not in truth:
                truth[key] = _redex_free_levels(n, key)
            for level, free in truth[key].items():
                assert in_index_set(level, n, word) == free, (level, n, word)
                cases += 1
    assert cases == 369_108


def test_index_set_is_exact_on_positive_elements_at_the_blob_level():
    # positive elements carry no TL or boundary redex; at the blob level the
    # heap answer must equal a class walk for the long IJI and JIJ patterns
    checked = 0
    for n in (2, 3, 4):
        blob_patterns = [rule.pattern for rule in rewrite_rules(SB, n)[:2]]
        for s in range(3):
            for blocks in enumeration.iter_positive_blocks(n, s):
                word = nfm.block_word(blocks)
                assert in_index_set(TB, n, word), (n, blocks)
                has_blob_redex = any(
                    member[p : p + len(pattern)] == pattern
                    for member in commutation_class(n, word)
                    for pattern in blob_patterns
                    for p in range(len(member))
                )
                assert in_index_set(SB, n, word) == (not has_blob_redex), (n, blocks)
                assert in_index_set(SB, n, word) == grids.is_blobbed(n, blocks), (n, blocks)
                checked += 1
    assert checked > 300


@pytest.mark.parametrize(
    "level, n, word",
    [
        (TL, 2, (3,)),
        (SB, 2, (1.0, 0)),
        (TL, 0, ()),
        (TB, 3, (-1, 0)),
        (SB, 1.5, ()),
        (TB, 2, (1, False)),
        (SB, True, ()),
    ],
)
def test_index_set_rejects_malformed_input(level, n, word):
    with pytest.raises(ValueError):
        in_index_set(level, n, word)


def test_queries_at_rank_12_use_no_normal_forms(monkeypatch, capsys):
    def refuse(*args):
        raise AssertionError("normal forms reached on a query path")

    monkeypatch.setattr(nfm, "fc_forms", refuse)
    monkeypatch.setattr(nfm, "normal_form_of_word", refuse)
    n = 12
    basis = (11, 12, 9, 10, 11, 7, 8, 9, 0, 1, 2, 3)
    iji = nfm.block_word(grids.iji_blocks(n))
    for word, answers in (
        (basis, [True, True, True]),
        (iji, [True, True, False]),
        ((1, 0, 1), [True, False, False]),
        ((5, 6, 5), [False, False, False]),
    ):
        assert [in_index_set(level, n, word) for level in (TL, TB, SB)] == answers, word
    assert BasisElement(SB, n, basis).word == canonical_word(n, basis)
    for level in (TL, TB, SB):
        _, out = reduce_word(level, n, basis + basis)
        assert in_index_set(level, n, out) and len(out) < 2 * len(basis)
    assert cli.main(["grid", "--word", ",".join(map(str, basis)), "--n", "12"]) == 0
    assert capsys.readouterr().out.count("*") == len(basis)


def _spy_on_class_walk(monkeypatch):
    """Record each class walk that the blob-level fill (`algebra._reduce_canonical`)
    or the step oracle (`oracles.find_redex`) starts, as [word, members drawn]."""
    walks = []

    def spy(n, word):
        walk = [word, 0]
        walks.append(walk)
        for member in iter_commutation_class(n, word):
            walk[1] += 1
            yield member

    monkeypatch.setattr(algebra, "iter_commutation_class", spy)
    monkeypatch.setattr(oracles, "iter_commutation_class", spy)
    return walks


# the deep rank-8 word of the README, and the 97-letter rank-10 TL product
DEEP_RANK_8 = (2, 1, 0, 3, 2, 1, 0, 5, 4, 3, 7, 6, 5, 8, 7)
DEEP_RANK_10 = parse_word(DEEP_TL_WORD)


def test_deep_blob_redex_is_found_in_few_members(monkeypatch):
    # This rank-8 word is reduced FC and free of boundary triples, so only a
    # blob rule applies; its first IJI factor lies ~325k members into the
    # walk.  The step oracle takes the blob step from the heap after 15
    # members, and the blob-level fill takes it on the word's blocks after
    # the same 15.
    word = DEEP_RANK_8
    assert in_index_set(TB, 8, word) and not in_index_set(SB, 8, word)
    walks = _spy_on_class_walk(monkeypatch)
    shorter, scalar = _kernel_step(SB, 8, word)
    assert walks == [[word, len(word)]]
    assert scalar == K and len(shorter) == len(word) - len(grids.i_word(8) + grids.j_word(8))
    walks.clear()
    # the fill folds through the rank-8 rows, which `reduce_word` never
    # reads at that rank, so the rows it leaves go with the test
    try:
        filled = _fill_whole_word(8, word)
    finally:
        algebra._rows.cache_clear()
    assert algebra._rows(8) == {(): [None] * 9 + [()]}
    assert walks == [[canonical_word(8, word), len(word)]]
    assert filled == loop_reduce(SB, 8, word)


# a positive rank-4 product, a basis word times a generator, whose blob
# redex lies past its first 8 class members, so the fill takes the blob
# step off its columns, to (1, 0, 3) times k
HAND_OFF_RANK_4 = (1, 0, 3, 2, 1, 0, 4, 3)


def _fill_whole_word(n, word):
    """The blob-level fill of one word, memo bypassed for the word itself."""
    exps, final = algebra._reduce_canonical.__wrapped__(n, canonical_word(n, word))
    return algebra._unpacked(exps), final


def test_blob_step_tests_the_blocks_once(monkeypatch):
    # the fill's blob test of the first member (`grids._blob_step`) reads
    # its columns, finds them not blobbed and sweeps those same columns
    # once for the step taken past the walk, with no second test and no
    # block built; the fold of its word reads no columns, since its 3
    # letters are fewer than I J I's 7; the public `oblique_shortening_word`
    # still tests, and refuses a blobbed element, whose empty columns
    # count 0
    n, word = 4, HAND_OFF_RANK_4
    blocks = nfm._blocks_of_word(n, word)
    assert blocks == ((3, 4), (1, 3), (0, 1), (0, 0))
    # the blocks' columns, rows counted from the one where column 0 starts
    columns = words._word_columns(n, canonical_word(n, word))
    assert columns == ([0, -1, -1, -2, -2], [2, 2, 1, 2, 1])
    assert grids._block_columns(n, blocks) == ([2, 1, 1, 0, 0], [2, 2, 1, 2, 1])
    grids.iji_blocks(n), grids.jij_blocks(n)
    calls, blobbed = [], grids._columns_blobbed

    def counting(n, columns):
        calls.append(columns)
        return blobbed(n, columns)

    swept, drop = [], grids._drop_ij

    def dropping(n, columns):
        swept.append(columns)
        return drop(n, columns)

    monkeypatch.setattr(grids, "_columns_blobbed", counting)
    monkeypatch.setattr(algebra, "_columns_blobbed", counting)
    monkeypatch.setattr(grids, "_drop_ij", dropping)
    assert _fill_whole_word(n, word) == (K, (1, 0, 3))
    assert calls == swept == [columns]
    with pytest.raises(ValueError, match="blobbed"):
        grids.oblique_shortening_word(n, ())
    assert calls == [columns, ([0] * 5, [0] * 5)] and swept == [columns]


def test_blob_path_checks_no_rigid_blocks(monkeypatch):
    # a positive word's columns give valid blocks, so neither the blob step
    # nor an index-set query checks blocks, and the query builds none; the
    # public `is_blobbed` and `oblique_shortening_word` still check theirs
    n, word = 4, HAND_OFF_RANK_4
    grids.iji_blocks(n), grids.jij_blocks(n)
    calls, check = [], nfm.check_blocks

    def counting(n, blocks):
        calls.append(blocks)
        return check(n, blocks)

    monkeypatch.setattr(nfm, "check_blocks", counting)
    monkeypatch.setattr(grids, "check_blocks", counting)
    assert _fill_whole_word(n, word) == (K, (1, 0, 3))
    assert calls == []
    assert in_index_set(SB, n, (0, 1, 2))
    assert not in_index_set(SB, n, word)
    assert calls == []
    assert grids.oblique_shortening_word(n, grids.iji_blocks(n)) == (1, 3)
    assert calls == [grids.iji_blocks(n)]
    assert not grids.is_blobbed(n, grids.iji_blocks(n))
    assert calls == [grids.iji_blocks(n)] * 2


def test_each_redex_search_draws_at_most_word_length_members(monkeypatch):
    # the class walk has no bound of its own: the search reads at most
    # len(word) members of it, whatever the level, rank or depth of redex.
    # Below `_LOOP_RANK` the blob level's searches are those of its fill,
    # `_reduce_canonical`.  `reduce_word` at TL and 2B, and at the blob
    # level from rank `_LOOP_RANK`, reads the heap and searches nothing, so
    # there the searches come from the step oracle of `loop_reduce`
    rng = random.Random(2424)
    cases = [(8, DEEP_RANK_8), (10, DEEP_RANK_10)]
    for n in range(4, 9):
        for _ in range(40):
            cases.append((n, tuple(rng.randint(0, n) for _ in range(rng.randint(0, 20)))))
    # below `_LOOP_RANK` the blob level folds a word one generator at a
    # time through the rows, so its searches are on a basis word times a
    # generator, and few walk len(word) members; more and longer words
    # keep the full walks above the floor
    rng = random.Random(2425)
    for n in range(4, 9):
        for _ in range(20):
            cases.append((n, tuple(rng.randint(0, n) for _ in range(rng.randint(10, 24)))))
    walks = _spy_on_class_walk(monkeypatch)
    # so every step searches again
    algebra._reduce_canonical.cache_clear()
    algebra._rows.cache_clear()
    searches = []  # [level, n, word, members drawn] per walk
    for level in (TL, TB, SB):
        for n, word in cases:
            start = len(walks)
            if level == SB and n < algebra._LOOP_RANK:
                reduce_word(level, n, word)
            else:
                loop_reduce(level, n, word)
            searches += [[level, n, w, drawn] for w, drawn in walks[start:]]
    assert len(searches) > 1000
    basis = 0
    for level, n, word, drawn in searches:
        assert drawn <= len(word), (level, n, word, drawn)
        if in_index_set(level, n, word):
            # the word every reduction ends on stops the walk at itself
            basis += 1
            assert drawn == 1, (level, n, word, drawn)
    assert basis > 500
    # a redex past the bound reads the whole of it before the heap step or
    # the blob-level fill's blob step;
    # a basis word never does, so each such walk is on a word with a redex
    full = [s for s in searches if s[3] == len(s[2]) > 1]
    assert not [s for s in full if in_index_set(*s[:3])]
    assert len(full) > 40


def _spy_on_heap_passes(monkeypatch) -> list:
    """
    The words of every heap pass, as they happen: `in_index_set`'s
    (`_heap_reading`, through `algebra`) and the step oracle's
    (`oracles.heap_witness`).
    """
    passes = []

    def counting(read):
        def spy(n, word):
            passes.append(word)
            return read(n, word)

        return spy

    monkeypatch.setattr(algebra, "_heap_reading", counting(words._heap_reading))
    monkeypatch.setattr(oracles, "heap_witness", counting(oracles.heap_witness))
    return passes


def test_basis_word_search_reads_one_member_and_the_heap_once(monkeypatch):
    # a search reads the heap at most once: a word with no pattern of its
    # own reads it once, so a basis word leaves after the word itself, and
    # a word past the walk leaves without a second reading, to the blob
    # step off the columns read in the blob-level fill and to a heap step
    # built from that reading in the step oracle.  The fill searches at
    # the blob level, on the words it takes, positive ones of at least as
    # many letters as I J I, and reads their columns, not their heap; the
    # oracle searches at TL and 2B, where `src` searches nothing
    for n in (1, 2, 3):  # the IJI and JIJ columns are read once per rank and kept
        grids._pattern_columns(n)
    walks = _spy_on_class_walk(monkeypatch)
    passes = _spy_on_heap_passes(monkeypatch)
    word_columns = grids._word_columns

    def reading_columns(n, word):
        passes.append(word)
        return word_columns(n, word)

    monkeypatch.setattr(grids, "_word_columns", reading_columns)
    # one search per call: the fill folds the shorter word it does not
    # answer through a stub, not through the rows, whose fills search again
    fill = algebra._reduce_canonical.__wrapped__
    monkeypatch.setattr(algebra, "_fold_rows", lambda n, exps, row, word: (exps, [None]))
    basis, fills = dict.fromkeys((TL, TB, SB), 0), 0
    for n in (1, 2, 3):
        for word in exhaustive_words(n, 6):
            for level in (TL, TB, SB):
                is_basis = in_index_set(level, n, word)
                if level == SB:
                    if len(word) < algebra._iji_length(n) or not in_index_set(TB, n, word):
                        continue
                    fills += 1
                walks.clear()
                passes.clear()
                if level == SB:
                    stays = fill(n, word) == (0, word)
                else:
                    stays = find_redex(level, n, word) is None
                assert stays == is_basis, (level, n, word)
                # the empty word has no member to draw and no heap to read
                assert len(passes) <= bool(word), (level, n, word)
                if is_basis:
                    basis[level] += 1
                    assert [drawn for _, drawn in walks] == [1] * bool(word), (level, n, word)
    assert (basis, fills) == ({TL: 404, TB: 322, SB: 90}, 144)


def _heap_redex_scalar(level, n, word, redex):
    """The scalar of the step an `oracles.heap_redex` reading leads to, as text."""
    if redex is None:
        return None
    if isinstance(redex[0], tuple):  # rigid blocks: the blob step
        return str(K)
    pattern = tuple(word[p] for p in redex)
    (rule,) = [rule for rule in rewrite_rules(level, n) if rule.pattern == pattern]
    return str(rule.scalar)


def test_heap_redex_reads_the_heap_once(monkeypatch):
    # one heap pass per reading, whichever way it decides: `in_index_set`,
    # which builds no greatest member, and the step oracle's reading, which
    # builds at most one, whose outcomes are a chain, a boundary triple,
    # the blob step or None, and which agrees with `in_index_set`
    for n in (1, 2, 3):  # the IJI and JIJ columns are read once per rank and kept
        grids._pattern_columns(n)
    passes, builds = _spy_on_heap_passes(monkeypatch), []
    normal = nfm._normal_word

    def counting_normal(n, word):
        builds.append(word)
        return normal(n, word)

    monkeypatch.setattr(nfm, "_normal_word", counting_normal)
    outcomes = set()
    for n in (1, 2, 3):
        for word in exhaustive_words(n, 6):
            for level in (TL, TB, SB):
                passes.clear()
                builds.clear()
                is_basis = in_index_set(level, n, word)
                assert len(passes) == 1 and builds == [], (level, n, word)
                passes.clear()
                builds.clear()
                redex = oracles.heap_redex(level, n, word)
                assert len(passes) == 1 and len(builds) <= 1, (level, n, word)
                assert (redex is None) == is_basis, (level, n, word)
                outcomes.add(_heap_redex_scalar(level, n, word, redex))
    assert outcomes == {None, "k", "d", "dL", "dR", "kL", "kR", "1"}


def test_a_blob_level_query_reads_the_heap_once_and_no_member(monkeypatch):
    # on every positive element of ranks 1-5 with at least as many letters
    # as I J I, its block word and a shuffled member: the blob-level query
    # is one heap reading, its columns read off that reading and not off
    # the word again, and neither a greatest member nor a block list is
    # built nor a blob step taken
    for n in range(1, 6):
        grids._pattern_columns(n)
    passes, builds = _spy_on_heap_passes(monkeypatch), []

    def counting(build):
        def spy(n, word):
            builds.append(word)
            return build(n, word)

        return spy

    monkeypatch.setattr(nfm, "_normal_word", counting(nfm._normal_word))
    monkeypatch.setattr(nfm, "_blocks_of_word", counting(nfm._blocks_of_word))
    monkeypatch.setattr(algebra, "_blob_step", counting(algebra._blob_step))
    monkeypatch.setattr(grids, "_word_columns", counting(grids._word_columns))
    rng, queries = random.Random(1), 0
    for n in range(1, 6):
        for s in range(n + 2):
            for blocks in enumeration.iter_positive_blocks(n, s):
                word = nfm.block_word(blocks)
                if len(word) < algebra._iji_length(n) or not in_index_set(TB, n, word):
                    continue
                for member in (word, class_shuffle(rng, word)):
                    passes.clear()
                    in_index_set(SB, n, member)
                    assert (passes, builds) == ([member], []), (n, member)
                    queries += 1
    assert queries == 2 * 6_510


# ---------------------------------------------------------------------------
# basis elements and products


def test_basis_element_validation():
    BasisElement(TL, 2, (0, 1, 0))
    with pytest.raises(ValueError):
        BasisElement(TL, 2, (0, 0))
    with pytest.raises(ValueError):
        BasisElement(TB, 2, (1, 0, 1))
    with pytest.raises(ValueError):
        BasisElement(SB, 2, nfm.block_word(grids.iji_blocks(2)))


def test_multiply_examples():
    e = BasisElement(SB, 2, ())
    w = BasisElement(SB, 2, (1, 0))
    assert multiply(e, w) == (Scalar.one(), w)
    b_i = BasisElement(SB, 2, (1,))
    b_ji = BasisElement(SB, 2, (0, 2, 1))
    scalar, out = multiply(b_i, b_ji)
    assert scalar == K and out == b_i
    one = BasisElement(TL, 2, (1,))
    assert multiply(one, one) == (D, one)


def test_multiply_rejects_mixed_algebras():
    with pytest.raises(ValueError):
        multiply(BasisElement(TL, 2, (1,)), BasisElement(SB, 2, (1,)))


def test_algebra_element_linearity():
    x = AlgebraElement.from_word(SB, 2, (1, 0, 2, 1))
    assert x.terms == {BasisElement(SB, 2, (1,)): K}
    y = AlgebraElement.from_word(SB, 2, (0,))
    total = x + y
    assert len(total.terms) == 2
    assert (total + total.scaled(Scalar.integer(-1))).terms == {}
    z = AlgebraElement.from_word(SB, 2, (1,)) * AlgebraElement.from_word(SB, 2, (1,))
    assert z == AlgebraElement(SB, 2, {BasisElement(SB, 2, (1,)): D})


def test_algebra_element_text_form():
    total = AlgebraElement.from_word(SB, 2, (1, 0, 2, 1)) + AlgebraElement.from_word(SB, 2, (0,))
    assert repr(total) == "AlgebraElement((1)*b[0] + (k)*b[1])"  # terms sort by word
    assert repr(AlgebraElement(SB, 2)) == "AlgebraElement(0)"


@pytest.mark.parametrize("level, n", [(TL, 2), (SB, 3)])
def test_algebra_element_rejects_mixed_algebras(level, n):
    # a term, a summand or a factor of another level or rank than the element's
    x = AlgebraElement.from_word(SB, 2, (1,))
    with pytest.raises(ValueError, match="mixed"):
        AlgebraElement(SB, 2, {BasisElement(level, n, (1,)): Scalar.one()})
    other = AlgebraElement.from_word(level, n, (1,))
    with pytest.raises(ValueError, match="add"):
        x + other
    with pytest.raises(ValueError, match="multiply"):
        x * other


def test_algebra_element_associativity_spot():
    rng = random.Random(77)
    basis = [BasisElement(SB, 2, w) for w in sb_basis(2)]
    for _ in range(15):
        a, b, c = (
            AlgebraElement(SB, 2, {rng.choice(basis): Scalar.one()}) for _ in range(3)
        )
        assert (a * b) * c == a * (b * c)


def test_algebra_element_square_is_the_table_sum():
    # a rank-3 basis sum with seeded +-1 coefficients, squared, against its
    # terms assembled from the multiplication table: 563 of the 1,971
    # monomials that the table sends to some basis word cancel there, and
    # the square holds none of them
    rng = random.Random(3)
    signs = {w: rng.choice((1, -1)) for w in sb_basis(3)}
    x = AlgebraElement(SB, 3, {BasisElement(SB, 3, w): Scalar.integer(c) for w, c in signs.items()})
    terms, reached = {}, set()
    for (xw, yw), (scalar, zw) in structure_constants(3).items():
        terms[zw] = terms.get(zw, Scalar.zero()) + scalar * Scalar.integer(signs[xw] * signs[yw])
        reached |= {(zw, e) for e in scalar.terms}
    square = x * x
    assert square == AlgebraElement(SB, 3, {BasisElement(SB, 3, zw): c for zw, c in terms.items()})
    kept = {(b.word, e) for b, coeff in square.terms.items() for e in coeff.terms}
    assert kept < reached and (len(reached), len(reached - kept)) == (1_971, 563)


# ---------------------------------------------------------------------------
# quotient identities


def test_quotient_image_examples():
    assert quotient_image_check(2, (1, 0, 1))
    assert quotient_image_check(3, (2, 1, 0, 1, 2))
    assert quotient_image_check(3, (2, 3, 2, 1, 0, 1, 2, 3))
    assert quotient_image_check(2, nfm.block_word(grids.iji_blocks(2)))
    assert quotient_image_check(2, nfm.block_word(((1, 2), (0, 2), (0, 1))))
    assert quotient_image_check(3, nfm.block_word(grids.jij_blocks(3)))


def test_quotient_image_preconditions():
    # the word's heap state fixes the step: a triple goes TL -> 2B, a
    # positive word 2B -> SB, and nothing else has an image
    with pytest.raises(ValueError):
        quotient_image_check(2, (1, 0))  # positive and blobbed: a basis word at every level
    with pytest.raises(ValueError):
        quotient_image_check(2, (0, 0))  # not reduced FC: not a basis word at all


def test_quotient_sweep_small():
    # ranks 2 and 3 at affine lengths 0-2, as `verify` checks them, and
    # ranks 4 and 5 at affine lengths 0-3
    ranges = [(n, range(0, 3)) for n in (2, 3)] + [(n, range(0, 4)) for n in (4, 5)]
    for n, lengths in ranges:
        for s in lengths:
            for f in nfm.fc_forms(n, s):
                word = nfm.word_of_normal_form(n, f)
                if not nfm.is_positive(n, f):
                    assert quotient_image_check(n, word), (n, s, f)
    for n, lengths in ranges:
        for s in lengths:
            for blocks in enumeration.iter_positive_blocks(n, s):
                if not grids.is_blobbed(n, blocks):
                    word = nfm.block_word(blocks)
                    assert quotient_image_check(n, word), (n, blocks)


def test_quotient_image_at_higher_ranks():
    # TL -> 2B on seeded non-positive FC words at ranks 6-16, grown around a
    # boundary triple; the image comes from the normal form read off the heap
    rng = random.Random(83)
    checked = 0
    for n in range(6, 17):
        for _ in range(10):
            triple = rng.choice([(1, 0, 1), (n - 1, n, n - 1)])
            word = grown_fc_word(rng, n, rng.randint(0, 3 * n), triple)
            assert quotient_image_check(n, word), (n, word)
            checked += 1
    assert checked == 110


# ---------------------------------------------------------------------------
# structure constants


def test_structure_constants_diagonal_carries_loop_weights():
    table = structure_constants(2)
    scalar, target = table[((1,), (1,))]
    assert (scalar, target) == (D, (1,))
    scalar, target = table[((0,), (0,))]
    assert (scalar, target) == (DL, (0,))
    scalar, target = table[((2,), (2,))]
    assert (scalar, target) == (DR, (2,))


def test_rank_one_blob_table():
    # the two boundary triples both rewrite with the blob weight at rank 1
    assert reduce_word(SB, 1, (1, 0, 1)) == (K, (1,))
    assert reduce_word(SB, 1, (0, 1, 0)) == (K, (0,))
    table = structure_constants(1)
    assert table[((0, 1), (0, 1))] == (K, (0, 1))
    assert table[((1, 0), (1, 0))] == (K, (1, 0))
    # at the middle level the rank-1 identity is the defining relation
    assert reduce_word(TB, 1, (1, 0, 1)) == (KL, (1,))
    assert reduce_word(TB, 1, (0, 1, 0)) == (KR, (0,))


def test_structure_constants_records_schema():
    import json

    from blobcat.algebra import structure_constants_records

    records = structure_constants_records(1)
    assert len(records) == 25
    assert all(set(r) == {"x", "y", "scalar", "z"} for r in records)
    blob = json.dumps(records)
    assert '"scalar": "k"' in blob


# sha256 of json.dumps(structure_constants_records(3), sort_keys=True): the
# whole rank-3 blob table, scalars and targets, must not drift
STRUCTURE_CONSTANTS_3_SHA256 = "0727a3ba3623a6b5b11beec79735df77c06741e4a8a09418d4cd8a7598b5c134"


def test_structure_constants_records_rank_three_are_pinned():
    import hashlib
    import json

    from blobcat.algebra import structure_constants_records

    blob = json.dumps(structure_constants_records(3), sort_keys=True)
    assert hashlib.sha256(blob.encode()).hexdigest() == STRUCTURE_CONSTANTS_3_SHA256


# sha256 of json.dumps(structure_constants_records(4), sort_keys=True): all
# 112,225 products of the rank-4 blob table, recorded before the kernel took
# the blob step from the heap
STRUCTURE_CONSTANTS_4_SHA256 = "2f7a51fbd267ea2175b7c4e95c5638473902b331c5173762f9b34c184fb548bb"


def test_structure_constants_records_rank_four_are_pinned():
    import hashlib
    import json

    from blobcat.algebra import structure_constants_records

    blob = json.dumps(structure_constants_records(4), sort_keys=True)
    assert hashlib.sha256(blob.encode()).hexdigest() == STRUCTURE_CONSTANTS_4_SHA256


def test_long_word_reduces_without_recursion_limit():
    # 1199 square rewrites, more than the default recursion limit would
    # allow a recursive rewrite
    assert reduce_word(TL, 2, (1,) * 1200) == (Scalar({(1199, 0, 0, 0, 0, 0): 1}), (1,))


def test_rank_one_associativity_exhaustive():
    # the delicate rank: all 125 triples of basis monomials associate
    basis = [AlgebraElement(SB, 1, {BasisElement(SB, 1, w): Scalar.one()}) for w in sb_basis(1)]
    for a in basis:
        for b in basis:
            ab = a * b
            for c in basis:
                assert (ab) * c == a * (b * c)


@pytest.mark.parametrize(
    "word, scalar, out", [((0, 1, 0, 1), KR, (0, 1)), ((1, 0, 1, 0, 0), DL * KL, (1, 0))]
)
def test_rank_one_two_boundary_whole_word_outputs(word, scalar, out):
    assert reduce_word(TB, 1, word) == (scalar, out)


@pytest.mark.xfail(
    strict=True,
    reason="at rank 1 the two-boundary relations overlap on (0,1,0,1) and the "
    "reduction order picks kL or kR there; the semantics is open (ROADMAP item 3)",
)
@pytest.mark.parametrize("word", [(0, 1, 0, 1), (1, 0, 1, 0, 0)])
def test_rank_one_two_boundary_suffix_first_agrees(word):
    # with the suffix after the first letter reduced first, the words give
    # kL*[0,1] and dL*kR*[1,0], not the whole-word outputs pinned above
    assert verify._cut_mismatch(TB, 1, word, cuts=(1,)) is None
