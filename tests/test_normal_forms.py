"""Normal forms: expansion, generation, positivity, bar/tilde, rigid blocks."""

import hashlib
import itertools
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
    blocks_of_word,
    check_blocks,
    check_normal_form,
    fc_forms,
    format_blocks,
    iter_bforms,
    is_positive,
    normal_form_of_word,
    parse_blocks,
    positive_blocks_of,
    tilde,
    word_of_normal_form,
)
from blobcat.words import HeapState, canonical_word, heap_state, is_reduced_fc

from oracles import (
    blocks_affine_length,
    blocks_by_flip,
    commutation_class,
    contains_pattern,
    exhaustive_words,
    greatest_word_by_flip,
    grown_fc_word,
    nf_of_positive_blocks,
    normal_form_by_lookup,
)

RANKS = (1, 2, 3)
LENGTHS = (0, 1, 2, 3)


def catalan(n):
    return math.comb(2 * n, n) // (n + 1)


def _state(n, nf):
    """The heap state of the word a normal form spells: positivity and the bar/tilde domains."""
    return heap_state(n, word_of_normal_form(n, nf))


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
    # SecondType((), 1, ()) spells the word of LengthOne(0, DescentTail(2)),
    # the element's generated form, so only the unchecked spelling takes it
    assert nfm._word_of_normal_form(2, SecondType((), 1, ())) == (0, 1, 2)
    with pytest.raises(ValueError):
        word_of_normal_form(2, SecondType((), 1, ()))
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


def _candidate_forms(n):
    """
    Forms of every shape whose parameters run one step past their ranges:
    i, f and prefix entries in -n-1..n+1, k <= 3, tails from `iter_bforms`,
    descent tails over the same span and zero runs over every subset of 0..n.
    """
    span = range(-n - 1, n + 2)
    ks = range(4)
    bforms = tuple(iter_bforms(n))
    yield from (LengthZero(form) for form in bforms)
    for i, k, f in itertools.product(span, ks, span):
        yield FirstType(i, k, f)
    for p in range(n + 1):
        for prefix, k, tail in itertools.product(itertools.product(span, repeat=p), ks, bforms):
            yield SecondType(prefix, k, tail)
    runs = [c for m in range(n + 2) for c in itertools.combinations(range(n, -1, -1), m)]
    tails = bforms + tuple(DescentTail(h) for h in span)
    tails += tuple(DescentZerosTail(z, r) for z in span for r in runs)
    for i, v in itertools.product(span, tails):
        yield LengthOne(i, v)


def _accepts(n, nf):
    try:
        check_normal_form(n, nf)
    except ValueError:
        return False
    return True


def test_check_normal_form_accepts_exactly_the_generated_forms():
    # a form that is not a normal form is outside every operator's domain:
    # bar and tilde refuse it rather than map its shape
    candidates = 0
    for n in (1, 2, 3):
        generated = set().union(*(fc_forms(n, s) for s in range(n + 4)))
        for nf in _candidate_forms(n):
            candidates += 1
            accepted = _accepts(n, nf)
            assert accepted == (nf in generated), (n, nf)
            if not accepted:
                for op in (bar, tilde):
                    assert _image_or_refusal(op, n, nf) == "ValueError", (op.__name__, n, nf)
    assert candidates == 83_235


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
            assert word.count(n) == s
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
                if longer.count(n) > max_s or not is_reduced_fc(n, longer):
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
        assert generated == {w for w in grown if w.count(n) == s}, (n, s)


def test_generation_and_shortening_use_no_oracle(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("oracle called on a production path")

    monkeypatch.setattr(words, "is_reduced_fc", refuse)
    monkeypatch.setattr(words, "canonical_word", refuse)
    monkeypatch.setattr(nfm, "is_reduced_fc", refuse)
    fc_forms.cache_clear()
    assert [len(fc_forms(5, s)) for s in LENGTHS] == [293, 1092, 1086, 1137]

    # the shortening path, with the checks that read normal forms off the
    # heap, builds no whole FC set and walks no commutation class
    forms = [(n, f) for n in (2, 3) for s in LENGTHS for f in fc_forms(n, s)]
    monkeypatch.setattr(nfm, "fc_forms", refuse)
    monkeypatch.setattr(words, "iter_commutation_class", refuse)
    for n, f in forms:
        check_normal_form(n, f)
        state = _state(n, f)
        if state == HeapState.LEFT_TRIPLE:
            bar(n, f)
        elif state == HeapState.RIGHT_TRIPLE:
            tilde(n, f)


# sha256 of f"{form!r}\n" over iter_fc_forms(7, s) for s = 0..5, in order;
# recorded before every finite-part tail came from one pruned bracket DFS
RANK_SEVEN_ORDER_SHA256 = "5c40b9f91864186f67ab7ff28ee8aa604247f4849e162b040fdce1059d53a931"


def test_generation_order_at_rank_seven_is_pinned():
    h = hashlib.sha256()
    count = 0
    for s in range(6):
        for f in nfm.iter_fc_forms(7, s):
            count += 1
            h.update(f"{f!r}\n".encode())
    assert count == 82423
    assert h.hexdigest() == RANK_SEVEN_ORDER_SHA256


@pytest.mark.parametrize("s", [0, 2, 3, 4, 5])
def test_generation_builds_only_brackets_it_yields(monkeypatch, s):
    # each bracket ends one yielded tail; filtering whole finite-part forms
    # after building them built four to seven times as many brackets here.
    # At s = 1 a few built tails braid into the run and are dropped.
    built = []
    monkeypatch.setattr(nfm, "Bracket", lambda l, g: built.append(g) or Bracket(l, g))
    forms = list(nfm.iter_fc_forms(6, s))
    tails = [f.form if isinstance(f, LengthZero) else f.tail for f in forms
             if not isinstance(f, FirstType)]
    assert len(built) == sum(1 for tail in tails if tail)


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
    checked = 0
    for n in range(1, 7):
        for s in range(5):
            for f in fc_forms(n, s):
                word = _scrambled(rng, nfm._word_of_normal_form(n, f))
                got = normal_form_of_word(n, word)
                assert got == normal_form_by_lookup(n, word) == f, (n, s, word)
                checked += 1
    assert checked == 24_049


def test_normal_word_is_class_maximum_exhaustive():
    checked = 0
    for n in (1, 2, 3, 4):
        for word in exhaustive_words(n, 7):
            if is_reduced_fc(n, word):
                assert nfm._normal_word(n, word) == max(commutation_class(n, word))
                checked += 1
    assert checked == 3_466


def test_greatest_member_and_blocks_match_the_flipped_reading_exhaustive():
    # the top-down greedy against the least member of the flipped word on
    # every word, and the blocks read off it on every positive one
    checked, positive = 0, 0
    for n, max_len in ((1, 8), (2, 8), (3, 6), (4, 6)):
        for word in exhaustive_words(n, max_len):
            assert nfm._normal_word(n, word) == greatest_word_by_flip(n, word), (n, word)
            checked += 1
            if heap_state(n, word) == HeapState.POSITIVE:
                assert blocks_of_word(n, word) == blocks_by_flip(n, word), (n, word)
                positive += 1
    assert (checked, positive) == (35_344, 1_496)


def _seed_forms(rng, n):
    """The identity and one random generated form of each rigid or descent shape."""
    i, f, h = (rng.randint(1 - n, n) for _ in range(3))
    z = rng.randint(2, n)
    runs = tuple(sorted(rng.sample(range(z), rng.randint(1, z)), reverse=True))
    return (
        LengthZero(()),
        FirstType(i, rng.randint(1, 3), f),
        LengthOne(rng.randint(1 - n, 0), DescentTail(h)),
        LengthOne(0, DescentZerosTail(z, runs)),
    )


def test_normal_form_of_word_at_high_rank():
    # seeded FC words at ranks 8-64, grown from the seed forms; each read
    # form passes the round trip and spells a word of the input's element
    rng = random.Random(71)
    shapes = set()
    for n in (8, 12, 16, 32, 64):
        for _ in range(10):
            for seed in _seed_forms(rng, n):
                start = nfm._word_of_normal_form(n, seed)
                word = grown_fc_word(rng, n, rng.randint(0, 3 * n), start)
                nf = normal_form_of_word(n, _scrambled(rng, word))
                assert check_normal_form(n, nf) == nf
                assert canonical_word(n, word_of_normal_form(n, nf)) == canonical_word(n, word)
                shapes.add(type(nf.v).__name__ if isinstance(nf, LengthOne) else type(nf).__name__)
    assert shapes == {
        "LengthZero", "FirstType", "SecondType", "tuple", "DescentTail", "DescentZerosTail"
    }


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
                if contains_pattern(n, word, (1, 0, 1)):
                    expected = HeapState.LEFT_TRIPLE
                elif contains_pattern(n, word, (n - 1, n, n - 1)):
                    expected = HeapState.RIGHT_TRIPLE
                else:
                    expected = HeapState.POSITIVE
                assert heap_state(n, word) == expected, (n, s, f)
                assert is_positive(n, f) == (expected == HeapState.POSITIVE), (n, s, f)


def _image_or_refusal(op, n, f):
    try:
        return repr(op(n, f))
    except ValueError as exc:
        return type(exc).__name__


def test_classification_matches_detectors():
    # the operators' shape cases cover their domains: bar refuses exactly the
    # left-positive forms, tilde all but the left- and not right-positive ones
    # (the rank-1 boundary braids are refused inside the domain)
    braids = {(1, FirstType(1, 1, 1)), (1, LengthOne(0, DescentTail(0)))}
    for n in (1, 2, 3, 4, 5):
        for s in LENGTHS:
            for f in fc_forms(n, s):
                if (n, f) in braids:
                    continue
                state = _state(n, f)
                refused = _image_or_refusal(bar, n, f) == "ValueError"
                assert refused == (state != HeapState.LEFT_TRIPLE), (n, s, f)
                refused = _image_or_refusal(tilde, n, f) == "ValueError"
                assert refused == (state != HeapState.RIGHT_TRIPLE), (n, s, f)


# sha256 over fc_forms(n, s) for n = 1..5 and s = 0..3 (5,073 forms) of one
# line per form, "n s form bar tilde", where each image is its repr or, when
# the operator refuses the form, the name of the exception type.  Recorded
# before bar and tilde matched the form's shape themselves.
BAR_TILDE_SHA256 = "77efa2dd7e17954feaa417f25ddd74c81ed6ead357b3d33908c1ad64d939fba6"


def test_bar_and_tilde_outputs_are_pinned():
    h = hashlib.sha256()
    count = 0
    for n in range(1, 6):
        for s in LENGTHS:
            for f in fc_forms(n, s):
                count += 1
                bar_out, tilde_out = (_image_or_refusal(op, n, f) for op in (bar, tilde))
                h.update(f"{n} {s} {f!r} {bar_out} {tilde_out}\n".encode())
    assert count == 5073
    assert h.hexdigest() == BAR_TILDE_SHA256


def test_positivity_examples():
    assert _state(2, FirstType(2, 1, 2)) == HeapState.LEFT_TRIPLE
    assert _state(3, LengthZero((Bracket(2, 2), Bracket(-1, 1)))) == HeapState.LEFT_TRIPLE
    assert _state(2, LengthOne(0, DescentTail(1))) == HeapState.RIGHT_TRIPLE
    assert _state(3, LengthZero(())) == HeapState.POSITIVE
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


def test_tilde_undefined_on_rank_one_braid():
    # s_0 s_1 s_0 is left-positive but not right-positive at rank 1
    with pytest.raises(ValueError, match="rank-1 boundary braid"):
        tilde(1, LengthOne(0, DescentTail(0)))


def test_bar_and_tilde_read_their_input_once(monkeypatch):
    # one normal-form read of the input's word, in domain or not, and one
    # of the image's word wherever there is an image: the public operators
    # check every image they return, and their cores check none
    reads = []
    read = nfm.normal_form_of_word

    def counting_read(n, word):
        reads.append(word)
        return read(n, word)

    monkeypatch.setattr(nfm, "normal_form_of_word", counting_read)
    for n in (1, 2, 3, 4):
        for s in LENGTHS:
            for f in fc_forms(n, s):
                for op in (bar, tilde):
                    reads.clear()
                    try:
                        image = op(n, f)
                    except ValueError:
                        image = None
                    if op is bar and image is not None:
                        image = image[0]
                    expected = [nfm._word_of_normal_form(n, f)]
                    if image is not None:
                        expected.append(nfm._word_of_normal_form(n, image))
                    assert reads == expected, (op.__name__, n, f)


def test_the_boundary_check_reads_each_element_heap_once(monkeypatch):
    # the TL -> 2B check of `verify` on every non-positive form at ranks
    # 2-4 and affine lengths 0-2: the sweep reads each element's heap once,
    # for its state, and `verify.boundary_image_holds` runs the cores
    # `_bar` and `_tilde` under that state, which check nothing, so it
    # reads no heap of the element, only its image's, once, in the checked
    # spelling: 342 heap readings and 342 greatest-member builds for 342
    # elements, where the checked `bar` and `tilde`, which check their
    # input and their image, and then the checked spelling make 1,368 and
    # 1,026
    from blobcat import verify

    elements = []
    for n in (2, 3, 4):
        for s in range(3):
            for f in fc_forms(n, s):
                state = heap_state(n, word_of_normal_form(n, f))
                if state != HeapState.POSITIVE:
                    elements.append((n, f, state))
    reads, builds = [], []

    def spy(seen, inner):
        def called(n, word):
            seen.append(word)
            return inner(n, word)

        return called

    monkeypatch.setattr(nfm, "heap_state", spy(reads, heap_state))
    monkeypatch.setattr(verify, "heap_state", spy(reads, heap_state))
    monkeypatch.setattr(nfm, "_normal_word", spy(builds, nfm._normal_word))
    read = built = 0
    for n, f, state in elements:
        reads.clear()
        builds.clear()
        assert verify.boundary_image_holds(n, f, state), (n, f)
        word = nfm._word_of_normal_form(n, f)
        assert word not in reads and word not in builds, (n, f)
        read, built = read + len(reads), built + len(builds)
    assert (len(elements), read, built) == (342, 342, 342)
    positive = normal_form_of_word(2, (1,))
    with pytest.raises(ValueError, match="POSITIVE element has no boundary image"):
        verify.boundary_image_holds(2, positive, HeapState.POSITIVE)


def test_bar_and_tilde_shrink_across_generation():
    # every image is itself a generated normal form, not just a valid one
    for n in (2, 3, 4, 5):
        generated = set().union(*(fc_forms(n, s) for s in LENGTHS))
        for s in LENGTHS:
            for f in fc_forms(n, s):
                word = word_of_normal_form(n, f)
                state = heap_state(n, word)
                if state == HeapState.LEFT_TRIPLE:
                    image, _ = bar(n, f)
                    assert len(word_of_normal_form(n, image)) < len(word), (n, f)
                    assert image in generated, (n, f)
                elif state == HeapState.RIGHT_TRIPLE:
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
    assert parse_blocks(" 3: 4 ,+0:-1") == ((3, 4), (0, -1))
    for text in ("0:1_0", "\u0660:\u0661", "0:\u00b9", "0:1,", "0:- 1", "0:1:2"):
        with pytest.raises(ValueError, match="malformed block"):
            parse_blocks(text)


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


def _random_blocks(rng, n, s):
    """A random block list at rank n with s rows ending at n; later rows shrink by 1-3."""
    blocks, l, r = [], n + 1, n
    while True:
        r = n if len(blocks) < s else r - rng.randint(1, 3)
        if r < 0:
            return check_blocks(n, tuple(blocks))
        l = 0 if l == 0 else max(0, min(l - 1, r) - rng.randint(0, 3))
        blocks.append((l, r))


def test_blocks_are_read_from_any_class_member_at_high_rank():
    rng = random.Random(64)
    for n in (8, 16, 32, 64):
        for s in range(5):
            for _ in range(40):
                blocks = _random_blocks(rng, n, s)
                word = _scrambled(rng, block_word(blocks))
                assert heap_state(n, word) == HeapState.POSITIVE, (n, blocks)
                assert blocks_of_word(n, word) == blocks, (n, blocks)


def test_block_reading_does_not_swell_memory():
    # A tuple built from a generator is allocated at a guessed size and then
    # resized, so CPython's per-size tuple free lists fill up with freed
    # tuples of every word length.  Holding 2,100 tuples of each free-listed
    # size first empties those lists, so earlier tests cannot hide the growth.
    import gc
    import tracemalloc

    from blobcat import enumeration
    from blobcat.algebra import AlgebraLevel, in_index_set

    rng = random.Random(5)
    queries = []
    for n in (5, 6, 7):
        pool = [blocks for s in range(4) for blocks in enumeration.iter_positive_blocks(n, s)]
        queries += [(n, _scrambled(rng, block_word(b))) for b in rng.sample(pool, 800)]
    held = [tuple([0] * size) for size in range(1, 20) for _ in range(2100)]
    gc.collect()
    tracemalloc.start()
    try:
        for _ in range(5):
            for n, word in queries:
                in_index_set(AlgebraLevel.SYMPLECTIC_BLOB, n, word)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    del held
    # about 0.3 MB with list-built tuples, over 2 MB with generator-built flips
    assert peak < 1_000_000, peak


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
