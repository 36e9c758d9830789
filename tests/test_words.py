"""Word-level combinatorics: commutation classes, reducedness, containment."""

import itertools
import random
import time
from collections import Counter, deque

import pytest

from blobcat import algebra, verify, words
from blobcat import normal_forms as nf
from blobcat.algebra import AlgebraLevel, rewrite_rules, sb_basis
from blobcat.words import (
    HeapState,
    canonical_word,
    format_word,
    heap_state,
    is_reduced_fc,
    iter_commutation_class,
    parse_word,
    same_element,
)

from oracles import (
    all_reduced_expressions,
    braid_order,
    closing_scan,
    commutation_class,
    contains_pattern,
    contains_rigid,
    exhaustive_words,
    gap_fold,
    gap_reading,
    grown_fc_word,
    heap_witness,
    loop_reduce,
    reach_masks,
)

TL, TB, SB = AlgebraLevel


# ---------------------------------------------------------------------------
# independent oracle: exhaustive closure under commutation AND braid rewrites


def oracle_contains(n, word, pattern):
    patterns = all_reduced_expressions(n, pattern)
    k = len(pattern)
    if k == 0:
        return True
    for member in all_reduced_expressions(n, word):
        for p in range(len(member) - k + 1):
            if member[p : p + k] in patterns:
                return True
    return False


def random_words(seed, count, max_n=4, max_len=12):
    rng = random.Random(seed)
    out = []
    while len(out) < count:
        n = rng.randint(1, max_n)
        length = rng.randint(0, max_len)
        out.append((n, tuple(rng.randint(0, n) for _ in range(length))))
    return out


# ---------------------------------------------------------------------------
# stated examples


@pytest.mark.parametrize(
    "n,i,j,expected",
    [(5, 0, 1, 4), (5, 2, 3, 3), (5, 1, 4, 2), (5, 4, 5, 4), (1, 0, 1, 4)],
)
def test_braid_order(n, i, j, expected):
    assert braid_order(n, i, j) == expected


def test_braid_order_rejects_equal_indices():
    with pytest.raises(ValueError):
        braid_order(3, 2, 2)


def test_commutation_class_examples():
    assert commutation_class(3, (0, 2)) == {(0, 2), (2, 0)}
    assert commutation_class(2, ()) == {()}
    assert commutation_class(4, (1, 3, 2)) == {(1, 3, 2), (3, 1, 2)}


def _reference_iter_commutation_class(n, word):
    """Eager BFS: each member is yielded when it leaves the queue."""
    word = words.check_word(n, word)
    seen = {word}
    queue = deque([word])
    while queue:
        current = queue.popleft()
        yield current
        for other in words._swap_neighbours(current):
            if other not in seen:
                seen.add(other)
                queue.append(other)


def test_class_walk_order_matches_eager_bfs_exhaustive():
    for n in (1, 2, 3):
        for word in exhaustive_words(n, 7):
            assert list(iter_commutation_class(n, word)) == list(
                _reference_iter_commutation_class(n, word)
            ), (n, word)


def test_class_walk_order_matches_eager_bfs_rank_eight():
    rng = random.Random(61)
    for _ in range(20):
        word = tuple(rng.randint(0, 8) for _ in range(rng.randint(12, 20)))
        lazy = list(itertools.islice(iter_commutation_class(8, word), 5_000))
        eager = list(itertools.islice(_reference_iter_commutation_class(8, word), 5_000))
        assert lazy == eager, word


@pytest.mark.parametrize(
    "n,word,expected",
    [
        (2, (1, 0, 1), True),
        (2, (1, 0, 1, 0), False),
        (4, (2, 2), False),
        (3, (1, 2, 1), False),
        (2, (1, 2, 1), True),
        (2, (0, 1, 0, 1, 0), False),
    ],
)
def test_is_reduced_fc(n, word, expected):
    assert is_reduced_fc(n, word) is expected


def _reference_is_reduced_fc(n, word):
    """The reach-mask test: each forbidden factor matched as a rigid chain."""
    reach = reach_masks(word)
    present = set(word)
    for a in present:
        if word.count(a) >= 2 and contains_rigid(word, (a, a), reach):
            return False
    for a in range(n):
        b = a + 1
        if a not in present or b not in present:
            continue
        if braid_order(n, a, b) == 3:
            candidates = ((a, b, a), (b, a, b))
        else:
            candidates = ((a, b, a, b), (b, a, b, a))
        for pattern in candidates:
            if contains_rigid(word, pattern, reach):
                return False
    return True


def _reference_heap_state(n, word):
    if not _reference_is_reduced_fc(n, word):
        return HeapState.NOT_REDUCED_FC
    if contains_rigid(word, (1, 0, 1)):
        return HeapState.LEFT_TRIPLE
    if contains_rigid(word, (n - 1, n, n - 1)):
        return HeapState.RIGHT_TRIPLE
    return HeapState.POSITIVE


def _grown_fc_words(seed, count, max_n, max_len):
    """Reduced FC words grown a letter at a time at either end."""
    rng = random.Random(seed)
    out = []
    for _ in range(count):
        n = rng.randint(1, max_n)
        word = ()
        for _ in range(rng.randint(0, max_len)):
            x = rng.randint(0, n)
            grown = word + (x,) if rng.random() < 0.5 else (x,) + word
            if _reference_is_reduced_fc(n, grown):
                word = grown
        out.append((n, word))
    return out


def _high_rank_words(seed, count):
    """
    Words at ranks 16-256 from 50-400 random letters: half the letters
    themselves, half a reduced FC word grown by them from nothing or from
    a boundary triple (it keeps 30-230 of them), so that every state
    occurs.
    """
    rng = random.Random(seed)
    out = []
    for i in range(count):
        n = rng.choice((16, 32, 64, 128, 256))
        length = rng.randint(50, 400)
        if i % 2 == 0:
            out.append((n, tuple(rng.randint(0, n) for _ in range(length))))
        else:
            start = ((), (1, 0, 1), (n - 1, n, n - 1))[i // 2 % 3]
            out.append((n, grown_fc_word(rng, n, length, start)))
    return out


def test_heap_state_matches_reach_mask_reference():
    cases = random_words(seed=41, count=4_000, max_n=12, max_len=30)
    cases += _grown_fc_words(seed=43, count=1_500, max_n=12, max_len=40)
    states = set()
    for n, word in cases:
        state = heap_state(n, word)
        assert state == _reference_heap_state(n, word), (n, word)
        assert is_reduced_fc(n, word) == (state != HeapState.NOT_REDUCED_FC)
        states.add(state)
    assert states == set(HeapState)
    # past rank 12 and 40 letters
    states = set()
    for n, word in _high_rank_words(seed=47, count=120):
        state = heap_state(n, word)
        assert state == _reference_heap_state(n, word), (n, word)
        states.add(state)
    assert states == set(HeapState)


def test_heap_state_matches_reference_exhaustive():
    for n, max_len in ((1, 8), (2, 8), (3, 7), (4, 6)):
        for word in exhaustive_words(n, max_len):
            assert heap_state(n, word) == _reference_heap_state(n, word), (n, word)


def _pieces(word):
    """
    Each position as (letter, occurrences of it before): commuting swaps
    never exchange equal letters, so this names the same heap piece in
    every member of the class.
    """
    before = {}
    out = []
    for a in word:
        out.append((a, before.get(a, 0)))
        before[a] = before.get(a, 0) + 1
    return out


def test_heap_witness_is_a_factor_of_some_member_exhaustive():
    # the witness of oracles.heap_witness spells a chain ss, sts (bond 3) or
    # stst (bond 4), or the winning boundary triple, and some member holds
    # those very pieces side by side, so the kernel can rewrite them
    assert heap_witness(3, (2, 0, 3, 2)) == (HeapState.RIGHT_TRIPLE, (0, 2, 3))
    assert heap_witness(4, (0, 1, 3, 0, 4, 1, 0)) == (HeapState.NOT_REDUCED_FC, (0, 1, 3, 5))
    witnessed = 0
    for n, max_len in ((1, 8), (2, 7), (3, 6), (4, 5)):
        pairs = [(a, b) for a in range(n + 1) for b in range(n + 1) if abs(a - b) == 1]
        spelled = {
            HeapState.NOT_REDUCED_FC: {(a, a) for a in range(n + 1)}
            | {(a, b, a) for a, b in pairs if braid_order(n, a, b) == 3}
            | {(b, a, b, a) for a, b in pairs if braid_order(n, a, b) == 4},
            HeapState.LEFT_TRIPLE: {(1, 0, 1)},
            HeapState.RIGHT_TRIPLE: {(n - 1, n, n - 1)},
            HeapState.POSITIVE: {()},
        }
        for word in exhaustive_words(n, max_len):
            state, witness = heap_witness(n, word)
            assert state == heap_state(n, word)
            assert list(witness) == sorted(witness)
            assert tuple(word[p] for p in witness) in spelled[state], (n, word)
            if not witness:
                continue
            pieces = [_pieces(word)[p] for p in witness]
            assert any(
                pieces == occ[occ.index(pieces[0]) :][: len(pieces)]
                for occ in map(_pieces, commutation_class(n, word))
            ), (n, word, witness)
            witnessed += 1
    assert witnessed == 12_270


def test_scan_matches_the_gap_counters_exhaustive():
    # every word at rank 1 up to 12 letters, rank 2 up to 8, rank 3 up to 7
    # and rank 4 up to 6: the scan, which reads a repeated letter's gap off
    # its neighbours' last positions, gives the state of the reading on
    # per-letter gap counters (`oracles.gap_reading`), and its `last` and
    # `prev` where the reading is whole; the fold of `reduce_word` at TL and
    # 2B gives the monomial and the word in read order of the fold on those
    # counters (`oracles.gap_fold`)
    states = Counter()
    for n, max_len in ((1, 12), (2, 8), (3, 7), (4, 6)):
        tables = [algebra._rule_steps(level, n) for level in (TL, TB)]
        for word in exhaustive_words(n, max_len):
            state, last, prev = words._heap_reading(n, word)
            expected, _, want_last, want_prev = gap_reading(n, word)
            assert state == expected, (n, word)
            if state != HeapState.NOT_REDUCED_FC:
                assert (last, prev) == (want_last, want_prev), (n, word)
            for steps in tables:
                assert words._fold(n, word, steps) == gap_fold(n, word, steps), (n, word, steps)
            states[state] += 1
    assert states == {
        HeapState.NOT_REDUCED_FC: 57_328,
        HeapState.LEFT_TRIPLE: 230,
        HeapState.RIGHT_TRIPLE: 190,
        HeapState.POSITIVE: 1_660,
    }


def test_canonical_word_examples():
    assert canonical_word(4, (3, 1, 2)) == (1, 3, 2)
    assert canonical_word(2, ()) == ()
    assert canonical_word(3, (0, 2, 1)) == (0, 2, 1)


def test_canonical_word_matches_class_minimum():
    for n, word in random_words(seed=11, count=150, max_n=4, max_len=9):
        assert canonical_word(n, word) == min(commutation_class(n, word))


def test_canonical_word_is_class_minimum_exhaustive():
    checked = 0
    for n, max_len in ((1, 7), (2, 7), (3, 7), (4, 6)):
        for word in exhaustive_words(n, max_len):
            assert canonical_word(n, word) == min(commutation_class(n, word))
            checked += 1
    assert checked == 44_911


def _rescan_canonical_word(n, word):
    """Greedy rescan: the smallest letter whose first occurrence has no
    non-commuting letter before it, removed and repeated."""
    remaining = list(word)
    out = []
    while remaining:
        best = None
        for idx, a in enumerate(remaining):
            if best is not None and remaining[best] <= a:
                continue
            if all(abs(a - b) > 1 for b in remaining[:idx]):
                best = idx
        out.append(remaining.pop(best))
    return tuple(out)


def test_canonical_word_matches_reference_greedy():
    for n, word in random_words(seed=37, count=2_000, max_n=16, max_len=60):
        assert canonical_word(n, word) == _rescan_canonical_word(n, word)


def _reference_canonical_word(n, word):
    """The full rescan of the heads: every letter from the smallest up at
    each step, O(len(word) * n)."""
    word = words.check_word(n, word)
    heads, following = words._heads(n, word)
    out = []
    letters = range(1, n + 2)
    for _ in range(len(word)):
        for a in letters:
            head = heads[a]
            if head < heads[a - 1] and head < heads[a + 1]:
                break
        out.append(a - 1)
        heads[a] = following[head]
    return tuple(out)


def _drifting_words(seed, count, max_n, max_len):
    """Words whose letters wander by -1, 0 or +1, so their heaps are deep."""
    rng = random.Random(seed)
    out = []
    for _ in range(count):
        n = rng.randint(1, max_n)
        a, word = rng.randint(0, n), []
        for _ in range(rng.randint(0, max_len)):
            a = min(max(a + rng.randint(-1, 1), 0), n)
            word.append(a)
        out.append((n, tuple(word)))
    return out


def test_canonical_word_matches_full_rescan_exhaustive():
    checked = 0
    for n in (1, 2, 3, 4):
        for word in exhaustive_words(n, 7):
            assert canonical_word(n, word) == _reference_canonical_word(n, word)
            checked += 1
    assert checked == 123_036


def test_canonical_word_matches_full_rescan_random():
    cases = random_words(seed=47, count=60, max_n=300, max_len=500)
    cases += _drifting_words(seed=53, count=60, max_n=300, max_len=500)
    for n, word in cases:
        assert canonical_word(n, word) == _reference_canonical_word(n, word), n


def test_canonical_word_scales_to_long_words():
    rng = random.Random(43)
    word = tuple(rng.randint(0, 50) for _ in range(2_000))
    start = time.perf_counter()
    canon = canonical_word(50, word)
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0, f"{elapsed:.2f}s for a length-2000 word at rank 50"
    assert sorted(canon) == sorted(word)
    assert same_element(50, word, canon)


def test_canonical_word_budget_rank_2000():
    # O(len(word) + n): the full rescan of every letter takes about a second
    rng = random.Random(59)
    word = tuple(rng.randint(0, 2_000) for _ in range(20_000))
    start = time.perf_counter()
    canon = canonical_word(2_000, word)
    elapsed = time.perf_counter() - start
    assert elapsed < 0.25, f"{elapsed:.3f}s for a length-20000 word at rank 2000"
    assert sorted(canon) == sorted(word)


def test_canonical_append_matches_canonical_word_on_every_row_slot():
    # every slot of the blob action rows at ranks 1-6: a basis word, which
    # is canonical, times one generator; g inserted at `_closing_gap`'s
    # insertion point gives the product's least class member
    slots = 0
    for n in range(1, 7):
        for b in sb_basis(n):
            for g in range(n + 1):
                _, at, _ = words._closing_gap(n, b, g)
                assert b[:at] + (g,) + b[at:] == words._canonical_word(n, b + (g,)), (n, b, g)
                slots += 1
    assert slots == 50_882


def test_canonical_append_matches_canonical_word_random():
    # canonical words at ranks 2-256, random and drifting (deep heaps), each
    # with the end letters, its own last letter and one random letter
    rng = random.Random(67)
    cases = random_words(seed=71, count=1_500, max_n=256, max_len=200)
    cases += _drifting_words(seed=73, count=1_500, max_n=256, max_len=200)
    checked = 0
    for n, word in cases:
        if n < 2:
            continue
        word = canonical_word(n, word)
        for g in {0, n, rng.randint(0, n), *word[-1:]}:
            _, at, _ = words._closing_gap(n, word, g)
            assert word[:at] + (g,) + word[at:] == canonical_word(n, word + (g,)), (n, word, g)
            checked += 1
    assert checked > 9_000


def test_appends_square_on_every_row_slot():
    # every slot of the blob action rows at ranks 1-6: the gap is 0 exactly
    # where the whole product rewrites to the square's scalar times the
    # basis word itself, by one-step rewrites (`oracles.loop_reduce`) at
    # ranks 1-5 and by the heap-scan loop, which reads no gap, at rank 6
    squares = 0
    for n in range(1, 7):
        scalars = {rule.pattern: rule.scalar for rule in rewrite_rules(SB, n)}
        for b in sb_basis(n):
            for g in range(n + 1):
                if n < 6:
                    reduced = loop_reduce(SB, n, b + (g,))
                else:
                    exps, word = algebra._blob_loop(n, b + (g,))
                    reduced = (algebra._unpacked(exps), word)
                square = words._closing_gap(n, b, g)[0] == 0
                assert square == (reduced == (scalars[g, g], b)), (n, b, g)
                squares += square
    assert squares == 15_845


def _closing_kind(n, word, g):
    """
    `words._closing_gap` of g after `word`, checked against the left-to-right
    heap reading (`oracles.closing_scan`): the same gap, and the same
    closure, its pattern and q, the witness position where the rule's kept
    prefix ends.  Returns the gap and the closure's kind, or None.
    """
    gap, _, closure = words._closing_gap(n, word, g)
    expected, hit = closing_scan(n, word, g)
    assert gap == expected, (n, word, g)
    if hit is None:
        assert closure is None, (n, word, g)
        return gap, None
    witness, pattern, triple = hit
    keep = algebra._rule_steps(AlgebraLevel.SYMPLECTIC_BLOB, n)[pattern][0]
    assert closure == (pattern, witness[keep]), (n, word, g)
    return gap, "triple" if triple else {2: "ss", 3: "sts", 4: "stst"}[len(pattern)]


def test_closing_gap_matches_the_heap_on_every_row_slot():
    # every slot of the blob action rows at ranks 1-6: the gap and the
    # closure are the ones the left-to-right heap reading has for g after
    # the basis word; at 0 g closes the square g g, at 2 nothing, and the
    # product is positive exactly where g closes nothing.  The key w[:q]
    # of the row a closing fill folds the tail through is a canonical basis
    # word
    kinds = Counter()
    for n in range(1, 7):
        for b in sb_basis(n):
            for g in range(n + 1):
                gap, kind = _closing_kind(n, b, g)
                assert (gap == 0) == (kind == "ss"), (n, b, g)
                assert gap < 2 or kind is None, (n, b, g)
                positive = heap_state(n, b + (g,)) == HeapState.POSITIVE
                assert positive == (kind is None), (n, b, g)
                if kind is not None:
                    key = b[: words._closing_gap(n, b, g)[2][1]]
                    assert canonical_word(n, key) == key, (n, b, g)
                    assert algebra.in_index_set(AlgebraLevel.SYMPLECTIC_BLOB, n, key), (n, b, g)
                kinds[gap, kind] += 1
    assert kinds == {
        (0, "ss"): 15_845,
        (1, "sts"): 13_828,
        (1, "stst"): 2_958,
        (1, "triple"): 702,
        (1, None): 5_410,
        (2, None): 12_139,
    }


def test_closing_gap_matches_the_heap_random():
    # canonical words at ranks 2-256, random and drifting (deep heaps), each
    # with the end letters, its own last letter and one random letter, as
    # for the insertion test above; the words may hold chains, which the
    # scan reads as the heap reading does
    rng = random.Random(79)
    cases = random_words(seed=83, count=1_500, max_n=256, max_len=200)
    cases += _drifting_words(seed=89, count=1_500, max_n=256, max_len=200)
    gaps, kinds = [0, 0, 0], Counter()
    for n, word in cases:
        if n < 2:
            continue
        word = canonical_word(n, word)
        for g in {0, n, rng.randint(0, n), *word[-1:]}:
            gap, kind = _closing_kind(n, word, g)
            assert (gap == 0) == (kind == "ss"), (n, word, g)
            gaps[gap] += 1
            kinds[kind] += 1
    assert sum(gaps) > 9_000 and min(gaps) > 500, gaps
    assert set(kinds) == {None, "ss", "sts", "stst", "triple"} and kinds["stst"] > 50, kinds


@pytest.mark.parametrize("word", [(2.0, 0, 1), (0, "1"), (None,), (0, True)])
def test_canonical_word_rejects_non_integer_letters(word):
    with pytest.raises(ValueError):
        canonical_word(3, word)


def test_same_element_matches_class_membership():
    rng = random.Random(13)
    for n, word in random_words(seed=17, count=120, max_n=4, max_len=8):
        cls = commutation_class(n, word)
        member = rng.choice(sorted(cls))
        assert same_element(n, word, member)
        other = tuple(reversed(word))
        assert same_element(n, word, other) == (other in cls)


def test_same_element_rejects_other_letters():
    # the projections are compared only for words of one length and letters
    assert not same_element(2, (0, 1), (0,))
    assert not same_element(2, (0, 1), (0, 2))
    assert not same_element(2, (0, 1), (1, 1))


def test_contains_pattern_examples():
    assert contains_pattern(2, (1, 0, 1, 2), (1, 0, 1)) is True
    assert contains_pattern(2, (), (0,)) is False
    assert contains_pattern(3, (0, 1, 2), ()) is True
    # the grid of (2,1) sits inside the grid of this word, and the word also
    # contains (2,1): its member (1,0,2,1,3,2) shows the factor directly
    assert contains_pattern(4, (1, 2, 3, 0, 1, 2), (2, 1)) is True
    assert same_element(4, (1, 2, 3, 0, 1, 2), (1, 0, 2, 1, 3, 2))


def test_contains_pattern_reflexive():
    for n, word in random_words(seed=23, count=80, max_n=4, max_len=10):
        if is_reduced_fc(n, word):
            assert contains_pattern(n, word, word)


def test_contains_pattern_agrees_with_exhaustive_oracle():
    pattern_pool = [(1, 0, 1), (2, 1), (1, 2), (0, 1, 0), (1, 2, 1), (0, 2)]
    checked = 0
    for n, word in random_words(seed=29, count=400, max_n=4, max_len=12):
        if not is_reduced_fc(n, word):
            continue
        for pattern in pattern_pool:
            if not pattern or max(pattern) > n:
                continue
            if not is_reduced_fc(n, pattern):
                continue
            assert contains_pattern(n, word, pattern) == oracle_contains(
                n, word, pattern
            ), (n, word, pattern)
            checked += 1
    assert checked > 300


def test_class_invariance():
    for n, word in random_words(seed=31, count=60, max_n=4, max_len=8):
        reduced = is_reduced_fc(n, word)
        canon = canonical_word(n, word)
        for member in commutation_class(n, word):
            assert is_reduced_fc(n, member) == reduced
            assert canonical_word(n, member) == canon


def test_word_text_encoding():
    assert parse_word("1,0,1") == (1, 0, 1)
    assert parse_word("") == ()
    assert format_word((1, 0, 1)) == "1,0,1"
    assert format_word(()) == ""
    with pytest.raises(ValueError):
        parse_word("1,x")


def test_word_letters_are_ascii_digits():
    # surrounding whitespace and a sign are read; the underscores and
    # non-ASCII digits that int() also reads are not
    assert parse_word(" 1, +0 ,2 ") == (1, 0, 2)
    assert parse_word("-1") == (-1,)
    for text in ("1_0", "\u0661,\u0662", "1,\uff12", "\u00b2", "- 1", "+", "1,,2", "0x1", "1.0"):
        with pytest.raises(ValueError, match="malformed word"):
            parse_word(text)


# every record class: (record, its field names, its fields, its repr)
RECORDS = [
    (nf.Bracket(0, 1), "l g", (0, 1), "Bracket(l=0, g=1)"),
    (nf.LengthZero(()), "form", ((),), "LengthZero(form=())"),
    (nf.FirstType(1, 2, 3), "i k f", (1, 2, 3), "FirstType(i=1, k=2, f=3)"),
    (nf.SecondType((2,), 0, ()), "prefix k tail", ((2,), 0, ()), "SecondType(prefix=(2,), k=0, tail=())"),
    (nf.DescentTail(2), "h", (2,), "DescentTail(h=2)"),
    (nf.DescentZerosTail(3, ()), "z runs", (3, ()), "DescentZerosTail(z=3, runs=())"),
    (nf.LengthOne(3, (nf.Bracket(-1, 2),)), "i v", (3, (nf.Bracket(-1, 2),)),
     "LengthOne(i=3, v=(Bracket(l=-1, g=2),))"),
    (algebra.Rule((1, 1), (1,), algebra.D), "pattern replacement scalar", ((1, 1), (1,), algebra.D),
     "Rule(pattern=(1, 1), replacement=(1,), scalar=Scalar(d))"),
    (algebra.BasisElement(SB, 3, (2, 0)), "level n word", (SB, 3, (0, 2)),
     "BasisElement(level=<AlgebraLevel.SYMPLECTIC_BLOB: 2>, n=3, word=(0, 2))"),
    (verify.Check("x", True, "ok", 3), "name ok detail cases", ("x", True, "ok", 3),
     "Check(name='x', ok=True, detail='ok', cases=3)"),
]


@pytest.mark.parametrize("record, names, fields, text", RECORDS, ids=[type(r).__name__ for r, *_ in RECORDS])
def test_a_record_equals_only_its_own_class_and_is_frozen(record, names, fields, text):
    same = type(record)(*fields)
    assert record == same and not record != same and hash(record) == hash(same)
    assert repr(record) == text
    assert [getattr(record, name) for name in names.split()] == list(fields)
    # the plain tuple of its fields is not the record, from either side
    assert record != fields and fields != record and not record == fields
    for name in names.split():
        with pytest.raises(AttributeError):
            setattr(record, name, None)
    with pytest.raises(AttributeError):
        record.extra = None


def test_records_of_two_classes_with_equal_fields_differ():
    # fields that every record class of their length accepts
    shared = {1: ((),), 2: (3, ()), 3: (SB, 3, (0, 2))}
    length = {type(record): len(fields) for record, _, fields, _ in RECORDS}
    pairs = 0
    for a, b in itertools.permutations(length, 2):
        if length[a] == length[b] and (fields := shared.get(length[a])):
            assert a(*fields) != b(*fields) and not a(*fields) == b(*fields)
            pairs += 1
    assert pairs == 2 * (1 + 3 + 6)


def test_record_defaults_and_basis_checks():
    assert verify.Check("x", True, "ok").cases == 0
    assert algebra.BasisElement(SB, 3, (2, 0)).word == canonical_word(3, (2, 0)) == (0, 2)
    with pytest.raises(ValueError, match="does not index a basis monomial"):
        algebra.BasisElement(AlgebraLevel.TL, 2, (0, 0))
    with pytest.raises(ValueError, match="does not index a basis monomial"):
        algebra.BasisElement(AlgebraLevel.TWO_BOUNDARY, 2, (1, 0, 1))
    # the namedtuple copies go through the same checks
    element = algebra.BasisElement(SB, 3, (0, 2))
    assert element._replace(word=(2, 0)) == element
    with pytest.raises(ValueError, match="does not index a basis monomial"):
        element._replace(level=AlgebraLevel.TL, n=2, word=(0, 0))


def test_letters_validated():
    with pytest.raises(ValueError):
        words.check_word(2, (3,))
    with pytest.raises(ValueError):
        words.check_rank(0)
    with pytest.raises(ValueError):
        words.check_rank(True)  # bool subclasses int
