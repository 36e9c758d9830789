"""
Generator words over the affine C diagram and their commutation combinatorics.

A word is a tuple of generator indices in `range(n+1)`.  The diagram on
indices 0..n has bond 4 on the two end pairs {0,1} and {n-1,n}, bond 3 on all
other adjacent pairs, and commuting non-adjacent pairs.  For n == 1 the two
end pairs coincide and the group is the finite dihedral one of order 8.

Everything here works up to the commutation congruence: two words are
equivalent when one can be turned into the other by swapping adjacent
commuting letters.  The equivalence class of a word is finite; the functions
below either enumerate it (the slow, oracle-grade route, guarded by a hard
cap) or read the word's heap (the projection criterion, greedy linear
extensions, the one-pass chain test of `heap_state`) with no enumeration.

>>> canonical_word(4, (3, 1, 2))
(1, 3, 2)
>>> is_reduced_fc(2, (1, 0, 1))
True
>>> is_reduced_fc(2, (1, 0, 1, 0))
False
>>> heap_state(2, (1, 0, 1)).name
'LEFT_TRIPLE'
"""

from __future__ import annotations

from collections import deque
from enum import IntEnum
from typing import Iterator

Letters = tuple[int, ...]

# Commutation classes larger than this abort with ClassSizeError instead of
# silently truncating.
DEFAULT_CLASS_CAP = 10**6


class ClassSizeError(RuntimeError):
    """A commutation class exceeded the configured enumeration cap."""


def check_rank(n: int) -> int:
    if not isinstance(n, int) or n < 1:
        raise ValueError(f"rank must be an integer >= 1, got {n!r}")
    return n


def check_word(n: int, word: Letters) -> Letters:
    check_rank(n)
    for x in word:
        if not isinstance(x, int):
            raise ValueError(f"letter {x!r} is not an integer")
        if not 0 <= x <= n:
            raise ValueError(f"letter {x} out of range 0..{n}")
    return tuple(word)


def parse_word(text: str) -> Letters:
    """Parse the comma-separated encoding; the empty string is the identity."""
    text = text.strip()
    if not text:
        return ()
    try:
        return tuple(int(part) for part in text.split(","))
    except ValueError as exc:
        raise ValueError(f"malformed word {text!r}") from exc


def format_word(word: Letters) -> str:
    return ",".join(str(x) for x in word)


def _swap_neighbours(n: int, word: Letters) -> Iterator[Letters]:
    for p in range(len(word) - 1):
        if abs(word[p] - word[p + 1]) > 1:
            yield word[:p] + (word[p + 1], word[p]) + word[p + 2 :]


def iter_commutation_class(
    n: int, word: Letters, cap: int = DEFAULT_CLASS_CAP
) -> Iterator[Letters]:
    """Yield the class members in BFS order from `word`, each as soon as it is found."""
    word = check_word(n, word)
    seen = {word}
    queue = deque([word])
    yield word
    while queue:
        for other in _swap_neighbours(n, queue.popleft()):
            if other not in seen:
                if len(seen) >= cap:
                    raise ClassSizeError(
                        f"commutation class of {word} exceeds cap {cap}"
                    )
                seen.add(other)
                queue.append(other)
                yield other


def _heads(n: int, word: Letters) -> tuple[list[int], list[int]]:
    """
    `heads[a + 1]` is the first position of letter a (`len(word)` if none;
    `heads[0]` and `heads[n + 2]` pad the ends) and `following[pos]` the next
    position of the letter at `pos`.  The first remaining a is minimal in the
    heap iff its head lies below both neighbouring heads; a reader consumes
    it by moving the head on to `following[head]`.
    """
    length = len(word)
    heads = [length] * (n + 3)
    following = [length] * length
    for pos in range(length - 1, -1, -1):
        a = word[pos] + 1
        following[pos] = heads[a]
        heads[a] = pos
    return heads, following


def canonical_word(n: int, word: Letters) -> Letters:
    """
    The lexicographically least member of the commutation class: the greedy
    linear extension of the word's heap, computed without enumerating the
    class.  Each step takes the smallest minimal letter (see `_heads`).
    Taking a moves only `heads[a]`, so no letter below a - 1 can have turned
    minimal and the next scan starts at a - 1: O(len(word) + n) per word.
    """
    return _canonical_word(n, check_word(n, word))


def _canonical_word(n: int, word: Letters) -> Letters:
    """`canonical_word` without the checks, for a word known to be valid."""
    heads, following = _heads(n, word)
    out = []
    a = 1
    for _ in range(len(word)):
        a = a - 1 or 1
        head = heads[a]
        while not (head < heads[a - 1] and head < heads[a + 1]):
            a += 1
            head = heads[a]
        out.append(a - 1)
        heads[a] = following[head]
    return tuple(out)


def same_element(n: int, left: Letters, right: Letters) -> bool:
    """
    Commutation-equivalence via the projection criterion: equal letter
    multisets and equal projections onto every non-commuting pair, i.e. onto
    the adjacent index pairs (j, j+1).
    """
    left = check_word(n, left)
    right = check_word(n, right)
    if len(left) != len(right) or sorted(left) != sorted(right):
        return False
    for j in range(n):
        pair = (j, j + 1)
        if tuple(x for x in left if x in pair) != tuple(
            x for x in right if x in pair
        ):
            return False
    return True


class HeapState(IntEnum):
    """
    The answers of `heap_state`, from worst to best.  LEFT_TRIPLE: not
    left-positive (`normal_forms.bar`'s domain); RIGHT_TRIPLE: left- but
    not right-positive (`normal_forms.tilde`'s domain); POSITIVE: both.
    """

    NOT_REDUCED_FC = 0
    LEFT_TRIPLE = 1
    RIGHT_TRIPLE = 2
    POSITIVE = 3


def heap_state(n: int, word: Letters) -> HeapState:
    """
    Classify a word in one left-to-right pass, O(len(word) + n).  By Stembridge
    (1996) it is reduced and fully commutative iff its heap has no convex
    chain ss, sts (bond 3) or stst (bond 4).  Such chains end at the second
    of two consecutive occurrences of a letter a with no neighbour a +- 1
    between them (ss) or exactly one, b: with bond 3 that is sts; with bond
    4 it is stst when b's own previous gap held nothing but that first a,
    else the triple a, b, a: the left boundary triple 1,0,1 when b == 0,
    the right one n-1,n,n-1 (0,1,0 at rank 1) when b == n.  The left one
    wins: a heap with both is LEFT_TRIPLE.

    >>> heap_state(3, (1, 0, 1)).name
    'LEFT_TRIPLE'
    >>> heap_state(3, (2, 3, 2)).name
    'RIGHT_TRIPLE'
    >>> heap_state(3, (2, 3, 2, 1, 0, 1)).name
    'LEFT_TRIPLE'
    """
    word = check_word(n, word)
    # per letter: its latest position, the neighbour occurrences since then
    # and the latest of them; slot n + 1 takes the missing neighbours of 0, n
    last, gap, gap_last = [-1] * (n + 2), [0] * (n + 2), [-1] * (n + 2)
    lone = [-1] * len(word)  # the single neighbour in the gap a position closed
    state = HeapState.POSITIVE
    for pos, a in enumerate(word):
        if last[a] >= 0:
            if gap[a] == 0:
                return HeapState.NOT_REDUCED_FC
            if gap[a] == 1:
                q = gap_last[a]
                b = word[q]
                # bond 3 (no end letter in the pair), or bond 4 closing b a b a
                if (0 < a < n and 0 < b < n) or lone[q] == last[a]:
                    return HeapState.NOT_REDUCED_FC
                if b == 0:
                    state = HeapState.LEFT_TRIPLE
                elif b == n:
                    state = min(state, HeapState.RIGHT_TRIPLE)
                lone[pos] = q
        for c in (a - 1, a + 1):
            gap[c] += 1
            gap_last[c] = pos
        last[a], gap[a] = pos, 0
    return state


def is_reduced_fc(n: int, word: Letters) -> bool:
    """True iff `word` is a reduced expression of a fully commutative element."""
    return heap_state(n, word) != HeapState.NOT_REDUCED_FC
