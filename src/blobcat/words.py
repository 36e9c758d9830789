"""
Generator words over the affine C diagram and their commutation combinatorics.

A word is a tuple of generator indices in `range(n+1)`.  The diagram on
indices 0..n has bond 4 on the two end pairs {0,1} and {n-1,n}, bond 3 on all
other adjacent pairs, and commuting non-adjacent pairs.  For n == 1 the two
end pairs coincide and the group is the finite dihedral one of order 8.

Everything here works up to the commutation congruence: two words are
equivalent when one can be turned into the other by swapping adjacent
commuting letters.  The equivalence class of a word is finite; the functions
below either enumerate it (the slow, oracle-grade route: a lazy, unbounded
BFS that its caller bounds) or read the word's heap (the projection
criterion, greedy linear extensions, the one-pass chain test of
`heap_reading`) with no enumeration.

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

def check_rank(n: int) -> int:
    # `type() is int`, not isinstance: bool subclasses int, and True is no rank
    if type(n) is not int or n < 1:
        raise ValueError(f"rank must be an integer >= 1, got {n!r}")
    return n


def check_affine_length(s: int) -> None:
    if type(s) is not int or s < 0:
        raise ValueError(f"affine length must be an integer >= 0, got {s!r}")


def check_word(n: int, word: Letters) -> Letters:
    check_rank(n)
    for x in word:
        if type(x) is not int:
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


def _swap_neighbours(word: Letters) -> Iterator[Letters]:
    for p in range(len(word) - 1):
        if abs(word[p] - word[p + 1]) > 1:
            yield word[:p] + (word[p + 1], word[p]) + word[p + 2 :]


def iter_commutation_class(n: int, word: Letters) -> Iterator[Letters]:
    """
    Yield the class members in BFS order from `word`, each as soon as it is
    found.  The walk is lazy and unbounded: it holds no more members than it
    has yielded, so a caller bounds it by how many it reads.  The word itself
    comes first, before the walk builds any state, so a caller that reads
    only it pays for no BFS.
    """
    word = check_word(n, word)
    yield word
    seen = {word}
    queue = deque([word])
    while queue:
        for other in _swap_neighbours(queue.popleft()):
            if other not in seen:
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


Scan = tuple[list[int], list[int], list[int], list[int]]


def new_scan(n: int, length: int) -> Scan:
    """
    The state of `heap_reading`'s pass before it reads a letter, for words
    of at most `length` letters, as plain lists (last, gap, prev, closed)
    that `scan_read` and `scan_drop` keep.  Of the letters read so far, in
    which the pass met no chain: per letter its latest position (`last`, -1
    for none) and the occurrences of its neighbours since then (`gap`); per
    position the previous one of its letter (`prev`) and the `gap` that
    position closed (`closed`).  Slot n + 1, also indexed as -1, takes the
    missing neighbours a - 1 of 0 and a + 1 of n, which never occur.
    """
    return [-1] * (n + 2), [0] * (n + 2), [-1] * length, [0] * length


def scan_read(
    n: int, word: Letters | list[int], start: int, scan: Scan, triples: list | None
) -> Letters | None:
    """
    Read `word` on from position `start`, the letters before it read
    already, each letter in O(1), until one closes a chain ss, sts or stst,
    or a boundary triple when `triples` is None; return the witness (see
    `heap_reading`), which ends at that letter, unread.  None at the end of
    the word.  A triple that does not close is read, and appended to
    `triples` as (state, witness) when it beats the latest one there, so
    that the last entry is the first triple of the winning side.  The one
    neighbour b in a gap of one is whichever of a - 1 and a + 1 came last.
    """
    last, gap, prev, closed = scan
    for pos, a in enumerate(word[start:], start):
        p = last[a]
        if p >= 0 and gap[a] < 2:
            if gap[a] == 0:
                return p, pos
            q, b = last[a - 1], a - 1
            if last[a + 1] > q:
                q, b = last[a + 1], a + 1
            # bond 3 (no end letter in the pair), or bond 4 closing b a b a:
            # b's own gap before q held nothing but the a at p
            if 0 < a < n and 0 < b < n:
                return p, q, pos
            if 0 <= prev[q] < p and closed[q] == 1:
                return prev[q], p, q, pos
            if b == 0 or b == n:
                if triples is None:
                    return p, q, pos
                state = HeapState.LEFT_TRIPLE if b == 0 else HeapState.RIGHT_TRIPLE
                if not triples or state < triples[-1][0]:
                    triples.append((state, (p, q, pos)))
        prev[pos] = p
        closed[pos] = gap[a]
        gap[a - 1] += 1
        gap[a + 1] += 1
        last[a], gap[a] = pos, 0
    return None


def scan_drop(word: list[int], start: int, stop: int, scan: Scan) -> None:
    """Unread the letters of `word` at positions `start` to `stop` - 1, each in O(1)."""
    last, gap, prev, closed = scan
    for pos in range(stop - 1, start - 1, -1):
        a = word[pos]
        gap[a - 1] -= 1
        gap[a + 1] -= 1
        last[a], gap[a] = prev[pos], closed[pos]


def heap_reading(n: int, word: Letters) -> tuple[HeapState, Letters]:
    """
    Classify a word in one left-to-right pass (`scan_read`), O(len(word) +
    n), and say where the decision fell.  By Stembridge (1996) it is
    reduced and fully commutative iff its heap has no convex chain ss, sts
    (bond 3) or stst (bond 4).  Such chains end at the second of two
    consecutive occurrences of a letter a with no neighbour a +- 1 between
    them (ss) or exactly one, b: with bond 3 that is sts; with bond 4 it is
    stst when b's own previous gap held nothing but that first a, else the
    triple a, b, a: the left boundary triple 1,0,1 when b == 0, the right
    one n-1,n,n-1 (0,1,0 at rank 1) when b == n.  The left one wins: a heap
    with both is LEFT_TRIPLE.

    The second item is the witness, as positions in increasing order: for
    a word that is not reduced FC, the first chain the pass closes; else
    the first triple of the winning side; () for a positive word.  Some
    class member holds the witness's letters as a factor, because every
    letter strictly between its positions commutes with the letters that
    move.  Between the two a's of ss, sts or a triple lies no a and no
    neighbour of a but b, so the first a moves right up to b (or to the
    second a) and the second a moves left up to b.  In stst = b a b a,
    b's gap between its two occurrences holds no b and no neighbour of b
    but the first a, and a's gap no a and no neighbour of a but the second
    b: the first b moves right up to the first a, the second b moves left
    up to it, and the second a moves left up to the second b.

    >>> heap_reading(3, (2, 0, 3, 2))
    (<HeapState.RIGHT_TRIPLE: 2>, (0, 2, 3))
    >>> heap_reading(4, (0, 1, 3, 0, 4, 1, 0))
    (<HeapState.NOT_REDUCED_FC: 0>, (0, 1, 3, 5))
    """
    word = check_word(n, word)
    triples: list[tuple[HeapState, Letters]] = []
    witness = scan_read(n, word, 0, new_scan(n, len(word)), triples)
    if witness is not None:
        return HeapState.NOT_REDUCED_FC, witness
    return triples[-1] if triples else (HeapState.POSITIVE, ())


def heap_state(n: int, word: Letters) -> HeapState:
    """
    The state of `heap_reading` alone.

    >>> heap_state(3, (1, 0, 1)).name
    'LEFT_TRIPLE'
    >>> heap_state(3, (2, 3, 2)).name
    'RIGHT_TRIPLE'
    >>> heap_state(3, (2, 3, 2, 1, 0, 1)).name
    'LEFT_TRIPLE'
    """
    return heap_reading(n, word)[0]


def is_reduced_fc(n: int, word: Letters) -> bool:
    """True iff `word` is a reduced expression of a fully commutative element."""
    return heap_state(n, word) != HeapState.NOT_REDUCED_FC
