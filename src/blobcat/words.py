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
BFS that its caller bounds) or read the word's heap with no enumeration.
Every heap reading of the package lives here: the projection criterion,
the least and greatest class members (`_heads`), one short scan back
from the end of a canonical word (`_closing_gap`) that finds both what
one letter appended can close on it and where that letter goes in the
least member of the product, and the scan (`Scan`) that the classifier
`heap_state` and the fold `_fold` share.  The scan keeps three lists, each
letter's last position, each position's previous one of its letter, and
what a letter read again met since that one; it keeps no count of
neighbours, and reads a repeated letter's gap off its neighbours' last
two positions.  `Record`, the equality of the package's record classes,
lives here too, in the one module they all import.

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
from collections.abc import Iterator
from enum import IntEnum

Letters = tuple[int, ...]


class Record:
    """
    Equality for the package's records, classes over `collections.namedtuple`
    that put this class first among their bases: a record equals only a
    record of its own class with equal fields, never a plain tuple or a
    record of another class, and hashes as the tuple of its fields.  Each
    record class sets `__slots__ = ()`, so that no attribute can be set.
    """

    __slots__ = ()

    def __eq__(self, other: object) -> bool:
        return type(self) is type(other) and tuple.__eq__(self, other)

    def __ne__(self, other: object) -> bool:
        return not self == other

    __hash__ = tuple.__hash__


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
    word = tuple(word)  # once: a loop empties an iterator
    for x in word:
        if type(x) is not int:
            raise ValueError(f"letter {x!r} is not an integer")
        if not 0 <= x <= n:
            raise ValueError(f"letter {x} out of range 0..{n}")
    return word


def _parse_int(text: str) -> int:
    """
    The integer that text spells as optional surrounding whitespace, an
    optional sign and ASCII digits; ValueError on anything else, such as the
    underscores and non-ASCII digits that int() also reads.
    """
    digits = text.strip()
    if digits[:1] in ("+", "-"):
        digits = digits[1:]
    if not (digits.isascii() and digits.isdigit()):
        raise ValueError(f"not an integer: {text!r}")
    return int(text)


def parse_word(text: str) -> Letters:
    """Parse the comma-separated encoding; the empty string is the identity."""
    text = text.strip()
    if not text:
        return ()
    try:
        return tuple(_parse_int(part) for part in text.split(","))
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


def _closing_gap(n: int, word: Letters, g: int) -> tuple[int, int, tuple[Letters, int] | None]:
    """
    What g closes on a canonical `word`, and where g goes in the least
    member of `word + (g,)`, as (gap, at, closure), by one short scan back
    from the end with no heap.  `gap` is how many neighbours g +- 1
    follow the last g of `word`: 0, 1, or 2 for two or more and for a word
    with no g.  By Stembridge's criterion a chain ss, sts or stst, or a
    boundary triple, ends at a letter that meets its previous occurrence
    with fewer than two neighbours since (`scan_closure`), so on a positive
    `word` only g can close one in `word + (g,)`, and only at a gap below 2.

    `closure` is what `scan_closure` reports there, as (pattern, q), or
    None: q is `witness[keep]`, where a rule that keeps `keep` letters of
    the pattern restarts the fold, and every rule here drops the letters
    at q and at the end.  At gap 0 the last letter x of `word` with
    |x - g| <= 1 is g itself: g commutes with every letter after it, the
    pattern is the square g g and q is the end.  At gap 1 x is g's one
    neighbour b after its last g at p, and q is x's position; the pattern
    is sts = g b g when g and b are both inner letters; else, at a bond-4
    pair, stst = b g b g when b occurs before p with that g as its only
    neighbour since, which the scan reads on past p for, up to b's
    previous occurrence; else the boundary triple g b g when b is 0 or n;
    else g closes nothing.  At gap 2 it closes nothing.

    `word[:at] + (g,) + word[at:]` is `_canonical_word(n, word + (g,))`.
    The least member is the greedy reading of the heap (Anisimov and Knuth
    1979), and that of `word + (g,)` takes the letters of `word` in order
    until g turns minimal, after its last non-commuting predecessor, that
    same last x with |x - g| <= 1; from there it takes g before the first
    larger letter, since g commutes with all that follow.  So `at` is the
    first letter past x that exceeds g, or the end, and is fixed once the
    scan meets x; past x it looks only for the next g or neighbour, and
    for b's other neighbour b + b - g, which the stst test counts.
    """
    at = pos = len(word)
    letters = reversed(word)
    for x in letters:
        if -2 < x - g < 2:
            break
        pos -= 1
        if x > g:
            at = pos
    else:
        return 2, at, None
    if x == g:
        return 0, at, ((g, g), len(word))
    b, q = x, pos - 1
    other = b + b - g
    lone = True  # b's other neighbour does not lie between p and q
    for x in letters:
        if -2 < x - g < 2:
            break
        if x == other:
            lone = False
    else:
        return 2, at, None
    if x != g:
        return 2, at, None
    if 0 < g < n and 0 < b < n:
        return 1, at, ((g, b, g), q)
    if lone:
        for x in letters:
            if x == b:
                return 1, at, ((b, g, b, g), q)
            if x == g or x == other:
                break
    if b == 0 or b == n:
        return 1, at, ((g, b, g), q)
    return 1, at, None


def _normal_word(n: int, word: Letters) -> Letters:
    """
    The lexicographically greatest member of the commutation class, the
    mirror of `_canonical_word`, for a word known to be valid: each step
    takes the largest minimal letter (see `_heads`).  Taking a moves only
    `heads[a]`, so no letter above a + 1 can have turned minimal and the
    next scan starts at a + 1, or at n, and goes down: O(len(word) + n) per
    word.
    """
    heads, following = _heads(n, word)
    out = []
    a = n
    for _ in range(len(word)):
        if a <= n:
            a += 1
        head = heads[a]
        while not (head < heads[a - 1] and head < heads[a + 1]):
            a -= 1
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


# the members bound once: a module global reads faster than a class attribute
_NOT_REDUCED_FC, _LEFT_TRIPLE, _RIGHT_TRIPLE, _POSITIVE = HeapState


# A left-to-right heap reading's state, lists (last, prev, closed) that its
# readers build, `scan_closure` reads and `scan_drop` unwinds.  Of the
# letters read, in which it met no chain: per letter its latest position
# (`last`, -1 for none); per position the previous one of its letter
# (`prev`, -1 for none) and, where there is one, the gap it closed
# (`closed`, written only then: `scan_closure` reads `closed[q]` only where
# `prev[q]` is not -1, so a slot that the fold reads again shows no stale
# value).  The gap of a letter a read again at pos
# is how many neighbours a +- 1 lie between p = last[a] and pos: 0, 1, or
# 2 for two or more.  Each reader reads it off the neighbours' last
# positions q = last[a - 1] and r = last[a + 1] with no count kept: a
# neighbour last seen after p counts once, twice if its `prev` is after p
# too.  At gap 1 the one neighbour b is whichever of q and r is after p.
# Slot n + 1, also -1, takes the neighbours a - 1 of 0 and a + 1 of n,
# which never occur.
Scan = tuple[list[int], list[int], list[int]]


def scan_closure(
    n: int, scan: Scan, a: int, pos: int, gap: int, q: int, b: int
) -> tuple[Letters, Letters, bool] | None:
    """
    The one chain test of the heap reading: what the letter a at `pos`
    closes when it meets its previous occurrence p = `last[a]` with `gap`
    neighbours since, fewer than two, the only place where its callers,
    `heap_state` and `_fold`, call it; at gap 1 the one neighbour is b, at
    position q (`Scan`).  A chain ss, sts or stst, or a boundary triple, as
    (witness, pattern, triple): the witness is the positions of the
    closure in increasing order, ending at `pos`, the pattern their
    letters, and `triple` whether it is a boundary triple rather than a
    chain.  None if the letter closes nothing.

    Some class member holds the witness's letters as a factor, which is
    what lets `_fold` rewrite them where they close: every letter
    strictly between its positions commutes with the letters that move.
    Between the two a's of ss, sts or a triple lies no a and no neighbour
    of a but b, so the first a moves right up to b (or to the second a)
    and the second a moves left up to b.  In stst = b a b a, b's gap
    between its two occurrences holds no b and no neighbour of b but the
    first a, and a's gap no a and no neighbour of a but the second b: the
    first b moves right up to the first a, the second b moves left up to
    it, and the second a moves left up to the second b.
    """
    last, prev, closed = scan
    p = last[a]
    if gap == 0:
        return (p, pos), (a, a), False
    # bond 3 (no end letter in the pair), or bond 4 closing b a b a: b's own
    # gap before q held nothing but the a at p
    if 0 < a < n and 0 < b < n:
        return (p, q, pos), (a, b, a), False
    if 0 <= prev[q] < p and closed[q] == 1:
        return (prev[q], p, q, pos), (b, a, b, a), False
    if b == 0 or b == n:
        return (p, q, pos), (a, b, a), True
    return None


def scan_drop(word: list[int], start: int, stop: int, scan: Scan) -> None:
    """Unread the letters of `word` at positions `start` to `stop` - 1, each
    in O(1): the last one first, each letter's `last` back to its `prev`."""
    last, prev = scan[0], scan[1]
    for pos in range(stop - 1, start - 1, -1):
        last[word[pos]] = prev[pos]


def heap_state(n: int, word: Letters) -> HeapState:
    """
    Classify a word in one left-to-right reading of its heap (`Scan`),
    each letter in O(1): O(len(word) + n).  By Stembridge
    (1996) a word is reduced and fully commutative iff its heap has no
    convex chain ss, sts (bond 3) or stst (bond 4).  Such chains end at
    the second of two consecutive occurrences of a letter a with no
    neighbour a +- 1 between them (ss) or exactly one, b: with bond 3 that
    is sts; with bond 4 it is stst when b's own previous gap held nothing
    but that first a, else the triple a, b, a: the left boundary triple
    1,0,1 when b == 0, the right one n-1,n,n-1 (0,1,0 at rank 1) when b ==
    n (`scan_closure`).  The reading stops at the first chain,
    NOT_REDUCED_FC, and reads on past a triple.  The left one wins: a heap
    with both is LEFT_TRIPLE.

    >>> heap_state(3, (1, 0, 1)).name
    'LEFT_TRIPLE'
    >>> heap_state(3, (2, 3, 2)).name
    'RIGHT_TRIPLE'
    >>> heap_state(3, (2, 3, 2, 1, 0, 1)).name
    'LEFT_TRIPLE'
    """
    return _heap_reading(n, word)[0]


def _heap_reading(n: int, word: Letters) -> tuple[HeapState, list[int], list[int]]:
    """
    `heap_state` with the reading's `last` and `prev` lists (`Scan`), which
    `_columns` reads the heap's columns off; they are whole only when the
    reading ran to the end, not at NOT_REDUCED_FC.  A letter's gap is read
    only when it repeats, and only a gap below 2 is handed to
    `scan_closure`.
    """
    word = check_word(n, word)
    state = _POSITIVE
    scan = last, prev, closed = [-1] * (n + 2), [-1] * len(word), [0] * len(word)
    for pos, a in enumerate(word):
        p = last[a]
        if p >= 0:
            q, r = last[a - 1], last[a + 1]
            if q > p:
                gap, b = (2 if r > p or prev[q] > p else 1), a - 1
            elif r > p:
                gap, q, b = (2 if prev[r] > p else 1), r, a + 1
            else:
                gap, b = 0, a
            if gap < 2 and (hit := scan_closure(n, scan, a, pos, gap, q, b)):
                _, pattern, triple = hit
                if not triple:
                    return _NOT_REDUCED_FC, last, prev
                if pattern[1] == 0:
                    state = _LEFT_TRIPLE
                elif state == _POSITIVE:
                    state = _RIGHT_TRIPLE
            closed[pos] = gap
        prev[pos] = p
        last[a] = pos
    return state, last, prev


# The columns of a positive heap, as (low, count): the cells of column j,
# its letters j, fill count[j] consecutive rows of the rigid-block grid
# from row low[j], rows counted from any fixed one (`grids`).  An empty
# column has count 0, and the lows past it are not aligned with those
# before; such an element is blobbed whatever they are.
Columns = tuple[list[int], list[int]]


def _columns(n: int, last: list[int], prev: list[int]) -> Columns:
    """
    The columns of a positive heap off the `last` and `prev` lists of a
    whole reading of one of its words (`_heap_reading`).  Following each
    letter's `prev` chain back from its last position counts it and finds
    its first: O(len(word) + n).

    The k-th j of any word of the element lies in row low[j] + k - 1, and
    the blocks' left ends strictly decrease above 0, so column j + 1 starts
    one row above column j when the word's first j + 1 comes before its
    first j, and in the same row otherwise.

    >>> _columns(3, *_heap_reading(3, (0, 1, 3, 2))[1:])
    ([0, 0, 0, -1], [1, 1, 1, 1])
    """
    low, count = [0] * (n + 1), [0] * (n + 1)
    row, before = 0, -1
    for j in range(n + 1):
        p, c = last[j], 0
        while p >= 0:
            first, c, p = p, c + 1, prev[p]
        if c:
            if first < before:
                row -= 1
            before = first
        low[j], count[j] = row, c
    return low, count


def _word_columns(n: int, word: Letters) -> Columns:
    """`_columns` of a positive word known to be valid, with no heap reading:
    one pass over its letters lists each one's previous position."""
    last, prev = [-1] * (n + 1), [-1] * len(word)
    for pos, a in enumerate(word):
        prev[pos], last[a] = last[a], pos
    return _columns(n, last, prev)


def is_reduced_fc(n: int, word: Letters) -> bool:
    """True iff `word` is a reduced expression of a fully commutative element."""
    return _heap_reading(n, word)[0] != _NOT_REDUCED_FC


def _fold(n: int, word: Letters, steps: dict[Letters, tuple[int, int]]) -> tuple[int, Letters]:
    """
    A valid word reduced by the rule table `steps` (`algebra._rule_steps`),
    as (packed monomial, word in read order): `algebra.reduce_word` at TL
    and 2B, and the first step of `algebra._blob_loop`.  One reading loop
    takes letters from the end of `pending`, the word reversed, and reads
    them onto `read` while they close nothing, or a boundary triple that
    `steps` lacks (all at TL).  A letter read costs three list writes, and
    one more when it repeats; its gap is read off its neighbours' last
    positions (`Scan`) only then.  A letter that closes a chain or a
    triple in `steps` (`scan_closure`) is rewritten where it closes: the
    rule keeps a prefix of the closure, so the closing letter goes, and for
    sts, stst and the triples so does the piece before it; the loop unreads
    back to that piece (`scan_drop`, which restores `last` alone), puts
    what followed it back on `pending` and reads on.  `read` and the
    position lists have `len(word)` slots, which no rewrite outgrows.  The
    word read is a basis index when `pending` runs out, a positive word at
    the blob level; its caller canonicalises it once, where the reduction
    ends.
    """
    scan = last, prev, closed = [-1] * (n + 2), [-1] * len(word), [0] * len(word)
    read = [0] * len(word)
    pending = list(reversed(word))
    pop = pending.pop
    top, exps = 0, 0
    while pending:
        a = pop()
        p = last[a]
        if p >= 0:
            q, r = last[a - 1], last[a + 1]
            if q > p:
                gap, b = (2 if r > p or prev[q] > p else 1), a - 1
            elif r > p:
                gap, q, b = (2 if prev[r] > p else 1), r, a + 1
            else:
                gap, b = 0, a
            if gap < 2 and (hit := scan_closure(n, scan, a, top, gap, q, b)):
                witness, pattern, triple = hit
                if not triple or pattern in steps:
                    keep, step = steps[pattern]
                    exps += step
                    start = witness[keep]
                    if start < top:
                        scan_drop(read, start, top, scan)
                        pending += read[top - 1 : start : -1]
                    top = start
                    continue
            closed[top] = gap
        read[top] = a
        prev[top] = p
        last[a] = top
        top += 1
    return exps, tuple(read[:top])
