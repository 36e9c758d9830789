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
cap) or exploit the projection criterion / greedy linearisation, which need
no enumeration.

>>> canonical_word(4, (3, 1, 2))
(1, 3, 2)
>>> is_reduced_fc(2, (1, 0, 1))
True
>>> is_reduced_fc(2, (1, 0, 1, 0))
False
"""

from __future__ import annotations

from collections import deque
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


def commutes(n: int, i: int, j: int) -> bool:
    """True iff the generators with indices i and j commute."""
    check_rank(n)
    if not (0 <= i <= n and 0 <= j <= n):
        raise ValueError(f"indices {i}, {j} out of range 0..{n}")
    return abs(i - j) > 1


def braid_order(n: int, i: int, j: int) -> int:
    """Bond of the diagram edge {i, j}: 2, 3, or 4."""
    check_rank(n)
    if i == j:
        raise ValueError("braid_order needs two distinct indices")
    if not (0 <= i <= n and 0 <= j <= n):
        raise ValueError(f"indices {i}, {j} out of range 0..{n}")
    if abs(i - j) > 1:
        return 2
    if {i, j} == {0, 1} or {i, j} == {n - 1, n}:
        return 4
    return 3


def _swap_neighbours(n: int, word: Letters) -> Iterator[Letters]:
    for p in range(len(word) - 1):
        if abs(word[p] - word[p + 1]) > 1:
            yield word[:p] + (word[p + 1], word[p]) + word[p + 2 :]


def iter_commutation_class(
    n: int, word: Letters, cap: int = DEFAULT_CLASS_CAP
) -> Iterator[Letters]:
    """Yield the class members in BFS order from `word` (deduplicated)."""
    word = check_word(n, word)
    seen = {word}
    queue = deque([word])
    while queue:
        current = queue.popleft()
        yield current
        for other in _swap_neighbours(n, current):
            if other not in seen:
                if len(seen) >= cap:
                    raise ClassSizeError(
                        f"commutation class of {word} exceeds cap {cap}"
                    )
                seen.add(other)
                queue.append(other)


def commutation_class(
    n: int, word: Letters, cap: int = DEFAULT_CLASS_CAP
) -> frozenset[Letters]:
    """The full set of words reachable by swaps of adjacent commuting letters."""
    return frozenset(iter_commutation_class(n, word, cap))


def canonical_word(n: int, word: Letters) -> Letters:
    """
    The lexicographically least member of the commutation class.

    Computed greedily without enumerating the class: at each step the letters
    that can be commuted to the front are those whose first occurrence is not
    preceded by a non-commuting letter, and taking the smallest of them is
    optimal.
    """
    word = check_word(n, word)
    remaining = list(word)
    out: list[int] = []
    while remaining:
        best = None
        for idx, a in enumerate(remaining):
            if best is not None and remaining[best] <= a:
                continue
            if all(abs(a - b) > 1 for b in remaining[:idx]):
                best = idx
        assert best is not None  # index 0 always qualifies
        out.append(remaining.pop(best))
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


def _forbidden_factor(n: int, word: Letters) -> bool:
    """A repeated letter, a bond-3 factor aba, or a bond-4 factor abab."""
    for p in range(len(word) - 1):
        a, b = word[p], word[p + 1]
        if a == b:
            return True
        if abs(a - b) > 1:
            continue
        if p + 2 < len(word) and word[p + 2] == a:
            if braid_order(n, a, b) == 3:
                return True
            if p + 3 < len(word) and word[p + 3] == b:
                return True
    return False


def is_reduced_fc(n: int, word: Letters) -> bool:
    """
    True iff `word` is a reduced expression of a fully commutative element:
    no member of its commutation class contains ss, a bond-3 factor sts, or a
    bond-4 factor stst.  All three factor shapes are rigid, so they are
    detected on the occurrence order instead of by enumerating the class.
    """
    word = check_word(n, word)
    reach = _reach_masks(word)
    present = set(word)
    for a in present:
        if word.count(a) >= 2 and _contains_rigid(word, (a, a), reach):
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
            if _contains_rigid(word, pattern, reach):
                return False
    return True


def _reach_masks(word: Letters) -> list[int]:
    """
    Transitive closure of the occurrence order: bit v is set in reach[u] iff
    the occurrence at position v sits above the one at u in every member
    (connected by a chain of non-commuting letters, left to right).
    """
    length = len(word)
    reach = [0] * length
    for u in range(length - 1, -1, -1):
        mask = 0
        for v in range(u + 1, length):
            if abs(word[u] - word[v]) <= 1:
                mask |= (1 << v) | reach[v]
        reach[u] = mask
    return reach


def _contains_rigid(
    word: Letters, pattern: Letters, reach: list[int] | None = None
) -> bool:
    """
    Containment of a pattern whose consecutive letters never commute (its
    class is a singleton).  Such a pattern occurs contiguously in some member
    iff matching occurrences form a chain x_1 < ... < x_k in the occurrence
    order whose open interval holds nothing but x_2 .. x_{k-1}.
    """
    k = len(pattern)
    if reach is None:
        reach = _reach_masks(word)
    occurrences = [
        [p for p, letter in enumerate(word) if letter == target] for target in pattern
    ]

    def extend(chain: list[int]) -> bool:
        t = len(chain)
        if t == k:
            first, last = chain[0], chain[-1]
            inner = sum(1 << p for p in chain[1:-1])
            between = reach[first] & sum(
                1 << u for u in range(first + 1, last) if reach[u] >> last & 1
            )
            return between == inner
        for p in occurrences[t]:
            if chain and not reach[chain[-1]] >> p & 1:
                continue
            if extend(chain + [p]):
                return True
        return False

    return extend([])


def contains_pattern(
    n: int, word: Letters, pattern: Letters, cap: int = DEFAULT_CLASS_CAP
) -> bool:
    """
    True iff some reduced expression of `word` has some reduced expression of
    `pattern` as a contiguous factor.  Both inputs must be reduced-FC.

    Rigid patterns (no commuting adjacent pair, e.g. the two boundary
    patterns) dispatch to the occurrence-order test; general patterns fall
    back to enumerating the class.
    """
    word = check_word(n, word)
    pattern = check_word(n, pattern)
    k = len(pattern)
    if k == 0:
        return True
    if k > len(word):
        return False
    if all(abs(pattern[t] - pattern[t + 1]) <= 1 for t in range(k - 1)):
        return _contains_rigid(word, pattern)
    pattern_class = commutation_class(n, pattern, cap)
    for member in iter_commutation_class(n, word, cap):
        for p in range(len(member) - k + 1):
            if member[p : p + k] in pattern_class:
                return True
    return False


def affine_length(n: int, word: Letters) -> int:
    """Number of occurrences of the last generator index n."""
    word = check_word(n, word)
    return sum(1 for x in word if x == n)
