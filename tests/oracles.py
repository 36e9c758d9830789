"""
Reference implementations that only the tests call.

Each one is the slow or literal route to an answer that `blobcat` computes
another way: reduced expressions through braid moves, containment through
commutation classes and the occurrence order, the normal form looked up
among all generated forms by canonical word and spelled by rigid blocks,
the paper's oblique factorization around the alternating run, which
the blob step `grids.oblique_shortening_word` shortcuts, the rewriting
kernel as a plain class walk that never reads the heap, and TL and
two-boundary reduction as a loop of the kernel's own steps, which the
heap-scan fold replaced, the wing counts an entry at a time, which the
counts read as whole runs, and the dimension polynomial off three
convolutions of the wing complements, which `blob_polynomial` reads off two
squarings.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from operator import add

from blobcat import algebra, grids
from blobcat.algebra import PARAMS, AlgebraLevel, Rule, Scalar, rewrite_rules
from blobcat.enumeration import _blobbed, _exact_half, _wings
from blobcat.normal_forms import (
    Blocks,
    Bracket,
    DescentTail,
    DescentZerosTail,
    LengthOne,
    LengthZero,
    NormalForm,
    SecondType,
    _word_of_normal_form,
    check_blocks,
    fc_forms,
)
from blobcat.triangles import blobbed_entry, blobbed_run
from blobcat.words import (
    HeapState,
    Letters,
    canonical_word,
    check_rank,
    check_word,
    heap_state,
    iter_commutation_class,
)

# ---------------------------------------------------------------------------
# braid moves


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


def all_reduced_expressions(n: int, word: Letters) -> set[Letters]:
    """Every word reachable from `word` by commutation and braid moves."""
    seen = {tuple(word)}
    stack = [tuple(word)]
    while stack:
        current = stack.pop()
        for p in range(len(current) - 1):
            a, b = current[p], current[p + 1]
            if a == b:
                continue
            order = braid_order(n, a, b)
            if order == 2:
                nxt = current[:p] + (b, a) + current[p + 2 :]
            elif order == 3 and current[p : p + 3] == (a, b, a):
                nxt = current[:p] + (b, a, b) + current[p + 3 :]
            elif order == 4 and current[p : p + 4] == (a, b, a, b):
                nxt = current[:p] + (b, a, b, a) + current[p + 4 :]
            else:
                continue
            if nxt not in seen:
                seen.add(nxt)
                stack.append(nxt)
    return seen


# ---------------------------------------------------------------------------
# wing counts, an entry at a time


def i_t(n: int, t: int) -> int:
    """One-sided extension counts of the odd-ended pattern, t extra top dots."""
    check_rank(n)
    if t < 0:
        raise ValueError("t must be non-negative")
    return blobbed_entry(n, 2 * t + n % 2)


def j_t(n: int, t: int) -> int:
    """One-sided extension counts of the even-ended pattern; exact halves."""
    check_rank(n)
    if t < 0:
        raise ValueError("t must be non-negative")
    return _exact_half(blobbed_entry(n + 1, 2 * t + 1 - n % 2))


def i_nr(n: int, r: int) -> int:
    """Left extensions of the odd-ended pattern with r dots in the outer column."""
    check_rank(n)
    if not 0 <= r < n:
        raise ValueError(f"need 0 <= r < n, got r={r}")
    if n % 2 == 1:
        return 0
    return blobbed_entry(n - 2 - r, r)


def j_nr(n: int, r: int) -> int:
    check_rank(n)
    if not 0 <= r < n:
        raise ValueError(f"need 0 <= r < n, got r={r}")
    if n % 2 == 0:
        return 0
    if r == n - 1:
        # the maximal extension is a single grid; halving the odd entry
        # C_{0,n-1} = 1 would break the row sum against j_t(n, 0)
        return 1
    return _exact_half(blobbed_entry(n - 1 - r, r))


def convolve(x: list[int], y: list[int]) -> list[int]:
    """
    The convolution of two lists of non-negative integers by one integer
    product (Kronecker substitution): each list is packed into byte-aligned
    fields of one integer, wide enough for any coefficient of the result, and
    the product's fields are the coefficients.
    """
    if not x or not y:
        return []
    # a coefficient sums at most min(len(x), len(y)) products, each below
    # 2^(bits of max(x) + bits of max(y))
    bits = max(x).bit_length() + max(y).bit_length() + min(len(x), len(y)).bit_length()
    width = (bits + 7) // 8

    def pack(values: list[int]) -> int:
        return int.from_bytes(b"".join(v.to_bytes(width, "little") for v in values), "little")

    size, px = len(x) + len(y) - 1, pack(x)
    # one packed operand for a square: CPython squares `a * a` faster
    raw = (px * (px if y is x else pack(y))).to_bytes(size * width, "little")
    return [int.from_bytes(raw[k : k + width], "little") for k in range(0, size * width, width)]


def blob_polynomial_by_convolutions(n: int) -> tuple[int, ...]:
    """
    `enumeration.blob_polynomial` read term by term: with C = 2^n and the
    wing complements mu = C - main and nu = C - other, trailing zeros dropped,
        d(s) = C^2 - 2C mu[s-1] + (mu*mu)[s-1] + (nu*nu)[s-2] - 2 (mu*nu)[s-2]
    for 1 <= s <= n, each convolution its own packed product.
    """
    check_rank(n)
    main, other = _wings(n, n)
    C = 1 << n
    mu = [C - v for v in main]
    nu = [C - v for v in other]
    for seq in mu, nu:
        while seq and not seq[-1]:
            seq.pop()

    def shifted(seq: list[int], k: int) -> list[int]:
        # seq[s - k] for s = 0..n, zero out of range
        return ([0] * k + seq + [0] * (n + 1))[: n + 1]

    terms = zip(
        shifted(mu, 1),
        shifted(convolve(mu, mu), 1),
        shifted(convolve(nu, nu), 2),
        shifted(convolve(mu, nu), 2),
    )
    d = [C * (C - 2 * u) + uu + vv - 2 * uv for u, uu, vv, uv in terms]
    d[0] = 0  # the formula holds from s = 1; nothing is excluded at s = 0
    a = blobbed_run(2 * n, 0, n + 1)
    return tuple(_blobbed(n, s, a[s], d[s]) for s in range(n + 1))


# ---------------------------------------------------------------------------
# commutation classes and pattern containment


def commutation_class(n: int, word: Letters) -> frozenset[Letters]:
    """The full set of words reachable by swaps of adjacent commuting letters."""
    return frozenset(iter_commutation_class(n, word))


def reach_masks(word: Letters) -> list[int]:
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


def contains_rigid(word: Letters, pattern: Letters, reach: list[int] | None = None) -> bool:
    """
    Containment of a pattern whose consecutive letters never commute (its
    class is a singleton).  Such a pattern occurs contiguously in some member
    iff matching occurrences form a chain x_1 < ... < x_k in the occurrence
    order whose open interval holds nothing but x_2 .. x_{k-1}.
    """
    k = len(pattern)
    if reach is None:
        reach = reach_masks(word)
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


def contains_pattern(n: int, word: Letters, pattern: Letters) -> bool:
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
        return contains_rigid(word, pattern)
    pattern_class = commutation_class(n, pattern)
    for member in iter_commutation_class(n, word):
        for p in range(len(member) - k + 1):
            if member[p : p + k] in pattern_class:
                return True
    return False


def grown_fc_word(rng, n: int, length: int, word: Letters = ()) -> Letters:
    """A reduced FC word grown from `word` by up to `length` random letters at either end."""
    for _ in range(length):
        x = rng.randint(0, n)
        grown = word + (x,) if rng.random() < 0.5 else (x,) + word
        if heap_state(n, grown) != HeapState.NOT_REDUCED_FC:
            word = grown
    return word


# ---------------------------------------------------------------------------
# the rewriting kernel by class walk


@lru_cache(maxsize=None)
def rules_by_first_letter(level: AlgebraLevel, n: int) -> dict[int, tuple[Rule, ...]]:
    """The level's rules keyed by their pattern's first letter, in priority order."""
    index: dict[int, list[Rule]] = {}
    for rule in rewrite_rules(level, n):
        index.setdefault(rule.pattern[0], []).append(rule)
    return {letter: tuple(rules) for letter, rules in index.items()}


def walk_redex(
    level: AlgebraLevel, n: int, word: Letters, strategy: str
) -> tuple[int, Letters, int, Rule] | None:
    """
    The plain class-BFS redex search: at every position of every member,
    every rule that starts with the position's letter, in priority order;
    on to the end of the class if need be.  The first hit as (members
    visited, counted from 1; member; position; rule), or None.
    """
    by_first_letter = rules_by_first_letter(level, n)
    for visited, member in enumerate(iter_commutation_class(n, word), 1):
        positions = range(len(member))
        if strategy == "rightmost":
            positions = reversed(positions)
        for pos in positions:
            for rule in by_first_letter.get(member[pos], ()):
                if member[pos : pos + len(rule.pattern)] == rule.pattern:
                    return visited, member, pos, rule
    return None


def rewrite_at(member: Letters, pos: int, rule: Rule) -> Letters:
    """`member` with the rule's pattern at `pos` replaced."""
    return member[:pos] + rule.replacement + member[pos + len(rule.pattern) :]


@lru_cache(maxsize=None)
def walk_reduce(
    level: AlgebraLevel, n: int, word: Letters, strategy: str = "leftmost"
) -> tuple[Scalar, Letters]:
    """
    `reduce_word` by the class walk alone: rewrite the first redex that
    `walk_redex` finds until a whole class holds none.  No heap test and no
    blob step, so it is independent of `in_index_set` and of
    `grids.oblique_shortening_word`.
    """
    word = canonical_word(n, word)
    hit = walk_redex(level, n, word, strategy)
    if hit is None:
        return Scalar.one(), word
    _, member, pos, rule = hit
    scalar, final = walk_reduce(level, n, rewrite_at(member, pos, rule), strategy)
    return rule.scalar * scalar, final


def loop_reduce(level: AlgebraLevel, n: int, word: Letters) -> tuple[Scalar, Letters]:
    """
    `reduce_word` at TL or the two-boundary level as a loop of kernel
    steps: canonicalise the word, then take `algebra._find_redex` steps,
    each on the canonical form of the last, until none is left.  No memo and
    no recursion; each step walks class members and reads the heap.
    """
    word = canonical_word(n, word)
    exps = (0,) * len(PARAMS)
    while (step := algebra._find_redex(level, n, word)) is not None:
        shorter, scalar = step
        assert len(shorter) < len(word), "rewrite steps must strictly shorten"
        (head,) = scalar.terms
        exps, word = tuple(map(add, exps, head)), canonical_word(n, shorter)
    return algebra._shared_monomial(exps), word


# ---------------------------------------------------------------------------
# normal forms by lookup


@lru_cache(maxsize=None)
def _forms_by_canonical_word(n: int, s: int) -> dict[Letters, NormalForm]:
    return {canonical_word(n, _word_of_normal_form(n, nf)): nf for nf in fc_forms(n, s)}


def normal_form_by_lookup(n: int, word: Letters) -> NormalForm:
    """The generated form whose word has the canonical word of `word`."""
    nf = _forms_by_canonical_word(n, word.count(n)).get(canonical_word(n, word))
    if nf is None:
        raise ValueError(f"no normal form matches {word} (is it reduced and FC?)")
    return nf


# ---------------------------------------------------------------------------
# rigid blocks


def blocks_affine_length(n: int, blocks: Blocks) -> int:
    return sum(1 for _, r in blocks if r == n)


def nf_of_positive_blocks(n: int, blocks: Blocks) -> NormalForm:
    """The normal form spelled by a rigid-block word."""
    check_blocks(n, blocks)
    s = blocks_affine_length(n, blocks)
    if s == 0:
        return LengthZero(tuple(Bracket(l, r) for l, r in blocks))
    if s == 1:
        i = blocks[0][0]
        rest = blocks[1:]
        if i > 0:
            return LengthOne(i, tuple(Bracket(l, r) for l, r in rest))
        if not rest:
            return LengthOne(0, DescentTail(n))
        return LengthOne(0, DescentZerosTail(n, tuple(r for _, r in rest)))
    head = [l for l, r in blocks[:s]]
    p = sum(1 for l in head if l > 0)
    tail = tuple(Bracket(l, r) for l, r in blocks[s:])
    return SecondType(tuple(head[:p]), s - p, tail)


# ---------------------------------------------------------------------------
# the oblique factorization


@dataclass(frozen=True)
class ObliqueFactorization:
    """Oblique form split around the maximal alternating odd/even run."""

    prefix: tuple[Letters, ...]
    k: int
    suffix: tuple[Letters, ...]


def oblique_factorization(n: int, blocks: Blocks) -> ObliqueFactorization:
    """
    For a positive element containing the odd-ended alternating pattern,
    split its oblique form as prefix, (IJ)^k I, suffix with k >= 1.
    """
    sweep = grids.obliques(n, blocks)  # validates the blocks
    if not grids._contains(blocks, grids.iji_blocks(n)):
        raise ValueError("element avoids the odd-ended alternating pattern")
    i, j = grids.i_word(n), grids.j_word(n)
    i_positions = [p for p, ob in enumerate(sweep) if ob == i]
    first, last = i_positions[0], i_positions[-1]
    run = sweep[first : last + 1]
    if (last - first) % 2 != 0:
        raise ValueError(f"malformed alternating run in {blocks}")
    for p, ob in enumerate(run):
        if ob != (i if p % 2 == 0 else j):
            raise ValueError(f"alternating run broken at {blocks}")
    k = (last - first) // 2
    if k < 1:
        raise ValueError(f"no repeated alternation in {blocks}")
    prefix = sweep[:first]
    suffix = sweep[last + 1 :]
    # a full even-family oblique can flank the run on either side, but only
    # directly (two adjacent sweep values cannot both carry it)
    for p, ob in enumerate(prefix):
        if ob == i:
            raise ValueError(f"stray odd oblique before the run in {blocks}")
        if ob == j and p != len(prefix) - 1:
            raise ValueError(f"stray even oblique before the run in {blocks}")
    for p, ob in enumerate(suffix):
        if ob == i:
            raise ValueError(f"stray odd oblique after the run in {blocks}")
        if ob == j and p != 0:
            raise ValueError(f"stray even oblique after the run in {blocks}")
    return ObliqueFactorization(prefix, k, suffix)
