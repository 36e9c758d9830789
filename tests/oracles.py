"""
Reference implementations that only the tests call.

Each one is the slow or literal route to an answer that `blobcat` computes
another way: reduced expressions through braid moves, containment through
commutation classes and the occurrence order, the normal form looked up
among all generated forms by canonical word and spelled by rigid blocks,
the greatest class member through the flip a -> n - a with the rigid
blocks read off it, grid containment as an `any` of `all`s, and the
obliques and the blob step read off the rows, as each was first written,
the paper's oblique factorization around the alternating run, which
the blob step `grids.oblique_shortening_word` shortcuts, the rewriting
kernel as a plain class walk that never reads the heap, the heap
reading with the positions that decide it (`heap_witness`) and what one
letter more meets on it (`closing_scan`), reduction at
every level as a loop of one-step rewrites, each a bounded class walk
and then one step off the heap, which the heap-scan fold and the blob
loop replaced, the wing counts an entry at a time, which the
counts read as whole runs, the dimension polynomial off three
convolutions of the wing complements, which `blob_polynomial` reads off two
squarings, and the quotient-image check of one word, read back into the
normal form or rigid blocks that `verify` checks as enumerated.  The laws
of reduction stand beside them (`law_mismatch`): the quotient tower
commutes with reduction, and every output, and every canonical word that
`in_index_set` accepts, reduces to itself with scalar 1.  They hold at
every rank and length that a seeded stream reaches, where no exhaustive
oracle does.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache, lru_cache
from itertools import chain, combinations, islice, product
from operator import itemgetter
from typing import Iterator

from blobcat import algebra, grids, verify
from blobcat.algebra import AlgebraLevel, Rule, Scalar, rewrite_rules
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
    _blocks_of_word,
    _word_of_normal_form,
    blocks_of_word,
    check_blocks,
    fc_forms,
    normal_form_of_word,
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
    scan_closure,
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


@cache
def _words_of_length(n: int, length: int) -> tuple[Letters, ...]:
    return tuple(product(range(n + 1), repeat=length))


def exhaustive_words(n: int, max_len: int) -> Iterator[Letters]:
    """
    Every word at rank n of at most `max_len` letters, shortest first, in
    `itertools.product` order.  Each length is built once per test run and
    shared by the exhaustive tests.
    """
    return chain.from_iterable(_words_of_length(n, length) for length in range(max_len + 1))


def adversarial_word(rng, n: int, length: int) -> Letters:
    """
    A word of about `length` letters on which the heap-scan fold reads
    much of the word again (ROADMAP item 2).  It is made of heads a, b
    (or b, a, b at the pair {0, 1}) on disjoint adjacent pairs in the
    lower half of the range, then a stretch, then each head's a again, in
    random order.  The stretch avoids the head letters and their
    neighbours, and is grown as a reduced FC word, so no rewrite touches
    it.  Each closing a meets its head as a b a or b a b a, and the
    rewrite drops the head's last b, so the scanner reads the whole
    stretch again.  At ranks 1 and 2 no letter is free of the heads, so
    there the stretch is random letters of the whole range, and the rules
    overlap instead.
    """
    check_rank(n)
    heads: list[int] = []
    closers: list[int] = []
    banned: set[int] = set()
    for x in range(0, max(1, n // 2), 3)[: max(1, length // 8)]:
        a, b = (x, x + 1) if rng.random() < 0.5 else (x + 1, x)
        # b, a, b closes no chain only at the bond-4 pair {0, 1}
        heads += [b, a, b] if x == 0 and rng.random() < 0.5 else [a, b]
        closers.append(a)
        banned |= {x - 1, x, x + 1, x + 2}
    rng.shuffle(closers)
    free = [x for x in range(n + 1) if x not in banned]
    size = max(0, length - len(heads) - len(closers))
    if not free:
        return tuple(heads + [rng.randint(0, n) for _ in range(size)] + closers)
    stretch: Letters = ()
    for _ in range(4 * size):
        grown = stretch + (rng.choice(free),)
        if heap_state(n, grown) != HeapState.NOT_REDUCED_FC:
            stretch = grown
            if len(stretch) == size:
                break
    return tuple(heads) + stretch + tuple(closers)


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


def heap_witness(n: int, word: Letters) -> tuple[HeapState, Letters]:
    """
    `words.heap_state` with the positions that decide it, from the same
    one reading (`words.Scan`, `words.scan_closure`): for a word that
    is not reduced FC, the first chain the reading closes; else the first
    triple of the winning side; () for a positive word.  Some class member
    holds the witness's letters as a factor (`scan_closure`).
    """
    word = check_word(n, word)
    state, witness = HeapState.POSITIVE, ()
    scan = last, gap, prev, closed = [-1] * (n + 2), [0] * (n + 2), [-1] * len(word), [0] * len(word)
    for pos, a in enumerate(word):
        p = last[a]
        if p >= 0 and gap[a] < 2 and (hit := scan_closure(n, scan, a, pos)):
            closure, pattern, triple = hit
            if not triple:
                return HeapState.NOT_REDUCED_FC, closure
            side = HeapState.LEFT_TRIPLE if pattern[1] == 0 else HeapState.RIGHT_TRIPLE
            if side < state:
                state, witness = side, closure
        prev[pos] = p
        closed[pos] = gap[a]
        gap[a - 1] += 1
        gap[a + 1] += 1
        last[a], gap[a] = pos, 0
    return state, witness


def closing_scan(n: int, word: Letters, g: int) -> tuple[int, tuple | None]:
    """
    What the letter g appended to `word` meets, off the left-to-right
    reading of `heap_witness` carried over the whole word, chains and all:
    the neighbours g +- 1 read since the last g, as 0, 1, or 2 for two or
    more and for a word with no g, and what g closes there
    (`scan_closure`), or None.
    """
    word = check_word(n, word)
    size = len(word) + 1
    scan = last, gap, prev, closed = [-1] * (n + 2), [0] * (n + 2), [-1] * size, [0] * size
    for pos, a in enumerate(word):
        prev[pos] = last[a]
        closed[pos] = gap[a]
        gap[a - 1] += 1
        gap[a + 1] += 1
        last[a], gap[a] = pos, 0
    if last[g] < 0 or gap[g] >= 2:
        return 2, None
    return gap[g], scan_closure(n, scan, g, len(word))


def heap_redex(level: AlgebraLevel, n: int, word: Letters) -> Letters | Blocks | None:
    """
    What one `heap_witness` reading of the word says at the level: None
    for a basis index, else what a rewrite step needs.  A word that is not
    reduced fully commutative, or at the two-boundary and blob levels one
    with a boundary triple, gives the witness positions of a chain or
    triple that some class member holds as a rule pattern.  A positive word that is not
    blobbed, at the blob level, gives its rigid blocks, which hold IJI or
    JIJ.  Any other word is a basis index, as `algebra.in_index_set` says.
    """
    state, witness = heap_witness(n, word)
    if witness and (state == HeapState.NOT_REDUCED_FC or level != AlgebraLevel.TL):
        return witness
    if level == AlgebraLevel.SYMPLECTIC_BLOB and state == HeapState.POSITIVE:
        blocks = _blocks_of_word(n, word)
        if not blobbed_by_rows(n, blocks):
            return blocks
    return None


def find_redex(level: AlgebraLevel, n: int, word: Letters) -> tuple[Letters, int] | None:
    """
    One rewrite step of `word` at any level, as (shorter word, packed
    scalar), or None if the word is a basis index.  The first `len(word)`
    members of the class, walked breadth first from `word`, are searched
    for a rule pattern, as `walk_redex` searches a whole class: the
    earliest member holding one, at the first position that holds one,
    ties broken by priority.  When the word itself holds no pattern, its
    heap is read once (`heap_redex`): a basis index stops the search at
    one member.  Past the members the step is built from that same
    reading, one step however deep the redex: a witness loses its trailing
    positions, since every replacement is a prefix of its pattern, and
    rigid blocks take the blob step by rows (`shortening_by_rows`),
    times k.  So it takes the blob step by itself, not through
    `algebra._blob_loop`.
    """
    by_first_letter, steps = rules_by_first_letter(level, n), algebra._rule_steps(level, n)
    redex = None  # the empty word draws no member and is a basis index
    walk = islice(iter_commutation_class(n, word), len(word))
    for drawn, member in enumerate(walk, 1):
        for pos, letter in enumerate(member):
            for rule in by_first_letter.get(letter, ()):
                if member[pos : pos + len(rule.pattern)] == rule.pattern:
                    rest = member[pos + len(rule.pattern) :]
                    return member[:pos] + rule.replacement + rest, steps[rule.pattern][1]
        if drawn == 1:
            redex = heap_redex(level, n, word)
            if redex is None:
                return None
    if redex is None:
        return None
    if isinstance(redex[0], tuple):  # rigid blocks, not witness positions
        return shortening_by_rows(n, redex), algebra._K_STEP
    keep, exps = steps[itemgetter(*redex)(word)]
    drop = redex[keep:]
    return tuple([a for p, a in enumerate(word) if p not in drop]), exps


def law_mismatch(n: int, word: Letters) -> tuple | None:
    """
    The first law of reduction that `word` breaks, as (law, level or
    levels, what came out, what the law asks for), or None.  In order:

    - "tower": the quotient tower TL -> 2B -> SB commutes with reduction:
      for levels lo < hi, reduce `word` at lo to m·u; then reducing `word`
      at hi gives m times the reduction of u at hi.  The two sides run
      different code, the fold alone against the fold and then the rows
      or `_blob_loop`.
    - "output": at each level the word u that `word` reduces to is a
      basis index (`algebra.in_index_set`) and reduces to (1, u).
    - "fixed point": at each level where `in_index_set` accepts `word`,
      its canonical word reduces to itself with scalar 1.

    The laws tie the heap classifier (`words.heap_state`, through
    `in_index_set`) to the fold, which reads the same heap another way.
    """
    one = Scalar.one()
    reduced = {level: algebra.reduce_word(level, n, word) for level in AlgebraLevel}
    for lo, hi in combinations(AlgebraLevel, 2):
        m, u = reduced[lo]
        scalar, v = algebra.reduce_word(hi, n, u)
        if (m * scalar, v) != reduced[hi]:
            return "tower", (lo, hi), (m * scalar, v), reduced[hi]
    for level, (_, u) in reduced.items():
        if not algebra.in_index_set(level, n, u):
            return "output", level, u, "a basis index"
        if (again := algebra.reduce_word(level, n, u)) != (one, u):
            return "output", level, again, (one, u)
    least = canonical_word(n, word)
    for level in AlgebraLevel:
        if algebra.in_index_set(level, n, word):
            if (got := algebra.reduce_word(level, n, least)) != (one, least):
                return "fixed point", level, got, (one, least)
    return None


def loop_reduce(level: AlgebraLevel, n: int, word: Letters) -> tuple[Scalar, Letters]:
    """
    `reduce_word` as a loop of kernel steps, at any level: canonicalise
    the word, then take `find_redex` steps, each on the canonical form of
    the last, until none is left.  No memo, no recursion and no call of
    `algebra._blob_loop`; each step walks class members and reads the heap.
    """
    word = canonical_word(n, word)
    exps = 0
    while (step := find_redex(level, n, word)) is not None:
        shorter, head = step
        assert len(shorter) < len(word), "rewrite steps must strictly shorten"
        exps, word = exps + head, canonical_word(n, shorter)
    return algebra._unpacked(exps), word


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


def quotient_image_check(n: int, word: Letters) -> bool:
    """
    The quotient-image identity of one word, whose heap state picks the
    step: a word with a boundary triple goes TL -> 2B through its normal
    form (`verify.boundary_image_holds`), a positive one 2B -> SB through
    its rigid blocks (`verify.blob_image_holds`), which refuses a blobbed
    one.  `normal_form_of_word` refuses any other word, one that is not
    reduced FC, with ValueError.
    """
    word = check_word(n, word)
    state = heap_state(n, word)
    if state == HeapState.POSITIVE:
        return verify.blob_image_holds(n, blocks_of_word(n, word))
    return verify.boundary_image_holds(n, normal_form_of_word(n, word), state)


# ---------------------------------------------------------------------------
# rigid blocks


def greatest_word_by_flip(n: int, word: Letters) -> Letters:
    """
    The greatest member of the commutation class as the least member of the
    flipped word, flipped back: a -> n - a is a diagram automorphism, so it
    turns the least linear extension of the heap into the greatest.  This
    is how `normal_forms._normal_word` read it before it took the largest
    minimal letter directly.
    """
    return tuple(n - a for a in canonical_word(n, tuple(n - a for a in word)))


def blocks_by_flip(n: int, word: Letters) -> Blocks:
    """The rigid blocks as the maximal +1 runs of `greatest_word_by_flip`,
    built as [l, r] lists and copied into tuples, then checked."""
    runs: list[list[int]] = []
    for a in greatest_word_by_flip(n, check_word(n, word)):
        if runs and a == runs[-1][1] + 1:
            runs[-1][1] = a
        else:
            runs.append([a, a])
    return check_blocks(n, tuple((l, r) for l, r in runs))


def contains(blocks: Blocks, pattern: Blocks) -> bool:
    """
    True iff some row shift t puts every row interval of `pattern` inside
    row t + i of `blocks`.  Rows are intervals and columns never move, so
    this is point-set containment of the grids under a vertical translate.
    One plain loop tests each shift from the pattern's first row down and
    breaks at the first row that sticks out.  The empty pattern fits at
    t = 0 of any element, `()` too; one taller than the element has no
    shift.  The blob test by rows, the oracle of the test by columns,
    `grids._columns_blobbed`.
    """
    for t in range(len(blocks) - len(pattern) + 1):
        for i, (pl, pr) in enumerate(pattern, t):
            l, r = blocks[i]
            if pl < l or r < pr:
                break
        else:
            return True
    return False


def blobbed_by_rows(n: int, blocks: Blocks) -> bool:
    """Blobbedness of valid blocks as `contains` of neither I J I nor J I J."""
    return not contains(blocks, grids.iji_blocks(n)) and not contains(blocks, grids.jij_blocks(n))


def obliques_by_rows(blocks: Blocks) -> tuple[Letters, ...]:
    """
    The obliques of valid blocks as the sweep line first read them off the
    rows: the points (i, j) of row i, from 1, grouped by 2*i + j, in
    increasing order of that value, each group sorted.  The oracle of
    `grids.obliques`, which reads them off the columns.
    """
    groups: dict[int, list[int]] = {}
    for i, (l, r) in enumerate(blocks, start=1):
        for j in range(l, r + 1):
            groups.setdefault(2 * i + j, []).append(j)
    return tuple(tuple(sorted(groups[c])) for c in sorted(groups))


def shortening_by_rows(n: int, blocks: Blocks) -> Letters:
    """
    The blob step of valid, non-blobbed blocks by rows: their oblique word
    (`obliques_by_rows`) without the first full odd oblique I and the full
    even oblique J right after it.  The oracle of
    `grids.oblique_shortening_word` and `grids._blob_step`.
    """
    sweep = obliques_by_rows(blocks)
    ij = (grids.i_word(n), grids.j_word(n))
    a = next((p for p in range(len(sweep) - 1) if sweep[p : p + 2] == ij), None)
    if a is None:
        raise ValueError(f"no full odd oblique followed by the even one in {blocks}")
    return tuple(x for ob in sweep[:a] + sweep[a + 2 :] for x in ob)


def contains_by_any_all(blocks: Blocks, pattern: Blocks) -> bool:
    """Grid containment as one `any` over the row shifts of one `all` over
    the pattern's rows, as `contains` was first written."""
    return any(
        all(blocks[t + i][0] <= pl and pr <= blocks[t + i][1] for i, (pl, pr) in enumerate(pattern))
        for t in range(len(blocks) - len(pattern) + 1)
    )


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
    if not contains(blocks, grids.iji_blocks(n)):
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
