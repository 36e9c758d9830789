"""
Rewriting kernel for the three quotient levels of the affine-C
Temperley-Lieb tower: the full diagram algebra, the two-boundary quotient,
and the symplectic blob quotient.

Scalars are sparse polynomials with integer coefficients in six independent
parameters d, dL, dR, kL, kR, k (loop weights of the interior and the two
boundaries, the two boundary-braid weights, and the global blob weight).  A
product of generators rewrites to a single parameter monomial times a
canonical basis word; the rules all strictly shorten the word, so
termination is by length.  Each rule scales by one monomial of coefficient
1, so the kernel adds exponents packed in one int (`_PACKED`) and hands
out one shared `Scalar` per monomial (`_unpacked`), made once at the end.

The TL and two-boundary levels have infinite index sets, and their basis
words are the reduced fully commutative words and the positive ones, the
words whose heap closes no chain ss, sts or stst (Stembridge 1996) and, at
the two-boundary level, no boundary triple.  So `reduce_word` reads the
word's heap once from the left in one loop (`words._fold`), each letter in
O(1), and rewrites each closure where it closes: a letter that closes a
chain, or a triple that the level's rule table (`_rule_steps`) holds, is
replaced by the rule its letters spell, which changes only the tops of
two stacks, the letters read and those to come, and the loop reads on.
It keeps no memo and walks no class.  The loop hands back the word in the
order it read it, and `reduce_word` canonicalises that word once, as it
returns.  Every heap reading lives in `words`; this module holds the rules.

The blob level is finite-dimensional, and reduces a word by one of two
routes, by rank.  Below rank 7 (`_LOOP_RANK`) one loop (`_fold_rows`)
folds words from the left through its action rows (`_rows`), the right
regular representation on the basis: one row per basis word reached,
holding that word times each generator as (packed exponents, next row),
so a letter costs one list index.  An empty slot (`_fill`) is routed by
one short scan back from the end of the row's word w
(`words._closing_gap`), since only its generator g can close a chain or
a triple there.  A closure drops the letters of w g at its witness q and
at the end, so the entry is the rule's monomial times w[q+1:] folded
from the row of w[:q].  A g that closes nothing leaves a positive
product, its own basis word when it has fewer letters than I J I; a
longer one goes to the memo `_reduce_canonical`, which takes its blob
rule, if it has one, and folds the shorter word from the empty row.
Every folded word is shorter than the product filled, so nested fills
end.  The rows of ranks 1-6 hold at most 50,882 entries and the memo at
most 5,699 words (README "Costs" counts the fills of each route).

From rank 7 on, the rows would cost too much to keep and to fill: at
about 115 B an entry, full rows take 22.8 MB at rank 7 and 95 MB at rank
8, and a cold pass of products of two basis words takes 58 and 172 µs a
product on them, against 54 and 63 µs on the loop (ROADMAP "Measured").
There `_blob_loop` reduces the word `_CHUNK` letters at a time and keeps
nothing: the two-boundary heap-scan fold on the blob rule table, then,
while the result is not blobbed, the paper's blob step and the fold
again.  Both routes take one blob test and step of a word,
`grids._blob_step`: a full fill of ranks 1-6 calls it 5,695 times and
sweeps the columns of the 1,230 words that are not blobbed, and the
seed-1 `random-words` stream calls it 677 times, 480 of them on words
shorter than I J I, which read nothing.  Chunks are sound because
reduction respects products, the regular-representation half of
Bergman's diamond lemma (1978); `verify.check_confluence` and the tests
reduce factors first to test that the rewrite order does not matter.

At rank 1 the two boundary pairs coincide; overlapping rules are resolved by
fixed priority (blob rules first, then the left boundary), which keeps the
kernel deterministic there, though not confluent at the two-boundary level.
The heap-scan fold lands where those steps do there too, which every word
of up to 12 letters bears out.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from enum import IntEnum
from functools import cache, lru_cache
from itertools import islice, product

from . import enumeration
from .grids import _blob_step, _columns_blobbed, _iji_length, i_word, is_blobbed, j_word
from .normal_forms import block_word
from .words import (
    HeapState,
    Letters,
    _canonical_word,
    _closing_gap,
    _columns,
    _fold,
    _heap_reading,
    canonical_word,
    check_rank,
    check_word,
    format_word,
    iter_commutation_class,
)

PARAMS = ("d", "dL", "dR", "kL", "kR", "k")
_PARAM_INDEX = {name: i for i, name in enumerate(PARAMS)}
_ZERO_EXP = (0,) * len(PARAMS)

Exponents = tuple[int, ...]


class Scalar:
    """
    Sparse integer polynomial in the six parameters; canonical, no zeros.
    Instances are immutable values: `reduce_word` hands out one shared
    instance per monomial, the same object on every call, so a caller must
    never mutate `terms`.
    """

    __slots__ = ("terms",)

    def __init__(self, terms: dict[Exponents, int] | None = None):
        self.terms: dict[Exponents, int] = {
            e: c for e, c in (terms or {}).items() if c != 0
        }

    @classmethod
    def zero(cls) -> "Scalar":
        return cls()

    @classmethod
    def one(cls) -> "Scalar":
        return cls({_ZERO_EXP: 1})

    @classmethod
    def integer(cls, value: int) -> "Scalar":
        return cls({_ZERO_EXP: value})

    @classmethod
    def param(cls, name: str) -> "Scalar":
        exp = [0] * len(PARAMS)
        exp[_PARAM_INDEX[name]] = 1
        return cls({tuple(exp): 1})

    def __bool__(self) -> bool:
        return bool(self.terms)

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Scalar) and self.terms == other.terms

    def __hash__(self) -> int:
        return hash(frozenset(self.terms.items()))

    def __add__(self, other: "Scalar") -> "Scalar":
        out = dict(self.terms)
        for e, c in other.terms.items():
            out[e] = out.get(e, 0) + c
        return Scalar(out)

    def __neg__(self) -> "Scalar":
        return Scalar({e: -c for e, c in self.terms.items()})

    def __sub__(self, other: "Scalar") -> "Scalar":
        return self + (-other)

    def __mul__(self, other: "Scalar") -> "Scalar":
        out: dict[Exponents, int] = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                e = tuple(a + b for a, b in zip(e1, e2))
                out[e] = out.get(e, 0) + c1 * c2
        return Scalar(out)

    def is_monomial(self) -> bool:
        return len(self.terms) == 1

    def substitute(self, mapping: dict[str, str]) -> "Scalar":
        """Rename parameters (e.g. collapse dL into dR); exponents merge."""
        out: dict[Exponents, int] = {}
        for exps, coeff in self.terms.items():
            new = [0] * len(PARAMS)
            for name, e in zip(PARAMS, exps):
                new[_PARAM_INDEX[mapping.get(name, name)]] += e
            key = tuple(new)
            out[key] = out.get(key, 0) + coeff
        return Scalar(out)

    @staticmethod
    def _term_str(exps: Exponents, coeff: int) -> str:
        factors = []
        for name, e in zip(PARAMS, exps):
            if e == 1:
                factors.append(name)
            elif e > 1:
                factors.append(f"{name}^{e}")
        if not factors:
            return str(coeff)
        body = "*".join(factors)
        if coeff == 1:
            return body
        if coeff == -1:
            return f"-{body}"
        return f"{coeff}*{body}"

    def __str__(self) -> str:
        if not self.terms:
            return "0"
        return " + ".join(self._term_str(e, c) for e, c in sorted(self.terms.items()))

    def __repr__(self) -> str:
        return f"Scalar({self})"


D = Scalar.param("d")
DL = Scalar.param("dL")
DR = Scalar.param("dR")
KL = Scalar.param("kL")
KR = Scalar.param("kR")
K = Scalar.param("k")

# The kernel's one monomial format: its exponents as the 64-bit fields of one
# int, so 0 packs 1 and adding packings multiplies.  A rewrite shortens the
# word, so a field counts at most one per letter and never carries.
_PACKED = struct.Struct(f"<{len(PARAMS)}Q")


def _packed(scalar: Scalar) -> int:
    (exps,) = scalar.terms  # a monomial of coefficient 1
    return int.from_bytes(_PACKED.pack(*exps), "little")


_K_STEP = _packed(K)


@cache
def _unpacked(exps: int) -> Scalar:
    """The one Scalar per monomial that the kernel returns, by its packing."""
    return Scalar({_PACKED.unpack(exps.to_bytes(_PACKED.size, "little")): 1})


class AlgebraLevel(IntEnum):
    TL = 0
    TWO_BOUNDARY = 1
    SYMPLECTIC_BLOB = 2


@dataclass(frozen=True)
class Rule:
    pattern: Letters
    replacement: Letters
    scalar: Scalar


def _square_scalar(n: int, i: int) -> Scalar:
    if i == 0:
        return DL
    if i == n:
        return DR
    return D


def rewrite_rules(level: AlgebraLevel, n: int) -> tuple[Rule, ...]:
    """
    The rule list in priority order; identical patterns introduced by lower
    levels are shadowed (this is what keeps rank 1, where the two boundary
    pairs coincide, deterministic).
    """
    check_rank(n)
    rules: list[Rule] = []
    seen: set[Letters] = set()

    def add(pattern: Letters, replacement: Letters, scalar: Scalar) -> None:
        if pattern not in seen:
            seen.add(pattern)
            rules.append(Rule(pattern, replacement, scalar))

    if level >= AlgebraLevel.SYMPLECTIC_BLOB:
        odd, even = i_word(n), j_word(n)
        add(odd + even + odd, odd, K)
        add(even + odd + even, even, K)
    if level >= AlgebraLevel.TWO_BOUNDARY:
        add((1, 0, 1), (1,), KL)
        add((n - 1, n, n - 1), (n - 1,), KR)
    for i in range(n + 1):
        add((i, i), (i,), _square_scalar(n, i))
    for i in range(1, n - 1):
        add((i, i + 1, i), (i,), Scalar.one())
        add((i + 1, i, i + 1), (i + 1,), Scalar.one())
    add((0, 1, 0, 1), (0, 1), KL)
    add((1, 0, 1, 0), (1, 0), KL)
    add((n - 1, n, n - 1, n), (n - 1, n), KR)
    add((n, n - 1, n, n - 1), (n, n - 1), KR)
    return tuple(rules)


@lru_cache(maxsize=None)
def _rule_steps(level: AlgebraLevel, n: int) -> dict[Letters, tuple[int, int]]:
    """
    The kernel's one compiled rule table: the rules by the whole pattern,
    which a heap witness spells, as (length of the replacement, packed
    monomial).  Every rewrite keeps that many letters of the pattern and
    adds exponents (`words._fold`, `_reduce_canonical`), so each rule must
    replace its pattern by a proper prefix of it and scale by a monomial of
    coefficient 1.
    """
    steps: dict[Letters, tuple[int, int]] = {}
    for rule in rewrite_rules(level, n):
        keep = len(rule.replacement)
        if list(rule.scalar.terms.values()) != [1]:
            raise ValueError(
                f"rule {rule.pattern} scales by {rule.scalar}, not by a monomial of coefficient 1"
            )
        if keep >= len(rule.pattern) or rule.pattern[:keep] != rule.replacement:
            raise ValueError(
                f"rule {rule.pattern} rewrites to {rule.replacement}, not to a proper prefix"
            )
        steps[rule.pattern] = keep, _packed(rule.scalar)
    return steps


@lru_cache(maxsize=None)
def _reduce_canonical(n: int, word: Letters) -> tuple[int, Letters]:
    """
    A positive canonical word of at least as many letters as I J I, a
    product that `_fill` meets at ranks 1-6, reduced to (packed monomial,
    basis word).  No member of a positive word's class holds a chain or a
    boundary triple (Stembridge 1996), so the first `len(word)` members,
    walked breadth first from `word`, are searched for I J I and J I J
    alone.  The earliest member holding one keeps the pattern's prefix at
    the first position that holds one.  A word whose first member holds
    neither is a basis index if it is blobbed, at one member; that one
    test, `grids._blob_step`, also gives the shorter word of the blob
    step, times k, taken if the walk finds neither.  The shorter word is
    folded from the empty row (`_fold_rows`).  The memo keeps at most
    5,699 words over ranks 1-6.
    The walk and the cache stay while the benchmark counts them
    (`perfbench/tests/test_perfbench.py:97-98`, ROADMAP item 1a).
    """
    steps, odd, even = _rule_steps(AlgebraLevel.SYMPLECTIC_BLOB, n), i_word(n), j_word(n)
    # I J I starts with 1 and J I J with 0, so one probe by letter
    blob = {p[0]: (p, steps[p]) for p in (odd + even + odd, even + odd + even)}
    walk = islice(iter_commutation_class(n, word), len(word))
    for drawn, member in enumerate(walk, 1):
        for pos, letter in enumerate(member):
            if letter in blob:
                pattern, (keep, exps) = blob[letter]
                if member[pos : pos + len(pattern)] == pattern:
                    rest = member[pos + len(pattern) :]
                    exps, row = _fold_rows(n, exps, _rows(n)[()], member[: pos + keep] + rest)
                    return exps, row[-1]
        if drawn == 1 and (shorter := _blob_step(n, word)) is None:
            return 0, word
    exps, row = _fold_rows(n, _K_STEP, _rows(n)[()], shorter)
    return exps, row[-1]


@cache
def _rows(n: int) -> dict[Letters, list]:
    """
    The action rows of rank n by basis word: the right regular
    representation of the blob quotient on its basis, filled as the fold of
    `reduce_word` reaches it, which folds through rows below `_LOOP_RANK`.
    A row is a list of n + 2 slots.  Slot g, 0 <= g <= n, holds the row's
    basis word times the generator g as (packed monomial, row of the basis
    word it lands on), or None until a fold first takes g there (`_fill`);
    slot n + 1 holds the row's basis word.  Rank n holds at most |B| rows and (n + 1)·|B| entries for
    the basis B = `sb_basis(n)`; `_rows.cache_clear()` drops every rank's.
    """
    return {(): [None] * (n + 1) + [()]}


def _fill(n: int, row: list, g: int) -> tuple[int, list]:
    """
    A miss of the rank-n action rows: the basis word w of `row` times the
    generator g, kept in slot g.  w is positive, so only g can close a
    chain or a triple, and one short scan back from the end
    (`words._closing_gap`) reads what it closes and where g goes in the
    product's least class member:

    - g closes a square, sts, stst or a boundary triple: the rule keeps a
      prefix of its pattern that ends before q, the position of g's one
      neighbour after its last g (the end for a square), and drops the
      letters of w g at q and at the end.  So the entry is the rule's
      monomial times w[q+1:] folded from the row of w[:q], a prefix of a
      canonical basis word and so a basis word, since the basis is closed
      under factors;
    - g closes nothing: the product is positive, and with fewer letters
      than I J I (`_iji_length`) it is blobbed, its own basis word times 1;
      a longer one is reduced by the memo `_reduce_canonical`, keyed by
      that least member, so no fill reads a heap for its key.
    """
    word = row[-1]
    _, at, closure = _closing_gap(n, word, g)
    if closure is None:
        word = word[:at] + (g,) + word[at:]
        exps, word = (0, word) if len(word) < _iji_length(n) else _reduce_canonical(n, word)
        target = _rows(n).setdefault(word, [None] * (n + 1) + [word])
    else:
        pattern, q = closure
        exps = _rule_steps(AlgebraLevel.SYMPLECTIC_BLOB, n)[pattern][1]
        key = word[:q]
        target = _rows(n).setdefault(key, [None] * (n + 1) + [key])
        exps, target = _fold_rows(n, exps, target, word[q + 1 :])
    row[g] = entry = (exps, target)
    return entry


def _fold_rows(n: int, exps: int, row: list, word: Letters) -> tuple[int, list]:
    """
    The letters of `word` folded from `row` through the rank-n action rows,
    filling each empty slot met (`_fill`), as (packed monomial, row reached)
    with `exps` added: one list index per letter on filled rows.
    """
    for g in word:
        step, row = row[g] or _fill(n, row, g)
        exps += step
    return exps, row


def _blob_loop(n: int, word: Letters) -> tuple[int, Letters]:
    """
    A blob-level word reduced with no rows and no memo, as (packed monomial,
    canonical basis word), for `reduce_word` from rank `_LOOP_RANK` on.  The
    two-boundary fold with the blob rule table (`words._fold`) leaves a
    positive word in read order, and `grids._blob_step` reads its columns
    off it as it stands, since every word of the element spells the same
    columns.  A blobbed positive word is a basis index, canonicalised once
    as the loop returns, and any other takes the paper's blob step, one
    I J alternation fewer, times k, and is folded again.  Each pass
    shortens the word, so the loop ends.
    """
    steps, exps = _rule_steps(AlgebraLevel.SYMPLECTIC_BLOB, n), 0
    while True:
        step, word = _fold(n, word, steps)
        exps += step
        shorter = _blob_step(n, word)
        if shorter is None:
            return exps, _canonical_word(n, word)
        word, exps = shorter, exps + _K_STEP


# The blob level folds words through the action rows below rank _LOOP_RANK,
# and from it on runs `_blob_loop` on _CHUNK letters at a time (README "Costs")
_LOOP_RANK = 7
_CHUNK = 256


def reduce_word(level: AlgebraLevel, n: int, word: Letters) -> tuple[Scalar, Letters]:
    """
    Rewrite a product of generators to (parameter monomial, canonical basis
    word) under the level's relations.

    The TL and two-boundary index sets are infinite, so there the word is
    read from the left in one loop of `words._fold`, with no memo, no
    recursion and no class walk, and a word of any length reduces: a letter
    costs O(1) unless its rewrite drops a piece before it, which costs only
    the letters read again after that piece.  The word the loop returns is
    canonicalised once, here.  The blob level is finite-dimensional.  Below
    rank `_LOOP_RANK` its word is folded from the left through the action
    rows of its rank (`_rows`): each letter indexes the current row and
    steps to the row of the basis word it lands on, adding the entry's
    packed monomial.  An empty slot reduces one basis word times one
    generator (`_fill`) and is kept; the rows of ranks 1-6 hold at most
    50,882 entries.  From rank `_LOOP_RANK` on, where full rows would take
    22.8 MB and more and a cold pass over them is slower than the loop
    (the module docstring), the word is reduced `_CHUNK` letters at a time
    by `_blob_loop`, each chunk appended to the basis word reduced so far,
    and nothing is kept: reduction respects products,
    so the chunks land where the whole word does.  The monomial becomes a
    `Scalar` once, at the end.
    """
    if level != AlgebraLevel.SYMPLECTIC_BLOB:
        exps, word = _fold(n, check_word(n, word), _rule_steps(level, n))
        return _unpacked(exps), _canonical_word(n, word)
    # the letters are checked first: slot n + 1, and slot -1, of a row is
    # its basis word, not an entry
    word = check_word(n, word)
    if n >= _LOOP_RANK:
        exps, reduced = 0, ()
        for start in range(0, len(word), _CHUNK):
            step, reduced = _blob_loop(n, reduced + word[start : start + _CHUNK])
            exps += step
        return _unpacked(exps), reduced
    exps, row = _fold_rows(n, 0, _rows(n)[()], word)
    return _unpacked(exps), row[-1]


# ---------------------------------------------------------------------------
# basis elements and their products


def in_index_set(level: AlgebraLevel, n: int, word: Letters) -> bool:
    """
    Does the word index a basis monomial at this level, i.e. does no member
    of its commutation class hold a rule pattern of the level?  Read off one
    heap reading (`words._heap_reading`, the one heap classifier): TL takes
    the reduced FC words, the two-boundary level those with no boundary
    triple (the positive elements), and the blob level those of them whose
    rigid-block grids avoid I J I and J I J.  A positive word with fewer
    letters than I J I is blobbed with nothing more read; a longer one's
    columns are read off that same reading (`words._columns`) and tested
    in O(n) (`grids._columns_blobbed`), with no block built.
    O(len(word) + n); a malformed word raises ValueError.
    """
    word = tuple(word)  # the reading checks it
    state, last, prev = _heap_reading(n, word)
    if state == HeapState.NOT_REDUCED_FC:
        return False
    if state != HeapState.POSITIVE:
        return level == AlgebraLevel.TL
    if level != AlgebraLevel.SYMPLECTIC_BLOB or len(word) < _iji_length(n):
        return True
    return _columns_blobbed(n, _columns(n, last, prev))


@dataclass(frozen=True)
class BasisElement:
    level: AlgebraLevel
    n: int
    word: Letters

    def __post_init__(self) -> None:
        object.__setattr__(self, "word", canonical_word(self.n, self.word))
        if not in_index_set(self.level, self.n, self.word):
            raise ValueError(
                f"{self.word} does not index a basis monomial at level {self.level.name}"
            )


def multiply(x: BasisElement, y: BasisElement) -> tuple[Scalar, BasisElement]:
    if x.level != y.level or x.n != y.n:
        raise ValueError("can only multiply basis elements of one algebra")
    scalar, word = reduce_word(x.level, x.n, x.word + y.word)
    return scalar, BasisElement(x.level, x.n, word)


class AlgebraElement:
    """A finite linear combination of basis monomials of one level."""

    __slots__ = ("level", "n", "terms")

    def __init__(
        self, level: AlgebraLevel, n: int, terms: dict[BasisElement, Scalar] | None = None
    ):
        self.level = level
        self.n = check_rank(n)
        self.terms: dict[BasisElement, Scalar] = {}
        for basis, coeff in (terms or {}).items():
            if basis.level != level or basis.n != n:
                raise ValueError("mixed levels or ranks in one element")
            if coeff:
                self.terms[basis] = coeff

    @classmethod
    def from_word(cls, level: AlgebraLevel, n: int, word: Letters) -> "AlgebraElement":
        scalar, basis_word = reduce_word(level, n, word)
        return cls(level, n, {BasisElement(level, n, basis_word): scalar})

    def __add__(self, other: "AlgebraElement") -> "AlgebraElement":
        if (self.level, self.n) != (other.level, other.n):
            raise ValueError("can only add elements of one algebra")
        out = dict(self.terms)
        for basis, coeff in other.terms.items():
            out[basis] = out.get(basis, Scalar.zero()) + coeff
        return AlgebraElement(self.level, self.n, out)

    def scaled(self, scalar: Scalar) -> "AlgebraElement":
        return AlgebraElement(
            self.level, self.n, {b: scalar * c for b, c in self.terms.items()}
        )

    def __mul__(self, other: "AlgebraElement") -> "AlgebraElement":
        if (self.level, self.n) != (other.level, other.n):
            raise ValueError("can only multiply elements of one algebra")
        out: dict[Letters, Scalar] = {}  # by basis word, each built once below
        for (bx, cx), (by, cy) in product(self.terms.items(), other.terms.items()):
            scalar, word = reduce_word(self.level, self.n, bx.word + by.word)
            out[word] = out.get(word, Scalar.zero()) + cx * cy * scalar
        terms = {BasisElement(self.level, self.n, w): c for w, c in out.items()}
        return AlgebraElement(self.level, self.n, terms)

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, AlgebraElement)
            and (self.level, self.n) == (other.level, other.n)
            and self.terms == other.terms
        )

    def __repr__(self) -> str:
        if not self.terms:
            return "AlgebraElement(0)"
        body = " + ".join(
            f"({coeff})*b[{','.join(map(str, basis.word))}]"
            for basis, coeff in sorted(self.terms.items(), key=lambda kv: kv[0].word)
        )
        return f"AlgebraElement({body})"


# ---------------------------------------------------------------------------
# the blob basis and its multiplication table


def sb_basis(n: int) -> tuple[Letters, ...]:
    """Canonical words of all blobbed elements, sorted; its size is the
    dimension of the blob quotient."""
    check_rank(n)
    words = set()
    for s in range(n + 1):
        for blocks in enumeration.iter_positive_blocks(n, s):
            if is_blobbed(n, blocks):
                words.add(canonical_word(n, block_word(blocks)))
    return tuple(sorted(words))


def structure_constants(n: int) -> dict[tuple[Letters, Letters], tuple[Scalar, Letters]]:
    """
    Full multiplication table of the blob-quotient basis.  Every target must
    land back in the basis; a miss raises, because it would disprove closure.
    It costs |B|^2 folds of |x| + |y| list indexes in the action rows
    (`reduce_word`), which take at most (n + 1)·|B| reductions to fill for
    the basis B.  In fresh processes on a 2-vCPU VM with Python 3.11.7,
    rank 4 (112,225 products) took 0.46 s and 35 MB peak RSS, rank 5
    (2,039,184 products) 9.9 s and 350 MB.  From rank 7 each product runs
    the heap-scan loop instead: about 50 µs a rank-7 product of two basis
    words, in process over 20,000 pairs drawn from `random.Random(1)`,
    against 9.2 µs on warm rows (ROADMAP "Measured").
    """
    basis = sb_basis(n)
    index = set(basis)
    table: dict[tuple[Letters, Letters], tuple[Scalar, Letters]] = {}
    for xw, yw in product(basis, repeat=2):
        scalar, zw = reduce_word(AlgebraLevel.SYMPLECTIC_BLOB, n, xw + yw)
        if zw not in index:
            raise AssertionError(f"product {xw} * {yw} left the blob basis: {zw}")
        table[(xw, yw)] = (scalar, zw)
    return table


def structure_constants_records(n: int) -> list[dict[str, str]]:
    """The table as JSON-ready records {x, y, scalar, z} (word text encoding),
    in the sorted order of the (x, y) keys, which `structure_constants`
    inserts in that order."""
    return [
        {
            "x": format_word(xw),
            "y": format_word(yw),
            "scalar": str(scalar),
            "z": format_word(zw),
        }
        for (xw, yw), (scalar, zw) in structure_constants(n).items()
    ]
