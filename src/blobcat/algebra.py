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
1, so a rewrite step adds exponent vectors, and the kernel hands out one
shared `Scalar` per monomial instead of a new one per step.

The TL and two-boundary levels have infinite index sets, and their basis
words are the reduced fully commutative words and the positive ones, the
words whose heap closes no chain ss, sts or stst (Stembridge 1996) and, at
the two-boundary level, no boundary triple.  So `reduce_word` reads the
word from the left with `heap_reading`'s scanner, each letter in O(1): a
letter that closes a chain or triple is rewritten at once by the rule its
witness spells, and the scanner unreads only back to the piece the rule
drops.  It keeps no memo and walks no class, and it canonicalises once, at
the end.

The blob level takes the kernel's rewrite step instead.  A redex is
looked for in the first members of the word's commutation class, walked
breadth first, as many as the word has letters; at each position only the
rules whose pattern starts with its two letters are tried.  A word that
holds no pattern itself has its heap read once (`_heap_redex`, O(length +
rank)), and that one reading decides: a basis index, the word every
reduction ends on, stops the search at one member; past the members, a
chain or boundary triple that some member holds as a rule pattern loses
its trailing letters, and a positive, non-blobbed word at the blob level
takes the paper's blob step, `oblique_shortening_word` of its rigid
blocks, one I J alternation fewer, times k.  So no redex, however deep in
a large class, is walked to.  The surviving word indexes a basis monomial
of the level.  The blob level is finite-dimensional, so it folds words
from the left through `_act`, a memo of one generator acting on one basis
word (the right regular representation), and only the misses of that
table reach the whole-word memo, `_reduce_canonical`, which takes these
steps.  `verify.check_confluence` reduces factors first to test that the
rewrite order does not matter.

At rank 1 the two boundary pairs coincide; overlapping rules are resolved by
fixed priority (blob rules first, then the left boundary), which keeps the
kernel deterministic there, though not confluent at the two-boundary level.
The heap-scan fold lands where those steps do there too, which every word
of up to 12 letters bears out.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import IntEnum
from functools import cache, lru_cache
from itertools import islice, product
from operator import add

from . import enumeration
from .grids import i_word, is_blobbed, j_word, oblique_shortening_word
from .normal_forms import (
    Blocks,
    bar,
    block_word,
    blocks_of_word,
    normal_form_of_word,
    tilde,
    word_of_normal_form,
)
from .words import (
    HeapState,
    Letters,
    _canonical_word,
    canonical_word,
    check_rank,
    check_word,
    format_word,
    heap_reading,
    heap_state,
    iter_commutation_class,
    new_scan,
    scan_drop,
    scan_read,
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

@cache
def _shared_monomial(exps: Exponents) -> Scalar:
    """The one Scalar per monomial that the kernel returns, by exponents."""
    return Scalar({exps: 1})


_ONE = _shared_monomial(_ZERO_EXP)


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
def _rules_by_first_pair(level: AlgebraLevel, n: int) -> dict[Letters, tuple[Rule, ...]]:
    """
    The rules keyed by the first two letters of their pattern, in priority
    order.  Each rule must scale by a monomial of coefficient 1, so that a
    rewrite step is an addition of exponents (`reduce_word`).
    """
    index: dict[Letters, tuple[Rule, ...]] = {}
    for rule in rewrite_rules(level, n):
        if list(rule.scalar.terms.values()) != [1]:
            raise ValueError(
                f"rule {rule.pattern} scales by {rule.scalar}, not by a monomial of coefficient 1"
            )
        index[rule.pattern[:2]] = index.get(rule.pattern[:2], ()) + (rule,)
    return index


def _find_redex(level: AlgebraLevel, n: int, word: Letters) -> tuple[Letters, Scalar] | None:
    """
    One rewrite step of `word` as (shorter word, rule scalar), or None if
    the word is a basis index.  The first `len(word)` members of the class,
    walked breadth first from `word`, are searched for a rule pattern: the
    step rewrites the earliest member holding one, at the first position
    that holds one, with ties between rules at one position broken by
    priority.  Every pattern has two letters or more, so one dict probe per
    position (`_rules_by_first_pair`) finds the only rules that can match
    there, in priority order: the choice is that of trying every rule.
    When the word itself, the first member, holds no pattern, its heap is
    read once (`_heap_redex`): a basis index stops the search there, at
    one member.  Past the `len(word)` members, when the walk has already
    cost more than a heap pass, the step is built from that same reading,
    however deep the redex: a witness loses its trailing positions, since
    every replacement is a prefix of its pattern, and rigid blocks take
    `oblique_shortening_word`, times k.
    """
    index = _rules_by_first_pair(level, n)
    redex = None  # the empty word draws no member and is a basis index
    walk = islice(iter_commutation_class(n, word), len(word))
    for drawn, member in enumerate(walk, 1):
        for pos, pair in enumerate(zip(member, member[1:])):
            for rule in index.get(pair, ()):
                if member[pos : pos + len(rule.pattern)] == rule.pattern:
                    rest = member[pos + len(rule.pattern) :]
                    return member[:pos] + rule.replacement + rest, rule.scalar
        if drawn == 1:
            redex = _heap_redex(level, n, word)
            if redex is None:
                return None
    if redex is None:
        return None
    if isinstance(redex[0], tuple):  # rigid blocks, not witness positions
        return oblique_shortening_word(n, redex), K
    rule = _witness_rule(index, tuple([word[p] for p in redex]))
    drop = redex[len(rule.replacement) :]
    return tuple([a for p, a in enumerate(word) if p not in drop]), rule.scalar


def _heap_redex(level: AlgebraLevel, n: int, word: Letters) -> Letters | Blocks | None:
    """
    What one `heap_reading` of the word says at the level: None for a basis
    index, else what the rewrite step needs.  A word that is not reduced
    fully commutative, or at the two-boundary and blob levels one with a
    boundary triple, gives the witness positions of a chain or triple that
    some class member holds as a rule pattern.  A positive word that is not
    blobbed, at the blob level, gives its rigid blocks, which hold IJI or
    JIJ.  Any other word is a basis index: TL takes the reduced FC words,
    the two-boundary level the positive ones, the blob level the positive
    ones whose rigid blocks are blobbed.
    """
    state, witness = heap_reading(n, word)
    if witness and (state == HeapState.NOT_REDUCED_FC or level != AlgebraLevel.TL):
        return witness
    if level == AlgebraLevel.SYMPLECTIC_BLOB and state == HeapState.POSITIVE:
        blocks = blocks_of_word(n, word)
        if not is_blobbed(n, blocks):
            return blocks
    return None


@lru_cache(maxsize=None)
def _reduce_canonical(n: int, word: Letters) -> tuple[Scalar, Letters]:
    """
    A miss of `_act`: a canonical blob-level word rewritten to (monomial,
    basis word).  A step adds its scalar's exponents (a monomial of
    coefficient 1: `_rules_by_first_pair`, and k for the blob step) to the
    tail's.  The memo keeps every intermediate, which the misses share:
    through `reduce_word`'s memo-free loop instead, blob products took
    0.083 ms at p50, not 0.048.  It stays finite, since its words are the
    rewrites of the (n + 1)·|B| basis words times a generator.
    """
    step = _find_redex(AlgebraLevel.SYMPLECTIC_BLOB, n, word)
    if step is None:
        return _ONE, word
    shorter, step_scalar = step
    assert len(shorter) < len(word), "rewrite steps must strictly shorten"
    scalar, final = _reduce_canonical(n, _canonical_word(n, shorter))
    (head,) = step_scalar.terms
    (tail,) = scalar.terms
    return _shared_monomial(tuple(map(add, head, tail))), final


@lru_cache(maxsize=None)
def _act(n: int, basis: Letters, g: int) -> tuple[Exponents, Letters]:
    """
    The blob basis word `basis` times the generator g, as (exponents of the
    monomial, basis word): one entry of the right regular representation of
    the blob quotient on its basis.  Rank n holds at most (n + 1)·|B| of
    them for the basis B = `sb_basis(n)`.  A miss is one whole-word
    reduction, so the table is the kernel's rewriting, remembered.
    """
    scalar, word = _reduce_canonical(n, _canonical_word(n, basis + (g,)))
    (exps,) = scalar.terms
    return exps, word


def _witness_rule(index: dict[Letters, tuple[Rule, ...]], pattern: Letters) -> Rule:
    """The rule of `index` (`_rules_by_first_pair`) whose pattern a heap witness spells."""
    for rule in index[pattern[:2]]:
        if rule.pattern == pattern:
            return rule
    raise AssertionError(f"no rule spells the witness {pattern}")


def _fold(level: AlgebraLevel, n: int, word: Letters) -> tuple[Scalar, Letters]:
    """
    `reduce_word` at TL or the two-boundary level: read the word from the
    left with `heap_reading`'s scanner (`words.scan_read`).  A letter that
    closes no chain, or a boundary triple at TL, is read.  Any other
    closure rewrites the witness to its rule's replacement, a prefix of
    it: the closing letter goes, and so does, for sts, stst and the
    two-boundary triples, the piece before it, which the scanner unreads
    back to, to read what followed again.  The word read is a basis index
    when the letters run out, and is canonicalised once.
    """
    index = _rules_by_first_pair(level, n)
    scan = new_scan(n, len(word))
    triples = [] if level == AlgebraLevel.TL else None
    exps = [0] * len(PARAMS)
    read: list[int] = []  # the letters read, then the next few of the word
    start = taken = 0
    while True:
        witness = scan_read(n, read, start, scan, triples)
        if witness is None:
            if taken == len(word):
                break
            # take the word on in runs as long as what is read, so that a
            # rewrite shifts no more letters than the scanner may read again
            run = word[taken : taken + len(read) + 1]
            start, taken = len(read), taken + len(run)
            read += run
            continue
        rule = _witness_rule(index, tuple(map(read.__getitem__, witness)))
        (head,) = rule.scalar.terms
        exps[:] = map(add, exps, head)
        # the replacement is a prefix of the witness: the closing letter
        # goes, and for every rule but ss so does the piece before it, from
        # which the scanner reads again
        end = witness[-1]
        del read[end]
        start = witness[len(rule.replacement)]
        if start < end:
            scan_drop(read, start, end, scan)
            del read[start]
    return _shared_monomial(tuple(exps)), _canonical_word(n, read)


def reduce_word(level: AlgebraLevel, n: int, word: Letters) -> tuple[Scalar, Letters]:
    """
    Rewrite a product of generators to (parameter monomial, canonical basis
    word) under the level's relations.

    The TL and two-boundary index sets are infinite, so there the word is
    read from the left by the heap scanner (`_fold`), with no memo, no
    recursion and no class walk, and a word of any length reduces: a letter
    costs O(1) unless its rewrite drops a piece before it, which costs the
    letters read again after that piece.  The blob level is
    finite-dimensional, so its word is folded from the left through `_act`,
    one table lookup per letter, whose misses reduce one basis word times
    one generator; the table is bounded by the basis, and the fold keeps no
    prefixes.
    """
    if level != AlgebraLevel.SYMPLECTIC_BLOB:
        return _fold(level, n, check_word(n, word))
    exps = _ZERO_EXP
    basis = ()
    for g in check_word(n, word):
        step, basis = _act(n, basis, g)
        if step != _ZERO_EXP:
            exps = tuple(map(add, exps, step))
    return _shared_monomial(exps), basis


# ---------------------------------------------------------------------------
# basis elements and their products


def in_index_set(level: AlgebraLevel, n: int, word: Letters) -> bool:
    """
    Does the word index a basis monomial at this level, i.e. does no member
    of its commutation class hold a rule pattern of the level?  Read off the
    heap (`_heap_redex`): TL takes the reduced FC words, the two-boundary
    level those with no boundary triple (the positive elements), and the
    blob level those of them whose rigid blocks are blobbed.
    O(len(word) + n) before the row test of `is_blobbed`; a malformed word
    raises ValueError.
    """
    return _heap_redex(level, n, word) is None


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
        out = AlgebraElement(self.level, self.n)
        for (bx, cx), (by, cy) in product(self.terms.items(), other.terms.items()):
            scalar, bz = multiply(bx, by)
            out = out + AlgebraElement(self.level, self.n, {bz: cx * cy * scalar})
        return out

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
# quotient identities


def quotient_image_check(n: int, word: Letters) -> bool:
    """
    Check that a basis monomial of one level that leaves the index set of
    the next reduces there to the predicted multiple of its shortening
    image.  One `heap_state` of the word fixes the step.  A word with a
    boundary triple goes from TL into the two-boundary quotient, as `bar` of
    a non-left-positive FC element (times kL, or kL kR in its one flagged
    case) or `tilde` of a left- but not right-positive one (times kR).  A
    positive word goes from the two-boundary into the blob quotient, as
    `grids.oblique_shortening_word`, which refuses a blobbed one: one I J
    alternation fewer, times k.  `normal_form_of_word` refuses any other
    word, one that is not reduced FC, with ValueError.

    >>> quotient_image_check(2, (1, 0, 1))  # TL -> two-boundary, times kL
    True
    >>> quotient_image_check(2, (1, 2, 0, 1))  # two-boundary -> blob, times k
    True
    """
    word = check_word(n, word)
    state = heap_state(n, word)
    if state == HeapState.POSITIVE:
        level = AlgebraLevel.SYMPLECTIC_BLOB
        image_word = oblique_shortening_word(n, blocks_of_word(n, word))
        factor = K
    else:
        level = AlgebraLevel.TWO_BOUNDARY
        nf = normal_form_of_word(n, word)
        if state == HeapState.LEFT_TRIPLE:
            image, needs_kr = bar(n, nf)
            factor = KL * KR if needs_kr else KL
        else:
            image = tilde(n, nf)
            factor = KR
        image_word = word_of_normal_form(n, image)
    lhs_scalar, lhs_word = reduce_word(level, n, word)
    rhs_scalar, rhs_word = reduce_word(level, n, image_word)
    return lhs_word == rhs_word and lhs_scalar == factor * rhs_scalar


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
    It costs |B|^2 folds of |x| + |y| lookups in the generator action
    (`reduce_word`), which itself takes at most (n + 1)·|B| reductions for
    the basis B.  In one fresh process each on a 2-vCPU VM with Python
    3.11.7, rank 4 (112,225 products) took 1.1 s and 35 MB peak RSS, rank 5
    (2,039,184 products) 24.5 s and 350 MB.
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
