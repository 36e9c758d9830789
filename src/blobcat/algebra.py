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
shared `Scalar` per monomial instead of a new one per step.  A redex is
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
of the level.  There is one rewrite order; `verify.check_confluence`
reduces factors first to test that it does not matter.

At rank 1 the two boundary pairs coincide; overlapping rules are resolved by
fixed priority (blob rules first, then the left boundary), which keeps the
kernel deterministic there, though not confluent at the two-boundary level.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import IntEnum
from functools import lru_cache
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
    heap_reading,
    heap_state,
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

# the one Scalar per monomial that `_reduce_canonical` returns, by exponents
_MONOMIALS: dict[Exponents, Scalar] = {}


def _shared_monomial(exps: Exponents) -> Scalar:
    scalar = _MONOMIALS.get(exps)
    if scalar is None:
        scalar = _MONOMIALS[exps] = Scalar({exps: 1})
    return scalar


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
    rewrite step is an addition of exponents (`_reduce_canonical`).
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
    pattern = tuple([word[p] for p in redex])
    (rule,) = [r for r in index[pattern[:2]] if r.pattern == pattern]
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
def _reduce_canonical(level: AlgebraLevel, n: int, word: Letters) -> tuple[Scalar, Letters]:
    """
    `reduce_word` on a canonical word.  Every step scalar is a monomial of
    coefficient 1 (`_rules_by_first_pair`, and k for the blob step), so a
    step adds its exponents to the tail's and returns the shared Scalar of
    the sum.
    """
    step = _find_redex(level, n, word)
    if step is None:
        return _ONE, word
    shorter, step_scalar = step
    assert len(shorter) < len(word), "rewrite steps must strictly shorten"
    scalar, final = _reduce_canonical(level, n, _canonical_word(n, shorter))
    (head,) = step_scalar.terms
    (tail,) = scalar.terms
    return _shared_monomial(tuple(map(add, head, tail))), final


def reduce_word(level: AlgebraLevel, n: int, word: Letters) -> tuple[Scalar, Letters]:
    """
    Rewrite a product of generators to (parameter monomial, canonical basis
    word) under the level's relations.  Each step walks at most `len(word)`
    class members and reads the heap at most once (`_find_redex`), so a
    deep redex costs no walk of its class, however large.  The last search,
    on the basis word, reads one member and one heap pass, so a word that
    is already a basis index costs O(length + rank) past its canonical word
    (and, at the blob level, the row test of `is_blobbed`).  One limit
    remains: it recurses once per rewrite, so under the default recursion
    limit a word needing ~500 rewrites, e.g. `(1,) * 499` at rank 2, raises
    RecursionError.
    """
    return _reduce_canonical(level, n, canonical_word(n, word))


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


def quotient_image_check(
    level_from: AlgebraLevel, level_to: AlgebraLevel, n: int, word: Letters
) -> bool:
    """
    Check that a basis monomial of `level_from` that leaves the index set of
    `level_to` reduces there to the predicted multiple of its shortening
    image.  Into the two-boundary quotient the image is `bar` of a
    non-left-positive element (times kL, or kL kR in its one flagged case)
    or `tilde` of a left- but not right-positive one (times kR), as the
    word's `heap_state` says.  Into the blob quotient it is
    `grids.oblique_shortening_word` of a non-blobbed positive element: one
    I J alternation fewer, times k.
    """
    word = check_word(n, word)
    if not in_index_set(level_from, n, word):
        raise ValueError(f"{word} is not a basis word at level {level_from.name}")
    if in_index_set(level_to, n, word):
        raise ValueError(f"{word} stays a basis word at level {level_to.name}")
    if (level_from, level_to) == (AlgebraLevel.TL, AlgebraLevel.TWO_BOUNDARY):
        nf = normal_form_of_word(n, word)
        if heap_state(n, word) == HeapState.LEFT_TRIPLE:
            image, needs_kr = bar(n, nf)
            factor = KL * KR if needs_kr else KL
        else:
            image = tilde(n, nf)
            factor = KR
        image_word = word_of_normal_form(n, image)
    elif (level_from, level_to) == (
        AlgebraLevel.TWO_BOUNDARY,
        AlgebraLevel.SYMPLECTIC_BLOB,
    ):
        image_word = oblique_shortening_word(n, blocks_of_word(n, word))
        factor = K
    else:
        raise ValueError("supported steps: TL->TWO_BOUNDARY, TWO_BOUNDARY->SYMPLECTIC_BLOB")
    lhs_scalar, lhs_word = reduce_word(level_to, n, word)
    rhs_scalar, rhs_word = reduce_word(level_to, n, image_word)
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
    It costs |B|^2 reductions for the basis B: rank 4 (112,225 products)
    takes about 1.7 s; rank 5 (2,039,184 products) would take minutes, an
    estimate not yet run.
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
    """The table as JSON-ready records {x, y, scalar, z} (word text encoding)."""
    from .words import format_word

    return [
        {
            "x": format_word(xw),
            "y": format_word(yw),
            "scalar": str(scalar),
            "z": format_word(zw),
        }
        for (xw, yw), (scalar, zw) in sorted(structure_constants(n).items())
    ]
