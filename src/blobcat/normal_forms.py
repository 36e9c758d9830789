"""
Canonical normal forms for fully commutative elements over the affine C
diagram, their generation by affine length, positivity, the bar and tilde
operators, and the rigid-block form of positive elements.

An element of affine length zero lives in the finite parabolic on indices
0..n-1 and is written as a product of brackets [l, g]:

    [l, g]  = s_l s_{l+1} ... s_g          for 0 <= l <= g
    [-x, g] = s_x s_{x-1} ... s_1 s_0 s_1 ... s_g   for 1 <= x <= g

Elements of positive affine length append descending/ascending runs through
the last generator; the four dataclasses below tag the shapes.  Positive
elements additionally carry the rigid-block form <l_1,r_1>...<l_k,r_k>.

The rank n == 1 case is degenerate (the two boundary patterns coincide):
its group is dihedral of order 8, so generation lists its one element of
affine length 2 directly, and the bar/tilde operators refuse the two
self-fixed elements.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import lru_cache
from typing import Iterator, Union

from .words import HeapState, Letters, _heads, affine_length, canonical_word, check_rank
from .words import check_word, heap_state
from .words import is_reduced_fc  # noqa: F401  kept as a binding the perfbench tracer wraps

# ---------------------------------------------------------------------------
# brackets and affine-length-zero forms


@dataclass(frozen=True)
class Bracket:
    """The factor [l, g]; a negative l encodes the descent through index 0."""

    l: int
    g: int

    def word(self) -> Letters:
        if self.l >= 0:
            return tuple(range(self.l, self.g + 1))
        return tuple(range(-self.l, 0, -1)) + (0,) + tuple(range(1, self.g + 1))

    def length(self) -> int:
        if self.l >= 0:
            return self.g - self.l + 1
        return -self.l + self.g + 1


BForm = tuple[Bracket, ...]


def check_bform(n: int, form: BForm) -> BForm:
    """
    Validate a finite-part normal form: strictly decreasing g's below n,
    |l| <= g, positive l's strictly decreasing, zeros only as a trailing
    block, a negative l only in the last bracket and exceeded by its
    predecessor.
    """
    check_rank(n)
    prev_g = n
    prev_l: int | None = None
    seen_zero = False
    for idx, br in enumerate(form):
        if not 0 <= br.g < prev_g:
            raise ValueError(f"bracket upper indices must decrease below {n}: {form}")
        if abs(br.l) > br.g:
            raise ValueError(f"bracket {br} violates |l| <= g")
        if br.l < 0:
            if idx != len(form) - 1 or seen_zero:
                raise ValueError(f"negative bracket only allowed last: {form}")
            if prev_l is not None and -br.l >= prev_l:
                raise ValueError(f"negative bracket too deep: {form}")
        elif br.l == 0:
            seen_zero = True
        else:
            if seen_zero or (prev_l is not None and br.l >= prev_l):
                raise ValueError(f"positive l's must strictly decrease: {form}")
        prev_g = br.g
        prev_l = br.l
    return form


def bform_word(form: BForm) -> Letters:
    out: list[int] = []
    for br in form:
        out.extend(br.word())
    return tuple(out)


def bform_is_negative(form: BForm) -> bool:
    return bool(form) and form[-1].l < 0


def iter_bforms(n: int) -> Iterator[BForm]:
    """All valid finite-part forms at rank n, identity first."""
    check_rank(n)

    def extend(prefix: tuple[Bracket, ...], prev_g: int, prev_l: int | None,
               seen_zero: bool) -> Iterator[BForm]:
        yield prefix
        for g in range(prev_g - 1, -1, -1):
            if seen_zero:
                ls: list[int] = [0]
            else:
                top = g if prev_l is None else min(g, prev_l - 1)
                ls = list(range(top, 0, -1)) + [0] + [-x for x in range(1, top + 1)]
            for l in ls:
                bracket = Bracket(l, g)
                if l < 0:
                    yield prefix + (bracket,)  # negative bracket terminates
                else:
                    yield from extend(prefix + (bracket,), g, l, l == 0)

    yield from extend((), n, None, False)


# ---------------------------------------------------------------------------
# normal forms with positive affine length


@dataclass(frozen=True)
class LengthZero:
    form: BForm


@dataclass(frozen=True)
class FirstType:
    i: int
    k: int
    f: int


@dataclass(frozen=True)
class SecondType:
    prefix: tuple[int, ...]
    k: int
    tail: BForm


@dataclass(frozen=True)
class DescentTail:
    """The inverted run ([h, n-1])^-1 after the single last-generator letter."""

    h: int


@dataclass(frozen=True)
class DescentZerosTail:
    """([z, n-1])^-1 [0, r_1] ... [0, r_m] with r_m < ... < r_1 < z."""

    z: int
    runs: tuple[int, ...]


LengthOneTail = Union[BForm, DescentTail, DescentZerosTail]


@dataclass(frozen=True)
class LengthOne:
    i: int
    v: LengthOneTail


NormalForm = Union[LengthZero, FirstType, SecondType, LengthOne]


def ascending_run(n: int, i: int) -> Letters:
    """Word of [i, n-1] for i in (-n, n]; i == n is the empty run."""
    return Bracket(i, n - 1).word() if i < n else ()


def descending_run(n: int, f: int) -> Letters:
    """Word of ([f, n-1])^-1 for f in (-n, n]: the ascending run reversed."""
    return ascending_run(n, f)[::-1]


def descent_bform(n: int, h: int) -> BForm:
    """([h, n-1])^-1 rewritten as a finite-part form (staircase brackets)."""
    if h == n:
        return ()
    if h >= 0:
        return tuple(Bracket(g, g) for g in range(n - 1, h - 1, -1))
    stair = tuple(Bracket(g, g) for g in range(n - 1, -h, -1))
    return stair + (Bracket(h, -h),)


def check_normal_form(n: int, nf: NormalForm) -> NormalForm:
    check_rank(n)
    if isinstance(nf, LengthZero):
        check_bform(n, nf.form)
        return nf
    if isinstance(nf, FirstType):
        if nf.k < 1 or not -n < nf.i <= n or not -n < nf.f <= n:
            raise ValueError(f"invalid first-type parameters {nf}")
        return nf
    if isinstance(nf, SecondType):
        p = len(nf.prefix)
        if nf.k < 0 or p > n or p + nf.k < 1:
            raise ValueError(f"invalid second-type parameters {nf}")
        for t, i in enumerate(nf.prefix):
            if t < p - 1:
                if not 0 < i <= n:
                    raise ValueError(f"prefix entries must be positive: {nf}")
                nxt = abs(nf.prefix[t + 1])
                if i <= nxt:
                    raise ValueError(f"prefix must strictly decrease: {nf}")
            else:
                if i == 0 or abs(i) > n:
                    raise ValueError(f"invalid last prefix entry: {nf}")
        if p and nf.prefix[-1] < 0:
            if nf.k != 0 or nf.tail or nf.prefix[-1] == -(n - 1):
                raise ValueError(f"negative last prefix entry constraints fail: {nf}")
        check_bform(n, nf.tail)
        if nf.k > 0 or p == 0:
            if any(br.l != 0 for br in nf.tail):
                raise ValueError(f"tail must be zero-runs when k > 0: {nf}")
        elif nf.prefix[-1] > 0 and nf.tail:
            if abs(nf.tail[0].l) >= nf.prefix[-1]:
                raise ValueError(f"tail must start below the prefix: {nf}")
        return nf
    if isinstance(nf, LengthOne):
        if not -n < nf.i <= n:
            raise ValueError(f"invalid length-one parameter {nf}")
        v = nf.v
        if nf.i > 0:
            if not isinstance(v, tuple):
                raise ValueError(f"length-one tail must be a bracket form: {nf}")
            check_bform(n, v)
            for j, br in enumerate(v, start=1):
                if br.l != n - j and br.l >= nf.i:
                    raise ValueError(f"tail bracket {br} incompatible with i={nf.i}")
        elif nf.i < 0:
            if not isinstance(v, DescentTail) or not -n < v.h <= n:
                raise ValueError(f"negative i requires a descent tail: {nf}")
        else:
            if isinstance(v, DescentTail):
                if not -n < v.h <= n:
                    raise ValueError(f"descent parameter out of range: {nf}")
            elif isinstance(v, DescentZerosTail):
                if not 0 < v.z <= n or not v.runs:
                    raise ValueError(f"invalid descent-zeros tail: {nf}")
                prev = v.z
                for r in v.runs:
                    if not 0 <= r < prev:
                        raise ValueError(f"runs must strictly decrease below z: {nf}")
                    prev = r
            else:
                raise ValueError(f"i == 0 requires a descent-style tail: {nf}")
        return nf
    raise TypeError(f"not a normal form: {nf!r}")


def word_of_normal_form(n: int, nf: NormalForm) -> Letters:
    check_normal_form(n, nf)
    if isinstance(nf, LengthZero):
        return bform_word(nf.form)
    if isinstance(nf, FirstType):
        out = list(ascending_run(n, nf.i))
        out.append(n)
        for _ in range(nf.k):
            out.extend(ascending_run(n, 1 - n))
            out.append(n)
        out.extend(descending_run(n, nf.f))
        return tuple(out)
    if isinstance(nf, SecondType):
        out = []
        for i in nf.prefix:
            out.extend(ascending_run(n, i))
            out.append(n)
        for _ in range(nf.k):
            out.extend(range(n))
            out.append(n)
        out.extend(bform_word(nf.tail))
        return tuple(out)
    out = list(ascending_run(n, nf.i))
    out.append(n)
    v = nf.v
    if isinstance(v, DescentTail):
        out.extend(descending_run(n, v.h))
    elif isinstance(v, DescentZerosTail):
        out.extend(descending_run(n, v.z))
        for r in v.runs:
            out.extend(range(0, r + 1))
    else:
        out.extend(bform_word(v))
    return tuple(out)


# ---------------------------------------------------------------------------
# generation by affine length


def _length_one_forms(n: int) -> Iterator[LengthOne]:
    bforms = tuple(iter_bforms(n))
    for i in range(n, 0, -1):
        for form in bforms:
            fits = all(br.l == n - j or br.l < i for j, br in enumerate(form, start=1))
            if fits and not _braids_into_run(n, i, form):
                yield LengthOne(i, form)
    for h in range(n, -n, -1):
        yield LengthOne(0, DescentTail(h))
    # z == 1 would spell the word of DescentTail(0)
    for z in range(n, 1, -1):
        for runs in _decreasing_runs(z - 1):
            yield LengthOne(0, DescentZerosTail(z, runs))
    for i in range(-1, -n, -1):
        for h in range(n, -n, -1):
            yield LengthOne(i, DescentTail(h))


def _braids_into_run(n: int, i: int, form: BForm) -> bool:
    """
    A last bracket [-x, g] with i <= x <= n - 2 whose leading x commutes left
    past every earlier letter and past n into the run [i, n-1]: the word then
    holds the braid x, x+1, x and is not reduced.
    """
    if not bform_is_negative(form):
        return False
    x = -form[-1].l
    return i <= x <= n - 2 and all(abs(a - x) > 1 for a in bform_word(form[:-1]))


def _decreasing_runs(top: int) -> Iterator[tuple[int, ...]]:
    """Nonempty strictly decreasing tuples with entries in 0..top."""

    def extend(prefix: tuple[int, ...], bound: int) -> Iterator[tuple[int, ...]]:
        for r in range(bound, -1, -1):
            yield prefix + (r,)
            yield from extend(prefix + (r,), r - 1)

    yield from extend((), top)


def _zero_run_tails(n: int) -> Iterator[BForm]:
    yield ()
    for runs in _decreasing_runs(n - 1):
        yield tuple(Bracket(0, r) for r in runs)


def _higher_length_forms(n: int, s: int) -> Iterator[NormalForm]:
    for i in range(n, -n, -1):
        for f in range(n, -n, -1):
            yield FirstType(i, s - 1, f)
    for p in range(0, min(n, s) + 1):
        k = s - p
        if p == 0:
            for tail in _zero_run_tails(n):
                yield SecondType((), k, tail)
            continue
        for head in itertools.combinations(range(n, 0, -1), p - 1):
            bound = head[-1] if head else n + 1
            for last in range(min(n, bound - 1), 0, -1):
                prefix = head + (last,)
                if k > 0:
                    for tail in _zero_run_tails(n):
                        yield SecondType(prefix, k, tail)
                else:
                    for tail in iter_bforms(n):
                        if tail and abs(tail[0].l) >= last:
                            continue
                        yield SecondType(prefix, 0, tail)
                    if last != n - 1 and last >= 1:
                        yield SecondType(head + (-last,), 0, ())


@lru_cache(maxsize=None)
def fc_forms(n: int, s: int) -> tuple[NormalForm, ...]:
    """All fully commutative elements of affine length s, one normal form each."""
    check_rank(n)
    if s < 0:
        raise ValueError("affine length must be non-negative")
    if s == 0:
        return tuple(LengthZero(f) for f in iter_bforms(n))
    if s == 1:
        return tuple(_length_one_forms(n))
    if n == 1:
        return (FirstType(1, 1, 1),) if s == 2 else ()
    return tuple(_higher_length_forms(n, s))


@lru_cache(maxsize=None)
def _forms_by_canonical_word(n: int, s: int) -> dict[Letters, NormalForm]:
    return {canonical_word(n, word_of_normal_form(n, nf)): nf for nf in fc_forms(n, s)}


def normal_form_of_word(n: int, word: Letters) -> NormalForm:
    """The normal form commutation-equivalent to `word`, found by its canonical word."""
    nf = _forms_by_canonical_word(n, affine_length(n, word)).get(canonical_word(n, word))
    if nf is None:
        raise ValueError(f"no normal form matches {word} (is it reduced and FC?)")
    return nf


# ---------------------------------------------------------------------------
# positivity


def _has_factor(word: Letters, factor: Letters) -> bool:
    k = len(factor)
    return any(word[p : p + k] == factor for p in range(len(word) - k + 1))


def is_left_positive(n: int, nf: NormalForm) -> bool:
    """The left boundary pattern s_1 s_0 s_1 is absent from the normal form."""
    return not _has_factor(word_of_normal_form(n, nf), (1, 0, 1))


def is_right_positive(n: int, nf: NormalForm) -> bool:
    """The right boundary pattern s_{n-1} s_n s_{n-1} is absent."""
    return not _has_factor(word_of_normal_form(n, nf), (n - 1, n, n - 1))


def is_positive(n: int, nf: NormalForm) -> bool:
    """No boundary triple in the heap of the normal form (`words.heap_state`)."""
    return heap_state(n, word_of_normal_form(n, nf)) == HeapState.POSITIVE


def classify_non_left_positive(n: int, nf: NormalForm) -> str | None:
    """
    The case tag of a non-left-positive element, or None when left-positive.
    Mirrors the structural classification used by the bar operator.
    """
    if isinstance(nf, FirstType):
        return "first_type"
    if isinstance(nf, SecondType):
        if nf.k == 0 and nf.prefix:
            if nf.prefix[-1] < 0 and not nf.tail:
                return "second_a"
            if nf.prefix[-1] > 0 and bform_is_negative(nf.tail):
                return "second_b"
        return None
    if isinstance(nf, LengthOne):
        if nf.i < 0:
            assert isinstance(nf.v, DescentTail)
            return "len1_a" if nf.v.h >= 0 else "len1_b"
        if nf.i == 0 and isinstance(nf.v, DescentTail) and nf.v.h < 0:
            return "len1_c"
        if nf.i > 0 and isinstance(nf.v, tuple) and bform_is_negative(nf.v):
            return "len1_d"
        return None
    return "negative" if bform_is_negative(nf.form) else None


def classify_left_not_right(n: int, nf: NormalForm) -> str | None:
    """Case tag (a/b/c) for left-positive elements that fail right-positivity."""
    if not isinstance(nf, LengthOne):
        return None
    if not is_left_positive(n, nf) or is_right_positive(n, nf):
        return None
    if 0 < nf.i < n and isinstance(nf.v, tuple):
        return "a"
    if nf.i == 0 and isinstance(nf.v, DescentTail):
        return "b"
    if nf.i == 0 and isinstance(nf.v, DescentZerosTail):
        return "c"
    return None


# ---------------------------------------------------------------------------
# the bar and tilde operators


def _flip_last_bracket(form: BForm) -> BForm:
    last = form[-1]
    return form[:-1] + (Bracket(-last.l, last.g),)


def bar(n: int, nf: NormalForm) -> tuple[NormalForm, bool]:
    """
    The shortening operator on non-left-positive elements.  Returns the image
    together with a flag marking the single case whose monomial identity
    carries an extra right-boundary coefficient.
    """
    case = classify_non_left_positive(n, nf)
    if case is None:
        raise ValueError(f"bar is only defined on non-left-positive elements: {nf}")
    if case == "first_type":
        assert isinstance(nf, FirstType)
        if nf.f < 0:
            return FirstType(nf.i, nf.k, -nf.f), False
        if nf.k == 1 and nf.f == n and nf.i == n:
            if n == 1:
                raise ValueError("bar is undefined on the rank-1 boundary braid")
            return SecondType((n, n - 1), 0, ()), False
        if nf.k > 1:
            return FirstType(nf.i, nf.k - 1, nf.f), True
        if nf.i > 0:
            return LengthOne(nf.i, descent_bform(n, nf.f)), True
        return LengthOne(nf.i, DescentTail(nf.f)), True
    if case == "second_a":
        assert isinstance(nf, SecondType)
        return SecondType(nf.prefix[:-1] + (-nf.prefix[-1],), 0, nf.tail), False
    if case == "second_b":
        assert isinstance(nf, SecondType)
        return SecondType(nf.prefix, 0, _flip_last_bracket(nf.tail)), False
    if case == "len1_a":
        assert isinstance(nf, LengthOne) and isinstance(nf.v, DescentTail)
        return LengthOne(-nf.i, descent_bform(n, nf.v.h)), False
    if case in ("len1_b", "len1_c"):
        assert isinstance(nf, LengthOne) and isinstance(nf.v, DescentTail)
        return LengthOne(nf.i, DescentTail(-nf.v.h)), False
    if case == "len1_d":
        assert isinstance(nf, LengthOne) and isinstance(nf.v, tuple)
        return check_normal_form(n, LengthOne(nf.i, _flip_last_bracket(nf.v))), False
    assert case == "negative" and isinstance(nf, LengthZero)
    return LengthZero(_flip_last_bracket(nf.form)), False


def tilde(n: int, nf: NormalForm) -> NormalForm:
    """The shortening operator on left-positive, non-right-positive elements."""
    case = classify_left_not_right(n, nf)
    if case is None:
        raise ValueError(
            f"tilde needs a left-positive element that fails right-positivity: {nf}"
        )
    assert isinstance(nf, LengthOne)
    if case == "a":
        v = nf.v
        assert isinstance(v, tuple)
        # end of the staircase prefix hugging the affine letter; a low tail
        # bracket can satisfy l == n - j by accident and must not count
        alpha = 0
        while alpha < len(v) and v[alpha].l == n - (alpha + 1):
            alpha += 1
        l_alpha = v[alpha - 1].l
        keep = v[alpha:]
        if nf.i <= l_alpha:
            head: BForm = (Bracket(nf.i, l_alpha),)
        else:
            head = tuple(Bracket(g, g) for g in range(nf.i, l_alpha - 1, -1))
        return check_normal_form(n, LengthZero(head + keep))
    if case == "b":
        v = nf.v
        assert isinstance(v, DescentTail)
        if v.h > 0:
            return LengthZero((Bracket(0, v.h),))
        if n == 1:
            raise ValueError("tilde is undefined on the rank-1 boundary braid")
        return LengthZero((Bracket(0, 1), Bracket(0, 0)))
    v = nf.v
    assert isinstance(v, DescentZerosTail)
    return LengthZero((Bracket(0, v.z),) + tuple(Bracket(0, r) for r in v.runs))


# ---------------------------------------------------------------------------
# rigid blocks of positive elements

Blocks = tuple[tuple[int, int], ...]


def check_blocks(n: int, blocks: Blocks) -> Blocks:
    """
    Validate the rigid-block form: both coordinate sequences non-increasing,
    l <= r, repeats in l only at 0 and in r only at n.
    """
    check_rank(n)
    prev_l, prev_r = n, n
    for idx, (l, r) in enumerate(blocks):
        if not 0 <= l <= r <= n:
            raise ValueError(f"block <{l},{r}> out of range at rank {n}")
        if idx:
            if l > prev_l or (l == prev_l and l != 0):
                raise ValueError(f"left ends must decrease (or repeat 0): {blocks}")
            if r > prev_r or (r == prev_r and r != n):
                raise ValueError(f"right ends must decrease (or repeat {n}): {blocks}")
        prev_l, prev_r = l, r
    return tuple(blocks)


def block_word(blocks: Blocks) -> Letters:
    out: list[int] = []
    for l, r in blocks:
        out.extend(range(l, r + 1))
    return tuple(out)


def blocks_affine_length(n: int, blocks: Blocks) -> int:
    return sum(1 for _, r in blocks if r == n)


def parse_blocks(text: str) -> Blocks:
    """Parse the "l:r,l:r,..." encoding; empty string is the identity."""
    text = text.strip()
    if not text:
        return ()
    out = []
    for part in text.split(","):
        try:
            l, r = part.split(":")
            out.append((int(l), int(r)))
        except ValueError as exc:
            raise ValueError(f"malformed block {part!r}") from exc
    return tuple(out)


def format_blocks(blocks: Blocks) -> str:
    return ",".join(f"{l}:{r}" for l, r in blocks)


def blocks_of_word(n: int, word: Letters) -> Blocks:
    """
    The rigid blocks of a positive element, read from any word of it: a
    greedy linear extension of the heap (see `words._heads`) split into
    maximal runs.  The current run <l, r> grows by r + 1 while that letter
    is minimal among the remaining occurrences; otherwise a new run starts
    at the largest minimal letter.  O(len(word) * n).  The word must be
    positive (`words.heap_state`); a reading that breaks the block rules
    raises ValueError.
    """
    word = check_word(n, word)
    heads, following = _heads(n, word)

    def minimal(a: int) -> bool:  # a is the letter plus one, as in `heads`
        return heads[a] < heads[a - 1] and heads[a] < heads[a + 1]

    runs: list[list[int]] = []
    for _ in range(len(word)):
        a = runs[-1][1] + 2 if runs else n + 2
        if a <= n + 1 and minimal(a):
            runs[-1][1] += 1
        else:
            a = next(a for a in range(n + 1, 0, -1) if minimal(a))
            runs.append([a - 1, a - 1])
        heads[a] = following[heads[a]]
    return check_blocks(n, tuple(map(tuple, runs)))


def positive_blocks_of(n: int, nf: NormalForm) -> Blocks:
    """Split the normal form of a positive element into its rigid blocks."""
    word = word_of_normal_form(n, nf)
    if heap_state(n, word) != HeapState.POSITIVE:
        raise ValueError(f"rigid blocks exist only for positive elements: {nf}")
    return blocks_of_word(n, word)


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
