"""
Canonical normal forms for fully commutative elements over the affine C
diagram, their generation by affine length, positivity, the bar and tilde
operators, and the rigid-block form of positive elements.

An element of affine length zero lives in the finite parabolic on indices
0..n-1 and is written as a product of brackets [l, g]:

    [l, g]  = s_l s_{l+1} ... s_g          for 0 <= l <= g
    [-x, g] = s_x s_{x-1} ... s_1 s_0 s_1 ... s_g   for 1 <= x <= g

Elements of positive affine length append descending/ascending runs through
the last generator; the four record classes below tag the shapes.  Positive
elements additionally carry the rigid-block form <l_1,r_1>...<l_k,r_k>.

The rank n == 1 case is degenerate (both end pairs are {0, 1}): its group
is dihedral of order 8, so generation lists its one element of affine
length 2 directly, and the bar/tilde operators refuse the two self-fixed
elements.

Reading a normal form off a word (`words._normal_word`): each form spells the
lexicographically greatest member of its commutation class.  By Anisimov and
Knuth (1979), order reversed, a word is the greatest iff, going left from any
letter a, every letter before the first of a - 1, a, a + 1 exceeds a.  Forms
spell chains of +1 and -1 runs, so only a run's first letter needs the test,
and a run starting at 0 passes.  FirstType runs all join by neighbours.  In
LengthZero and bracket tails a bracket starts below the l of every earlier
bracket or on the staircase n - j right after n - j + 1, and [i, n-1] holds
larger letters only, or x + 1 for a negative one at x >= i.  A SecondType prefix
run starts below the previous entry and the tail below the last one.  Descent
tails follow n with n - 1.  This sketch leans on every generator constraint
and does not show that the reader picks the generated shape; the tests check
that on every form at ranks 1-6 and affine lengths 0-4.  A form is valid iff
it is the normal form of the word it spells (`check_normal_form`).

The rigid blocks of a positive element are the maximal +1 runs of the same
greatest member.  Block lefts and rights never increase, so every letter left
above the next letter b of the block word first occurs after b in b's block,
above b in the heap: b is the largest minimal letter.  No block starts at
r + 1 of the one before (l_{k+1} <= l_k <= r_k), so no two blocks merge.
"""

from __future__ import annotations

import itertools
from collections import namedtuple
from collections.abc import Callable, Iterator
from functools import lru_cache

from .words import HeapState, Letters, Record, _normal_word, _parse_int, check_affine_length
from .words import check_rank, check_word, heap_state
from .words import is_reduced_fc  # noqa: F401  kept as a binding the perfbench tracer wraps

# ---------------------------------------------------------------------------
# brackets and affine-length-zero forms


class Bracket(Record, namedtuple("Bracket", "l g")):
    """The factor [l, g]; a negative l encodes the descent through index 0."""

    __slots__ = ()

    def word(self) -> Letters:
        if self.l >= 0:
            return tuple(range(self.l, self.g + 1))
        return tuple(range(-self.l, 0, -1)) + (0,) + tuple(range(1, self.g + 1))


BForm = tuple[Bracket, ...]


def bform_word(form: BForm) -> Letters:
    out: list[int] = []
    for br in form:
        out.extend(br.word())
    return tuple(out)


def bform_is_negative(form: BForm) -> bool:
    return bool(form) and form[-1].l < 0


def _preorder(root: tuple, children: Callable[[tuple], Iterator[tuple]]) -> Iterator[tuple]:
    """
    The tree at root in pre-order: each node before its children, which come
    in the order children(node) gives them.  A stack holds one children
    iterator per level, so nothing recurses, and each node is yielded from
    this one frame at any depth (Nijenhuis and Wilf, *Combinatorial
    Algorithms*, 1978).
    """
    stack = [iter((root,))]
    while stack:
        for node in stack[-1]:
            yield node
            stack.append(children(node))
            break
        else:
            stack.pop()


def _bracket_dfs(n: int, keep: Callable[[int, int, int], bool]) -> Iterator[BForm]:
    """
    The finite-part forms at rank n whose every bracket [l, g], at position j
    from 1, passes keep(j, l, g), identity first, in pre-order.  A failing
    bracket is skipped with every form that extends it, so no form is built
    only to be filtered out.  Each g is below the previous one, each |l| below
    the previous l, or l is 0 after an l of 0, and a negative bracket ends the
    form.  The walk keeps no frame per bracket, so a form of any length comes.
    """

    def children(prefix: BForm) -> Iterator[BForm]:
        last_l, prev_g = (prefix[-1].l, prefix[-1].g) if prefix else (n + 1, n)
        # after a negative bracket cap < -1 leaves no l, so it ends the form
        j, cap = len(prefix) + 1, last_l - 1 if last_l else 0
        for g in range(prev_g - 1, -1, -1):
            top = min(g, cap)
            for l in range(top, -top - 1, -1):
                if keep(j, l, g):
                    yield prefix + (Bracket(l, g),)

    return _preorder((), children)


def iter_bforms(n: int) -> Iterator[BForm]:
    """All valid finite-part forms at rank n, identity first, in DFS pre-order, as a lazy stream."""
    check_rank(n)
    yield from _bracket_dfs(n, lambda j, l, g: True)


# ---------------------------------------------------------------------------
# normal forms with positive affine length


class LengthZero(Record, namedtuple("LengthZero", "form")):
    """form: BForm."""

    __slots__ = ()


class FirstType(Record, namedtuple("FirstType", "i k f")):
    """i, k, f: int."""

    __slots__ = ()


class SecondType(Record, namedtuple("SecondType", "prefix k tail")):
    """prefix: tuple[int, ...]; k: int; tail: BForm."""

    __slots__ = ()


class DescentTail(Record, namedtuple("DescentTail", "h")):
    """The inverted run ([h, n-1])^-1 after the single last-generator letter."""

    __slots__ = ()


class DescentZerosTail(Record, namedtuple("DescentZerosTail", "z runs")):
    """([z, n-1])^-1 [0, r_1] ... [0, r_m] with r_m < ... < r_1 < z."""

    __slots__ = ()


LengthOneTail = BForm | DescentTail | DescentZerosTail


class LengthOne(Record, namedtuple("LengthOne", "i v")):
    """i: int; v: LengthOneTail."""

    __slots__ = ()


NormalForm = LengthZero | FirstType | SecondType | LengthOne


def ascending_run(n: int, i: int) -> Letters:
    """Word of [i, n-1] for i in (-n, n]; i == n is the empty run."""
    return Bracket(i, n - 1).word() if i < n else ()


def descending_run(n: int, f: int) -> Letters:
    """Word of ([f, n-1])^-1 for f in (-n, n]: the ascending run reversed."""
    return ascending_run(n, f)[::-1]


def descent_bform(n: int, h: int) -> BForm:
    """([h, n-1])^-1 for 0 <= h <= n as a finite-part form: staircase brackets."""
    return tuple(Bracket(g, g) for g in range(n - 1, h - 1, -1))


def _word_of_normal_form(n: int, nf: NormalForm) -> Letters:
    """The word `nf` spells, without checking that `nf` is a normal form."""
    if isinstance(nf, LengthZero):
        return bform_word(nf.form)
    if isinstance(nf, FirstType):
        middle = (ascending_run(n, 1 - n) + (n,)) * nf.k
        return ascending_run(n, nf.i) + (n,) + middle + descending_run(n, nf.f)
    if isinstance(nf, SecondType):
        head = tuple(a for i in nf.prefix for a in ascending_run(n, i) + (n,))
        return head + (tuple(range(n)) + (n,)) * nf.k + bform_word(nf.tail)
    if not isinstance(nf, LengthOne):
        raise TypeError(f"not a normal form: {nf!r}")
    head = ascending_run(n, nf.i) + (n,)
    if isinstance(nf.v, DescentTail):
        return head + descending_run(n, nf.v.h)
    if isinstance(nf.v, DescentZerosTail):
        zeros = tuple(a for r in nf.v.runs for a in range(r + 1))
        return head + descending_run(n, nf.v.z) + zeros
    return head + bform_word(nf.v)


def word_of_normal_form(n: int, nf: NormalForm) -> Letters:
    """The word a normal form spells; ValueError if `nf` is not one (`check_normal_form`)."""
    word = _word_of_normal_form(n, nf)
    if normal_form_of_word(n, word) != nf:
        raise ValueError(f"{nf} is not a normal form at rank {n}")
    return word


def check_normal_form(n: int, nf: NormalForm) -> NormalForm:
    """
    Return `nf` if it is the normal form of the word it spells, else raise
    ValueError.  This round trip is the only validity rule.

    >>> check_normal_form(2, LengthOne(0, DescentTail(2)))
    LengthOne(i=0, v=DescentTail(h=2))
    >>> check_normal_form(2, SecondType((), 1, ()))
    Traceback (most recent call last):
    ...
    ValueError: SecondType(prefix=(), k=1, tail=()) is not a normal form at rank 2
    """
    word_of_normal_form(n, nf)
    return nf


# ---------------------------------------------------------------------------
# generation by affine length


def _length_one_forms(n: int) -> Iterator[LengthOne]:
    for i in range(n, 0, -1):
        # a negative last bracket [-x, g] with i <= x < n - j braids into the run
        fits = _bracket_dfs(n, lambda j, l, g: (l == n - j or l < i) and not i <= -l < n - j)
        yield from (LengthOne(i, form) for form in fits)
    for h in range(n, -n, -1):
        yield LengthOne(0, DescentTail(h))
    # z == 1 would spell the word of DescentTail(0); the empty tail is DescentTail(z)
    for z in range(n, 1, -1):
        for runs in itertools.islice(_bracket_dfs(n, lambda j, l, g: l == 0 and g < z), 1, None):
            yield LengthOne(0, DescentZerosTail(z, tuple(br.g for br in runs)))
    for i in range(-1, -n, -1):
        for h in range(n, -n, -1):
            yield LengthOne(i, DescentTail(h))


def _higher_length_forms(n: int, s: int) -> Iterator[NormalForm]:
    ends = range(n, -n, -1)
    yield from (FirstType(i, s - 1, f) for i, f in itertools.product(ends, repeat=2))
    for p in range(0, min(n, s) + 1):
        for prefix in itertools.combinations(range(n, 0, -1), p):
            if p < s:
                zero_runs = _bracket_dfs(n, lambda j, l, g: l == 0)
                yield from (SecondType(prefix, s - p, tail) for tail in zero_runs)
                continue
            last = prefix[-1]
            tails = _bracket_dfs(n, lambda j, l, g: j > 1 or abs(l) < last)
            yield from (SecondType(prefix, 0, tail) for tail in tails)
            if last != n - 1:
                yield SecondType(prefix[:-1] + (-last,), 0, ())


def iter_fc_forms(n: int, s: int) -> Iterator[NormalForm]:
    """All FC elements of affine length s, one normal form each, as a lazy stream.

    Every finite-part tail comes from one bracket DFS that skips a failing
    bracket with its subtree, so the first forms come at once at any rank,
    and no form is built only to be filtered out.

    >>> next(iter_fc_forms(10, 3))
    FirstType(i=10, k=2, f=10)
    >>> list(iter_fc_forms(1, 2))
    [FirstType(i=1, k=1, f=1)]
    """
    check_rank(n)
    check_affine_length(s)
    if s == 0:
        return (LengthZero(f) for f in iter_bforms(n))
    if s == 1:
        return _length_one_forms(n)
    if n == 1:
        return iter([FirstType(1, 1, 1)] if s == 2 else [])
    return _higher_length_forms(n, s)


@lru_cache(maxsize=None)
def fc_forms(n: int, s: int) -> tuple[NormalForm, ...]:
    """`iter_fc_forms` as one cached tuple, for the oracles in tests and `verify`."""
    return tuple(iter_fc_forms(n, s))


# ---------------------------------------------------------------------------
# reading normal forms off a word


def _runs(word: Letters) -> list[tuple[int, int]]:
    """The maximal +1 runs of a word, each as (first letter, last letter)."""
    if not word:
        return []
    runs = []
    l = r = word[0]
    for a in word[1:]:
        if a == r + 1:
            r = a
        else:
            runs.append((l, r))
            l = r = a
    runs.append((l, r))
    return runs


def _read_bform(word: Letters) -> BForm:
    """
    The brackets of a finite-part word: its maximal +1 runs, except that a last
    run 0 .. g after the singletons x, ..., 2, 1 with x <= g is [-x, g].
    """
    runs = _runs(word)
    x = 0
    if runs and runs[-1][0] == 0:
        while x < min(runs[-1][1], len(runs) - 1) and runs[-2 - x] == (x + 1, x + 1):
            x += 1
    if x:
        runs[-1 - x :] = [(-x, runs[-1][1])]
    return tuple(Bracket(l, g) for l, g in runs)


def normal_form_of_word(n: int, word: Letters) -> NormalForm:
    """
    The normal form of a reduced FC word's element, read off its greatest
    class member split at the letters n, where a run [i, n-1] or a descent
    ([f, n-1])^-1 has n - i or n - f letters.  O(len(word) + n).

    >>> normal_form_of_word(3, (0, 3, 1, 2))
    LengthOne(i=3, v=(Bracket(l=0, g=2),))
    >>> normal_form_of_word(2, (1, 0, 1, 0))
    Traceback (most recent call last):
    ...
    ValueError: (1, 0, 1, 0) is not a reduced fully commutative word
    """
    word = tuple(word)
    if heap_state(n, word) == HeapState.NOT_REDUCED_FC:
        raise ValueError(f"{word} is not a reduced fully commutative word")
    normal = _normal_word(n, word)
    cuts = [p for p, a in enumerate(normal) if a == n]
    segments = [normal[p + 1 : q] for p, q in zip([-1] + cuts, cuts + [len(normal)])]
    s, starts = len(cuts), [n - len(segment) for segment in segments]
    nf: NormalForm
    if s == 0:
        nf = LengthZero(_read_bform(normal))
    elif s == 1 and starts[0] > 0:
        nf = LengthOne(starts[0], _read_bform(segments[1]))
    elif s == 1 and segments[1] == descending_run(n, starts[1]):
        nf = LengthOne(starts[0], DescentTail(starts[1]))
    elif s == 1:  # ([z, n-1])^-1 with z >= 2, then zero runs from the first 0 on
        d = segments[1].index(0) if 0 in segments[1] else len(segments[1])
        runs = tuple(br.g for br in _read_bform(segments[1][d:]))
        nf = LengthOne(starts[0], DescentZerosTail(n - d, runs))
    elif segments[1] == ascending_run(n, 1 - n):
        nf = FirstType(starts[0], s - 1, starts[-1])
    else:
        p = next((t for t in range(s) if starts[t] == 0), s)
        nf = SecondType(tuple(starts[:p]), s - p, _read_bform(segments[-1]))
    if _word_of_normal_form(n, nf) != normal:
        raise ValueError(f"no normal form spells {normal}, the greatest word of {word}")
    return nf


# ---------------------------------------------------------------------------
# positivity and the bar and tilde operators


def is_positive(n: int, nf: NormalForm) -> bool:
    """No boundary triple in the heap of the normal form (`words.heap_state`)."""
    return heap_state(n, word_of_normal_form(n, nf)) == HeapState.POSITIVE


def _flip_last_bracket(form: BForm) -> BForm:
    last = form[-1]
    return form[:-1] + (Bracket(-last.l, last.g),)


def bar(n: int, nf: NormalForm) -> tuple[NormalForm, bool]:
    """
    The shortening operator on non-left-positive elements (`heap_state`
    LEFT_TRIPLE; elsewhere ValueError).  Returns the image together with a
    flag marking the single case whose monomial identity carries an extra
    right-boundary coefficient.  The domain is checked here, on the word
    the form spells, and so is the image; `_bar` is the operator on a form
    known to lie in it, and checks nothing.
    """
    if heap_state(n, word_of_normal_form(n, nf)) != HeapState.LEFT_TRIPLE:
        raise ValueError(f"bar is only defined on non-left-positive elements: {nf}")
    image, needs_kr = _bar(n, nf)
    return check_normal_form(n, image), needs_kr


def _bar(n: int, nf: NormalForm) -> tuple[NormalForm, bool]:
    """`bar` of a normal form whose heap state is LEFT_TRIPLE; the shapes below cover them."""
    match nf:
        case FirstType(i, k, f):
            if f < 0:
                return FirstType(i, k, -f), False
            if k == 1 and f == n and i == n:
                if n == 1:
                    raise ValueError("bar is undefined on the rank-1 boundary braid")
                return SecondType((n, n - 1), 0, ()), False
            if k > 1:
                return FirstType(i, k - 1, f), True
            if i > 0:
                return LengthOne(i, descent_bform(n, f)), True
            return LengthOne(i, DescentTail(f)), True
        case SecondType(prefix, 0, ()) if prefix and prefix[-1] < 0:
            return SecondType(prefix[:-1] + (-prefix[-1],), 0, ()), False
        case SecondType(prefix, 0, tail) if prefix and prefix[-1] > 0 and bform_is_negative(tail):
            return SecondType(prefix, 0, _flip_last_bracket(tail)), False
        case LengthOne(i, DescentTail(h)) if i < 0 and h >= 0:
            return LengthOne(-i, descent_bform(n, h)), False
        case LengthOne(i, DescentTail(h)) if i <= 0 and h < 0:
            return LengthOne(i, DescentTail(-h)), False
        # a record is a tuple too, so a BForm tail is told by its exact type
        case LengthOne(i, v) if type(v) is tuple and bform_is_negative(v):
            return LengthOne(i, _flip_last_bracket(v)), False
        case LengthZero(form) if bform_is_negative(form):
            return LengthZero(_flip_last_bracket(form)), False
    raise ValueError(f"bar is only defined on non-left-positive elements: {nf}")


def tilde(n: int, nf: NormalForm) -> NormalForm:
    """
    The shortening operator on left-positive, non-right-positive elements
    (`heap_state` RIGHT_TRIPLE; elsewhere ValueError).  Some forms outside
    the domain share the shapes that `_tilde` matches, so it is checked
    first, on the word the form spells, and the image after.
    """
    if heap_state(n, word_of_normal_form(n, nf)) != HeapState.RIGHT_TRIPLE:
        raise ValueError(f"tilde is only defined on left- but not right-positive elements: {nf}")
    return check_normal_form(n, _tilde(n, nf))


def _tilde(n: int, nf: NormalForm) -> NormalForm:
    """`tilde` of a normal form whose heap state is RIGHT_TRIPLE, unchecked."""
    match nf:
        case LengthOne(i, v) if type(v) is tuple and 0 < i < n:
            # end of the staircase prefix hugging the affine letter; a low
            # tail bracket can satisfy l == n - j by accident and must not count
            alpha = 0
            while alpha < len(v) and v[alpha].l == n - (alpha + 1):
                alpha += 1
            l_alpha = v[alpha - 1].l
            if i <= l_alpha:
                head: BForm = (Bracket(i, l_alpha),)
            else:
                head = tuple(Bracket(g, g) for g in range(i, l_alpha - 1, -1))
            return LengthZero(head + v[alpha:])
        case LengthOne(0, DescentTail(h)):
            if h > 0:
                return LengthZero((Bracket(0, h),))
            if n == 1:
                raise ValueError("tilde is undefined on the rank-1 boundary braid")
            return LengthZero((Bracket(0, 1), Bracket(0, 0)))
        case LengthOne(0, DescentZerosTail(z, runs)):
            return LengthZero((Bracket(0, z),) + tuple(Bracket(0, r) for r in runs))
    raise ValueError(f"tilde is only defined on left- but not right-positive elements: {nf}")


# ---------------------------------------------------------------------------
# rigid blocks of positive elements

Blocks = tuple[tuple[int, int], ...]


def check_blocks(n: int, blocks: Blocks) -> Blocks:
    """
    Validate the rigid-block form: both coordinate sequences non-increasing,
    l <= r, repeats in l only at 0 and in r only at n; returns them as a tuple.
    """
    check_rank(n)
    blocks = tuple(blocks)
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
    return blocks


def block_word(blocks: Blocks) -> Letters:
    out: list[int] = []
    for l, r in blocks:
        out.extend(range(l, r + 1))
    return tuple(out)


def parse_blocks(text: str) -> Blocks:
    """Parse the "l:r,l:r,..." encoding; empty string is the identity."""
    text = text.strip()
    if not text:
        return ()
    out = []
    for part in text.split(","):
        try:
            l, r = part.split(":")
            out.append((_parse_int(l), _parse_int(r)))
        except ValueError as exc:
            raise ValueError(f"malformed block {part!r}") from exc
    return tuple(out)


def format_blocks(blocks: Blocks) -> str:
    return ",".join(f"{l}:{r}" for l, r in blocks)


def blocks_of_word(n: int, word: Letters) -> Blocks:
    """
    The rigid blocks of a positive element, read from any word of it as the
    maximal +1 runs of its greatest class member, O(len(word) + n).  The
    word must be positive (`words.heap_state`); a reading that breaks the
    block rules raises ValueError.

    >>> blocks_of_word(3, (0, 1, 3, 2))
    ((3, 3), (0, 2))
    """
    return check_blocks(n, _blocks_of_word(n, check_word(n, word)))


def _blocks_of_word(n: int, word: Letters) -> Blocks:
    """`blocks_of_word` without the checks, for a word known to be valid."""
    return tuple(_runs(_normal_word(n, word)))


def positive_blocks_of(n: int, nf: NormalForm) -> Blocks:
    """Split the normal form of a positive element into its rigid blocks."""
    word = word_of_normal_form(n, nf)
    if heap_state(n, word) != HeapState.POSITIVE:
        raise ValueError(f"rigid blocks exist only for positive elements: {nf}")
    return blocks_of_word(n, word)
