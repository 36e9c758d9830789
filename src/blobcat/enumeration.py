"""
Closed-form counts of positive and blobbed elements by affine length, the
auxiliary wing counts feeding them, the dimension polynomial of the largest
quotient, and brute-force block-enumeration oracles that validate every
formula by exhaustive generation.

All counts are exact integers.  The two halved quantities divide evenly;
this is asserted, never floored.
"""

from __future__ import annotations

from collections.abc import Iterator
from enum import Enum
from math import comb
from operator import mul

from .grids import is_blobbed
from .normal_forms import Blocks, _preorder
from .triangles import blobbed_entry, blobbed_run
from .words import check_affine_length, check_rank


class CountKind(Enum):
    A = "a"
    B = "b"
    D = "d"


def a_count(n: int, s: int) -> int:
    """
    Positive elements of affine length s: the (2n, 2s) doubled entry, the
    diagonal entry (2n, 2n) = 2^(2n) less 2 (C(2n, 0) + ... + C(2n, m - 1))
    with m = n - s, and the diagonal entry itself when m <= 0.  The terms
    are summed here by the recurrence of `triangles._row`, with no half row
    built or cached.  Up to m = s the sum takes its m terms; past it, the
    symmetry of the row gives it as (2^(2n) - C(2n, n)) / 2 less
    C(2n, m) + ... + C(2n, n - 1), s terms from one `math.comb`, on which
    the recurrence ends at C(2n, n).  So a count near the diagonal or far
    below it costs a few terms at any rank.
    """
    check_rank(n)
    check_affine_length(s)
    diagonal, m = blobbed_entry(2 * n, 2 * n), n - s
    lo, hi = (0, m) if m <= s else (m, n)
    total, c = 0, comb(2 * n, lo)
    for k in range(lo, hi):
        total += c
        c = c * (2 * n - k) // (k + 1)
    if m > s:  # c is now C(2n, n)
        total = _exact_half(diagonal - c) - total
    return diagonal - 2 * total


def _exact_half(value: int) -> int:
    if value % 2:
        raise ValueError(f"expected an even count, got {value}")
    return value // 2


def _d_closed(n: int, s: int) -> int:
    C = blobbed_entry
    if n % 2 == 0:
        total = 0
        for k in range(s - 1):
            total += C(n, 2 * k) * (C(n, 2 * (s - 1 - k)) - C(n + 1, 2 * (s - k) - 3))
            total += _exact_half(
                _exact_half(C(n + 1, 2 * k + 1) * C(n + 1, 2 * (s - k) - 3))
            )
        return total + C(n, 2 * (s - 1)) * C(n, 0)
    total = 0
    for k in range(s - 1):
        total += C(n, 2 * (s - k) - 3) * (C(n, 2 * k + 1) - C(n + 1, 2 * k))
    quarter = sum(C(n + 1, 2 * k) * C(n + 1, 2 * (s - 1 - k)) for k in range(s))
    return total + _exact_half(_exact_half(quarter))


def _wings(n: int, length: int) -> tuple[list[int], list[int]]:
    """
    The wing sequences i_t and j_t for t < length, as (main, other): main is
    i_t for even n and j_t for odd n.  Their prefixes of length s give d(s)
    for every s <= length.  Each is one run of a doubled row, which the
    tests read an entry at a time as the reference.
    """
    x = blobbed_run(n, n % 2, length)
    y = [_exact_half(v) for v in blobbed_run(n + 1, 1 - n % 2, length)]
    return (x, y) if n % 2 == 0 else (y, x)


def _wing_sum(wings: tuple[list[int], list[int]], s: int) -> int:
    """
    d(s) from the first s wing terms, 0 <= s <= len(main):
        sum main[k] main[s-1-k] + sum other[k] other[s-2-k]
            - 2 sum main[k] other[s-2-k].
    """
    main, other = wings
    m, o = main[:s], other[: max(s - 1, 0)]
    total = sum(map(mul, m, reversed(m))) + sum(map(mul, o, reversed(o)))
    return total - 2 * sum(map(mul, m, reversed(o)))


def d_count(n: int, s: int) -> int:
    """
    Positive elements of affine length s containing a boundary pattern: none
    at s == 0, all past s == n, else the wing sum over the first s terms of
    i_t and j_t (at s == 1 the square of one), read as two runs off the half
    rows n and n + 1.  At one s this costs O(s) products, less than
    `blob_polynomial`'s two whole squarings, and it is the per-s oracle that
    `verify` checks the polynomial against (oracle:dim-polynomial).  The
    equivalent closed form in doubled-triangle entries (_d_closed) is checked
    against it by `verify` (oracle:d-forms).

    >>> d_count(4, 2), d_count(9, 4)
    (148, 221004)
    """
    check_rank(n)
    check_affine_length(s)
    if s > n:
        return a_count(n, s)
    return _wing_sum(_wings(n, s), s)


def _blobbed(n: int, s: int, a: int, d: int) -> int:
    if d > a:
        raise AssertionError(f"excluded count exceeds total at (n={n}, s={s})")
    return a - d


def b_count(n: int, s: int) -> int:
    """Blobbed elements of affine length s."""
    return _blobbed(n, s, a_count(n, s), d_count(n, s))


def blob_polynomial(n: int) -> tuple[int, ...]:
    """
    Coefficients (b_n^0, ..., b_n^n) of the dimension polynomial, equal to
    b_count(n, s) for each s.  The wing sequences are built once, up to
    length n, and every d(s), 1 <= s <= n, is read off one integer made of
    two squarings.  With C = 2^n, mu_t = C - main_t and nu_t = C - other_t
    are non-negative, and zero from about t = n/2 on, where both wings reach
    C.  Substitute main = C - mu and other = C - nu into the wing sum
        d(s) = (main*main)[s-1] + (other*other)[s-2] - 2 (main*other)[s-2].
    The three terms carry s, s - 1 and -2(s - 1) copies of C^2, which sum to
    one; their C-weighted prefix sums, -2C(mu_0 + ... + mu_{s-1}),
    -2C(nu_0 + ... + nu_{s-2}) and +2C(mu_0 + ... + mu_{s-2} + nu_0 + ... +
    nu_{s-2}), sum to -2C mu_{s-1}.  So
        d(s) = C^2 - 2C mu[s-1] + (mu*mu)[s-1] + (nu*nu)[s-2] - 2 (mu*nu)[s-2],
    where an index out of range reads 0.  As polynomials P = sum mu_t x^t and
    Q = sum nu_t x^t, with Q^2 - 2PQ = (Q - P)^2 - P^2, the d(s) are the
    coefficients of x^s, s <= n, in
        D = x (C^2 (1 + x + ... + x^(n-1)) - 2C P + P^2) + x^2 ((Q - P)^2 - P^2).
    D is evaluated once at x = 2^w, w = 8 ((2n + 8) // 8) > 2n + 1: mu and
    nu are packed into w-bit fields, whose trailing zeros vanish from the
    integers, the C-multiples are shifts, and the only products are the
    squarings P^2 and (Q - P)^2.  Evaluation is a ring map, and each d(s),
    s <= n, lies in [0, 4^n] (it is at most a(s), at most 4^n), inside one
    field, so D mod 2^(w (n + 1)) holds exactly d(0), ..., d(n) in its fields;
    the higher terms, some negative, are multiples of 2^(w (n + 1)) and fall
    away under the mask.  The wings and the a-column (a_count(n, s) for every
    s) are three runs of doubled entries, read off the half rows n, n + 1 and
    2n: three half rows and two big-integer squarings in all.

    >>> blob_polynomial(2)
    (6, 10, 3)
    """
    check_rank(n)
    main, other = _wings(n, n)
    C, width = 1 << n, (2 * n + 8) // 8  # bytes per field
    w = 8 * width

    def pack(wing: list[int]) -> int:
        return int.from_bytes(b"".join((C - v).to_bytes(width, "little") for v in wing), "little")

    P, Q = pack(main), pack(other)
    P2 = P * P
    repunit = int.from_bytes((b"\x01" + bytes(width - 1)) * n, "little")
    D = ((repunit << 2 * n) - (P << n + 1) + P2 + (((Q - P) ** 2 - P2) << w)) << w
    raw = (D & ((1 << w * (n + 1)) - 1)).to_bytes(width * (n + 1), "little")
    d = [int.from_bytes(raw[k : k + width], "little") for k in range(0, len(raw), width)]
    a = blobbed_run(2 * n, 0, n + 1)  # a_count(n, s) for every s
    return tuple(_blobbed(n, s, a[s], d[s]) for s in range(n + 1))


def p_dim(n: int) -> int:
    """
    Dimension of the largest quotient: the value of the polynomial at 1.

    >>> p_dim(3)
    84
    """
    return sum(blob_polynomial(n))


COUNTS = {
    CountKind.A: a_count,
    CountKind.B: b_count,
    CountKind.D: d_count,
}


# ---------------------------------------------------------------------------
# exhaustive block oracles


def iter_positive_blocks(n: int, s: int) -> Iterator[Blocks]:
    """
    All rigid-block forms with exactly s rows touching the last column, as
    one pre-order walk (`normal_forms._preorder`) that enforces the block
    invariants row by row.  The first s rows end at r = n; each later row
    ends below the row before, so the walk is finite.  Each left end l is at
    most r and at most the previous row's l - 1, or 0 after an l of 0.  A
    list is yielded once it holds s rows, before its extensions, and the
    walk keeps no frame per row, so a list of any length comes.  At rank 1
    some lists spell no positive element (0,1,0 is a boundary triple, and
    every list but one from s = 2 on spells a word that is not reduced FC),
    so the rank-1 counts are counts of block lists.
    """
    check_rank(n)
    check_affine_length(s)

    def children(prefix: Blocks) -> Iterator[Blocks]:
        last_l, last_r = prefix[-1] if prefix else (n + 1, n)  # the root bounds l by n
        cap = last_l - 1 if last_l else 0
        for r in (n,) if len(prefix) < s else range(last_r - 1, -1, -1):
            for l in range(min(cap, r), -1, -1):
                yield prefix + ((l, r),)

    return (blocks for blocks in _preorder((), children) if len(blocks) >= s)


def oracle_positive_count(n: int, s: int) -> int:
    """Count rigid-block forms directly; must equal a_count."""
    return sum(1 for _ in iter_positive_blocks(n, s))


def oracle_blobbed_count(n: int, s: int) -> int:
    """Count rigid-block forms avoiding both patterns; must equal b_count."""
    return sum(1 for blocks in iter_positive_blocks(n, s) if is_blobbed(n, blocks))
