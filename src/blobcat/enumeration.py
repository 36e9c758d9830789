"""
Closed-form counts of positive and blobbed elements by affine length, the
auxiliary wing counts feeding them, the dimension polynomial of the largest
quotient, and brute-force block-enumeration oracles that validate every
formula by exhaustive generation.

All counts are exact integers.  The two halved quantities divide evenly;
this is asserted, never floored.
"""

from __future__ import annotations

from enum import Enum
from operator import mul
from typing import Iterator

from .grids import is_blobbed
from .normal_forms import Blocks
from .triangles import blobbed_entry
from .words import check_rank


class CountKind(Enum):
    A = "a"
    B = "b"
    D = "d"


def a_count(n: int, s: int) -> int:
    """Positive elements of affine length s: the (2n, 2s) doubled entry."""
    check_rank(n)
    if s < 0:
        raise ValueError("affine length must be non-negative")
    return blobbed_entry(2 * n, 2 * s)


def _exact_half(value: int) -> int:
    if value % 2:
        raise ValueError(f"expected an even count, got {value}")
    return value // 2


def i_t(n: int, t: int) -> int:
    """One-sided extension counts of the odd-ended pattern, t extra top dots."""
    check_rank(n)
    if t < 0:
        raise ValueError("t must be non-negative")
    return blobbed_entry(n, 2 * t) if n % 2 == 0 else blobbed_entry(n, 2 * t + 1)


def j_t(n: int, t: int) -> int:
    """One-sided extension counts of the even-ended pattern; exact halves."""
    check_rank(n)
    if t < 0:
        raise ValueError("t must be non-negative")
    if n % 2 == 0:
        return _exact_half(blobbed_entry(n + 1, 2 * t + 1))
    return _exact_half(blobbed_entry(n + 1, 2 * t))


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
    for every s <= length.
    """
    x = [i_t(n, t) for t in range(length)]
    y = [j_t(n, t) for t in range(length)]
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
    i_t and j_t (at s == 1 the square of one).  At one s this costs O(s)
    products, less than `blob_polynomial`'s whole convolutions, and it is the
    per-s oracle that `verify` checks the polynomial against
    (oracle:dim-polynomial).  The equivalent closed form in doubled-triangle
    entries (_d_closed) is checked against it by `verify` (oracle:d-forms).

    >>> d_count(4, 2), d_count(9, 4)
    (148, 221004)
    """
    check_rank(n)
    if s < 0:
        raise ValueError("affine length must be non-negative")
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


def _convolve(x: list[int], y: list[int]) -> list[int]:
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


def blob_polynomial(n: int) -> tuple[int, ...]:
    """
    Coefficients (b_n^0, ..., b_n^n) of the dimension polynomial, equal to
    b_count(n, s) for each s.  The wing sequences are built once, up to
    length n, and every d(s), 1 <= s <= n, is read off three convolutions of
    their complements.  With C = 2^n, mu_t = C - main_t and nu_t = C - other_t
    are non-negative, and zero from about t = n/2 on, where both wings reach
    C.  Substitute main = C - mu and other = C - nu into the wing sum
        d(s) = (main*main)[s-1] + (other*other)[s-2] - 2 (main*other)[s-2].
    The three terms carry s, s - 1 and -2(s - 1) copies of C^2, which sum to
    one; their C-weighted prefix sums, -2C(mu_0 + ... + mu_{s-1}),
    -2C(nu_0 + ... + nu_{s-2}) and +2C(mu_0 + ... + mu_{s-2} + nu_0 + ... +
    nu_{s-2}), sum to -2C mu_{s-1}.  So
        d(s) = C^2 - 2C mu[s-1] + (mu*mu)[s-1] + (nu*nu)[s-2] - 2 (mu*nu)[s-2],
    where an index out of range reads 0.  With the trailing zeros dropped,
    the three convolutions are three integer products of about half length:
    three binomial rows, O(n) triangle entries and three big-integer
    products in all.

    >>> blob_polynomial(2)
    (6, 10, 3)
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
        shifted(_convolve(mu, mu), 1),
        shifted(_convolve(nu, nu), 2),
        shifted(_convolve(mu, nu), 2),
    )
    d = [C * (C - 2 * u) + uu + vv - 2 * uv for u, uu, vv, uv in terms]
    d[0] = 0  # the formula holds from s = 1; nothing is excluded at s = 0
    return tuple(_blobbed(n, s, a_count(n, s), d[s]) for s in range(n + 1))


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
    Depth-first generation of all rigid-block forms with exactly s rows
    touching the last column, enforcing the block invariants incrementally.
    The rows touching the last column come first; below them the right ends
    strictly decrease, so the recursion is finite.  At rank 1 some lists
    spell no positive element (0,1,0 is a boundary triple, and every list
    but one from s = 2 on spells a word that is not reduced FC), so the
    rank-1 counts are counts of block lists.
    """
    check_rank(n)
    if s < 0:
        raise ValueError("affine length must be non-negative")

    def lefts(prev_l: int, rows: int) -> Iterator[tuple[int, ...]]:
        # non-increasing left ends with repeats only at 0
        if rows == 0:
            yield ()
            return
        for l in range(prev_l, -1, -1):
            nxt = l - 1 if l > 0 else 0
            for rest in lefts(nxt, rows - 1):
                yield (l,) + rest

    def tails(prev_l: int, prev_r: int) -> Iterator[Blocks]:
        yield ()
        for r in range(min(prev_r - 1, n - 1), -1, -1):
            for l in range(min(prev_l, r), -1, -1):
                nxt = l - 1 if l > 0 else 0
                for rest in tails(nxt, r):
                    yield ((l, r),) + rest

    if s == 0:
        yield from tails(n, n + 1)
        return
    for head_ls in lefts(n, s):
        head: Blocks = tuple((l, n) for l in head_ls)
        last_l = head_ls[-1]
        bound = last_l - 1 if last_l > 0 else 0
        for tail in tails(bound, n):
            yield head + tail


def oracle_positive_count(n: int, s: int) -> int:
    """Count rigid-block forms directly; must equal a_count."""
    return sum(1 for _ in iter_positive_blocks(n, s))


def oracle_blobbed_count(n: int, s: int) -> int:
    """Count rigid-block forms avoiding both patterns; must equal b_count."""
    return sum(1 for blocks in iter_positive_blocks(n, s) if is_blobbed(n, blocks))
