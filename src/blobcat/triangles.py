"""
The classical Catalan triangle, its doubled-hypotenuse variant, the closed
binomial formula for the latter, and the 2-power weighted decompositions of
binomial coefficients into classical-triangle entries.

Both triangles are indexed from -1 and computed with exact integers.  The
classical one has c_{-1,-1} = 1 and zero elsewhere on its borders; the
doubled variant seeds its first two rows with the parity pattern 1,0,1,0,...
On and above the main diagonal the entries are closed: 1 on the diagonal and
0 beyond it for the classical triangle, and 2^i on the parity pattern for
the doubled one.  Below it, with m = (i - j)/2, both are read off the prefix
sums S of binomial row i: the ballot number C(i, m) - C(i, m-1), and the sum
of C(i, k) over m <= k <= i - m, which is 2^i - 2 S[m] because C(i, k) =
C(i, i - k).  So only the first half of each row is summed and kept, and
only the last few half rows are cached.  `blobbed_run` reads a strided run
of one doubled row at once, as the counts in `enumeration` need it.
"""

from __future__ import annotations

from functools import lru_cache
from math import comb

CLASSICAL = "classical"
BLOBBED = "blobbed"
KINDS = (CLASSICAL, BLOBBED)


def binomial(m: int, k: int) -> int:
    """Exact binomial coefficient, zero outside 0 <= k <= m."""
    if m < 0:
        raise ValueError("binomial needs a non-negative top index")
    if k < 0 or k > m:
        return 0
    return comb(m, k)


@lru_cache(maxsize=4)
def _row(i: int) -> tuple[int, ...]:
    """
    Prefix sums of the first half of binomial row i:
    S_k = C(i, 0) + ... + C(i, k-1) for k <= i//2 + 1, enough for every
    m = (i - j)/2 with j >= -1.
    """
    sums, c = [0], 1
    for k in range(i // 2 + 1):
        sums.append(sums[-1] + c)
        c = c * (i - k) // (k + 1)
    return tuple(sums)


def entry(kind: str, i: int, j: int) -> int:
    if kind not in KINDS:
        raise ValueError(f"unknown triangle kind {kind!r}")
    if not (type(i) is int and type(j) is int):  # bool is no index
        raise ValueError(f"triangle indices must be integers, got ({i!r}, {j!r})")
    # total: everything outside the bordered quadrant or off parity vanishes,
    # so identity sums never need boundary branches
    if i < -1 or j < -1 or (i + j) % 2:
        return 0
    m = (i - j) // 2
    if kind == BLOBBED:  # one entry of `blobbed_run`, read off S[m] alone
        return (1 << max(i, 0)) - (2 * _row(i)[m] if m > 0 else 0)
    if j >= i:
        return int(j == i)
    if j < 0:
        return 0  # column -1 below the diagonal: C(i, m) = C(i, m - 1) there
    S = _row(i)
    return S[m + 1] - 2 * S[m] + S[m - 1]


def blobbed_run(i: int, j0: int, count: int) -> list[int]:
    """
    The doubled entries (i, j0), (i, j0 + 2), ..., count of them, read off
    one half row: 0 off parity and left of column -1, 2^i on and past the
    diagonal, and 2^i - 2 S[m] with m = (i - j)/2 below it (0 in column -1).
    Indices are not checked; `entry` checks them for a single entry.
    """
    if i < -1 or (i + j0) % 2:
        return [0] * count
    top = 1 << max(i, 0)
    zeros = min(count, max(0, -j0 // 2))  # the columns left of -1
    # below the diagonal m falls by one per step, from the first column at or
    # past -1 down to 1 at j = i - 2
    m = (i - j0) // 2 - zeros
    below = min(count - zeros, max(m, 0))
    S = _row(i) if below else ()
    doubled = [top - 2 * s for s in S[m : m - below : -1]]
    return [0] * zeros + doubled + [top] * (count - zeros - below)


def classical_entry(i: int, j: int) -> int:
    return entry(CLASSICAL, i, j)


def blobbed_entry(i: int, j: int) -> int:
    return entry(BLOBBED, i, j)


def blobbed_closed(i: int, j: int) -> int:
    """Binomial-sum form, valid on and below the diagonal with equal parity."""
    if not 0 <= j <= i:
        raise ValueError(f"need 0 <= j <= i, got ({i}, {j})")
    if (i - j) % 2 != 0:
        raise ValueError(f"indices must share parity, got ({i}, {j})")
    return sum(binomial(i, k) for k in range((i - j) // 2, (i + j) // 2 + 1))


def central_binomial_decomposition(i: int) -> list[tuple[int, int, int]]:
    """
    Terms (k, 2^k, c_{2i-k-1,k-1}) whose weighted sum is the central
    binomial coefficient binom(2i, i).
    """
    if i < 1:
        raise ValueError("need i >= 1")
    return [(k, 2**k, classical_entry(2 * i - k - 1, k - 1)) for k in range(1, i + 1)]


def general_binomial_decomposition(i: int, j: int) -> list[tuple[int, int, int]]:
    """
    Terms (k, 2^(k-1), c_{2i-k-j,j+k-2}) whose weighted sum is binom(2i-j, i).
    """
    if not 1 <= j <= i:
        raise ValueError(f"need 1 <= j <= i, got ({i}, {j})")
    return [
        (k, 2 ** (k - 1), classical_entry(2 * i - k - j, j + k - 2))
        for k in range(1, i - j + 2)
    ]


def triangle_rows(kind: str, rows: int, cols: int) -> list[list[int]]:
    """Row-major slab of entries for i in 0..rows-1, j in 0..cols-1."""
    if kind not in KINDS:
        raise ValueError(f"unknown triangle kind {kind!r}")
    if not (type(rows) is int and type(cols) is int) or rows < 0 or cols < 0:
        raise ValueError("rows and cols must be non-negative integers")
    return [[entry(kind, i, j) for j in range(cols)] for i in range(rows)]
