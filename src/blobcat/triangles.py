"""
The classical Catalan triangle, its doubled-hypotenuse variant, the closed
binomial formula for the latter, and the 2-power weighted decompositions of
binomial coefficients into classical-triangle entries.

Both triangles are indexed from -1 and computed with exact integers.  The
classical one has c_{-1,-1} = 1 and zero elsewhere on its borders; the
doubled variant seeds its first two rows with the parity pattern 1,0,1,0,...
On and above the main diagonal the entries are closed: 1 on the diagonal and
0 beyond it for the classical triangle, and 2^i on the parity pattern for
the doubled one.  Below it, with m = (i - j)/2, both are read off binomial
row i: the ballot number C(i, m) - C(i, m-1), and the sum of C(i, k) over
m <= k <= i - m.  Only the last few rows are cached.
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
    """Prefix sums of binomial row i: S_k = C(i, 0) + ... + C(i, k-1), k <= i + 1."""
    sums, c = [0], 1
    for k in range(i + 1):
        sums.append(sums[-1] + c)
        c = c * (i - k) // (k + 1)
    return tuple(sums)


def entry(kind: str, i: int, j: int) -> int:
    if kind not in KINDS:
        raise ValueError(f"unknown triangle kind {kind!r}")
    if not (isinstance(i, int) and isinstance(j, int)):
        raise ValueError(f"triangle indices must be integers, got ({i!r}, {j!r})")
    # total: everything outside the bordered quadrant or off parity vanishes,
    # so identity sums never need boundary branches
    if i < -1 or j < -1 or (i + j) % 2:
        return 0
    if j >= i:
        return int(j == i) if kind == CLASSICAL else 2 ** max(i, 0)
    # below the diagonal; column -1 comes out 0 from both differences
    m, S = (i - j) // 2, _row(i)
    if kind == CLASSICAL:
        return S[m + 1] - 2 * S[m] + S[m - 1]
    return S[i - m + 1] - S[m]


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
    if not (isinstance(rows, int) and isinstance(cols, int)) or rows < 0 or cols < 0:
        raise ValueError("rows and cols must be non-negative integers")
    return [[entry(kind, i, j) for j in range(cols)] for i in range(rows)]
