"""
The classical Catalan triangle, its doubled-hypotenuse variant, the closed
binomial formula for the latter, and the 2-power weighted decompositions of
binomial coefficients into classical-triangle entries.

Both triangles are indexed from -1 and computed with exact integers.  The
classical one has c_{-1,-1} = 1 and zero elsewhere on its borders; the
doubled variant seeds its first two rows with the parity pattern 1,0,1,0,...
On and above the main diagonal the entries are closed: 1 on the diagonal and
0 beyond it for the classical triangle, and 2^i on the parity pattern for
the doubled one.  So each row is cached once, up to one step past the
diagonal, and every later entry is computed on demand.
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


def _beyond(kind: str, i: int, j: int) -> int:
    """C_{i,j} on and above the diagonal (j >= i), where no sum is needed."""
    if kind == CLASSICAL:
        return int(j == i)
    return 2 ** max(i, 0) if (i + j) % 2 == 0 else 0


@lru_cache(maxsize=None)
def _row(kind: str, i: int) -> tuple[int, ...]:
    """Entries (C_{i,-1}, ..., C_{i,i+1}); later ones come from _beyond."""
    if i == -1 or (kind == BLOBBED and i == 0):
        # the seeded rows: their whole parity pattern is the closed formula
        return tuple(_beyond(kind, i, j) for j in range(-1, i + 2))
    prev = _row(kind, i - 1) + (_beyond(kind, i - 1, i + 1), _beyond(kind, i - 1, i + 2))
    return (0,) + tuple(prev[j] + prev[j + 2] for j in range(i + 2))


# rows are built this many at a time, so building one never recurses deeply
_ROW_STEP = 256


def entry(kind: str, i: int, j: int) -> int:
    if kind not in KINDS:
        raise ValueError(f"unknown triangle kind {kind!r}")
    # total: everything outside the bordered quadrant vanishes, so identity
    # sums never need boundary branches
    if i < -1 or j < -1:
        return 0
    if j > i + 1:
        return _beyond(kind, i, j)
    for r in range(i % _ROW_STEP, i, _ROW_STEP):
        _row(kind, r)
    return _row(kind, i)[j + 1]


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
    if rows < 0 or cols < 0:
        raise ValueError("rows and cols must be non-negative")
    return [[entry(kind, i, j) for j in range(cols)] for i in range(rows)]
