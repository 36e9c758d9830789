"""
Rigid-block grids of positive elements: their obliques, the two alternating
boundary patterns, blobbedness, the blob step that drops one alternation,
and plain-text / SVG drawing.  Everything is a plain function of the rank n
and the rigid blocks; there is no grid object.

The grid of a rigid-block word <l_1,r_1>...<l_k,r_k> is the point set
{(i, j) : 1 <= i <= k, l_i <= j <= r_i}.  Columns carry generator identity
and never move; rows are only defined up to a common shift, so containment
quantifies over vertical translates.  Each row is an interval, so pattern
containment is decided row by row on the blocks themselves: every row
interval of the pattern must lie inside the shifted row of the element.

Sweeping a line of slope -2 across the staircase drawing groups the points
by the value 2*i + j.  Two points of one group sit an even number of columns
apart, so each group is a word of pairwise commuting generators (an
oblique), and reading the obliques off in increasing sweep order spells a
reduced expression of the element.  The odd family I = s_1 s_3 s_5 ... and
the even family J = s_0 s_2 s_4 ... are the two full obliques.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Iterator

from .words import Letters, check_rank
from .normal_forms import Blocks, blocks_of_word, check_blocks


def i_word(n: int) -> Letters:
    """The odd-index commuting family s_1 s_3 s_5 ... as a word."""
    check_rank(n)
    return tuple(range(1, n + 1, 2))


def j_word(n: int) -> Letters:
    """The even-index commuting family s_0 s_2 s_4 ... as a word."""
    check_rank(n)
    return tuple(range(0, n + 1, 2))


def obliques(n: int, blocks: Blocks) -> tuple[Letters, ...]:
    """
    The sweep-line groups in increasing order of 2*row + column, each as its
    letters in increasing order.

    >>> obliques(2, iji_blocks(2))
    ((1,), (0, 2), (1,))
    """
    return _obliques(check_blocks(n, blocks))


def _obliques(blocks: Blocks) -> tuple[Letters, ...]:
    """`obliques` of blocks known to be valid."""
    groups: dict[int, list[int]] = {}
    for i, (l, r) in enumerate(blocks, start=1):
        for j in range(l, r + 1):
            groups.setdefault(2 * i + j, []).append(j)
    return tuple(tuple(sorted(groups[c])) for c in sorted(groups))


@lru_cache(maxsize=None)
def iji_blocks(n: int) -> Blocks:
    """Rigid blocks of the alternating pattern I J I, read from its word."""
    i, j = i_word(n), j_word(n)
    return blocks_of_word(n, i + j + i)


@lru_cache(maxsize=None)
def jij_blocks(n: int) -> Blocks:
    """Rigid blocks of the alternating pattern J I J, read from its word."""
    i, j = i_word(n), j_word(n)
    return blocks_of_word(n, j + i + j)


def _contains(blocks: Blocks, pattern: Blocks) -> bool:
    """
    True iff some row shift t puts every row interval of `pattern` inside
    row t + i of `blocks`.  Rows are intervals and columns never move, so
    this is point-set containment of the grids under a vertical translate.
    One plain loop tests each shift from the pattern's first row down and
    breaks at the first row that sticks out.  The empty pattern fits at
    t = 0 of any element, `()` too; one taller than the element has no shift.
    """
    for t in range(len(blocks) - len(pattern) + 1):
        for i, (pl, pr) in enumerate(pattern, t):
            l, r = blocks[i]
            if pl < l or r < pr:
                break
        else:
            return True
    return False


def is_blobbed(n: int, blocks: Blocks) -> bool:
    """A positive element avoiding both alternating boundary patterns."""
    return _is_blobbed(n, check_blocks(n, blocks))


def _is_blobbed(n: int, blocks: Blocks) -> bool:
    """`is_blobbed` of blocks known to be valid."""
    return not _contains(blocks, iji_blocks(n)) and not _contains(blocks, jij_blocks(n))


def oblique_shortening_word(n: int, blocks: Blocks) -> Letters:
    """
    The image of a non-blobbed positive element under the blob step: its
    oblique word without the first full odd oblique I and the full even
    oblique J right after it.  This takes (IJ)^k I to (IJ)^{k-1} I and
    J I J to J, whichever pattern the element holds.

    >>> oblique_shortening_word(2, iji_blocks(2))
    (1,)
    >>> oblique_shortening_word(2, jij_blocks(2))
    (0, 2)
    """
    if is_blobbed(n, blocks):  # validates the blocks
        raise ValueError(f"a blobbed element has no alternation to drop: {blocks}")
    return _oblique_shortening_word(n, blocks)


def _oblique_shortening_word(n: int, blocks: Blocks) -> Letters:
    """`oblique_shortening_word` of blocks known to be valid and not blobbed."""
    sweep = _obliques(blocks)
    ij = (i_word(n), j_word(n))
    a = next((p for p in range(len(sweep) - 1) if sweep[p : p + 2] == ij), None)
    if a is None:
        raise ValueError(f"no full odd oblique followed by the even one in {blocks}")
    return tuple(x for ob in sweep[:a] + sweep[a + 2 :] for x in ob)


# ---------------------------------------------------------------------------
# rendering

CELL = 24  # px pitch of the SVG raster; rows stagger by half a cell


def _ascii_lines(n: int, blocks: Blocks) -> Iterator[str]:
    rows = len(blocks)
    width = 2 * (n + 1) + rows
    edge = "+" + "-" * width + "+"
    yield edge
    for i, (l, r) in enumerate(blocks, start=1):
        # the points of row i sit at columns 2j + rows - i, l <= j <= r
        lead, dots = 2 * l + rows - i, "* " * (r - l) + "*"
        yield "|" + " " * lead + dots + " " * (width - lead - len(dots)) + "|"
    yield edge


def _svg_lines(n: int, blocks: Blocks) -> Iterator[str]:
    rows = len(blocks)
    width = CELL * (n + 1) + (CELL // 2) * rows
    height = CELL * max(rows, 1)
    yield (
        '<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
        f'width="{width}" height="{height}" '
        f'viewBox="0 0 {width} {height}">'
    )
    for i, (l, r) in enumerate(blocks, start=1):
        for j in range(l, r + 1):
            cx = CELL * j + (CELL // 2) * (rows - i) + CELL // 2
            cy = CELL * i - CELL // 2
            yield f'<circle cx="{cx}" cy="{cy}" r="6" fill="black"/>'
    yield "</svg>"


def render_lines(n: int, blocks: Blocks, fmt: str) -> Iterator[str]:
    """
    The lines of the grid's drawing, one at a time, so that a caller can
    write a drawing larger than it could hold: one row per block in ASCII,
    one point per letter in SVG.  The blocks and format are checked before
    the first line.
    """
    check_blocks(n, blocks)
    if fmt == "ascii":
        return _ascii_lines(n, blocks)
    if fmt == "svg":
        return _svg_lines(n, blocks)
    raise ValueError(f"unknown format {fmt!r}; expected 'ascii' or 'svg'")


def render(n: int, blocks: Blocks, fmt: str) -> str:
    """Draw the grid of the blocks as one string: its lines, joined."""
    return "\n".join(render_lines(n, blocks, fmt))
