"""
Rigid-block grids of positive elements: their obliques, the two alternating
boundary patterns, blobbedness, the blob step that drops one alternation,
and plain-text / SVG drawing.  Everything is a plain function of the rank n
and the rigid blocks, their columns or a word of them; there is no grid
object.

The grid of a rigid-block word <l_1,r_1>...<l_k,r_k> is the point set
{(i, j) : 1 <= i <= k, l_i <= j <= r_i}.  Columns carry generator identity
and never move; rows are only defined up to a common shift, so containment
quantifies over vertical translates.  Neither end of a block increases
from one row to the next, so each column is an interval of rows: column
j holds the rows from the first with l_i <= j to the last with r_i >= j.  So pattern
containment is decided column by column (`_columns_blobbed`), in O(n)
whatever the number of rows: the column intervals of the pattern, shifted
by one common t, must lie inside those of the element (Stembridge 1996
for heaps; the alternations I J I and J I J as in arXiv 1904.08351).

Sweeping a line of slope -2 across the staircase drawing groups the points
by the value 2*i + j, read off the columns (`_column_obliques`).  Two
points of one group sit an even number of columns apart, so each group is
a word of pairwise commuting generators (an oblique), and reading the
obliques off in increasing sweep order spells a reduced expression of the
element.  The odd family I = s_1 s_3 s_5 ... and the even family
J = s_0 s_2 s_4 ... are the two full obliques.  The blob step drops the
first I J from that reading (`_drop_ij`), and `_blob_step` is the one blob
test and step of a word.
"""

from __future__ import annotations

from collections.abc import Iterator
from functools import lru_cache
from operator import add

from .words import Columns, Letters, _word_columns, check_rank
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
    return _column_obliques(_block_columns(n, check_blocks(n, blocks)))


def _column_obliques(columns: Columns) -> tuple[Letters, ...]:
    """
    The obliques of the element whose columns these are: column j holds
    rows low[j] .. low[j] + count[j] - 1, and its cells are grouped by
    2*row + j, whose order no common row shift changes.  Columns are taken
    in increasing order, so each group's letters come sorted.
    """
    groups: dict[int, list[int]] = {}
    for j, (l, c) in enumerate(zip(*columns)):
        for row in range(l, l + c):
            groups.setdefault(2 * row + j, []).append(j)
    return tuple(tuple(groups[key]) for key in sorted(groups))


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


def _block_columns(n: int, blocks: Blocks) -> Columns:
    """The columns of valid blocks, rows counted from the first block;
    O(cells + n)."""
    low, count = [0] * (n + 1), [0] * (n + 1)
    for i, (l, r) in enumerate(blocks):
        for j in range(l, r + 1):
            if not count[j]:
                low[j] = i
            count[j] += 1
    return low, count


def _iji_length(n: int) -> int:
    """The letters of I J I, the shorter of the two alternations I J I and J I J."""
    return n + 1 + (n + 1) // 2


@lru_cache(maxsize=None)
def _pattern_columns(n: int) -> tuple[tuple[tuple[int, int], ...], ...]:
    """
    The columns of I J I and of J I J, read once from their blocks: per
    column, its first row and the row past its last.
    """
    patterns = []
    for blocks in (iji_blocks(n), jij_blocks(n)):
        low, count = _block_columns(n, blocks)
        patterns.append(tuple(zip(low, map(add, low, count))))
    return tuple(patterns)


def _columns_blobbed(n: int, columns: Columns) -> bool:
    """
    The one blob criterion, on the columns of a positive element
    (`words.Columns`).  Columns never move and each holds consecutive rows,
    in the element and in each pattern alike, so a pattern fits under the
    row shift t iff, in every column j, its rows PL(j) .. PR(j) shifted by
    t lie within the element's rows low[j] .. low[j] + count[j] - 1, that
    is, iff max_j (low[j] - PL(j)) <= min_j (low[j] + count[j] - 1 - PR(j)).
    Both patterns fill every column, so an empty column, of count 0, empties
    that range whatever its low: the element is blobbed.  One pass over the
    columns narrows the range of shifts and stops once it is empty: O(n),
    whatever the number of rows.
    """
    low, count = columns
    for pattern in _pattern_columns(n):
        (first, stop), l, c = pattern[0], low[0], count[0]
        lo, hi = l - first, l + c - stop
        for l, c, (first, stop) in zip(low, count, pattern):
            if l - first > lo:
                lo = l - first
            if l + c - stop < hi:
                hi = l + c - stop
            if lo > hi:
                break
        else:
            return False
    return True


def is_blobbed(n: int, blocks: Blocks) -> bool:
    """A positive element avoiding both alternating boundary patterns."""
    return _is_blobbed(n, check_blocks(n, blocks))


def _is_blobbed(n: int, blocks: Blocks) -> bool:
    """`is_blobbed` of blocks known to be valid, by their columns."""
    return _columns_blobbed(n, _block_columns(n, blocks))


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
    columns = _block_columns(n, check_blocks(n, blocks))
    if _columns_blobbed(n, columns):
        raise ValueError(f"a blobbed element has no alternation to drop: {blocks}")
    return _drop_ij(n, columns)


def _drop_ij(n: int, columns: Columns) -> Letters:
    """The oblique word of a non-blobbed element, by its columns, without
    the first full odd oblique I and the full even oblique J right after
    it, which every non-blobbed element holds."""
    sweep, ij = _column_obliques(columns), (i_word(n), j_word(n))
    a = next(p for p in range(len(sweep) - 1) if sweep[p : p + 2] == ij)
    return tuple(x for ob in sweep[:a] + sweep[a + 2 :] for x in ob)


def _blob_step(n: int, word: Letters) -> Letters | None:
    """
    None for a blobbed positive word, valid at rank n, and else the word of
    the paper's blob step, one I J alternation shorter, which the blob
    relation scales by k: the one blob test and step of a product, for
    `algebra._reduce_canonical` and `algebra._blob_loop`.  A pattern is
    contained cell by cell, and a positive word has one cell per letter,
    so a word with fewer letters than I J I (`_iji_length`) is blobbed with
    nothing read.  A longer one's columns are read once
    (`words._word_columns`), tested (`_columns_blobbed`) and, when not
    blobbed, swept into obliques (`_drop_ij`), with no block built.
    """
    if len(word) < _iji_length(n):
        return None
    columns = _word_columns(n, word)
    return None if _columns_blobbed(n, columns) else _drop_ij(n, columns)


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
    blocks = check_blocks(n, blocks)
    if fmt == "ascii":
        return _ascii_lines(n, blocks)
    if fmt == "svg":
        return _svg_lines(n, blocks)
    raise ValueError(f"unknown format {fmt!r}; expected 'ascii' or 'svg'")


def render(n: int, blocks: Blocks, fmt: str) -> str:
    """Draw the grid of the blocks as one string: its lines, joined."""
    return "\n".join(render_lines(n, blocks, fmt))
