"""
Lattice-point grids of positive elements, their oblique decomposition, the
two alternating boundary patterns, blobbedness, and plain-text / SVG drawing.

The grid of a rigid-block word <l_1,r_1>...<l_k,r_k> is the point set
{(i, j) : 1 <= i <= k, l_i <= j <= r_i}.  Columns carry generator identity
and never move; rows are only defined up to a common shift, so containment
quantifies over vertical translates.  Each row is an interval, so pattern
containment is decided row by row on the blocks themselves: every row
interval of the pattern must lie inside the shifted row of the element.

Sweeping a line of slope -2 across the staircase drawing groups the points
by the value 2*i + j; each group is an antichain of pairwise commuting
generators (an oblique), and reading the obliques off in increasing sweep
order spells a reduced expression of the element.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

from .words import Letters, check_rank
from .normal_forms import Blocks, blocks_of_word, check_blocks

Point = tuple[int, int]


@dataclass(frozen=True)
class Grid:
    n: int
    rows: int
    points: frozenset[Point]


@dataclass(frozen=True)
class Oblique:
    """A maximal set of pairwise commuting generators cut out by the sweep."""

    generators: frozenset[int]

    def __post_init__(self) -> None:
        gens = sorted(self.generators)
        for a, b in zip(gens, gens[1:]):
            if b - a <= 1:
                raise ValueError(f"oblique letters must pairwise commute: {gens}")

    def word(self) -> Letters:
        return tuple(sorted(self.generators))


def grid_of(n: int, blocks: Blocks) -> Grid:
    check_blocks(n, blocks)
    points = {
        (i, j)
        for i, (l, r) in enumerate(blocks, start=1)
        for j in range(l, r + 1)
    }
    return Grid(n, len(blocks), frozenset(points))


def obliques_of(grid: Grid) -> tuple[Oblique, ...]:
    """Sweep-line groups in increasing order of 2*row + column."""
    groups: dict[int, set[int]] = {}
    for i, j in grid.points:
        groups.setdefault(2 * i + j, set()).add(j)
    return tuple(Oblique(frozenset(groups[c])) for c in sorted(groups))


def oblique_word(obliques: tuple[Oblique, ...]) -> Letters:
    out: list[int] = []
    for ob in obliques:
        out.extend(ob.word())
    return tuple(out)


def i_generators(n: int) -> frozenset[int]:
    """The odd-index commuting family s_1 s_3 s_5 ..."""
    check_rank(n)
    return frozenset(range(1, n + 1, 2))


def j_generators(n: int) -> frozenset[int]:
    """The even-index commuting family s_0 s_2 s_4 ..."""
    check_rank(n)
    return frozenset(range(0, n + 1, 2))


def alternating_word(first: frozenset[int], second: frozenset[int]) -> Letters:
    """The word F S F of two commuting families, each in increasing order."""
    f, s = tuple(sorted(first)), tuple(sorted(second))
    return f + s + f


@lru_cache(maxsize=None)
def iji_blocks(n: int) -> Blocks:
    """Rigid blocks of the alternating pattern I J I, read from its word."""
    return blocks_of_word(n, alternating_word(i_generators(n), j_generators(n)))


@lru_cache(maxsize=None)
def jij_blocks(n: int) -> Blocks:
    """Rigid blocks of the alternating pattern J I J, read from its word."""
    return blocks_of_word(n, alternating_word(j_generators(n), i_generators(n)))


def _contains(blocks: Blocks, pattern: Blocks) -> bool:
    """
    True iff some row shift t puts every row interval of `pattern` inside
    row t + i of `blocks`.  Rows are intervals and columns never move, so
    this is point-set containment of the grids under a vertical translate.
    """
    k = len(pattern)
    return any(
        all(l <= pl and pr <= r for (pl, pr), (l, r) in zip(pattern, blocks[t : t + k]))
        for t in range(len(blocks) - k + 1)
    )


def is_blobbed(n: int, blocks: Blocks) -> bool:
    """A positive element avoiding both alternating boundary patterns."""
    check_blocks(n, blocks)
    return not _contains(blocks, iji_blocks(n)) and not _contains(blocks, jij_blocks(n))


@dataclass(frozen=True)
class ObliqueFactorization:
    """Oblique form split around the maximal alternating odd/even run."""

    prefix: tuple[Oblique, ...]
    k: int
    suffix: tuple[Oblique, ...]


def oblique_factorization(n: int, blocks: Blocks) -> ObliqueFactorization:
    """
    For a positive element containing the odd-ended alternating pattern,
    split its oblique form as prefix, (IJ)^k I, suffix with k >= 1.
    """
    grid = grid_of(n, blocks)  # validates the blocks
    if not _contains(blocks, iji_blocks(n)):
        raise ValueError("element avoids the odd-ended alternating pattern")
    obliques = obliques_of(grid)
    i_set = i_generators(n)
    j_set = j_generators(n)
    i_positions = [p for p, ob in enumerate(obliques) if ob.generators == i_set]
    first, last = i_positions[0], i_positions[-1]
    run = obliques[first : last + 1]
    if (last - first) % 2 != 0:
        raise ValueError(f"malformed alternating run in {blocks}")
    for p, ob in enumerate(run):
        expected = i_set if p % 2 == 0 else j_set
        if ob.generators != expected:
            raise ValueError(f"alternating run broken at {blocks}")
    k = (last - first) // 2
    if k < 1:
        raise ValueError(f"no repeated alternation in {blocks}")
    prefix = obliques[:first]
    suffix = obliques[last + 1 :]
    # a full even-family oblique can flank the run on either side, but only
    # directly (two adjacent sweep values cannot both carry it)
    for p, ob in enumerate(prefix):
        if ob.generators == i_set:
            raise ValueError(f"stray odd oblique before the run in {blocks}")
        if ob.generators == j_set and p != len(prefix) - 1:
            raise ValueError(f"stray even oblique before the run in {blocks}")
    for p, ob in enumerate(suffix):
        if ob.generators == i_set:
            raise ValueError(f"stray odd oblique after the run in {blocks}")
        if ob.generators == j_set and p != 0:
            raise ValueError(f"stray even oblique after the run in {blocks}")
    return ObliqueFactorization(prefix, k, suffix)


def oblique_bar_word(n: int, blocks: Blocks) -> Letters:
    """Drop one odd/even alternation pair: prefix (IJ)^{k-1} I suffix."""
    fact = oblique_factorization(n, blocks)
    i_word = tuple(sorted(i_generators(n)))
    j_word = tuple(sorted(j_generators(n)))
    middle = (i_word + j_word) * (fact.k - 1) + i_word
    return oblique_word(fact.prefix) + middle + oblique_word(fact.suffix)


def oblique_tilde_word(n: int, blocks: Blocks) -> Letters:
    """
    For an element avoiding the odd-ended pattern but containing the
    even-ended one, contract its unique J I J run to a single J.
    """
    grid = grid_of(n, blocks)  # validates the blocks
    if _contains(blocks, iji_blocks(n)):
        raise ValueError("element contains the odd-ended pattern; use the bar form")
    if not _contains(blocks, jij_blocks(n)):
        raise ValueError("element avoids the even-ended alternating pattern")
    obliques = obliques_of(grid)
    i_set = i_generators(n)
    j_set = j_generators(n)
    i_positions = [p for p, ob in enumerate(obliques) if ob.generators == i_set]
    if len(i_positions) != 1:
        raise ValueError(f"expected a single odd oblique in {blocks}")
    a = i_positions[0]
    if not (
        0 < a < len(obliques) - 1
        and obliques[a - 1].generators == j_set
        and obliques[a + 1].generators == j_set
    ):
        raise ValueError(f"odd oblique not flanked by even ones in {blocks}")
    kept = obliques[:a] + obliques[a + 2 :]
    return oblique_word(kept)


# ---------------------------------------------------------------------------
# rendering

CELL = 24  # px pitch of the SVG raster; rows stagger by half a cell


def render_ascii(grid: Grid) -> str:
    width = 2 * (grid.n + 1) + grid.rows
    lines = ["+" + "-" * width + "+"]
    for i in range(1, grid.rows + 1):
        chars = [" "] * width
        for row, j in grid.points:
            if row == i:
                chars[2 * j + (grid.rows - i)] = "*"
        lines.append("|" + "".join(chars) + "|")
    lines.append("+" + "-" * width + "+")
    return "\n".join(lines)


def render_svg(grid: Grid) -> str:
    width = CELL * (grid.n + 1) + (CELL // 2) * grid.rows
    height = CELL * max(grid.rows, 1)
    parts = [
        '<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
        f'width="{width}" height="{height}" '
        f'viewBox="0 0 {width} {height}">'
    ]
    for i, j in sorted(grid.points):
        cx = CELL * j + (CELL // 2) * (grid.rows - i) + CELL // 2
        cy = CELL * i - CELL // 2
        parts.append(f'<circle cx="{cx}" cy="{cy}" r="6" fill="black"/>')
    parts.append("</svg>")
    return "\n".join(parts)


def render(grid: Grid, fmt: str) -> str:
    if fmt == "ascii":
        return render_ascii(grid)
    if fmt == "svg":
        return render_svg(grid)
    raise ValueError(f"unknown format {fmt!r}; expected 'ascii' or 'svg'")
