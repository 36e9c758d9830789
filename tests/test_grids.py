"""Grids, obliques, boundary patterns, blobbedness, and rendering."""

import xml.etree.ElementTree as ET

import pytest

from blobcat import enumeration, grids
from blobcat.grids import (
    Oblique,
    alternating_word,
    grid_of,
    i_generators,
    iji_blocks,
    is_blobbed,
    j_generators,
    jij_blocks,
    oblique_bar_word,
    oblique_factorization,
    oblique_tilde_word,
    oblique_word,
    obliques_of,
    render,
)
from blobcat.normal_forms import block_word
from blobcat.words import same_element

PAPER_BLOCKS = ((7, 8), (4, 8), (3, 7), (1, 4), (0, 1), (0, 0))


def test_grid_of_examples():
    grid = grid_of(8, PAPER_BLOCKS)
    assert len(grid.points) == 19
    assert grid.rows == 6
    assert grid_of(3, ()).points == frozenset()
    full = grid_of(3, ((0, 3),))
    assert full.points == frozenset({(1, 0), (1, 1), (1, 2), (1, 3)})


def test_oblique_validation():
    with pytest.raises(ValueError):
        Oblique(frozenset({1, 2}))
    assert Oblique(frozenset({0, 2, 4})).word() == (0, 2, 4)


def test_obliques_of_worked_example():
    obliques = obliques_of(grid_of(8, PAPER_BLOCKS))
    expected = [
        {4},
        {1, 3, 5, 7},
        {0, 2, 4, 6, 8},
        {1, 3, 5, 7},
        {0, 4, 6, 8},
        {7},
    ]
    assert [set(o.generators) for o in obliques] == expected


def test_oblique_word_is_reduced_expression():
    blocks = ((0, 2),)
    word = oblique_word(obliques_of(grid_of(3, blocks)))
    assert same_element(3, word, block_word(blocks))
    assert obliques_of(grid_of(3, ())) == ()


def test_oblique_words_across_small_blocks():
    for n in range(1, 6):
        for s in range(0, n + 2):
            for blocks in enumeration.iter_positive_blocks(n, s):
                word = block_word(blocks)
                if len(word) > 14:
                    continue
                ow = oblique_word(obliques_of(grid_of(n, blocks)))
                assert same_element(n, ow, word), (n, blocks)


def _reference_iji_blocks(n):
    # the hand-built parity construction the derived blocks replaced
    if n == 1:
        return ((1, 1), (0, 1))
    if n % 2 == 0:
        blocks = [(n - 1, n)] + [(a, a + 2) for a in range(n - 3, 0, -2)]
    else:
        blocks = [(n, n), (n - 2, n)] + [(a, a + 2) for a in range(n - 4, 0, -2)]
    return tuple(blocks + [(0, 1)])


def _reference_jij_blocks(n):
    if n == 1:
        return ((0, 1), (0, 0))
    if n % 2 == 0:
        blocks = [(n, n), (n - 2, n)] + [(a, a + 2) for a in range(n - 4, -1, -2)]
    else:
        blocks = [(n - 1, n)] + [(a, a + 2) for a in range(n - 3, -1, -2)]
    return tuple(blocks + [(0, 0)])


def test_pattern_blocks_read_from_words_match_parity_construction():
    for n in range(1, 41):
        assert iji_blocks(n) == _reference_iji_blocks(n), n
        assert jij_blocks(n) == _reference_jij_blocks(n), n


def test_alternating_word():
    assert alternating_word(i_generators(3), j_generators(3)) == (1, 3, 0, 2, 1, 3)
    assert alternating_word(j_generators(1), i_generators(1)) == (0, 1, 0)


def test_boundary_pattern_blocks():
    assert iji_blocks(2) == ((1, 2), (0, 1))
    assert iji_blocks(3) == ((3, 3), (1, 3), (0, 1))
    assert iji_blocks(1) == ((1, 1), (0, 1))
    assert jij_blocks(1) == ((0, 1), (0, 0))
    assert jij_blocks(2) == ((2, 2), (0, 2), (0, 0))


@pytest.mark.parametrize("n", range(1, 9))
def test_pattern_words_match_oblique_products(n):
    iw = tuple(sorted(i_generators(n)))
    jw = tuple(sorted(j_generators(n)))
    assert same_element(n, block_word(iji_blocks(n)), iw + jw + iw)
    assert same_element(n, block_word(jij_blocks(n)), jw + iw + jw)


def _reference_contains(grid, pattern):
    # the point-set shift test that row-by-row interval containment replaced
    if not pattern.points:
        return True
    rows = [i for i, _ in pattern.points]
    span = max(rows) - min(rows)
    base = min(rows)
    for t in range(1 - base, grid.rows - span - base + 1):
        if all((i + t, j) in grid.points for i, j in pattern.points):
            return True
    return False


def _oblique_blocks(family):
    # a single oblique: one point per row, highest generator on top
    return tuple((g, g) for g in sorted(family, reverse=True))


def test_contains_matches_point_set_reference():
    cases = 0
    for n in range(1, 7):
        patterns = [(p, grid_of(n, p)) for p in (iji_blocks(n), jij_blocks(n))]
        for s in range(0, n + 2):
            for blocks in enumeration.iter_positive_blocks(n, s):
                grid = grid_of(n, blocks)
                for pattern, pattern_grid in patterns:
                    expected = _reference_contains(grid, pattern_grid)
                    assert grids._contains(blocks, pattern) == expected, (n, blocks)
                cases += 1
    assert cases == 34_710


def test_contains_grid_examples():
    assert grids._contains(iji_blocks(4), iji_blocks(4))
    assert not grids._contains(((2, 3), (1, 2), (0, 1)), iji_blocks(3))
    assert grids._contains(((0, 1),), ())
    assert grids._contains((), ())
    assert not grids._contains((), ((0, 0),))
    # a pattern taller than the element never fits
    assert not grids._contains(((0, 2),), ((0, 0), (0, 0)))


def test_contains_grid_translation():
    # the single odd oblique of the worked example sits at rows 1..4
    assert grids._contains(PAPER_BLOCKS, _oblique_blocks(i_generators(8)))
    assert grids._contains(PAPER_BLOCKS, _oblique_blocks(j_generators(8)))
    assert grids._contains(PAPER_BLOCKS, iji_blocks(8))
    assert not grids._contains(PAPER_BLOCKS, jij_blocks(8))
    # the bottom rows only fit at the last shift
    assert grids._contains(PAPER_BLOCKS, ((0, 1), (0, 0)))
    assert not grids._contains(PAPER_BLOCKS[:-1], ((0, 1), (0, 0)))


def test_contains_grid_monotone_under_point_addition():
    # widening any row interval (adding a point to the grid) never destroys
    # containment
    cases = [
        (((2, 3), (1, 3), (0, 1)), iji_blocks(3)),
        (((1, 2), (0, 1)), _oblique_blocks(i_generators(2))),
        (((1, 2), (0, 1)), iji_blocks(2)),
    ]
    for base, pattern in cases:
        assert grids._contains(base, pattern)
        for row, (l, r) in enumerate(base):
            for wider in [(l - 1, r), (l, r + 1)]:
                bigger = base[:row] + (wider,) + base[row + 1 :]
                assert grids._contains(bigger, pattern), (base, bigger)


def test_is_blobbed_examples():
    assert is_blobbed(2, ())
    assert not is_blobbed(2, iji_blocks(2))
    assert not is_blobbed(1, jij_blocks(1))
    total = sum(
        sum(1 for b in enumeration.iter_positive_blocks(2, s) if is_blobbed(2, b))
        for s in range(0, 3)
    )
    assert total == 19


def test_is_blobbed_rejects_malformed_blocks():
    with pytest.raises(ValueError):
        is_blobbed(2, ((0, 1), (1, 2)))


def test_repeated_full_obliques_force_alternation():
    # repeated full obliques force exact alternation between them
    for n in (2, 3, 4):
        for s in range(0, n + 2):
            for blocks in enumeration.iter_positive_blocks(n, s):
                obliques = obliques_of(grid_of(n, blocks))
                for family in (i_generators(n), j_generators(n)):
                    positions = [
                        p for p, o in enumerate(obliques) if o.generators == family
                    ]
                    other = j_generators(n) if family == i_generators(n) else i_generators(n)
                    for a, b in zip(positions, positions[1:]):
                        assert b - a == 2, (n, blocks)
                        assert obliques[a + 1].generators == other, (n, blocks)


def test_oblique_factorization_examples():
    fact = oblique_factorization(2, iji_blocks(2))
    assert (fact.prefix, fact.k, fact.suffix) == ((), 1, ())
    fact = oblique_factorization(2, ((1, 2), (0, 2), (0, 1)))  # five alternations
    assert (fact.prefix, fact.k, fact.suffix) == ((), 2, ())
    fact = oblique_factorization(8, PAPER_BLOCKS)
    assert [set(o.generators) for o in fact.prefix] == [{4}]
    assert fact.k == 1
    assert [set(o.generators) for o in fact.suffix] == [{0, 4, 6, 8}, {7}]


def test_oblique_factorization_requires_pattern():
    with pytest.raises(ValueError):
        oblique_factorization(2, ())
    with pytest.raises(ValueError):
        oblique_factorization(2, ((1, 1),))


def test_oblique_bar_and_tilde_words():
    # dropping one alternation from I J I leaves the single odd oblique
    assert oblique_bar_word(2, iji_blocks(2)) == (1,)
    assert oblique_bar_word(2, ((1, 2), (0, 2), (0, 1))) == (1, 0, 2, 1)
    # contracting J I J leaves the single even oblique
    assert oblique_tilde_word(2, jij_blocks(2)) == (0, 2)
    with pytest.raises(ValueError):
        oblique_tilde_word(2, iji_blocks(2))


def test_render_ascii():
    empty = render(grid_of(2, ()), "ascii")
    lines = empty.splitlines()
    assert len(lines) == 2 and set(lines[0]) == {"+", "-"}
    two_dots = render(grid_of(1, ((0, 1),)), "ascii")
    body = two_dots.splitlines()[1]
    assert body.count("*") == 2
    with pytest.raises(ValueError):
        render(grid_of(1, ()), "png")


def test_render_svg_well_formed():
    svg = render(grid_of(8, PAPER_BLOCKS), "svg")
    root = ET.fromstring(svg)
    assert root.tag.endswith("svg")
    circles = [el for el in root if el.tag.endswith("circle")]
    assert len(circles) == 19
    assert all(c.get("fill") == "black" for c in circles)


def test_render_deterministic():
    a = render(grid_of(8, PAPER_BLOCKS), "svg")
    b = render(grid_of(8, PAPER_BLOCKS), "svg")
    assert a == b


def test_blobbed_matches_word_level_avoidance():
    # grid detection agrees with the generic containment oracle on the two
    # alternating pattern words
    from blobcat.words import contains_pattern

    for n in (1, 2, 3):
        iji = block_word(iji_blocks(n))
        jij = block_word(jij_blocks(n))
        for s in range(0, 4):
            for blocks in enumeration.iter_positive_blocks(n, s):
                word = block_word(blocks)
                expected = not contains_pattern(n, word, iji) and not contains_pattern(
                    n, word, jij
                )
                assert is_blobbed(n, blocks) == expected, (n, blocks)
