"""Grids of rigid blocks: obliques, boundary patterns, blobbedness, rendering."""

import hashlib
import xml.etree.ElementTree as ET

import pytest

from blobcat import enumeration, grids
from blobcat.grids import (
    i_word,
    iji_blocks,
    is_blobbed,
    j_word,
    jij_blocks,
    oblique_shortening_word,
    obliques,
    render,
    render_lines,
)
from blobcat.normal_forms import block_word
from blobcat.words import HeapState, heap_state, same_element

from oracles import contains_pattern, oblique_factorization

PAPER_BLOCKS = ((7, 8), (4, 8), (3, 7), (1, 4), (0, 1), (0, 0))


def _points(blocks):
    # the grid as a point set: row i holds the columns l_i..r_i
    return {(i, j) for i, (l, r) in enumerate(blocks, start=1) for j in range(l, r + 1)}


def _oblique_word(sweep):
    return tuple(x for ob in sweep for x in ob)


def test_grid_examples():
    sweep = obliques(8, PAPER_BLOCKS)
    assert sum(len(ob) for ob in sweep) == 19
    body = render(8, PAPER_BLOCKS, "ascii").splitlines()[1:-1]
    assert len(body) == 6 and sum(line.count("*") for line in body) == 19
    assert obliques(3, ()) == ()
    # one row: each point is its own sweep value
    assert obliques(3, ((0, 3),)) == ((0,), (1,), (2,), (3,))
    with pytest.raises(ValueError):
        obliques(2, ((0, 1), (1, 2)))


def test_obliques_of_worked_example():
    assert obliques(8, PAPER_BLOCKS) == (
        (4,),
        (1, 3, 5, 7),
        (0, 2, 4, 6, 8),
        (1, 3, 5, 7),
        (0, 4, 6, 8),
        (7,),
    )


def test_obliques_are_commuting_words_that_cover_the_grid():
    # two points of one sweep value sit an even number of columns apart
    for n in range(1, 6):
        for s in range(0, 4):
            for blocks in enumeration.iter_positive_blocks(n, s):
                sweep = obliques(n, blocks)
                for ob in sweep:
                    assert all(b - a >= 2 and (b - a) % 2 == 0 for a, b in zip(ob, ob[1:]))
                assert sorted(_oblique_word(sweep)) == sorted(j for _, j in _points(blocks))


def test_oblique_word_is_reduced_expression():
    blocks = ((0, 2),)
    word = _oblique_word(obliques(3, blocks))
    assert same_element(3, word, block_word(blocks))
    assert obliques(3, ()) == ()


def test_oblique_words_across_small_blocks():
    for n in range(1, 6):
        for s in range(0, n + 2):
            for blocks in enumeration.iter_positive_blocks(n, s):
                word = block_word(blocks)
                if len(word) > 14:
                    continue
                ow = _oblique_word(obliques(n, blocks))
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
    assert i_word(3) + j_word(3) + i_word(3) == (1, 3, 0, 2, 1, 3)
    assert j_word(1) + i_word(1) + j_word(1) == (0, 1, 0)
    assert i_word(8) == (1, 3, 5, 7) and j_word(8) == (0, 2, 4, 6, 8)
    with pytest.raises(ValueError):
        i_word(0)


def test_boundary_pattern_blocks():
    # at rank 1 the words 1,0,1 and 0,1,0 are boundary triples, not positive,
    # yet `is_blobbed` compares against the blocks read from them
    assert heap_state(1, i_word(1) + j_word(1) + i_word(1)) == HeapState.LEFT_TRIPLE
    assert heap_state(1, j_word(1) + i_word(1) + j_word(1)) == HeapState.RIGHT_TRIPLE
    assert iji_blocks(2) == ((1, 2), (0, 1))
    assert iji_blocks(3) == ((3, 3), (1, 3), (0, 1))
    assert iji_blocks(1) == ((1, 1), (0, 1))
    assert jij_blocks(1) == ((0, 1), (0, 0))
    assert jij_blocks(2) == ((2, 2), (0, 2), (0, 0))


@pytest.mark.parametrize("n", range(1, 9))
def test_pattern_words_match_oblique_products(n):
    iw, jw = i_word(n), j_word(n)
    assert same_element(n, block_word(iji_blocks(n)), iw + jw + iw)
    assert same_element(n, block_word(jij_blocks(n)), jw + iw + jw)


def _reference_contains(rows, points, pattern_points):
    # the point-set shift test that row-by-row interval containment replaced
    if not pattern_points:
        return True
    pattern_rows = [i for i, _ in pattern_points]
    span = max(pattern_rows) - min(pattern_rows)
    base = min(pattern_rows)
    for t in range(1 - base, rows - span - base + 1):
        if all((i + t, j) in points for i, j in pattern_points):
            return True
    return False


def _oblique_blocks(family):
    # a single oblique: one point per row, highest generator on top
    return tuple((g, g) for g in reversed(family))


def test_contains_matches_point_set_reference():
    cases = 0
    for n in range(1, 7):
        patterns = [(p, _points(p)) for p in (iji_blocks(n), jij_blocks(n))]
        for s in range(0, n + 2):
            for blocks in enumeration.iter_positive_blocks(n, s):
                points = _points(blocks)
                for pattern, pattern_points in patterns:
                    expected = _reference_contains(len(blocks), points, pattern_points)
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
    assert grids._contains(PAPER_BLOCKS, _oblique_blocks(i_word(8)))
    assert grids._contains(PAPER_BLOCKS, _oblique_blocks(j_word(8)))
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
        (((1, 2), (0, 1)), _oblique_blocks(i_word(2))),
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
                sweep = obliques(n, blocks)
                for family, other in ((i_word(n), j_word(n)), (j_word(n), i_word(n))):
                    positions = [p for p, ob in enumerate(sweep) if ob == family]
                    for a, b in zip(positions, positions[1:]):
                        assert b - a == 2, (n, blocks)
                        assert sweep[a + 1] == other, (n, blocks)


def test_oblique_factorization_examples():
    fact = oblique_factorization(2, iji_blocks(2))
    assert (fact.prefix, fact.k, fact.suffix) == ((), 1, ())
    fact = oblique_factorization(2, ((1, 2), (0, 2), (0, 1)))  # five alternations
    assert (fact.prefix, fact.k, fact.suffix) == ((), 2, ())
    fact = oblique_factorization(8, PAPER_BLOCKS)
    assert fact.prefix == ((4,),)
    assert fact.k == 1
    assert fact.suffix == ((0, 4, 6, 8), (7,))


def test_oblique_factorization_requires_pattern():
    with pytest.raises(ValueError):
        oblique_factorization(2, ())
    with pytest.raises(ValueError):
        oblique_factorization(2, ((1, 1),))


def test_oblique_bar_and_tilde_words():
    # dropping one alternation from I J I leaves the single odd oblique
    assert oblique_shortening_word(2, iji_blocks(2)) == (1,)
    assert oblique_shortening_word(2, ((1, 2), (0, 2), (0, 1))) == (1, 0, 2, 1)
    # contracting J I J leaves the single even oblique
    assert oblique_shortening_word(2, jij_blocks(2)) == (0, 2)
    # a blobbed element has no alternation to drop
    for blocks in ((), ((1, 1),), ((0, 2),)):
        assert is_blobbed(2, blocks)
        with pytest.raises(ValueError, match="blobbed"):
            oblique_shortening_word(2, blocks)


def _non_blobbed(ranks, lengths):
    for n in ranks:
        for s in lengths:
            for blocks in enumeration.iter_positive_blocks(n, s):
                if not is_blobbed(n, blocks):
                    yield n, blocks


def test_oblique_shortening_matches_the_factorization():
    # on the odd-ended elements the image is prefix (IJ)^(k-1) I suffix, as
    # read off the paper's factorization around the alternating run
    odd_ended = 0
    for n, blocks in _non_blobbed(range(1, 6), range(0, 4)):
        if not grids._contains(blocks, iji_blocks(n)):
            continue
        odd_ended += 1
        fact = oblique_factorization(n, blocks)
        middle = (i_word(n) + j_word(n)) * (fact.k - 1) + i_word(n)
        want = _oblique_word(fact.prefix) + middle + _oblique_word(fact.suffix)
        assert oblique_shortening_word(n, blocks) == want, (n, blocks)
    assert odd_ended == 1724  # 8 at rank 1, 1,716 at ranks 2..5


# sha256 over the non-blobbed positive elements at ranks 2..5, affine
# lengths 0..3 (1,716 odd-ended, 286 even-ended), of one line per element,
# "n blocks image", in iter_positive_blocks order.  Recorded when the
# odd-ended and the even-ended images were two functions.
BLOB_STEP_SHA256 = "346f225006dc1b63a25c3d543fe7d9f53cccf719c53d284017e4eea23e8bfcb7"


def test_oblique_shortening_images_are_pinned():
    h = hashlib.sha256()
    elements = list(_non_blobbed(range(2, 6), range(0, 4)))
    for n, blocks in elements:
        h.update(f"{n} {blocks} {oblique_shortening_word(n, blocks)}\n".encode())
    assert len(elements) == 2002
    assert h.hexdigest() == BLOB_STEP_SHA256


def test_render_ascii():
    empty = render(2, (), "ascii")
    lines = empty.splitlines()
    assert len(lines) == 2 and set(lines[0]) == {"+", "-"}
    two_dots = render(1, ((0, 1),), "ascii")
    body = two_dots.splitlines()[1]
    assert body.count("*") == 2
    with pytest.raises(ValueError):
        render(1, (), "png")
    with pytest.raises(ValueError):
        render(2, ((0, 1), (1, 2)), "ascii")


def test_render_lines_checks_before_the_first_line():
    with pytest.raises(ValueError):
        render_lines(2, ((0, 1), (1, 2)), "ascii")
    with pytest.raises(ValueError):
        render_lines(1, (), "png")


def test_render_svg_well_formed():
    svg = render(8, PAPER_BLOCKS, "svg")
    root = ET.fromstring(svg)
    assert root.tag.endswith("svg")
    circles = [el for el in root if el.tag.endswith("circle")]
    assert len(circles) == 19
    assert all(c.get("fill") == "black" for c in circles)


def test_render_deterministic():
    a = render(8, PAPER_BLOCKS, "svg")
    b = render(8, PAPER_BLOCKS, "svg")
    assert a == b


def test_blobbed_matches_word_level_avoidance():
    # grid detection agrees with the generic containment oracle on the two
    # alternating pattern words
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
