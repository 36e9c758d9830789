"""Triangle entries, the closed formula, and the binomial decompositions."""

import tracemalloc
from functools import partial

import pytest

from blobcat import triangles, verify
from blobcat.triangles import (
    binomial,
    blobbed_closed,
    blobbed_entry,
    central_binomial_decomposition,
    classical_entry,
    entry,
    general_binomial_decomposition,
    triangle_rows,
)


def test_classical_examples():
    assert classical_entry(-1, -1) == 1
    assert classical_entry(6, 2) == 9
    assert classical_entry(10, 0) == 42
    assert classical_entry(-1, 5) == 0
    assert classical_entry(5, -1) == 0


def test_classical_catalan_column():
    catalan = [1, 1, 2, 5, 14, 42, 132, 429, 1430]
    assert [classical_entry(2 * n, 0) for n in range(9)] == catalan


def test_blobbed_examples():
    assert blobbed_entry(8, 0) == 70
    assert blobbed_entry(5, 3) == 30
    assert blobbed_entry(4, 2) == 14
    assert all(blobbed_entry(i, -1) == 0 for i in range(1, 20))
    assert blobbed_entry(-1, 3) == 1
    assert blobbed_entry(0, 3) == 0


def test_blobbed_parity_vanishing():
    for i in range(-1, 31):
        for j in range(0, 31):
            if (i + j) % 2 == 1:
                assert blobbed_entry(i, j) == 0, (i, j)


def test_blobbed_above_diagonal_powers_of_two():
    for i in range(0, 21):
        for j in range(i, 41, 2):
            assert blobbed_entry(i, j) == 2**i, (i, j)


def test_blobbed_closed_examples():
    assert blobbed_closed(8, 2) == 56 + 70 + 56 == 182
    assert blobbed_closed(12, 0) == binomial(12, 6) == 924
    assert blobbed_closed(6, 6) == 2**6
    with pytest.raises(ValueError):
        blobbed_closed(5, 2)
    with pytest.raises(ValueError):
        blobbed_closed(3, 5)


def test_blobbed_closed_matches_recursion():
    # both kinds, every row i <= 200 up to column 401 - i, plus blobbed_closed
    check = verify.check_triangle_closed_form(200)
    assert check.ok, check.detail
    assert check.cases == 132815


def test_blobbed_run_matches_the_binomial_sum():
    # every start column from -3, both parities, runs of 0, 1 and 2 entries
    # and runs that reach two entries past the diagonal
    for i in range(201):
        closed = {j: blobbed_closed(i, j) for j in range(i % 2, i, 2)}

        def expected(j):
            if j < 0 or (i + j) % 2:
                return 0
            return closed.get(j, 2**i)

        for j0 in range(-3, i + 2):
            for count in {0, 1, 2, max((i - j0) // 2 + 2, 0)}:
                run = triangles.blobbed_run(i, j0, count)
                assert run == [expected(j0 + 2 * t) for t in range(count)], (i, j0, count)
        assert len(triangles._row(i)) == i // 2 + 2


def test_blobbed_run_at_the_borders():
    assert triangles.blobbed_run(-1, -3, 4) == [0, 1, 1, 1]
    assert triangles.blobbed_run(-1, -2, 3) == [0, 0, 0]
    assert triangles.blobbed_run(-2, 0, 2) == [0, 0]
    assert triangles.blobbed_run(7, -1, 3) == [0, 70, 112]
    assert triangles.blobbed_run(6, 0, 6) == [20, 50, 62, 64, 64, 64]


def test_binomial_examples():
    assert binomial(4, 2) == 6
    assert binomial(0, 0) == 1
    assert binomial(30, 15) == 155117520
    assert binomial(5, -1) == 0
    assert binomial(5, 6) == 0
    with pytest.raises(ValueError):
        binomial(-1, 0)


def test_binomial_against_pascal_rule():
    rows = [[1]]
    for m in range(1, 31):
        prev = rows[-1]
        rows.append(
            [1] + [prev[k - 1] + prev[k] for k in range(1, m)] + [1]
        )
    for m in range(31):
        for k in range(m + 1):
            assert binomial(m, k) == rows[m][k]


def path_count(i, j):
    """Literal path enumeration in the doubled-hypotenuse graph."""
    total = 0
    stack = [(0, 0, 1)]
    while stack:
        a, b, ways = stack.pop()
        if (a, b) == (i, j):
            total += ways
            continue
        if a >= i:
            continue
        if b + 1 <= a + 1:
            stack.append((a + 1, b + 1, ways * (2 if b == a else 1)))
        if b - 1 >= 0:
            stack.append((a + 1, b - 1, ways))
    return total


def test_blobbed_matches_path_counts():
    for i in range(0, 15):
        for j in range(i % 2, i + 1, 2):
            assert blobbed_entry(i, j) == path_count(i, j), (i, j)


def test_column_and_sum_identities():
    for j in range(0, 31):
        assert blobbed_entry(j, 0) == blobbed_entry(j - 1, 1)
    for i in range(1, 25):
        for j in range(1, 25):
            value = blobbed_entry(i, j)
            assert value == sum(
                blobbed_entry(i - 1 - k, j + 1 - k) for k in range(j + 1)
            )
            assert value == sum(
                blobbed_entry(i - 1 - k, j - 1 + k) for k in range(i + 1)
            )


def test_central_decomposition():
    terms = central_binomial_decomposition(3)
    assert terms == [(1, 2, 2), (2, 4, 2), (3, 8, 1)]
    assert sum(w * c for _, w, c in terms) == binomial(6, 3) == 20
    assert central_binomial_decomposition(1) == [(1, 2, 1)]
    for i in range(1, 31):
        total = sum(w * c for _, w, c in central_binomial_decomposition(i))
        assert total == binomial(2 * i, i), i


def test_general_decomposition():
    assert sum(w * c for _, w, c in general_binomial_decomposition(3, 1)) == 10
    assert sum(w * c for _, w, c in general_binomial_decomposition(4, 2)) == 15
    # the diagonal case degenerates to a single unit term
    for i in range(1, 10):
        terms = general_binomial_decomposition(i, i)
        assert terms == [(1, 1, classical_entry(i - 1, i - 1))]
        assert sum(w * c for _, w, c in terms) == binomial(i, i) == 1
    for i in range(1, 31):
        for j in range(1, i + 1):
            total = sum(w * c for _, w, c in general_binomial_decomposition(i, j))
            assert total == binomial(2 * i - j, i), (i, j)
    with pytest.raises(ValueError):
        general_binomial_decomposition(2, 3)


def test_triangle_rows_shape():
    rows = triangle_rows("blobbed", 4, 5)
    assert rows == [
        [1, 0, 1, 0, 1],
        [0, 2, 0, 2, 0],
        [2, 0, 4, 0, 4],
        [0, 6, 0, 8, 0],
    ]
    assert triangle_rows("classical", 3, 3) == [[1, 0, 0], [0, 1, 0], [1, 0, 1]]
    with pytest.raises(ValueError):
        triangle_rows("other", 2, 2)


def test_displayed_rows():
    # spot values transcribed from the displayed triangles
    assert [classical_entry(7, j) for j in (1, 3, 5, 7)] == [14, 14, 6, 1]
    assert [classical_entry(9, j) for j in (1, 3, 5, 7, 9)] == [42, 48, 27, 8, 1]
    assert [blobbed_entry(7, j) for j in (1, 3, 5, 7)] == [70, 112, 126, 128]
    assert [blobbed_entry(6, j) for j in (0, 2, 4, 6)] == [20, 50, 62, 64]


@pytest.mark.parametrize("i,j", [(-5, 0), (-1, -1), (0, 100), (3, 1), (3, -4)])
def test_unknown_kind_is_rejected_everywhere(i, j):
    with pytest.raises(ValueError):
        entry("other", i, j)


@pytest.mark.parametrize(
    "fn, args",
    [
        (blobbed_entry, (4.0, 2)),
        (blobbed_entry, (4, 2.0)),
        (classical_entry, (6, "2")),
        (partial(entry, "classical"), (None, 0)),
        (triangle_rows, ("blobbed", 4.0, 2)),
        (blobbed_entry, (True, 1)),
        (classical_entry, (3, False)),
        (triangle_rows, ("classical", 2, True)),
    ],
)
def test_non_integer_indices_are_rejected(fn, args):
    with pytest.raises(ValueError):
        fn(*args)


def test_row_cache_stays_within_its_bound():
    triangles._row.cache_clear()
    for i in (180, 3, 1200, 181, 90, 180, 2):
        for kind in triangles.KINDS:
            entry(kind, i, i % 2)
            assert triangles._row.cache_info().currsize <= 4
    triangle_rows("blobbed", 60, 60)
    assert triangles._row.cache_info().currsize <= 4


def test_deep_rows_do_not_recurse_deeply():
    # row 2000 lies past the default recursion limit, and one row is all it takes
    triangles._row.cache_clear()
    want = blobbed_closed(2000, 600)
    tracemalloc.start()
    try:
        assert blobbed_entry(2000, 600) == want
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 5 * 2**20, peak
