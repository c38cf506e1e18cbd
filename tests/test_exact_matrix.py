"""ExactMatrix against a plain list-of-lists reference.

The matrix stores only its nonzero entries; every operation here is
compared with the same operation on dense Python lists, on sparse random
matrices that include empty shapes.
"""
import pytest
from hypothesis import example, given
from hypothesis import strategies as st
from oracle_reference import reference_eliminate

from solvcohom.linalg import ExactMatrix, kernel_basis, rank_and_kernel
from solvcohom.scalars import ONE, ZERO, GaussianRational

small = st.integers(min_value=-3, max_value=3)
# Mostly zeros, so rows are sparse and sums cancel often.
scalars = st.one_of(st.just(ZERO), st.just(ZERO), st.builds(GaussianRational, small, small))
dims = st.integers(min_value=0, max_value=4)


def dense(nrows, ncols):
    return st.lists(
        st.lists(scalars, min_size=ncols, max_size=ncols), min_size=nrows, max_size=nrows
    )


@st.composite
def shaped(draw, count=1):
    """(nrows, ncols, rows_1, ..., rows_count) with all matrices one shape."""
    nrows, ncols = draw(dims), draw(dims)
    return (nrows, ncols, *(draw(dense(nrows, ncols)) for _ in range(count)))


def ref_matmul(a, b, inner, ncols):
    return [
        [sum((a[i][k] * b[k][j] for k in range(inner)), ZERO) for j in range(ncols)]
        for i in range(len(a))
    ]


def ref_identity(n):
    return [[ONE if i == j else ZERO for j in range(n)] for i in range(n)]


@given(shaped())
def test_rows_view_round_trips_through_the_dense_constructor(case):
    nrows, ncols, rows = case
    m = ExactMatrix(nrows, ncols, rows)
    assert [list(r) for r in m.rows] == rows
    assert ExactMatrix(m.nrows, m.ncols, m.rows) == m
    for i, row in enumerate(rows):
        for j, value in enumerate(row):
            assert m.row_maps[i].get(j, ZERO) == value


@given(shaped())
def test_from_entries_matches_the_dense_constructor(case):
    nrows, ncols, rows = case
    with_zeros = {(i, j): v for i, row in enumerate(rows) for j, v in enumerate(row)}
    without_zeros = {key: v for key, v in with_zeros.items() if v}
    a = ExactMatrix.from_entries(nrows, ncols, with_zeros)
    b = ExactMatrix.from_entries(nrows, ncols, without_zeros)
    assert a == b == ExactMatrix(nrows, ncols, rows)
    assert all(v for r in a.row_maps for v in r.values())


@given(shaped(count=2))
def test_sum_difference_and_negation(case):
    nrows, ncols, a, b = case
    ma, mb = ExactMatrix(nrows, ncols, a), ExactMatrix(nrows, ncols, b)
    add = [[x + y for x, y in zip(ra, rb)] for ra, rb in zip(a, b)]
    sub = [[x - y for x, y in zip(ra, rb)] for ra, rb in zip(a, b)]
    assert ma + mb == ExactMatrix(nrows, ncols, add)
    assert ma - mb == ExactMatrix(nrows, ncols, sub)
    assert -ma == ExactMatrix(nrows, ncols, [[-x for x in r] for r in a])
    # Cancellation leaves the canonical zero matrix.
    assert ma - ma == ExactMatrix.zero(nrows, ncols)


@given(shaped(), scalars)
def test_scale(case, c):
    nrows, ncols, rows = case
    scaled = [[c * x for x in r] for r in rows]
    assert ExactMatrix(nrows, ncols, rows).scale(c) == ExactMatrix(nrows, ncols, scaled)


@given(st.data())
def test_matmul(data):
    nrows, inner, ncols = data.draw(dims), data.draw(dims), data.draw(dims)
    a = data.draw(dense(nrows, inner))
    b = data.draw(dense(inner, ncols))
    product = ExactMatrix(nrows, inner, a) @ ExactMatrix(inner, ncols, b)
    assert product == ExactMatrix(nrows, ncols, ref_matmul(a, b, inner, ncols))


@given(shaped())
def test_transpose(case):
    nrows, ncols, rows = case
    t = ExactMatrix(nrows, ncols, rows).transpose()
    assert (t.nrows, t.ncols) == (ncols, nrows)
    flipped = [[rows[i][j] for i in range(nrows)] for j in range(ncols)]
    assert t == ExactMatrix(ncols, nrows, flipped)


@given(st.data())
def test_apply(data):
    nrows, ncols, rows = data.draw(shaped())
    vec = data.draw(st.lists(scalars, min_size=ncols, max_size=ncols))
    expected = [[sum((a * x for a, x in zip(r, vec)), ZERO)] for r in rows]
    product = ExactMatrix(nrows, ncols, rows) @ ExactMatrix(ncols, 1, [[x] for x in vec])
    assert product == ExactMatrix(nrows, 1, expected)


@given(shaped())
def test_is_zero(case):
    nrows, ncols, rows = case
    assert ExactMatrix(nrows, ncols, rows).is_zero() == all(not x for r in rows for x in r)


@st.composite
def square(draw):
    """(n, rows) for an n x n matrix, strictly upper triangular half the time."""
    n = draw(dims)
    rows = draw(dense(n, n))
    if draw(st.booleans()):
        rows = [[v if j > i else ZERO for j, v in enumerate(row)] for i, row in enumerate(rows)]
    return n, rows


def ref_is_nilpotent(n, rows):
    power = ref_identity(n)
    for _ in range(n):
        power = ref_matmul(power, rows, n, n)
    return not any(any(row) for row in power)


# Shifts of size 3 and 4 need two squarings; [[1, 1], [-1, -1]] is
# nilpotent without being triangular.
@example((3, [[ZERO, ONE, ZERO], [ZERO, ZERO, ONE], [ZERO, ZERO, ZERO]]))
@example((4, [[ONE if j == i + 1 else ZERO for j in range(4)] for i in range(4)]))
@example((2, [[ONE, ONE], [-ONE, -ONE]]))
@given(square())
def test_is_nilpotent_matches_the_dense_power(case):
    n, rows = case
    assert ExactMatrix(n, n, rows).is_nilpotent() == ref_is_nilpotent(n, rows)


@given(square())
def test_split_diagonal_matches_the_dense_residue(case):
    n, rows = case
    residue = [[ZERO if i == j else v for j, v in enumerate(row)] for i, row in enumerate(rows)]
    assert ExactMatrix(n, n, rows).split_diagonal() == (
        [rows[i][i] for i in range(n)],
        ref_is_nilpotent(n, residue),
    )


@given(st.integers(0, 4))
def test_zero_and_identity(n):
    assert ExactMatrix.zero(n, n + 1) == ExactMatrix(n, n + 1, [[ZERO] * (n + 1)] * n)
    identity = ExactMatrix.from_entries(n, n, {(i, i): ONE for i in range(n)})
    assert identity == ExactMatrix(n, n, ref_identity(n))


@pytest.mark.parametrize("key", [(-1, 0), (2, 0), (0, -1), (0, 3)])
def test_out_of_shape_indices_are_rejected(key):
    with pytest.raises(ValueError, match="outside"):
        ExactMatrix.from_entries(2, 3, {key: ONE})


@given(shaped())
def test_rank_agrees_between_pivot_strategies(case):
    nrows, ncols, rows = case
    m = ExactMatrix(nrows, ncols, rows)
    r, reduced = rank_and_kernel(m)
    kern = kernel_basis(m.ncols, reduced)
    assert r == len(reference_eliminate(m, "sequential")[0])
    assert r + len(kern) == m.ncols
