import subprocess
import sys
import textwrap
from fractions import Fraction

import pytest
from conftest import dense_matrix
from hypothesis import example, given
from hypothesis import strategies as st
from jordan_reference import matrix_inverse
from oracle_reference import reference_eliminate
from span_reference import greedy_representatives

from solvcohom import linalg
from solvcohom.cecomplex import FiniteComplex, cohomology
from solvcohom.errors import CertificateError, ValidationFailure
from solvcohom.linalg import ExactMatrix, kernel_basis, rank_and_kernel, trailing_echelon
from solvcohom.scalars import I, ONE, ZERO, GaussianRational


def column(vec):
    return dense_matrix([[c] for c in vec], 1)


def rank_kernel(m, skip_rows=frozenset()):
    """rank_and_kernel's rank and the kernel kernel_basis reads off its rows."""
    r, reduced = rank_and_kernel(m, skip_rows)
    return r, kernel_basis(m.ncols, reduced)


def sparse_column(vec, width):
    """A {index: value} kernel vector as a width x 1 matrix."""
    return ExactMatrix.from_entries(width, 1, {(i, 0): c for i, c in vec.items()})


def test_constructors_and_entry():
    m = dense_matrix([[1, 2], [3, 4]])
    assert m.nrows == 2 and m.ncols == 2
    assert m.row_maps[1].get(0, ZERO) == GaussianRational(3)
    assert ExactMatrix.zero(2, 3).is_zero()
    sparse = ExactMatrix.from_entries(2, 2, {(0, 1): GaussianRational(5)})
    assert sparse.row_maps[0].get(1, ZERO) == GaussianRational(5)
    assert sparse.row_maps[1].get(1, ZERO) == ZERO


def test_shape_mismatch_rejected():
    with pytest.raises(ValueError):
        dense_matrix([[1, 2]]) @ dense_matrix([[1, 2]])


def test_arithmetic():
    a = dense_matrix([[1, 2], [3, 4]])
    b = dense_matrix([[0, 1], [1, 0]])
    assert a @ b == dense_matrix([[2, 1], [4, 3]])
    assert a.transpose() == dense_matrix([[1, 3], [2, 4]])


def test_apply():
    a = dense_matrix([[1, 2], [3, 4]])
    assert a @ column((ONE, ZERO)) == column((GaussianRational(1), GaussianRational(3)))


def test_nilpotence():
    n = dense_matrix([[0, 1, 0], [0, 0, 1], [0, 0, 0]])
    assert n.is_nilpotent()
    assert not dense_matrix([[1, 0], [0, 0]]).is_nilpotent()


def test_rank_and_kernel_hand_cases():
    m = dense_matrix([[1, 2, 3], [2, 4, 6]])  # rank 1
    r, kern = rank_kernel(m)
    assert r == 1
    assert len(kern) == 2
    for v in kern:
        assert (m @ sparse_column(v, m.ncols)).is_zero()
    # Pivot column 0; one vector per free column, ascending, zeros absent.
    assert kern == ({1: ONE, 0: GaussianRational(-2)}, {2: ONE, 0: GaussianRational(-3)})

    assert rank_and_kernel(ExactMatrix.from_entries(4, 4, {(i, i): ONE for i in range(4)}))[0] == 4
    assert rank_and_kernel(ExactMatrix.zero(3, 5))[0] == 0
    r, kern = rank_kernel(ExactMatrix.zero(3, 5))
    assert r == 0 and len(kern) == 5
    assert kern == tuple({j: ONE} for j in range(5))


def test_rank_with_gaussian_entries():
    # Second column is i times the first: rank 1.
    m = dense_matrix([[ONE, I], [I, GaussianRational(-1)]])
    assert rank_and_kernel(m)[0] == 1


def test_pivot_strategies_agree():
    # The sparsity-first rank equals the reference's row-order elimination.
    m = dense_matrix([[0, 2, 1], [1, 0, 0], [0, 4, 2]])
    r, kern = rank_kernel(m)
    assert r == len(reference_eliminate(m, "sequential")[0]) == 2
    assert len(kern) == 1


def test_matrix_inverse():
    a = dense_matrix([[1, 2], [3, 4]])
    assert matrix_inverse(a) @ a == dense_matrix([[1, 0], [0, 1]])
    b = dense_matrix([[I, ZERO], [ONE, ONE]])
    assert b @ matrix_inverse(b) == dense_matrix([[1, 0], [0, 1]])
    with pytest.raises(ZeroDivisionError):
        matrix_inverse(dense_matrix([[1, 2], [2, 4]]))


def test_trailing_echelon():
    rows = trailing_echelon(
        [
            {0: ONE},
            {0: GaussianRational(2)},  # dependent
            {1: GaussianRational(2), 2: GaussianRational(4)},
            {1: I},
            {0: ONE, 1: ONE, 2: GaussianRational(2)},  # row 2 leaves {0: 1}: dependent
        ]
    )
    # Keyed by last column, in the order the vectors reach them; each row
    # is 1 at its key and ends there.
    assert rows == {0: {0: ONE}, 2: {1: GaussianRational(Fraction(1, 2)), 2: ONE}, 1: {1: ONE}}
    assert list(rows) == [0, 2, 1]
    assert all(max(row) == c and row[c] == ONE for c, row in rows.items())
    assert trailing_echelon([{}, {}]) == {}


entries = st.integers(min_value=-9, max_value=9)


@st.composite
def small_matrices(draw):
    nrows = draw(st.integers(1, 4))
    ncols = draw(st.integers(1, 4))
    rows = [
        [GaussianRational(draw(entries), draw(entries)) for _ in range(ncols)]
        for _ in range(nrows)
    ]
    return dense_matrix(rows)


@given(small_matrices())
def test_rank_transpose_invariant(m):
    assert rank_and_kernel(m)[0] == rank_and_kernel(m.transpose())[0]


@given(small_matrices())
def test_rank_nullity_and_strategy_agreement(m):
    r1, kern = rank_kernel(m)
    assert r1 == len(reference_eliminate(m, "sequential")[0])
    assert r1 + len(kern) == m.ncols
    for v in kern:
        assert (m @ sparse_column(v, m.ncols)).is_zero()


nonzero_entries = st.builds(
    GaussianRational, st.integers(-2, 2).filter(bool), st.sampled_from([0, 0, 1, -1])
)


@st.composite
def tie_heavy_matrices(draw):
    """Sparse matrices whose rows are drawn from a small pool, so rows repeat,
    and whose pool rows mostly share one length, so pivot choices tie."""
    ncols = draw(st.integers(1, 8))
    width = draw(st.integers(1, min(3, ncols)))
    lengths = st.one_of(st.just(width), st.just(width), st.integers(0, ncols))

    @st.composite
    def pool_row(draw):
        length = draw(lengths)
        cols = draw(st.lists(st.integers(0, ncols - 1), unique=True,
                             min_size=length, max_size=length))
        return [draw(nonzero_entries) if j in cols else ZERO for j in range(ncols)]

    pool = draw(st.lists(pool_row(), min_size=1, max_size=6))
    picks = draw(st.lists(st.integers(0, len(pool)), max_size=14))
    zero_row = [ZERO] * ncols
    return dense_matrix([pool[k] if k < len(pool) else zero_row for k in picks], ncols)


@given(tie_heavy_matrices())
# Row 0 pivots at 0 and finishes while row 1 still holds column 1; row 1
# then pivots at 1, which must clear column 1 from row 0.
@example(dense_matrix([[1, 1, 0, 0], [0, 2, 1, 1]]))
# Row 0 pivots at 0; reducing row 1 by it cancels column 1 there, so
# column 1 leaves every open row while row 0 still holds it.
@example(dense_matrix([[1, 1, 0], [1, 1, 3]]))
def test_eliminate_equals_rescanning_reference(m):
    # Same pivots in the same order, and the same fully reduced rows,
    # down to the key order of each row.
    done, pivot_cols = linalg._eliminate(m)
    ref_done, ref_pivot_cols = reference_eliminate(m, "sparsity")
    assert pivot_cols == ref_pivot_cols
    assert done == ref_done
    assert [list(row) for _, row in done] == [list(row) for _, row in ref_done]


def test_each_lead_is_inverted_once_per_call(monkeypatch):
    # Leads 2, 2, 3, -1 and 1, each at the row's first column.
    m = dense_matrix([[2, 1, 0, 0, 0, 0, 0, 0, 0, 0],
                      [0, 0, 2, 1, 0, 0, 0, 0, 0, 0],
                      [0, 0, 0, 0, 3, 1, 0, 0, 0, 0],
                      [0, 0, 0, 0, 0, 0, -1, 1, 0, 0],
                      [0, 0, 0, 0, 0, 0, 0, 0, 1, 1]])
    ref_done, _ = reference_eliminate(m, "sparsity")
    inverted = []
    inverse = GaussianRational.inverse

    def counted(self):
        inverted.append(self)
        return inverse(self)

    monkeypatch.setattr(GaussianRational, "inverse", counted)
    assert linalg._eliminate(m)[0] == ref_done
    assert inverted == [GaussianRational(2), GaussianRational(3)]
    assert linalg._eliminate(m)[0] == ref_done
    assert inverted == [GaussianRational(2), GaussianRational(3)] * 2


def reference_kernel(m):
    """The kernel kernel_basis reads off, derived from reference_eliminate."""
    done, pivot_cols = reference_eliminate(m, "sparsity")
    free = [f for f in range(m.ncols) if f not in pivot_cols]
    return tuple(
        {f: ONE, **{pc: -row[f] for pc, row in done if f in row}} for f in free
    )


gaussian_fractions = st.builds(
    lambda a, b, d: GaussianRational(a, b) / GaussianRational(d),
    st.integers(-3, 3),
    st.integers(-3, 3),
    st.integers(1, 4),
)


@st.composite
def fraction_matrices(draw):
    """Sparse matrices with non-integer Q(i) entries."""
    nrows = draw(st.integers(1, 6))
    ncols = draw(st.integers(1, 6))
    rows = [
        [draw(st.one_of(st.just(ZERO), st.just(ZERO), gaussian_fractions))
         for _ in range(ncols)]
        for _ in range(nrows)
    ]
    return dense_matrix(rows)


@given(st.one_of(tie_heavy_matrices(), fraction_matrices()))
def test_sparse_kernel_equals_reference_kernel(m):
    # Same vectors in the same order, down to each dict's key order, with
    # no stored zeros; and the matrix annihilates each of them.
    r, kern = rank_kernel(m)
    want = reference_kernel(m)
    assert kern == want
    assert [list(v) for v in kern] == [list(v) for v in want]
    assert all(all(v.values()) for v in kern)
    assert r == m.ncols - len(want)
    for v in kern:
        assert (m @ sparse_column(v, m.ncols)).is_zero()


def _drop_last_pivot_row(eliminate):
    def sabotaged(matrix, skip_rows):
        done, pivot_cols = eliminate(matrix, skip_rows)
        return done[:-1], pivot_cols[:-1]

    return sabotaged


def _repeat_first_pivot_row(eliminate):
    def sabotaged(matrix, skip_rows):
        done, pivot_cols = eliminate(matrix, skip_rows)
        return done + done[:1], pivot_cols + pivot_cols[:1]

    return sabotaged


def _perturb_free_entry(eliminate):
    # Changes one free-column entry of one reduced row: the rank and the
    # pivots stay, but the derived kernel vector is wrong.
    def sabotaged(matrix, skip_rows):
        done, pivot_cols = eliminate(matrix, skip_rows)
        pc, row = done[0]
        f = next(c for c in row if c not in pivot_cols)
        return [(pc, {**row, f: row[f] + ONE})] + done[1:], pivot_cols

    return sabotaged


@pytest.mark.parametrize(
    "sabotage,message",
    [
        (_drop_last_pivot_row, "not annihilated"),
        (_repeat_first_pivot_row, "nullity"),
        (_perturb_free_entry, "not annihilated"),
    ],
)
def test_sabotaged_elimination_fails_its_certificate(monkeypatch, sabotage, message):
    monkeypatch.setattr(linalg, "_eliminate", sabotage(linalg._eliminate))
    with pytest.raises(CertificateError, match=message):
        rank_and_kernel(dense_matrix([[1, 2, 0], [0, 1, 1]]))


def _cleared_row_complex(cleared_row):
    """dims 1, 2, 2, 1 with d_2 = [1 1], whose pivot column is 0.

    So row 0 of d_1 is the row clearing skips. It is a complex exactly
    when that row is minus row 1, [-1, 0]; d_0 is zero.
    """
    d1 = dense_matrix([cleared_row, [1, 0]])
    return FiniteComplex((1, 2, 2, 1), (ExactMatrix.zero(2, 1), d1, dense_matrix([[1, 1]])))


def test_d_d_failing_through_a_cleared_row_raises_in_cohomology():
    assert cohomology(_cleared_row_complex([-1, 0])).betti == (1, 1, 0, 0)
    broken = _cleared_row_complex([0, 1])
    # rank_and_kernel does not read the rows it is told to skip: with the
    # cleared row left out it sees rank 1, where d_1's rank is 2.
    assert rank_and_kernel(broken.differentials[1], {0})[0] == 1
    message = "^not a complex: d.d != 0 starting at degree 1$"
    for representatives in (False, True):
        with pytest.raises(ValidationFailure, match=message):
            cohomology(broken, representatives)


@pytest.mark.parametrize("skip_rows", [{0}, {2}, {0, 2}, {0, 1, 2}])
def test_skipping_a_row_outside_the_span_fails_its_certificate(skip_rows):
    # The identity's rows are independent, so no row may be skipped.
    # rank_and_kernel does not read skipped rows, so it alone sees a lower
    # rank; the certificate for them is cohomology's d.d check. Here d_1
    # holds the identity rows at skip_rows, so its pivot columns are exactly
    # the skip set clearing hands to d_0 = identity, and d_1 d_0 = d_1 != 0.
    identity = ExactMatrix.from_entries(3, 3, {(i, i): ONE for i in range(3)})
    assert rank_and_kernel(identity, skip_rows)[0] == 3 - len(skip_rows)
    d1 = ExactMatrix(len(skip_rows), 3, tuple(identity.row_maps[j] for j in sorted(skip_rows)))
    complex_ = FiniteComplex((3, 3, len(skip_rows)), (identity, d1))
    message = "^not a complex: d.d != 0 starting at degree 0$"
    for representatives in (False, True):
        with pytest.raises(ValidationFailure, match=message):
            cohomology(complex_, representatives)


class _UnreadableRow(dict):
    """A row that fails the call the moment anything reads its entries."""

    def items(self):
        raise RuntimeError("a skipped row was read")

    def __iter__(self):
        raise RuntimeError("a skipped row was read")


def test_skipped_rows_are_never_read():
    # Row 1 is twice row 0 and row 3 is row 0 plus row 2.
    m = dense_matrix([[1, 2, 0, 1], [2, 4, 0, 2], [0, 1, 1, 0], [1, 3, 1, 1]])
    rows = [_UnreadableRow(r) if i in (1, 3) else r for i, r in enumerate(m.row_maps)]
    r, reduced = rank_and_kernel(ExactMatrix(4, 4, tuple(rows)), {1, 3})
    want_r, want_reduced = rank_and_kernel(ExactMatrix(2, 4, (rows[0], rows[2])))
    assert r == want_r == 2
    assert reduced == want_reduced


@pytest.mark.parametrize("skip_rows", [set(), {1}, {3}, {1, 3}, {0, 3}])
def test_skipping_rows_in_the_span_keeps_the_rank(skip_rows):
    # Row 1 is twice row 0 and row 3 is row 0 plus row 2.
    m = dense_matrix([[1, 2, 0, 1], [2, 4, 0, 2], [0, 1, 1, 0], [1, 3, 1, 1]])
    r, kern = rank_kernel(m, skip_rows)
    assert r == 2 and len(kern) == 2
    for v in kern:
        assert (m @ sparse_column(v, m.ncols)).is_zero()


def _run_optimized(script):
    proc = subprocess.run(
        [sys.executable, "-O", "-c", textwrap.dedent(script)],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.strip()


def test_kernel_certificate_survives_optimize_flag():
    script = """
        from solvcohom import linalg
        from solvcohom.errors import CertificateError
        from solvcohom.linalg import ExactMatrix
        from solvcohom.scalars import ONE, GaussianRational

        assert False, "asserts must be stripped under -O"
        eliminate = linalg._eliminate
        linalg._eliminate = lambda m, skip: tuple(x[:-1] for x in eliminate(m, skip))
        m = ExactMatrix.from_entries(2, 2, {(0, 0): ONE, (0, 1): GaussianRational(2), (1, 1): ONE})
        try:
            linalg.rank_and_kernel(m)
        except CertificateError:
            print("certified")
        """
    assert _run_optimized(script) == "certified"


def test_perturbed_reduced_row_fails_under_optimize_flag():
    # The reduced row of [1, 2] is {0: 1, 1: 2}; making its free entry 3
    # keeps rank and pivots but breaks the kernel vector of column 1.
    script = """
        from solvcohom import linalg
        from solvcohom.errors import CertificateError
        from solvcohom.linalg import ExactMatrix
        from solvcohom.scalars import ONE, GaussianRational

        assert False, "asserts must be stripped under -O"
        eliminate = linalg._eliminate

        def perturbed(m, skip):
            done, pivot_cols = eliminate(m, skip)
            (pc, row), *rest = done
            return [(pc, {**row, 1: row[1] + ONE})] + rest, pivot_cols

        linalg._eliminate = perturbed
        try:
            linalg.rank_and_kernel(ExactMatrix(1, 2, ({0: ONE, 1: GaussianRational(2)},)))
        except CertificateError as exc:
            print(exc)
        """
    assert _run_optimized(script) == "kernel vector for free column 1 not annihilated"


def test_d_d_failing_through_a_cleared_row_raises_under_optimize_flag():
    # _cleared_row_complex([0, 1]): only the row clearing skips breaks d.d.
    script = """
        from solvcohom.cecomplex import FiniteComplex, cohomology
        from solvcohom.errors import ValidationFailure
        from solvcohom.linalg import ExactMatrix
        from solvcohom.scalars import ONE

        assert False, "asserts must be stripped under -O"
        d1 = ExactMatrix(2, 2, ({1: ONE}, {0: ONE}))
        d2 = ExactMatrix(1, 2, ({0: ONE, 1: ONE},))
        complex_ = FiniteComplex((1, 2, 2, 1), (ExactMatrix.zero(2, 1), d1, d2))
        try:
            cohomology(complex_)
        except ValidationFailure as exc:
            print(exc)
        """
    assert _run_optimized(script) == "not a complex: d.d != 0 starting at degree 1"


nonzero_coefficients = st.one_of(nonzero_entries, gaussian_fractions.filter(bool))


def _combination(draw, vectors, width):
    """A dense row: a drawn combination of one or two of the sparse vectors."""
    row = {}
    for v in draw(st.lists(st.sampled_from(vectors), min_size=1, max_size=2)):
        row = linalg.row_axpy(row, v, draw(nonzero_coefficients))
    return [row.get(j, ZERO) for j in range(width)]


@st.composite
def cochain_complexes(draw):
    """Differentials d_0, d_1, .. with d_{p+1} d_p = 0, tie-heavy, over Q(i).

    d_0 is a tie-heavy or fraction matrix with combinations of its own
    rows mixed in, so its rows are dependent. Each later differential
    draws its rows from a small pool of combinations of a basis of the
    left kernel of the one before, so rows repeat and pivot choices tie.
    """
    base = draw(st.one_of(tie_heavy_matrices(), fraction_matrices()))
    rows = [list(r) for r in base.rows]
    nonzero = [r for r in base.row_maps if r]
    if nonzero:
        rows += [_combination(draw, nonzero, base.ncols) for _ in range(draw(st.integers(0, 3)))]
    rows = draw(st.permutations(rows))
    diffs = [dense_matrix(rows, base.ncols)]
    for _ in range(draw(st.integers(1, 3))):
        prev = diffs[-1]
        left = reference_kernel(prev.transpose())  # rows r with r @ prev == 0
        zero_row = [ZERO] * prev.nrows
        pool = []
        if left:
            pool = [_combination(draw, left, prev.nrows) for _ in range(draw(st.integers(1, 4)))]
        picks = draw(st.lists(st.integers(0, len(pool)), max_size=8))
        rows = [pool[k] if k < len(pool) else zero_row for k in picks]
        diffs.append(dense_matrix(rows, prev.nrows))
    return diffs


@given(cochain_complexes())
def test_cleared_betti_numbers_equal_reference_ranks(diffs):
    dims = [d.ncols for d in diffs] + [diffs[-1].nrows]
    ranks = [len(reference_eliminate(d, "sparsity")[0]) for d in diffs] + [0]
    want = tuple(dims[p] - ranks[p] - (ranks[p - 1] if p else 0) for p in range(len(dims)))
    complex_ = FiniteComplex(tuple(dims), tuple(diffs))
    assert cohomology(complex_).betti == want
    result = cohomology(complex_, representatives=True)
    assert result.betti == want
    # The representatives are the greedy reference's, down to dict order.
    assert [[list(v.items()) for v in vs] for vs in result.representatives] == [
        [list(v.items()) for v in vs] for vs in greedy_representatives(complex_)
    ]
    # Clearing by hand, top down: each differential skips the rows at the
    # pivot columns of the next one and keeps its rank. Uncleared, its
    # rows give today's kernel, down to each dict's key order.
    skip = frozenset()
    for p in reversed(range(len(diffs))):
        r, reduced = rank_and_kernel(diffs[p], skip)
        assert r == ranks[p]
        skip = reduced.keys()
        kern = kernel_basis(diffs[p].ncols, rank_and_kernel(diffs[p])[1])
        want_kern = reference_kernel(diffs[p])
        assert kern == want_kern
        assert [list(v) for v in kern] == [list(v) for v in want_kern]


@given(cochain_complexes(), st.booleans())
def test_pivot_columns_count_each_rank(diffs, representatives):
    # cohomology lists each differential's pivot columns, as eliminated:
    # one per unit of the reference rank, so they give the Betti numbers.
    dims = [d.ncols for d in diffs] + [diffs[-1].nrows]
    ranks = [len(reference_eliminate(d, "sparsity")[0]) for d in diffs]
    result = cohomology(FiniteComplex(tuple(dims), tuple(diffs)), representatives)
    pivots = result.pivots
    assert [len(cols) for cols in pivots] == ranks
    for d, cols in zip(diffs, pivots):
        assert len(set(cols)) == len(cols) and all(0 <= c < d.ncols for c in cols)
    counts = [len(cols) for cols in pivots] + [0]
    assert result.betti == tuple(
        dims[p] - counts[p] - (counts[p - 1] if p else 0) for p in range(len(dims))
    )
    # The pivots are rank_and_kernel's on the rows that cohomology keeps:
    # all of them with representatives, else all but the next pivots.
    skip = frozenset()
    for p in reversed(range(len(diffs))):
        _, reduced = rank_and_kernel(diffs[p], skip)
        assert pivots[p] == tuple(reduced)
        skip = frozenset() if representatives else reduced.keys()


@st.composite
def perturbed_complexes(draw):
    """A drawn cochain complex with one entry of one differential changed."""
    diffs = draw(cochain_complexes())
    p = draw(st.integers(0, len(diffs) - 1))
    d = diffs[p]
    if d.nrows and d.ncols:
        rows = [list(r) for r in d.rows]
        i, j = draw(st.integers(0, d.nrows - 1)), draw(st.integers(0, d.ncols - 1))
        rows[i][j] += draw(nonzero_coefficients)
        diffs[p] = dense_matrix(rows, d.ncols)
    return diffs


@given(st.one_of(cochain_complexes(), perturbed_complexes()))
def test_cohomology_fails_exactly_as_check_complex(diffs):
    # The d.d certificate inside the top-down loop raises check_complex's
    # own message, with and without representatives, and on a complex
    # gives the reference Betti numbers.
    dims = [d.ncols for d in diffs] + [diffs[-1].nrows]
    complex_ = FiniteComplex(tuple(dims), tuple(diffs))
    try:
        complex_.check_complex()
    except ValidationFailure as exc:
        for representatives in (False, True):
            with pytest.raises(ValidationFailure) as raised:
                cohomology(complex_, representatives)
            assert str(raised.value) == str(exc)
        return
    ranks = [len(reference_eliminate(d, "sparsity")[0]) for d in diffs] + [0]
    want = tuple(dims[p] - ranks[p] - (ranks[p - 1] if p else 0) for p in range(len(dims)))
    assert cohomology(complex_).betti == want
    assert cohomology(complex_, representatives=True).betti == want
