"""Exact sparse matrices over Q(i) and kernel computation.

An ExactMatrix stores each row as a {column: value} dict holding the
nonzero entries only, so every operation costs time proportional to the
number of nonzeros and zero entries are never tested. The differentials
this package builds are very sparse (about 1.5% nonzero on the shipped
oracle sectors), which is what makes that pay.

Rank and kernel are computed by exact Gauss-Jordan elimination on the
sparse rows. The pivot is sparsity-first, which keeps fill-in low: least
(row length, row id), then least (open-row count, column); a heap and
column indexes only find it faster. The open rows are indexed at all
their columns; a finished row only at the columns that some open row
still holds, since no other column can become a pivot (see _eliminate).
Each distinct lead is inverted once per call. rank_and_kernel returns
the reduced rows keyed by pivot column; kernel_basis reads the kernel
off them as sparse rows, one per free column, for the callers that
need vectors.
The kernel certificate is checked row by row: every row it eliminates,
reduced against the pivot rows at its pivot columns, must leave nothing
at any free column, which are exactly the equations "the matrix
annihilates each kernel vector". trailing_echelon gives an echelon basis
of a span, one row per column at which some vector of the span ends.

Clearing (Chen & Kerber, "Persistent homology computation with a
twist", 2011; Bauer, Kerber & Reininghaus, "Clear and compress", 2014):
a caller may name rows it knows to lie in the span of the others, and
elimination leaves them out. In a complex, the rows of d_p
at the pivot columns Q of d_{p+1} are such rows: d_{p+1} d_p = 0 and
d_{p+1}[:, Q] has full column rank. The caller certifies that premise:
the certificate here reads no skipped row, so a wrong skip set would give
too small a rank. cecomplex.cohomology proves each row of d_p at Q a
combination of the others before it passes Q; the kernel certified on
those rows then annihilates it too.
"""
from __future__ import annotations

import heapq
from collections import defaultdict
from dataclasses import dataclass
from typing import Container, Iterable, Mapping

from .errors import CertificateError
from .scalars import MINUS_ONE, ONE, ZERO, GaussianRational

SparseRow = dict[int, GaussianRational]


@dataclass(frozen=True, slots=True)
class ExactMatrix:
    """Immutable sparse matrix over Q(i); may have zero rows or columns.

    `row_maps[i]` is row i as a {column: value} dict of its nonzero
    entries, at columns in range(ncols). The constructor trusts that and
    stores the tuple of rows as given; it is the only storage and must not
    be mutated. from_entries is the checked route for outside data: it
    checks ranges and drops zeros. Because no zero is ever stored, ==
    compares canonical forms. `rows` is a dense
    tuple-of-tuples view built on demand. No command reads it: it remains
    only for the counters of bench/spans.py, until the benchmark counts
    from `row_maps` (ROADMAP item 6(a)).
    """

    nrows: int
    ncols: int
    row_maps: tuple[SparseRow, ...]

    @property
    def rows(self) -> tuple[tuple[GaussianRational, ...], ...]:
        dense = []
        for r in self.row_maps:
            out = [ZERO] * self.ncols
            for j, a in r.items():
                out[j] = a
            dense.append(tuple(out))
        return tuple(dense)

    # -- constructors --------------------------------------------------

    @classmethod
    def zero(cls, nrows: int, ncols: int) -> "ExactMatrix":
        return cls(nrows, ncols, tuple({} for _ in range(nrows)))

    @classmethod
    def from_entries(
        cls, nrows: int, ncols: int, entries: Mapping[tuple[int, int], GaussianRational]
    ) -> "ExactMatrix":
        data: list[SparseRow] = [{} for _ in range(nrows)]
        for (i, j), v in entries.items():
            if not (0 <= i < nrows and 0 <= j < ncols):
                raise ValueError(f"entry ({i}, {j}) outside a {nrows}x{ncols} matrix")
            if v:
                data[i][j] = v
        return cls(nrows, ncols, tuple(data))

    # -- algebra --------------------------------------------------------

    def __matmul__(self, other: "ExactMatrix") -> "ExactMatrix":
        if self.ncols != other.nrows:
            raise ValueError("inner dimensions disagree")
        return ExactMatrix(
            self.nrows, other.ncols, tuple([row_times(row, other) for row in self.row_maps])
        )

    def transpose(self) -> "ExactMatrix":
        cols: list[SparseRow] = [{} for _ in range(self.ncols)]
        for i, row in enumerate(self.row_maps):
            for j, a in row.items():
                cols[j][i] = a
        return ExactMatrix(self.ncols, self.nrows, tuple(cols))

    def is_zero(self) -> bool:
        return not any(self.row_maps)

    def is_nilpotent(self) -> bool:
        """Whether M^n = 0, n = nrows: M^(2^k) for 2^k > n, squared until zero."""
        m = self
        for _ in range(self.nrows.bit_length()):
            if m.is_zero():
                return True
            m = m @ m
        return m.is_zero()

    def split_diagonal(self) -> tuple[list[GaussianRational], bool]:
        """A square matrix's diagonal, and whether it minus its diagonal
        is nilpotent: the split that weights are read from."""
        diag = [row.get(i, ZERO) for i, row in enumerate(self.row_maps)]
        off = [{j: a for j, a in row.items() if j != i} for i, row in enumerate(self.row_maps)]
        return diag, ExactMatrix(self.nrows, self.ncols, tuple(off)).is_nilpotent()

    def __repr__(self):
        return f"ExactMatrix({self.nrows}x{self.ncols})"


def row_times(row: SparseRow, matrix: ExactMatrix) -> SparseRow:
    """The row vector `row` times `matrix`, zeros dropped."""
    acc: SparseRow = {}
    for k, a in row.items():
        for j, b in matrix.row_maps[k].items():
            acc[j] = acc[j] + a * b if j in acc else a * b
    return {j: v for j, v in acc.items() if v}


def _eliminate(
    matrix: ExactMatrix, skip_rows: Container[int] = frozenset()
) -> tuple[list[tuple[int, SparseRow]], list[int]]:
    """Gauss-Jordan elimination; returns (pivot rows, pivot columns).

    Each returned row is fully reduced: its pivot column occurs in no
    other returned row. The matrix's own rows are read, never mutated;
    a returned row may be one of them. The rows in skip_rows are left
    out, as if they were zero.

    Pivot: the open row of least (row length, row id), then its column of
    least (open-row count, column). A heap of (row length, row id) entries,
    stale ones skipped, and column -> row id indexes only find that pivot
    and its rows faster.

    A finished row is indexed (done_holders) only at the columns that some
    open row still holds once its pivot column is cleared. That loses
    nothing: open rows gain columns only from pivot rows, and a pivot row
    is an open row when it is picked, so the union of the open rows'
    columns never grows. A column that no open row holds can never become
    a pivot, so no finished row is reduced there. Back-reduction still
    indexes every column it adds to a finished row; an extra index entry
    is harmless. Each lead other than 1 and -1 is inverted once per
    distinct value, in a dict local to the call.
    """
    open_rows: dict[int, SparseRow] = {}
    heap = []
    holders = defaultdict(set)  # column -> ids of the open rows holding it
    for rid, r in enumerate(matrix.row_maps):
        if r and rid not in skip_rows:
            open_rows[rid] = r
            heap.append((len(r), rid))
            for c in r:
                holders[c].add(rid)
    heapq.heapify(heap)
    done: dict[int, SparseRow] = {}  # pivot column -> row, in pivot order
    done_holders = defaultdict(set)  # column -> pivot columns of done rows
    inverses: dict[GaussianRational, GaussianRational] = {}
    while heap:
        length, rid = heapq.heappop(heap)
        row = open_rows.get(rid)
        if not row or len(row) != length:
            continue  # stale: the row is done, zeroed or of a new length
        del open_rows[rid]
        pivot_col, count = -1, 0
        for c in row:
            h = holders[c]
            h.discard(rid)
            if pivot_col < 0 or len(h) < count or (len(h) == count and c < pivot_col):
                pivot_col, count = c, len(h)
        if length == 1:
            row = {pivot_col: ONE}
        elif (lead := row[pivot_col]) == MINUS_ONE:
            row = {c: -a for c, a in row.items()}
        elif lead != ONE:
            inv = inverses.get(lead)
            if inv is None:
                inv = inverses[lead] = lead.inverse()
            row = {c: ONE if c == pivot_col else inv * a for c, a in row.items()}
        # Reduce the open rows and the finished ones that hold the pivot
        # column, so it survives in exactly one row (Jordan form rows).
        if count:
            for rid in _reduce(open_rows, holders, pivot_col, row):
                if open_rows[rid]:
                    heapq.heappush(heap, (len(open_rows[rid]), rid))
        if done_holders.get(pivot_col):
            _reduce(done, done_holders, pivot_col, row)
        done[pivot_col] = row
        for c in row:
            if holders[c]:
                done_holders[c].add(pivot_col)
    return list(done.items()), list(done)


def _reduce(rows: dict, holders: dict, col: int, pivot: SparseRow) -> list[int]:
    """Clear col, with pivot[col] == 1, from the rows in holders[col].

    Keeps holders (column -> row ids) up to date; returns the ids of the
    rows whose length changed.
    """
    changed = []
    for rid in list(holders[col]):
        # row_axpy(row, pivot, -row[col]), inlined to index as it goes.
        old = rows[rid]
        rows[rid] = new = dict(old)
        factor = -old[col]
        for c, a in pivot.items():
            if c in new:
                v = new[c] + factor * a
                if v:
                    new[c] = v
                else:
                    del new[c]
                    holders[c].discard(rid)
            else:
                new[c] = factor * a
                holders[c].add(rid)
        if len(new) != len(old):
            changed.append(rid)
    return changed


def row_axpy(target: SparseRow, source: SparseRow, factor: GaussianRational) -> SparseRow:
    """target + factor * source as a new row; factor and source's entries must be nonzero."""
    out = dict(target)
    for c, a in source.items():
        if c in out:
            v = out[c] + factor * a
            if v:
                out[c] = v
            else:
                del out[c]
        else:
            out[c] = factor * a
    return out


def rank_and_kernel(
    matrix: ExactMatrix, skip_rows: Container[int] = frozenset()
) -> tuple[int, dict[int, SparseRow]]:
    """Exact rank and the reduced rows {pivot column: row}, in pivot order.

    Rows in skip_rows are never read; the caller certifies that they lie
    in the span of the others. Certified here, raising CertificateError
    otherwise: rank + nullity == ncols, and every other row r has
    r[f] - sum_pc r[pc] * R_pc[f] == 0 at every free column f, which is
    entry (r, f) of the matrix times the kernel of kernel_basis.
    """
    done, _ = _eliminate(matrix, skip_rows)
    rank = len(done)
    reduced = dict(done)
    nullity = sum(1 for f in range(matrix.ncols) if f not in reduced)
    if rank + nullity != matrix.ncols:
        raise CertificateError(f"rank {rank} + nullity {nullity} != {matrix.ncols} columns")
    for rid, row in enumerate(matrix.row_maps):
        if not row or rid in skip_rows:
            continue
        # Each free entry of the row must equal the sum over its pivot
        # columns pc of row[pc] * R_pc[f].
        image: SparseRow = {}
        for c, a in row.items():
            pivot_row = reduced.get(c)
            if pivot_row is not None:
                for f, b in pivot_row.items():
                    if f not in reduced:
                        image[f] = image[f] + a * b if f in image else a * b
        for f, a in row.items():
            if f not in reduced and image.pop(f, ZERO) != a:
                raise CertificateError(f"kernel vector for free column {f} not annihilated")
        for f, v in image.items():
            if v:
                raise CertificateError(f"kernel vector for free column {f} not annihilated")
    return rank, reduced


def kernel_basis(ncols: int, reduced: Mapping[int, SparseRow]) -> tuple[SparseRow, ...]:
    """The kernel that reduced rows from rank_and_kernel certify.

    The vector of free column f is 1 at f and -R_pc[f] at each pivot
    column pc, where R_pc is the reduced row of pivot pc; vectors come
    in ascending order of f.
    """
    kernel: dict[int, SparseRow] = {f: {f: ONE} for f in range(ncols) if f not in reduced}
    for pc, row in reduced.items():
        for c, a in row.items():
            if c in kernel:
                kernel[c][pc] = -a
    return tuple(kernel.values())


def trailing_echelon(vectors: Iterable[SparseRow]) -> dict[int, SparseRow]:
    """An echelon basis of the span of vectors, keyed by last column.

    Each vector is reduced by the kept rows from its largest column down;
    a nonzero remainder is scaled to 1 at its largest column c and kept
    as row c. So the keys are exactly the columns at which some vector of
    the span ends (has its largest nonzero coordinate), in the order the
    vectors first reach them.
    """
    rows: dict[int, SparseRow] = {}
    for vec in vectors:
        while vec:
            c = max(vec)
            row = rows.get(c)
            if row is None:
                inv = vec[c].inverse()
                rows[c] = {j: inv * a for j, a in vec.items()}
                break
            vec = row_axpy(vec, row, -vec[c])
    return rows
