"""Greedy span-tracking references for representatives and the lower
central series.

The package picks representatives by the last free columns of an echelon
basis of the image (linalg.trailing_echelon) and takes each term of the
lower central series as such a basis. These references instead grow an
incremental, fully reduced span one vector at a time: representatives
extend a basis of the image by the kernel vectors, in ascending free
column, that enlarge it. Tests require the two to agree exactly.
"""
from __future__ import annotations

from typing import Mapping

from solvcohom.cecomplex import FiniteComplex
from solvcohom.liealg import LieAlgebraData
from solvcohom.linalg import SparseRow, row_axpy, kernel_basis, rank_and_kernel
from solvcohom.scalars import ONE, GaussianRational


class SpanTracker:
    """Incremental span membership with exact reduction.

    add() returns True when the {index: value} vector enlarges the span;
    the reduced nonzero remainder is kept, and all rows in fully reduced
    form, each keyed by its least column.
    """

    def __init__(self):
        self.rows: list[tuple[int, SparseRow]] = []

    def add(self, vec: Mapping[int, GaussianRational]) -> bool:
        current = {j: a for j, a in vec.items() if a}
        for pc, row in self.rows:
            if pc in current:
                current = row_axpy(current, row, -current[pc])
        if not current:
            return False
        pivot_col = min(current)
        inv = current[pivot_col].inverse()
        current = {c: inv * a for c, a in current.items()}
        new_rows = []
        for pc, row in self.rows:
            if pivot_col in row:
                row = row_axpy(row, current, -row[pivot_col])
            new_rows.append((pc, row))
        new_rows.append((pivot_col, current))
        self.rows = new_rows
        return True


def greedy_representatives(complex_: FiniteComplex) -> list[tuple[SparseRow, ...]]:
    """Per degree p, the kernel vectors of d_p (uncleared elimination, in
    kernel_basis order) that enlarge the span of the image of d_{p-1} and
    of the vectors kept before them."""
    reps = []
    for p, dim in enumerate(complex_.dims):
        reduced = rank_and_kernel(complex_.differentials[p])[1] if p < complex_.top_degree else {}
        tracker = SpanTracker()
        if p > 0:
            for image_vec in complex_.differentials[p - 1].transpose().row_maps:
                tracker.add(image_vec)
        reps.append(tuple(vec for vec in kernel_basis(dim, reduced) if tracker.add(vec)))
    return reps


def greedy_lower_central_series_dims(g: LieAlgebraData, indices: frozenset[int]) -> list[int]:
    """liealg.lower_central_series_dims, each term a greedily grown basis."""
    if not indices:
        return [0]
    current: list[dict[int, GaussianRational]] = [{i: ONE} for i in sorted(indices)]
    dims = [len(current)]
    while dims[-1] != 0 and len(dims) <= g.dim:
        tracker = SpanTracker()
        basis_next = []
        for i in sorted(indices):
            for vec in current:
                out = g.bracket_vectors(i, vec)
                if out and tracker.add(out):
                    basis_next.append(out)
        dims.append(len(basis_next))
        current = basis_next
    return dims
