"""Restrict-after-build reference for weights.restrict_complex.

The package builds a block of weight tags from those tags' columns only
and is closed under d by its grading check. This reference instead
restricts a complex that is already built to given basis indices, and
proves closure by scanning every kept column for a coefficient on a
dropped row. Tests require the two to give the same complex.
"""
from __future__ import annotations

from typing import Optional, Sequence

from solvcohom.cecomplex import FiniteComplex
from solvcohom.errors import SolvcohomError, ValidationFailure
from solvcohom.linalg import ExactMatrix
from solvcohom.scalars import GaussianRational


class SelectionClosureError(SolvcohomError):
    """A selected subcomplex is not closed under the differential."""


def reference_restrict_complex(
    fc: FiniteComplex, keep: Sequence[Sequence[int]], labels: Sequence[Sequence[str]]
) -> FiniteComplex:
    """Subcomplex on the kept basis indices per degree.

    Any differential coefficient from a kept column to a dropped row
    raises SelectionClosureError, naming both by labels[p][i], the name
    of fc's degree-p basis element i.
    """
    keep_t = [tuple(ks) for ks in keep]
    if len(keep_t) != len(fc.dims):
        raise ValidationFailure("keep list must cover every degree")
    for p, ks in enumerate(keep_t):
        if len(set(ks)) != len(ks) or not all(0 <= i < fc.dims[p] for i in ks):
            raise ValidationFailure(
                f"keep list at degree {p} must hold distinct indices below {fc.dims[p]}"
            )
    dims = [len(ks) for ks in keep_t]
    differentials = []
    for p, d in enumerate(fc.differentials):
        col_pos = {c: pos for pos, c in enumerate(keep_t[p])}
        row_pos = {r: pos for pos, r in enumerate(keep_t[p + 1])}
        entries: dict[tuple[int, int], GaussianRational] = {}
        # The witness is the first offence in (kept column order, row) order.
        witness: Optional[tuple[int, int]] = None
        for r, row in enumerate(d.row_maps):
            rpos = row_pos.get(r)
            for c, a in row.items():
                cpos = col_pos.get(c)
                if cpos is None:
                    continue
                if rpos is not None:
                    entries[(rpos, cpos)] = a
                elif witness is None or (cpos, r) < witness:
                    witness = (cpos, r)
        if witness is not None:
            raise SelectionClosureError(
                f"selection not closed under d at degree {p}: "
                f"column {labels[p][keep_t[p][witness[0]]]} hits dropped row "
                f"{labels[p + 1][witness[1]]}"
            )
        differentials.append(ExactMatrix.from_entries(dims[p + 1], dims[p], entries))
    return FiniteComplex(tuple(dims), tuple(differentials))
