"""Independent cross-check of the invariant complex against full sectors.

For every weight tag mu occurring in the invariant complex, the full
Chevalley-Eilenberg complex of the module twisted by mu is rebuilt here
by raw evaluation of the differential convention,

    (dw)(X_0..X_p) = sum_a (-1)^a rho(X_a) w(..drop a..)
                   + sum_{a<b} (-1)^{a+b} w([X_a,X_b], ..drop a,b..),

entry by entry, sharing no differential code with the insertion-formula
builder: only the matrix type, the subset order and twist_at, which
places mu on the complement indices, are common. Its Betti numbers must
agree degree by degree with the mu-block of the invariant complex; this
is the finite certificate that the invariant complex computes the right
cohomology.

Only rho_mu(X_j) depends on the sector. Everything else in the formula
(which (J, I) blocks meet, the evaluation signs, the bracket scalars) is
evaluated once per instance and degree as a skeleton, and each sector
reads the nonzero entries of rho_mu off the module's sparse rows, with
mu on the diagonal. The skeleton enumerates sources from the argument
tuples of the formula, not from all (J, I) pairs; each x_I is still
evaluated raw on its tuple.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

from .cecomplex import (
    CohomologyResult,
    FiniteComplex,
    Weight,
    cohomology,
    degree_basis,
    subset_position,
    twist_at,
)
from .liealg import LieAlgebraData, RepresentationData
from .linalg import ExactMatrix, SparseRow
from .scalars import ZERO, GaussianRational
from .weights import InvariantComplex, format_weight, restrict_complex

# (action terms, bracket terms) of one degree; see _degree_skeleton.
DegreeSkeleton = tuple[
    list[tuple[int, int, int, int]], dict[tuple[int, int], GaussianRational]
]
# The nonzero entries (l, k, value) of rho_mu(X_j), one list per j.
ActionEntries = list[tuple[int, int, GaussianRational]]
ActionTable = list[ActionEntries]


def _alternating_evaluation(
    I: tuple[int, ...], arguments: tuple[int, ...]
) -> int:
    """x_I evaluated on (X_{a_0}, .., X_{a_{p-1}}): 0 or the permutation sign."""
    if len(set(arguments)) != len(arguments):
        return 0
    if set(arguments) != set(I):
        return 0
    # Sign of the permutation sorting the argument tuple.
    args = list(arguments)
    sign = 1
    for i in range(len(args)):
        for j in range(i + 1, len(args)):
            if args[i] > args[j]:
                sign = -sign
    return sign


def _degree_skeleton(g: LieAlgebraData, p: int) -> DegreeSkeleton:
    """The mu-independent part of the degree-p differential, by raw evaluation.

    Action terms (jpos, ipos, j, s) stand for s * rho(X_j) in the block of
    target J and source I, the jpos-th (p+1)-subset and the ipos-th
    p-subset in degree_basis order; bracket terms {(jpos, ipos): c} stand
    for c * id in that block. x_I vanishes off the permutations of I, so
    each argument tuple of the formula has at most one source I, its
    sorted form; x_I is still evaluated on the tuple.
    """
    position = subset_position(g.dim, p)
    action_terms: list[tuple[int, int, int, int]] = []
    bracket_terms: dict[tuple[int, int], GaussianRational] = {}
    for jpos, J in enumerate(degree_basis(g.dim, p + 1)):
        # Action term: sum_a (-1)^a rho(X_{j_a}) (x_I (x) v)(..drop a..).
        for a in range(p + 1):
            arguments = J[:a] + J[a + 1 :]
            I = tuple(sorted(arguments))
            sign = _alternating_evaluation(I, arguments)
            action_terms.append((jpos, position[I], J[a], -sign if a % 2 else sign))
        # Bracket term: sum_{a<b} (-1)^{a+b} (x_I)( [X_a,X_b], ..drop.. ).
        scalars: dict[int, GaussianRational] = {}
        for a in range(p + 1):
            for b in range(a + 1, p + 1):
                rest = J[:a] + J[a + 1 : b] + J[b + 1 :]
                parity = -1 if (a + b) % 2 else 1
                for t, c in g.bracket(J[a], J[b]).items():
                    if t in rest:
                        continue
                    arguments = (t,) + rest
                    I = tuple(sorted(arguments))
                    sign = parity * _alternating_evaluation(I, arguments)
                    ipos = position[I]
                    scalars[ipos] = scalars.get(ipos, ZERO) + (c if sign > 0 else -c)
        for ipos in sorted(scalars):
            if scalars[ipos]:
                bracket_terms[(jpos, ipos)] = scalars[ipos]
    action_terms.sort()
    return action_terms, bracket_terms


def sector_skeleton(g: LieAlgebraData) -> list[DegreeSkeleton]:
    """The mu-independent part of every degree, shared by all sectors of g."""
    return [_degree_skeleton(g, p) for p in range(g.dim)]


def _action_table(rep: RepresentationData, mu_at: Sequence[GaussianRational]) -> ActionTable:
    """The nonzero entries (l, k, value) of rho_mu(X_j), one per j; mu_at = twist_at(g, mu)."""
    table = []
    for R, mu in zip(rep.matrices, mu_at):
        entries = []
        for l, row in enumerate(R.row_maps):
            if mu:
                row = dict(row)
                if value := row.get(l, ZERO) + mu:
                    row[l] = value
                else:
                    del row[l]
            entries.extend((l, k, row[k]) for k in sorted(row))
        table.append(entries)
    return table


def _signed(rho: ActionTable) -> list[tuple[ActionEntries, ActionEntries]]:
    """(entries, negated entries) per j, formed once per sector."""
    return [(entries, [(l, k, -v) for l, k, v in entries]) for entries in rho]


def _sector_differential(
    g: LieAlgebraData,
    m: int,
    p: int,
    skeleton: DegreeSkeleton,
    signed: list[tuple[ActionEntries, ActionEntries]],
) -> ExactMatrix:
    """Degree-p differential: the skeleton with _signed(_action_table(rep, mu_at)), m = rep.m."""
    n = g.dim
    action_terms, bracket_terms = skeleton
    rows: list[SparseRow] = [{} for _ in range(len(degree_basis(n, p + 1)) * m)]
    for (jpos, ipos), scalar in bracket_terms.items():
        for k in range(m):
            rows[jpos * m + k][ipos * m + k] = scalar
    for jpos, ipos, j, sign in action_terms:
        for l, k, value in signed[j][sign < 0]:
            row, col = rows[jpos * m + l], ipos * m + k
            if col in row:
                value = row[col] + value
                if not value:
                    del row[col]
                    continue
            row[col] = value
    return ExactMatrix._of(len(rows), len(degree_basis(n, p)) * m, rows)


def sector_cohomology_full(
    g: LieAlgebraData,
    rep: RepresentationData,
    mu: Optional[Weight],
    skeletons: Optional[list[DegreeSkeleton]] = None,
) -> CohomologyResult:
    """Betti numbers of the full twisted complex for one weight covector.

    `skeletons`, from sector_skeleton(g), saves rebuilding the
    mu-independent part when many sectors of one algebra are computed.
    """
    n, m = g.dim, rep.m
    signed = _signed(_action_table(rep, twist_at(g, mu)))
    if skeletons is None:
        skeletons = sector_skeleton(g)
    diffs = [_sector_differential(g, m, p, skeletons[p], signed) for p in range(n)]
    dims = [len(degree_basis(n, p)) * m for p in range(n + 1)]
    fc = FiniteComplex(dims, diffs)
    return cohomology(fc)


@dataclass(frozen=True)
class SectorComparison:
    tag: Weight
    block_betti: tuple[int, ...]
    full_betti: tuple[int, ...]

    @property
    def equal(self) -> bool:
        return self.block_betti == self.full_betti


@dataclass(frozen=True)
class QuasiIsoReport:
    sectors: tuple[SectorComparison, ...]

    @property
    def ok(self) -> bool:
        return all(s.equal for s in self.sectors)

    def summary_lines(self) -> list[str]:
        lines = []
        for s in self.sectors:
            verdict = "ok" if s.equal else "MISMATCH"
            lines.append(
                f"tag {format_weight(s.tag)}: block {list(s.block_betti)} "
                f"vs full {list(s.full_betti)} [{verdict}]"
            )
        return lines


def verify_quasi_iso(ic: InvariantComplex) -> QuasiIsoReport:
    """Compare every weight-tag block with its full sector, degree-wise."""
    g, rep = ic.algebra, ic.representation
    skeletons = sector_skeleton(g)
    comparisons = []
    # tag_table is in weight_sort_key order, so ids run through the sorted tags.
    for tid, tag in enumerate(ic.tag_table):
        block_betti = cohomology(restrict_complex(ic, (tid,))).betti
        full_betti = sector_cohomology_full(g, rep, tag, skeletons).betti
        comparisons.append(SectorComparison(tag, block_betti, full_betti))
    return QuasiIsoReport(tuple(comparisons))
