"""Independent cross-check of the invariant complex against full sectors.

For every weight tag mu occurring in the invariant complex, the full
Chevalley-Eilenberg complex of the module twisted by mu is rebuilt here
by raw evaluation of the differential convention,

    (dw)(X_0..X_p) = sum_a (-1)^a rho(X_a) w(..drop a..)
                   + sum_{a<b} (-1)^{a+b} w([X_a,X_b], ..drop a,b..),

entry by entry, sharing no differential code with the insertion-formula
builder: only the matrix type and the subset order (degree_masks and
mask_position) are common, and only this module forms a twist
(twist_at, which places mu on the complement indices). Its Betti
numbers must agree degree by degree with the mu-block of the invariant
complex; this is the finite certificate that the invariant complex
computes the right cohomology.

Only rho_mu(X_j) depends on the sector. Everything else in the formula
(which (J, I) blocks meet, the evaluation signs, the bracket scalars) is
evaluated once per instance and degree as a skeleton, and each sector
reads the nonzero entries of rho_mu off the module's sparse rows, with
mu on the diagonal, into one table with their negatives. The skeleton
enumerates sources from the argument tuples of the formula, not from all
(J, I) pairs. Their arguments are distinct, so x_I is nonzero on a tuple
only for I its sorted form, and is still evaluated raw on the tuple as
the sign of that sort (_sort_sign).

Characters come in conjugate pairs. Where the module's conjugation tau is
known (sigma on the adjoint module, the identity on trivial coefficients,
none for explicit matrices), the later sector of a pair is checked to be
the earlier one's conjugate and takes its Betti numbers (verify_quasi_iso).
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence

from .cecomplex import (
    CohomologyResult,
    FiniteComplex,
    Weight,
    cohomology,
    degree_masks,
    mask_position,
)
from .errors import ValidationFailure
from .liealg import LieAlgebraData, RepresentationData, trivial_representation
from .linalg import ExactMatrix, SparseRow, row_axpy
from .scalars import ONE, ZERO, GaussianRational, is_signed_conjugate
from .weights import InvariantComplex, restrict_complex

# (action terms, bracket terms) of one degree; see _degree_skeleton.
DegreeSkeleton = tuple[
    list[tuple[int, int, int, int]], dict[tuple[int, int], GaussianRational]
]
# The nonzero entries (l, k, value) of rho_mu(X_j) for one j.
ActionEntries = list[tuple[int, int, GaussianRational]]
# Per cochain of one degree: its image's position, and whether s_I = -1.
CochainMap = list[tuple[int, bool]]
# One verify_quasi_iso call's pairing: cochain maps per degree, each later tag's earlier
# partner, and each earlier tag's (differentials, Betti numbers) until its partner is checked.
Pairs = tuple[list[CochainMap], dict[Weight, Weight], dict[Weight, Optional[tuple]]]


def _sort_sign(arguments: tuple[int, ...]) -> int:
    """x_I on (X_{a_0}, .., X_{a_{p-1}}) for distinct a and I = sorted(a): the
    sign of the permutation sorting the arguments, by the parity of their inversions."""
    sign = 1
    for i, a in enumerate(arguments):
        for b in arguments[i + 1 :]:
            if a > b:
                sign = -sign
    return sign


def _degree_skeleton(g: LieAlgebraData, p: int) -> DegreeSkeleton:
    """The mu-independent part of the degree-p differential, by raw evaluation.

    Action terms (jpos, ipos, j, s) stand for s * rho(X_j) in the block of
    target J and source I, the jpos-th (p+1)-subset and the ipos-th
    p-subset in degree_masks order; bracket terms {(jpos, ipos): c} stand
    for c * id in that block. x_I vanishes off the permutations of I, so
    each argument tuple of the formula, formed from the bits of J, has at
    most one source I, its sorted form, read off the tuple's bits; x_I is
    still evaluated on the tuple.
    """
    position = mask_position(g.dim, p)
    action_terms: list[tuple[int, int, int, int]] = []
    bracket_terms: dict[tuple[int, int], GaussianRational] = {}
    for jpos, mask in enumerate(degree_masks(g.dim, p + 1)):
        J = tuple([j for j in range(g.dim) if mask >> j & 1])
        # Action term: sum_a (-1)^a rho(X_{j_a}) (x_I (x) v)(..drop a..).
        for a in range(p + 1):
            sign = _sort_sign(J[:a] + J[a + 1 :])
            action_terms.append((jpos, position[mask ^ 1 << J[a]], J[a], -sign if a % 2 else sign))
        # Bracket term: sum_{a<b} (-1)^{a+b} (x_I)( [X_a,X_b], ..drop.. ).
        scalars: dict[int, GaussianRational] = {}
        for a in range(p + 1):
            for b in range(a + 1, p + 1):
                rest = J[:a] + J[a + 1 : b] + J[b + 1 :]
                parity = -1 if (a + b) % 2 else 1
                for t, c in g.bracket(J[a], J[b]).items():
                    if t in rest:
                        continue
                    sign = parity * _sort_sign((t,) + rest)
                    ipos = position[mask ^ 1 << J[a] ^ 1 << J[b] | 1 << t]
                    scalars[ipos] = scalars.get(ipos, ZERO) + (c if sign > 0 else -c)
        for ipos in sorted(scalars):
            if scalars[ipos]:
                bracket_terms[(jpos, ipos)] = scalars[ipos]
    action_terms.sort()
    return action_terms, bracket_terms


def sector_skeleton(g: LieAlgebraData) -> list[DegreeSkeleton]:
    """The mu-independent part of every degree, shared by all sectors of g."""
    return [_degree_skeleton(g, p) for p in range(g.dim)]


def twist_at(g: LieAlgebraData, twist: Optional[Weight]) -> tuple[GaussianRational, ...]:
    """A twist (a covector over the complement, or None) per basis index."""
    at = [ZERO] * g.dim
    if twist is not None:
        if len(twist) != len(g.complement):
            raise ValidationFailure("weight covector length != complement size")
        for j, x in zip(g.complement, twist):
            at[j] = x
    return tuple(at)


def _action_table(
    rep: RepresentationData, mu_at: Sequence[GaussianRational]
) -> list[tuple[ActionEntries, ActionEntries]]:
    """(entries, negated entries) of rho_mu(X_j), one pair per j; mu_at = twist_at(g, mu)."""
    table = []
    for R, mu in zip(rep.matrices, mu_at):
        entries = []
        for l, row in enumerate(R.row_maps):
            if mu:
                row = row_axpy(row, {l: ONE}, mu)
            entries.extend((l, k, row[k]) for k in sorted(row))
        table.append((entries, [(l, k, -v) for l, k, v in entries]))
    return table


def _sector_differential(
    g: LieAlgebraData,
    m: int,
    p: int,
    skeleton: DegreeSkeleton,
    rho: list[tuple[ActionEntries, ActionEntries]],
) -> ExactMatrix:
    """Degree-p differential: the skeleton with _action_table(rep, mu_at), m = rep.m."""
    n = g.dim
    action_terms, bracket_terms = skeleton
    rows: list[SparseRow] = [{} for _ in range(math.comb(n, p + 1) * m)]
    for (jpos, ipos), scalar in bracket_terms.items():
        for k in range(m):
            rows[jpos * m + k][ipos * m + k] = scalar
    for jpos, ipos, j, sign in action_terms:
        for l, k, value in rho[j][sign < 0]:
            row, col = rows[jpos * m + l], ipos * m + k
            if col in row:
                value = row[col] + value
                if not value:
                    del row[col]
                    continue
            row[col] = value
    return ExactMatrix(len(rows), math.comb(n, p) * m, tuple(rows))


def _is_conjugate_image(
    d: ExactMatrix, image: ExactMatrix, rows: CochainMap, cols: CochainMap
) -> bool:
    """Whether image = Phi d Phi^-1: each entry v of d at (r, c) is s_r s_c conj(v) at
    (Phi r, Phi c), rows and cols mapping r and c, and row Phi r is as long as row r."""
    for row, (target, flip) in zip(d.row_maps, rows):
        other = image.row_maps[target]
        if len(other) != len(row):
            return False
        for c, v in row.items():
            col, negative = cols[c]
            if not is_signed_conjugate(other.get(col, ZERO), v, flip != negative):
                return False
    return True


def _conjugate_pairs(
    g: LieAlgebraData, rep: RepresentationData, tags: Sequence[Weight]
) -> Optional[Pairs]:
    """Each tag mu paired with sigma-bar mu if that comes later in tags; None if none does."""
    n, sigma, complement = g.dim, g.conjugation or {}, set(g.complement)
    involution = set(sigma) == set(range(n)) and all(sigma.get(sigma[i]) == i for i in sigma)
    if not involution or {sigma[j] for j in complement} != complement or not (
        rep.adjoint and rep.m == n or rep == trivial_representation(g)
    ):
        return None
    tid, later = {tag: t for t, tag in enumerate(tags)}, {}
    for t, mu in enumerate(tags):
        # (sigma-bar mu)_{sigma(j)} = conj(mu_j) at each complement index j.
        at = dict(zip(g.complement, mu))
        conjugate = tuple([at[sigma[j]].conjugate() for j in g.complement])
        if tid.get(conjugate, -1) > t:
            later[conjugate] = mu
    if not later:  # sigma the identity, say: no map is built
        return None
    # Per degree p, (I, k) at mask_position(n, p)[I] * m + k goes to (sigma I, tau k),
    # with s_I the sign of the sort of (sigma(i) for i in I ascending).
    tau = [sigma[k] for k in range(n)] if rep.adjoint else [0]
    maps = []
    for p in range(n + 1):
        cochains: CochainMap = []
        for mask in degree_masks(n, p):
            image = tuple([sigma[i] for i in range(n) if mask >> i & 1])
            base = mask_position(n, p)[sum([1 << i for i in image])] * len(tau)
            negative = _sort_sign(image) < 0
            cochains.extend([(base + t, negative) for t in tau])
        maps.append(cochains)
    return maps, later, dict.fromkeys(later.values())


def sector_cohomology_full(
    g: LieAlgebraData,
    rep: RepresentationData,
    mu: Optional[Weight],
    skeletons: list[DegreeSkeleton],
    pairs: Optional[Pairs] = None,
) -> CohomologyResult:
    """Betti numbers of the full twisted complex for one weight covector.

    `skeletons` is sector_skeleton(g), shared by every sector of g.
    `pairs` is local to one verify_quasi_iso call; see there.
    """
    n, m = g.dim, rep.m
    rho = _action_table(rep, twist_at(g, mu))
    diffs = tuple([_sector_differential(g, m, p, skeletons[p], rho) for p in range(n)])
    maps, later, waiting = pairs or ([], {}, {})
    if mu in later:
        held, betti = waiting.pop(later[mu])
        if all(_is_conjugate_image(d, diffs[p], maps[p + 1], maps[p]) for p, d in enumerate(held)):
            return CohomologyResult(betti)
    dims = tuple([math.comb(n, p) * m for p in range(n + 1)])
    result = cohomology(FiniteComplex(dims, diffs))
    if mu in waiting:
        waiting[mu] = (diffs, result.betti)
    return result


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


def verify_quasi_iso(ic: InvariantComplex) -> QuasiIsoReport:
    """Compare every weight-tag block with its full sector, degree-wise.

    Every sector is built. Where tags mu and sigma-bar mu both occur, mu
    first, mu's differentials D are held until sigma-bar mu's D' is built.
    Phi(c x_I (x) v_k) = conj(c) s_I x_{sigma I} (x) v_{tau k} is a
    conjugate-linear bijection, and _is_conjugate_image checks D' Phi =
    Phi D entry by entry. Conjugation is a field automorphism of Q(i) and
    signed permutations keep rank, so rank D'_p = rank D_p for every p:
    sigma-bar mu takes mu's Betti numbers. D' D' = Phi (D D) Phi^-1 = 0,
    so mu's kernel and d.d certificates cover it. If the check fails,
    sigma-bar mu is eliminated like any other sector; nothing is raised.
    """
    g, rep = ic.algebra, ic.representation
    skeletons = sector_skeleton(g)
    pairs = _conjugate_pairs(g, rep, ic.tag_table)
    comparisons = []
    # tag_table is in weight_sort_key order, so ids run through the sorted tags.
    for tid, tag in enumerate(ic.tag_table):
        block_betti = cohomology(restrict_complex(ic, (tid,))).betti
        full_betti = sector_cohomology_full(g, rep, tag, skeletons, pairs).betti
        comparisons.append(SectorComparison(tag, block_betti, full_betti))
    return QuasiIsoReport(tuple(comparisons))
