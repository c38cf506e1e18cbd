"""Independent cross-check of the invariant complex against full sectors.

For every weight tag mu occurring in the invariant complex, the full
Chevalley-Eilenberg complex of the module twisted by mu is rebuilt here
(once per orbit, below) by raw evaluation of the differential convention,

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

Sectors come in orbits. A signed permutation pi of the basis that keeps
the complement and the brackets, applied linearly, or the conjugation
sigma, applied conjugate-linearly, maps the sector of mu to the sector of
pi.mu by a signed permutation of the cochains, when the module map tau
intertwines rho. On the adjoint and the trivial module (tau is pi there,
and the identity) the tags are closed into orbits under such generators
(_sector_orbits): sigma, and the automorphisms that a search over the
components of the bracket graph finds (automorphisms.linear_automorphisms).
Each generator is certified exactly on g and rho before it pairs anything
(_certified). Only each orbit's first sector is built and eliminated;
every other member takes its Betti numbers (verify_quasi_iso).
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence

from .automorphisms import SignedPermutation, find_root, linear_automorphisms
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
from .scalars import ONE, ZERO, GaussianRational
from .weights import InvariantComplex, restrict_complex

# (action terms, bracket terms) of one degree; see _degree_skeleton.
DegreeSkeleton = tuple[
    list[tuple[int, int, int, int]], dict[tuple[int, int], GaussianRational]
]
# The nonzero entries (l, k, value) of rho_mu(X_j) for one j.
ActionEntries = list[tuple[int, int, GaussianRational]]


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


def _tag_image(perm: SignedPermutation, conjugate: bool, complement: tuple, mu: Weight) -> Weight:
    """pi . mu: (pi . mu)_{pi(j)} = +-mu_j, conjugated if conjugate, at each complement j."""
    at = {}
    for j, x in zip(complement, mu):
        image, negative = perm[j]
        x = x.conjugate() if conjugate else x
        at[image] = -x if negative else x
    return tuple([at[j] for j in complement])


def _certified(
    g: LieAlgebraData, rep: RepresentationData, perm: SignedPermutation, conjugate: bool
) -> bool:
    """Whether pi = perm, applied linearly or conjugate-linearly, is a bijection
    that keeps the complement and every bracket, with tau rho(X_j) tau^-1 =
    rho(pi X_j) for every j; tau is pi on the adjoint module and the identity
    on trivial coefficients. Exact, in O(#brackets + nnz rho)."""
    n, complement = g.dim, g.complement
    if sorted([i for i, _ in perm]) != list(range(n)):
        return False
    if sorted([perm[j][0] for j in complement]) != list(complement):
        return False

    def image(terms, negative: bool, at: SignedPermutation) -> dict[int, GaussianRational]:
        """+-pi applied to sparse terms through at, conjugated if conjugate."""
        out = {}
        for k, c in terms:
            target, odd = at[k]
            c = c.conjugate() if conjugate else c
            out[target] = -c if negative ^ odd else c
        return out

    # [pi X_i, pi X_j] = s_i s_j [X_pi(i), X_pi(j)] against pi [X_i, X_j]. The
    # nonzero pairs then go to as many distinct nonzero pairs, so zero pairs to zero.
    for (i, j), terms in g.bracket_table().items():
        (pi, si), (pj, sj) = perm[i], perm[j]
        if g.bracket(pi, pj) != image(terms, si ^ sj, perm):
            return False
    tau = perm if rep.adjoint else ((0, False),)
    for j, R in enumerate(rep.matrices):
        # tau sends entry (l, k) to (tau l, tau k), signed; rho(pi X_j) is s_j rho(X_pi(j)).
        pj, sj = perm[j]
        want: list[dict] = [{} for _ in range(rep.m)]
        for l, row in enumerate(R.row_maps):
            tl, nl = tau[l]
            want[tl] = image(row.items(), sj ^ nl, tau)
        if tuple(want) != rep.matrices[pj].row_maps:
            return False
    return True


def _sector_orbits(
    g: LieAlgebraData, rep: RepresentationData, tags: Sequence[Weight]
) -> dict[Weight, Weight]:
    """Each paired tag's orbit's first tag (its earliest in tags); see verify_quasi_iso.

    The generators are sigma, conjugate-linear, where the conjugation table
    covers the basis and keeps the complement, then linear_automorphisms.
    One that moves a tag onto another is certified (_certified), and only
    one that passes merges tags. Only the adjoint and the trivial module are
    paired, tau being pi and the identity there.
    """
    n, complement, sigma = g.dim, g.complement, g.conjugation or {}
    if len(tags) < 2 or not (rep.adjoint and rep.m == n or rep == trivial_representation(g)):
        return {}
    generators = []
    # _tag_image needs the complement kept; _certified checks it again.
    if set(sigma) == set(range(n)) and {sigma[j] for j in complement} == set(complement):
        generators.append((tuple([(sigma[i], False) for i in range(n)]), True))
    generators += [(perm, False) for perm in linear_automorphisms(g)[0]]
    tid = {tag: t for t, tag in enumerate(tags)}
    root = list(range(len(tags)))
    for perm, conjugate in generators:
        images = [tid.get(_tag_image(perm, conjugate, complement, mu)) for mu in tags]
        moved = [(t, u) for t, u in enumerate(images) if u is not None and u != t]
        if moved and _certified(g, rep, perm, conjugate):
            for t, u in moved:
                root[find_root(root, u)] = find_root(root, t)
    first: dict[int, Weight] = {}
    paired = {}
    for t, tag in enumerate(tags):
        r = find_root(root, t)
        if r in first:
            paired[tag] = first[r]
        else:
            first[r] = tag
    return paired


def sector_cohomology_full(
    g: LieAlgebraData,
    rep: RepresentationData,
    mu: Optional[Weight],
    skeletons: list[DegreeSkeleton],
) -> CohomologyResult:
    """Betti numbers of the full twisted complex for one weight covector.

    `skeletons` is sector_skeleton(g), shared by every sector of g.
    """
    n, m = g.dim, rep.m
    rho = _action_table(rep, twist_at(g, mu))
    diffs = tuple([_sector_differential(g, m, p, skeletons[p], rho) for p in range(n)])
    return cohomology(FiniteComplex(tuple([math.comb(n, p) * m for p in range(n + 1)]), diffs))


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

    Sectors are paired by functoriality. Let pi be a signed permutation of
    the basis, pi X_j = s_j X_{pi(j)}, that keeps the complement and every
    bracket, so an automorphism of g, and tau a signed permutation of the
    module basis with tau rho(X_j) tau^-1 = rho(pi X_j) for every j. Put
    (pi.mu)(pi X) = mu(X), so (pi.mu)_{pi(j)} = s_j mu_j. The twist carries
    over, since tau commutes with the scalar mu_j: rho_{pi.mu}(pi X_j) =
    rho(pi X_j) + mu_j = tau rho_mu(X_j) tau^-1. So Phi(x_I (x) v_k) =
    s_I x_{pi I} (x) tau v_k, s_I from the signs and the sort, meets the
    differential formula term by term, D' Phi = Phi D: it is a chain
    isomorphism C(g, V_mu) ~= C(g, V_{pi.mu}). Made conjugate-linear, the
    same holds for the conjugation sigma, with conj(mu_j) for mu_j; it keeps
    ranks, conjugation being a field automorphism of Q(i). Either way
    rank D'_p = rank D_p, and the Betti numbers agree.

    What is checked is the input of that theorem, not built matrices.
    _certified checks each generator exactly on g and rho themselves: a
    bijection that keeps the complement and every bracket, and tau rho(X_j)
    tau^-1 = rho(pi X_j) for every j (tau is pi on the adjoint module and
    the identity on trivial coefficients). A generator that fails pairs
    nothing. The tags are closed into orbits under the generators that pass
    (_sector_orbits), and only each orbit's first sector is built and
    eliminated, under its own kernel and d.d certificates. Every other
    member is the image of the first under a composition of such Phi, and
    takes the first's Betti numbers without being built.
    """
    g, rep = ic.algebra, ic.representation
    skeletons = sector_skeleton(g)
    first = _sector_orbits(g, rep, ic.tag_table)
    # An orbit's first tag is its earliest in tag_table, so it is done first.
    full: dict[Weight, tuple[int, ...]] = {}
    for tag in ic.tag_table:
        if tag in first:
            full[tag] = full[first[tag]]
        else:
            full[tag] = sector_cohomology_full(g, rep, tag, skeletons).betti
    comparisons = []
    # tag_table is in weight_sort_key order, so ids run through the sorted tags.
    for tid, tag in enumerate(ic.tag_table):
        block_betti = cohomology(restrict_complex(ic, (tid,))).betti
        comparisons.append(SectorComparison(tag, block_betti, full[tag]))
    return QuasiIsoReport(tuple(comparisons))
