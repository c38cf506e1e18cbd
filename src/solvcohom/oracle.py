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

Sectors come in orbits. A signed permutation pi of the basis that keeps
the complement and the brackets, applied linearly, or the conjugation
sigma, applied conjugate-linearly, maps the sector of mu to the sector of
pi.mu by a signed permutation of the cochains. On the adjoint and the
trivial module (tau is pi there, and the identity) the tags are closed
into orbits under such generators (_sector_orbits): sigma, and the
automorphisms that a search over the components of the bracket graph
finds (automorphisms.linear_automorphisms). Only each orbit's first
sector is eliminated; every other sector is built and checked entry by
entry to be the image of the first, and takes its Betti numbers only if
it is (verify_quasi_iso).
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
from .scalars import ONE, ZERO, GaussianRational, is_signed_image
from .weights import InvariantComplex, restrict_complex

# (action terms, bracket terms) of one degree; see _degree_skeleton.
DegreeSkeleton = tuple[
    list[tuple[int, int, int, int]], dict[tuple[int, int], GaussianRational]
]
# The nonzero entries (l, k, value) of rho_mu(X_j) for one j.
ActionEntries = list[tuple[int, int, GaussianRational]]
# Per degree p, the code 2 * Phi(c) + [s_c = -1] of each cochain c = (I, k), at
# mask_position(n, p)[I] * m + k, under a cochain map Phi of signed permutations.
CochainMap = list[list[int]]


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


def _cochain_maps(n: int, perm: SignedPermutation, tau: SignedPermutation) -> CochainMap:
    """Phi(x_I (x) v_k) = s_I s_k x_{pi I} (x) v_{tau k}, as codes per degree.

    x_I composed with pi^-1 is s_I x_{pi I}, s_I the product of the signs of
    pi on I and of the sign of the sort of (pi(i) for i in I ascending). Both
    are built up over the masks, lowest bit first; the inversions that the
    lowest index i of a mask adds are the later indices of the mask that pi
    sends below pi(i).
    """
    bits = [1 << j for j, _ in perm]
    below = [sum([1 << b for b in range(i + 1, n) if perm[b][0] < perm[i][0]]) for i in range(n)]
    image, odd = [0] * (1 << n), [0] * (1 << n)
    for mask in range(1, 1 << n):
        low = mask & -mask
        i, rest = low.bit_length() - 1, mask ^ low
        image[mask] = image[rest] | bits[i]
        odd[mask] = odd[rest] ^ perm[i][1] ^ ((below[i] & rest).bit_count() & 1)
    maps = []
    for p in range(n + 1):
        position, codes = mask_position(n, p), []
        for mask in degree_masks(n, p):
            base, s = position[image[mask]] * len(tau), odd[mask]
            codes.extend([2 * (base + t) + (s ^ negative) for t, negative in tau])
        maps.append(codes)
    return maps


@dataclass
class SectorOrbits:
    """One verify_quasi_iso call's pairing of sectors; see there.

    order lists the tags orbit by orbit, each orbit's first tag and then
    its other members breadth first. generators holds each kept
    generator's cochain maps and whether it is conjugate-linear. Each later
    member of an orbit has its (parent tag, generator) in path. held is the
    (differentials, Betti numbers) of the first sector of the orbit in hand.
    """

    order: list[Weight]
    generators: list[tuple[CochainMap, bool]]
    path: dict[Weight, tuple[Weight, int]]
    held: Optional[tuple[tuple[ExactMatrix, ...], tuple[int, ...]]] = None


def _sector_orbits(
    g: LieAlgebraData, rep: RepresentationData, tags: Sequence[Weight]
) -> Optional[SectorOrbits]:
    """tags in orbits under the pairing generators; None where nothing is paired.

    The generators are sigma, conjugate-linear, where the conjugation table
    is an involution that keeps the complement, then linear_automorphisms.
    Each is kept only if it merges two classes of tags. Only the adjoint and
    the trivial module are paired, tau being pi and the identity there.
    """
    n = g.dim
    if len(tags) < 2 or not (rep.adjoint and rep.m == n or rep == trivial_representation(g)):
        return None
    sigma, complement, generators = g.conjugation or {}, g.complement, []
    if (
        set(sigma) == set(range(n))
        and all(sigma.get(sigma[i]) == i for i in sigma)
        and {sigma[j] for j in complement} == set(complement)
    ):
        generators.append((tuple([(sigma[i], False) for i in range(n)]), True))
    generators += [(perm, False) for perm in linear_automorphisms(g)[0]]
    tid = {tag: t for t, tag in enumerate(tags)}
    root, kept = list(range(len(tags))), []
    for perm, conjugate in generators:
        images = [tid.get(_tag_image(perm, conjugate, complement, mu)) for mu in tags]
        merged = False
        for t, u in enumerate(images):
            if u is not None and find_root(root, t) != find_root(root, u):
                root[find_root(root, u)] = find_root(root, t)
                merged = True
        if merged:
            kept.append((perm, conjugate, images))
    if not kept:  # sigma the identity on tags, say: no map is built
        return None
    # Each orbit from its first tag, breadth first: a member's path is short.
    first: dict[int, int] = {}
    path = {}
    for t in range(len(tags)):
        if t in first:
            continue
        first[t], queue = t, [t]
        for u in queue:
            for x, (_, _, images) in enumerate(kept):
                v = images[u]
                if v is not None and v not in first:
                    first[v] = t
                    path[tags[v]] = (tags[u], x)
                    queue.append(v)
    trivial = ((0, False),)
    return SectorOrbits(
        [tags[t] for t in first],
        [(_cochain_maps(n, perm, perm if rep.adjoint else trivial), c) for perm, c, _ in kept],
        path,
    )


def _map_from_first(orbits: SectorOrbits, mu: Weight) -> tuple[CochainMap, bool]:
    """Phi from mu's orbit's first sector to mu's, composed along mu's path."""
    steps = []
    while mu in orbits.path:
        mu, x = orbits.path[mu]
        steps.append(orbits.generators[x])
    maps, conjugate = steps.pop()
    for step, flip in reversed(steps):
        maps = [[s[c >> 1] ^ (c & 1) for c in codes] for s, codes in zip(step, maps)]
        conjugate ^= flip
    return maps, conjugate


def _is_image(
    d: ExactMatrix, image: ExactMatrix, rows: list[int], cols: list[int], conjugate: bool
) -> bool:
    """Whether image = Phi d Phi^-1: each entry v of d at (r, c) is s_r s_c v, conjugated
    if conjugate, at (Phi r, Phi c), rows and cols holding the codes of r and c, and
    row Phi r is as long as row r."""
    for row, r in zip(d.row_maps, rows):
        other, odd = image.row_maps[r >> 1], r & 1
        if len(other) != len(row):
            return False
        for c, v in row.items():
            c = cols[c]
            if not is_signed_image(other.get(c >> 1, ZERO), v, odd != c & 1, conjugate):
                return False
    return True


def sector_cohomology_full(
    g: LieAlgebraData,
    rep: RepresentationData,
    mu: Optional[Weight],
    skeletons: list[DegreeSkeleton],
    orbits: Optional[SectorOrbits] = None,
) -> CohomologyResult:
    """Betti numbers of the full twisted complex for one weight covector.

    `skeletons` is sector_skeleton(g), shared by every sector of g.
    `orbits` is local to one verify_quasi_iso call, which passes the tags in
    orbits.order; see there.
    """
    n, m = g.dim, rep.m
    rho = _action_table(rep, twist_at(g, mu))
    if orbits is not None and mu in orbits.path:
        # Each degree is built, checked and dropped; a sector that fails the
        # check is built again in full below.
        held, betti = orbits.held
        maps, conjugate = _map_from_first(orbits, mu)
        if all(
            _is_image(
                d, _sector_differential(g, m, p, skeletons[p], rho), maps[p + 1], maps[p], conjugate
            )
            for p, d in enumerate(held)
        ):
            return CohomologyResult(betti)
    elif orbits is not None:
        orbits.held = None  # mu starts an orbit, so the last one is done
    diffs = tuple([_sector_differential(g, m, p, skeletons[p], rho) for p in range(n)])
    dims = tuple([math.comb(n, p) * m for p in range(n + 1)])
    result = cohomology(FiniteComplex(dims, diffs))
    if orbits is not None and mu not in orbits.path:
        orbits.held = (diffs, result.betti)
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

    Let pi be an automorphism of g, a signed permutation of the basis that
    keeps the complement, and tau a module map with tau rho(X) = rho(pi X)
    tau. Then Phi(x_I (x) v_k) = s_I x_{pi I} (x) tau v_k, s_I from the signs
    and the sort (_cochain_maps), is a chain isomorphism C(g, V_mu) ~=
    C(g, V_{pi.mu}), (pi.mu)(pi X) = mu(X); made conjugate-linear, the same
    holds for the conjugation sigma with (pi.mu)(pi X) = conj(mu(X)).

    That argument chooses the pairs; it is not what certifies them. The
    tags are closed into orbits under the generators of _sector_orbits, and
    every sector is still built, orbit by orbit. Each orbit's first sector
    is eliminated, and its differentials D are held until the orbit is
    done. For each later member, Phi is composed along the member's path
    of generators, and _is_image checks D' Phi = Phi D entry by entry
    against the member's own D'. Phi is a bijection,
    linear or conjugate-linear, and conjugation is a field automorphism of
    Q(i), so rank D'_p = rank D_p for every p: the member takes the first's
    Betti numbers, and D' D' = Phi (D D) Phi^-1 = 0 is covered by the
    first's kernel and d.d certificates. A member that fails the check is
    eliminated like any other sector; nothing is raised.
    """
    g, rep = ic.algebra, ic.representation
    skeletons = sector_skeleton(g)
    orbits = _sector_orbits(g, rep, ic.tag_table)
    # Orbit by orbit, so that one first sector's differentials are held at a time.
    order = ic.tag_table if orbits is None else orbits.order
    full = {tag: sector_cohomology_full(g, rep, tag, skeletons, orbits).betti for tag in order}
    comparisons = []
    # tag_table is in weight_sort_key order, so ids run through the sorted tags.
    for tid, tag in enumerate(ic.tag_table):
        block_betti = cohomology(restrict_complex(ic, (tid,))).betti
        comparisons.append(SectorComparison(tag, block_betti, full[tag]))
    return QuasiIsoReport(tuple(comparisons))
