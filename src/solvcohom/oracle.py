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
computes the right cohomology. All blocks are eliminated as one complex,
each block's ranks read off the pivot columns of its tag (verify_quasi_iso).

Only rho_mu(X_j) depends on the sector. The bracket terms are evaluated
once per instance (sector_skeleton), from the pairs inside each target J
that have a nonzero bracket. A term c X_t of [X_{j_a}, X_{j_b}] has one
source, I = rest + t for rest = J without j_a and j_b, and x_I on its
argument tuple (X_t, sorted rest) is (-1)^popcount(rest below t). Raw
evaluation of x_I on every (J, I) pair is in tests/oracle_reference.py,
which the skeleton must equal key for key. The action terms are not
stored: their one source is J without j_a, with the sign (-1)^a, proved
(_sector_differential). Each sector reads the nonzero entries of rho_mu,
with mu on the diagonal, into one table with their negatives.

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
from collections import Counter
from dataclasses import dataclass
from typing import Sequence

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

# The bracket terms {J: [(ipos, c)]} of every degree, J a bitmask; see sector_skeleton.
Skeleton = dict[int, list[tuple[int, GaussianRational]]]
# The nonzero entries (l, k, value) of rho_mu(X_j) for one j.
ActionEntries = list[tuple[int, int, GaussianRational]]


def sector_skeleton(g: LieAlgebraData) -> Skeleton:
    """The mu-independent part of every degree: J (a bitmask) lists (ipos, c)
    for c * id in the block of source I, the ipos-th subset in degree_masks
    order, ascending and nonzero. Only the pairs inside J in bracket_table()
    are visited; each (t, c) of theirs has at most one source, I = rest + t,
    and x_I on (X_t, sorted rest) is (-1)^(members of rest below t).
    """
    n = g.dim
    # Per pair: (bits of i and j, bits below i, bits below j, and per term
    # (bit t, bits below t, c, -c)).
    pairs = [
        (1 << i | 1 << j, (1 << i) - 1, (1 << j) - 1,
         [(1 << t, (1 << t) - 1, c, -c) for t, c in terms])
        for (i, j), terms in g.bracket_table().items()
    ]
    skeleton: Skeleton = {}
    for p in range(1, n):
        position = mask_position(n, p)
        for mask in degree_masks(n, p + 1):
            scalars: dict[int, GaussianRational] = {}
            for ij, below_i, below_j, terms in pairs:
                if mask & ij != ij:
                    continue
                # X_i and X_j are arguments a < b, a and b the members of J below them.
                rest = mask ^ ij
                ab = (mask & below_i).bit_count() + (mask & below_j).bit_count()
                for bit, below, c, neg in terms:
                    if rest & bit:
                        continue
                    ipos = position[rest | bit]
                    odd = ab + (rest & below).bit_count()
                    value = neg if odd & 1 else c
                    scalars[ipos] = scalars[ipos] + value if ipos in scalars else value
            entry = [(ipos, c) for ipos, c in sorted(scalars.items()) if c]
            if entry:
                skeleton[mask] = entry
    return skeleton


def twist_at(g: LieAlgebraData, twist: Weight) -> tuple[GaussianRational, ...]:
    """A twist, a covector over the complement, per basis index."""
    if len(twist) != len(g.complement):
        raise ValidationFailure("weight covector length != complement size")
    at = [ZERO] * g.dim
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
    skeleton: Skeleton,
    rho: list[tuple[ActionEntries, ActionEntries]],
) -> ExactMatrix:
    """Degree-p differential: the skeleton's bracket terms, then the action terms
    with rho = _action_table(rep, mu_at), m = rep.m. Target J's action term
    sum_a (-1)^a rho(X_{j_a}) (x_I (x) v)(..drop a..) has one source per a, J
    without j_a: that tuple is sorted, so x_I is +1 on it and the sign is
    (-1)^a. With a running down, the sources ascend in degree_masks order.
    """
    n = g.dim
    position = mask_position(n, p)
    rows: list[SparseRow] = [{} for _ in range(math.comb(n, p + 1) * m)]
    for jpos, mask in enumerate(degree_masks(n, p + 1)):
        block = rows[jpos * m : jpos * m + m]
        for ipos, scalar in skeleton.get(mask, ()):
            for k, row in enumerate(block):
                row[ipos * m + k] = scalar
        top = mask
        for a in range(p, -1, -1):
            j = top.bit_length() - 1
            top ^= 1 << j
            base = position[mask ^ 1 << j] * m
            for l, k, value in rho[j][a % 2]:
                row, col = block[l], base + k
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
    mu: Weight,
    skeleton: Skeleton,
) -> CohomologyResult:
    """Betti numbers of the full twisted complex for one weight covector.

    `skeleton` is sector_skeleton(g), shared by every sector of g.
    """
    n, m = g.dim, rep.m
    rho = _action_table(rep, twist_at(g, mu))
    diffs = tuple([_sector_differential(g, m, p, skeleton, rho) for p in range(n)])
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

    Every block comes from one restrict_complex of all tag ids, with global
    indices, and one cohomology. restrict_complex refuses an entry whose
    row and column tags differ, so each row lies in one tag; elimination
    adds a row only to rows sharing a column with it, so every reduced row
    and its pivot column stay in that tag, and rank_t(d_p) is the number
    of d_p's pivot columns of tag t. Block t's Betti number in degree p is
    dims_t[p] - rank_t(d_p) - rank_t(d_{p-1}). The kernel, d.d and
    clearing certificates, restricted to one tag, are that block's own.
    """
    g, rep = ic.algebra, ic.representation
    skeleton = sector_skeleton(g)
    first = _sector_orbits(g, rep, ic.tag_table)
    # An orbit's first tag is its earliest in tag_table, so it is done first.
    full: dict[Weight, tuple[int, ...]] = {}
    for tag in ic.tag_table:
        if tag in first:
            full[tag] = full[first[tag]]
        else:
            full[tag] = sector_cohomology_full(g, rep, tag, skeleton).betti
    # Every block in one elimination. Per degree p and tag id: the cochains,
    # and d_p's pivot columns; ranks[-1] is empty, for d_top and d_{-1}.
    blocks = cohomology(restrict_complex(ic, range(len(ic.tag_table))))
    dims = [Counter(ids) for ids in ic.tag_ids]
    ranks = [Counter([ids[c] for c in cols]) for ids, cols in zip(ic.tag_ids, blocks.pivots)]
    ranks.append(Counter())
    comparisons = []
    # tag_table is in weight_sort_key order, so ids run through the sorted tags.
    for tid, tag in enumerate(ic.tag_table):
        block_betti = tuple([dims[p][tid] - ranks[p][tid] - ranks[p - 1][tid]
                             for p in range(len(dims))])
        comparisons.append(SectorComparison(tag, block_betti, full[tag]))
    return QuasiIsoReport(tuple(comparisons))
