"""Rescanning references for linalg._eliminate and the oracle's builders.

They are written without indexes: the elimination rescans every open
row and every finished row at each pivot, the skeleton scans every
(J, I) pair of a degree and evaluates x_I on every argument tuple in
full, the action table reads every entry of every rho_mu(X_j), and the
sector differential collects (row, column) keyed entries before it makes
rows. The package versions find the same pivots,
sources and entries through indexes; tests require the two to agree
exactly, down to list and dict order. The elimination's "sequential"
strategy (rows in order, least column first) has no package counterpart:
tests compare ranks against it to show they do not depend on pivot order.

The entry-by-entry pairing check lives here too. The oracle pairs sectors
by a theorem applied to certified generators and builds no member sector;
cochain_maps, orbit_paths, map_from_first and is_image let the tests build
every member anyway and check that it is the image of its orbit's first.
"""
from __future__ import annotations

from ce_reference import apply_entry
from subset_reference import degree_basis

from solvcohom.liealg import LieAlgebraData, RepresentationData
from solvcohom.linalg import ExactMatrix, SparseRow, row_axpy
from solvcohom.automorphisms import SignedPermutation
from solvcohom.cecomplex import Weight, degree_masks
from solvcohom.oracle import _tag_image, mask_position, twist_at
from solvcohom.scalars import ZERO, GaussianRational

# (action terms (jpos, ipos, j, s), bracket terms {(jpos, ipos): c}) of one degree.
ReferenceSkeleton = tuple[
    list[tuple[int, int, int, int]], dict[tuple[int, int], GaussianRational]
]
# Per degree p, the code 2 * Phi(c) + [s_c = -1] of each cochain c = (I, k), at
# mask_position(n, p)[I] * m + k, under a cochain map Phi of signed permutations.
CochainMap = list[list[int]]


def reference_eliminate(
    matrix: ExactMatrix, pivot_strategy: str
) -> tuple[list[tuple[int, SparseRow]], list[int]]:
    """Gauss-Jordan elimination; returns (pivot rows, pivot columns)."""
    rows = [r for r in matrix.row_maps if r]
    done: list[tuple[int, SparseRow]] = []
    while rows:
        if pivot_strategy == "sparsity":
            # Fewest nonzeros first; break ties on the smallest column index.
            ridx = min(range(len(rows)), key=lambda i: (len(rows[i]), i))
            row = rows.pop(ridx)
            col_count: dict[int, int] = {}
            for r in rows:
                for c in r:
                    if c in row:
                        col_count[c] = col_count.get(c, 0) + 1
            pivot_col = min(row, key=lambda c: (col_count.get(c, 0), c))
        elif pivot_strategy == "sequential":
            row = rows.pop(0)
            pivot_col = min(row)
        else:
            raise ValueError(f"unknown pivot strategy {pivot_strategy!r}")
        inv = row[pivot_col].inverse()
        row = {c: inv * a for c, a in row.items()}
        new_rows = []
        for r in rows:
            if pivot_col in r:
                r = row_axpy(r, row, -r[pivot_col])
            if r:
                new_rows.append(r)
        rows = new_rows
        done = [
            (pc, row_axpy(r, row, -r[pivot_col]) if pivot_col in r else r)
            for pc, r in done
        ]
        done.append((pivot_col, row))
    pivot_cols = [pc for pc, _ in done]
    return done, pivot_cols


def alternating_evaluation(I: tuple[int, ...], arguments: tuple[int, ...]) -> int:
    """x_I evaluated on (X_{a_0}, .., X_{a_{p-1}}): 0 off the permutations of I,
    else the sign of the permutation, as the determinant of the delta matrix."""
    if sorted(arguments) != sorted(I) or len(set(I)) != len(I):
        return 0
    # x_{i_0} ^ .. ^ x_{i_{p-1}} on the arguments is det[delta(i_r, a_c)], a
    # permutation matrix here: count its cycles of even length.
    where = {a: c for c, a in enumerate(arguments)}
    sign, seen = 1, set()
    for r in range(len(I)):
        length, c = 0, r
        while c not in seen:
            seen.add(c)
            c = where[I[c]]
            length += 1
        if length and length % 2 == 0:
            sign = -sign
    return sign


def reference_degree_skeleton(g: LieAlgebraData, p: int) -> ReferenceSkeleton:
    """The mu-independent part of the degree-p differential, pair by pair."""
    n = g.dim
    sources = degree_basis(n, p)
    targets = degree_basis(n, p + 1)
    action_terms: list[tuple[int, int, int, int]] = []
    bracket_terms: dict[tuple[int, int], GaussianRational] = {}
    for jpos, J in enumerate(targets):
        J_set = set(J)
        for ipos, I in enumerate(sources):
            if len(J_set & set(I)) < p - 1:
                continue
            for a in range(p + 1):
                sign = alternating_evaluation(I, J[:a] + J[a + 1 :])
                if sign:
                    action_terms.append((jpos, ipos, J[a], -sign if a % 2 else sign))
            scalar = ZERO
            for a in range(p + 1):
                for b in range(a + 1, p + 1):
                    rest = tuple(
                        J[c] for c in range(p + 1) if c != a and c != b
                    )
                    parity = -1 if (a + b) % 2 else 1
                    for t, c in g.bracket(J[a], J[b]).items():
                        sign = parity * alternating_evaluation(I, (t,) + rest)
                        if sign:
                            scalar = scalar + (c if sign > 0 else -c)
            if scalar:
                bracket_terms[(jpos, ipos)] = scalar
    return action_terms, bracket_terms


def reference_action_table(
    g: LieAlgebraData, rep: RepresentationData, mu
) -> list[list[tuple[int, int, GaussianRational]]]:
    """The nonzero entries (l, k, value) of rho_mu(X_j), one list per j."""
    m, mu_at = rep.m, twist_at(g, mu)
    table = []
    for j in range(g.dim):
        entries = []
        for l in range(m):
            for k in range(m):
                value = apply_entry(rep, mu_at, j, l, k)
                if value:
                    entries.append((l, k, value))
        table.append(entries)
    return table


def reference_sector_differential(
    g: LieAlgebraData,
    m: int,
    p: int,
    skeleton: ReferenceSkeleton,
    rho: list[list[tuple[int, int, GaussianRational]]],
) -> ExactMatrix:
    """Degree-p differential: the skeleton with rho, via (row, column) entries."""
    n = g.dim
    action_terms, bracket_terms = skeleton
    entries: dict[tuple[int, int], GaussianRational] = {}
    for (jpos, ipos), scalar in bracket_terms.items():
        for k in range(m):
            entries[(jpos * m + k, ipos * m + k)] = scalar
    for jpos, ipos, j, sign in action_terms:
        for l, k, value in rho[j]:
            key = (jpos * m + l, ipos * m + k)
            value = value if sign > 0 else -value
            if key in entries:
                value = entries[key] + value
                if not value:
                    del entries[key]
                    continue
            entries[key] = value
    nrows = len(degree_basis(n, p + 1)) * m
    return ExactMatrix.from_entries(nrows, len(degree_basis(n, p)) * m, entries)


def is_signed_image(
    w: GaussianRational, v: GaussianRational, negate: bool, conjugate: bool
) -> bool:
    """Whether w == +-v or +-conj(v), negated if negate and conjugated if conjugate;
    like ==, it builds no scalar."""
    a, b, d = v._abd
    return w._abd == (-a if negate else a, -b if negate != conjugate else b, d)


def cochain_maps(n: int, perm: SignedPermutation, tau: SignedPermutation) -> CochainMap:
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


def orbit_paths(
    tags: list[Weight], generators: list[tuple[SignedPermutation, bool]], complement: tuple
) -> dict[Weight, tuple[Weight, int]]:
    """(parent tag, generator index) of each later member of an orbit, the
    orbits grown breadth first from their earliest tags under (perm, conjugate)."""
    tid = {tag: t for t, tag in enumerate(tags)}
    seen: set[int] = set()
    path = {}
    for t in range(len(tags)):
        if t in seen:
            continue
        seen.add(t)
        queue = [t]
        for u in queue:
            for x, (perm, conjugate) in enumerate(generators):
                v = tid.get(_tag_image(perm, conjugate, complement, tags[u]))
                if v is not None and v not in seen:
                    seen.add(v)
                    path[tags[v]] = (tags[u], x)
                    queue.append(v)
    return path


def map_from_first(
    path: dict[Weight, tuple[Weight, int]], maps: list[tuple[CochainMap, bool]], mu: Weight
) -> tuple[CochainMap, bool]:
    """Phi from mu's orbit's first sector to mu's, composed along mu's path;
    maps holds each generator's (cochain_maps, whether it is conjugate-linear)."""
    steps = []
    while mu in path:
        mu, x = path[mu]
        steps.append(maps[x])
    composed, conjugate = steps.pop()
    for step, flip in reversed(steps):
        composed = [[s[c >> 1] ^ (c & 1) for c in codes] for s, codes in zip(step, composed)]
        conjugate ^= flip
    return composed, conjugate


def is_image(
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
