"""Chevalley-Eilenberg complexes of finite-dimensional modules.

Sign convention, fixed once for the whole package: for a p-cochain w,

    (dw)(X_0..X_p) = sum_i (-1)^i rho(X_i) w(..no X_i..)
                   + sum_{i<j} (-1)^{i+j} w([X_i,X_j], ..no X_i, X_j..)

On basis monomials x_I (x) v this unfolds to the insertion formula used
by ce_kernel below; the oracle module re-derives the same matrices
by raw evaluation of the convention instead, so the two never share a
differential code path.

Degree-p basis order: p-subsets I of the index set in lexicographic
order, each an integer bitmask (degree_masks) followed by the module
index k, so column (I, k) sits at mask_position(n, p)[I] * m + k.
ce_kernel assembles the requested columns of a degree at once, each
column (I, k) in the representation twisted by its own weight tag
mu_{I,k}, as the invariant complex needs; wedge signs are popcounts. It
forms only single terms: R_j[l, k] with l != k, which no twist touches,
and the bracket terms c_{ab}^t with t not in {a, b}, once per subset for
all its columns (I, k). The twist meets R_c[k, k] and the c_{ct}^t of t
in I only in the diagonal coefficient at (I + c, k), and since the
weights are the diagonals of ad and R it cancels them at every c in the
complement, so no twist is ever formed. At c in the nilradical the twist
is zero, and a nilpotent ad(X_c) or R_c may still have a nonzero
diagonal in a basis not adapted to it (heisenberg3 in the basis
x, y, y + z), so that coefficient is read from a table per (k, bracket
part), the bracket part interned per subset bitmask by subset_sums.
Entry order is promised at degrees 0 and 1 only, where the weight
grading check reads it.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations
from typing import Callable, Iterable, Optional, Sequence

from .errors import (
    CertificateError,
    NilshadowError,
    ValidationFailure,
)
from .liealg import LieAlgebraData, RepresentationData, validate_algebra
from .linalg import (
    ExactMatrix,
    SparseRow,
    kernel_basis,
    rank_and_kernel,
    row_axpy,
    row_times,
    trailing_echelon,
)
from .scalars import ONE, ZERO, GaussianRational

Weight = tuple[GaussianRational, ...]


@lru_cache(maxsize=None)
def degree_masks(n: int, p: int) -> tuple[int, ...]:
    """The p-subsets of range(n) in lexicographic order, as bitmasks (bit i for x_i)."""
    return tuple(map(sum, combinations([1 << i for i in range(n)], p)))


@lru_cache(maxsize=None)
def mask_position(n: int, p: int) -> dict[int, int]:
    return {mask: pos for pos, mask in enumerate(degree_masks(n, p))}


def subset_sums(
    vectors: Sequence[Sequence[GaussianRational]], width: int
) -> tuple[list[tuple[GaussianRational, ...]], list[int]]:
    """Interned subset sums: table[ids[mask]] = sum of vectors[t], t in mask.

    The one interning rule for sums over a subset bitmask: the algebra
    part of a weight tag, and the bracket part of a diagonal coefficient.
    Every vector has width entries. table holds each distinct sum once,
    zero first, and ids has 2**len(vectors) entries. With t the top bit,
    sum[mask] = sum[mask without t] + vectors[t], each (id, t) sum formed
    once. An all-zero vectors[t] adds no entry: the masks with bit t reuse
    the ids of the masks without it. Entry-wise, a zero operand is never
    added.
    """
    index = {(ZERO,) * width: 0}
    ids = [0]
    for v in vectors:
        if any(v):
            step = [
                index.setdefault(
                    tuple([x + y if x and y else x or y for x, y in zip(base, v)]), len(index)
                )
                for base in list(index)
            ]
            ids += [step[i] for i in ids]
        else:
            ids += ids
    return list(index), ids


def _one_form_differentials(
    g: LieAlgebraData,
) -> dict[int, list[tuple[int, int, GaussianRational]]]:
    """dx_t = -sum_{i<j} c_{ij}^t x_i^x_j, tabulated per t."""
    table: dict[int, list[tuple[int, int, GaussianRational]]] = {
        t: [] for t in range(g.dim)
    }
    for i in range(g.dim):
        for j in range(i + 1, g.dim):
            for t, c in g.bracket(i, j).items():
                table[t].append((i, j, -c))
    return table


def ce_kernel(
    g: LieAlgebraData, rep: RepresentationData
) -> Callable[[Iterable[int], int], dict[tuple[int, int], GaussianRational]]:
    """d of the invariant complex: each column in rep twisted by its own tag.

    kernel(columns, p) gives the nonzero entries {(row, col): coeff} of d
    from degree p to p+1 on the given columns only, column (I, k) taken
    in rep twisted by the weight tag mu_{I,k}. Entries come column by
    column in the given order. Within a column their order is promised at
    degrees 0 and 1 only: term order, action terms (j, then l), then
    bracket terms (t, a, b).

    Only a diagonal entry, at (I + c, k) for c not in I, can sum more
    than one term: its action term (j = c, l = k) and the bracket terms
    of t in I with {a, b} = {c, t}. Its coefficient is
    s * (R_c[k, k] + mu_{I,k}(X_c) - beta_I(c)), with
    s = (-1)^#{t in I : t < c} and beta_I(c) = sum_{t in I} c_{ct}^t.
    The weights are the diagonals of ad and R (build_invariant_complex
    refuses any others), so at c in
    the complement R_c[k, k] = lambda'_k(X_c) and beta_I(c) =
    sum_{t in I} lambda_t(X_c), and the coefficient is zero: the twist is
    never formed. At c in the nilradical mu(X_c) = 0, but R_c[k, k] -
    beta_I(c) need not vanish when the basis is not adapted to the
    nilradical (heisenberg3 in the basis x, y, y + z); it is read from a
    table per (k, beta_I), beta_I interned by subset_sums. Every other
    entry is a single term, formed directly: R_j[l, k] with l != k, and
    the bracket terms with t not in {a, b}.

    A column with a diagonal entry lists its entries by (phase, row):
    phase 0 holds those with an action term (R_j[l, k], and a diagonal
    entry with R_c[k, k] nonzero), phase 1 the rest. Degree 0 has no
    bracket terms, and at degree 1 the one t gives its terms in row
    order, so this is term order there.
    """
    n, m = g.dim, rep.m
    # Off the diagonal, per t: (bits of a and b, bits below a, bits below
    # b, coeff, -coeff). Inserting b then a into rest passes the members
    # of rest below each; b never counts against a because a < b.
    # On it, lam[t][c] = c_{ct}^t at c in the nilradical: dx_t holds
    # -c_{ab}^t at a < b.
    complement = set(g.complement)
    dx: list[list] = [[] for _ in range(n)]
    lam: list[dict[int, GaussianRational]] = [{} for _ in range(n)]
    for t, terms in _one_form_differentials(g).items():
        for a, b, c in terms:
            if t not in (a, b):
                dx[t].append((1 << a | 1 << b, (1 << a) - 1, (1 << b) - 1, c, -c))
            elif a == t and b not in complement:
                lam[t][b] = c
            elif b == t and a not in complement:
                lam[t][a] = -c
    # The t with such terms, ascending: (bit t, bits below t, terms).
    dx_ts = [(1 << t, (1 << t) - 1, terms) for t, terms in enumerate(dx) if terms]
    # R_j e_k off the diagonal, per k: (bit j, bits below j, terms,
    # negated terms) for each j with such a term; r_diag[k][j] = R_j[k, k]
    # at j in the nilradical.
    off = [[[] for _ in range(m)] for _ in range(n)]
    r_diag: list[dict[int, GaussianRational]] = [{} for _ in range(m)]
    for j, R in enumerate(rep.matrices):
        for l, row in enumerate(R.row_maps):
            for k, v in row.items():
                if k != l:
                    off[j][k].append((l, v))
                elif j not in complement:
                    r_diag[k][j] = v
    off_table = [
        [(1 << j, (1 << j) - 1, off[j][k], [(l, -v) for l, v in off[j][k]])
         for j in range(n) if off[j][k]]
        for k in range(m)
    ]
    # The c in the nilradical that can carry a diagonal coefficient in
    # column k: R_c[k, k] or some c_{ct}^t.
    diag_cs = [sorted(set(r_diag[k]).union(*lam)) for k in range(m)]
    # beta of a mask at those c, interned by subset_sums: parts[part_of[mask]].
    dense = [tuple([lam[t].get(c, ZERO) for c in range(n)]) for t in range(n)]
    parts, part_of = subset_sums(dense, n)

    diagonals: dict[tuple[int, int], list] = {}

    def diagonal(k: int, pid: int) -> list:
        # (bit c, bits below c, coeff, -coeff, phase) for each c whose
        # diagonal coefficient is nonzero, before the sign s.
        part_c = parts[pid]
        out = diagonals[(k, pid)] = []
        for c in diag_cs[k]:
            a = r_diag[k].get(c, ZERO)
            total = a - part_c[c] if part_c[c] else a
            if total:
                out.append((1 << c, (1 << c) - 1, total, -total, 0 if a else 1))
        return out

    def kernel(columns: Iterable[int], p: int) -> dict[tuple[int, int], GaussianRational]:
        masks = degree_masks(n, p)
        target = mask_position(n, p + 1)
        entries: dict[tuple[int, int], GaussianRational] = {}
        last = None
        for col in columns:
            ipos, k = divmod(col, m)
            mask = masks[ipos]
            if ipos != last:
                # d(x_I) = sum_t (-1)^{pos(t, I)} dx_t ^ x_{I - t}, for every
                # k; here only its terms off the diagonal.
                last = ipos
                pid = part_of[mask]
                brackets = []
                for bit_t, below_t, terms in dx_ts:
                    if mask & bit_t:
                        rest = mask ^ bit_t
                        pos_t = (mask & below_t).bit_count()
                        for ab, below_a, below_b, c, neg in terms:
                            if not rest & ab:
                                odd = pos_t + (rest & below_b).bit_count() + (rest & below_a).bit_count()
                                brackets.append((target[rest | ab] * m, neg if odd & 1 else c))
            diag = diagonals.get((k, pid))
            if diag is None:
                diag = diagonal(k, pid)
            live = [d for d in diag if not mask & d[0]] if diag else diag
            # Action terms (insert x_j, sign: members below j; apply R_j),
            # then bracket terms. No two share a key, so with no diagonal
            # entry they are stored as they come.
            if not live:
                for bit, below, column, negated in off_table[k]:
                    if not mask & bit:
                        base = target[mask | bit] * m
                        for l, v in negated if (mask & below).bit_count() & 1 else column:
                            entries[(base + l, col)] = v
                for base, v in brackets:
                    entries[(base + k, col)] = v
                continue
            # Otherwise all are sorted by (phase, row).
            terms = []
            for bit, below, column, negated in off_table[k]:
                if not mask & bit:
                    base = target[mask | bit] * m
                    for l, v in negated if (mask & below).bit_count() & 1 else column:
                        terms.append((0, base + l, v))
            terms += [(1, base + k, v) for base, v in brackets]
            for bit, below, total, neg, phase in live:
                v = neg if (mask & below).bit_count() & 1 else total
                terms.append((phase, target[mask | bit] * m + k, v))
            terms.sort()
            for _, row, v in terms:
                entries[(row, col)] = v
        return entries

    return kernel


@dataclass(frozen=True)
class FiniteComplex:
    """A finite cochain complex of exact matrices.

    dims[p] is the rank of degree p; differentials[p] maps degree p to
    p+1 (one fewer entry than dims).
    """

    dims: tuple[int, ...]
    differentials: tuple[ExactMatrix, ...]

    def __post_init__(self):
        if len(self.differentials) != max(len(self.dims) - 1, 0):
            raise ValidationFailure("need exactly one differential per adjacent pair")
        for p, d in enumerate(self.differentials):
            if d.ncols != self.dims[p] or d.nrows != self.dims[p + 1]:
                raise ValidationFailure(f"differential at degree {p} has wrong shape")

    @property
    def top_degree(self) -> int:
        return len(self.dims) - 1

    def check_complex(self):
        """Raise naming the first degree where d.d != 0.

        Multiplies row by row and stops at the first nonzero row.
        """
        for p in range(len(self.differentials) - 1):
            first = self.differentials[p]
            for row in self.differentials[p + 1].row_maps:
                if row_times(row, first):
                    raise ValidationFailure(
                        f"not a complex: d.d != 0 starting at degree {p}"
                    )


@dataclass(frozen=True)
class CohomologyResult:
    """Betti numbers plus optional representative cocycles per degree.

    A representative is a {basis index: nonzero coefficient} row.
    """

    betti: tuple[int, ...]
    representatives: Optional[tuple[tuple[SparseRow, ...], ...]] = None

    def euler_characteristic(self) -> int:
        return sum((-1) ** p * b for p, b in enumerate(self.betti))


def _in_certified_kernel(d: ExactMatrix, reduced: dict[int, SparseRow]) -> bool:
    """Whether every column of d lies in the kernel that `reduced` spans.

    `reduced` is rank_and_kernel's {pivot column pc: R_pc} of the next
    differential, whose kernel vectors K_f = e_f - sum_pc R_pc[f] e_pc,
    one per free column f, that call has certified. A column v of d is
    sum_f v[f] K_f exactly when v[pc] + sum_f R_pc[f] v[f] == 0 for every
    pc: row pc of d plus the R_pc[f]-weighted free rows f of d vanishes.
    R_pc is not read at pivot columns. When R_pc is {pc: 1}, holding no
    free entry, the equation is exactly "row pc of d is empty", and is
    tested that way. Then the next differential annihilates d, and d's
    rows at the pivot columns lie in the span of its other rows, which is
    what clearing assumes.
    """
    rows = d.row_maps
    for pc, reduced_row in reduced.items():
        if len(reduced_row) == 1:
            if rows[pc]:
                return False
            continue
        acc = dict(rows[pc])
        for f, a in reduced_row.items():
            if f not in reduced:
                for c, b in rows[f].items():
                    acc[c] = acc[c] + a * b if c in acc else a * b
        if any(acc.values()):
            return False
    return True


def cohomology(
    complex_: FiniteComplex, representatives: bool = False
) -> CohomologyResult:
    """Exact cohomology of a finite complex.

    Degrees are taken from the top down. Before d_p is eliminated, d.d = 0
    is certified against the kernel of d_{p+1} that rank_and_kernel has
    just certified (see _in_certified_kernel); a failure raises the
    ValidationFailure of check_complex, which names the lowest failing
    degree. When only Betti numbers are asked for, the rows of d_p at the
    pivot columns of d_{p+1} are skipped in elimination and in its kernel
    certificate (clearing; see linalg). The d.d check just made is their
    certificate: it shows each is a combination of d_p's other rows, so
    the kernel certified on those rows annihilates it. Representatives, when
    requested, are the kernel vectors K_f of d_p (1 at free column f, 0 at
    the other free columns) for which no coboundary ends at f among the
    free columns; a coboundary lies in the certified kernel, so its free
    coordinates fix it. trailing_echelon over d_{p-1}'s columns names those
    ends. This is the image's basis extended greedily by K_f in ascending
    f. The kept K_f and the echelon rows end at distinct free columns, so
    the K_f are independent modulo coboundaries by construction; their
    count is certified against betti. Clearing is off then: it can change
    d_p's pivot columns, hence the free columns and which K_f are output.
    """
    top = complex_.top_degree
    dims = complex_.dims
    ranks = [0] * (top + 1)  # ranks[p] is the rank of d_p; d_top is zero
    reduced: list[dict[int, SparseRow]] = [{} for _ in range(top + 1)]
    for p in reversed(range(top)):
        if not _in_certified_kernel(complex_.differentials[p], reduced[p + 1]):
            complex_.check_complex()
            raise CertificateError(
                f"differential at degree {p} leaves the certified kernel at degree {p + 1}"
            )
        skip = () if representatives else reduced[p + 1].keys()
        ranks[p], reduced[p] = rank_and_kernel(complex_.differentials[p], skip)
    betti = tuple([dims[p] - ranks[p] - (ranks[p - 1] if p > 0 else 0) for p in range(top + 1)])
    if not representatives:
        return CohomologyResult(betti)
    reps: list[tuple[SparseRow, ...]] = []
    for p in range(top + 1):
        pivots = reduced[p]
        image = complex_.differentials[p - 1].transpose().row_maps if p > 0 else ()
        ends = trailing_echelon({j: a for j, a in col.items() if j not in pivots} for col in image)
        free = [f for f in range(dims[p]) if f not in pivots]
        chosen = [vec for f, vec in zip(free, kernel_basis(dims[p], pivots)) if f not in ends]
        if len(chosen) != betti[p]:
            raise CertificateError(
                f"{len(chosen)} representatives for betti {betti[p]} at degree {p}"
            )
        reps.append(tuple(chosen))
    return CohomologyResult(betti, tuple(reps))


def nilshadow(
    g: LieAlgebraData, algebra_weights: Sequence[Weight]
) -> LieAlgebraData:
    """The nilpotent shadow: same space, bracket twisted by the weights.

    [X_i, X_j]_new = [X_i, X_j] - lambda_j(X_i) X_j + lambda_i(X_j) X_i.
    The result, with every index in its nilradical, must pass
    validate_algebra, which certifies it nilpotent (lower central series
    reaching 0); otherwise the weight data was inconsistent and we refuse.
    """
    if len(algebra_weights) != g.dim:
        raise ValidationFailure("need one algebra weight per basis vector")
    comp_pos = {j: pos for pos, j in enumerate(g.complement)}

    def weight_at(target: int, source: int) -> GaussianRational:
        # lambda_target evaluated on X_source; zero off the complement.
        pos = comp_pos.get(source)
        return algebra_weights[target][pos] if pos is not None else ZERO

    entries: list[tuple[int, int, int, GaussianRational]] = []
    for i in range(g.dim):
        for j in range(i + 1, g.dim):
            acc = g.bracket(i, j)
            if w_ji := weight_at(j, i):
                acc = row_axpy(acc, {j: ONE}, -w_ji)
            if w_ij := weight_at(i, j):
                acc = row_axpy(acc, {i: ONE}, w_ij)
            for k, c in acc.items():
                entries.append((i, j, k, c))

    shadow = LieAlgebraData(
        dim=g.dim,
        basis=g.basis,
        brackets=entries,
        nilradical=range(g.dim),
        complement=(),
        conjugation=g.conjugation,
        mode=g.mode,
    )
    issues = validate_algebra(shadow)
    if issues:
        raise NilshadowError(
            "nilshadow bracket fails validation (inconsistent weight data): "
            + "; ".join(i.message for i in issues)
        )
    return shadow


def module_basis_names(g: LieAlgebraData, rep: RepresentationData) -> tuple[str, ...]:
    if rep.adjoint:
        return g.basis
    if rep.m == 1:
        return ("1",)
    return tuple(f"u{k+1}" for k in range(rep.m))
