"""Chevalley-Eilenberg complexes of finite-dimensional modules.

Sign convention, fixed once for the whole package: for a p-cochain w,

    (dw)(X_0..X_p) = sum_i (-1)^i rho(X_i) w(..no X_i..)
                   + sum_{i<j} (-1)^{i+j} w([X_i,X_j], ..no X_i, X_j..)

On basis monomials x_I (x) v this unfolds to the insertion formula used
by ce_differential below; the oracle module re-derives the same matrices
by raw evaluation of the convention instead, so the two never share a
differential code path.

Degree-p basis order: p-subsets I of the index set in lexicographic
order, each followed by the module index k (so column (I, k) sits at
subset_position(I) * m + k). Inside ce_image a subset is an integer
bitmask and wedge signs are popcounts; the lex order and the
{(J, l): coeff} images it returns are unchanged.
"""
from __future__ import annotations

from functools import lru_cache
from itertools import combinations
from typing import Optional, Sequence

from .errors import (
    CertificateError,
    NilshadowError,
    SelectionClosureError,
    ValidationFailure,
)
from .liealg import LieAlgebraData, RepresentationData, lower_central_series_dims, validate_algebra
from .linalg import ExactMatrix, SpanTracker, Vector, rank_and_kernel
from .scalars import ONE, ZERO, GaussianRational

Weight = tuple[GaussianRational, ...]


@lru_cache(maxsize=None)
def degree_basis(n: int, p: int) -> tuple[tuple[int, ...], ...]:
    """Lexicographically ordered p-subsets of range(n)."""
    return tuple(combinations(range(n), p))


@lru_cache(maxsize=None)
def subset_position(n: int, p: int) -> dict[tuple[int, ...], int]:
    return {I: pos for pos, I in enumerate(degree_basis(n, p))}


class ModuleAction:
    """The twisted action rho_mu(X_j) = mu(X_j) * id + R_j.

    mu is a weight covector over the complement coordinates; mu_at
    expands it to a per-basis-index evaluation (zero off the complement).
    """

    __slots__ = ("m", "matrices", "mu_at", "_columns")

    def __init__(self, g: LieAlgebraData, rep: RepresentationData, mu: Optional[Weight]):
        mu_at = [ZERO] * g.dim
        if mu is not None:
            if len(mu) != len(g.complement):
                raise ValidationFailure("weight covector length != complement size")
            for pos, j in enumerate(g.complement):
                mu_at[j] = mu[pos]
        object.__setattr__(self, "m", rep.m)
        object.__setattr__(self, "matrices", rep.matrices)
        object.__setattr__(self, "mu_at", tuple(mu_at))
        object.__setattr__(self, "_columns", {})

    def __setattr__(self, name, value):
        raise AttributeError("ModuleAction is immutable")

    def apply_entry(self, j: int, l: int, k: int) -> GaussianRational:
        """Entry (l, k) of rho_mu(X_j)."""
        value = self.matrices[j].entry(l, k)
        if l == k and self.mu_at[j]:
            value = value + self.mu_at[j]
        return value

    def columns(self, k: int) -> list[tuple[int, list[tuple[int, GaussianRational]]]]:
        """(j, nonzero (l, value) of rho_mu(X_j) e_k) for each j that has any."""
        cols = self._columns.get(k)
        if cols is None:
            cols = self._columns[k] = []
            for j in range(len(self.mu_at)):
                col = [(l, v) for l in range(self.m) if (v := self.apply_entry(j, l, k))]
                if col:
                    cols.append((j, col))
        return cols


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


def ce_image(
    g: LieAlgebraData,
    action: ModuleAction,
    I: tuple[int, ...],
    k: int,
    dx_table=None,
) -> dict[tuple[tuple[int, ...], int], GaussianRational]:
    """d(x_I (x) v_k) as a sparse combination of (J, l) basis elements.

    Inside, subsets are bitmasks (bit i for x_i), wedge signs are
    popcounts, and terms accumulate under (J mask, l). Only the keys that
    survive cancellation become increasing J tuples, so the output is the
    same {(J, l): coeff} as from sorting tuples term by term.
    """
    if dx_table is None:
        dx_table = _one_form_differentials(g)
    mask = 0
    for i in I:
        mask |= 1 << i
    acc: dict[tuple[int, int], GaussianRational] = {}

    def put(key: tuple[int, int], coeff: GaussianRational, odd: int):
        # Every coeff passed here is nonzero; odd flips its sign.
        prev = acc.get(key)
        if prev is None:
            acc[key] = -coeff if odd else coeff
            return
        total = prev - coeff if odd else prev + coeff
        if total:
            acc[key] = total
        else:
            del acc[key]

    # Action term: insert x_j (sign: members below j), apply rho(X_j).
    for j, column in action.columns(k):
        bit = 1 << j
        if mask & bit:
            continue
        odd = (mask & (bit - 1)).bit_count() & 1
        for l, coeff in column:
            put((mask | bit, l), coeff, odd)

    # Bracket term: d(x_I) = sum_t (-1)^{pos(t, I)} dx_t ^ x_{I - t}.
    # Inserting b then a into rest passes the members of rest below each;
    # b never counts against a because a < b (_one_form_differentials).
    for pos_t, t in enumerate(I):
        rest = mask ^ (1 << t)
        for a, b, coeff in dx_table[t]:
            bit_a, bit_b = 1 << a, 1 << b
            if rest & (bit_a | bit_b):
                continue
            below = (rest & (bit_b - 1)).bit_count() + (rest & (bit_a - 1)).bit_count()
            put((rest | bit_a | bit_b, k), coeff, (pos_t + below) & 1)
    # A list, not a generator, inside tuple(): a generator per survivor
    # raised peak RSS on the pipeline benchmarks by about 0.5 MiB.
    return {
        (tuple([i for i in range(g.dim) if J >> i & 1]), l): coeff
        for (J, l), coeff in acc.items()
    }


def ce_differential(
    g: LieAlgebraData, action: ModuleAction, p: int
) -> ExactMatrix:
    """Matrix of d from degree p to degree p+1 in the lex basis order."""
    n, m = g.dim, action.m
    source = degree_basis(n, p)
    target_pos = subset_position(n, p + 1)
    dx_table = _one_form_differentials(g)
    entries: dict[tuple[int, int], GaussianRational] = {}
    for ipos, I in enumerate(source):
        for k in range(m):
            col = ipos * m + k
            for (J, l), coeff in ce_image(g, action, I, k, dx_table).items():
                entries[(target_pos[J] * m + l, col)] = coeff
    nrows = len(degree_basis(n, p + 1)) * m
    return ExactMatrix.from_entries(nrows, len(source) * m, entries)


class FiniteComplex:
    """A finite cochain complex of exact matrices.

    dims[p] is the rank of degree p; differentials[p] maps degree p to
    p+1 (one fewer entry than dims); labels[p] names the degree-p basis.
    """

    __slots__ = ("dims", "differentials", "labels")

    def __init__(
        self,
        dims: Sequence[int],
        differentials: Sequence[ExactMatrix],
        labels: Optional[Sequence[Sequence[str]]] = None,
    ):
        dims_t = tuple(int(d) for d in dims)
        diffs_t = tuple(differentials)
        if len(diffs_t) != max(len(dims_t) - 1, 0):
            raise ValidationFailure("need exactly one differential per adjacent pair")
        for p, d in enumerate(diffs_t):
            if d.ncols != dims_t[p] or d.nrows != dims_t[p + 1]:
                raise ValidationFailure(f"differential at degree {p} has wrong shape")
        if labels is None:
            labels_t = tuple(
                tuple(f"e{p}.{i}" for i in range(dim)) for p, dim in enumerate(dims_t)
            )
        else:
            labels_t = tuple(tuple(ls) for ls in labels)
            if tuple(len(ls) for ls in labels_t) != dims_t:
                raise ValidationFailure("labels do not match degree dimensions")
        object.__setattr__(self, "dims", dims_t)
        object.__setattr__(self, "differentials", diffs_t)
        object.__setattr__(self, "labels", labels_t)

    def __setattr__(self, name, value):
        raise AttributeError("FiniteComplex is immutable")

    @property
    def top_degree(self) -> int:
        return len(self.dims) - 1

    def check_complex(self):
        """Raise naming the first degree where d.d != 0."""
        for p in range(len(self.differentials) - 1):
            if not (self.differentials[p + 1] @ self.differentials[p]).is_zero():
                raise ValidationFailure(
                    f"not a complex: d.d != 0 starting at degree {p}"
                )

    def euler_characteristic(self) -> int:
        return sum((-1) ** p * d for p, d in enumerate(self.dims))


class CohomologyResult:
    """Betti numbers plus optional representative cocycles per degree."""

    __slots__ = ("betti", "representatives", "labels")

    def __init__(
        self,
        betti: Sequence[int],
        representatives: Optional[Sequence[Sequence[Vector]]] = None,
        labels: Optional[Sequence[Sequence[str]]] = None,
    ):
        object.__setattr__(self, "betti", tuple(int(b) for b in betti))
        object.__setattr__(
            self,
            "representatives",
            None
            if representatives is None
            else tuple(tuple(vs) for vs in representatives),
        )
        object.__setattr__(
            self, "labels", None if labels is None else tuple(tuple(ls) for ls in labels)
        )

    def __setattr__(self, name, value):
        raise AttributeError("CohomologyResult is immutable")

    def euler_characteristic(self) -> int:
        return sum((-1) ** p * b for p, b in enumerate(self.betti))


def cohomology(
    complex_: FiniteComplex, representatives: bool = False
) -> CohomologyResult:
    """Exact cohomology of a finite complex.

    Checks d.d = 0 first. Representatives, when requested, are cocycles
    extending a basis of the image, hence linearly independent modulo
    coboundaries; both facts are certified by construction here.
    """
    complex_.check_complex()
    top = complex_.top_degree
    kernels: list[tuple[Vector, ...]] = []
    ranks: list[int] = []
    for p in range(top + 1):
        if p < top:
            r, kern = rank_and_kernel(complex_.differentials[p])
        else:
            # Top differential is the zero map.
            r = 0
            kern = tuple(
                tuple(ONE if i == j else ZERO for i in range(complex_.dims[top]))
                for j in range(complex_.dims[top])
            )
        ranks.append(r)
        kernels.append(kern)
    betti = []
    reps: list[tuple[Vector, ...]] = []
    for p in range(top + 1):
        rank_in = ranks[p - 1] if p > 0 else 0
        betti.append(len(kernels[p]) - rank_in)
        if representatives:
            tracker = SpanTracker(complex_.dims[p])
            if p > 0:
                for image_vec in complex_.differentials[p - 1].transpose().row_maps:
                    tracker.add(image_vec)
            chosen = []
            for vec in kernels[p]:
                if tracker.add(vec):
                    chosen.append(vec)
            if len(chosen) != betti[p]:
                raise CertificateError(
                    f"{len(chosen)} representatives for betti {betti[p]} at degree {p}"
                )
            reps.append(tuple(chosen))
    return CohomologyResult(
        betti,
        representatives=reps if representatives else None,
        labels=complex_.labels,
    )


def nilshadow(
    g: LieAlgebraData, algebra_weights: Sequence[Weight]
) -> LieAlgebraData:
    """The nilpotent shadow: same space, bracket twisted by the weights.

    [X_i, X_j]_new = [X_i, X_j] - lambda_j(X_i) X_j + lambda_i(X_j) X_i.
    The result must certify nilpotent (lower central series reaching 0),
    otherwise the weight data was inconsistent and we refuse.
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
            acc: dict[int, GaussianRational] = dict(g.bracket(i, j))

            def put(k: int, c: GaussianRational):
                v = acc.get(k, ZERO) + c
                if v:
                    acc[k] = v
                else:
                    acc.pop(k, None)

            w_ji = weight_at(j, i)
            if w_ji:
                put(j, -w_ji)
            w_ij = weight_at(i, j)
            if w_ij:
                put(i, w_ij)
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
    report = validate_algebra(shadow)
    if not report.ok:
        raise NilshadowError(
            "nilshadow bracket fails validation (inconsistent weight data): "
            + "; ".join(i.message for i in report.issues)
        )
    series = lower_central_series_dims(shadow, frozenset(range(g.dim)))
    if series[-1] != 0:
        raise NilshadowError(
            f"nilshadow bracket is not nilpotent (series dims {series}); "
            "weight data is inconsistent"
        )
    return shadow


def restrict_complex(
    fc: FiniteComplex,
    keep: Sequence[Sequence[int]],
    check_closure: bool = True,
) -> FiniteComplex:
    """Subcomplex on the kept basis indices per degree.

    With check_closure, any differential coefficient from a kept column to
    a dropped row raises SelectionClosureError; selections made through
    weight-tag predicates are block-closed so this never fires for them.
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
                elif check_closure and (witness is None or (cpos, r) < witness):
                    witness = (cpos, r)
        if witness is not None:
            raise SelectionClosureError(
                f"selection not closed under d at degree {p}: "
                f"column {fc.labels[p][keep_t[p][witness[0]]]} hits dropped row "
                f"{fc.labels[p + 1][witness[1]]}"
            )
        differentials.append(ExactMatrix.from_entries(dims[p + 1], dims[p], entries))
    labels = [
        tuple(fc.labels[p][i] for i in keep_t[p]) for p in range(len(keep_t))
    ]
    return FiniteComplex(dims, differentials, labels)


def monomial_label(
    g: LieAlgebraData, I: tuple[int, ...], k: int, module_names: Sequence[str]
) -> str:
    form = "^".join(g.basis[i] + "*" for i in I) if I else "1"
    return f"{form} (x) {module_names[k]}"


def module_basis_names(g: LieAlgebraData, rep: RepresentationData) -> tuple[str, ...]:
    if rep.adjoint:
        return g.basis
    if rep.m == 1:
        return ("1",)
    return tuple(f"u{k+1}" for k in range(rep.m))
