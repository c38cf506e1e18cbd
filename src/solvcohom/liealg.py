"""Finite-dimensional Lie algebra data and structural validation.

An algebra is given by exact structure constants on a named basis,
together with a user-declared nilradical/complement split of the index
set. Validation checks what the later stages assume: antisymmetry,
Jacobi, the nilradical spanning a nilpotent ideal that contains all
brackets, and (in real-complexified mode) conjugation compatibility.
Validation never raises; it returns a tuple of issues, every violation
with a witness.

Every reader takes the structure constants from one row map, built with
the algebra: (i, j), i != j, goes to [X_i, X_j] wherever either
orientation is stored, as stored or as the negated reverse. The checks
visit only the stored structure. A bracket [X_a, X_t] is zero unless a
is one of t's stored partners, so a Jacobi term [X_a, [X_b, X_c]] is
formed only from a stored pair (b, c) and the partners of its terms;
every other term is zero. A pair i < j with no stored bracket and a zero
R_i or R_j has [R_i, R_j] = 0 = R([X_i, X_j]), so the homomorphism law
skips it.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Mapping, Optional, Sequence

from .errors import ValidationFailure
from .linalg import ExactMatrix, SparseRow, row_axpy, row_times, trailing_echelon
from .scalars import MINUS_ONE, ONE, ZERO, GaussianRational

MODE_REAL = "real-complexified"
MODE_COMPLEX = "complex"

BracketEntry = tuple[int, int, int, GaussianRational]


@dataclass(frozen=True)
class ValidationIssue:
    code: str
    message: str
    witness: tuple = ()


class LieAlgebraData:
    """Structure constants plus the nilradical/complement split.

    brackets is a sequence of (i, j, k, c) meaning [X_i, X_j] has
    coefficient c on X_k. Only one orientation of each pair needs to be
    supplied; if both appear they must be exact negations (validated).
    _rows[(i, j)], i != j, is the row stored at (i, j), else the negated
    row stored at (j, i). A pair stored in both orientations keeps both
    rows as given, so an invalid table reads as stored and its conflict
    shows to the antisymmetry check. _squares lists, in table order, the
    i with a nonzero [X_i, X_i]. _partners[i] lists, ascending, the j != i
    with a nonempty row at (i, j) or (j, i): bracket(i, j) is zero for
    every other j.
    """

    __slots__ = (
        "dim",
        "basis",
        "nilradical",
        "complement",
        "conjugation",
        "mode",
        "_rows",
        "_squares",
        "_partners",
    )

    def __init__(
        self,
        dim: int,
        basis: Sequence[str],
        brackets: Iterable[BracketEntry],
        nilradical: Iterable[int],
        complement: Iterable[int],
        conjugation: Optional[Mapping[int, int]] = None,
        mode: str = MODE_REAL,
    ):
        if mode not in (MODE_REAL, MODE_COMPLEX):
            raise ValidationFailure(f"unknown ground mode {mode!r}")
        basis_t = tuple(basis)
        if len(basis_t) != dim or len(set(basis_t)) != dim:
            raise ValidationFailure("basis names must be distinct and match dim")
        table: dict[tuple[int, int], dict[int, GaussianRational]] = {}
        for i, j, k, c in brackets:
            i, j, k = int(i), int(j), int(k)
            if not (0 <= i < dim and 0 <= j < dim and 0 <= k < dim):
                raise ValidationFailure(f"bracket index out of range: {(i, j, k)}")
            row = table.setdefault((i, j), {})
            acc = row.get(k, ZERO) + c
            if acc:
                row[k] = acc
            else:
                row.pop(k, None)
        object.__setattr__(self, "dim", dim)
        object.__setattr__(self, "basis", basis_t)
        object.__setattr__(self, "nilradical", frozenset(int(i) for i in nilradical))
        object.__setattr__(self, "complement", tuple(sorted(int(i) for i in complement)))
        object.__setattr__(
            self,
            "conjugation",
            None if conjugation is None else {int(a): int(b) for a, b in conjugation.items()},
        )
        object.__setattr__(self, "mode", mode)
        rows: dict[tuple[int, int], dict[int, GaussianRational]] = {}
        squares = tuple(i for (i, j), row in table.items() if i == j and row)
        partners: list[set[int]] = [set() for _ in range(dim)]
        for (i, j), row in table.items():
            if i == j:
                continue
            rows[(i, j)] = row
            if (j, i) not in table:
                rows[(j, i)] = {k: -c for k, c in row.items()}
            if row:
                partners[i].add(j)
                partners[j].add(i)
        object.__setattr__(self, "_rows", rows)
        object.__setattr__(self, "_squares", squares)
        object.__setattr__(self, "_partners", tuple(tuple(sorted(p)) for p in partners))

    def __setattr__(self, name, value):
        raise AttributeError("LieAlgebraData is immutable")

    def __eq__(self, other):
        if not isinstance(other, LieAlgebraData):
            return NotImplemented
        return (
            self.dim == other.dim
            and self.basis == other.basis
            and self.bracket_table() == other.bracket_table()
            and self.nilradical == other.nilradical
            and self.complement == other.complement
            and self.conjugation == other.conjugation
            and self.mode == other.mode
        )

    def bracket_table(self) -> dict[tuple[int, int], tuple[tuple[int, GaussianRational], ...]]:
        """Canonical (i < j only, in key order) view of the structure constants:
        bracket(i, j) for each pair where it is nonzero, terms sorted."""
        return {
            (i, j): tuple(sorted(row.items()))
            for (i, j), row in sorted(self._rows.items())
            if i < j and row
        }

    def bracket(self, i: int, j: int) -> dict[int, GaussianRational]:
        """[X_i, X_j] as a sparse coefficient vector, a copy of its row."""
        return dict(self._rows.get((i, j), ()))

    def bracket_vectors(
        self, i: int, vec: Mapping[int, GaussianRational]
    ) -> dict[int, GaussianRational]:
        """[X_i, v] for a sparse vector v of nonzero coordinates."""
        out: SparseRow = {}
        for j, a in vec.items():
            out = row_axpy(out, self.bracket(i, j), a)
        return out

    def ad_matrix(self, j: int) -> ExactMatrix:
        """Matrix of ad(X_j) on column vectors, read off j's stored partners in ascending i."""
        entries: dict[tuple[int, int], GaussianRational] = {}
        for i in self._partners[j]:
            for k, c in self.bracket(j, i).items():
                entries[(k, i)] = c
        return ExactMatrix.from_entries(self.dim, self.dim, entries)


def validate_algebra(g: LieAlgebraData) -> tuple[ValidationIssue, ...]:
    """Check every structural invariant; return the issues found, never raise."""
    issues: list[ValidationIssue] = []
    n = g.dim

    # Index-set split.
    comp = set(g.complement)
    if g.nilradical & comp:
        issues.append(
            ValidationIssue(
                "split-overlap",
                "nilradical and complement overlap",
                tuple(sorted(g.nilradical & comp)),
            )
        )
    if g.nilradical | comp != set(range(n)):
        issues.append(
            ValidationIssue(
                "split-incomplete",
                "nilradical and complement do not cover the basis",
                tuple(sorted(set(range(n)) - (g.nilradical | comp))),
            )
        )

    # Antisymmetry: [X_i, X_i] = 0 and the two orientations must agree. A
    # pair stored in one orientation has its other row derived, so only a
    # pair stored in both can fail.
    for i in g._squares:
        issues.append(
            ValidationIssue("antisymmetry", f"[{g.basis[i]},{g.basis[i]}] is nonzero", (i, i))
        )
    for (i, j), row in sorted(g._rows.items()):
        if i < j and row != {k: -c for k, c in g._rows[(j, i)].items()}:
            issues.append(
                ValidationIssue(
                    "antisymmetry",
                    f"[{g.basis[i]},{g.basis[j]}] and "
                    f"[{g.basis[j]},{g.basis[i]}] are not negations",
                    (i, j),
                )
            )

    # Jacobi, reported with the witnessing triple, in ascending order. On a
    # triple i < j < k the cyclic sum is [X_a, [X_b, X_c]] over (a, b, c) in
    # (i, j, k), (j, k, i), (k, i, j): the inner bracket is taken descending
    # when a is the middle index, ascending otherwise. A term is zero unless
    # {b, c} is a stored pair and, for some t in [X_b, X_c], a is a stored
    # partner of t, so only those products are summed, per triple.
    pairs = {(i, j) for i in range(n) for j in g._partners[i] if i < j}
    sums: dict[tuple[int, int, int], SparseRow] = {}
    for b, c in pairs:
        for middle, inner in ((False, g.bracket(b, c)), (True, g.bracket(c, b))):
            for t, x in inner.items():
                for a in g._partners[t]:
                    if a == b or a == c or (b < a < c) != middle:
                        continue
                    acc = sums.setdefault(tuple(sorted((a, b, c))), {})
                    for u, y in g.bracket(a, t).items():
                        acc[u] = acc.get(u, ZERO) + x * y
    for (i, j, k), acc in sorted(sums.items()):
        if any(acc.values()):
            issues.append(
                ValidationIssue(
                    "jacobi",
                    f"Jacobi identity fails on ({g.basis[i]},{g.basis[j]},{g.basis[k]})",
                    (i, j, k),
                )
            )

    # All brackets must land in the nilradical span (ideal containing [g,g]).
    # The witness lists the stray indices in the order the table holds them.
    for i, j in g.bracket_table():
        bad = [k for k in g._rows[(i, j)] if k not in g.nilradical]
        if bad:
            issues.append(
                ValidationIssue(
                    "nilradical-ideal",
                    f"[{g.basis[i]},{g.basis[j]}] leaves the nilradical span",
                    (i, j, tuple(bad)),
                )
            )

    # Nilpotency certificate for the nilradical: per-generator ad nilpotent
    # plus a terminating lower central series.
    for i in sorted(g.nilradical):
        if not g.ad_matrix(i).is_nilpotent():
            issues.append(
                ValidationIssue(
                    "nilradical-ad",
                    f"ad({g.basis[i]}) is not nilpotent",
                    (i,),
                )
            )
    series = lower_central_series_dims(g, g.nilradical)
    if series and series[-1] != 0:
        issues.append(
            ValidationIssue(
                "nilradical-lcs",
                "lower central series of the nilradical does not reach zero",
                tuple(series),
            )
        )

    # Conjugation table. It may be omitted; unitarity then reads "unknown"
    # downstream.
    if g.conjugation is not None:
        if g.mode != MODE_REAL:
            issues.append(
                ValidationIssue(
                    "conjugation-mode",
                    "conjugation table is only meaningful in real-complexified mode",
                )
            )
        sigma = g.conjugation
        if set(sigma) != set(range(n)) or set(sigma.values()) != set(range(n)):
            issues.append(
                ValidationIssue(
                    "conjugation-domain", "conjugation must permute all indices"
                )
            )
        else:
            for i in range(n):
                if sigma[sigma[i]] != i:
                    issues.append(
                        ValidationIssue(
                            "conjugation-involution",
                            f"conjugation is not an involution at {g.basis[i]}",
                            (i,),
                        )
                    )
            if any((i in g.nilradical) != (sigma[i] in g.nilradical) for i in range(n)):
                issues.append(
                    ValidationIssue(
                        "conjugation-split",
                        "conjugation must preserve the nilradical/complement split",
                    )
                )
            # A pair with no stored bracket whose image has none either holds.
            inverse = {b: a for a, b in sigma.items()}
            preimages = {tuple(sorted((inverse[a], inverse[b]))) for a, b in pairs}
            for i, j in sorted(pairs | preimages):
                expected = {sigma[k]: c.conjugate() for k, c in g.bracket(i, j).items()}
                if g.bracket(sigma[i], sigma[j]) != expected:
                    issues.append(
                        ValidationIssue(
                            "conjugation-brackets",
                            "structure constants are not conjugation-equivariant "
                            f"on ({g.basis[i]},{g.basis[j]})",
                            (i, j),
                        )
                    )

    return tuple(issues)


def lower_central_series_dims(g: LieAlgebraData, indices: frozenset[int]) -> list[int]:
    """Dimensions of the lower central series of span(indices).

    The series is S_1 = span, S_{k+1} = [S_1, S_k]. A nilpotent span
    reaches zero within dim steps; we stop there regardless, since a
    non-nilpotent series can oscillate without ever stabilising.
    """
    if not indices:
        return [0]
    current: list[dict[int, GaussianRational]] = [
        {i: ONE} for i in sorted(indices)
    ]
    dims = [len(current)]
    while dims[-1] != 0 and len(dims) <= g.dim:
        brackets = (g.bracket_vectors(i, vec) for i in sorted(indices) for vec in current)
        current = list(trailing_echelon(brackets).values())
        dims.append(len(current))
    return dims


@dataclass(frozen=True)
class RepresentationData:
    """A finite-dimensional module given by one matrix per basis vector.

    rep_weights, if provided, are weight covectors over the complement
    coordinates, one per module basis vector. `adjoint` records that the
    matrices are the ad matrices of the algebra.
    """

    m: int
    matrices: tuple[ExactMatrix, ...]
    rep_weights: Optional[tuple[tuple[GaussianRational, ...], ...]] = None
    adjoint: bool = False

    def __post_init__(self):
        for mat in self.matrices:
            if mat.nrows != self.m or mat.ncols != self.m:
                raise ValidationFailure("representation matrix has wrong shape")
        if self.rep_weights is not None and len(self.rep_weights) != self.m:
            raise ValidationFailure("need one rep weight per module basis vector")


def trivial_representation(g: LieAlgebraData) -> RepresentationData:
    zero = ExactMatrix.zero(1, 1)
    zero_weight = (tuple(ZERO for _ in g.complement),)
    return RepresentationData(1, tuple(zero for _ in range(g.dim)), zero_weight)


def adjoint_representation(g: LieAlgebraData) -> RepresentationData:
    return RepresentationData(
        g.dim,
        tuple(g.ad_matrix(j) for j in range(g.dim)),
        rep_weights=None,
        adjoint=True,
    )


def validate_representation(
    g: LieAlgebraData, rep: RepresentationData
) -> tuple[ValidationIssue, ...]:
    """The module's issues: arity, homomorphism law, unipotence, declared weights."""
    if len(rep.matrices) != g.dim:
        return (ValidationIssue("rep-arity", "need one representation matrix per basis vector"),)
    issues: list[ValidationIssue] = []

    # Homomorphism law, row by row: [R_i, R_j] - sum_k c_{ij}^k R_k = 0.
    # A pair with no stored bracket and a zero matrix has both sides zero,
    # so only the others are checked. An empty row times a matrix is zero,
    # so that product is not formed.
    R = rep.matrices
    live = [not r.is_zero() for r in R]
    for i in range(g.dim):
        for j in range(i + 1, g.dim):
            if not (live[i] and live[j]) and j not in g._partners[i]:
                continue
            terms = g.bracket(i, j).items()
            for l, (ri, rj) in enumerate(zip(R[i].row_maps, R[j].row_maps)):
                ij = row_times(ri, R[j]) if ri else {}
                row = row_axpy(ij, row_times(rj, R[i]) if rj else {}, MINUS_ONE)
                for k, c in terms:
                    row = row_axpy(row, R[k].row_maps[l], -c)
                if row:
                    issues.append(
                        ValidationIssue(
                            "rep-homomorphism",
                            f"[R({g.basis[i]}),R({g.basis[j]})] != R([{g.basis[i]},{g.basis[j]}])",
                            (i, j),
                        )
                    )
                    break

    # Unipotence certificate on the nilradical.
    for i in sorted(g.nilradical):
        if not rep.matrices[i].is_nilpotent():
            issues.append(
                ValidationIssue(
                    "rep-unipotence",
                    f"R({g.basis[i]}) is not nilpotent on the nilradical",
                    (i,),
                )
            )

    # Declared weights must sit on the matrix diagonals with nilpotent residue.
    if rep.rep_weights is not None:
        for pos, j in enumerate(g.complement):
            diag, nilpotent = rep.matrices[j].split_diagonal()
            if any(rep.rep_weights[k][pos] != d for k, d in enumerate(diag)):
                issues.append(
                    ValidationIssue(
                        "rep-weight-diagonal",
                        f"diagonal of R({g.basis[j]}) disagrees with declared weights",
                        (j,),
                    )
                )
            elif not nilpotent:
                issues.append(
                    ValidationIssue(
                        "rep-weight-residue",
                        f"R({g.basis[j]}) minus its declared diagonal is not nilpotent",
                        (j,),
                    )
                )
    return tuple(issues)

