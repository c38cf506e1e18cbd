"""Finite-dimensional Lie algebra data and structural validation.

An algebra is given by exact structure constants on a named basis,
together with a user-declared nilradical/complement split of the index
set. Validation checks what the later stages assume: antisymmetry,
Jacobi, the nilradical spanning a nilpotent ideal that contains all
brackets, and (in real-complexified mode) conjugation compatibility.
Validation never raises; it returns a report listing every violation
with a witness.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Mapping, Optional, Sequence

from .errors import ValidationFailure
from .linalg import ExactMatrix, trailing_echelon
from .scalars import ONE, ZERO, GaussianRational

MODE_REAL = "real-complexified"
MODE_COMPLEX = "complex"

BracketEntry = tuple[int, int, int, GaussianRational]


@dataclass(frozen=True)
class ValidationIssue:
    code: str
    message: str
    witness: tuple = ()


@dataclass(frozen=True)
class ValidationReport:
    issues: tuple[ValidationIssue, ...]

    @property
    def ok(self) -> bool:
        return not self.issues


class LieAlgebraData:
    """Structure constants plus the nilradical/complement split.

    brackets is a sequence of (i, j, k, c) meaning [X_i, X_j] has
    coefficient c on X_k. Only one orientation of each pair needs to be
    supplied; if both appear they must be exact negations (validated).
    """

    __slots__ = (
        "dim",
        "basis",
        "nilradical",
        "complement",
        "conjugation",
        "mode",
        "_table",
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
        object.__setattr__(self, "_table", table)

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
        """Canonical (i < j only) view of the structure constants."""
        out = {}
        for i in range(self.dim):
            for j in range(i + 1, self.dim):
                b = self.bracket(i, j)
                if b:
                    out[(i, j)] = tuple(sorted(b.items()))
        return out

    def bracket(self, i: int, j: int) -> dict[int, GaussianRational]:
        """[X_i, X_j] as a sparse coefficient vector."""
        if i == j:
            return {}
        direct = self._table.get((i, j))
        if direct is not None:
            return dict(direct)
        reverse = self._table.get((j, i))
        if reverse is not None:
            return {k: -c for k, c in reverse.items()}
        return {}

    def bracket_vectors(
        self, i: int, vec: Mapping[int, GaussianRational]
    ) -> dict[int, GaussianRational]:
        """[X_i, v] for a sparse vector v."""
        out: dict[int, GaussianRational] = {}
        for j, a in vec.items():
            if not a:
                continue
            for k, c in self.bracket(i, j).items():
                acc = out.get(k, ZERO) + a * c
                if acc:
                    out[k] = acc
                else:
                    out.pop(k, None)
        return out

    def ad_matrix(self, j: int) -> ExactMatrix:
        """Matrix of ad(X_j) acting on column vectors in the given basis."""
        entries: dict[tuple[int, int], GaussianRational] = {}
        for i in range(self.dim):
            for k, c in self.bracket(j, i).items():
                entries[(k, i)] = c
        return ExactMatrix.from_entries(self.dim, self.dim, entries)


def validate_algebra(g: LieAlgebraData) -> ValidationReport:
    """Check every structural invariant; collect issues, never raise."""
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

    # Antisymmetry: [X_i, X_i] = 0 and the two orientations must agree.
    for (i, j), row in g._table.items():
        if i == j and row:
            issues.append(
                ValidationIssue(
                    "antisymmetry", f"[{g.basis[i]},{g.basis[i]}] is nonzero", (i, i)
                )
            )
    for i in range(n):
        for j in range(i + 1, n):
            fwd = g._table.get((i, j))
            rev = g._table.get((j, i))
            if fwd is not None and rev is not None:
                neg = {k: -c for k, c in rev.items()}
                if fwd != neg:
                    issues.append(
                        ValidationIssue(
                            "antisymmetry",
                            f"[{g.basis[i]},{g.basis[j]}] and "
                            f"[{g.basis[j]},{g.basis[i]}] are not negations",
                            (i, j),
                        )
                    )

    # Jacobi, reported with the witnessing triple.
    for i in range(n):
        for j in range(i + 1, n):
            for k in range(j + 1, n):
                acc: dict[int, GaussianRational] = {}

                def fold(a: int, b: int, c: int):
                    for m, coeff in g.bracket(b, c).items():
                        for target, inner in g.bracket(a, m).items():
                            v = acc.get(target, ZERO) + coeff * inner
                            if v:
                                acc[target] = v
                            else:
                                acc.pop(target, None)

                fold(i, j, k)
                fold(j, k, i)
                fold(k, i, j)
                if acc:
                    issues.append(
                        ValidationIssue(
                            "jacobi",
                            "Jacobi identity fails on "
                            f"({g.basis[i]},{g.basis[j]},{g.basis[k]})",
                            (i, j, k),
                        )
                    )

    # All brackets must land in the nilradical span (ideal containing [g,g]).
    for i in range(n):
        for j in range(i + 1, n):
            bad = [k for k in g.bracket(i, j) if k not in g.nilradical]
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
            for i in range(n):
                for j in range(i + 1, n):
                    expected = {
                        sigma[k]: c.conjugate() for k, c in g.bracket(i, j).items()
                    }
                    if g.bracket(sigma[i], sigma[j]) != expected:
                        issues.append(
                            ValidationIssue(
                                "conjugation-brackets",
                                "structure constants are not conjugation-equivariant "
                                f"on ({g.basis[i]},{g.basis[j]})",
                                (i, j),
                            )
                        )

    return ValidationReport(tuple(issues))


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


class RepresentationData:
    """A finite-dimensional module given by one matrix per basis vector.

    rep_weights, if provided, are weight covectors over the complement
    coordinates, one per module basis vector. `adjoint` records that the
    matrices are the ad matrices of the algebra.
    """

    __slots__ = ("m", "matrices", "rep_weights", "adjoint")

    def __init__(
        self,
        m: int,
        matrices: Sequence[ExactMatrix],
        rep_weights: Optional[Sequence[tuple[GaussianRational, ...]]] = None,
        adjoint: bool = False,
    ):
        mats = tuple(matrices)
        for mat in mats:
            if mat.nrows != m or mat.ncols != m:
                raise ValidationFailure("representation matrix has wrong shape")
        weights = None if rep_weights is None else tuple(tuple(w) for w in rep_weights)
        if weights is not None and len(weights) != m:
            raise ValidationFailure("need one rep weight per module basis vector")
        object.__setattr__(self, "m", m)
        object.__setattr__(self, "matrices", mats)
        object.__setattr__(self, "rep_weights", weights)
        object.__setattr__(self, "adjoint", adjoint)

    def __setattr__(self, name, value):
        raise AttributeError("RepresentationData is immutable")

    def __eq__(self, other):
        if not isinstance(other, RepresentationData):
            return NotImplemented
        return (
            self.m == other.m
            and self.matrices == other.matrices
            and self.rep_weights == other.rep_weights
            and self.adjoint == other.adjoint
        )


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
) -> ValidationReport:
    issues: list[ValidationIssue] = []
    if len(rep.matrices) != g.dim:
        issues.append(
            ValidationIssue(
                "rep-arity", "need one representation matrix per basis vector"
            )
        )
        return ValidationReport(tuple(issues))

    # Homomorphism law: [R_i, R_j] = sum_k c_{ij}^k R_k.
    for i in range(g.dim):
        for j in range(i + 1, g.dim):
            lhs = rep.matrices[i] @ rep.matrices[j] - rep.matrices[j] @ rep.matrices[i]
            rhs = ExactMatrix.zero(rep.m, rep.m)
            for k, c in g.bracket(i, j).items():
                rhs = rhs + rep.matrices[k].scale(c)
            if lhs != rhs:
                issues.append(
                    ValidationIssue(
                        "rep-homomorphism",
                        f"[R({g.basis[i]}),R({g.basis[j]})] != R([{g.basis[i]},{g.basis[j]}])",
                        (i, j),
                    )
                )

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
    return ValidationReport(tuple(issues))

