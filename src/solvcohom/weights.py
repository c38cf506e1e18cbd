"""Weight covectors, their inference from operator diagonals, and the invariant complex.

Weights are additive covectors on the complement coordinates: each basis
vector X_i of the algebra carries lambda_i, each module basis vector v_k
carries lambda'_k. The weight tag of a basis monomial x_I (x) v_k is

    mu_{I,k} = sum_{i in I} lambda_i - lambda'_k.

The invariant complex has one basis element per (I, k); its differential
applies the Chevalley-Eilenberg formula in the module twisted by the
column's own tag, through cecomplex.ce_kernel, which never forms the
twist: the weights must be the diagonals of ad and R, where it cancels.
That the result never crosses between distinct tags is exactly weight
additivity of the input data, checked on degrees 0 and 1 (which decide
it, and whose entry order names the first violation) and on every entry
built after; a violation raises WeightGradingError.

Distinct tags are few next to basis elements, so the complex interns
them: a sorted tag table plus one small integer id per basis element.
The algebra part of a tag is interned by cecomplex.subset_sums, whose
one use this is, and the tag formed once per (algebra part, k) and
hashed once, into a provisional id in first-seen order; the distinct
tags are then sorted once and the ids remapped. The grading check and
the lattice selection work on ids. A basis element's
label is formed only when something reads it, and above degree 1 only
the blocks of the tags asked for are built (restrict_complex).
"""
from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from itertools import chain
from typing import Callable, Iterable

from .cecomplex import (
    FiniteComplex,
    Weight,
    ce_kernel,
    degree_masks,
    module_basis_names,
    subset_sums,
)
from .errors import (
    ValidationFailure,
    WeightGradingError,
    WeightInferenceError,
)
from .liealg import (
    LieAlgebraData,
    RepresentationData,
    ValidationIssue,
)
from .linalg import ExactMatrix
from .scalars import GaussianRational


# ---------------------------------------------------------------------------
# Weight assignments.


@dataclass(frozen=True)
class WeightAssignment:
    """One covector per algebra basis vector and per module basis vector."""

    algebra_weights: tuple[Weight, ...]
    rep_weights: tuple[Weight, ...]
    complement: tuple[int, ...]

    def __post_init__(self):
        width = len(self.complement)
        if any(len(w) != width for w in chain(self.algebra_weights, self.rep_weights)):
            raise ValidationFailure("weight covector width != complement size")


def weight_is_zero(w: Weight) -> bool:
    return all(not c for c in w)


def weight_sort_key(w: Weight):
    return tuple([c.sort_key() for c in w])


def format_weight(w: Weight) -> str:
    return "(" + ", ".join(str(c) for c in w) + ")"


def _diagonal_splits(g: LieAlgebraData, rep: RepresentationData) -> list:
    """Per complement index j, in order: ad(X_j) and R(X_j) split_diagonal."""
    return [
        (g.ad_matrix(j).split_diagonal(), rep.matrices[j].split_diagonal())
        for j in g.complement
    ]


def infer_weights(g: LieAlgebraData, rep: RepresentationData) -> WeightAssignment:
    """Read weights off operator diagonals over the complement.

    For every complement index j, ad(X_j) and R(X_j) must split as
    diagonal + nilpotent in the supplied basis; the diagonals are the
    weights. A non-nilpotent residue means the basis does not align the
    generalized eigenspaces and inference is refused.
    """
    splits = _diagonal_splits(g, rep)
    for j, (ad, r) in zip(g.complement, splits):
        for op, (_, nilpotent) in (("ad", ad), ("R", r)):
            if not nilpotent:
                raise WeightInferenceError(
                    f"{op}({g.basis[j]}) minus its diagonal is not nilpotent; "
                    "supply an adapted basis"
                )
    return WeightAssignment(
        tuple([tuple([diag[i] for (diag, _), _ in splits]) for i in range(g.dim)]),
        tuple([tuple([diag[k] for _, (diag, _) in splits]) for k in range(rep.m)]),
        g.complement,
    )


def validate_weight_assignment(
    g: LieAlgebraData, rep: RepresentationData, w: WeightAssignment
) -> tuple[ValidationIssue, ...]:
    """The issues of diagonal match and nilpotent residues for ad and rep matrices."""
    if w.complement != g.complement:
        return (ValidationIssue("weights-complement", "weight complement order mismatch"),)
    issues: list[ValidationIssue] = []
    for pos, (j, (ad, r)) in enumerate(zip(g.complement, _diagonal_splits(g, rep))):
        name = g.basis[j]
        for side, owner, op, (diag, nilpotent), declared in (
            ("ad", "algebra", "ad", ad, w.algebra_weights),
            ("rep", "rep", "R", r, w.rep_weights),
        ):
            if any(declared[i][pos] != d for i, d in enumerate(diag)):
                issues.append(
                    ValidationIssue(
                        f"weights-{side}-diagonal",
                        f"{owner} weights disagree with the diagonal of {op}({name})",
                        (j,),
                    )
                )
            if not nilpotent:
                issues.append(
                    ValidationIssue(
                        f"weights-{side}-residue",
                        f"{op}({name}) minus its diagonal is not nilpotent",
                        (j,),
                    )
                )
    return tuple(issues)


# ---------------------------------------------------------------------------
# The invariant complex.


@dataclass(frozen=True)
class InvariantComplex:
    """Basis elements (I, k) of the invariant complex, one weight tag each.

    Degree-p element i is (degree_masks(n, p)[i // m], i % m), named
    label(p, i); names are formed when asked for, not stored. Tags are
    interned: tag_table lists the distinct tags in weight_sort_key order,
    and tag_ids[p][i] is the position in it of the tag of degree-p element
    i. kernel is ce_kernel(algebra, representation): d on the given
    columns, each in its own tag's twist. complex, the block of every
    tag, and distinct_tags, an alias of tag_table, are read by no command:
    they remain only for the counters of bench/spans.py, until the
    benchmark counts from the selected blocks (ROADMAP item 6(a)).
    """

    tag_table: tuple[Weight, ...]
    tag_ids: tuple[tuple[int, ...], ...]
    algebra: LieAlgebraData
    representation: RepresentationData
    weights: WeightAssignment
    kernel: Callable[[Iterable[int], int], dict] = field(repr=False, compare=False)

    @cached_property
    def complex(self) -> FiniteComplex:
        return restrict_complex(self, range(len(self.tag_table)))

    @cached_property
    def _label_parts(self) -> tuple[tuple[str, ...], tuple[str, ...]]:
        g = self.algebra
        starred = tuple(name + "*" for name in g.basis)
        tails = tuple(f" (x) {name}" for name in module_basis_names(g, self.representation))
        return starred, tails

    def labels(self, p: int, indices: Iterable[int]) -> list[str]:
        """The names of the given degree-p elements, such as "x*^z* (x) u2"."""
        starred, tails = self._label_parts
        m, masks = len(tails), degree_masks(len(starred), p)
        return [
            ("^".join([name for j, name in enumerate(starred) if masks[i // m] >> j & 1]) or "1")
            + tails[i % m]
            for i in indices
        ]

    def label(self, p: int, i: int) -> str:
        return self.labels(p, (i,))[0]

    def distinct_tags(self) -> tuple[Weight, ...]:
        return self.tag_table

    def indices_with_tag_ids(self, tag_ids: Iterable[int]) -> tuple[tuple[int, ...], ...]:
        wanted = set(tag_ids)
        return tuple(
            tuple([i for i, t in enumerate(per) if t in wanted]) for per in self.tag_ids
        )


def build_invariant_complex(
    g: LieAlgebraData, rep: RepresentationData, w: WeightAssignment
) -> InvariantComplex:
    """Tag the invariant complex and certify its weight grading.

    Column (I, k) is differentiated in the module twisted by its own tag,
    which ce_kernel forms without the tags: weights off the diagonals of
    ad and R raise ValidationFailure. Only degrees 0 and 1 are built
    here, all their columns, for the grading check. The coefficient of
    d(x_I (x) v_k) at (J, l) is affine in I's indicator (R_j[l, k];
    R_j[k, k] minus c_{jt}^t over t in I, j in the nilradical; or
    +-c_{ab}^t, {t} = I - J) and its tag jump depends only on J - I,
    I - J, k and l, so degrees 0 and 1 pass exactly when all degrees do,
    and hold the first violation in (degree, column, term) order; the
    kernel promises term order there.
    """
    for issue in validate_weight_assignment(g, rep, w):
        if not issue.code.endswith("-residue"):
            raise ValidationFailure(issue.message)
    n = g.dim
    alg_table, alg = subset_sums(w.algebra_weights, len(w.complement))
    # Each tag is its interned algebra part minus lambda'_k, no zero operand,
    # hashed once into a provisional id; the distinct tags are sorted once
    # (weight_sort_key is injective on tags, so none tie) and the ids remapped.
    first_seen: dict[Weight, int] = {}
    provisional = [
        [first_seen.setdefault(
            tuple([x - y if x and y else -y if y else x for x, y in zip(base, lam)]),
            len(first_seen),
        ) for lam in w.rep_weights]
        for base in alg_table
    ]
    distinct = list(first_seen)
    order = sorted(range(len(distinct)), key=lambda i: weight_sort_key(distinct[i]))
    tag_table = tuple([distinct[i] for i in order])
    rank = [0] * len(order)
    for new, old in enumerate(order):
        rank[old] = new
    by_alg = [[rank[i] for i in per] for per in provisional]
    tag_ids = tuple(
        tuple(chain.from_iterable([by_alg[alg[mask]] for mask in degree_masks(n, p)]))
        for p in range(n + 1)
    )

    ic = InvariantComplex(tag_table, tag_ids, g, rep, w, ce_kernel(g, rep))
    for p in range(min(n, 2)):
        _graded_entries(ic, range(len(tag_ids[p])), p)
    return ic


def _graded_entries(
    ic: InvariantComplex, columns: Iterable[int], p: int
) -> dict[tuple[int, int], GaussianRational]:
    """ic.kernel's entries for the given columns, checked for the grading.

    The first in the kernel's order that reaches a basis element of
    another tag raises WeightGradingError. Only degrees 0 and 1 can
    raise on a kernel built by build_invariant_complex, and there that
    order is column, then term order.
    """
    source_ids, target_ids = ic.tag_ids[p], ic.tag_ids[p + 1]
    entries = ic.kernel(columns, p)
    for row, col in entries:
        tid = source_ids[col]
        if target_ids[row] != tid:
            raise WeightGradingError(
                "weight grading violated: d("
                f"{ic.label(p, col)}) hits {ic.label(p + 1, row)} "
                f"across tags {format_weight(ic.tag_table[tid])} -> "
                f"{format_weight(ic.tag_table[target_ids[row]])}; invalid weight data"
            )
    return entries


def restrict_complex(ic: InvariantComplex, tag_ids: Iterable[int]) -> FiniteComplex:
    """The block of the given tag ids, its basis in the global order.

    Only those tags' columns are formed, and every entry passes the
    grading check, so it lands on a row of its column's tag: the block is
    closed under d by construction.
    """
    keep = ic.indices_with_tag_ids(tag_ids)
    dims = [len(ks) for ks in keep]
    pos = [{i: at for at, i in enumerate(ks)} for ks in keep]
    differentials = []
    for p in range(len(keep) - 1):
        entries = _graded_entries(ic, keep[p], p)
        # Kernel entries are nonzero, and graded ones land in the block.
        rows: list[dict] = [{} for _ in range(dims[p + 1])]
        for (r, c), v in entries.items():
            rows[pos[p + 1][r]][pos[p][c]] = v
        differentials.append(ExactMatrix(dims[p + 1], dims[p], tuple(rows)))
    return FiniteComplex(tuple(dims), tuple(differentials))
