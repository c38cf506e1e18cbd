"""Weight covectors, their inference from operator diagonals, and the invariant complex.

Weights are additive covectors on the complement coordinates: each basis
vector X_i of the algebra carries lambda_i, each module basis vector v_k
carries lambda'_k. The weight tag of a basis monomial x_I (x) v_k is

    mu_{I,k} = sum_{i in I} lambda_i - lambda'_k.

The invariant complex has one basis element per (I, k); its differential
applies the Chevalley-Eilenberg formula in the module twisted by the
column's own tag, through cecomplex.ce_kernel, whose twists are the tag
table. That the result never crosses between distinct tags is exactly
weight additivity of the input data, checked on degrees 0 and 1 (which
decide it, and whose entry order names the first violation) and on
every entry built after; a violation raises WeightGradingError.

Distinct tags are few next to basis elements, so the complex interns
them: a sorted tag table plus one small integer id per basis element.
The algebra part of a tag is interned by cecomplex.subset_sums, and
the tag formed once per (algebra part, k); the grading check, the
kernel's twists and the lattice selection all work on ids. A basis
element's label is formed only when something reads it, and above
degree 1 only the blocks of the tags asked for are built
(restrict_complex).
"""
from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from itertools import chain
from typing import Callable, Iterable, Sequence

from .cecomplex import (
    FiniteComplex,
    Weight,
    ce_kernel,
    degree_basis,
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
    ValidationReport,
)
from .linalg import ExactMatrix
from .scalars import GaussianRational


# ---------------------------------------------------------------------------
# Weight assignments.


class WeightAssignment:
    """One covector per algebra basis vector and per module basis vector."""

    __slots__ = ("algebra_weights", "rep_weights", "complement")

    def __init__(
        self,
        algebra_weights: Sequence[Weight],
        rep_weights: Sequence[Weight],
        complement: Sequence[int],
    ):
        comp = tuple(complement)
        alg = tuple(tuple(w) for w in algebra_weights)
        rw = tuple(tuple(w) for w in rep_weights)
        width = len(comp)
        if any(len(w) != width for w in alg) or any(len(w) != width for w in rw):
            raise ValidationFailure("weight covector width != complement size")
        object.__setattr__(self, "algebra_weights", alg)
        object.__setattr__(self, "rep_weights", rw)
        object.__setattr__(self, "complement", comp)

    def __setattr__(self, name, value):
        raise AttributeError("WeightAssignment is immutable")

    def __eq__(self, other):
        if not isinstance(other, WeightAssignment):
            return NotImplemented
        return (
            self.algebra_weights == other.algebra_weights
            and self.rep_weights == other.rep_weights
            and self.complement == other.complement
        )


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
                    "supply an adapted basis or explicit weights"
                )
    return WeightAssignment(
        [[diag[i] for (diag, _), _ in splits] for i in range(g.dim)],
        [[diag[k] for _, (diag, _) in splits] for k in range(rep.m)],
        g.complement,
    )


def validate_weight_assignment(
    g: LieAlgebraData, rep: RepresentationData, w: WeightAssignment
) -> ValidationReport:
    """Diagonal match plus nilpotent residues for ad and rep matrices."""
    if w.complement != g.complement:
        return ValidationReport(
            (ValidationIssue("weights-complement", "weight complement order mismatch"),)
        )
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
    return ValidationReport(tuple(issues))


# ---------------------------------------------------------------------------
# The invariant complex.


@dataclass(frozen=True)
class InvariantComplex:
    """Basis elements (I, k) of the invariant complex, one weight tag each.

    Degree-p element i is (degree_basis(n, p)[i // m], i % m), named
    label(p, i); names are formed when asked for, not stored. Tags are
    interned: tag_table lists the distinct tags in weight_sort_key order,
    and tag_ids[p][i] is the position in it of the tag of degree-p element
    i. kernel is ce_kernel(algebra, representation, tag_table), so a
    column's twist id is its tag id. complex, the block of every tag, and
    distinct_tags, an alias of tag_table, are read by no command: they
    remain only for the counters of bench/spans.py, until the benchmark
    counts from the selected blocks (ROADMAP item 5(a)).
    """

    tag_table: tuple[Weight, ...]
    tag_ids: tuple[tuple[int, ...], ...]
    algebra: LieAlgebraData
    representation: RepresentationData
    weights: WeightAssignment
    kernel: Callable[[dict[int, int], int], dict] = field(repr=False, compare=False)

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
        m, subsets = len(tails), degree_basis(len(starred), p)
        return [
            ("^".join([starred[j] for j in subsets[i // m]]) or "1") + tails[i % m]
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

    Column (I, k) is differentiated in the module twisted by its own tag:
    the kernel's twists are the tag table. Only degrees 0 and 1 are built
    here, all their columns, for the grading check. The coefficient of
    d(x_I (x) v_k) at (J, l) is affine in I's indicator (R_j[l, k];
    R_j[k, k] + mu_{I,k}(X_j) plus c_{jt}^t over t in I; or +-c_{ab}^t,
    {t} = I - J) and its tag jump depends only on J - I, I - J, k and l,
    so degrees 0 and 1 pass exactly when all degrees do, and hold the
    first violation in (degree, column, term) order; the kernel promises
    term order there.

    The algebra part of a tag is interned by subset_sums, and each tag is
    that part minus lambda'_k, formed once per (algebra part, k) with no
    zero operand. The distinct tags are sorted by weight_sort_key, and
    the per-degree ids index that table.
    """
    n = g.dim
    alg_table, alg = subset_sums(w.algebra_weights, len(w.complement))
    tags = [
        [tuple([x - y if x and y else -y if y else x for x, y in zip(base, lam)])
         for lam in w.rep_weights]
        for base in alg_table
    ]
    tag_table = tuple(sorted(set(chain.from_iterable(tags)), key=weight_sort_key))
    tag_id = {tag: i for i, tag in enumerate(tag_table)}
    by_alg = [[tag_id[tag] for tag in per] for per in tags]
    tag_ids = tuple(
        tuple(chain.from_iterable([by_alg[alg[mask]] for mask in degree_masks(n, p)]))
        for p in range(n + 1)
    )

    kernel = ce_kernel(g, rep, tag_table)
    ic = InvariantComplex(tag_table, tag_ids, g, rep, w, kernel)
    for p in range(min(n, 2)):
        _graded_entries(ic, dict(enumerate(tag_ids[p])), p)
    return ic


def _graded_entries(
    ic: InvariantComplex, column_tag: dict[int, int], p: int
) -> dict[tuple[int, int], GaussianRational]:
    """ic.kernel's entries for the given columns, checked for the grading.

    The first in the kernel's order that reaches a basis element of
    another tag raises WeightGradingError. Only degrees 0 and 1 can
    raise on a kernel built by build_invariant_complex, and there that
    order is column, then term order.
    """
    source_ids, target_ids = ic.tag_ids[p], ic.tag_ids[p + 1]
    entries = ic.kernel(column_tag, p)
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
        entries = _graded_entries(ic, {c: ic.tag_ids[p][c] for c in keep[p]}, p)
        # Kernel entries are nonzero, and graded ones land in the block.
        rows: list[dict] = [{} for _ in range(dims[p + 1])]
        for (r, c), v in entries.items():
            rows[pos[p + 1][r]][pos[p][c]] = v
        differentials.append(ExactMatrix._of(dims[p + 1], dims[p], rows))
    return FiniteComplex(dims, differentials)
