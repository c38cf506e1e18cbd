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

Distinct tags are few next to basis elements, and a tag depends only on
k and on I restricted to the weighted directions, those whose lambda_i
is nonzero; so the complex interns the tags once per (weighted subset,
k), as a sorted tag table plus ids, and keeps none per basis element.
The algebra part of a tag is interned by cecomplex.subset_sums, whose
one use this is, and the tag formed once per (algebra part, k) and
hashed once, into a provisional id in first-seen order; the distinct
tags are then sorted once and the ids remapped. The grading check and
the lattice selection work on ids. Only the cochains of the tags asked
for are enumerated (InvariantComplex.cochains) and only their blocks
built (restrict_complex); a basis element's label is formed only when
something reads it.
"""
from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass, field
from functools import cached_property
from itertools import chain, count
from operator import itemgetter
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
    """The invariant complex, its tags kept per subset of the weighted directions.

    The cochain x_I (x) v_k is named by its key I * m + k (I a bitmask),
    of degree |I|; label(key) names it and tag_id(key) gives its tag id,
    a position in tag_table, the distinct tags in weight_sort_key order.
    A tag depends only on k and on I & weighted, the directions of
    nonzero algebra weight, so subset_tags maps each subset S of weighted,
    in subset_sums' order, to the tag ids of (S, k) for k in range(m), and
    no list runs over every cochain. cochains(tag_ids) enumerates the
    given tags' cochains alone. kernel is ce_kernel(algebra,
    representation), d on the columns given by key. complex, the block of
    every tag, and distinct_tags, an alias of tag_table, are read by no
    command: they remain only for the counters of bench/spans.py, until
    the benchmark counts from the selected blocks (ROADMAP item 6(a)).
    """

    tag_table: tuple[Weight, ...]
    subset_tags: dict[int, tuple[int, ...]]
    weighted: int
    algebra: LieAlgebraData
    representation: RepresentationData
    weights: WeightAssignment
    kernel: Callable[[Iterable[int]], dict] = field(repr=False, compare=False)

    @cached_property
    def complex(self) -> FiniteComplex:
        return restrict_complex(self, range(len(self.tag_table)))

    @cached_property
    def _label_parts(self) -> tuple[tuple[str, ...], tuple[str, ...]]:
        g = self.algebra
        starred = tuple(name + "*" for name in g.basis)
        tails = tuple(f" (x) {name}" for name in module_basis_names(g, self.representation))
        return starred, tails

    def labels(self, keys: Iterable[int]) -> list[str]:
        """The names of the cochains of the given keys, such as "x*^z* (x) u2"."""
        starred, tails = self._label_parts
        m = len(tails)
        return [
            ("^".join([name for j, name in enumerate(starred) if key // m >> j & 1]) or "1")
            + tails[key % m]
            for key in keys
        ]

    def label(self, key: int) -> str:
        return self.labels((key,))[0]

    def tag_id(self, key: int) -> int:
        m = self.representation.m
        return self.subset_tags[key // m & self.weighted][key % m]

    def distinct_tags(self) -> tuple[Weight, ...]:
        return self.tag_table

    def cochains(self, tag_ids: Iterable[int]) -> list[tuple[list[int], list[int]]]:
        """Per degree, the keys of the given tags' cochains and their tag ids.

        A kept cochain is (S | Z, k): (S, k) of a given tag, Z any subset
        of the unweighted directions. Each is sorted as one integer, its
        rank (_ranks) above its tag id. The rank of (S | Z, k) is the sum
        of those of (S, k) and (Z, 0), so a kept cochain costs one
        addition, the sort needs no key, and each degree is a slice of it.
        """
        n, m, full = self.algebra.dim, self.representation.m, (1 << self.algebra.dim) - 1
        key_bits, tag_bits = (m << n).bit_length(), len(self.tag_table).bit_length()
        wanted = set(tag_ids)
        ours = sorted([
            (rank << tag_bits) + t
            for rank, t in zip(
                _ranks(n, m, key_bits, self.weighted, m),
                chain.from_iterable(self.subset_tags.values()),
            )
            if t in wanted
        ])
        # full << key_bits, added once, starts degree p at p << degree_bits.
        others = sorted([
            ((full << key_bits) + rank) << tag_bits
            for rank in _ranks(n, m, key_bits, full ^ self.weighted, 1)
        ])
        # Each of the shorter list's items adds one ascending run to the sort.
        short, long = (ours, others) if len(ours) <= len(others) else (others, ours)
        order = sorted([a + b for a in short for b in long])
        key_mask, tag_mask = (1 << key_bits) - 1, (1 << tag_bits) - 1
        keys = [v >> tag_bits & key_mask for v in order]
        tags = [v & tag_mask for v in order]
        degree_bits = n + key_bits + tag_bits
        cuts = [bisect_left(order, p << degree_bits) for p in range(n + 2)]
        return [(keys[a:b], tags[a:b]) for a, b in zip(cuts, cuts[1:])]

    def first_cochains(self) -> dict[int, int]:
        """Tag id -> key of its first cochain in (degree, index) order, in that order.

        A tag's least degree is the least |S| of an (S, k) of that tag, as
        Z only adds to it, so its first cochain is the (S, k) of least rank.
        """
        n, m = self.algebra.dim, self.representation.m
        key_bits = (m << n).bit_length()
        first: dict[int, int] = {}
        ranks = _ranks(n, m, key_bits, self.weighted, m)
        for rank, t in zip(ranks, chain.from_iterable(self.subset_tags.values())):
            if t not in first or rank < first[t]:
                first[t] = rank
        key_mask = (1 << key_bits) - 1
        return {t: rank & key_mask for t, rank in sorted(first.items(), key=itemgetter(1))}


def _ranks(n: int, m: int, key_bits: int, directions: int, ks: int) -> list[int]:
    """The ranks of the cochains (S, k), S every subset of the directions bitmask, k < ks.

    The rank of the cochain (I, k) is (|I| << n) - rev(I) above its key
    I * m + k, which takes key_bits bits; rev(I) reverses I's n bits (bit
    i to bit n - 1 - i). Ranks ascend in the global order: by degree;
    then by degree_masks' order, which for masks of one popcount is the
    descending order of rev; then by k. Each term is additive over
    disjoint subsets, so the list doubles over the directions ascending,
    in subset_sums' order, with k innermost.
    """
    out = list(range(ks))
    for i in range(n):
        if directions >> i & 1:
            step = (((1 << n) - (1 << (n - 1 - i))) << key_bits) + (m << i)
            out += [x + step for x in out]
    return out


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
    n, m = g.dim, rep.m
    weighted = [i for i, lam in enumerate(w.algebra_weights) if any(lam)]
    alg_table, alg = subset_sums([w.algebra_weights[i] for i in weighted], len(w.complement))
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
    by_alg = [tuple([rank[i] for i in per]) for per in provisional]
    masks = [0]
    for i in weighted:
        masks += [mask | 1 << i for mask in masks]
    subset_tags = {mask: by_alg[a] for mask, a in zip(masks, alg)}
    ic = InvariantComplex(
        tag_table, subset_tags, sum(1 << i for i in weighted), g, rep, w, ce_kernel(g, rep)
    )
    tag = ic.tag_id
    for p in (0, 1):
        for row, col in ic.kernel([mask * m + k for mask in degree_masks(n, p) for k in range(m)]):
            if tag(row) != tag(col):
                raise _grading_error(ic, col, row)
    return ic


def restrict_complex(ic: InvariantComplex, tag_ids: Iterable[int]) -> FiniteComplex:
    """The block of the given tag ids, its basis in the global order.

    Only those tags' cochains are enumerated and their columns formed.
    One pass over ic.kernel's entries places each; the first in kernel
    order whose row is off the block or of another tag than its column
    raises WeightGradingError, so the block is closed under d by
    construction.
    """
    dims, differentials = [], []
    for p, (keys, tags) in enumerate(ic.cochains(tag_ids)):
        place = dict(zip(keys, count()))
        if p:
            rows: list[dict] = [{} for _ in keys]
            for (r, c), v in ic.kernel(sources).items():
                col, row = sources[c], place.get(r)
                if row is None or tags[row] != source_tags[col]:
                    raise _grading_error(ic, c, r)
                rows[row][col] = v
            differentials.append(ExactMatrix(len(keys), len(source_tags), tuple(rows)))
        sources, source_tags = place, tags
        dims.append(len(keys))
    return FiniteComplex(tuple(dims), tuple(differentials))


def _grading_error(ic: InvariantComplex, col: int, row: int) -> WeightGradingError:
    """The error for d's entry at (row, col), both keys."""
    (source, source_tag), (target, target_tag) = [
        (ic.label(key), format_weight(ic.tag_table[ic.tag_id(key)])) for key in (col, row)
    ]
    return WeightGradingError(
        f"weight grading violated: d({source}) hits {target} "
        f"across tags {source_tag} -> {target_tag}; invalid weight data"
    )
