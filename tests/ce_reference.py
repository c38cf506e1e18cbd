"""References for the differential kernel cecomplex.ce_kernel.

reference_ce_kernel is a bitmask kernel for any twists: it forms every
term of every column, diagonal ones included, each column in the module
twisted by its own covector, and lets the sums cancel. The package
kernel twists each column by its own weight tag, which it never forms:
with the weights the diagonals of ad and R the twist cancels on the
complement. It forms only the off-diagonal terms and reads each
column's nilradical diagonal coefficients from tables, and tests
require it to give the reference's entries under the tags, in the same
order at degrees 0 and 1, where the package kernel promises it.
reference_ce_image is the insertion formula written directly on sorted
index tuples, one column and one term at a time, with wedge signs
counted by comparison and rho read entry by entry through apply_entry.
ce_differential is reference_ce_kernel's whole degree in one twisted
module, as a matrix, for tests that take plain twisted complexes. Every
function takes the representation and a twist covector over the
complement (None for no twist), as the oracle's twist_at does. Subsets
are enumerated in the tests' own order (subset_reference), so agreement
with the package also checks its degree_masks order.
"""
from __future__ import annotations

from typing import Callable, Optional, Sequence

from subset_reference import degree_basis, subset_mask, subset_position

from solvcohom.cecomplex import _one_form_differentials, module_basis_names
from solvcohom.errors import WeightGradingError
from solvcohom.liealg import LieAlgebraData, RepresentationData
from solvcohom.linalg import ExactMatrix
from solvcohom.oracle import twist_at
from solvcohom.scalars import ZERO, GaussianRational
from solvcohom.weights import WeightAssignment, format_weight


def reference_tag(w: WeightAssignment, I: Sequence[int], k: int) -> tuple:
    """The tag of x_I (x) v_k: the algebra weights of I summed, minus rep weight k."""
    acc = [ZERO] * len(w.complement)
    for i in I:
        for pos, c in enumerate(w.algebra_weights[i]):
            acc[pos] = acc[pos] + c
    for pos, c in enumerate(w.rep_weights[k]):
        acc[pos] = acc[pos] - c
    return tuple(acc)


def reference_ce_kernel(
    g: LieAlgebraData, rep: RepresentationData, twists: Sequence[Optional[tuple]]
) -> Callable[[dict[int, int], int], dict[tuple[int, int], GaussianRational]]:
    """d with coefficients in rep twisted by each of the given covectors.

    kernel(column_twist, p) gives the nonzero entries {(row, col): coeff}
    of d from degree p to p+1 on the columns in column_twist only, column
    (I, k) taken in rep twisted by twists[column_twist[col]]. Entries come
    column by column in the map's order, each in term order at every
    degree: action terms (j, then l), then bracket terms (t, a, b).
    """
    n, m = g.dim, rep.m
    twisted = [twist_at(g, twist) for twist in twists]
    # Per t: (bits of a and b, bits below a, bits below b, coeff, -coeff).
    # Inserting b then a into rest passes the members of rest below each;
    # b never counts against a because a < b.
    dx = [
        [(1 << a | 1 << b, (1 << a) - 1, (1 << b) - 1, c, -c) for a, b, c in terms]
        for terms in _one_form_differentials(g).values()
    ]
    # R_j e_k off the diagonal and R_j[k, k], read from the sparse rows.
    off = [[[] for _ in range(m)] for _ in range(n)]
    diag: list[list[Optional[GaussianRational]]] = [[None] * m for _ in range(n)]
    for j, R in enumerate(rep.matrices):
        for l, row in enumerate(R.row_maps):
            for k, v in row.items():
                if k == l:
                    diag[j][k] = v
                else:
                    off[j][k].append((l, v))
    tables: dict[tuple[int, int], list] = {}

    def action_table(tid: int, k: int) -> list:
        # (bit j, bits below j, terms, negated terms) for each j with
        # rho_mu(X_j) e_k != 0; only the diagonal depends on mu.
        table = tables[(tid, k)] = []
        for j, mu in enumerate(twisted[tid]):
            d = diag[j][k]
            if mu:
                d = mu if d is None else (d + mu) or None
            column = off[j][k] if d is None else sorted(off[j][k] + [(k, d)])
            if column:
                table.append((1 << j, (1 << j) - 1, column, [(l, -v) for l, v in column]))
        return table

    def kernel(column_twist: dict[int, int], p: int) -> dict[tuple[int, int], GaussianRational]:
        subsets = degree_basis(n, p)
        target = {subset_mask(J): pos for J, pos in subset_position(n, p + 1).items()}
        entries: dict[tuple[int, int], GaussianRational] = {}
        last = None
        for col, tid in column_twist.items():
            ipos, k = divmod(col, m)
            mask = subset_mask(subsets[ipos])
            if ipos != last:
                # d(x_I) = sum_t (-1)^{pos(t, I)} dx_t ^ x_{I - t}, for every k.
                last = ipos
                brackets = []
                for pos_t, t in enumerate(subsets[ipos]):
                    rest = mask ^ 1 << t
                    for ab, below_a, below_b, c, neg in dx[t]:
                        if not rest & ab:
                            odd = pos_t + (rest & below_b).bit_count() + (rest & below_a).bit_count()
                            brackets.append(((rest | ab) * m, neg if odd & 1 else c))
            table = tables.get((tid, k))
            if table is None:
                table = action_table(tid, k)
            # Action terms: insert x_j (sign: members below j), apply
            # rho(X_j). Their keys are distinct, so none cancels yet.
            acc: dict[int, GaussianRational] = {}
            for bit, below, terms, negated in table:
                if not mask & bit:
                    base = (mask | bit) * m
                    for l, v in negated if (mask & below).bit_count() & 1 else terms:
                        acc[base + l] = v
            # Bracket terms, keyed mask * m + k; a sum that cancels is deleted.
            for base, v in brackets:
                prev = acc.get(base + k)
                if prev is None:
                    acc[base + k] = v
                elif total := prev + v:
                    acc[base + k] = total
                else:
                    del acc[base + k]
            for key, v in acc.items():
                J, l = divmod(key, m)
                entries[(target[J] * m + l, col)] = v
        return entries

    return kernel


def apply_entry(
    rep: RepresentationData, mu_at: Sequence[GaussianRational], j: int, l: int, k: int
) -> GaussianRational:
    """Entry (l, k) of rho_mu(X_j), with mu_at = twist_at(g, mu)."""
    value = rep.matrices[j].row_maps[l].get(k, ZERO)
    if l == k and mu_at[j]:
        value = value + mu_at[j]
    return value


def ce_differential(
    g: LieAlgebraData, rep: RepresentationData, twist: Optional[tuple], p: int
) -> ExactMatrix:
    """Matrix of d from degree p to degree p+1 in one twisted module, lex order."""
    ncols = len(degree_basis(g.dim, p)) * rep.m
    entries = reference_ce_kernel(g, rep, [twist])(dict.fromkeys(range(ncols), 0), p)
    return ExactMatrix.from_entries(len(degree_basis(g.dim, p + 1)) * rep.m, ncols, entries)


def monomial_label(
    g: LieAlgebraData, I: tuple[int, ...], k: int, module_names: Sequence[str]
) -> str:
    """The name of x_I (x) v_k, as the invariant complex labels it."""
    form = "^".join(g.basis[i] + "*" for i in I) if I else "1"
    return f"{form} (x) {module_names[k]}"


def wedge_insert_sign(element: int, others: tuple[int, ...]) -> int:
    """Sign of sorting (element, *others) with others already increasing."""
    count = sum(1 for o in others if o < element)
    return -1 if count % 2 else 1


def reference_ce_image(
    g: LieAlgebraData,
    rep: RepresentationData,
    twist: Optional[tuple],
    I: tuple[int, ...],
    k: int,
) -> dict[tuple[tuple[int, ...], int], GaussianRational]:
    """d(x_I (x) v_k) as a sparse combination of (J, l) basis elements."""
    dx_table = _one_form_differentials(g)
    mu_at = twist_at(g, twist)
    out: dict[tuple[tuple[int, ...], int], GaussianRational] = {}

    def put(J: tuple[int, ...], l: int, coeff: GaussianRational):
        key = (J, l)
        acc = out.get(key, GaussianRational(0)) + coeff
        if acc:
            out[key] = acc
        else:
            out.pop(key, None)

    members = set(I)
    # Action term: insert x_j, apply rho(X_j) to the module slot.
    for j in range(g.dim):
        if j in members:
            continue
        J = tuple(sorted(I + (j,)))
        sign = wedge_insert_sign(j, I)
        for l in range(rep.m):
            coeff = apply_entry(rep, mu_at, j, l, k)
            if coeff:
                put(J, l, coeff if sign > 0 else -coeff)

    # Bracket term: d(x_I) = sum_t (-1)^{pos(t, I)} dx_t ^ x_{I - t}.
    for pos_t, t in enumerate(I):
        rest = I[:pos_t] + I[pos_t + 1 :]
        rest_set = set(rest)
        outer_sign = -1 if pos_t % 2 else 1
        for a, b, coeff in dx_table[t]:
            if a in rest_set or b in rest_set:
                continue
            sign = wedge_insert_sign(b, rest) * wedge_insert_sign(a, tuple(sorted(rest + (b,))))
            J = tuple(sorted(rest + (a, b)))
            put(J, k, coeff if outer_sign * sign > 0 else -coeff)
    return out


def kernel_columns(
    g: LieAlgebraData, rep: RepresentationData, twist: Optional[tuple], p: int
) -> list[dict[tuple[tuple[int, ...], int], GaussianRational]]:
    """The columns of ce_differential at degree p, as reference_ce_image gives them."""
    m = rep.m
    d = ce_differential(g, rep, twist, p)
    rows = degree_basis(g.dim, p + 1)
    columns: list[dict] = [{} for _ in range(d.ncols)]
    for r, row in enumerate(d.row_maps):
        for col, c in row.items():
            columns[col][(rows[r // m], r % m)] = c
    return columns


def kernel_column(
    g: LieAlgebraData, rep: RepresentationData, twist: Optional[tuple], I: tuple[int, ...], k: int
) -> dict[tuple[tuple[int, ...], int], GaussianRational]:
    """Column (I, k) of ce_differential."""
    return kernel_columns(g, rep, twist, len(I))[subset_position(g.dim, len(I))[I] * rep.m + k]


def reference_invariant_differentials(
    g: LieAlgebraData, rep: RepresentationData, w: WeightAssignment
) -> list[ExactMatrix]:
    """The invariant complex's differentials, column by column.

    Column (I, k) is reference_ce_image in the module twisted by its own
    tag, summed directly by reference_tag.
    """
    n, m = g.dim, rep.m
    out = []
    for p in range(n):
        sources = degree_basis(n, p)
        rows = subset_position(n, p + 1)
        entries = {}
        for ipos, I in enumerate(sources):
            for k in range(m):
                tag = reference_tag(w, I, k)
                for (J, l), c in reference_ce_image(g, rep, tag, I, k).items():
                    entries[(rows[J] * m + l, ipos * m + k)] = c
        out.append(ExactMatrix.from_entries(len(rows) * m, len(sources) * m, entries))
    return out


def reference_grading_check(
    g: LieAlgebraData, rep: RepresentationData, w: WeightAssignment
) -> None:
    """The weight-grading check on every degree, not only degrees 0 and 1.

    Columns are taken in (degree, column) order and the terms of each in
    reference_ce_image's order, which is term order. At degrees 0 and 1
    that is the kernel's order, and a violation anywhere shows there, so
    the first coefficient reaching a basis element with a different tag
    raises the package's WeightGradingError message, word for word.
    """
    n, m = g.dim, rep.m
    names = module_basis_names(g, rep)
    for p in range(n):
        for I in degree_basis(n, p):
            for k in range(m):
                tag = reference_tag(w, I, k)
                for (J, l) in reference_ce_image(g, rep, tag, I, k):
                    if reference_tag(w, J, l) != tag:
                        raise WeightGradingError(
                            "weight grading violated: d("
                            f"{monomial_label(g, I, k, names)}) hits "
                            f"{monomial_label(g, J, l, names)} across tags "
                            f"{format_weight(tag)} -> {format_weight(reference_tag(w, J, l))}; "
                            "invalid weight data"
                        )
