"""Tuple-sorting reference for cecomplex.ce_image.

This is the insertion formula written directly on sorted index tuples,
one term at a time, with wedge signs counted by comparison. The package
kernel works on bitmasks; tests require the two to agree exactly.
"""
from __future__ import annotations

from solvcohom.cecomplex import ModuleAction, _one_form_differentials
from solvcohom.liealg import LieAlgebraData
from solvcohom.scalars import GaussianRational


def wedge_insert_sign(element: int, others: tuple[int, ...]) -> int:
    """Sign of sorting (element, *others) with others already increasing."""
    count = sum(1 for o in others if o < element)
    return -1 if count % 2 else 1


def reference_ce_image(
    g: LieAlgebraData,
    action: ModuleAction,
    I: tuple[int, ...],
    k: int,
) -> dict[tuple[tuple[int, ...], int], GaussianRational]:
    """d(x_I (x) v_k) as a sparse combination of (J, l) basis elements."""
    dx_table = _one_form_differentials(g)
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
        for l in range(action.m):
            coeff = action.apply_entry(j, l, k)
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
