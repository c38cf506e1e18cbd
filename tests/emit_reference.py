"""The canonical writer of instance files, for tests to compare against.

parse_instance(emit_instance(inst)) == inst for every instance, and the
shipped files equal their own emission. The package only reads instance
files, so this writer lives with the tests.
"""
from __future__ import annotations

from period_reference import named_coords, reference_format

from solvcohom.cecomplex import Weight
from solvcohom.instances import InstanceFile
from solvcohom.liealg import LieAlgebraData
from solvcohom.scalars import format_gaussian


def emit_instance(inst: InstanceFile) -> dict:
    g = inst.algebra
    out: dict = {"name": inst.name, "kind": inst.kind}
    brackets = []
    for (i, j), row in sorted(g.bracket_table().items()):
        for k, c in row:
            brackets.append([g.basis[i], g.basis[j], g.basis[k], format_gaussian(c)])
    alg: dict = {
        "dim": g.dim,
        "basis": list(g.basis),
        "brackets": brackets,
        "nilradical": [g.basis[i] for i in sorted(g.nilradical)],
        "complement": [g.basis[i] for i in g.complement],
    }
    if g.conjugation is not None:
        alg["conjugation"] = {
            g.basis[i]: g.basis[g.conjugation[i]] for i in range(g.dim)
        }
    out["algebra"] = alg

    rep = inst.representation
    if rep.kind == "trivial":
        out["representation"] = {"trivial": True}
    elif rep.kind == "adjoint":
        out["representation"] = {"adjoint": True}
    else:
        mats = {}
        for j, mat in enumerate(rep.matrices):
            if not mat.is_zero():
                mats[g.basis[j]] = [
                    [format_gaussian(e) for e in row] for row in mat.rows
                ]
        block = {"dim": rep.m, "matrices": mats}
        if rep.weights is not None:
            block["weights"] = [_emit_weight(wt, g) for wt in rep.weights]
        out["representation"] = block

    if inst.weights.infer:
        out["weights"] = {"infer": True}
    else:
        walg = {}
        for i in range(g.dim):
            wt = inst.weights.algebra[i]
            if any(c for c in wt):
                walg[g.basis[i]] = _emit_weight(wt, g)
        block = {"algebra": walg}
        if inst.weights.representation is not None:
            block["representation"] = [
                _emit_weight(wt, g) for wt in inst.weights.representation
            ]
        out["weights"] = block

    lat = inst.lattice
    symbols = [
        {"name": base, "parity": "real"} for base in lat.table.user_base_names
    ]
    generators = []
    for gen in lat.generators:
        entry = {}
        for pos, j in enumerate(g.complement):
            if gen[pos].coords:
                entry[g.basis[j]] = reference_format(named_coords(gen[pos]), lat.table)
        generators.append(entry)
    out["lattice"] = {"symbols": symbols, "generators": generators}
    return out


def _emit_weight(wt: Weight, g: LieAlgebraData) -> dict:
    return {
        g.basis[j]: format_gaussian(c)
        for j, c in zip(g.complement, wt)
        if c
    }
