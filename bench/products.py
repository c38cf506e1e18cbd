"""Seeded Künneth products of shipped instances.

A product g_1 (+) ... (+) g_k of factor instances is written as a new
instance file. Each factor gets fresh basis and symbol names and a
seed-chosen permutation of its basis, so two seeds give different files
(and a different pivot order) for the same mathematical object. The
lattice is the product lattice: every generator lives in one factor, so a
weight tag mu_1 + ... + mu_k is kept exactly when every mu_f is kept on
its own factor. The selected complex is then the tensor product of the
factors' selected complexes, and its Betti numbers are the convolution of
the factors' Betti numbers. That is the reference every product answer is
checked against.

Coefficients are the tensor product E_1 (x) ... (x) E_k of the factors'
modules (trivial or adjoint), written out as explicit matrices unless
every factor is trivial.
"""
from __future__ import annotations

import json
import math
import random
import re
from pathlib import Path

from solvcohom.scalars import ZERO, format_gaussian, parse_gaussian

_IDENT = re.compile(r"[A-Za-z_][A-Za-z_0-9]*")


def load_factor(instances_dir: Path, spec: str) -> dict:
    """A shipped instance as raw JSON.

    `spec` is an instance name, or "name:trivial" to replace its module by
    trivial coefficients.
    """
    name, _, coefficients = spec.partition(":")
    data = json.loads((Path(instances_dir) / f"{name}.json").read_text())
    if coefficients == "trivial":
        data["representation"] = {"trivial": True}
    elif coefficients:
        raise ValueError(f"unknown coefficients {coefficients!r}")
    if data.get("weights", {"infer": True}) != {"infer": True}:
        raise ValueError(f"factor {name!r} must use inferred weights")
    return data


def _adjoint(brackets: list, basis: list[str]) -> dict[str, dict]:
    """{X: {(row, col): scalar}} of ad(X) in the given basis order."""
    pos = {b: i for i, b in enumerate(basis)}
    mats: dict[str, dict] = {b: {} for b in basis}
    for x, y, z, c in brackets:
        c = parse_gaussian(str(c))
        # ad(x) e_y contains c e_z and ad(y) e_x contains -c e_z.
        for src, arg, coeff in ((x, y, c), (y, x, -c)):
            key = (pos[z], pos[arg])
            mats[src][key] = mats[src].get(key, ZERO) + coeff
    return mats


def _renamed_factor(data: dict, f: int, rng: random.Random) -> dict:
    """Factor f with permuted, renamed basis and renamed lattice symbols."""
    alg = data["algebra"]
    old_basis = list(alg["basis"])
    order = list(range(len(old_basis)))
    rng.shuffle(order)
    new_name = {old_basis[old]: f"x{f}_{new}" for new, old in enumerate(order)}
    basis = [new_name[old_basis[old]] for old in order]
    position = {b: i for i, b in enumerate(basis)}

    def by_position(names):
        return sorted((new_name[b] for b in names), key=position.__getitem__)

    lat = data["lattice"]
    sym_name = {s["name"]: f"{s['name']}_{f}" for s in lat.get("symbols", ())}

    def period(text: str) -> str:
        return _IDENT.sub(lambda t: sym_name.get(t.group(0), t.group(0)), text)

    renamed = {
        "basis": basis,
        "brackets": [
            [new_name[x], new_name[y], new_name[z], c]
            for x, y, z, c in alg.get("brackets", ())
        ],
        "nilradical": by_position(alg["nilradical"]),
        "complement": by_position(alg["complement"]),
        "conjugation": None
        if "conjugation" not in alg
        else {new_name[a]: new_name[b] for a, b in alg["conjugation"].items()},
        "symbols": [
            {"name": sym_name[s["name"]], "parity": s["parity"]}
            for s in lat.get("symbols", ())
        ],
        "generators": [
            {new_name[k]: period(str(v)) for k, v in gen.items()}
            for gen in lat.get("generators", ())
        ],
    }
    rep = data.get("representation", {"trivial": True})
    if rep == {"adjoint": True}:
        # The adjoint module follows the permuted basis.
        renamed["module"] = (len(basis), _adjoint(renamed["brackets"], basis))
    elif rep == {"trivial": True}:
        renamed["module"] = (1, {})
    else:
        raise ValueError("factor modules must be trivial or adjoint")
    return renamed


def _tensor_matrices(factors: list[dict]) -> tuple[int, dict[str, list[list[str]]]]:
    """E_1 (x) ... (x) E_k: X in factor f acts as I (x) R_f(X) (x) I."""
    dims = [fac["module"][0] for fac in factors]
    m = math.prod(dims)
    out: dict[str, list[list[str]]] = {}
    for f, fac in enumerate(factors):
        left = math.prod(dims[:f])
        right = m // (left * dims[f])
        for b, entries in fac["module"][1].items():
            if not entries:
                continue
            rows = [["0"] * m for _ in range(m)]
            for (r, c), v in entries.items():
                for a in range(left):
                    for z in range(right):
                        rr = (a * dims[f] + r) * right + z
                        cc = (a * dims[f] + c) * right + z
                        rows[rr][cc] = format_gaussian(v)
            out[b] = rows
    return m, out


def product_instance(factors: list[dict], seed: int, name: str) -> dict:
    """The Künneth product of raw factor instances, as instance JSON."""
    kinds = {fac["kind"] for fac in factors}
    if len(kinds) != 1:
        raise ValueError(f"factors mix kinds {sorted(kinds)}")
    rng = random.Random(f"{seed}:{name}")
    parts = [_renamed_factor(fac, f, rng) for f, fac in enumerate(factors)]
    has_conj = [p["conjugation"] is not None for p in parts]
    if any(has_conj) and not all(has_conj):
        raise ValueError("either every factor or none declares a conjugation")

    algebra: dict = {
        "dim": sum(len(p["basis"]) for p in parts),
        "basis": [b for p in parts for b in p["basis"]],
        "brackets": [br for p in parts for br in p["brackets"]],
        "nilradical": [b for p in parts for b in p["nilradical"]],
        "complement": [b for p in parts for b in p["complement"]],
    }
    if all(has_conj):
        algebra["conjugation"] = {
            a: b for p in parts for a, b in p["conjugation"].items()
        }
    m, matrices = _tensor_matrices(parts)
    representation = (
        {"trivial": True} if m == 1 else {"dim": m, "matrices": matrices}
    )
    return {
        "name": name,
        "kind": kinds.pop(),
        "algebra": algebra,
        "representation": representation,
        "weights": {"infer": True},
        "lattice": {
            "symbols": [s for p in parts for s in p["symbols"]],
            "generators": [g for p in parts for g in p["generators"]],
        },
    }


def dumps(instance: dict) -> str:
    """Byte-deterministic instance text."""
    return json.dumps(instance, indent=2, sort_keys=True) + "\n"


def convolve(*bettis) -> list[int]:
    """Betti numbers of a tensor product of complexes (Künneth)."""
    out = [1]
    for b in bettis:
        acc = [0] * (len(out) + len(b) - 1)
        for i, x in enumerate(out):
            for j, y in enumerate(b):
                acc[i + j] += x * y
        out = acc
    return out
