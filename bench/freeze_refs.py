"""Freeze reference Betti numbers for trivial-coefficient factor variants.

    python3 bench/freeze_refs.py

Shipped instances have frozen reports in instances/expected/, but a
product factor such as "example-7-1-generic:trivial" replaces the shipped
module by trivial coefficients and has none. For each such factor used by
a workload, this script runs the CLI on the variant (n <= 6), requires
the sector-by-sector oracle to agree on every weight tag, and writes the
Betti numbers to bench/refs.json. Run it again only when a workload gains
a new variant.
"""
from __future__ import annotations

import contextlib
import json
import os
import shutil
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
sys.path[:0] = [str(BENCH.parent / "src"), str(BENCH)]

from products import dumps, load_factor  # noqa: E402
from run import INSTANCES, PRODUCTS, WORK  # noqa: E402
from solvcohom import cli  # noqa: E402


def certify(spec: str, workdir: Path) -> dict:
    data = load_factor(INSTANCES, spec)
    data["name"] = spec
    path = workdir / "variant.json"
    path.write_text(dumps(data))
    out = {}
    with open(os.devnull, "w") as sink, contextlib.redirect_stdout(sink):
        for command in (data["kind"], "oracle"):
            code = cli.main([command, str(path), "--json", str(workdir / command)])
            if code != 0:
                raise SystemExit(f"{command} on {spec} exited {code}")
            out[command] = json.loads((workdir / command).read_text())
    if not out["oracle"]["ok"]:
        raise SystemExit(f"oracle disagrees on {spec}")
    return {
        "betti": out[data["kind"]]["betti"],
        "certified_by": f"oracle agreement on {len(out['oracle']['sectors'])} sectors",
    }


def main() -> int:
    specs = sorted({
        f for products in PRODUCTS.values() for factors in products for f in factors
        if ":" in f
    })
    workdir = WORK / "freeze"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        refs = {spec: certify(spec, workdir) for spec in specs}
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    (BENCH / "refs.json").write_text(json.dumps(refs, indent=2, sort_keys=True) + "\n")
    for spec, ref in refs.items():
        print(f"{spec}: betti {ref['betti']} ({ref['certified_by']})")
    return 0


if __name__ == "__main__":
    sys.exit(main())
