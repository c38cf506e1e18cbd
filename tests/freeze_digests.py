"""Digests of CLI output on instances larger than the shipped ones.

    PYTHONPATH=src python3 tests/freeze_digests.py
    PYTHONPATH=src python3 -O tests/freeze_digests.py --print ID [ID ...]

Each answer is one CLI command on one instance: derham or dolbeault, with
and without --representatives, on the pipeline products of bench/run.py;
oracle on six n=9-15 products; and derham, derham --representatives and
oracle on heisenberg3 in the skewed basis x, y, y + z, the one algebra
here whose nilradical operators have a nonzero diagonal: with adjoint
coefficients, and on two products of it (its cube with trivial
coefficients, n=9, and its square with adjoint coefficients, n=6, m=9);
and validate on two products made invalid by one change each (INVALID).
Products are bench/products.py's at seed 1. Each answer's digest is the
exit code and the sha256 of its stdout and of its --json report.

With no arguments the script rewrites tests/digests.json, which
tests/test_digests.py checks. Output is meant to stay byte-identical, so
rewrite it only for a change that alters output on purpose, and say which
digests changed and why. With --print it writes the named answers'
digests to stdout as JSON, which the test reads from a `python -O` run.
"""
from __future__ import annotations

import contextlib
import hashlib
import io
import json
import sys
import tempfile
from pathlib import Path

from conftest import INSTANCE_DIR, SKEWED_HEISENBERG, load_bench

from solvcohom import cli

DIGESTS = Path(__file__).resolve().parent / "digests.json"
SEED = 1
ORACLE_PRODUCTS = [
    ("example-7-1-generic:trivial", "heisenberg3:trivial"),
    ("example-7-1-generic:trivial", "heisenberg3:trivial", "heisenberg3:trivial"),
    ("example-7-1-generic:trivial",) + ("heisenberg3:trivial",) * 3,
    ("example-7-1-pi", "heisenberg3:trivial"),
    ("example-7-2-generic:trivial",) * 4,
    ("heisenberg3:trivial",) * 4,
]
SKEWED_ADJOINT = {
    **SKEWED_HEISENBERG,
    "name": "heisenberg3-skewed-adjoint",
    "representation": {"adjoint": True},
}
SKEWED_PRODUCTS = [(SKEWED_HEISENBERG,) * 3, (SKEWED_ADJOINT,) * 2]
SKEWED_ARGS = (["derham"], ["derham", "--representatives"], ["oracle"])
# Product, name suffix, and the one change that makes it invalid: the
# nilradical bracket [x0_1, x0_4] = x1_0, on which Jacobi fails on three
# triples, and R(x1_1)[0, 3] = 1, on which the homomorphism law fails on
# four pairs, one of them (x1_0, x1_2), whose two matrices are zero.
INVALID = [
    (("example-7-1-generic:trivial",) * 2, "-jacobi",
     lambda doc: doc["algebra"]["brackets"].append(["x0_1", "x0_4", "x1_0", "1"])),
    (("example-7-1-generic", "heisenberg3"), "-homomorphism",
     lambda doc: doc["representation"]["matrices"].update(
         x1_1=[["1" if (r, c) == (0, 3) else "0" for c in range(6)] for r in range(6)])),
]


def answers() -> dict[str, tuple[dict, list[str]]]:
    """Answer id -> (instance document, CLI arguments but the path and --json)."""
    products, run = load_bench("products"), load_bench("run")

    def product(factors) -> dict:
        raw = [products.load_factor(INSTANCE_DIR, f) for f in factors]
        return products.product_instance(raw, SEED, run.product_name(factors))

    runs = []
    for factors in [f for fs in run.PRODUCTS.values() for f in fs]:
        doc = product(factors)
        runs += [(doc, [doc["kind"]]), (doc, [doc["kind"], "--representatives"])]
    runs += [(product(factors), ["oracle"]) for factors in ORACLE_PRODUCTS]
    skewed = [SKEWED_ADJOINT] + [
        products.product_instance(list(factors), SEED, f"{factors[0]['name']}^{len(factors)}")
        for factors in SKEWED_PRODUCTS
    ]
    runs += [(doc, args) for doc in skewed for args in SKEWED_ARGS]
    for factors, suffix, change in INVALID:
        doc = product(factors)
        doc["name"] += suffix
        change(doc)
        runs.append((doc, ["validate"]))
    return {" ".join(args + [doc["name"]]): (doc, args) for doc, args in runs}


def digest(path: Path, args: list[str], report: Path) -> dict:
    """Exit code and sha256 of stdout and of the --json report of one command."""
    report.unlink(missing_ok=True)
    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout):
        code = cli.main([args[0], str(path), *args[1:], "--json", str(report)])
    return {
        "exit": code,
        "stdout": hashlib.sha256(stdout.getvalue().encode()).hexdigest(),
        "json": hashlib.sha256(report.read_bytes()).hexdigest(),
    }


def digests(ids=None) -> dict[str, dict]:
    """The digests of the given answer ids (all of them by default)."""
    todo = answers()
    with tempfile.TemporaryDirectory() as tmp:
        path, report = Path(tmp) / "instance.json", Path(tmp) / "report.json"
        out = {}
        for answer in todo if ids is None else ids:
            doc, args = todo[answer]
            path.write_text(json.dumps(doc))
            out[answer] = digest(path, args, report)
    return out


def main(argv: list[str]) -> int:
    if argv[:1] == ["--print"]:
        print(json.dumps(digests(argv[1:]), indent=2, sort_keys=True))
    else:
        DIGESTS.write_text(json.dumps(digests(), indent=2, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
