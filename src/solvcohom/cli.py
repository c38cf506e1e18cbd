"""Command line front end.

    solvcohom validate   <instance.json> [--json OUT]
    solvcohom derham     <instance.json> [--json OUT] [--representatives]
    solvcohom dolbeault  <instance.json> [--json OUT] [--representatives]
    solvcohom conditions <instance.json> [--json OUT]
    solvcohom oracle     <instance.json> [--json OUT]
    solvcohom nilshadow  <instance.json> [--json OUT]

Each command builds its --json payload once, as its one report, and
prints stdout by reading only that payload. On an instance that fails
validate_instance, every command prints and writes validate's report
under its own command name, with exit code 1.

Exit codes: 0 success, 1 validation or consistency failure, 2 unreadable
input (bad JSON, bad scalar grammar, schema violations) or a --json OUT
that cannot be written ("error: cannot write OUT: ..."), 3 oracle
mismatch. JSON written with --json is byte-deterministic (sorted keys,
two-space indent, trailing newline).
"""
from __future__ import annotations

import argparse
import json
import sys
from dataclasses import asdict
from functools import lru_cache
from itertools import groupby
from math import comb
from pathlib import Path

from .cecomplex import cohomology, nilshadow
from .errors import (
    InstanceParseError,
    ModeMismatchError,
    OutputError,
    ScalarParseError,
    SolvcohomError,
    WeightGradingError,
    WeightInferenceError,
)
from .instances import (
    InstanceFile,
    build_representation,
    build_weight_assignment,
    load_instance,
    validate_instance,
)
from .lattice import (
    check_conditions,
    dolbeault_hodge_table,
    select_de_rham,
    select_dolbeault,
)
from .liealg import ValidationIssue, lower_central_series_dims
from .oracle import verify_quasi_iso
from .scalars import format_gaussian
from .weights import build_invariant_complex, format_weight


def _finish(args, payload: dict, code: int = 0) -> int:
    """Write the command's report to --json OUT, if given, and pass on its exit code."""
    if args.json:
        try:
            Path(args.json).write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
        except OSError as exc:
            raise OutputError(f"cannot write {args.json}: {exc}") from exc
    return code


def _pipeline(inst: InstanceFile):
    rep = build_representation(inst)
    w = build_weight_assignment(inst, rep)
    ic = build_invariant_complex(inst.algebra, rep, w)
    return rep, w, ic


def _issue_report(args, inst: InstanceFile, found) -> int:
    """validate's report on the issues found, under this command's name; exit 1 if any."""
    issues = [asdict(issue) for issue in found]
    payload = {"command": args.command, "instance": inst.name, "ok": not issues, "issues": issues}
    if issues:
        print(f"instance {inst.name!r}: {len(issues)} issue(s)")
    else:
        print(f"instance {inst.name!r}: valid")
    for issue in issues:
        print(f"  [{issue['code']}] {issue['message']}")
    return _finish(args, payload, 1 if issues else 0)


def _flag_text(value) -> str:
    if value is None:
        return "unknown"
    return "true" if value else "false"


def _term_text(label: str, c: str) -> str:
    if c == "1":
        return label
    return "-" + label if c == "-1" else f"({c})*{label}"


def _tag_summary(sel) -> list[dict]:
    rows = [
        {
            "tag": format_weight(v.tag),
            "trivial_on_g": v.trivial_on_g,
            "trivial_on_lattice": v.trivial_on_lattice,
            "ratio_trivial": v.ratio_trivial,
            "unitary": v.unitary,
        }
        for v in sel.verdicts
    ]
    return sorted(rows, key=lambda row: row["tag"])


# ---------------------------------------------------------------------------
# Subcommands.


def cmd_validate(args) -> int:
    inst = load_instance(args.instance)
    found = list(validate_instance(inst))
    if not found:
        # Weight data passes only if the build certifies its grading.
        try:
            _pipeline(inst)
        except WeightInferenceError as exc:
            found.append(ValidationIssue("weight-inference", str(exc)))
        except WeightGradingError as exc:
            found.append(ValidationIssue("weight-grading", str(exc)))
    return _issue_report(args, inst, found)


def cmd_cohomology(args) -> int:
    kind = args.command
    inst = load_instance(args.instance)
    if inst.kind != kind:
        raise ModeMismatchError(
            f"instance kind is {inst.kind!r}; this command needs {kind!r}"
        )
    if issues := validate_instance(inst):
        return _issue_report(args, inst, issues)
    rep, w, ic = _pipeline(inst)
    sel = select_de_rham(ic, inst.lattice) if kind == "derham" else select_dolbeault(
        ic, inst.lattice
    )
    result = cohomology(sel.complex, representatives=args.representatives)
    n = inst.algebra.dim
    payload: dict = {
        "command": kind,
        "instance": inst.name,
        "invariant_dimensions": [comb(n, p) * rep.m for p in range(n + 1)],
        "kept_dimensions": list(sel.complex.dims),
        "betti": list(result.betti),
        "euler_characteristic": result.euler_characteristic(),
        "tags": _tag_summary(sel),
    }
    if kind == "dolbeault":
        hodge = dolbeault_hodge_table(inst.algebra.dim, result.betti)
        payload["hodge_numbers"] = [list(row) for row in hodge]
    if args.representatives:
        payload["representatives"] = []
        for (keys, _), classes in zip(ic.cochains(sel.kept), result.representatives):
            labels = ic.labels(keys)
            payload["representatives"].append(
                [[(labels[i], format_gaussian(vec[i])) for i in sorted(vec)] for vec in classes]
            )

    title = "twisted de Rham" if kind == "derham" else "Dolbeault"
    print(f"{title} cohomology of {inst.name!r}")
    print("  degree  invariant dim  kept dim  betti")
    columns = zip(payload["invariant_dimensions"], payload["kept_dimensions"], payload["betti"])
    for p, (invariant, kept_dim, b) in enumerate(columns):
        print(f"  {p:<6}  {invariant:<13}  {kept_dim:<8}  {b}")
    print(f"Euler characteristic: {payload['euler_characteristic']}")
    if kind == "dolbeault":
        print("Hodge numbers h^(p,q) (rows p, columns q):")
        for row in payload["hodge_numbers"]:
            print("  " + "  ".join(f"{h:<3}" for h in row))
    for p, classes in enumerate(payload.get("representatives", ())):
        if classes:
            print(f"H^{p} representatives:")
        for terms in classes:
            print("  " + " + ".join(_term_text(label, c) for label, c in terms))
    return _finish(args, payload)


def cmd_conditions(args) -> int:
    inst = load_instance(args.instance)
    if issues := validate_instance(inst):
        return _issue_report(args, inst, issues)
    rep, w, ic = _pipeline(inst)
    report = check_conditions(ic, inst.lattice)
    payload = {"command": "conditions", "instance": inst.name, **asdict(report)}
    print(f"selection conditions for {inst.name!r}")
    print(f"  diamond1 (trivial iff trivial on lattice): {_flag_text(payload['diamond1'])}")
    print(f"  diamond2 (nonzero tags non-unitary):       {_flag_text(payload['diamond2'])}")
    print(f"  star     (trivial iff ratio-trivial):      {_flag_text(payload['star'])}")
    print(f"  box      (basis weights ratio-trivial):    {_flag_text(payload['box'])}")
    for wtn in payload["witnesses"]:
        where = "algebra basis" if wtn["degree"] < 0 else f"degree {wtn['degree']}"
        print(f"  witness [{wtn['condition']}] {where}: {wtn['label']} with tag {wtn['tag']}")
    return _finish(args, payload)


def cmd_oracle(args) -> int:
    inst = load_instance(args.instance)
    if issues := validate_instance(inst):
        return _issue_report(args, inst, issues)
    rep, w, ic = _pipeline(inst)
    report = verify_quasi_iso(ic)
    sectors = [
        {
            "tag": format_weight(s.tag),
            "block": list(s.block_betti),
            "full": list(s.full_betti),
            "equal": s.equal,
        }
        for s in report.sectors
    ]
    payload = {"command": "oracle", "instance": inst.name, "ok": report.ok, "sectors": sectors}
    print(f"sector-by-sector oracle for {inst.name!r}")
    for s in sectors:
        verdict = "ok" if s["equal"] else "MISMATCH"
        print(f"  tag {s['tag']}: block {s['block']} vs full {s['full']} [{verdict}]")
    print("result: " + ("agree" if payload["ok"] else "MISMATCH"))
    return _finish(args, payload, 0 if payload["ok"] else 3)


def cmd_nilshadow(args) -> int:
    inst = load_instance(args.instance)
    if issues := validate_instance(inst):
        return _issue_report(args, inst, issues)
    rep, w, _ = _pipeline(inst)
    shadow = nilshadow(inst.algebra, w.algebra_weights)
    series = lower_central_series_dims(shadow, frozenset(range(shadow.dim)))
    names = shadow.basis
    payload = {
        "command": "nilshadow",
        "instance": inst.name,
        "basis": list(names),
        "brackets": [
            [names[i], names[j], names[k], format_gaussian(c)]
            for (i, j), row in shadow.bracket_table().items()
            for k, c in row
        ],
        "lower_central_series": list(series),
    }
    print(f"nilshadow of {inst.name!r}")
    if not payload["brackets"]:
        print("  bracket: abelian")
    for (x, y), terms in groupby(payload["brackets"], key=lambda b: b[:2]):
        print(f"  [{x}, {y}] = " + " + ".join(f"({c})*{z}" for _, _, z, c in terms))
    print(f"  lower central series dims: {payload['lower_central_series']}")
    return _finish(args, payload)


@lru_cache(maxsize=None)
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="solvcohom",
        description="Exact solvmanifold cohomology from finite invariant complexes.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    specs = [
        ("validate", cmd_validate, False),
        ("derham", cmd_cohomology, True),
        ("dolbeault", cmd_cohomology, True),
        ("conditions", cmd_conditions, False),
        ("oracle", cmd_oracle, False),
        ("nilshadow", cmd_nilshadow, False),
    ]
    for name, handler, has_reps in specs:
        p = sub.add_parser(name)
        p.add_argument("instance", help="path to an instance JSON file")
        p.add_argument("--json", metavar="OUT", help="write a JSON report here")
        if has_reps:
            p.add_argument(
                "--representatives",
                action="store_true",
                help="also compute representative cocycles",
            )
        p.set_defaults(handler=handler)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.handler(args)
    except (InstanceParseError, OutputError, ScalarParseError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except SolvcohomError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
