"""Command line front end.

    solvcohom validate   <instance.json> [--json OUT]
    solvcohom derham     <instance.json> [--json OUT] [--representatives]
    solvcohom dolbeault  <instance.json> [--json OUT] [--representatives]
    solvcohom conditions <instance.json> [--json OUT]
    solvcohom oracle     <instance.json> [--json OUT]
    solvcohom nilshadow  <instance.json> [--json OUT]

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
from functools import lru_cache
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
from .scalars import ONE, MINUS_ONE, format_gaussian
from .weights import build_invariant_complex, format_weight


def _write_json(path: str, payload: dict):
    try:
        Path(path).write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    except OSError as exc:
        raise OutputError(f"cannot write {path}: {exc}") from exc


def _pipeline(inst: InstanceFile):
    rep = build_representation(inst)
    w = build_weight_assignment(inst, rep)
    ic = build_invariant_complex(inst.algebra, rep, w)
    return rep, w, ic


def _require_valid(inst: InstanceFile) -> bool:
    report = validate_instance(inst)
    if not report.ok:
        for issue in report.issues:
            print(f"  [{issue.code}] {issue.message}")
        return False
    return True


def _flag_text(value) -> str:
    if value is None:
        return "unknown"
    return "true" if value else "false"


def _class_terms(vec, labels) -> list[tuple[str, str]]:
    return [(labels[i], format_gaussian(vec[i])) for i in sorted(vec)]


def _class_text(vec, labels) -> str:
    chunks = []
    for i in sorted(vec):
        c = vec[i]
        if c == ONE:
            chunks.append(labels[i])
        elif c == MINUS_ONE:
            chunks.append("-" + labels[i])
        else:
            chunks.append(f"({format_gaussian(c)})*{labels[i]}")
    return " + ".join(chunks)


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
    found = list(validate_instance(inst).issues)
    if not found:
        # Weight data passes only if the build certifies its grading.
        try:
            _pipeline(inst)
        except WeightInferenceError as exc:
            found.append(ValidationIssue("weight-inference", str(exc)))
        except WeightGradingError as exc:
            found.append(ValidationIssue("weight-grading", str(exc)))
    issues = [
        {"code": i.code, "message": i.message, "witness": list(i.witness)}
        for i in found
    ]
    if not found:
        print(f"instance {inst.name!r}: valid")
    else:
        print(f"instance {inst.name!r}: {len(issues)} issue(s)")
        for issue in found:
            print(f"  [{issue.code}] {issue.message}")
    if args.json:
        _write_json(args.json, {"command": "validate", "instance": inst.name,
                                "ok": not found, "issues": issues})
    return 1 if found else 0


def _cohomology_command(args, kind: str) -> int:
    inst = load_instance(args.instance)
    if inst.kind != kind:
        raise ModeMismatchError(
            f"instance kind is {inst.kind!r}; this command needs {kind!r}"
        )
    if not _require_valid(inst):
        return 1
    rep, w, ic = _pipeline(inst)
    sel = select_de_rham(ic, inst.lattice) if kind == "derham" else select_dolbeault(
        ic, inst.lattice
    )
    result = cohomology(sel.complex, representatives=args.representatives)

    title = "twisted de Rham" if kind == "derham" else "Dolbeault"
    print(f"{title} cohomology of {inst.name!r}")
    print("  degree  invariant dim  kept dim  betti")
    invariant = [len(per) for per in ic.tag_ids]
    for p, b in enumerate(result.betti):
        print(f"  {p:<6}  {invariant[p]:<13}  {sel.complex.dims[p]:<8}  {b}")
    print(f"Euler characteristic: {result.euler_characteristic()}")

    payload: dict = {
        "command": kind,
        "instance": inst.name,
        "invariant_dimensions": invariant,
        "kept_dimensions": list(sel.complex.dims),
        "betti": list(result.betti),
        "euler_characteristic": result.euler_characteristic(),
        "tags": _tag_summary(sel),
    }
    if kind == "dolbeault":
        hodge = dolbeault_hodge_table(inst.algebra.dim, result.betti)
        payload["hodge_numbers"] = [list(row) for row in hodge]
        print("Hodge numbers h^(p,q) (rows p, columns q):")
        for row in hodge:
            print("  " + "  ".join(f"{h:<3}" for h in row))
    if args.representatives:
        reps_out = []
        kept = ic.indices_with_tag_ids(sel.kept)
        for p, classes in enumerate(result.representatives):
            labels = ic.labels(p, kept[p])
            reps_out.append(
                [_class_terms(vec, labels) for vec in classes]
            )
            if classes:
                print(f"H^{p} representatives:")
                for vec in classes:
                    print(f"  {_class_text(vec, labels)}")
        payload["representatives"] = [
            [[list(term) for term in cls] for cls in degree]
            for degree in reps_out
        ]
    if args.json:
        _write_json(args.json, payload)
    return 0


def cmd_derham(args) -> int:
    return _cohomology_command(args, "derham")


def cmd_dolbeault(args) -> int:
    return _cohomology_command(args, "dolbeault")


def cmd_conditions(args) -> int:
    inst = load_instance(args.instance)
    if not _require_valid(inst):
        return 1
    rep, w, ic = _pipeline(inst)
    report = check_conditions(ic, inst.lattice)
    print(f"selection conditions for {inst.name!r}")
    print(f"  diamond1 (trivial iff trivial on lattice): {_flag_text(report.diamond1)}")
    print(f"  diamond2 (nonzero tags non-unitary):       {_flag_text(report.diamond2)}")
    print(f"  star     (trivial iff ratio-trivial):      {_flag_text(report.star)}")
    print(f"  box      (basis weights ratio-trivial):    {_flag_text(report.box)}")
    for wtn in report.witnesses:
        where = "algebra basis" if wtn.degree < 0 else f"degree {wtn.degree}"
        print(f"  witness [{wtn.condition}] {where}: {wtn.label} with tag {wtn.tag}")
    if args.json:
        _write_json(
            args.json,
            {
                "command": "conditions",
                "instance": inst.name,
                "diamond1": report.diamond1,
                "diamond2": report.diamond2,
                "star": report.star,
                "box": report.box,
                "witnesses": [
                    {
                        "condition": wtn.condition,
                        "degree": wtn.degree,
                        "label": wtn.label,
                        "tag": wtn.tag,
                    }
                    for wtn in report.witnesses
                ],
            },
        )
    return 0


def cmd_oracle(args) -> int:
    inst = load_instance(args.instance)
    if not _require_valid(inst):
        return 1
    rep, w, ic = _pipeline(inst)
    report = verify_quasi_iso(ic)
    print(f"sector-by-sector oracle for {inst.name!r}")
    for line in report.summary_lines():
        print("  " + line)
    print("result: " + ("agree" if report.ok else "MISMATCH"))
    if args.json:
        _write_json(
            args.json,
            {
                "command": "oracle",
                "instance": inst.name,
                "ok": report.ok,
                "sectors": [
                    {
                        "tag": format_weight(s.tag),
                        "block": list(s.block_betti),
                        "full": list(s.full_betti),
                        "equal": s.equal,
                    }
                    for s in report.sectors
                ],
            },
        )
    return 0 if report.ok else 3


def cmd_nilshadow(args) -> int:
    inst = load_instance(args.instance)
    if not _require_valid(inst):
        return 1
    rep, w, _ = _pipeline(inst)
    shadow = nilshadow(inst.algebra, w.algebra_weights)
    series = lower_central_series_dims(shadow, frozenset(range(shadow.dim)))
    print(f"nilshadow of {inst.name!r}")
    table = shadow.bracket_table()
    if not table:
        print("  bracket: abelian")
    for (i, j), row in sorted(table.items()):
        terms = " + ".join(
            f"({format_gaussian(c)})*{shadow.basis[k]}" for k, c in row
        )
        print(f"  [{shadow.basis[i]}, {shadow.basis[j]}] = {terms}")
    print(f"  lower central series dims: {list(series)}")
    if args.json:
        brackets = []
        for (i, j), row in sorted(table.items()):
            for k, c in row:
                brackets.append(
                    [shadow.basis[i], shadow.basis[j], shadow.basis[k],
                     format_gaussian(c)]
                )
        _write_json(
            args.json,
            {
                "command": "nilshadow",
                "instance": inst.name,
                "basis": list(shadow.basis),
                "brackets": brackets,
                "lower_central_series": list(series),
            },
        )
    return 0


@lru_cache(maxsize=None)
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="solvcohom",
        description="Exact solvmanifold cohomology from finite invariant complexes.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    specs = [
        ("validate", cmd_validate, False),
        ("derham", cmd_derham, True),
        ("dolbeault", cmd_dolbeault, True),
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
