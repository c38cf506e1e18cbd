import contextlib
import copy
import dataclasses
import io
import json
import os
import pathlib
import random
import subprocess
import sys
import tempfile
import textwrap

import pytest
from conftest import (
    EXPECTED_DIR,
    INSTANCE_DIR,
    SKEWED_HEISENBERG,
    make_heisenberg,
    make_split_6d_plus_heisenberg,
)
from emit_reference import emit_instance
from hypothesis import example, given, settings
from hypothesis import strategies as st

import solvcohom
from solvcohom import cli, weights
from solvcohom.cecomplex import cohomology
from solvcohom.instances import (
    WeightsSpec,
    build_representation,
    build_weight_assignment,
    load_instance,
)
from solvcohom.liealg import adjoint_representation
from solvcohom.oracle import QuasiIsoReport, SectorComparison
from solvcohom.scalars import ZERO

SHIPPED_COMMANDS = [
    ("heisenberg3", "derham"),
    ("torus-complex-n3", "dolbeault"),
    ("example-7-1-pi", "derham"),
    ("example-7-1-generic", "derham"),
    ("example-7-2-pi", "dolbeault"),
    ("example-7-2-generic", "dolbeault"),
]


def run(argv):
    return cli.main(argv)


def path_of(name):
    return str(INSTANCE_DIR / f"{name}.json")


@pytest.mark.parametrize("name,cohom", SHIPPED_COMMANDS)
def test_shipped_instances_exit_zero(name, cohom, tmp_path, capsys):
    assert run(["validate", path_of(name)]) == 0
    assert run([cohom, path_of(name)]) == 0
    assert run(["conditions", path_of(name)]) == 0
    assert run(["nilshadow", path_of(name)]) == 0
    out = capsys.readouterr().out
    assert "valid" in out
    assert "Euler characteristic" in out


@pytest.mark.parametrize("name", ["heisenberg3", "example-7-2-pi"])
def test_oracle_exit_zero(name, capsys):
    assert run(["oracle", path_of(name)]) == 0
    assert "result: agree" in capsys.readouterr().out


def test_conjugation_leaving_the_complement_is_reported(tmp_path, capsys):
    # sigma swaps v5 with the nilradical vector v1, so the lattice's
    # conjugation check has no sigma(v5) coordinate to compare.
    doc = json.loads((INSTANCE_DIR / "example-7-1-generic.json").read_text())
    doc["algebra"]["conjugation"] = {
        "v5": "v1", "v1": "v5", "v2": "v6", "v6": "v2", "v3": "v4", "v4": "v3",
    }
    path = tmp_path / "split.json"
    path.write_text(json.dumps(doc))
    for command in ("validate", "derham", "conditions", "oracle", "nilshadow"):
        assert run([command, str(path)]) == 1
        assert "[conjugation-split]" in capsys.readouterr().out


def test_inferred_weights_off_the_eigenvalues_fail_the_grading_check(tmp_path, capsys):
    # R(t) minus its diagonal is nilpotent, so inference accepts the
    # diagonal (1, 2, 3) as weights. But det R(t) = 7, not 1*2*3, so the
    # diagonal is not the eigenvalue list, and the build's weight-grading
    # check is what refuses it, in validate as in every other command.
    doc = {
        "name": "t-module",
        "kind": "derham",
        "algebra": {"dim": 1, "basis": ["t"], "brackets": [], "nilradical": [],
                    "complement": ["t"]},
        "representation": {
            "dim": 3,
            "matrices": {"t": [["1", "1", "1"], ["-1", "2", "0"], ["1", "0", "3"]]},
        },
        "weights": {"infer": True},
        "lattice": {"symbols": [], "generators": [{"t": "1"}]},
    }
    path = tmp_path / "t-module.json"
    path.write_text(json.dumps(doc))
    assert run(["validate", str(path)]) == 1
    assert capsys.readouterr().out == (
        "instance 't-module': 1 issue(s)\n"
        "  [weight-grading] weight grading violated: d(1 (x) u1) hits t* (x) u2 "
        "across tags (-1) -> (-2); invalid weight data\n"
    )
    assert run(["derham", str(path)]) == 1
    assert capsys.readouterr().err == (
        "error: weight grading violated: d(1 (x) u1) hits t* (x) u2 "
        "across tags (-1) -> (-2); invalid weight data\n"
    )


# The line: one complement direction t, ad(t) = 0.
LINE = {"dim": 1, "basis": ["t"], "brackets": [], "nilradical": [], "complement": ["t"]}
# [t, x] = x: ad(t) is diagonal, with x of weight 1.
AFFINE = {"dim": 2, "basis": ["t", "x"], "brackets": [["t", "x", "x", "1"]],
          "nilradical": ["x"], "complement": ["t"]}
# [t, x] = y, [t, y] = -x: ad(t) is a rotation, zero on the diagonal and
# not nilpotent, so the basis is not adapted.
ROTATION = {"dim": 3, "basis": ["t", "x", "y"],
            "brackets": [["t", "x", "y", "1"], ["t", "y", "x", "-1"]],
            "nilradical": ["x", "y"], "complement": ["t"]}
# R(t) = [[1, 1], [-1, 0]]: diagonal (1, 0), and R(t) minus it is a rotation.
TILTED = [["1", "1"], ["-1", "0"]]
ZERO_WEIGHTS = [{"t": "0"}, {"t": "0"}]


def _t_doc(algebra, representation, weights):
    return {
        "name": "t-module",
        "kind": "derham",
        "algebra": algebra,
        "representation": representation,
        "weights": weights,
        "lattice": {"symbols": [], "generators": [{"t": "1"}]},
    }


def _run_doc(doc, command, tmp_path, capsys):
    """(exit code, stdout, --json payload) of one command on doc."""
    path = tmp_path / "doc.json"
    path.write_text(json.dumps(doc))
    out = tmp_path / "out.json"
    code = run([command, str(path), "--json", str(out)])
    return code, capsys.readouterr().out, json.loads(out.read_text())


def _validate_issues(doc, tmp_path, capsys):
    """validate's exit code, stdout and --json issue list on doc."""
    code, out, payload = _run_doc(doc, "validate", tmp_path, capsys)
    assert {k: payload[k] for k in ("command", "instance", "ok")} == {
        "command": "validate", "instance": "t-module", "ok": code == 0,
    }
    return code, out, payload["issues"]


@pytest.mark.parametrize(
    "matrix,code,message,algebra",
    [
        (
            [["1", "1", "1"], ["-1", "2", "0"], ["1", "0", "3"]],
            "weight-grading",
            "weight grading violated: d(1 (x) u1) hits t* (x) u2 "
            "across tags (-1) -> (-2); invalid weight data",
            LINE,
        ),
        (
            [["0", "1"], ["1", "0"]],
            "weight-inference",
            "R(t) minus its diagonal is not nilpotent; "
            "supply an adapted basis",
            LINE,
        ),
        (
            [["0"]],
            "weight-inference",
            "ad(t) minus its diagonal is not nilpotent; "
            "supply an adapted basis",
            ROTATION,
        ),
    ],
)
def test_validate_reports_weights_the_build_refuses(
    matrix, code, message, algebra, tmp_path, capsys
):
    doc = _t_doc(
        algebra, {"dim": len(matrix), "matrices": {"t": matrix}}, {"infer": True}
    )
    assert _validate_issues(doc, tmp_path, capsys) == (
        1,
        f"instance 't-module': 1 issue(s)\n  [{code}] {message}\n",
        [{"code": code, "message": message, "witness": []}],
    )


AD_DIAGONAL = ("weights-ad-diagonal", "algebra weights disagree with the diagonal of ad(t)")
AD_RESIDUE = ("weights-ad-residue", "ad(t) minus its diagonal is not nilpotent")
REP_DIAGONAL = ("weights-rep-diagonal", "rep weights disagree with the diagonal of R(t)")
REP_RESIDUE = ("weights-rep-residue", "R(t) minus its diagonal is not nilpotent")


@pytest.mark.parametrize(
    "doc,issues",
    [
        (
            _t_doc(AFFINE, {"trivial": True}, {"algebra": {"x": {"t": "2"}}}),
            [AD_DIAGONAL],
        ),
        (
            _t_doc(ROTATION, {"trivial": True}, {"algebra": {}}),
            [AD_RESIDUE],
        ),
        (
            _t_doc(
                LINE,
                {"dim": 2, "matrices": {"t": TILTED}},
                {"algebra": {}, "representation": ZERO_WEIGHTS},
            ),
            [REP_DIAGONAL, REP_RESIDUE],
        ),
        (
            _t_doc(
                LINE,
                {"dim": 2, "matrices": {"t": TILTED}, "weights": ZERO_WEIGHTS},
                {"infer": True},
            ),
            [("rep-weight-diagonal", "diagonal of R(t) disagrees with declared weights")],
        ),
        (
            _t_doc(
                LINE,
                {"dim": 2, "matrices": {"t": [["0", "1"], ["1", "0"]]},
                 "weights": ZERO_WEIGHTS},
                {"infer": True},
            ),
            [("rep-weight-residue", "R(t) minus its declared diagonal is not nilpotent")],
        ),
        (
            _t_doc(
                ROTATION,
                {"dim": 2, "matrices": {"t": TILTED}},
                {"algebra": {"x": {"t": "1"}}, "representation": ZERO_WEIGHTS},
            ),
            [AD_DIAGONAL, AD_RESIDUE, REP_DIAGONAL, REP_RESIDUE],
        ),
    ],
    ids=[
        "ad-diagonal",
        "ad-residue",
        "rep-diagonal-and-residue",
        "declared-rep-diagonal",
        "declared-rep-residue",
        "four-issues-in-order",
    ],
)
def test_validate_pins_every_weight_issue(doc, issues, tmp_path, capsys):
    # Every witness is the basis index of t, which is 0.
    assert _validate_issues(doc, tmp_path, capsys) == (
        1,
        f"instance 't-module': {len(issues)} issue(s)\n"
        + "".join(f"  [{code}] {message}\n" for code, message in issues),
        [{"code": code, "message": message, "witness": [0]} for code, message in issues],
    )


def test_kind_command_mismatch(capsys):
    assert run(["dolbeault", path_of("heisenberg3")]) == 1
    assert run(["derham", path_of("torus-complex-n3")]) == 1
    err = capsys.readouterr().err
    assert "needs" in err


def test_invalid_instance_exits_one(tmp_path, capsys):
    bad = {
        "name": "bad",
        "kind": "derham",
        "algebra": {
            "dim": 2,
            "basis": ["x", "y"],
            "brackets": [["x", "y", "x", "1"]],
            "nilradical": ["y"],
            "complement": ["x"],
        },
        "lattice": {"symbols": [], "generators": []},
    }
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(bad))
    assert run(["validate", str(path)]) == 1
    assert run(["derham", str(path)]) == 1
    out = capsys.readouterr().out
    assert "nilradical-ideal" in out


def test_unreadable_inputs_exit_two(tmp_path, capsys):
    assert run(["validate", str(tmp_path / "absent.json")]) == 2

    broken = tmp_path / "broken.json"
    broken.write_text("{this is not json")
    assert run(["validate", str(broken)]) == 2

    garbled = tmp_path / "garbled.json"
    doc = json.loads((INSTANCE_DIR / "heisenberg3.json").read_text())
    doc["algebra"]["brackets"][0][3] = "1..2"
    garbled.write_text(json.dumps(doc))
    assert run(["validate", str(garbled)]) == 2
    assert "error:" in capsys.readouterr().err


def test_the_parser_is_built_once_and_refuses_alike_every_time(capsys):
    assert cli.build_parser() is cli.build_parser()
    refusals = []
    for _ in range(2):
        with pytest.raises(SystemExit) as exc:
            run(["homology", path_of("heisenberg3")])
        refusals.append((exc.value.code, capsys.readouterr().err))
    assert refusals[0] == refusals[1]
    code, err = refusals[0]
    assert code == 2
    assert "invalid choice: 'homology'" in err


def _set(path, value):
    def mutate(doc):
        *outer, last = path
        for key in outer:
            doc = doc[key]
        doc[last] = value

    return mutate


BRACKET_COEFFICIENT = ("algebra", "brackets", 0, 3)
PERIOD = ("lattice", "generators", 0, "e1")  # in example-7-2-pi


@pytest.mark.parametrize(
    "name,mutate",
    [
        ("heisenberg3", _set(("algebra", "basis"), 3)),
        ("heisenberg3", _set(("algebra", "basis"), "xyz")),
        ("heisenberg3", _set(("algebra", "brackets"), 5)),
        ("heisenberg3", _set(("representation",), {"dim": 1, "matrices": []})),
        ("heisenberg3", _set(("representation",), {"dim": 1, "matrices": {"x": 5}})),
        ("heisenberg3", _set(("representation",), {"dim": 1, "matrices": {"x": None}})),
        ("heisenberg3", _set(("weights",), {"algebra": []})),
        ("heisenberg3", _set(("weights",), {"algebra": {}, "representation": []})),
        ("heisenberg3", _set(("weights",), {"algebra": {}, "representation": [{}, {}]})),
        ("heisenberg3", _set(("weights",), {"algebra": {"q": {}}})),
        ("heisenberg3", _set(("representation",), {"dim": 1, "matrices": {"q": [["1"]]}})),
        ("heisenberg3", _set(BRACKET_COEFFICIENT, "1/0")),
        ("heisenberg3", _set(BRACKET_COEFFICIENT, "0/0")),
        ("heisenberg3", _set(BRACKET_COEFFICIENT, "1/0*i")),
        ("heisenberg3", _set(BRACKET_COEFFICIENT, "1" * 5000)),
        ("heisenberg3", _set(("representation",), {"dim": 1, "matrices": {"x": [[False]]}})),
        ("heisenberg3", _set(("representation",), {"dim": 1, "matrices": {"x": [[True]]}})),
        ("heisenberg3", _set(("representation",), {"dim": 1, "matrices": {"x": [[None]]}})),
        ("heisenberg3", _set(("representation",), {"dim": 1, "matrices": {"x": [[""]]}})),
        ("heisenberg3", _set(("representation",), {"dim": 1, "matrices": {"x": [[1e308]]}})),
        ("example-7-2-pi", _set(PERIOD, "1/0*i*pi + a")),
        ("example-7-2-pi", _set(PERIOD, "1/0 + a")),
        ("example-7-1-generic", _set(("algebra", "nilradical"), ["v1", "v2", "v3", "v4", "v1"])),
        ("example-7-1-generic", _set(("algebra", "complement"), ["v5", "v5", "v6"])),
        ("heisenberg3", _set(("representation",), {"trivial": "no"})),
        ("heisenberg3", _set(("representation",), {"trivial": False, "adjoint": 1})),
        ("heisenberg3", _set(("weights",), {"infer": "false"})),
        ("heisenberg3", _set(("weights",), {"infer": None})),
        (
            "heisenberg3",
            _set(("algebra", "brackets"), [["x", "y", "z", "1"], ["x", "y", "z", "-1"]]),
        ),
        (
            "heisenberg3",
            _set(("algebra",), {"dim": True, "basis": ["t"], "brackets": [],
                                "nilradical": ["t"], "complement": []}),
        ),
        ("heisenberg3", _set(("representation",), {"dim": True, "matrices": {}})),
    ],
    ids=[
        "basis-int",
        "basis-string",
        "brackets-int",
        "matrices-list",
        "matrix-not-rows",
        "matrix-null",
        "weights-algebra-list",
        "weights-representation-short",
        "weights-representation-long",
        "weights-algebra-unknown-name",
        "matrices-unknown-name",
        "scalar-zero-denominator",
        "scalar-zero-over-zero",
        "scalar-imaginary-zero-denominator",
        "scalar-5000-digits",
        "matrix-entry-false",
        "matrix-entry-true",
        "matrix-entry-null",
        "matrix-entry-empty-string",
        "matrix-entry-1e308",
        "period-coefficient-zero-denominator",
        "period-constant-zero-denominator",
        "nilradical-repeated-name",
        "complement-repeated-name",
        "trivial-string",
        "adjoint-integer",
        "infer-string",
        "infer-null",
        "brackets-repeated-entry",
        "algebra-dim-true",
        "representation-dim-true",
    ],
)
def test_malformed_instance_exits_two_without_traceback(name, mutate, tmp_path):
    doc = json.loads((INSTANCE_DIR / f"{name}.json").read_text())
    mutate(doc)
    path = tmp_path / "malformed.json"
    path.write_text(json.dumps(doc))
    proc = subprocess.run(
        [sys.executable, "-m", "solvcohom.cli", "validate", str(path)],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 2, proc.stderr
    assert "Traceback" not in proc.stderr
    assert proc.stderr.startswith("error: ")


def _decode_error(raw):
    try:
        raw.decode("utf-8")
    except UnicodeDecodeError as exc:
        return str(exc)


def _int_error(digits):
    try:
        int(digits)
    except ValueError as exc:
        return str(exc)


@pytest.mark.parametrize(
    "raw,message",
    [
        (b"\xff\xfe{", "{path} is not UTF-8: " + _decode_error(b"\xff\xfe{")),
        (b"[" * 100_000 + b"]" * 100_000, "JSON nested too deeply in {path}"),
        (
            b'{"x": ' + b"1" * 5000 + b"}",
            "unreadable number in {path}: " + _int_error("1" * 5000),
        ),
    ],
    ids=["not-utf-8", "nested-100000-deep", "integer-5000-digits"],
)
def test_unreadable_bytes_exit_two_without_traceback(raw, message, tmp_path):
    # The interpreter's own wording of the decode and digit-limit errors
    # follows the package's text.
    path = tmp_path / "unreadable.json"
    path.write_bytes(raw)
    proc = subprocess.run(
        [sys.executable, "-m", "solvcohom.cli", "validate", str(path)],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 2, proc.stderr
    assert proc.stderr == "error: " + message.format(path=path) + "\n"


@pytest.mark.parametrize(
    "name,mutate,message",
    [
        ("heisenberg3", _set(("representation",), 5), "representation block must be an object"),
        ("heisenberg3", _set(("weights",), []), "weights block must be an object"),
        ("heisenberg3", _set(("algebra", "conjugation"), ["x"]), "conjugation must be an object"),
        (
            "example-7-1-generic",
            _set(("algebra", "nilradical"), ["v1", "v2", "v3", "v4", "v1"]),
            "repeated basis name 'v1' in nilradical",
        ),
        (
            "heisenberg3",
            _set(("representation",), {"dim": 0, "matrices": {}}),
            "representation dim must be a positive integer",
        ),
        (
            "heisenberg3",
            _set(("representation",), {"dim": -1, "matrices": {}}),
            "representation dim must be a positive integer",
        ),
        (
            "heisenberg3",
            _set(BRACKET_COEFFICIENT, "1" * 5000),
            "too many digits in a rational literal of length 5000",
        ),
        (
            "heisenberg3",
            _set(("weights",), {"algebra": {"x": "1"}}),
            "weight covector in algebra weights must be an object",
        ),
        (
            # Every name the block uses resolves, so the repeat is what fails.
            "heisenberg3",
            _set(("algebra",), {"dim": 3, "basis": ["x", "y", "x"], "brackets": [],
                                "nilradical": ["x", "y"], "complement": []}),
            "basis names must be distinct and match dim",
        ),
    ],
    ids=[
        "representation-not-object",
        "weights-not-object",
        "conjugation-not-object",
        "nilradical-repeated-name",
        "representation-dim-0",
        "representation-dim-minus-1",
        "scalar-5000-digits",
        "weight-covector-not-object",
        "basis-repeated-name",
    ],
)
def test_parse_errors_exit_two_with_their_message(name, mutate, message, tmp_path, capsys):
    doc = json.loads((INSTANCE_DIR / f"{name}.json").read_text())
    mutate(doc)
    path = tmp_path / "malformed.json"
    path.write_text(json.dumps(doc))
    assert run(["validate", str(path)]) == 2
    assert capsys.readouterr().err == f"error: {message}\n"


# Where instance files hold a Q(i) or period scalar: (document, mutation
# putting a value there, what the error message calls it).
SCALAR_PLACES = {
    "bracket": ("heisenberg3", lambda v: _set(BRACKET_COEFFICIENT, v),
                "bracket coefficient of [x, y, z]"),
    "matrix": ("heisenberg3",
               lambda v: _set(("representation",), {"dim": 1, "matrices": {"x": [[v]]}}),
               "matrix entry of x"),
    "weight": ("example-7-2-pi", lambda v: _set(("weights",), {"algebra": {"e2": {"e1": v}}}),
               "weight coordinate 'e1' in algebra weights"),
    "period": ("example-7-2-pi", lambda v: _set(PERIOD, v), "generator coordinate 'e1'"),
}


@pytest.mark.parametrize("place", SCALAR_PLACES)
@pytest.mark.parametrize(
    "value,spelling",
    [(True, "true"), (None, "null"), ({"x": 1}, '{"x": 1}'), (2, "2"), (0, "0")],
    ids=["true", "null", "object", "number", "zero"],
)
def test_non_string_scalars_exit_two_in_json_spelling(place, value, spelling, tmp_path, capsys):
    name, mutate, what = SCALAR_PLACES[place]
    doc = json.loads((INSTANCE_DIR / f"{name}.json").read_text())
    mutate(value)(doc)
    path = tmp_path / "non-string.json"
    path.write_text(json.dumps(doc))
    assert run(["validate", str(path)]) == 2
    assert capsys.readouterr().err == f"error: {what} must be a string, not {spelling}\n"


def _symbols(*declarations):
    return _set(("lattice", "symbols"), list(declarations))


IMAGINARY_A = {"name": "a", "parity": "imaginary"}


@pytest.mark.parametrize(
    "mutate,message",
    [
        (_symbols({"name": "a", "parity": "weird"}), "unknown parity 'weird'"),
        (_symbols(IMAGINARY_A), "imaginary symbol 'a' must be named i*<base>"),
        (_symbols({"name": "2a", "parity": "real"}), "bad symbol name '2a'"),
        (_symbols({"name": 5, "parity": "real"}), "bad symbol name '5'"),
        (_symbols({"name": "i*", "parity": "imaginary"}), "bad symbol name ''"),
        (_symbols({"name": "pi", "parity": "real"}), "duplicate symbol 'pi'"),
        (_symbols({"name": "i", "parity": "real"}), "duplicate symbol 'i'"),
        (_symbols({"name": "i*i", "parity": "imaginary"}), "duplicate symbol 'i'"),
        (_symbols({"parity": "real"}), "missing 'name' in symbol declaration"),
        (_symbols({"name": "a"}), "missing 'parity' in symbol declaration"),
        (_symbols("a"), "missing 'name' in symbol declaration"),
        (_set(("lattice", "symbols"), {}), "lattice symbols must be a list"),
        # Every declaration's own errors come first, in declaration order,
        # then the i*<base> naming, then the base names themselves.
        (_symbols(IMAGINARY_A, {"name": "b", "parity": "weird"}), "unknown parity 'weird'"),
        (
            _symbols({"name": "a", "parity": "weird"}, {"parity": "real"}),
            "unknown parity 'weird'",
        ),
        (
            _symbols({"name": "a", "parity": "real"}, {"name": "b"}),
            "missing 'parity' in symbol declaration",
        ),
        (
            _symbols({"name": "2a", "parity": "real"}, {"name": "b", "parity": "imaginary"}),
            "imaginary symbol 'b' must be named i*<base>",
        ),
        (
            _symbols({"name": "pi", "parity": "real"}, {"name": "2a", "parity": "real"}),
            "duplicate symbol 'pi'",
        ),
        (_set(PERIOD, "b + i*pi"), "bad period term 'b' in 'b + i*pi'"),
        (_set(PERIOD, "i*b"), "bad period term 'i*b' in 'i*b'"),
        (_set(PERIOD, "1/0*a"), "zero denominator in '1/0*a'"),
        (_set(("lattice",), []), "lattice block must be an object"),
        (_set(("lattice", "generators", 0), "a"), "each generator must be an object"),
        (
            _set(("lattice", "generators", 0, "q"), "1"),
            "generator coordinate 'q' is not a complement name",
        ),
    ],
    ids=[
        "unknown-parity",
        "imaginary-without-i",
        "bad-name",
        "bad-name-number",
        "bad-name-empty-base",
        "builtin-pi",
        "builtin-i",
        "builtin-i-imaginary",
        "missing-name",
        "missing-parity",
        "declaration-not-object",
        "symbols-not-list",
        "parity-before-imaginary-naming",
        "parity-before-later-missing-name",
        "missing-parity-after-good-declaration",
        "imaginary-naming-before-bad-name",
        "builtin-before-bad-name",
        "undeclared-symbol",
        "undeclared-imaginary-symbol",
        "period-zero-denominator",
        "lattice-not-object",
        "generator-not-object",
        "generator-unknown-key",
    ],
)
def test_lattice_block_errors_exit_two_with_their_message(mutate, message, tmp_path, capsys):
    # example-7-2-pi: heisenberg3's complement is empty, so its generators
    # carry no coordinates to parse.
    doc = json.loads((INSTANCE_DIR / "example-7-2-pi.json").read_text())
    mutate(doc)
    path = tmp_path / "lattice.json"
    path.write_text(json.dumps(doc))
    assert run(["validate", str(path)]) == 2
    assert capsys.readouterr().err == f"error: {message}\n"


def test_conjugation_on_a_dolbeault_instance_exits_one(tmp_path, capsys):
    doc = json.loads((INSTANCE_DIR / "example-7-2-pi.json").read_text())
    doc["algebra"]["conjugation"] = {"e1": "e1"}
    path = tmp_path / "conjugated.json"
    path.write_text(json.dumps(doc))
    expected = (
        "instance 'example-7-2-pi': 1 issue(s)\n"
        "  [conjugation-mode] conjugation table is only meaningful in real-complexified mode\n"
    )
    for command in ("validate", "dolbeault"):
        assert run([command, str(path)]) == 1
        assert capsys.readouterr().out == expected


def test_unwritable_json_path_exits_two(tmp_path, capsys):
    out = tmp_path / "missing" / "out.json"
    assert run(["derham", path_of("heisenberg3"), "--json", str(out)]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith(f"error: cannot write {out}: ")
    assert captured.err.count("\n") == 1
    assert not out.exists()


def test_null_matrix_is_not_an_absent_one(tmp_path, capsys):
    # An absent matrix is the zero matrix; a null one is malformed.
    doc = json.loads((INSTANCE_DIR / "heisenberg3.json").read_text())
    doc["representation"] = {"dim": 1, "matrices": {"x": None}}
    path = tmp_path / "null.json"
    path.write_text(json.dumps(doc))
    assert run(["derham", str(path)]) == 2
    assert capsys.readouterr().err == "error: matrix for x must be 1x1\n"
    doc["representation"] = {"dim": 1, "matrices": {}}
    path.write_text(json.dumps(doc))
    assert run(["derham", str(path)]) == 0


@pytest.mark.parametrize(
    "block,value,message",
    [
        ("representation", {"trivial": "no"}, "representation trivial must be true or false"),
        ("representation", {"adjoint": 1}, "representation adjoint must be true or false"),
        ("weights", {"infer": "false"}, "weights infer must be true or false"),
    ],
)
def test_flags_must_be_json_booleans(block, value, message, tmp_path, capsys):
    doc = json.loads((INSTANCE_DIR / "heisenberg3.json").read_text())
    doc[block] = value
    path = tmp_path / "flag.json"
    path.write_text(json.dumps(doc))
    assert run(["derham", str(path)]) == 2
    assert capsys.readouterr().err == f"error: {message}\n"


@pytest.mark.parametrize(
    "block,flag,message",
    [
        ("representation", "trivial", "missing 'dim' in representation"),
        ("representation", "adjoint", "missing 'dim' in representation"),
        ("weights", "infer", "missing 'algebra' in weights"),
    ],
)
def test_false_flag_is_an_absent_one(block, flag, message, tmp_path, capsys):
    # Both fall through to the explicit block, which then lacks its keys.
    doc = json.loads((INSTANCE_DIR / "heisenberg3.json").read_text())
    path = tmp_path / "false.json"
    for value in ({flag: False}, {}):
        doc[block] = value
        path.write_text(json.dumps(doc))
        assert run(["derham", str(path)]) == 2
        assert capsys.readouterr().err == f"error: {message}\n"


def test_repeated_bracket_entry_exits_two(tmp_path, capsys):
    # Repeating (x, y, z) is refused; listing both orientations is not.
    doc = json.loads((INSTANCE_DIR / "heisenberg3.json").read_text())
    path = tmp_path / "brackets.json"
    doc["algebra"]["brackets"] = [["x", "y", "z", "1"], ["x", "y", "z", "-1"]]
    path.write_text(json.dumps(doc))
    assert run(["derham", str(path)]) == 2
    assert capsys.readouterr().err == "error: repeated bracket entry [x, y, z]\n"
    doc["algebra"]["brackets"] = [["x", "y", "z", "1"], ["y", "x", "z", "-1"]]
    path.write_text(json.dumps(doc))
    assert run(["derham", str(path)]) == 0
    both = capsys.readouterr().out
    assert run(["derham", path_of("heisenberg3")]) == 0
    assert both == capsys.readouterr().out


def _fields(node, prefix=()):
    """Every key path into a JSON document, outermost first."""
    children = (
        node.items() if isinstance(node, dict)
        else enumerate(node) if isinstance(node, list)
        else ()
    )
    for key, child in children:
        yield prefix + (key,)
        yield from _fields(child, prefix + (key,))


def _explicit_weights_doc(name):
    """A shipped instance with its inferred weights written out in full."""
    inst = load_instance(INSTANCE_DIR / f"{name}.json")
    w = build_weight_assignment(inst, build_representation(inst))
    explicit = WeightsSpec(False, w.algebra_weights, w.rep_weights)
    return emit_instance(dataclasses.replace(inst, weights=explicit))


EXPLICIT_WEIGHTS = "example-7-1-pi+explicit-weights"
FUZZ_DOCS = {
    name: json.loads((INSTANCE_DIR / f"{name}.json").read_text())
    for name, _ in SHIPPED_COMMANDS
}
FUZZ_DOCS[EXPLICIT_WEIGHTS] = _explicit_weights_doc("example-7-1-pi")
FIELDS = [(name, path) for name, doc in FUZZ_DOCS.items() for path in _fields(doc)]


def test_explicit_weights_document_validates(tmp_path, capsys):
    # The fuzz pool's explicit-weights document is valid as written and
    # holds both weight lists, so every nested weight field gets fuzzed.
    doc = FUZZ_DOCS[EXPLICIT_WEIGHTS]
    assert doc["weights"]["algebra"] and len(doc["weights"]["representation"]) == 6
    path = tmp_path / "explicit.json"
    path.write_text(json.dumps(doc))
    assert run(["validate", str(path)]) == 0
    assert run(["derham", str(path)]) == 0

json_values = st.recursive(
    st.none()
    | st.booleans()
    | st.integers()
    | st.floats(allow_nan=False, allow_infinity=False)
    | st.text(max_size=8)
    | st.sampled_from(["1/0", "0", "-1", "i", "x", "pi", "1/2*i*pi"]),
    lambda children: st.lists(children, max_size=3)
    | st.dictionaries(st.text(max_size=4), children, max_size=3),
    max_leaves=6,
)


@example(field=("heisenberg3", BRACKET_COEFFICIENT), value="1/0")
@example(field=("example-7-2-pi", PERIOD), value="1/0*i*pi")
@example(field=(EXPLICIT_WEIGHTS, ("weights", "representation")), value=[])
@settings(max_examples=200, deadline=None)
@given(field=st.sampled_from(FIELDS), value=json_values)
def test_any_json_field_exits_cleanly(field, value):
    # Replacing one field with any JSON value exits 0, 1 or 2; nothing raises.
    name, path = field
    doc = copy.deepcopy(FUZZ_DOCS[name])
    _set(path, value)(doc)
    with tempfile.TemporaryDirectory() as tmp:
        instance = os.path.join(tmp, "fuzzed.json")
        with open(instance, "w") as fh:
            json.dump(doc, fh)
        sink = io.StringIO()
        with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
            for command in ("validate", FUZZ_DOCS[name]["kind"]):
                assert cli.main([command, instance]) in (0, 1, 2), sink.getvalue()


def test_oracle_mismatch_exits_three(monkeypatch, capsys):
    fake = QuasiIsoReport(
        (SectorComparison((ZERO,), (1, 1), (1, 0)),)
    )
    monkeypatch.setattr(cli, "verify_quasi_iso", lambda ic: fake)
    assert run(["oracle", path_of("example-7-2-pi")]) == 3
    out = capsys.readouterr().out
    assert "result: MISMATCH" in out


def test_oracle_catches_a_broken_builder(monkeypatch, capsys):
    # A builder that forgets d on 1-forms still yields a complex (d.d = 0
    # holds trivially there), so only the full-sector oracle can catch it.
    ce_kernel = weights.ce_kernel

    def broken(g, rep):
        kernel = ce_kernel(g, rep)
        return lambda columns, p: {} if p == 1 else kernel(columns, p)

    monkeypatch.setattr(weights, "ce_kernel", broken)
    assert run(["oracle", path_of("heisenberg3")]) == 3
    out = capsys.readouterr().out
    assert "tag (): block [1, 3, 3, 1] vs full [1, 2, 2, 1] [MISMATCH]" in out
    assert "result: MISMATCH" in out


ORDER_RUNS = [
    argv
    for name, cohom in SHIPPED_COMMANDS
    for argv in (
        [cohom, name], [cohom, name, "--representatives"], ["conditions", name], ["oracle", name]
    )
]


def _run_outputs(tmp_path, capsys):
    """(exit code, stdout, stderr, --json bytes) of every ORDER_RUNS run."""
    outputs = []
    for command, name, *flags in ORDER_RUNS:
        out = tmp_path / "out.json"
        code = run([command, path_of(name), *flags, "--json", str(out)])
        captured = capsys.readouterr()
        outputs.append((code, captured.out, captured.err, out.read_bytes()))
    return outputs


def _scramble_kernel_entries(monkeypatch, scramble):
    """Make every ce_kernel call above degree 1 return its entries reversed,
    or shuffled by a seeded generator. The list returned records, per call,
    whether the order changed."""
    ce_kernel = weights.ce_kernel
    rng = random.Random(20261019)
    reordered = []

    def scrambled(g, rep):
        kernel = ce_kernel(g, rep)

        def entries(columns, p):
            out = kernel(columns, p)
            if p < 2:
                return out
            items = list(out.items())
            if scramble == "reversed":
                items.reverse()
            else:
                rng.shuffle(items)
            reordered.append(items != list(out.items()))
            return dict(items)

        return entries

    monkeypatch.setattr(weights, "ce_kernel", scrambled)
    return reordered


@pytest.mark.parametrize("scramble", ["reversed", "shuffled"])
def test_kernel_entry_order_above_degree_one_reaches_no_output(
    scramble, monkeypatch, tmp_path, capsys
):
    # ce_kernel promises entry order only at degrees 0 and 1, whose first
    # grading violation is reported. Reordering the entries of every call
    # above degree 1 must leave every output byte-identical.
    expected = _run_outputs(tmp_path, capsys)
    reordered = _scramble_kernel_entries(monkeypatch, scramble)
    assert _run_outputs(tmp_path, capsys) == expected
    assert any(reordered)


@pytest.mark.parametrize("scramble", ["reversed", "shuffled"])
def test_kernel_entry_order_above_degree_one_leaves_representatives_alone(
    scramble, monkeypatch
):
    # The shipped instances' complexes hold at most one entry per row, so
    # no output of theirs can show a pivot that follows row order. With
    # adjoint coefficients rows hold up to three, and the representatives
    # of the whole complex must not move either.
    def classes(g):
        rep = adjoint_representation(g)
        ic = weights.build_invariant_complex(g, rep, weights.infer_weights(g, rep))
        result = cohomology(
            weights.restrict_complex(ic, range(len(ic.tag_table))), representatives=True
        )
        return result.betti, [[sorted(v.items()) for v in vs] for vs in result.representatives]

    algebras = [make_heisenberg(), make_split_6d_plus_heisenberg()]
    expected = [classes(g) for g in algebras]
    reordered = _scramble_kernel_entries(monkeypatch, scramble)
    assert [classes(g) for g in algebras] == expected
    assert any(reordered)


def test_missing_subcommand_is_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        run([])
    assert exc.value.code == 2
    capsys.readouterr()


@pytest.mark.parametrize(
    "expected", sorted(p.name for p in EXPECTED_DIR.glob("*.json"))
)
def test_json_output_matches_frozen_snapshot(expected, tmp_path, capsys):
    name, command, _ = expected.rsplit(".", 2)
    out = tmp_path / "out.json"
    code = run([command, path_of(name), "--json", str(out)])
    capsys.readouterr()
    assert code == 0
    assert out.read_bytes() == (EXPECTED_DIR / expected).read_bytes()


@pytest.mark.parametrize("name", [name for name, _ in SHIPPED_COMMANDS])
def test_oracle_reports_survive_optimize_flag(name, tmp_path):
    # -O strips asserts; the kernel and d.d certificates are raises, and
    # the reports stay byte for byte the frozen ones.
    out = tmp_path / "out.json"
    proc = subprocess.run(
        [sys.executable, "-O", "-m", "solvcohom.cli", "oracle", path_of(name), "--json", str(out)],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0, proc.stderr
    assert out.read_bytes() == (EXPECTED_DIR / f"{name}.oracle.json").read_bytes()


def test_json_output_is_byte_deterministic(tmp_path, capsys):
    first = tmp_path / "first.json"
    second = tmp_path / "second.json"
    run(["derham", path_of("example-7-1-pi"), "--json", str(first)])
    run(["derham", path_of("example-7-1-pi"), "--json", str(second)])
    capsys.readouterr()
    data = first.read_bytes()
    assert data == second.read_bytes()
    assert data.endswith(b"\n")
    payload = json.loads(data)
    assert payload["betti"] == [0, 6, 14, 12, 8, 6, 2]
    assert payload["kept_dimensions"] == [2, 12, 26, 32, 26, 12, 2]


def test_representatives_output(tmp_path, capsys):
    out = tmp_path / "reps.json"
    code = run(
        ["derham", path_of("heisenberg3"), "--representatives", "--json", str(out)]
    )
    text = capsys.readouterr().out
    assert code == 0
    assert "H^1 representatives:" in text
    assert "x* (x) 1" in text
    payload = json.loads(out.read_text())
    degree_one = payload["representatives"][1]
    labels = {term[0] for cls in degree_one for term in cls}
    assert labels == {"x* (x) 1", "y* (x) 1"}


SNAPSHOT_DIR = pathlib.Path(__file__).resolve().parent / "snapshots"


@pytest.mark.parametrize("name,cohom", SHIPPED_COMMANDS)
def test_representatives_match_frozen_snapshot(name, cohom, tmp_path, capsys):
    # Stdout and the --json report of --representatives, byte for byte.
    out = tmp_path / "reps.json"
    code = run([cohom, path_of(name), "--representatives", "--json", str(out)])
    text = capsys.readouterr().out
    assert code == 0
    assert text == (SNAPSHOT_DIR / f"{name}.{cohom}.txt").read_text()
    assert out.read_bytes() == (SNAPSHOT_DIR / f"{name}.{cohom}.json").read_bytes()


@pytest.mark.parametrize(
    "name,command",
    [
        (name, command)
        for name, cohom in SHIPPED_COMMANDS
        for command in ("validate", cohom, "conditions", "oracle", "nilshadow")
    ],
)
def test_stdout_matches_frozen_snapshot(name, command, capsys):
    assert run([command, path_of(name)]) == 0
    captured = capsys.readouterr()
    assert captured.out == (SNAPSHOT_DIR / "stdout" / f"{name}.{command}.txt").read_text()
    assert captured.err == ""


@pytest.mark.parametrize("name,cohom", SHIPPED_COMMANDS)
def test_commands_leave_the_bracket_table_unchanged(name, cohom, monkeypatch, capsys):
    # Every command reads the algebra it loaded and must leave its bracket
    # table as it was.
    loaded = []

    def recording_load(path):
        inst = load_instance(path)
        loaded.append((inst.algebra, inst.algebra.bracket_table()))
        return inst

    monkeypatch.setattr(cli, "load_instance", recording_load)
    commands = [["validate"], [cohom], [cohom, "--representatives"],
                ["conditions"], ["oracle"], ["nilshadow"]]
    for command, *flags in commands:
        assert run([command, path_of(name), *flags]) == 0
    assert len(loaded) == len(commands)
    for algebra, table in loaded:
        assert algebra.bracket_table() == table


# A nilpotent algebra whose shadow is itself, with a two-term bracket.
TWO_TERM = {
    "name": "two-term",
    "kind": "derham",
    "algebra": {"dim": 4, "basis": ["x", "y", "z", "w"],
                "brackets": [["x", "y", "z", "1"], ["x", "y", "w", "-1/2+i"]],
                "nilradical": ["x", "y", "z", "w"], "complement": []},
    "representation": {"trivial": True},
    "weights": {"infer": True},
    "lattice": {"symbols": [], "generators": []},
}


def test_nilshadow_joins_the_terms_of_one_bracket(tmp_path, capsys):
    assert _run_doc(TWO_TERM, "nilshadow", tmp_path, capsys) == (
        0,
        "nilshadow of 'two-term'\n"
        "  [x, y] = (1)*z + (-1/2+i)*w\n"
        "  lower central series dims: [4, 1, 0]\n",
        {
            "command": "nilshadow",
            "instance": "two-term",
            "basis": ["x", "y", "z", "w"],
            "brackets": [["x", "y", "z", "1"], ["x", "y", "w", "-1/2+i"]],
            "lower_central_series": [4, 1, 0],
        },
    )


def test_a_basis_not_adapted_to_the_nilradical_keeps_the_heisenberg_betti_numbers(
    tmp_path, capsys
):
    path = tmp_path / "skewed.json"
    path.write_text(json.dumps(SKEWED_HEISENBERG))
    assert run(["validate", str(path)]) == 0
    assert capsys.readouterr().out == "instance 'heisenberg3-skewed': valid\n"
    assert run(["derham", str(path), "--representatives"]) == 0
    assert capsys.readouterr().out == (
        "twisted de Rham cohomology of 'heisenberg3-skewed'\n"
        "  degree  invariant dim  kept dim  betti\n"
        "  0       1              1         1\n"
        "  1       3              3         2\n"
        "  2       3              3         2\n"
        "  3       1              1         1\n"
        "Euler characteristic: 0\n"
        "H^0 representatives:\n"
        "  1 (x) 1\n"
        "H^1 representatives:\n"
        "  x* (x) 1\n"
        "  y* (x) 1 + z* (x) 1\n"
        "H^2 representatives:\n"
        "  x*^y* (x) 1\n"
        "  y*^z* (x) 1\n"
        "H^3 representatives:\n"
        "  x*^y*^z* (x) 1\n"
    )
    assert run(["oracle", str(path)]) == 0
    assert capsys.readouterr().out == (
        "sector-by-sector oracle for 'heisenberg3-skewed'\n"
        "  tag (): block [1, 2, 2, 1] vs full [1, 2, 2, 1] [ok]\n"
        "result: agree\n"
    )


def test_representative_terms_print_their_coefficients(tmp_path, capsys):
    # A coefficient 1 prints as the bare label, -1 as a sign and any other
    # as (c)*label. heisenberg3 with adjoint coefficients has -1 terms, and
    # in the basis x, y, y + z a term with coefficient -2.
    path = tmp_path / "adjoint.json"
    path.write_text(json.dumps({
        **json.loads((INSTANCE_DIR / "heisenberg3.json").read_text()),
        "representation": {"adjoint": True},
    }))
    assert run(["derham", str(path), "--representatives"]) == 0
    assert capsys.readouterr().out == (
        "twisted de Rham cohomology of 'heisenberg3'\n"
        "  degree  invariant dim  kept dim  betti\n"
        "  0       3              3         1\n"
        "  1       9              9         4\n"
        "  2       9              9         5\n"
        "  3       3              3         2\n"
        "Euler characteristic: 0\n"
        "H^0 representatives:\n"
        "  1 (x) z\n"
        "H^1 representatives:\n"
        "  x* (x) y\n"
        "  y* (x) x\n"
        "  -x* (x) x + y* (x) y\n"
        "  x* (x) x + z* (x) z\n"
        "H^2 representatives:\n"
        "  x*^y* (x) x\n"
        "  x*^y* (x) y\n"
        "  x*^z* (x) y\n"
        "  y*^z* (x) x\n"
        "  -x*^z* (x) x + y*^z* (x) y\n"
        "H^3 representatives:\n"
        "  x*^y*^z* (x) x\n"
        "  x*^y*^z* (x) y\n"
    )
    path.write_text(json.dumps({**SKEWED_HEISENBERG, "representation": {"adjoint": True}}))
    assert run(["derham", str(path), "--representatives"]) == 0
    assert capsys.readouterr().out == (
        "twisted de Rham cohomology of 'heisenberg3-skewed'\n"
        "  degree  invariant dim  kept dim  betti\n"
        "  0       3              3         1\n"
        "  1       9              9         4\n"
        "  2       9              9         5\n"
        "  3       3              3         2\n"
        "Euler characteristic: 0\n"
        "H^0 representatives:\n"
        "  -1 (x) y + 1 (x) z\n"
        "H^1 representatives:\n"
        "  x* (x) y\n"
        "  x* (x) x + y* (x) y + -y* (x) z\n"
        "  y* (x) x + z* (x) x\n"
        "  (-2)*x* (x) x + y* (x) z + z* (x) y\n"
        "H^2 representatives:\n"
        "  x*^y* (x) y\n"
        "  x*^y* (x) z\n"
        "  x*^y* (x) x + x*^z* (x) x\n"
        "  y*^z* (x) x\n"
        "  x*^y* (x) x + y*^z* (x) y\n"
        "H^3 representatives:\n"
        "  x*^y*^z* (x) x\n"
        "  x*^y*^z* (x) y\n"
    )


def test_validate_pins_homomorphism_failures_in_pair_order(tmp_path, capsys):
    # x -> E12, y -> E23, z -> E13 keeps [x, y] = z; w -> 0 breaks
    # [x, w] = z and [y, w] = 2z.
    doc = {
        **TWO_TERM,
        "name": "two-pairs",
        "algebra": {"dim": 4, "basis": ["x", "y", "z", "w"],
                    "brackets": [["x", "y", "z", "1"], ["x", "w", "z", "1"],
                                 ["y", "w", "z", "2"]],
                    "nilradical": ["x", "y", "z", "w"], "complement": []},
        "representation": {"dim": 3, "matrices": {
            "x": [["0", "1", "0"], ["0", "0", "0"], ["0", "0", "0"]],
            "y": [["0", "0", "0"], ["0", "0", "1"], ["0", "0", "0"]],
            "z": [["0", "0", "1"], ["0", "0", "0"], ["0", "0", "0"]],
        }},
    }
    # The commands that need a valid instance print and write validate's
    # report, under their own name.
    for command in ("validate", "derham", "conditions", "oracle", "nilshadow"):
        assert _run_doc(doc, command, tmp_path, capsys) == (
            1,
            "instance 'two-pairs': 2 issue(s)\n"
            "  [rep-homomorphism] [R(x),R(w)] != R([x,w])\n"
            "  [rep-homomorphism] [R(y),R(w)] != R([y,w])\n",
            {
                "command": command,
                "instance": "two-pairs",
                "ok": False,
                "issues": [
                    {"code": "rep-homomorphism", "message": "[R(x),R(w)] != R([x,w])",
                     "witness": [0, 3]},
                    {"code": "rep-homomorphism", "message": "[R(y),R(w)] != R([y,w])",
                     "witness": [1, 3]},
                ],
            },
        )
        (tmp_path / "out.json").unlink()


def test_dolbeault_prints_hodge_numbers(capsys):
    assert run(["dolbeault", path_of("torus-complex-n3")]) == 0
    out = capsys.readouterr().out
    assert "Hodge numbers" in out


def test_validate_json_payload(tmp_path, capsys):
    out = tmp_path / "v.json"
    assert run(["validate", path_of("heisenberg3"), "--json", str(out)]) == 0
    capsys.readouterr()
    payload = json.loads(out.read_text())
    assert payload == {
        "command": "validate",
        "instance": "heisenberg3",
        "ok": True,
        "issues": [],
    }


def test_console_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "solvcohom.cli", "validate", path_of("heisenberg3")],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert "valid" in proc.stdout



COMMANDS = ("validate", "derham", "dolbeault", "conditions", "oracle", "nilshadow")

REFUSE_SYMPY = textwrap.dedent(
    """
    import contextlib
    import io
    import sys
    from importlib.abc import MetaPathFinder

    class RefuseSympy(MetaPathFinder):
        def find_spec(self, name, path, target=None):
            if name.split(".")[0] == "sympy":
                raise ImportError(f"{name} is refused")
            return None

    sys.meta_path.insert(0, RefuseSympy())
    from solvcohom import cli

    path, commands = sys.argv[1], sys.argv[2:]
    for command in commands:
        with contextlib.redirect_stdout(io.StringIO()), \\
                contextlib.redirect_stderr(io.StringIO()):
            print(command, cli.main([command, path]), file=sys.__stdout__)
    print("sympy loaded:", "sympy" in sys.modules)
    """
)


@pytest.mark.parametrize(
    "name,wrong_kind", [("example-7-1-pi", "dolbeault"), ("torus-complex-n3", "derham")]
)
def test_commands_run_without_sympy(name, wrong_kind):
    proc = subprocess.run(
        [sys.executable, "-c", REFUSE_SYMPY, path_of(name), *COMMANDS],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0, proc.stderr
    expected = [f"{c} {1 if c == wrong_kind else 0}" for c in COMMANDS]
    assert proc.stdout.splitlines() == expected + ["sympy loaded: False"]


def test_every_public_name_resolves():
    missing = [name for name in solvcohom.__all__ if not hasattr(solvcohom, name)]
    assert missing == []
