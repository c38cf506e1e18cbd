"""Instance files: the JSON surface of the package.

Every scalar is a string in the exact grammar ("1/2-3*i" for Q(i),
"a + 2*i*pi" for period values); nothing in an instance file is ever a
float. The ground mode is implied by the kind: "derham" instances are
real-complexified, "dolbeault" instances are complex.

Structural problems raise InstanceParseError (CLI exit code 2): among
them a file that is not UTF-8, JSON nested too deeply to parse, a
number with more digits than Python converts to an integer, a scalar
that is not a JSON string (named in JSON spelling), every
key that names no basis vector, a flag ("trivial", "adjoint", "infer")
that is not a JSON boolean, a dim given as true or false, a
bracket entry [x, y, z, c] whose (x, y, z) repeats an earlier one, and
a representation weight list whose length is not the module dimension.
Mathematical violations are reported by validate_instance (exit code
1). The package only reads instance files; the canonical writer that
the shipped files are checked against is a test reference
(tests/emit_reference.py).
"""
from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from typing import Optional

from .cecomplex import Weight
from .errors import InstanceParseError, ValidationFailure
from .liealg import (
    MODE_COMPLEX,
    MODE_REAL,
    LieAlgebraData,
    RepresentationData,
    ValidationIssue,
    adjoint_representation,
    trivial_representation,
    validate_algebra,
    validate_representation,
)
from .lattice import LatticeData, declared_symbols, parse_period, period_names, validate_lattice
from .linalg import ExactMatrix
from .scalars import ZERO, parse_gaussian
from .weights import WeightAssignment, infer_weights, validate_weight_assignment

KIND_DERHAM = "derham"
KIND_DOLBEAULT = "dolbeault"


@dataclass(frozen=True)
class RepresentationSpec:
    kind: str  # "trivial" | "adjoint" | "explicit"
    m: int = 1
    matrices: tuple[ExactMatrix, ...] = ()
    weights: Optional[tuple[Weight, ...]] = None


@dataclass(frozen=True)
class WeightsSpec:
    infer: bool
    algebra: Optional[tuple[Weight, ...]] = None
    representation: Optional[tuple[Weight, ...]] = None


@dataclass(frozen=True)
class InstanceFile:
    name: str
    kind: str
    algebra: LieAlgebraData
    representation: RepresentationSpec
    weights: WeightsSpec
    lattice: LatticeData


def _expect(mapping, key, context):
    if not isinstance(mapping, dict) or key not in mapping:
        raise InstanceParseError(f"missing {key!r} in {context}")
    return mapping[key]


def _expect_list(value, what):
    if not isinstance(value, list):
        raise InstanceParseError(f"{what} must be a list")
    return value


def _expect_object(value, what):
    if not isinstance(value, dict):
        raise InstanceParseError(f"{what} must be an object")
    return value


def _flag(block: dict, key: str, what: str) -> bool:
    """A JSON boolean flag of a block; an absent key is false."""
    value = block.get(key, False)
    if not isinstance(value, bool):
        raise InstanceParseError(f"{what} {key} must be true or false")
    return value


def _text(value, what: str) -> str:
    """A scalar's text: JSON gives every scalar as a string."""
    if not isinstance(value, str):
        raise InstanceParseError(f"{what} must be a string, not {json.dumps(value)}")
    return value


def _name_index(basis: tuple[str, ...], name, context) -> int:
    if name not in basis:
        raise InstanceParseError(f"unknown basis name {name!r} in {context}")
    return basis.index(name)


def _name_list(basis: tuple[str, ...], alg, key) -> list[int]:
    indices = []
    for name in _expect_list(_expect(alg, key, "algebra"), key):
        i = _name_index(basis, name, key)
        if i in indices:
            raise InstanceParseError(f"repeated basis name {name!r} in {key}")
        indices.append(i)
    return indices


def _parse_weight(
    data, complement: tuple[int, ...], basis: tuple[str, ...], context
) -> Weight:
    if not isinstance(data, dict):
        raise InstanceParseError(f"weight covector in {context} must be an object")
    coords = [ZERO] * len(complement)
    by_name = {basis[j]: pos for pos, j in enumerate(complement)}
    for name, text in data.items():
        if name not in by_name:
            raise InstanceParseError(
                f"{name!r} is not a complement coordinate in {context}"
            )
        coords[by_name[name]] = parse_gaussian(
            _text(text, f"weight coordinate {name!r} in {context}")
        )
    return tuple(coords)


def parse_instance(data: dict) -> InstanceFile:
    if not isinstance(data, dict):
        raise InstanceParseError("instance file must be a JSON object")
    kind = _expect(data, "kind", "instance")
    if kind not in (KIND_DERHAM, KIND_DOLBEAULT):
        raise InstanceParseError(f"unknown kind {kind!r}")
    name = str(data.get("name", ""))

    alg = _expect(data, "algebra", "instance")
    dim = _expect(alg, "dim", "algebra")
    basis = tuple(
        str(b) for b in _expect_list(_expect(alg, "basis", "algebra"), "algebra basis")
    )
    # type(), not isinstance: JSON true is a bool, and bool is an int.
    if type(dim) is not int or len(basis) != dim:
        raise InstanceParseError("algebra dim and basis list disagree")
    brackets = []
    seen = set()
    for entry in _expect_list(alg.get("brackets", []), "algebra brackets"):
        if not isinstance(entry, (list, tuple)) or len(entry) != 4:
            raise InstanceParseError(f"bad bracket entry {entry!r}")
        i = _name_index(basis, entry[0], "brackets")
        j = _name_index(basis, entry[1], "brackets")
        k = _name_index(basis, entry[2], "brackets")
        if (i, j, k) in seen:
            raise InstanceParseError(
                f"repeated bracket entry [{basis[i]}, {basis[j]}, {basis[k]}]"
            )
        seen.add((i, j, k))
        coeff = _text(entry[3], f"bracket coefficient of [{basis[i]}, {basis[j]}, {basis[k]}]")
        brackets.append((i, j, k, parse_gaussian(coeff)))
    nilradical = _name_list(basis, alg, "nilradical")
    complement = _name_list(basis, alg, "complement")
    conjugation = None
    if "conjugation" in alg:
        raw = alg["conjugation"]
        if not isinstance(raw, dict):
            raise InstanceParseError("conjugation must be an object")
        sigma: dict[int, int] = {}
        for a, b in raw.items():
            ia = _name_index(basis, a, "conjugation")
            ib = _name_index(basis, b, "conjugation")
            for x, y in ((ia, ib), (ib, ia)):
                if sigma.setdefault(x, y) != y:
                    raise InstanceParseError(
                        f"conjugation maps {basis[x]} inconsistently"
                    )
        for i in range(dim):
            sigma.setdefault(i, i)
        conjugation = sigma
    mode = MODE_REAL if kind == KIND_DERHAM else MODE_COMPLEX
    try:
        algebra = LieAlgebraData(
            dim, basis, brackets, nilradical, complement, conjugation, mode
        )
    except ValidationFailure as exc:
        raise InstanceParseError(str(exc)) from exc

    rep_spec = _parse_representation(
        data.get("representation", {"trivial": True}), algebra
    )
    weights_spec = _parse_weights(
        data.get("weights", {"infer": True}), algebra, rep_spec.m
    )
    lattice = _parse_lattice(_expect(data, "lattice", "instance"), algebra)
    return InstanceFile(name, kind, algebra, rep_spec, weights_spec, lattice)


def _parse_representation(data, g: LieAlgebraData) -> RepresentationSpec:
    if not isinstance(data, dict):
        raise InstanceParseError("representation block must be an object")
    trivial = _flag(data, "trivial", "representation")
    adjoint = _flag(data, "adjoint", "representation")
    if trivial:
        return RepresentationSpec("trivial")
    if adjoint:
        return RepresentationSpec("adjoint", m=g.dim)
    m = _expect(data, "dim", "representation")
    if type(m) is not int or m < 1:
        raise InstanceParseError("representation dim must be a positive integer")
    raw = _expect_object(data.get("matrices", {}), "representation matrices")
    for name in raw:
        _name_index(g.basis, name, "representation matrices")
    matrices = []
    for j in range(g.dim):
        if g.basis[j] not in raw:
            matrices.append(ExactMatrix.zero(m, m))
            continue
        rows = raw[g.basis[j]]
        if not (
            isinstance(rows, list)
            and len(rows) == m
            and all(isinstance(r, list) and len(r) == m for r in rows)
        ):
            raise InstanceParseError(
                f"matrix for {g.basis[j]} must be {m}x{m}"
            )
        # "0" skips the parser; every zero is dropped.
        what = f"matrix entry of {g.basis[j]}"
        row_maps = tuple(
            {c: v for c, e in enumerate(row) if e != "0" and (v := parse_gaussian(_text(e, what)))}
            for row in rows
        )
        matrices.append(ExactMatrix(m, m, row_maps))
    weights = None
    if "weights" in data:
        weights = _parse_rep_weights(data["weights"], g, m, "representation weights")
    return RepresentationSpec("explicit", m, tuple(matrices), weights)


def _parse_rep_weights(raw, g: LieAlgebraData, m: int, what: str) -> tuple[Weight, ...]:
    """One weight covector per module basis vector, m of them."""
    weights = tuple(
        _parse_weight(wd, g.complement, g.basis, "representation weights")
        for wd in _expect_list(raw, what)
    )
    if len(weights) != m:
        raise InstanceParseError("need one representation weight per basis vector")
    return weights


def _parse_weights(data, g: LieAlgebraData, m: int) -> WeightsSpec:
    if not isinstance(data, dict):
        raise InstanceParseError("weights block must be an object")
    if _flag(data, "infer", "weights"):
        return WeightsSpec(infer=True)
    alg_raw = _expect_object(_expect(data, "algebra", "weights"), "weights algebra")
    for name in alg_raw:
        _name_index(g.basis, name, "weights algebra")
    weights = []
    for i in range(g.dim):
        weights.append(
            _parse_weight(
                alg_raw.get(g.basis[i], {}), g.complement, g.basis, "algebra weights"
            )
        )
    rep_weights = None
    if "representation" in data:
        rep_weights = _parse_rep_weights(
            data["representation"], g, m, "weights representation"
        )
    return WeightsSpec(False, tuple(weights), rep_weights)


def _parse_lattice(data, g: LieAlgebraData) -> LatticeData:
    if not isinstance(data, dict):
        raise InstanceParseError("lattice block must be an object")
    try:
        # A generator, so each declaration's own errors come in declaration order.
        symbols = declared_symbols(
            (
                str(_expect(sd, "name", "symbol declaration")),
                str(_expect(sd, "parity", "symbol declaration")),
            )
            for sd in _expect_list(data.get("symbols", []), "lattice symbols")
        )
    except ValidationFailure as exc:
        raise InstanceParseError(str(exc)) from exc
    names = period_names(symbols)
    generators = []
    for gen in _expect_list(data.get("generators", []), "lattice generators"):
        if not isinstance(gen, dict):
            raise InstanceParseError("each generator must be an object")
        coords = []
        for j in g.complement:
            text = _text(gen.get(g.basis[j], "0"), f"generator coordinate {g.basis[j]!r}")
            coords.append(parse_period(text, names))
        for key in gen:
            if key not in {g.basis[j] for j in g.complement}:
                raise InstanceParseError(
                    f"generator coordinate {key!r} is not a complement name"
                )
        generators.append(tuple(coords))
    return LatticeData(symbols, tuple(generators))


def load_instance(path: str | Path) -> InstanceFile:
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise InstanceParseError(f"cannot read {path}: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise InstanceParseError(f"{path} is not UTF-8: {exc}") from exc
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise InstanceParseError(f"invalid JSON in {path}: {exc}") from exc
    except ValueError as exc:
        # An integer longer than int() converts (sys.get_int_max_str_digits()).
        raise InstanceParseError(f"unreadable number in {path}: {exc}") from exc
    except RecursionError as exc:
        raise InstanceParseError(f"JSON nested too deeply in {path}") from exc
    return parse_instance(data)


# ---------------------------------------------------------------------------
# Resolution into pipeline objects.


def build_representation(inst: InstanceFile) -> RepresentationData:
    spec = inst.representation
    if spec.kind == "trivial":
        return trivial_representation(inst.algebra)
    if spec.kind == "adjoint":
        return adjoint_representation(inst.algebra)
    return RepresentationData(spec.m, spec.matrices, spec.weights)


def build_weight_assignment(
    inst: InstanceFile, rep: RepresentationData
) -> WeightAssignment:
    g = inst.algebra
    spec = inst.weights
    if spec.infer:
        return infer_weights(g, rep)
    rep_weights = spec.representation
    if rep_weights is None:
        if inst.representation.kind == "adjoint":
            rep_weights = spec.algebra
        elif rep.rep_weights is not None:
            rep_weights = rep.rep_weights
        else:
            raise InstanceParseError(
                "explicit weights for an explicit representation need a "
                "'representation' weight list"
            )
    return WeightAssignment(spec.algebra, rep_weights, g.complement)


def validate_instance(inst: InstanceFile) -> tuple[ValidationIssue, ...]:
    """The issues of all structural validators, in one tuple."""
    issues = list(validate_algebra(inst.algebra))
    rep_ok = True
    try:
        rep = build_representation(inst)
    except ValidationFailure as exc:
        issues.append(ValidationIssue("rep-shape", str(exc)))
        rep_ok = False
    if rep_ok:
        issues.extend(validate_representation(inst.algebra, rep))
        if not inst.weights.infer:
            try:
                w = build_weight_assignment(inst, rep)
                issues.extend(validate_weight_assignment(inst.algebra, rep, w))
            except (ValidationFailure, InstanceParseError) as exc:
                issues.append(ValidationIssue("weights-shape", str(exc)))
    issues.extend(validate_lattice(inst.algebra, inst.lattice))
    return tuple(issues)
