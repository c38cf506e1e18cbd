import copy
import dataclasses
import json

import pytest
from conftest import INSTANCE_DIR
from emit_reference import emit_instance

from solvcohom.errors import InstanceParseError, ScalarParseError
from solvcohom.instances import (
    RepresentationSpec,
    build_representation,
    build_weight_assignment,
    load_instance,
    parse_instance,
    validate_instance,
)
from solvcohom.liealg import MODE_COMPLEX, MODE_REAL, ValidationIssue
from solvcohom.linalg import ExactMatrix
from solvcohom.scalars import ONE, ZERO, GaussianRational
from solvcohom.weights import infer_weights

SHIPPED = (
    "heisenberg3",
    "torus-complex-n3",
    "example-7-1-pi",
    "example-7-1-generic",
    "example-7-2-pi",
    "example-7-2-generic",
)


def shipped(name):
    return load_instance(INSTANCE_DIR / f"{name}.json")


def minimal():
    # Two-dimensional split algebra, small enough to mutate per test.
    return {
        "name": "tiny",
        "kind": "derham",
        "algebra": {
            "dim": 2,
            "basis": ["x", "y"],
            "brackets": [["x", "y", "y", "1"]],
            "nilradical": ["y"],
            "complement": ["x"],
        },
        "representation": {"trivial": True},
        "weights": {"infer": True},
        "lattice": {"symbols": [], "generators": []},
    }


@pytest.mark.parametrize("name", SHIPPED)
def test_shipped_instances_parse_and_validate(name):
    inst = shipped(name)
    assert inst.name == name
    assert validate_instance(inst) == ()


@pytest.mark.parametrize("name", SHIPPED)
def test_shipped_instances_round_trip(name):
    inst = shipped(name)
    again = parse_instance(emit_instance(inst))
    assert again == inst
    # Emission is stable: emitting the reparse gives the same document.
    assert emit_instance(again) == emit_instance(inst)


def test_kind_sets_ground_mode():
    assert shipped("heisenberg3").algebra.mode == MODE_REAL
    assert shipped("example-7-2-pi").algebra.mode == MODE_COMPLEX


def test_parse_minimal():
    inst = parse_instance(minimal())
    assert inst.algebra.dim == 2
    assert inst.algebra.complement == (0,)
    assert inst.representation.kind == "trivial"
    assert inst.weights.infer
    assert validate_instance(inst) == ()


def test_missing_kind():
    data = minimal()
    del data["kind"]
    with pytest.raises(InstanceParseError, match="kind"):
        parse_instance(data)


def test_unknown_kind():
    data = minimal()
    data["kind"] = "singular"
    with pytest.raises(InstanceParseError, match="singular"):
        parse_instance(data)


def test_not_an_object():
    with pytest.raises(InstanceParseError):
        parse_instance(["not", "an", "object"])


def test_dim_basis_disagreement():
    data = minimal()
    data["algebra"]["dim"] = 3
    with pytest.raises(InstanceParseError, match="disagree"):
        parse_instance(data)


def test_unknown_basis_name_in_brackets():
    data = minimal()
    data["algebra"]["brackets"] = [["x", "z", "y", "1"]]
    with pytest.raises(InstanceParseError, match="'z'"):
        parse_instance(data)


def test_bad_bracket_arity():
    data = minimal()
    data["algebra"]["brackets"] = [["x", "y", "y"]]
    with pytest.raises(InstanceParseError, match="bracket"):
        parse_instance(data)


def test_bad_scalar_in_bracket():
    data = minimal()
    data["algebra"]["brackets"] = [["x", "y", "y", "1..0"]]
    with pytest.raises(ScalarParseError):
        parse_instance(data)


def test_missing_lattice():
    data = minimal()
    del data["lattice"]
    with pytest.raises(InstanceParseError, match="lattice"):
        parse_instance(data)


def test_inconsistent_conjugation():
    data = minimal()
    data["algebra"]["conjugation"] = {"x": "y", "y": "x"}
    parse_instance(data)  # a swap is fine
    data["algebra"]["conjugation"] = {"x": "x", "y": "x"}
    with pytest.raises(InstanceParseError, match="inconsistently"):
        parse_instance(data)


def test_conjugation_defaults_to_identity_on_unlisted():
    data = minimal()
    data["algebra"]["conjugation"] = {}
    inst = parse_instance(data)
    assert inst.algebra.conjugation == {0: 0, 1: 1}


def test_wrong_matrix_size():
    data = minimal()
    data["representation"] = {
        "dim": 2,
        "matrices": {"x": [["1", "0"], ["0", "1"], ["0", "0"]]},
    }
    with pytest.raises(InstanceParseError, match="2x2"):
        parse_instance(data)


def test_omitted_matrices_are_zero():
    data = minimal()
    data["representation"] = {"dim": 2, "matrices": {}}
    inst = parse_instance(data)
    assert all(m.is_zero() for m in inst.representation.matrices)
    assert len(inst.representation.matrices) == 2


@pytest.mark.parametrize("zero", ["0", "0/3"])
def test_zero_matrix_entries_load_as_zero(zero):
    data = minimal()
    data["representation"] = {"dim": 2, "matrices": {"x": [[zero, "1"], [zero, "-1/2"]]}}
    (m, _) = parse_instance(data).representation.matrices
    assert m.row_maps == ({1: ONE}, {1: GaussianRational(-1) / GaussianRational(2)})


@pytest.mark.parametrize(
    "entry,message",
    [
        ("1/0+i", r"^zero denominator in '1/0\+i'$"),
        ("1/2+3x", r"^not a rational literal: '1/2\+3x'$"),
    ],
)
def test_scalar_errors_name_the_whole_literal(entry, message):
    data = minimal()
    data["representation"] = {"dim": 1, "matrices": {"x": [[entry]]}}
    with pytest.raises(ScalarParseError, match=message):
        parse_instance(data)


def test_non_complement_weight_coordinate():
    data = minimal()
    data["weights"] = {"algebra": {"y": {"y": "1"}}}
    with pytest.raises(InstanceParseError, match="complement"):
        parse_instance(data)


def test_unknown_generator_key():
    data = minimal()
    data["lattice"]["generators"] = [{"y": "1"}]
    with pytest.raises(InstanceParseError, match="complement name"):
        parse_instance(data)


def test_bad_symbol_parity():
    data = minimal()
    data["lattice"]["symbols"] = [{"name": "a", "parity": "sideways"}]
    with pytest.raises(InstanceParseError, match="parity"):
        parse_instance(data)


def test_load_instance_errors(tmp_path):
    missing = tmp_path / "nope.json"
    with pytest.raises(InstanceParseError, match="cannot read"):
        load_instance(missing)
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    with pytest.raises(InstanceParseError, match="invalid JSON"):
        load_instance(bad)


def test_build_representation_kinds():
    inst = parse_instance(minimal())
    rep = build_representation(inst)
    assert rep.m == 1 and all(m.is_zero() for m in rep.matrices)

    data = minimal()
    data["representation"] = {"adjoint": True}
    rep = build_representation(parse_instance(data))
    assert rep.m == 2 and rep.adjoint

    data = minimal()
    data["representation"] = {"dim": 2, "matrices": {"x": [["0", "1"], ["0", "0"]]}}
    rep = build_representation(parse_instance(data))
    assert rep.m == 2
    assert rep.matrices[0].row_maps[0].get(1, ZERO) == ONE


def test_build_weight_assignment_paths():
    inst = parse_instance(minimal())
    w = build_weight_assignment(inst, build_representation(inst))
    assert w == infer_weights(inst.algebra, build_representation(inst))

    # Explicit algebra weights with an adjoint module reuse them.
    data = minimal()
    data["representation"] = {"adjoint": True}
    data["weights"] = {"algebra": {"y": {"x": "1"}}}
    inst = parse_instance(data)
    w = build_weight_assignment(inst, build_representation(inst))
    assert w.algebra_weights == ((ZERO,), (ONE,))
    assert w.rep_weights == w.algebra_weights

    # Trivial module gets the zero weight.
    data = minimal()
    data["weights"] = {"algebra": {"y": {"x": "1"}}}
    inst = parse_instance(data)
    w = build_weight_assignment(inst, build_representation(inst))
    assert w.rep_weights == ((ZERO,),)

    # An explicit module with explicit weights must list them somewhere.
    data = minimal()
    data["representation"] = {"dim": 1, "matrices": {}}
    data["weights"] = {"algebra": {"y": {"x": "1"}}}
    inst = parse_instance(data)
    with pytest.raises(InstanceParseError, match="weight list"):
        build_weight_assignment(inst, build_representation(inst))
    data["weights"]["representation"] = [{"x": "2"}]
    inst = parse_instance(data)
    w = build_weight_assignment(inst, build_representation(inst))
    assert w.rep_weights == ((GaussianRational(2),),)


def test_validate_instance_reports_bad_nilradical():
    data = minimal()
    data["algebra"]["brackets"] = [["x", "y", "x", "1"]]
    issues = validate_instance(parse_instance(data))
    assert "nilradical-ideal" in [i.code for i in issues]


def test_validate_instance_weights_shape_issue():
    data = minimal()
    data["representation"] = {"dim": 1, "matrices": {}}
    data["weights"] = {"algebra": {"y": {"x": "1"}}}
    issues = validate_instance(parse_instance(data))
    assert "weights-shape" in [i.code for i in issues]


def test_validate_instance_reports_a_module_it_cannot_build():
    # The parser makes every matrix m x m, so only a library caller can
    # hand over a representation that RepresentationData refuses; the
    # module's own checks are then skipped.
    inst = parse_instance(minimal())
    assert validate_instance(inst) == ()
    spec = RepresentationSpec("explicit", 1, (ExactMatrix.zero(2, 2),) * 2)
    assert validate_instance(dataclasses.replace(inst, representation=spec)) == (
        ValidationIssue("rep-shape", "representation matrix has wrong shape"),
    )


def test_emit_omits_zero_coordinates():
    inst = shipped("example-7-2-pi")
    doc = emit_instance(inst)
    for gen in doc["lattice"]["generators"]:
        assert all(v != "0" for v in gen.values())
    names = {s["name"] for s in doc["lattice"]["symbols"]}
    assert names == {"a", "c"}


def test_deep_copy_of_document_parses_identically():
    data = minimal()
    assert parse_instance(copy.deepcopy(data)) == parse_instance(data)


def test_shipped_files_are_canonical():
    # The on-disk documents equal their own canonical emission, so the
    # repository never drifts from the writer.
    for name in SHIPPED:
        path = INSTANCE_DIR / f"{name}.json"
        on_disk = json.loads(path.read_text())
        assert emit_instance(parse_instance(on_disk)) == on_disk, name
