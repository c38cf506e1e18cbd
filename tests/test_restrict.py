import dataclasses

import pytest
from ce_reference import ce_differential, monomial_label
from conftest import (
    INSTANCE_DIR,
    char_trivial_on_lattice,
    kept_indices,
    make_heisenberg_power,
    make_split_6d_plus_heisenberg,
    ratio_char_trivial_on_lattice,
)
from restrict_reference import SelectionClosureError, reference_restrict_complex
from subset_reference import degree_basis

from solvcohom import cli, weights
from solvcohom.cecomplex import FiniteComplex, cohomology
from solvcohom.errors import ValidationFailure, WeightGradingError
from solvcohom.instances import build_representation, build_weight_assignment, load_instance
from solvcohom.lattice import select_de_rham, select_dolbeault
from solvcohom.liealg import MODE_REAL, adjoint_representation, trivial_representation
from solvcohom.linalg import ExactMatrix
from solvcohom.scalars import MINUS_ONE, ONE, ZERO
from solvcohom.weights import build_invariant_complex, infer_weights, restrict_complex


def _plain_ce_complex(g):
    """The plain CE complex and its labels, which the reference's witness names."""
    rep = trivial_representation(g)
    bases = [degree_basis(g.dim, p) for p in range(g.dim + 1)]
    labels = [[monomial_label(g, I, 0, ("1",)) for I in basis] for basis in bases]
    fc = FiniteComplex(
        tuple(len(basis) for basis in bases),
        tuple(ce_differential(g, rep, (ZERO,) * len(g.complement), p) for p in range(g.dim)),
    )
    return fc, labels


def test_restrict_complex_closure(split_3d):
    fc, labels = _plain_ce_complex(split_3d)
    # Keeping e2* in degree 1 but dropping e1*^e2* in degree 2 is not
    # closed: d(e2*) = -e1*^e2*.
    bad_keep = [(0,), (1,), (2,), ()]
    with pytest.raises(SelectionClosureError, match="degree 1"):
        reference_restrict_complex(fc, bad_keep, labels)
    # The zero-weight block {1, e1*, e2*^e3*, e1*^e2*^e3*} is closed.
    good_keep = [(0,), (0,), (2,), (0,)]
    sub = reference_restrict_complex(fc, good_keep, labels)
    assert sub.dims == (1, 1, 1, 1)
    assert cohomology(sub).betti == (1, 1, 1, 1)
    for bad_indices in ([(0,), (0, 0), (), ()], [(0,), (3,), (), ()]):
        with pytest.raises(ValidationFailure, match="distinct indices below 3"):
            reference_restrict_complex(fc, bad_indices, labels)


def test_restrict_complex_reports_first_witness_in_keep_order():
    # Two offences: column a0 hits dropped row b1, column a2 hits dropped
    # row b2. Kept columns are scanned in keep order (a2 before a0), then
    # rows ascending, so a2 -> b2 is the witness.
    d = ExactMatrix.from_entries(
        3, 3, {(1, 0): ONE, (0, 2): ONE, (2, 2): MINUS_ONE}
    )
    fc = FiniteComplex((3, 3), (d,))
    labels = [("a0", "a1", "a2"), ("b0", "b1", "b2")]
    with pytest.raises(SelectionClosureError) as info:
        reference_restrict_complex(fc, [(2, 0), (0,)], labels)
    assert str(info.value) == (
        "selection not closed under d at degree 0: column a2 hits dropped row b2"
    )


def _shipped(name):
    inst = load_instance(str(INSTANCE_DIR / f"{name}.json"))
    rep = build_representation(inst)
    ic = build_invariant_complex(inst.algebra, rep, build_weight_assignment(inst, rep))
    return ic, [inst.lattice]


def _generated(make_algebra, make_module, lattice_names):
    g = make_algebra()
    rep = make_module(g)
    lattices = [
        load_instance(str(INSTANCE_DIR / f"{name}.json")).lattice
        for name in lattice_names
    ]
    return build_invariant_complex(g, rep, infer_weights(g, rep)), lattices


# The n = 9 sum has the complement width of example-7-1-*, so it takes
# both of their lattices; heisenberg3^4 (n = 12) has an empty complement.
_CASES = {
    **{p.stem: (_shipped, (p.stem,)) for p in INSTANCE_DIR.glob("*.json")},
    "split_6d+heisenberg": (
        _generated,
        (
            make_split_6d_plus_heisenberg,
            adjoint_representation,
            ("example-7-1-pi", "example-7-1-generic"),
        ),
    ),
    "heisenberg3^4": (
        _generated,
        (lambda: make_heisenberg_power(4), trivial_representation, ("heisenberg3",)),
    ),
}


def _assert_same_complex(got, want):
    assert got.dims == want.dims
    assert list(got.differentials) == list(want.differentials)


@pytest.mark.parametrize("name", sorted(_CASES))
def test_restrict_complex_equals_restrict_after_build(name):
    # Every single tag, and the de Rham and Dolbeault tag sets of each
    # lattice: building the kept tags' columns only gives the complex
    # that restricting the full build (with its closure scan) gives.
    make, args = _CASES[name]
    ic, lattices = make(*args)
    full = ic.complex
    labels = [ic.labels(p, range(dim)) for p, dim in enumerate(full.dims)]

    def check(tag_ids):
        keep = [
            tuple(i for i, t in enumerate(per) if t in tag_ids) for per in ic.tag_ids
        ]
        _assert_same_complex(
            restrict_complex(ic, tag_ids), reference_restrict_complex(full, keep, labels)
        )

    for tid in range(len(ic.tag_table)):
        check({tid})
    for lat in lattices:
        for trivial in (char_trivial_on_lattice, ratio_char_trivial_on_lattice):
            check({t for t, tag in enumerate(ic.tag_table) if trivial(tag, lat)})
        # And the selection the algebra's mode allows, through lattice._select,
        # which keeps exactly the tags that mode's test passes.
        real = ic.algebra.mode == MODE_REAL
        sel = (select_de_rham if real else select_dolbeault)(ic, lat)
        trivial = char_trivial_on_lattice if real else ratio_char_trivial_on_lattice
        assert sel.kept == tuple(t for t, tag in enumerate(ic.tag_table) if trivial(tag, lat))
        _assert_same_complex(
            sel.complex, reference_restrict_complex(full, kept_indices(ic, sel), labels)
        )


def test_derham_builds_only_the_kept_columns_above_degree_one(monkeypatch, capsys):
    # The generic lattice keeps 64 of example-7-1-generic's 384 columns.
    # The build differentiates every column of degrees 0 and 1 for its
    # grading certificate; after that, the selection asks the kernel for
    # the kept columns alone.
    path = str(INSTANCE_DIR / "example-7-1-generic.json")
    ic, (lat,) = _shipped("example-7-1-generic")
    kept_tags = {t for t, tag in enumerate(ic.tag_table) if char_trivial_on_lattice(tag, lat)}
    kept = [[i for i, t in enumerate(per) if t in kept_tags] for per in ic.tag_ids]
    everything = [list(range(len(per))) for per in ic.tag_ids]
    assert 0 < sum(map(len, kept[2:])) < sum(map(len, everything[2:]))

    calls = []
    ce_kernel = weights.ce_kernel

    def recording(g, rep):
        kernel = ce_kernel(g, rep)

        def record(columns, p):
            calls.append((p, list(columns)))
            return kernel(columns, p)

        return record

    monkeypatch.setattr(weights, "ce_kernel", recording)
    assert cli.main(["derham", path]) == 0
    capsys.readouterr()
    n = ic.algebra.dim
    for p in range(n):
        received = [cols for q, cols in calls if q == p]
        if p < 2:
            assert received == [everything[p], kept[p]]
        else:
            assert received == [kept[p]]


def test_restrict_complex_checks_every_entry_it_builds(split_3d):
    # A kernel that sends d(e2*) in degree 1 onto e1*^e3*, a row of
    # another tag: the block of e2*'s tag is not closed, and
    # restrict_complex must refuse it rather than build it.
    rep = trivial_representation(split_3d)
    ic = build_invariant_complex(split_3d, rep, infer_weights(split_3d, rep))

    def leaky(columns, p):
        entries = ic.kernel(columns, p)
        if p == 1 and 1 in columns:
            entries[(1, 1)] = ONE
        return entries

    tid = ic.tag_ids[1][1]
    assert ic.tag_ids[2][1] != tid
    with pytest.raises(WeightGradingError) as info:
        restrict_complex(dataclasses.replace(ic, kernel=leaky), [tid])
    assert str(info.value) == (
        "weight grading violated: d(e2* (x) 1) hits e1*^e3* (x) 1 "
        "across tags (1) -> (-1); invalid weight data"
    )
