"""Acceptance gate: the end-to-end claims the package ships under.

One test per claim; each prints a single verdict line (visible with -s)
and fails loudly otherwise. Everything here is exact arithmetic, so
"tolerance" always means equality; the two timed checks assert wall
clock under five seconds on top.
"""
import ast
import random
import time
from dataclasses import replace
from fractions import Fraction
from math import comb

from ce_reference import ce_differential
from conftest import (
    INSTANCE_DIR,
    kept_indices,
    make_heisenberg,
    make_split_3d,
    make_split_6d,
    zero_tag_indices,
)
from period_reference import named_coords, package_value, reference_conjugate, reference_names
from subset_reference import degree_basis

import solvcohom
from solvcohom.cecomplex import FiniteComplex, cohomology, nilshadow
from solvcohom.instances import (
    RepresentationSpec,
    build_representation,
    build_weight_assignment,
    load_instance,
)
from solvcohom.lattice import (
    LatticeData,
    check_conditions,
    dolbeault_hodge_table,
    select_de_rham,
    select_dolbeault,
    validate_lattice,
)
from solvcohom.liealg import lower_central_series_dims, trivial_representation
from solvcohom.oracle import verify_quasi_iso
from solvcohom.scalars import GaussianRational
from solvcohom.weights import build_invariant_complex

SHIPPED = (
    "heisenberg3",
    "torus-complex-n3",
    "example-7-1-pi",
    "example-7-1-generic",
    "example-7-2-pi",
    "example-7-2-generic",
)


def pipeline(name, representation=None):
    inst = load_instance(INSTANCE_DIR / f"{name}.json")
    if representation is not None:
        inst = replace(inst, representation=representation)
    rep = build_representation(inst)
    w = build_weight_assignment(inst, rep)
    ic = build_invariant_complex(inst.algebra, rep, w)
    return inst, rep, w, ic


def timed_de_rham(name, representation=None):
    start = time.perf_counter()
    inst, rep, w, ic = pipeline(name, representation)
    sel = select_de_rham(ic, inst.lattice)
    result = cohomology(sel.complex)
    return time.perf_counter() - start, sel, result


def timed_dolbeault(name):
    start = time.perf_counter()
    inst, rep, w, ic = pipeline(name)
    sel = select_dolbeault(ic, inst.lattice)
    result = cohomology(sel.complex)
    hodge = dolbeault_hodge_table(inst.algebra.dim, result.betti)
    return time.perf_counter() - start, sel, result, hodge


def verdict(num: int, text: str):
    print(f"acceptance {num}: PASS  {text}")


def test_acceptance_1_six_dim_twisted_de_rham_dimensions():
    elapsed_pi, sel_pi, res_pi = timed_de_rham("example-7-1-pi")
    elapsed_gen, sel_gen, res_gen = timed_de_rham("example-7-1-generic")
    assert res_pi.betti[1] == 6
    assert res_gen.betti[1] == 2
    assert sel_pi.complex.dims[0] == 2 and sel_gen.complex.dims[0] == 2
    assert sel_pi.complex.dims[1] == 12
    assert sel_gen.complex.dims[1] == 8
    assert elapsed_pi < 5.0 and elapsed_gen < 5.0
    verdict(
        1,
        "example-7-1 adjoint coefficients: dim H^1 = 6 (pi) and 2 "
        f"(generic); kept dims 2 and 12/8; {elapsed_pi:.2f}s/{elapsed_gen:.2f}s",
    )


def test_acceptance_2_first_betti_number_with_trivial_coefficients():
    trivial = RepresentationSpec("trivial")
    for name in ("example-7-1-pi", "example-7-1-generic"):
        _, _, result = timed_de_rham(name, representation=trivial)
        assert result.betti[1] == 2, name
    verdict(2, "example-7-1 with trivial coefficients: b_1 = 2 on both lattices")


def test_acceptance_3_three_dim_dolbeault_hodge_numbers():
    elapsed_pi, _, _, hodge_pi = timed_dolbeault("example-7-2-pi")
    elapsed_gen, _, res_gen, hodge_gen = timed_dolbeault("example-7-2-generic")
    for p in range(4):
        for q in range(4):
            assert hodge_pi[p][q] == comb(3, p) * comb(3, q)
    assert tuple(hodge_gen[0]) == (1, 1, 1, 1)
    assert res_gen.betti == (1, 1, 1, 1)
    assert elapsed_pi < 5.0 and elapsed_gen < 5.0
    verdict(
        3,
        "example-7-2: pi lattice gives h^(p,q) = C(3,p)C(3,q); generic "
        f"lattice gives h^(0,q) = (1,1,1,1); {elapsed_pi:.2f}s/{elapsed_gen:.2f}s",
    )


def test_acceptance_4_nilpotent_instance_keeps_full_complex():
    inst, rep, w, ic = pipeline("heisenberg3")
    sel = select_de_rham(ic, inst.lattice)
    assert sel.complex.dims == ic.complex.dims == (1, 3, 3, 1)
    assert cohomology(sel.complex).betti == (1, 2, 2, 1)
    report = check_conditions(ic, inst.lattice)
    assert (report.diamond1, report.diamond2, report.star, report.box) == (
        True,
        True,
        True,
        True,
    )
    verdict(
        4,
        "heisenberg3 selects the full invariant complex, Betti (1,2,2,1), "
        "all four flags true",
    )


def test_acceptance_5_oracle_agrees_on_every_shipped_instance():
    for name in SHIPPED:
        _, _, _, ic = pipeline(name)
        report = verify_quasi_iso(ic)
        assert report.ok, (name, [s.tag for s in report.sectors if not s.equal])
    verdict(
        5,
        "block and full-sector Betti numbers agree on all six shipped "
        "instances",
    )


def test_acceptance_6_structural_properties_on_random_data():
    rng = random.Random(20260814)

    def scalar():
        return GaussianRational(
            Fraction(rng.randint(-4, 4), rng.randint(1, 5)),
            Fraction(rng.randint(-4, 4), rng.randint(1, 5)),
        )

    catalog = (make_heisenberg(), make_split_3d(), make_split_6d())
    for g in catalog:
        rep = trivial_representation(g)
        for _ in range(5):
            mu = tuple(scalar() for _ in g.complement)
            dims = [len(degree_basis(g.dim, p)) for p in range(g.dim + 1)]
            diffs = [ce_differential(g, rep, mu, p) for p in range(g.dim)]
            fc = FiniteComplex(tuple(dims), tuple(diffs))
            fc.check_complex()
            euler = cohomology(fc).euler_characteristic()
            assert euler == sum((-1) ** p * d for p, d in enumerate(dims))

    symbols = ("a",)
    names = reference_names(symbols)

    def period():
        return package_value(
            {n: Fraction(rng.randint(-3, 3), rng.randint(1, 4)) for n in names},
            symbols,
        )

    from solvcohom.liealg import adjoint_representation
    from solvcohom.weights import infer_weights

    g6 = make_split_6d()
    rep6 = adjoint_representation(g6)
    ic6 = build_invariant_complex(g6, rep6, infer_weights(g6, rep6))
    zeros = zero_tag_indices(ic6)
    for _ in range(5):
        lat = LatticeData(symbols, tuple((period(), period()) for _ in range(2)))
        sel = select_de_rham(ic6, lat)  # grading checked on every built entry
        for p, kept in enumerate(kept_indices(ic6, sel)):
            assert set(zeros[p]) <= set(kept)

    for _ in range(10):
        # g6's conjugation swaps its complement coordinates.
        v = period()
        conjugate = package_value(reference_conjugate(named_coords(v)), symbols)
        assert validate_lattice(g6, LatticeData(symbols, ((v, conjugate),))) == ()

    verdict(
        6,
        "d.d = 0, Euler counts, selection closure, zero-tag retention and "
        "real lattice points hold on seeded random data",
    )


def test_acceptance_7_nilshadow_flattens_and_certifies():
    for name in ("example-7-1-pi", "example-7-2-pi"):
        inst, rep, w, _ = pipeline(name)
        shadow = nilshadow(inst.algebra, w.algebra_weights)
        assert shadow.dim == inst.algebra.dim
        assert shadow.bracket_table() == {}

    inst, rep, w, _ = pipeline("heisenberg3")
    shadow = nilshadow(inst.algebra, w.algebra_weights)
    assert shadow == inst.algebra

    for name in SHIPPED:
        inst, rep, w, _ = pipeline(name)
        shadow = nilshadow(inst.algebra, w.algebra_weights)
        series = lower_central_series_dims(shadow, frozenset(range(shadow.dim)))
        assert series[-1] == 0
    verdict(
        7,
        "nilshadow is abelian of ambient dimension on the split examples, "
        "fixes nilpotent input, and always certifies nilpotency",
    )


def test_readme_library_example_runs_on_the_package_root(monkeypatch, capsys):
    # The package root exports exactly the names this example imports.
    root = INSTANCE_DIR.parent
    section = (root / "README.md").read_text().split("## Library use\n", 1)[1]
    code = section.split("```python\n", 1)[1].split("```", 1)[0]
    imported = [
        alias.name
        for node in ast.parse(code).body
        if isinstance(node, ast.ImportFrom) and node.module == "solvcohom"
        for alias in node.names
    ]
    assert sorted(imported) == sorted(solvcohom.__all__)
    monkeypatch.chdir(root)
    exec(code, {})
    assert capsys.readouterr().out == "(0, 6, 14, 12, 8, 6, 2)\n"
