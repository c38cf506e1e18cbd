import pathlib

import pytest

from solvcohom import lattice
from solvcohom.liealg import MODE_COMPLEX, LieAlgebraData
from solvcohom.periods import PeriodValue
from solvcohom.scalars import MINUS_ONE, ONE, ZERO

INSTANCE_DIR = pathlib.Path(__file__).resolve().parent.parent / "instances"
EXPECTED_DIR = INSTANCE_DIR / "expected"


def bracket_entries(g):
    """g's structure constants as (i, j, k, c) entries with i < j."""
    return [(i, j, k, c) for (i, j), terms in g.bracket_table().items() for k, c in terms]


def kept_indices(ic, sel):
    """Per degree, the basis indices of the tags a selection keeps."""
    return ic.indices_with_tag_ids(sel.kept)


def char_trivial_on_lattice(mu, lat):
    """e^mu = 1 on every generator: mu(delta) in 2*pi*i*Z, one generator at a time."""
    return all(
        lattice.evaluate_weight_on_generator(mu, gen, lat.table).in_2pi_i_integers()
        for gen in lat.generators
    )


def combine(*terms):
    """The period value sum of s * v over (s, v) pairs, by add_scaled_into."""
    acc = {}
    for scalar, value in terms:
        value.add_scaled_into(acc, scalar)
    return PeriodValue.from_symbols(terms[0][1].table, acc)


def zero_tag_indices(ic):
    """Per degree, the basis indices of tag zero."""
    zero = (ZERO,) * len(ic.weights.complement)
    return ic.indices_with_tag_ids(
        t for t, tag in enumerate(ic.tag_table) if tag == zero
    )


def make_heisenberg():
    # [x, y] = z; already nilpotent, empty complement.
    return LieAlgebraData(
        dim=3,
        basis=("x", "y", "z"),
        brackets=[(0, 1, 2, ONE)],
        nilradical=[0, 1, 2],
        complement=[],
        conjugation={0: 0, 1: 1, 2: 2},
    )


def make_split_3d():
    # One complement direction acting on C^2 with ad(e1) = diag(0, 1, -1).
    return LieAlgebraData(
        dim=3,
        basis=("e1", "e2", "e3"),
        brackets=[(0, 1, 1, ONE), (0, 2, 2, MINUS_ONE)],
        nilradical=[1, 2],
        complement=[0],
        mode=MODE_COMPLEX,
    )


def make_split_6d():
    # R^2 acting on R^4 with weights (1,0), (0,1), (-1,0), (0,-1);
    # conjugation swaps the weight pairs and the complement directions.
    return LieAlgebraData(
        dim=6,
        basis=("v1", "v2", "v3", "v4", "v5", "v6"),
        brackets=[
            (4, 0, 0, ONE),
            (4, 2, 2, MINUS_ONE),
            (5, 1, 1, ONE),
            (5, 3, 3, MINUS_ONE),
        ],
        nilradical=[0, 1, 2, 3],
        complement=[4, 5],
        conjugation={0: 1, 1: 0, 2: 3, 3: 2, 4: 5, 5: 4},
    )


def make_split_6d_plus_heisenberg():
    # The direct sum with block-diagonal brackets, Heisenberg on indices
    # 0-2 and split_6d on 3-8. Its complement is 7, 8 and its brackets
    # reach bit 8, so wedge signs count members at positions 6 and above,
    # which no shipped instance (n <= 6) has.
    heis, split = make_heisenberg(), make_split_6d()
    s = heis.dim
    return LieAlgebraData(
        dim=s + split.dim,
        basis=heis.basis + split.basis,
        brackets=bracket_entries(heis)
        + [(i + s, j + s, k + s, c) for i, j, k, c in bracket_entries(split)],
        nilradical=sorted(heis.nilradical) + [i + s for i in sorted(split.nilradical)],
        complement=[i + s for i in split.complement],
        conjugation={
            **heis.conjugation,
            **{a + s: b + s for a, b in split.conjugation.items()},
        },
    )


def make_heisenberg_power(k):
    # The direct sum of k Heisenberg algebras, copy c on indices 3c..3c+2,
    # so n = 3k; its Betti numbers are the k-fold convolution of (1, 2, 2, 1).
    return LieAlgebraData(
        dim=3 * k,
        basis=tuple(f"{name}{c}" for c in range(k) for name in "xyz"),
        brackets=[(3 * c, 3 * c + 1, 3 * c + 2, ONE) for c in range(k)],
        nilradical=range(3 * k),
        complement=[],
        conjugation={i: i for i in range(3 * k)},
    )


@pytest.fixture
def heisenberg():
    return make_heisenberg()


@pytest.fixture
def split_3d():
    return make_split_3d()


@pytest.fixture
def split_6d():
    return make_split_6d()


@pytest.fixture
def instance_dir():
    return INSTANCE_DIR


@pytest.fixture
def expected_dir():
    return EXPECTED_DIR
