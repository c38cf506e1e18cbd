import importlib.util
import pathlib
import sys

import pytest

from solvcohom import lattice
from solvcohom.liealg import MODE_COMPLEX, LieAlgebraData
from solvcohom.linalg import ExactMatrix
from solvcohom.scalars import MINUS_ONE, ONE, ZERO, GaussianRational
from solvcohom.weights import WeightAssignment

INSTANCE_DIR = pathlib.Path(__file__).resolve().parent.parent / "instances"
EXPECTED_DIR = INSTANCE_DIR / "expected"


# heisenberg3 in the basis x, y, y + z: ad(x) is nilpotent but has the
# diagonal (0, -1, 1), so ce_kernel forms diagonal terms at x and sums
# them where they meet, though x lies in the nilradical and the weights
# are zero.
SKEWED_HEISENBERG = {
    "name": "heisenberg3-skewed",
    "kind": "derham",
    "algebra": {"dim": 3, "basis": ["x", "y", "z"],
                "brackets": [["x", "y", "z", "1"], ["x", "y", "y", "-1"],
                             ["x", "z", "z", "1"], ["x", "z", "y", "-1"]],
                "nilradical": ["x", "y", "z"], "complement": []},
    "representation": {"trivial": True},
    "weights": {"infer": True},
    "lattice": {"symbols": [], "generators": []},
}


def load_bench(name):
    """bench/<name>.py, loaded by path as a module of its own (bench/ is not a package).

    The module is registered in sys.modules before it runs, as dataclasses need.
    """
    path = INSTANCE_DIR.parent / "bench" / f"{name}.py"
    spec = importlib.util.spec_from_file_location(f"bench_{name}", path)
    module = sys.modules[spec.name] = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def diagonal_weights(g, matrices):
    """The weights of g and of a module with the given matrices: their diagonals."""
    return WeightAssignment(
        tuple([tuple([g.ad_matrix(j).row_maps[i].get(i, ZERO) for j in g.complement])
               for i in range(g.dim)]),
        tuple([tuple([matrices[j].row_maps[k].get(k, ZERO) for j in g.complement])
               for k in range(matrices[0].nrows)]),
        g.complement,
    )


def dense_matrix(rows, ncols=None):
    """An ExactMatrix from dense rows of GaussianRationals or ints, zeros dropped.

    ncols defaults to the length of the first row; a matrix without rows needs it.
    """
    rows = [[v if isinstance(v, GaussianRational) else GaussianRational(v) for v in r] for r in rows]
    ncols = len(rows[0]) if ncols is None else ncols
    if any(len(r) != ncols for r in rows):
        raise ValueError("row data does not match the declared shape")
    return ExactMatrix(len(rows), ncols, tuple({j: v for j, v in enumerate(r) if v} for r in rows))


def bracket_entries(g):
    """g's structure constants as (i, j, k, c) entries with i < j."""
    return [(i, j, k, c) for (i, j), terms in g.bracket_table().items() for k, c in terms]


def kept_indices(ic, sel):
    """Per degree, the basis indices of the tags a selection keeps."""
    return ic.indices_with_tag_ids(sel.kept)


def char_trivial_on_lattice(mu, lat):
    """e^mu = 1 on every generator: mu(delta) in 2*pi*i*Z, one generator at a time."""
    return all(
        lattice.in_2pi_i_integers(lattice.evaluate_weight_on_generator(mu, gen))
        for gen in lat.generators
    )


def ratio_char_trivial_on_lattice(mu, lat):
    """conj(e^mu)/e^mu = 1 on every generator: Im mu(delta) in pi*Z."""
    return all(
        lattice.imag_in_pi_integers(lattice.evaluate_weight_on_generator(mu, gen))
        for gen in lat.generators
    )


def combine(*terms):
    """The period value sum of s * v over (s, v) pairs."""
    return lattice.evaluate_weight_on_generator(
        tuple(s for s, _ in terms), tuple(v for _, v in terms)
    )


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
