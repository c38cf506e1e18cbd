"""Exact cohomology of solvmanifolds via finite invariant complexes.

The pipeline: describe a solvable Lie algebra with a chosen nilradical
complement, a finite-dimensional representation, weight data, and lattice
periods in an instance file; build the weight-graded invariant cochain
complex; select the subcomplex matching the lattice (de Rham or
Dolbeault flavour); take exact cohomology over Q(i).
"""
from .cecomplex import cohomology
from .instances import build_representation, build_weight_assignment, load_instance
from .lattice import select_de_rham
from .weights import build_invariant_complex

__version__ = "0.1.0"

__all__ = [
    "build_invariant_complex",
    "build_representation",
    "build_weight_assignment",
    "cohomology",
    "load_instance",
    "select_de_rham",
]
