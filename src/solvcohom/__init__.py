"""Exact cohomology of solvmanifolds via finite invariant complexes.

The pipeline: describe a solvable Lie algebra with a chosen nilradical
complement, a finite-dimensional representation, weight data, and lattice
periods in an instance file; build the weight-graded invariant cochain
complex; select the subcomplex matching the lattice (de Rham or
Dolbeault flavour); take exact cohomology over Q(i).
"""
from .cecomplex import (
    CohomologyResult,
    FiniteComplex,
    ModuleAction,
    cohomology,
    degree_basis,
    module_basis_names,
    nilshadow,
)
from .errors import (
    InstanceParseError,
    ModeMismatchError,
    NilshadowError,
    ScalarParseError,
    SolvcohomError,
    ValidationFailure,
    WeightGradingError,
    WeightInferenceError,
)
from .instances import (
    InstanceFile,
    RepresentationSpec,
    WeightsSpec,
    build_representation,
    build_weight_assignment,
    load_instance,
    parse_instance,
    validate_instance,
)
from .lattice import (
    ConditionReport,
    LatticeData,
    SelectionResult,
    char_trivial_on_lattice,
    char_unitary,
    check_conditions,
    dolbeault_hodge_table,
    evaluate_weight_on_generator,
    ratio_char_trivial_on_lattice,
    select_de_rham,
    select_dolbeault,
    validate_lattice,
)
from .liealg import (
    MODE_COMPLEX,
    MODE_REAL,
    LieAlgebraData,
    RepresentationData,
    ValidationReport,
    adjoint_representation,
    lower_central_series_dims,
    trivial_representation,
    validate_algebra,
    validate_representation,
)
from .linalg import ExactMatrix, kernel_basis, rank_and_kernel
from .oracle import QuasiIsoReport, sector_cohomology_full, verify_quasi_iso
from .periods import PeriodValue, SymbolTable, format_period, parse_period
from .scalars import GaussianRational, format_gaussian, gauss, parse_gaussian
from .weights import (
    InvariantComplex,
    WeightAssignment,
    build_invariant_complex,
    format_weight,
    infer_weights,
    restrict_complex,
    validate_weight_assignment,
)

__version__ = "0.1.0"

__all__ = [
    "CohomologyResult",
    "ConditionReport",
    "ExactMatrix",
    "FiniteComplex",
    "GaussianRational",
    "InstanceFile",
    "InstanceParseError",
    "InvariantComplex",
    "LatticeData",
    "LieAlgebraData",
    "MODE_COMPLEX",
    "MODE_REAL",
    "ModeMismatchError",
    "ModuleAction",
    "NilshadowError",
    "PeriodValue",
    "QuasiIsoReport",
    "RepresentationData",
    "RepresentationSpec",
    "ScalarParseError",
    "SelectionResult",
    "SolvcohomError",
    "SymbolTable",
    "ValidationFailure",
    "ValidationReport",
    "WeightAssignment",
    "WeightGradingError",
    "WeightInferenceError",
    "WeightsSpec",
    "adjoint_representation",
    "build_invariant_complex",
    "build_representation",
    "build_weight_assignment",
    "char_trivial_on_lattice",
    "char_unitary",
    "check_conditions",
    "cohomology",
    "degree_basis",
    "dolbeault_hodge_table",
    "evaluate_weight_on_generator",
    "format_gaussian",
    "format_period",
    "format_weight",
    "gauss",
    "infer_weights",
    "kernel_basis",
    "load_instance",
    "lower_central_series_dims",
    "module_basis_names",
    "nilshadow",
    "parse_gaussian",
    "parse_instance",
    "parse_period",
    "ratio_char_trivial_on_lattice",
    "rank_and_kernel",
    "restrict_complex",
    "sector_cohomology_full",
    "select_de_rham",
    "select_dolbeault",
    "trivial_representation",
    "validate_algebra",
    "validate_instance",
    "validate_lattice",
    "validate_representation",
    "validate_weight_assignment",
    "verify_quasi_iso",
]
