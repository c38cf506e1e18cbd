"""Exception hierarchy shared across the package.

The CLI maps these to exit codes: ScalarParseError / InstanceParseError /
OutputError -> 2, everything else raised during a command -> 1, oracle
disagreement -> 3.
"""


class SolvcohomError(Exception):
    """Base class for all errors raised by this package."""


class ScalarParseError(SolvcohomError):
    """A scalar or period literal does not match the exact text grammar."""


class InstanceParseError(SolvcohomError):
    """An instance file is structurally malformed."""


class OutputError(SolvcohomError):
    """A report file cannot be written."""


class ValidationFailure(SolvcohomError):
    """Validated input data violates a structural invariant."""


class WeightInferenceError(SolvcohomError):
    """Operator diagonals cannot serve as weights in the supplied basis."""


class WeightGradingError(SolvcohomError):
    """A differential coefficient crosses between distinct weight tags."""


class NilshadowError(SolvcohomError):
    """The nilshadow bracket fails its nilpotency certificate."""


class ModeMismatchError(SolvcohomError):
    """An operation was applied to an instance of the wrong ground mode."""


class CertificateError(SolvcohomError):
    """A computed result failed the check that certifies it."""
