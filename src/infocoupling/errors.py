"""Exception taxonomy shared across the package, and the CLI's exit codes.

Each class names the exit code and stderr label that
:func:`infocoupling.cli.main` gives it, so this module owns the whole
table; a subclass keeps its parent's pair unless it names its own.  Solver
code should raise the most specific class that applies, not ValueError.
"""

EXIT_OK = 0  # success
EXIT_CHECK_FAILED = 1  # a failed verification check, or any error without a code of its own
EXIT_PARSE = 2  # parse error
EXIT_DEGENERATE = 3  # numeric degeneracy
EXIT_CONSTRAINT = 4  # constraint, regime or configuration violation

_CONSTRAINT = EXIT_CONSTRAINT, "constraint violation"


class InfoCouplingError(Exception):
    """Base class for all package-specific errors."""
    exit_code, label = EXIT_CHECK_FAILED, "error"


class SpecError(InfoCouplingError, ValueError):
    """A channel spec or the ``--output`` path failed to read, parse or write."""
    exit_code, label = EXIT_PARSE, "parse error"


class DimensionMismatchError(InfoCouplingError, ValueError):
    """Operands live on incompatible alphabets."""
    exit_code, label = _CONSTRAINT


class SingularWeightError(InfoCouplingError, ValueError):
    """A weighted operation hit a zero probability in its reference."""
    exit_code, label = EXIT_DEGENERATE, "numeric degeneracy"


class InvalidDistributionError(InfoCouplingError, ValueError):
    """A vector failed simplex validation.

    ``index`` points at the first offending coordinate when known.
    """
    exit_code, label = _CONSTRAINT

    def __init__(self, message, index=None):
        super().__init__(message)
        self.index = index


class DegenerateOutputError(InfoCouplingError, ValueError):
    """The output distribution has a zero entry, so the output weighting
    is singular and no coupling matrix exists."""
    exit_code, label = EXIT_DEGENERATE, "numeric degeneracy"


class CapacityError(InfoCouplingError, ValueError):
    """A materialized tensor lift would exceed the configured size cap."""


class ResolutionError(InfoCouplingError, ValueError):
    """A search budget is too coarse for the requested computation."""


class BudgetError(InfoCouplingError, RuntimeError):
    """An iterative routine exhausted its budget before converging.

    ``best_gap`` carries the best residual achieved, when meaningful.
    """

    def __init__(self, message, best_gap=None):
        super().__init__(message)
        self.best_gap = best_gap


class InputMismatchError(InfoCouplingError, ValueError):
    """Multiple inputs that must share an operating point do not."""
    exit_code, label = _CONSTRAINT


class InfeasibleError(InfoCouplingError, ValueError):
    """An equality-constrained optimization has an empty feasible set."""


class ConfigurationError(InfoCouplingError, ValueError):
    """A simulation or block-code configuration is internally inconsistent."""
    exit_code, label = _CONSTRAINT


class DegenerateLayerError(InfoCouplingError, ValueError):
    """A layered-code step was asked to operate on fewer than two symbols."""


class RegimeError(InfoCouplingError, ValueError):
    """Channel parameters fall outside the regime a closed form requires."""
    exit_code, label = _CONSTRAINT
