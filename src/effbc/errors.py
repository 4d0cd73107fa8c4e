"""Exception types shared across the package."""


class EffbcError(Exception):
    """Base class for all package errors."""


class InvalidDirectionError(EffbcError):
    """Raised for unusable direction input (zero vector, non-unit vector)."""


class InvalidMeshError(EffbcError):
    """Raised when a requested spacing does not tile the strip geometry."""


class OperatorInvalidError(EffbcError):
    """Raised when operator validation finds a monotonicity violation.

    Carries the witness pair (p, q) on which the violation occurred.
    """

    def __init__(self, message, witness=None):
        super().__init__(message)
        self.witness = witness


class SolverFailureError(EffbcError):
    """Raised when an algebraic solve stagnates or diverges.

    ``trace`` holds per-iteration diagnostics collected before the failure
    (for Krylov solves, the relative residual after each iteration);
    ``residual`` is the final true relative residual when one was computed.
    """

    def __init__(self, message, trace=None, residual=None):
        super().__init__(message)
        self.trace = trace if trace is not None else []
        self.residual = residual


class NonConvergedError(EffbcError):
    """Raised when an iterative outer loop exhausts its budget.

    For the strip solves ``trace`` holds, from the initial guess on, the
    accepted iterates' energies (energy descent) or preconditioned residual
    norms sqrt(r . K_ref^-1 r) (monotone fixed point).
    """

    def __init__(self, message, trace=None):
        super().__init__(message)
        self.trace = trace if trace is not None else []


class ConfigError(EffbcError):
    """Raised for malformed or out-of-range run configuration."""
