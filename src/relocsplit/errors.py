"""Exception types shared across the package."""


class RelocSplitError(Exception):
    """Base class for all package errors."""


class DomainError(RelocSplitError, ValueError):
    """An argument lies outside the mathematical domain of an operation."""


class NonPositiveStepsize(DomainError):
    """Stepsize parameters must be strictly positive."""


class NonMonotoneOperator(RelocSplitError, ValueError):
    """The symmetric part of the supplied matrix has a clearly negative eigenvalue."""


class SingularSystem(RelocSplitError):
    """A linear solve failed or the matrix is numerically singular."""


class UnsupportedOperator(RelocSplitError, TypeError):
    """The operator lacks the structure (affine, invertible, ...) the operation needs."""


class BadBlockCount(DomainError):
    """A point or block of points has the wrong shape for this family's block vectors."""


class NumericalError(RelocSplitError):
    """No check can use the run: it diverged, did not converge or failed a certificate."""


class DivergenceDetected(NumericalError):
    """Iterate norm exceeded the divergence guard; the configuration is not contractive."""


class NotAFixedPoint(RelocSplitError):
    """A point claimed to be fixed fails its residual certificate."""


class ChainMismatch(RelocSplitError):
    """The resolvent chain of a certified fixed point is inconsistent (implementation bug)."""


class MissingDistances(RelocSplitError):
    """The trace lacks its dist_to_fix or err_to_limit column; compute it first."""


class NonSingletonFix(RelocSplitError):
    """Exact distances need a singleton fixed-point set, which the contraction hypotheses give."""


class NoConvergence(NumericalError):
    """Fixed-point iteration did not reach the requested tolerance."""

    def __init__(self, message, last_residual=None):
        super().__init__(message)
        self.last_residual = last_residual


class CertificationFailed(NumericalError):
    """Sampling contradicts a property the structural hypotheses guarantee."""


class TooFewSamples(RelocSplitError, ValueError):
    """Not enough usable entries remain to fit a rate."""


class ConfigError(RelocSplitError, ValueError):
    """Malformed or contradictory experiment configuration."""
