"""Exception types shared across the package."""


class ChainFormatError(ValueError):
    """A chain-spec file could not be parsed or has the wrong shape."""


class ChainValidationError(ValueError):
    """A MetricChain invariant (metric axioms, stochasticity) is violated."""


class TransportError(RuntimeError):
    """A row index outside the chain, a failed LP solve or a failed certificate."""


class InapplicableError(ValueError):
    """The theorems do not apply here; `report` says why, when there is one."""

    def __init__(self, message, report=None):
        super().__init__(message)
        self.report = report


class EmptyAnnulusError(InapplicableError):
    """No point falls in the annulus eps <= d(x, x0) <= 2*eps."""


class DegenerateKernelError(ValueError):
    """The sub-Gaussian constant would be zero (point-mass kernel rows)."""


class NoAttractivePointError(InapplicableError):
    """rho <= 0: the origin is not attractive at this eps."""


class NegativeCurvatureError(InapplicableError):
    """K_eps(x) < 0 at some point x: the clamped envelope is no minorant there."""


class InadmissibleParamsError(InapplicableError):
    """Bound requested with parameters that fail the admissibility conditions."""


class InfeasibleSearchError(InapplicableError):
    """Parameter search found no admissible (alpha, d0) pair."""


class PowerIterationError(RuntimeError):
    """Power iteration did not reach the requested tolerance."""
