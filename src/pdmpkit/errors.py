"""Exception types shared across the package."""


class PdmpError(Exception):
    """Base class for all package errors."""


class InvalidParam(PdmpError):
    """A model or solver parameter violates one of its stated constraints."""


class NonFinite(PdmpError):
    """An integration or function evaluation produced non-finite values."""


class HorizonExceeded(PdmpError):
    """Cumulative hazard at the horizon stayed below the drawn level (survival)."""

    def __init__(self, horizon, cumulative=float("nan"), message=None):
        super().__init__(
            message
            or f"no event before horizon {horizon:.6g} (cumulative hazard {cumulative:.6g})"
        )
        self.horizon = horizon
        self.cumulative = cumulative


class MissingBound(PdmpError):
    """Thinning was requested for a hazard without an upper bound."""


class DivergentIntegral(PdmpError):
    """An adaptive quadrature did not converge near an endpoint."""


class QuadratureFailure(PdmpError):
    """Quadrature near a singular endpoint failed; carries a diagnostic."""

    def __init__(self, message, divergence_exponent=None):
        super().__init__(message)
        self.divergence_exponent = divergence_exponent


class DerivativeDegenerate(PdmpError):
    """A derivative required by the classification vanished within tolerance."""


class NoInteriorRoots(PdmpError):
    """The bistable flow has no pair of interior stationary points."""


class JumpBudgetExceeded(PdmpError):
    """A trajectory produced more jumps than the configured cap (explosive model)."""


class PopulationBlowup(PdmpError):
    """The simulated population exceeded the configured cell cap."""


class CflViolation(PdmpError):
    """The requested time step violates the scheme's stability constraint."""


class GridNotDyadic(PdmpError):
    """The operation requires a dyadic-aligned grid (x_min = 0, even cell count)."""


class DtMisaligned(PdmpError):
    """The time step does not divide the cell width needed for exact advection."""


class EmptySample(PdmpError):
    """A statistic was requested for an empty (or fully out-of-range) sample."""


class GridMismatch(PdmpError):
    """Two gridded objects do not share the same grid."""


class MassAuditError(PdmpError):
    """Mass plus tracked outflow drifted from the initial mass beyond tolerance."""


class ConfigError(PdmpError):
    """An experiment config is malformed; ``key`` names the offending entry."""

    def __init__(self, message, key=None):
        super().__init__(message)
        self.key = key
