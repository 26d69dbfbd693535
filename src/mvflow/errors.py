"""Exception types shared across the package."""


class MvflowError(Exception):
    """Base class for all package-specific failures."""


class InvalidLawError(MvflowError, ValueError):
    """Pressure-law parameters violate the admissibility conditions."""


class DomainError(MvflowError, ValueError):
    """An evaluation point lies outside the operation's domain."""


class InsufficientGridError(MvflowError, ValueError):
    """Certification grid too sparse or too narrow for the requested range."""


class SolverFailure(MvflowError, RuntimeError):
    """The scheme produced an inadmissible state (e.g. negative density)."""


class StepRejected(SolverFailure):
    """Requested time step exceeds the stability limit.

    Carries the largest admissible dt so callers can retry.
    """

    def __init__(self, dt: float, dt_max: float):
        super().__init__(f"dt = {dt:.6g} exceeds admissible dt_max = {dt_max:.6g}")
        self.dt_max = dt_max


class ReferenceInvalidError(MvflowError, RuntimeError):
    """A refined reference run left the admissible regime (near-vacuum)."""


class IncompatibleEnsembleError(MvflowError, ValueError):
    """Ensemble members do not share a common space-time sampling grid."""


class ObservableDomainError(MvflowError, ValueError):
    """An observable is undefined at some atom of the measure."""


class InvalidTestFunctionError(MvflowError, ValueError):
    """A test function violates the boundary conditions required by the form."""


class CannotEstimateError(MvflowError, ValueError):
    """Defect estimation needs a longer refinement sequence."""


class UnsupportedDimensionError(MvflowError, ValueError):
    """The requested spatial dimension is outside the supported set."""


class CannotBoundError(MvflowError, ValueError):
    """A remainder bound cannot be assembled from the supplied certificates."""


class InvalidBandError(MvflowError, ValueError):
    """Cutoff band construction failed for the supplied law/reference ranges."""


class SpecParseError(MvflowError, ValueError):
    """An experiment spec file could not be parsed or validated."""

