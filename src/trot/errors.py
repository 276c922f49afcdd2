"""Exception types shared across the pipeline."""


class TrotError(Exception):
    """Base class for all pipeline errors."""


class InsufficientDataError(TrotError):
    """Recording or class data too short for the requested operation."""


class InvalidOverlapError(TrotError):
    """Window overlap leaves a step of zero samples."""


class InvalidSampleError(TrotError):
    """Malformed, non-finite or non-integral value in an input file or window."""


class ScalerMismatchError(TrotError):
    """Reference scaler dimension does not match the dataset."""


class ClassAbsentError(TrotError):
    """An expected activity class has no windows."""


class DimensionMismatchError(TrotError):
    """Feature dimensions of two inputs disagree."""


class NumericalFailureError(TrotError):
    """A solver produced NaN or infinite values."""


class DegenerateCouplingError(TrotError):
    """Coupling row with zero mass cannot be normalized."""


class DegenerateCovarianceError(TrotError):
    """Covariance too ill-conditioned even after ridge regularization."""
