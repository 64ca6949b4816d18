"""Exception types shared across the package; the base of each decides its CLI exit code."""


class SpdSlicedError(Exception):
    """Base class for all errors raised by this package."""


class InputError(SpdSlicedError):
    """The input data or its shape is invalid (CLI exit code 3)."""


class NumericalFailure(SpdSlicedError):
    """A numerical computation failed on valid input (CLI exit code 4)."""


class NotPositiveDefinite(NumericalFailure):
    """A matrix expected to be positive definite has an eigenvalue at or below tolerance."""


class DimensionMismatch(InputError):
    """Operands do not share a common matrix dimension."""


class NotUnitNorm(InputError):
    """A slicing direction does not have unit Frobenius norm."""


class DegenerateDirection(NumericalFailure):
    """A slicing direction has (near-)repeated eigenvalues, so the sorted
    eigenbasis needed by the horospherical coordinate is ill defined."""


class DegenerateSample(NumericalFailure):
    """A random SPD sample failed the positive-definiteness check twice."""


class EmptyMeasure(InputError):
    """An empirical measure with no support points was supplied."""


class InstanceTooLarge(NumericalFailure):
    """An exact transport instance exceeds the configured size cap."""


class NotConverged(NumericalFailure):
    """An iterative solver stopped at max iterations above its threshold."""


class IllConditioned(NumericalFailure):
    """A linear system is too ill conditioned to solve reliably."""


class BasisMismatch(InputError):
    """Quantile features built from different projection bases or grids."""


class SizeMismatch(InputError):
    """Gram matrices of different sizes cannot be combined."""


class MissingLabels(InputError):
    """Evaluation was requested on a dataset without labels."""


class SingularFeatures(UserWarning):
    """A constant feature column was dropped before classifier training."""


class DataValidationError(InputError):
    """A dataset or manifest file failed schema or numeric validation."""
