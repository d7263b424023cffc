"""Exception hierarchy shared across the package.

Two broad families matter to callers (and to the CLI exit codes):
validation errors (bad inputs, unsatisfiable requests) and numerical
errors (non-evaluable laws, diverged fits, degenerate statistics).
"""


class ScaleLawsError(Exception):
    """Base class for all package errors."""


class DataValidationError(ScaleLawsError):
    """Malformed or inconsistent input data (bad rows, missing columns,
    duplicate keys, law/data mismatches)."""


class LawDomainError(ScaleLawsError):
    """A law could not be evaluated at the requested point: non-positive
    inputs, SNR overflow, zero capacity, or non-finite intermediates."""


class UndefinedVarianceError(ScaleLawsError):
    """R-squared requested on observations with zero variance."""


class ScoreOverflowError(ScaleLawsError):
    """R-squared requested on values whose sums of squares, or their
    ratio, overflow the float range (a residual near 1e154 or beyond)."""


class SplitError(ScaleLawsError):
    """A train/test split specification is unsatisfiable for the data."""


class FitError(ScaleLawsError):
    """Fitting failed: too few observations, or every start diverged."""
