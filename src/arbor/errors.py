"""Exception taxonomy shared across the package.

Every error raised on purpose derives from :class:`EstimationError` so callers
can catch framework failures without swallowing programming errors.

Four families carry most failures, chosen by where the failure comes from:
:class:`ConfigError` (the configuration or scenario text), :class:`ContractError`
(an argument, a value or a call breaks an API's precondition),
:class:`RecordFormatError` (a capture or truth log) and :class:`SolveError`
(the optimization itself).  A further class exists only because some handler
in the package catches it by name to recover from that one failure; add one
only together with such a handler.  ``tests/test_error_taxonomy.py`` checks
both rules.
"""


class EstimationError(Exception):
    """Base class for all errors raised by this package."""


class ConfigError(EstimationError):
    """A configuration or scenario is unparsable, misses a key, or misuses one."""


class ContractError(EstimationError):
    """An argument, value, or call violates a precondition of the API."""


class RecordFormatError(EstimationError):
    """A log is malformed: bad JSON, a missing key, data of the wrong shape or
    type, an unknown sensor, time going backwards, or no matching truth."""


class SolveError(EstimationError):
    """The optimization failed: a singular system or a non-finite cost."""


class NotFoundError(EstimationError):
    """A node, frame, or key does not exist."""


class DecompositionError(EstimationError):
    """A covariance is singular or indefinite and cannot be whitened."""


class SingularObservationError(EstimationError):
    """A measurement model is evaluated at a singular configuration."""


class AlignmentError(EstimationError):
    """Point-set alignment is degenerate (too few points or zero spread)."""
