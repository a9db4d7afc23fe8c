"""Exception taxonomy shared across the package.

Every error raised on purpose derives from :class:`EstimationError` so callers
can catch framework failures without swallowing programming errors.
"""


class EstimationError(Exception):
    """Base class for all errors raised by this package."""


class InvalidValueError(EstimationError):
    """A numeric input is non-finite or outside its domain."""


class ContractError(EstimationError):
    """A dimension, shape, or precondition contract was violated."""


class NotFoundError(EstimationError):
    """A node, frame, or key does not exist."""


class StructureError(EstimationError):
    """An operation would break the node hierarchy rules."""


class ConflictError(EstimationError):
    """A name or key is already taken."""


class CrossRefError(EstimationError):
    """A factor constrains a block that does not exist."""


class OrderingError(EstimationError):
    """Timestamps arrived out of order."""


class RecordFormatError(EstimationError):
    """A log record is malformed: bad JSON, a missing key, or data of the wrong shape or type."""


class JoinToleranceError(EstimationError):
    """No integrated sample lies within the join time tolerance."""


class CalibrationError(EstimationError):
    """Calibration parameters are invalid (non-positive geometry)."""


class DecompositionError(EstimationError):
    """A covariance is singular or indefinite and cannot be whitened."""


class SingularObservationError(EstimationError):
    """A measurement model is evaluated at a singular configuration."""


class AlignmentError(EstimationError):
    """Point-set alignment is degenerate (too few points or zero spread)."""


class NotReadyError(EstimationError):
    """A processor was used before it had the state it needs."""


class SyncError(EstimationError):
    """A solver notification referenced an unknown target."""


class SingularSystemError(EstimationError):
    """The normal equations are numerically singular (gauge not fixed)."""


class DivergenceError(EstimationError):
    """The optimization produced a non-finite cost."""


class AssociationError(EstimationError):
    """Estimate and ground-truth records could not be matched in time."""


class ConfigError(EstimationError):
    """A configuration file is missing or misusing a key."""


class ConfigParseError(ConfigError):
    """The configuration text is not valid YAML."""


class BindingError(ConfigError):
    """A processor or log record references an unknown sensor."""


class UnknownTypeError(ConfigError):
    """A factory was asked for a type name that was never registered."""
