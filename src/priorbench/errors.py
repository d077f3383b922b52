"""Exception types shared across the package."""


class PriorBenchError(Exception):
    """Base class for all package-specific errors."""


class ConfigError(PriorBenchError, ValueError):
    """A run configuration value is missing, malformed, or out of range."""


class InvalidMatrixError(PriorBenchError, ValueError):
    """A matrix violates a symmetry or definiteness requirement."""


class DegenerateInputError(PriorBenchError, ValueError):
    """Too few samples (or otherwise degenerate data) for the requested statistic."""


class ProtocolError(PriorBenchError, ValueError):
    """An evaluation protocol precondition is not met."""


class EvaluationError(PriorBenchError, RuntimeError):
    """A metric could not be computed on the given inputs."""


class DivergenceError(PriorBenchError, RuntimeError):
    """Non-finite values encountered during training or sampling."""


class CheckpointError(PriorBenchError, ValueError):
    """A checkpoint file is truncated, corrupted, or not a checkpoint at all."""
