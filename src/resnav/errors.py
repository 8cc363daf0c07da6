"""Exception types shared across the package, and the finiteness check of every config."""

import math
from dataclasses import fields


class ConfigurationError(ValueError):
    """Raised when a config file, world file, or parameter set is invalid."""


class UsageError(RuntimeError):
    """Raised when an operation is called in a state it does not support."""


class TrainingDiverged(RuntimeError):
    """Raised when a training update produces a non-finite loss."""

    def __init__(self, message: str, diagnostics: dict | None = None) -> None:
        super().__init__(message)
        self.diagnostics = diagnostics or {}


def check_finite(config) -> None:
    """Reject a non-finite float in any field of a config dataclass, naming the field."""
    for f in fields(config):
        value = getattr(config, f.name)
        if isinstance(value, float) and not math.isfinite(value):
            raise ConfigurationError(f"{f.name} must be finite, got {value}")
