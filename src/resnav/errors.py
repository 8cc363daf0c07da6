"""Exception types shared across the package, and the one field check of every config.

A config dataclass states each field's type by its default and its bounds
on the field itself (bounded). Its __post_init__ calls check_fields first,
then states each rule that spans fields in one require line.
"""

import operator
import sys
from dataclasses import MISSING, field, fields

# bound key -> (test, symbol in the error message)
_BOUNDS = {"gt": (operator.gt, ">"), "ge": (operator.ge, ">="), "lt": (operator.lt, "<"), "le": (operator.le, "<=")}
_KINDS = {bool: "true or false", str: "a non-empty string", int: "an integer", float: "a number"}  # in error messages


class ConfigurationError(ValueError):
    """Raised when a config file, world file, or parameter set is invalid."""


class UsageError(RuntimeError):
    """Raised when an operation is called in a state it does not support."""


class TrainingDiverged(RuntimeError):
    """Raised when a training update produces a non-finite loss."""

    def __init__(self, message: str, diagnostics: dict | None = None) -> None:
        super().__init__(message)
        self.diagnostics = diagnostics or {}


def bounded(default, **bounds):
    """A config field with this default whose numbers must meet bounds: any of gt, ge, lt, le."""
    return field(default=default, metadata=bounds)


def require(holds: bool, message: str) -> None:
    """Raise a ConfigurationError with message unless holds: one line per rule that spans fields."""
    if not holds:
        raise ConfigurationError(message)


def check_fields(config) -> None:
    """Check each field of a config dataclass against its default's type and its bounds, naming the field.

    A bool is never a number, a float field also takes an int (kept as given),
    a str must be non-empty, a tuple field takes a non-empty list or tuple of
    its default's item type (stored as a tuple, each item checked), and a
    section (a field with a default factory) an instance of that factory.
    """
    for f in fields(config):
        name, value = f.name, getattr(config, f.name)
        if f.default is MISSING:
            if not isinstance(value, f.default_factory):
                raise ConfigurationError(f"{name} must be a {f.default_factory.__name__}, got {value!r}")
            continue
        items, kind = (value,), type(f.default)
        if kind is tuple:
            if not isinstance(value, (list, tuple)) or not value:
                raise ConfigurationError(f"{name} must be a non-empty list, got {value!r}")
            items, kind = tuple(value), type(f.default[0])
            object.__setattr__(config, name, items)
        for item in items:
            check_item(name, item, kind, f.metadata)


def check_item(name: str, value, kind: type, bounds) -> None:
    """Check one value of kind str, bool, int or float against bounds (a mapping of gt, ge, lt, le), naming it."""
    if kind in (bool, str):
        if not isinstance(value, kind) or value == "":
            raise ConfigurationError(f"{name} must be {_KINDS[kind]}, got {value!r}")
        return
    if isinstance(value, bool) or not isinstance(value, (int, float) if kind is float else int):
        raise ConfigurationError(f"{name} must be {_KINDS[kind]}, got {value!r}")
    if kind is float and not abs(value) <= sys.float_info.max:  # nan, ±inf, or an int beyond float range
        shown = value if isinstance(value, float) else "an integer beyond float range"
        raise ConfigurationError(f"{name} must be finite, got {shown}")
    for key, bound in bounds.items():
        test, symbol = _BOUNDS[key]
        if not test(value, bound):
            raise ConfigurationError(f"{name} must be {symbol} {bound}, got {value}")
