"""fileio.from_doc: a JSON object read into its record class, each value checked against its annotation."""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum

import pytest

from resnav.errors import ConfigurationError
from resnav.fileio import from_doc


class Color(Enum):
    RED = "red"


@dataclass(frozen=True)
class Dot:
    x: float
    y: float


@dataclass(frozen=True)
class Ring:
    r: float

    def __post_init__(self) -> None:
        if self.r <= 0.0:
            raise ConfigurationError(f"radius must be positive, got {self.r}")


@dataclass(frozen=True)
class Inner:
    n: int = field(default=1, metadata={"ge": 0})


@dataclass(frozen=True)
class Doc:
    name: str
    pair: tuple[float, float]
    color: Color
    mark: Dot | Ring
    counts: list[int] = field(default_factory=list)
    inner: Inner = field(default_factory=Inner)
    flag: bool = False
    note: str | None = None


BASE = {"name": "a", "pair": [1.0, 2], "color": "red", "mark": {"type": "dot", "params": [0.5, 1.5]}}
DROP = ...  # a change that removes the key

CASES = {
    "unknown key": ({"extra": 1}, r"^doc: unknown key\(s\) \['extra'\]$"),
    "missing key": ({"name": DROP}, r"^doc: missing key\(s\) \['name'\]$"),
    "defaulted keys left out": ({}, Doc("a", (1.0, 2), Color.RED, Dot(0.5, 1.5))),
    "every key given": (
        {"counts": [3, 4], "inner": {"n": 0}, "flag": True, "note": None, "mark": {"type": "ring", "params": [2]}},
        Doc("a", (1.0, 2), Color.RED, Ring(2), [3, 4], Inner(0), True, None),
    ),
    "nested record's error, prefixed once": ({"inner": {"n": -1}}, r"^inner: n must be >= 0, got -1$"),
    "nested record's own check, prefixed once": ({"mark": {"type": "ring", "params": [0.0]}},
                                                 r"^mark: radius must be positive, got 0.0$"),
    "nested record not an object": ({"inner": [1]}, r"^inner: expected an object, got list$"),
    "unknown union tag": ({"mark": {"type": "square", "params": [1.0]}},
                          r"^mark: unknown type 'square', expected one of \['dot', 'ring'\]$"),
    "wrong param count": ({"mark": {"type": "dot", "params": [1.0]}}, r"^mark: dot needs 2 params, got \[1.0\]$"),
    "wrong tuple length": ({"pair": [1.0]}, r"^doc: pair must be a list of 2, got \[1.0\]$"),
    "list item of the wrong kind": ({"counts": [1, 2.5]}, r"^doc: counts must be an integer, got 2.5$"),
    "value outside the enum": ({"color": "blue"}, r"^doc: color must be one of \['red'\], got 'blue'$"),
    "bool where a number is required": ({"pair": [True, 1.0]}, r"^doc: pair must be a number, got True$"),
    "number where a bool is required": ({"flag": 1}, r"^doc: flag must be true or false, got 1$"),
    "null where None is not admitted": ({"name": None}, r"^doc: name must be a non-empty string, got None$"),
    "not an object": (DROP, r"^doc: expected an object, got list$"),
}


@pytest.mark.parametrize("change, expected", CASES.values(), ids=CASES.keys())
def test_from_doc(change, expected):
    if change is DROP:
        doc = list(BASE)
    else:
        doc = {key: value for key, value in {**BASE, **change}.items() if value is not DROP}
    if isinstance(expected, str):
        with pytest.raises(ConfigurationError, match=expected):
            from_doc(Doc, doc, "doc")
    else:
        assert from_doc(Doc, doc, "doc") == expected
