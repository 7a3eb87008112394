"""Declared value domains of config fields and the one check that enforces them.

A config dataclass declares each field's domain once, in its annotation
(``gain: Positive``), and calls ``check_fields(self)`` from ``__post_init__``.
"""

from __future__ import annotations

from dataclasses import is_dataclass
from functools import cache
from typing import Annotated, get_args, get_type_hints


class Domain:
    """The values one field accepts: an interval written as in mathematics,
    such as ``"(0, inf)"`` or ``"[0, 1)"``, widened by None when ``optional``
    and narrowed to ints when ``integer``; or, for a choice field, one of
    ``choices``. A tuple value must have every element in the interval."""

    def __init__(self, interval="(-inf, inf)", *, optional=False, integer=False, choices=()):
        low, high = interval[1:-1].split(",")
        self.low, self.high = float(low), float(high)
        self.low_closed, self.high_closed = interval[0] == "[", interval[-1] == "]"
        self.optional, self.integer, self.choices = optional, integer, choices
        span = "finite" if interval == "(-inf, inf)" else f"in {interval}"
        self.rule = f"be one of {choices}" if choices else (
            f"be {'None or ' if optional else ''}{'an int ' if integer else ''}{span}"
        )

    def check(self, value, name: str):
        """Raise a ValueError naming ``name`` unless ``value`` lies in the domain."""
        if value is None:
            ok = self.optional
        elif self.choices:
            ok = value in self.choices
        else:
            ok = all(
                (type(v) is int or not self.integer)
                and (self.low <= v if self.low_closed else self.low < v)
                and (v <= self.high if self.high_closed else v < self.high)
                for v in (value if isinstance(value, tuple) else (value,))
            )
        if not ok:
            raise ValueError(f"'{name}' must {self.rule}, got {value!r}")


Finite = Annotated[float, Domain()]
Positive = Annotated[float, Domain("(0, inf)")]
NonNegative = Annotated[float, Domain("[0, inf)")]
Fraction = Annotated[float, Domain("(0, 1]")]
PositiveInt = Annotated[int, Domain("(0, inf)", integer=True)]
OptionalNonNegative = Annotated[float | None, Domain("[0, inf)", optional=True)]


@cache
def type_hints(cls) -> dict:
    """Field name -> its resolved annotation, ``Annotated`` extras kept, for ``cls``."""
    return get_type_hints(cls, include_extras=True)


@cache
def declared(cls) -> dict:
    """Field name -> its Domain, or the config dataclass it holds, for ``cls``."""
    return {
        name: next((a for a in (hint, *get_args(hint)) if isinstance(a, Domain) or is_dataclass(a)), None)
        for name, hint in type_hints(cls).items()
    }


def check_fields(obj):
    """Check each field of a config dataclass against its declared Domain."""
    for name, rule in declared(type(obj)).items():
        if type(rule) is Domain:
            rule.check(getattr(obj, name), name)
