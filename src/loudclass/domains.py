"""Declared domains: the values a hyperparameter, a config field or a
command option takes, written once as its annotation and checked by
``check``.

A domain is a kind (int, float, str or bool), the kind ``Annotated`` with
bounds (``Annotated[int, AtLeast(1), AtMost(100)]``), None, a union of
domains, or a tuple of one, which takes a non-empty list. An int takes an
integer and a float a finite number, as JSON decodes them; neither takes a
bool, and NaN lies within no bound.
"""

from __future__ import annotations

import math
import numbers
import types
from dataclasses import dataclass, fields
from functools import cache
from typing import Annotated, Union, get_args, get_origin, get_type_hints

from .errors import ConfigurationError


@dataclass(frozen=True)
class AtLeast:
    low: int | float

    def admits(self, value) -> bool:
        return value >= self.low

    def __str__(self) -> str:
        return f">= {self.low}"


class Above(AtLeast):
    def admits(self, value) -> bool:
        return value > self.low

    def __str__(self) -> str:
        return f"> {self.low}"


@dataclass(frozen=True)
class AtMost:
    high: int | float

    def admits(self, value) -> bool:
        return value <= self.high

    def __str__(self) -> str:
        return f"<= {self.high}"


@dataclass(frozen=True)
class OneOf:
    values: tuple

    def admits(self, value) -> bool:
        return value in self.values

    def __str__(self) -> str:
        return "one of " + ", ".join(map(str, self.values))


# numpy's SeedSequence takes non-negative integers.
Seed = Annotated[int, AtLeast(0)]


def _is_int(value) -> bool:
    return isinstance(value, numbers.Integral) and not isinstance(value, bool)


def _is_finite(value) -> bool:
    if not isinstance(value, numbers.Real) or isinstance(value, bool):
        return False
    try:
        return math.isfinite(value)
    except OverflowError:  # an integer beyond the float range
        return False


_KINDS = {
    int: ("an integer", _is_int),
    float: ("a finite number", _is_finite),
    str: ("a string", lambda v: isinstance(v, str)),
    bool: ("true or false", lambda v: isinstance(v, bool)),
}


@cache
def domain(annotation, *, bounded: bool = False):
    """The description and the test of the values ``annotation`` admits;
    with ``bounded``, each kind in it must carry a bound, as every
    hyperparameter's does. An annotation that declares no domain raises
    here, so its declaration fails at import."""
    origin, args = get_origin(annotation), get_args(annotation)
    if origin in (Union, types.UnionType):
        members = [domain(arg, bounded=bounded) for arg in args]
        return (" or ".join(what for what, _ in members),
                lambda v: any(admits(v) for _, admits in members))
    if annotation is type(None):
        return "null", lambda v: v is None
    if origin is tuple and len(args) == 2 and args[1] is Ellipsis:
        what, admits = domain(args[0], bounded=bounded)
        return (f"a non-empty list, each {what}",
                lambda v: isinstance(v, (list, tuple)) and len(v) > 0 and all(map(admits, v)))
    kind, bounds = (args[0], args[1:]) if origin is Annotated else (annotation, ())
    numeric = kind in (int, float)
    if kind in _KINDS and (bounds or not bounded) and all(
        isinstance(b, OneOf) or (numeric and isinstance(b, (AtLeast, AtMost))) for b in bounds
    ):
        what, is_kind = _KINDS[kind]
        parts = [str(b) for b in bounds]
        if not any(isinstance(b, OneOf) for b in bounds):  # choices name their kind
            parts[:1] = [" ".join([what, *parts[:1]])]
        # The kind test comes first, so a bound compares values of its kind only.
        return (" and ".join(parts),
                lambda v: is_kind(v) and all(b.admits(v) for b in bounds))
    raise TypeError(f"no domain declared by the annotation {annotation!r}")


def check(what: str, value, annotation) -> None:
    """Reject, as a ``ConfigurationError`` naming ``what``, a value outside
    the domain ``annotation`` declares."""
    description, admits = domain(annotation)
    if not admits(value):
        raise ConfigurationError(f"{what} must be {description}, got {value!r}")


@cache
def field_annotations(cls) -> dict:
    """The annotation of each field of the dataclass ``cls``, by name."""
    hints = get_type_hints(cls, include_extras=True)
    return {f.name: hints[f.name] for f in fields(cls)}


def check_fields(obj) -> None:
    """``check`` each field of the dataclass ``obj`` that declares a domain:
    each annotated with a number kind or with bounds."""
    for name, annotation in field_annotations(type(obj)).items():
        if annotation in (int, float) or get_origin(annotation) is Annotated:
            check(name, getattr(obj, name), annotation)
