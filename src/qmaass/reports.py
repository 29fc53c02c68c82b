"""Structured pass/fail reports shared by every verification routine.

A check produces a :class:`CheckReport`: the check's name, the exact
parameters it ran with, a ``pass``/``fail`` status, and a detail map.  For
series comparisons the detail map pinpoints the first mismatching exponent
together with both coefficients, so a failing run is immediately actionable.
Reports serialize to single JSON objects (one line per check on the CLI).
"""

from __future__ import annotations

from fractions import Fraction

from .series import QSeries, choice_arg

__all__ = [
    "CheckReport",
    "report_from_comparison",
    "report_from_condition",
]


def _jsonable(value):
    """Render exact values as strings, containers recursively."""
    if isinstance(value, Fraction):
        return str(value)
    if isinstance(value, (bool, int, float, str)) or value is None:
        return value
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    if isinstance(value, dict):
        return {str(k): _jsonable(v) for k, v in value.items()}
    to_dict = getattr(value, "to_json_dict", None)
    if callable(to_dict):
        return to_dict()
    return str(value)


def _exact_str(value):
    """Exact scalars as strings (uniform type for JSON consumers)."""
    if isinstance(value, (int, Fraction)):
        return str(value)
    return _jsonable(value)


class Record:
    """Base of the package's frozen value records.

    A subclass's ``__init__`` checks its arguments, then sets every field
    at once with ``self.__dict__.update(...)`` in field order, so the
    instance dict is the field list.  Equality, hash and ``repr`` go by it
    as a frozen dataclass's do; assigning or deleting an attribute raises
    :class:`AttributeError`.  ``type(r)(**{**vars(r), name: value})`` is
    ``r`` with one field changed, checked again.
    """

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self.__dict__ == other.__dict__
        return NotImplemented

    def __hash__(self):
        return hash(tuple(self.__dict__.values()))

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={value!r}" for name, value in self.__dict__.items())
        return f"{self.__class__.__qualname__}({fields})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")


class CheckReport(Record):
    """Outcome of one verification check: ``status`` is "pass" or "fail"."""

    def __init__(self, check: str, params: dict, status: str, details: dict | None = None) -> None:
        choice_arg(status, "status", ("pass", "fail"))
        self.__dict__.update(
            check=check, params=params, status=status, details={} if details is None else details
        )

    @property
    def ok(self) -> bool:
        return self.status == "pass"

    def to_json_dict(self) -> dict:
        out = {
            "check": self.check,
            "params": _jsonable(self.params),
            "status": self.status,
        }
        for key, value in self.details.items():
            out[key] = _jsonable(value)
        return out


def report_from_comparison(
    check: str,
    params: dict,
    lhs: QSeries,
    rhs: QSeries,
) -> CheckReport:
    """Coefficient-exact comparison below both truncations."""
    bad = lhs.first_mismatch(rhs)
    if bad is None:
        return CheckReport(check, dict(params), "pass")
    return CheckReport(
        check,
        dict(params),
        "fail",
        {
            "first_mismatch_exponent": _exact_str(bad),
            "lhs_coeff": _exact_str(lhs.coeff(bad)),
            "rhs_coeff": _exact_str(rhs.coeff(bad)),
        },
    )


def report_from_condition(
    check: str,
    params: dict,
    holds: bool,
    details: dict | None = None,
) -> CheckReport:
    """Boolean check; ``details`` are attached either way."""
    return CheckReport(check, dict(params), "pass" if holds else "fail", dict(details or {}))
