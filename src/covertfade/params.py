"""The one scenario model: ``SystemParams`` holds every scenario constant and
validates it when built.  The link, optimizer and simulation layers read it;
``_FIELD_TYPES`` parses its fields' text for the CLI flags and the parameter
file, ``float`` for reals and ``count`` for counts.  The CLI varies fields on
copies made with ``dataclasses.replace``, which validates again; the optimizer
scores its candidate ``n_d`` and ``p_d`` with no copy.  ``check_value`` judges
every scalar input of every layer against a ``_RANGES`` group."""

import contextlib
import math
import numbers
from dataclasses import dataclass, fields

import numpy as np

from .errors import DomainError

__all__ = ["SystemParams", "parse_params_file", "count", "check_fields", "check_value",
           "overflow_check"]

_RANGES = {
    "finite": (lambda v: True, "a finite real"),
    "positive": (lambda v: v > 0, "a finite positive real"),
    "nonnegative": (lambda v: v >= 0, "a finite nonnegative real"),
    "counts": (lambda v: v >= 1 and v % 1 == 0, "an integer >= 1"),
    "fractions": (lambda v: 0 < v < 1, "a real in (0, 1)"),
    "seeds": (lambda v: isinstance(v, numbers.Integral) and 0 <= v < 2**64,
              "an integer in [0, 2**64)"),
}


def check_value(name, value, group):
    """``value`` if it is a finite real in ``group``'s range (a ``check_fields``
    keyword), a count as an int; else a DomainError naming ``name``.  A plain
    float or int is known real by its exact type; any other value (bool, numpy
    scalars, ``Fraction``) takes the slower ``numbers.Real`` test."""
    in_range, what = _RANGES[group]
    try:
        if ((type(value) in (float, int) or isinstance(value, numbers.Real))
                and math.isfinite(value) and in_range(value)):
            return int(value) if group == "counts" else value
        got = repr(value)
    except OverflowError:  # an int beyond the largest double; repr may refuse it
        got = "an integer beyond the largest double"
    raise DomainError(f"{name} must be {what}, got {got}")


def count(text):
    """A count's text at its exact decimal value: a whole number within the
    range of doubles as the int it spells, any other real text as the text,
    which the count's own check then rejects; ValueError on text that is no
    real.  The float read first bounds the power of ten that is built; the
    text is then read exactly by ``decimal.Decimal``."""
    if not 0 < abs(float(text)) < math.inf:  # so 0e9999 and 1e9999 build nothing
        return text
    from decimal import Decimal  # loaded here, not at CLI start

    value = Decimal(text)
    return int(value) if value == value.to_integral_value() else text


@contextlib.contextmanager
def overflow_check(what):
    """Run the block's numpy arithmetic with overflow raising a DomainError
    that starts with ``what`` (naming the input too large), in place of a
    RuntimeWarning and an inf."""
    try:
        with np.errstate(over="raise"):
            yield
    except FloatingPointError as exc:
        raise DomainError(f"{what}: {exc}") from None


def check_fields(obj, **groups) -> None:
    """Validate the named fields of the frozen dataclass ``obj``.

    Each keyword (a ``_RANGES`` group: ``positive``, ``nonnegative``,
    ``counts``, ``fractions``, ``seeds``) lists field names whose values
    ``check_value`` judges in that range; the first offender raises a
    DomainError naming it.  ``counts`` fields are integral reals >= 1, and
    are stored as ints.
    """
    for group, names in groups.items():
        for name in names:
            value = check_value(name, getattr(obj, name), group)
            if group == "counts":
                object.__setattr__(obj, name, value)


@dataclass(frozen=True)
class SystemParams:
    """All scenario constants, defaulting to the reference numerical setup.

    Powers and noise variances are linear; ``rate`` is bits per channel use.
    ``p_d`` and ``n_d`` describe the transmission being analyzed or simulated
    (the optimizer treats them as design variables instead).
    """

    sigma_b2: float = 0.01
    sigma_w2: float = 0.05
    rate: float = 1.0
    p_max: float = 1.0
    n_t: int = 1
    p_t: float = None  # defaults to p_max
    n_d_min: int = 50
    n_d_max: int = 100
    epsilon: float = 0.05
    p_d: float = 0.01
    n_d: int = 50

    def __post_init__(self):
        if self.p_t is None:
            object.__setattr__(self, "p_t", self.p_max)
        check_fields(
            self,
            positive=("sigma_b2", "sigma_w2", "rate", "p_max", "p_t"),
            nonnegative=("p_d",),
            counts=("n_t", "n_d", "n_d_min", "n_d_max"),
            fractions=("epsilon",),
        )
        if self.n_d_min > self.n_d_max:
            raise DomainError("need n_d_min <= n_d_max")


_FIELD_TYPES = {f.name: count if f.type is int else f.type for f in fields(SystemParams)}


def parse_params_file(path) -> dict:
    """Read a ``key = value`` parameter file; '#' starts a comment."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            lines = fh.readlines()
    except (OSError, UnicodeDecodeError) as exc:
        raise DomainError(f"{path}: {getattr(exc, 'strerror', None) or exc}") from None
    overrides = {}
    for lineno, raw in enumerate(lines, start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise DomainError(f"{path}:{lineno}: expected 'key = value', got {raw!r}")
        key, value = (part.strip() for part in line.split("=", 1))
        if key not in _FIELD_TYPES:
            raise DomainError(f"{path}:{lineno}: unknown parameter {key!r}")
        try:
            overrides[key] = _FIELD_TYPES[key](value)
        except ValueError:
            raise DomainError(f"{path}:{lineno}: bad value for {key}: {value!r}") from None
    return overrides
