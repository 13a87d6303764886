"""Scenario parameters shared by the analytic, optimizer and simulation layers."""

import math
import numbers
from dataclasses import dataclass, replace, fields

from .errors import DomainError

__all__ = ["SystemParams", "parse_params_file", "check_fields"]

_RANGES = {
    "positive": (lambda v: v > 0, "a finite positive real"),
    "nonnegative": (lambda v: v >= 0, "a finite nonnegative real"),
    "counts": (lambda v: v >= 1, "a finite number >= 1"),
    "fractions": (lambda v: 0 < v < 1, "a real in (0, 1)"),
}


def check_fields(obj, **groups) -> None:
    """Validate the named fields of the frozen dataclass ``obj``.

    Each keyword (``positive``, ``nonnegative``, ``counts``, ``fractions``)
    lists field names whose values must be finite reals in that range; the
    first offender raises a DomainError naming it.  ``counts`` fields are then
    stored as ints.
    """
    for group, names in groups.items():
        in_range, what = _RANGES[group]
        for name in names:
            value = getattr(obj, name)
            if not (isinstance(value, numbers.Real) and math.isfinite(value)
                    and in_range(value)):
                raise DomainError(f"{name} must be {what}, got {value!r}")
    for name in groups.get("counts", ()):
        object.__setattr__(obj, name, int(getattr(obj, name)))


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

    def with_overrides(self, **kwargs) -> "SystemParams":
        return replace(self, **kwargs)


_INT_FIELDS = {"n_t", "n_d", "n_d_min", "n_d_max"}
_FIELD_NAMES = {f.name for f in fields(SystemParams)}


def parse_params_file(path) -> dict:
    """Read a ``key = value`` parameter file; '#' starts a comment."""
    overrides = {}
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise DomainError(f"{path}:{lineno}: expected 'key = value', got {raw!r}")
            key, value = (part.strip() for part in line.split("=", 1))
            if key not in _FIELD_NAMES:
                raise DomainError(f"{path}:{lineno}: unknown parameter {key!r}")
            try:
                overrides[key] = int(value) if key in _INT_FIELDS else float(value)
            except ValueError:
                raise DomainError(f"{path}:{lineno}: bad value for {key}: {value!r}") from None
    return overrides
