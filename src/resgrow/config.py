"""Run configuration: tolerances and search parameters.

A single frozen dataclass carries every tunable used by the library.
Each function that reads one takes an optional ``cfg`` argument
defaulting to ``DEFAULT_CONFIG``; the CLI builds one from an optional
JSON file plus flag overrides.  No environment variables are consulted.
"""

from __future__ import annotations

import cmath
import dataclasses
import json
import math
import numbers
from dataclasses import dataclass

# The scalar argument rule of the package: each helper returns the value
# converted or raises ValueError naming it.  bool is not a number.


def _integer(name: str, value, low: int) -> int:
    if isinstance(value, bool) or not isinstance(value, numbers.Integral) or value < low:
        raise ValueError(f"{name} must be an integer >= {low}, got {value!r}")
    return int(value)


def _real(name: str, value, low: float = -math.inf, positive: bool = False) -> float:
    """A finite real >= low, or > 0 when positive."""
    ok = not isinstance(value, bool) and isinstance(value, numbers.Real) and math.isfinite(value)
    if not (ok and (value > 0 if positive else value >= low)):
        what = "positive" if positive else "a number" + (f" >= {low}" if low > -math.inf else "")
        raise ValueError(f"{name} must be {what} and finite, got {value!r}")
    return float(value)


def _point(name: str, value) -> complex:
    if isinstance(value, bool) or not isinstance(value, numbers.Complex) or not cmath.isfinite(value):
        raise ValueError(f"{name} must be a complex number and finite, got {value!r}")
    return complex(value)


# smallest legal value of each integer field; floats must be finite and >= 0
_INT_MINIMUMS = {"s_seg": 2, "max_steps": 1, "max_halvings": 0}


@dataclass(frozen=True)
class RunConfig:
    # decomposition / solve accuracy
    tol_svd: float = 1e-10
    tol_solve: float = 1e-10
    tol_eig: float = 1e-8
    # a shift is treated as singular at or below this smallest singular value
    tol_singular: float = 1e-12
    # threshold for treating the growth quantities as numerically zero,
    # scaled by the appropriate power of the resolvent norm
    tol_zero: float = 1e-9
    # relative gap between the two largest singular values of the
    # resolvent below which the maximizing vector is flagged degenerate
    degeneracy_gap: float = 1e-6
    # samples per segment in the path line search
    s_seg: int = 33
    # path search limits: max_steps vertices; along each direction (the
    # analyzed one, then an escape fan) the steps d, d/2, ... down to d/4
    # halved max_halvings times, d the distance to the spectrum
    max_steps: int = 10000
    max_halvings: int = 40

    def __post_init__(self):
        """Check every field by the package's scalar rule: an integer field
        takes an integer, a float field a finite real >= 0, stored as a float."""
        for name, value in vars(self).items():
            key, low = f"config key {name!r}", _INT_MINIMUMS.get(name)
            value = _real(key, value, 0.0) if low is None else _integer(key, value, low)
            object.__setattr__(self, name, value)

    def replace(self, **kw) -> "RunConfig":
        return dataclasses.replace(self, **kw)


DEFAULT_CONFIG = RunConfig()

_FIELDS = {f.name for f in dataclasses.fields(RunConfig)}


def config_from_dict(data: dict) -> RunConfig:
    """Build a RunConfig from a plain dict, rejecting unknown keys."""
    if not isinstance(data, dict):
        raise ValueError("config must be a JSON object")
    for key in data:
        if key not in _FIELDS:
            raise ValueError(f"unknown config key: {key!r}")
    return RunConfig(**data)


def load_config(path: str) -> RunConfig:
    """Read a JSON config file.  Unknown keys are an error."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            data = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ValueError(f"malformed config file {path}: {exc}") from exc
    return config_from_dict(data)
