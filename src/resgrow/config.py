"""Run configuration: tolerances and search parameters.

A single frozen dataclass carries every tunable used by the library.
Each function that reads one takes an optional ``cfg`` argument
defaulting to ``DEFAULT_CONFIG`` and raises ValueError, before it computes
anything, when ``cfg`` is not a RunConfig; the CLI reads one from the JSON
file of ``--config``, if given.  No environment variables are consulted.
"""

from __future__ import annotations

import cmath
import dataclasses
import math
import numbers
from dataclasses import dataclass

from .serialize import load_json

# The scalar argument rule of the package: each helper returns the value
# converted or raises ValueError naming it.  bool is not a number, and an
# integer too large for a float is not finite.


def _is_number(value) -> bool:
    return isinstance(value, numbers.Complex) and not isinstance(value, bool)


def _finite(value) -> bool:
    try:
        return cmath.isfinite(value)
    except OverflowError:
        return False


def _integer(name: str, value, low: int) -> int:
    if isinstance(value, bool) or not isinstance(value, numbers.Integral) or value < low:
        raise ValueError(f"{name} must be an integer >= {low}, got {value!r}")
    return int(value)


def _real(
    name: str, value, low: float = -math.inf, positive: bool = False, finite: bool = True
) -> float:
    """A real >= low, or > 0 when positive: finite, or with finite=False also +-inf."""
    ok = isinstance(value, numbers.Real) and _is_number(value)
    ok = ok and (_finite(value) or not finite and abs(value) == math.inf)
    if not (ok and (value > 0 if positive else value >= low)):
        what = "positive" if positive else "a number" + (f" >= {low}" if low > -math.inf else "")
        what += " and finite" if finite else " and not NaN"
        raise ValueError(f"{name} must be {what}, got {value!r}")
    return float(value)


def _point(name: str, value) -> complex:
    if not (_is_number(value) and _finite(value)):
        raise ValueError(f"{name} must be a complex number and finite, got {value!r}")
    return complex(value)


def _run_config(cfg) -> RunConfig:
    if not isinstance(cfg, RunConfig):
        raise ValueError(f"cfg must be a RunConfig, got {cfg!r}")
    return cfg


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
    return config_from_dict(load_json(path, "config"))
