"""Run configuration: tolerances and search parameters.

A single frozen dataclass carries every tunable used by the library.
Each function that reads one takes an optional ``cfg`` argument
defaulting to ``DEFAULT_CONFIG``; the CLI builds one from an optional
JSON file plus flag overrides.  No environment variables are consulted.
"""

from __future__ import annotations

import dataclasses
import json
import math
import numbers
from dataclasses import dataclass

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
        """Check every field: an integer field takes an integer, a float
        field any real number, stored as a float; bool counts as neither."""
        for name, value in vars(self).items():
            is_int = name in _INT_MINIMUMS
            kind, what = (numbers.Integral, "an integer") if is_int else (numbers.Real, "a number")
            if isinstance(value, bool) or not isinstance(value, kind):
                raise ValueError(f"config key {name!r} must be {what}")
            low = _INT_MINIMUMS.get(name, 0.0)
            if not (math.isfinite(value) and value >= low):
                raise ValueError(f"config key {name!r} must be finite and >= {low}, got {value}")
            object.__setattr__(self, name, int(value) if is_int else float(value))

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
