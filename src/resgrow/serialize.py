"""Deterministic JSON and CSV emission.

Identical inputs must produce byte-identical output files, so floats
are always rendered with 17 significant digits (enough to round-trip a
double) instead of Python's shortest-repr rule, and no timestamps or
other run-dependent data ever enter a payload.

One rule, ``payload``, turns every result into plain data: a result's
payload is its fields in declaration order, each complex as [re, im].
"""

from __future__ import annotations

import dataclasses
import enum
import json
import math
from typing import Any, Sequence

import numpy as np


def format_float(x: float) -> str:
    """Render a float with 17 significant digits (round-trip exact)."""
    x = float(x)
    if math.isnan(x):
        return "NaN"
    if math.isinf(x):
        return "Infinity" if x > 0 else "-Infinity"
    return format(x, ".17g")


def complex_pair(z: complex) -> list[float]:
    """A complex scalar as the [re, im] pair used in every JSON payload."""
    z = complex(z)
    return [z.real, z.imag]


def payload(obj: Any) -> Any:
    """Plain data for ``dumps``: a dataclass becomes a dict of its fields, a
    dict keeps its keys, a list, tuple or ndarray becomes a list, an Enum its
    value and a complex its ``complex_pair``; anything else is kept as is.
    The rule reads runtime types, so a complex field must hold a complex."""
    if isinstance(obj, complex):  # tested first: a matrix payload holds n^2 of them
        return complex_pair(obj)
    if isinstance(obj, np.ndarray):
        return payload(obj.tolist())
    if isinstance(obj, (list, tuple)):
        return [payload(item) for item in obj]
    if isinstance(obj, dict):
        return {key: payload(value) for key, value in obj.items()}
    if dataclasses.is_dataclass(obj):
        return {f.name: payload(getattr(obj, f.name)) for f in dataclasses.fields(obj)}
    if isinstance(obj, enum.Enum):
        return obj.value
    return obj


def _render(obj: Any, level: int) -> str:
    pad = "  " * level
    inner = pad + "  "
    if obj is None:
        return "null"
    if isinstance(obj, (bool, np.bool_)):
        return "true" if obj else "false"
    if isinstance(obj, (int, np.integer)):
        return str(int(obj))
    if isinstance(obj, (float, np.floating)):
        return format_float(float(obj))
    if isinstance(obj, str):
        return json.dumps(obj)
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        parts = []
        for key, value in obj.items():
            if not isinstance(key, str):
                raise TypeError(f"JSON object keys must be strings, got {type(key)}")
            parts.append(f"{inner}{json.dumps(key)}: {_render(value, level + 1)}")
        return "{\n" + ",\n".join(parts) + "\n" + pad + "}"
    if isinstance(obj, (list, tuple)):
        items = list(obj)
        if not items:
            return "[]"
        if all(
            item is None or isinstance(item, (bool, int, float, str, np.bool_, np.integer, np.floating))
            for item in items
        ):
            return "[" + ", ".join(_render(item, level + 1) for item in items) + "]"
        parts = [f"{inner}{_render(item, level + 1)}" for item in items]
        return "[\n" + ",\n".join(parts) + "\n" + pad + "]"
    raise TypeError(f"cannot serialize {type(obj)} deterministically")


def dumps(obj: Any) -> str:
    """Serialize to JSON text with a trailing newline.

    Scalar-only lists render inline; nested structures get one element
    per line.  Key order is preserved; a raw complex raises TypeError (see ``payload``).
    """
    return _render(obj, 0) + "\n"


def csv_text(header: Sequence[str], rows: Sequence[Sequence[float]]) -> str:
    """Render numeric rows as CSV with the 17-digit float format.

    The whole table is formatted in one ``%.17g`` pass.  That writes
    inf and nan, which are then spelled as format_float spells them; no
    finite ``%.17g`` output contains those letters.
    """
    table = np.asarray(rows, dtype=float)
    line = ",".join(["%.17g"] * table.shape[-1]) + "\n"
    body = (line * table.shape[0]) % tuple(table.ravel().tolist())
    body = body.replace("inf", "Infinity").replace("nan", "NaN")
    return ",".join(header) + "\n" + body
