import dataclasses
import enum
import json
import math

import numpy as np
import pytest

from resgrow.serialize import complex_pair, csv_text, dumps, format_float, payload


def test_format_float_repr_grade():
    assert format_float(1.0) == "1"
    assert format_float(0.5) == "0.5"
    assert format_float(0.1) == "0.10000000000000001"
    assert format_float(-2.25) == "-2.25"


def test_format_float_non_finite():
    assert format_float(math.inf) == "Infinity"
    assert format_float(-math.inf) == "-Infinity"
    assert format_float(math.nan) == "NaN"


def test_format_float_round_trips():
    rng = np.random.default_rng(11)
    for x in rng.standard_normal(200) * 10.0 ** rng.integers(-12, 12, 200):
        assert float(format_float(float(x))) == float(x)


def test_complex_pair():
    assert complex_pair(1.5 - 2j) == [1.5, -2.0]
    assert complex_pair(0j) == [0.0, 0.0]


def test_dumps_matches_json_semantics():
    obj = {"a": 1, "b": [1.5, 2.5], "c": {"d": True, "e": None, "f": "x\"y"}}
    assert json.loads(dumps(obj)) == obj


def test_dumps_trailing_newline_and_inline_scalars():
    text = dumps({"v": [1, 2, 3]})
    assert text.endswith("\n")
    assert '"v": [1, 2, 3]' in text
    assert dumps({}) == "{}\n"
    assert dumps({"a": {}}) == '{\n  "a": {}\n}\n'


def test_dumps_nested_lists_multiline():
    text = dumps({"m": [[1.0, 0.0], [0.0, 1.0]]})
    assert "[\n" in text


def test_dumps_preserves_key_order():
    text = dumps({"zz": 1, "aa": 2})
    assert text.index("zz") < text.index("aa")


def test_dumps_bools_not_ints():
    assert '"x": true' in dumps({"x": True})
    assert '"x": 1' in dumps({"x": 1})


def test_dumps_numpy_scalars():
    out = json.loads(dumps({"a": np.float64(0.5), "b": np.int64(3), "c": np.bool_(True)}))
    assert out == {"a": 0.5, "b": 3, "c": True}


def test_dumps_rejects_unknown_types():
    with pytest.raises(TypeError):
        dumps({"x": object()})
    with pytest.raises(TypeError):
        dumps({"x": 1 + 2j})  # complex must go through payload first
    with pytest.raises(TypeError, match="JSON object keys must be strings, got <class 'int'>"):
        dumps({1: 2.0})


def test_dumps_deterministic():
    obj = {"a": [0.1, 0.2, float("inf")], "b": {"c": -0.0}}
    assert dumps(obj) == dumps(obj)


def test_csv_text():
    text = csv_text(["t", "x"], [[0.5, 1.0], [1.0, 2.5]])
    lines = text.splitlines()
    assert lines[0] == "t,x"
    assert lines[1] == "0.5,1"
    assert lines[2] == "1,2.5"
    assert text.endswith("\n")


def test_csv_text_matches_format_float():
    rows = [
        [math.inf, -math.inf, math.nan],
        [-0.0, 5e-324, -5e-324],
        [0.1, -1e300, 2.0 / 3.0],
    ]
    expected = "a,b,c\n" + "".join(",".join(map(format_float, row)) + "\n" for row in rows)
    assert csv_text(["a", "b", "c"], rows) == expected
    assert csv_text(["a", "b", "c"], np.array(rows)) == expected
    assert csv_text(["a"], []) == "a\n"


class _Color(enum.Enum):
    RED = "red"


@dataclasses.dataclass(frozen=True)
class _Inner:
    w: complex
    color: _Color


@dataclasses.dataclass(frozen=True)
class _Outer:
    name: str
    inner: _Inner
    values: np.ndarray
    pairs: tuple
    missing: float | None
    extra: dict


def test_payload_converts_nested_results():
    obj = _Outer(
        name="x",
        inner=_Inner(w=1.0 - 2.0j, color=_Color.RED),
        values=np.array([1.0 + 0.5j, -2.0j]),
        pairs=(1, (2.5, 3j)),
        missing=None,
        extra={"b": 4j, "a": [_Color.RED]},
    )
    data = payload(obj)
    assert list(data) == ["name", "inner", "values", "pairs", "missing", "extra"]
    assert data == {
        "name": "x",
        "inner": {"w": [1.0, -2.0], "color": "red"},
        "values": [[1.0, 0.5], [0.0, -2.0]],
        "pairs": [1, [2.5, [0.0, 3.0]]],
        "missing": None,
        "extra": {"b": [0.0, 4.0], "a": ["red"]},
    }
    assert list(data["extra"]) == ["b", "a"]
    assert json.loads(dumps(data)) == data


def test_payload_scalars():
    assert payload(1.5 - 2j) == [1.5, -2.0]
    assert payload(np.complex128(0.25j)) == [0.0, 0.25]
    assert payload(None) is None
    assert payload(_Color.RED) == "red"
    assert payload((1, "a", True)) == [1, "a", True]
    assert payload({}) == {}
    assert payload(np.arange(4.0).reshape(2, 2)) == [[0.0, 1.0], [2.0, 3.0]]
    assert payload(np.array(2j)) == [0.0, 2.0]
