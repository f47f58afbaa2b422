"""Tests for the one-pass JSON writer against the recursive writer it replaced."""

import json
import math

import numpy as np
import pytest
from hypothesis import example, given, strategies as st

from qsodyn.jsonio import dumps


def _format_float_reference(x):
    if math.isnan(x) or math.isinf(x):
        raise ValueError("refusing to serialize a non-finite float")
    return format(x, ".17g")


def _render_reference(obj, level=0):
    """The writer as it stood before the one-pass writer: one string per node."""
    pad = "  " * level
    inner = "  " * (level + 1)
    if obj is None:
        return "null"
    if isinstance(obj, bool):
        return "true" if obj else "false"
    if isinstance(obj, int):
        return str(obj)
    if isinstance(obj, float):
        return _format_float_reference(obj)
    if isinstance(obj, str):
        return json.dumps(obj)
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        items = []
        for key, value in obj.items():
            if not isinstance(key, str):
                raise TypeError(f"JSON object keys must be strings, got {type(key)}")
            items.append(f'{inner}{json.dumps(key)}: {_render_reference(value, level + 1)}')
        return "{\n" + ",\n".join(items) + "\n" + pad + "}"
    if isinstance(obj, (list, tuple)):
        seq = list(obj)
        if not seq:
            return "[]"
        if all(isinstance(v, (int, float)) and not isinstance(v, bool) for v in seq):
            return "[" + ", ".join(_render_reference(v, 0) for v in seq) + "]"
        items = [f"{inner}{_render_reference(v, level + 1)}" for v in seq]
        return "[\n" + ",\n".join(items) + "\n" + pad + "]"
    raise TypeError(f"cannot serialize {type(obj)}")


_EDGE_FLOATS = [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1.7976931348623157e308,
                -1.7976931348623157e308, 0.1, 1e16, 1e-7, 123456789.0]
_finite = st.floats(allow_nan=False, allow_infinity=False) | st.sampled_from(_EDGE_FLOATS)
_ints = st.integers() | st.integers(min_value=-10 ** 80, max_value=10 ** 80)
_text = st.text() | st.sampled_from(["", "é", "☃ snow", "tab\there", "quote\"s", "\U0001f600"])
_leaves = (st.none() | st.booleans() | _ints | _finite | _finite.map(np.float64) | _text)
# Numeric lists render inline, and one bool among numbers breaks the list across lines.
_lists = (st.lists(_finite) | st.lists(_ints | _finite) | st.lists(_finite | st.booleans())
          | st.lists(_finite.map(np.float64) | _finite))
_json = st.recursive(
    _leaves | _lists,
    lambda children: (st.lists(children, max_size=5) | st.lists(children, max_size=5).map(tuple)
                      | st.dictionaries(_text, children, max_size=5)),
    max_leaves=40)


class TestMatchesReference:
    @given(obj=_json)
    @example(obj={"reports": [{"x0": [0.1, 0.2, 0.7], "predicted": [[1.0, 0.0, 0.0]],
                               "steps": None, "passed": True}], "é": "ü"})
    @example(obj=[1, 2.5, -0.0, 10 ** 30])
    @example(obj=[1.0, True, 2.0])
    @example(obj=(np.float64(0.1), 0.2))
    @example(obj={"": [], "a": {}, "b": ()})
    def test_equal_bytes(self, obj):
        assert dumps(obj) == _render_reference(obj)

    def test_verify_payload(self):
        from qsodyn.dynamics import verify_predictions
        payload = {"reports": [r.to_json_dict() for r in
                               verify_predictions(28, (0.3,), seeds=30, max_iter=3)]}
        assert dumps(payload) == _render_reference(payload)


class TestRejects:
    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf, np.float64("nan"),
                                     np.float64("inf"), -np.float64("inf")])
    @pytest.mark.parametrize("wrap", [
        lambda x: x, lambda x: [x], lambda x: [1.0, x], lambda x: [1, x], lambda x: (x, 0.5),
        lambda x: {"a": x}, lambda x: {"a": [0.1, 0.2, x]}, lambda x: [[x], True]])
    def test_non_finite_floats(self, bad, wrap):
        with pytest.raises(ValueError):
            _render_reference(wrap(bad))
        with pytest.raises(ValueError):
            dumps(wrap(bad))

    @pytest.mark.parametrize("bad", [
        {1: "a"}, {"a": 1, 2: "b"}, {None: 1}, {(1, 2): 3}, {1.5: 0.0}, [{"ok": {True: 1}}]])
    def test_non_string_keys(self, bad):
        with pytest.raises(TypeError):
            _render_reference(bad)
        with pytest.raises(TypeError):
            dumps(bad)

    @pytest.mark.parametrize("bad", [
        object(), {1, 2}, b"bytes", np.int64(3), np.array([1.0]), [1.0, object()],
        {"a": [complex(1, 2)]}])
    def test_unknown_types(self, bad):
        with pytest.raises(TypeError):
            _render_reference(bad)
        with pytest.raises(TypeError):
            dumps(bad)
