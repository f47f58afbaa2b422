"""Tests for the one-pass JSON writer against the recursive writer it replaced."""

import json
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, strategies as st

from qsodyn.jsonio import Records, dumps


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
        assert dumps(payload) == _render_reference(_as_lists(payload))


def _as_lists(obj):
    """obj with every Records turned into the list of dicts it stands for; the
    reference writer knows only lists and tuples."""
    if isinstance(obj, Records):
        return [_as_lists(row) for row in obj]
    if isinstance(obj, dict):
        return {key: _as_lists(value) for key, value in obj.items()}
    if isinstance(obj, (list, tuple)):
        return type(obj)(map(_as_lists, obj))
    return obj


# Lists of dicts that share one key tuple are written dict by dict, with the bytes of
# the reference writer. Each key draws one column of cells of one kind, or a mix.
_keys = (st.text(st.characters(max_codepoint=127)) | st.text() | st.text().map(lambda t: t + "%")
         | st.sampled_from(["x0", "é", "%", "%s", "%%", "%(a)s", "100%d"]))
_rows = st.integers(1, 4).flatmap(lambda w: st.lists(_finite, min_size=w, max_size=w))
_nested = st.tuples(st.integers(1, 3), st.integers(1, 3)).flatmap(
    lambda kw: st.lists(st.lists(_finite, min_size=kw[1], max_size=kw[1]),
                        min_size=kw[0], max_size=kw[0]))
_cells = [_finite, _finite.map(np.float64), _ints, st.booleans(), st.none(), _text,
          st.none() | st.booleans(), st.lists(_finite, max_size=4), st.just([])]


def _uniform(n, cell):
    return st.lists(cell, min_size=n, max_size=n)


def _columns(n):
    same_length_rows = _rows.flatmap(
        lambda row: _uniform(n, st.lists(_finite, min_size=len(row), max_size=len(row))))
    same_shape_blocks = _nested.flatmap(lambda block: _uniform(n, st.lists(
        st.lists(_finite, min_size=len(block[0]), max_size=len(block[0])),
        min_size=len(block), max_size=len(block))))
    mixed = _uniform(n, st.one_of(*_cells, _rows, _nested, _json))
    return st.one_of(*[_uniform(n, cell) for cell in _cells], same_length_rows,
                     same_shape_blocks, mixed)


@st.composite
def _record_lists(draw):
    keys = draw(st.lists(_keys, min_size=1, max_size=5, unique=True))
    n = draw(st.integers(2, 6))
    columns = [draw(_columns(n)) for _ in keys]
    return [dict(zip(keys, row)) for row in zip(*columns)]


class TestRecordLists:
    @given(records=_record_lists(), depth=st.integers(0, 2))
    @example(records=[{"a%s": [[0.5, 0.25]], "b": 1}, {"a%s": [[0.125, 1.0]], "b": 2}], depth=1)
    @example(records=[{"x": 1, "y": True}, {"x": True, "y": None}], depth=0)
    def test_equal_bytes(self, records, depth):
        obj = records
        for _ in range(depth):
            obj = {"level": obj, "records": [obj, records]}
        assert dumps(obj) == _render_reference(obj)

    def test_blocks_of_records(self):
        records = [{"i": i, "x": [i / 7, 0.5, 1.0 - i / 7], "p": [[0.25, 0.75]] * (1 + i % 2),
                    "kind": "fixed", "d": i * 1e-9, "ok": i % 3 != 0} for i in range(700)]
        assert dumps(records) == _render_reference(records)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("index", [0, 1, 299])
    @pytest.mark.parametrize("cell", [
        lambda x: x, np.float64, lambda x: [0.5, x], lambda x: [[0.25, 0.5], [x, 0.5]],
        lambda x: {"y": x}, lambda x: [{"y": 0.5}, {"y": x}]])
    def test_non_finite_anywhere_in_a_column(self, bad, index, cell):
        column = [cell(0.5)] * 300
        column[index] = cell(bad)
        for mixed in (False, True):
            if mixed:
                column[index - 1] = 7  # an int among the cells sends the column to the generic path
            with pytest.raises(ValueError):
                dumps([{"i": i, "v": v} for i, v in enumerate(column)])

    def test_peak_memory_is_bounded_by_the_text(self):
        records = [{"index": i, "x0": [i / 3e4, 0.5, 0.5 - i / 3e4], "predicted": [[1.0, 0.0, 0.0]],
                    "kind": "vertex", "steps": 40 + i % 9, "distance": i * 1e-12, "passed": True}
                   for i in range(20000)]
        tracemalloc.start()
        try:
            text = dumps({"points": records})
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 2.5 * len(text)


class TestTrajectoryPayload:
    def test_peak_memory_is_bounded_by_the_text(self):
        # The payload of `simulate --op 13 --a 0.45 --seed 7 --count 300`, built and
        # written under one trace: 300 orbits whose kept iterates are Records columns.
        from qsodyn import dynamics, simplex
        from qsodyn.catalog import operator_tensor

        def payload():
            reports = dynamics.omega_limits(
                operator_tensor(13, 0.45), [p.coords for p in simplex.sample(3, 7, 300)])
            return {"schema_version": 1, "source": {"op": 13, "a": 0.45},
                    "tol": dynamics.DEFAULT_TOL, "max_iter": dynamics.DEFAULT_MAX_ITER,
                    "trajectories": [r.to_json_dict() for r in reports]}

        tracemalloc.start()
        try:
            text = dumps(payload())
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(text) > 4e6
        assert peak <= 3 * len(text)


# Shapes of one cell of a float64 array column: a float, a row, a block of rows.
_CELL_SHAPES = [(), (1,), (3,), (0,), (1, 3), (2, 3), (2, 1), (0, 3), (2, 0)]


def _array_column(n):
    return st.sampled_from(_CELL_SHAPES).flatmap(lambda shape: st.lists(
        _finite, min_size=n * math.prod(shape), max_size=n * math.prod(shape)).map(
            lambda cells: np.array(cells, dtype=np.float64).reshape((n,) + shape)))


@st.composite
def _records(draw):
    keys = draw(st.lists(_keys, min_size=1, max_size=5, unique=True))
    n = draw(st.integers(0, 6))
    columns = [draw(_columns(n) | _array_column(n)) for _ in keys]
    return Records(keys, columns), _dict_rows(keys, columns)


def _dict_rows(keys, columns):
    """The list of dicts that Records(keys, columns) stands for, built without it."""
    cells = [c.tolist() if isinstance(c, np.ndarray) else c for c in columns]
    return [dict(zip(keys, row)) for row in zip(*cells)]


def _point_columns(n):
    """Columns shaped like the `verify` points: ints, float rows and blocks, text,
    ints mixed with None, floats, bools."""
    i = np.arange(n)
    x0 = np.stack((i / (3 * n), np.full(n, 0.5), 0.5 - i / (3 * n)), axis=1)
    steps = [40 + k % 9 if k % 5 else None for k in range(n)]
    return (list(range(n)), x0, np.stack((x0, x0[:, ::-1]), axis=1), ["cycle"] * n, steps,
            i * 1e-12, [s is not None for s in steps])


_POINT_KEYS = ("index", "x0", "predicted", "kind", "steps", "distance", "passed")


class TestRecords:
    @given(drawn=_records(), depth=st.integers(0, 2))
    @example(drawn=(Records(["x"], [np.array([-0.0, 5e-324, 1.7976931348623157e308])]),
                    [{"x": -0.0}, {"x": 5e-324}, {"x": 1.7976931348623157e308}]), depth=1)
    @example(drawn=(Records(["a", "b"], [np.zeros((2, 0, 3)), np.zeros((2, 3, 0))]),
                    [{"a": [], "b": [[], [], []]}] * 2), depth=0)
    def test_equal_bytes(self, drawn, depth):
        records, rows = drawn
        obj, ref = records, rows
        for _ in range(depth):
            obj = {"level": obj, "records": [obj, records]}
            ref = {"level": ref, "records": [ref, rows]}
        assert dumps(obj) == _render_reference(ref)

    def test_blocks_of_rows(self):
        columns = _point_columns(700)
        assert dumps(Records(_POINT_KEYS, columns)) == _render_reference(
            _dict_rows(_POINT_KEYS, columns))

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("row", [0, 1, 299])
    @pytest.mark.parametrize("shape", [(), (3,), (2, 3)])
    def test_non_finite_anywhere_in_an_array_column(self, bad, row, shape):
        column = np.full((300,) + shape, 0.5)
        column[(row,) + (0,) * len(shape)] = bad
        with pytest.raises(ValueError):
            dumps(Records(["i", "v"], [list(range(300)), column]))

    def test_peak_memory_is_bounded_by_the_text(self):
        records = Records(_POINT_KEYS, _point_columns(20000))
        tracemalloc.start()
        try:
            text = dumps({"points": records})
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 2.5 * len(text)

    def test_reads_as_the_list_of_dicts(self):
        columns = _point_columns(5)
        records, rows = Records(_POINT_KEYS, columns), _dict_rows(_POINT_KEYS, columns)
        assert list(records) == rows and len(records) == 5
        assert records == rows and rows == records and records == Records(_POINT_KEYS, columns)
        assert [records[i] for i in (0, 4, -1)] == [rows[0], rows[4], rows[-1]]
        assert records[1:3] == rows[1:3]
        assert type(records[0]["x0"][0]) is float and type(records[0]["distance"]) is float
        assert records != rows[:4] and records != tuple(rows) and records != rows[::-1]
        assert Records((), ()) == [] and dumps(Records((), ())) == "[]"
        with pytest.raises(IndexError):
            records[5]

    @pytest.mark.parametrize("keys,columns,error", [
        (["a", "a"], [[1], [2]], ValueError),
        (["a", "b"], [[1]], ValueError),
        (["a", "b"], [[1, 2], [3]], ValueError),
        (["a"], [np.array([1, 2])], TypeError),
        (["a"], [np.zeros((2, 1, 1, 1))], TypeError),
    ])
    def test_rejects_malformed_columns(self, keys, columns, error):
        with pytest.raises(error):
            Records(keys, columns)


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
        {1: "a"}, {"a": 1, 2: "b"}, {None: 1}, {(1, 2): 3}, {1.5: 0.0}, [{"ok": {True: 1}}],
        [{1: "a"}, {1: "b"}], [{"a": 1, None: 2}, {"a": 3, None: 4}]])
    def test_non_string_keys(self, bad):
        with pytest.raises(TypeError):
            _render_reference(bad)
        with pytest.raises(TypeError):
            dumps(bad)

    @pytest.mark.parametrize("bad", [
        object(), {1, 2}, b"bytes", np.int64(3), np.array([1.0]), [1.0, object()],
        {"a": [complex(1, 2)]}, [{"a": object()}, {"a": object()}],
        [{"a": np.int64(1)}, {"a": np.int64(2)}], [{"a": [1.0]}, {"a": [complex(1, 2)]}]])
    def test_unknown_types(self, bad):
        with pytest.raises(TypeError):
            _render_reference(bad)
        with pytest.raises(TypeError):
            dumps(bad)
