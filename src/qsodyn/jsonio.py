"""Deterministic JSON emission with fixed-precision floats.

Every float is written with 17 significant digits, which round-trips every
64-bit value exactly and keeps repeated runs byte-identical. Lists whose
elements are all numbers render inline so coordinate triples stay readable.
`Records` are written column by column, with the bytes of the list of dicts
they stand for; float data reaches that path only as float64 ndarray columns.
A list of dicts is written dict by dict.
"""

from __future__ import annotations

import sys
from collections.abc import Sequence
from json.encoder import encode_basestring_ascii as _quote  # what json.dumps writes for a str

_17G = "%.17g".__mod__
_CONSTANTS = {None: "null", True: "true", False: "false"}
_TYPES = (float, int, dict, list, tuple, str, bool, type(None))  # a subclass takes the first base
_BLOCK = 64  # records per batch of column texts, so one batch's texts are alive at a time
_NON_FINITE = "refusing to serialize a non-finite float"


class Records(Sequence):
    """Dicts that share one key tuple, held column by column: row i is
    dict(zip(keys, (column[i] for column in columns))).

    A column is a list or tuple of values, or a float64 ndarray of ndim 1, 2
    or 3 whose rows stand for floats, lists of floats or lists of such lists.
    Float data is written column by column only from such arrays. Records are
    the one way to ask for column output; a list of dicts is written dict by
    dict. Records compare equal to the list of dicts they stand for, and
    `dumps` writes them with that list's bytes.
    """

    __slots__ = ("keys", "columns")

    def __init__(self, keys, columns):
        self.keys, self.columns = tuple(keys), tuple(columns)
        if len(set(self.keys)) != len(self.keys) or len(self.keys) != len(self.columns):
            raise ValueError("Records need distinct keys, one column per key")
        if len(set(map(len, self.columns))) > 1:
            raise ValueError("Records columns must share one length")
        for column in self.columns:
            if _is_array(column) and not (column.dtype == "float64" and 1 <= column.ndim <= 3):
                raise TypeError(f"cannot serialize a {column.dtype} array of ndim {column.ndim}")

    def __len__(self) -> int:
        return len(self.columns[0]) if self.columns else 0

    def __getitem__(self, i):
        if isinstance(i, slice):
            return Records(self.keys, [column[i] for column in self.columns])
        return dict(zip(self.keys, [column[i].tolist() if _is_array(column)
                                    else column[i] for column in self.columns]))

    def __iter__(self):
        keys, cells = self.keys, [column.tolist() if _is_array(column) else column
                                  for column in self.columns]
        return (dict(zip(keys, row)) for row in zip(*cells))

    def __eq__(self, other) -> bool:
        if not isinstance(other, (Records, list)):
            return NotImplemented
        return list(self) == list(other)


def _is_array(value) -> bool:
    """True for a numpy ndarray. numpy is not imported here: no ndarray exists before it is."""
    np = sys.modules.get("numpy")
    return np is not None and isinstance(value, np.ndarray)


def dumps(obj) -> str:
    """JSON text of obj in one pass; each container's text is joined once."""
    return _render(obj, "\n", {})


def _floats(values) -> str:
    """Floats joined by ", "; the .17g texts of inf, -inf and nan are the only ones with an n."""
    text = ", ".join(map(_17G, values))
    if "n" in text:
        raise ValueError(_NON_FINITE)
    return text


def _render(obj, pad: str, keys: dict[str, str]) -> str:
    """obj as JSON text. pad is the line break and indent of obj's last line;
    keys caches the quoted text of each dict key."""
    kind = type(obj)
    if kind not in _TYPES:  # a subclass such as numpy.float64 follows its base type's rule
        kind = next((base for base in _TYPES if isinstance(obj, base)), kind)
    if kind is float:
        return _floats((obj,))
    if kind is int:
        return str(obj)
    if kind is dict:
        _quote_keys(obj, keys)
        heads, values, brackets = [keys[key] for key in obj], obj.values(), "{}"
    elif kind is list or kind is tuple:
        kinds = set(map(type, obj))
        if kinds == {float}:
            return "[" + _floats(obj) + "]"
        if obj and all(isinstance(v, (int, float)) and not isinstance(v, bool) for v in obj):
            return "[" + ", ".join([_render(v, pad, keys) for v in obj]) + "]"
        heads, values, brackets = [""] * len(obj), obj, "[]"
    elif kind is str:
        return _quote(obj)
    elif kind is bool or obj is None:
        return _CONSTANTS[obj]
    elif kind is Records:
        return _records(obj, pad, keys) if len(obj) else "[]"
    else:
        raise TypeError(f"cannot serialize {type(obj)}")
    if not values:
        return brackets
    inner = pad + "  "
    parts = []  # one join per container, so each value's text is copied once
    for head, value in zip(heads, values):
        parts += (",", inner, head, _render(value, inner, keys))
    parts[0] = brackets[0]
    parts += (pad, brackets[1])
    return "".join(parts)


def _quote_keys(names, keys: dict[str, str]) -> None:
    for key in set(names) - keys.keys():
        keys[key] = _quote(key) + ": "  # _quote raises TypeError on a key that is no str


def _records(records: Records, pad: str, keys: dict[str, str]) -> str:
    """Text of one or more records with at least one key: each record is one
    `%` of a template that holds the quoted keys, filled from per-column texts
    made one block of rows at a time."""
    _quote_keys(records.keys, keys)
    inner = pad + "  "
    field = inner + "  "
    template = "{" + ",".join(
        field + keys[key].replace("%", "%%") + "%s" for key in records.keys) + inner + "}"
    sep = "," + inner
    parts = ["[", inner]
    for start in range(0, len(records), _BLOCK):
        texts = [_column(column[start:start + _BLOCK], field, keys) for column in records.columns]
        parts += (sep.join(map(template.__mod__, zip(*texts))), sep)
    parts[-1] = pad  # in place of the separator after the last block
    parts.append("]")
    return "".join(parts)


def _column(values, pad: str, keys: dict[str, str]):
    """The texts of one field's values: a float64 array by its shape, any other
    column by the exact types found in it, or value by value."""
    if _is_array(values):
        if not sys.modules["numpy"].isfinite(values).all():
            raise ValueError(_NON_FINITE)
        return map(_cell_format(values.shape[1:], pad).__mod__,
                   map(tuple, values.reshape(len(values), -1).tolist()))
    kinds = set(map(type, values))
    if kinds == {int}:
        return map(str, values)
    if kinds == {str}:
        return map(_quote, values)
    if kinds <= {bool, type(None)}:
        return map(_CONSTANTS.__getitem__, values)
    if kinds == {int, type(None)}:
        return ["null" if value is None else str(value) for value in values]
    return [_render(value, pad, keys) for value in values]


def _cell_format(shape: tuple, pad: str) -> str:
    """The `%` format of one cell of a float column, by the cell's shape: () a
    float, (m,) a row of floats, (k, m) a block of such rows indented below pad."""
    if not shape:
        return "%.17g"
    row = "[" + ", ".join(["%.17g"] * shape[-1]) + "]"
    if len(shape) == 1:
        return row
    return "[" + ",".join([pad + "  " + row] * shape[0]) + pad + "]" if shape[0] else "[]"
