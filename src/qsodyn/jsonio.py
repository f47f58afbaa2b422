"""Deterministic JSON emission with fixed-precision floats.

Every float is written with 17 significant digits, which round-trips every
64-bit value exactly and keeps repeated runs byte-identical. Lists whose
elements are all numbers render inline so coordinate triples stay readable.
A list of dicts that share one key tuple is written column by column, with
the same bytes as the generic path.
"""

from __future__ import annotations

from itertools import chain
from json.encoder import encode_basestring_ascii as _quote  # what json.dumps writes for a str

_17G = "%.17g".__mod__
_CONSTANTS = {None: "null", True: "true", False: "false"}
_TYPES = (float, int, dict, list, tuple, str, bool, type(None))  # a subclass takes the first base
_BLOCK = 64  # records per batch of column texts, so one batch's texts are alive at a time


def dumps(obj) -> str:
    """JSON text of obj in one pass; each container's text is joined once."""
    return _render(obj, "\n", {})


def _finite(text: str) -> str:
    """text itself; the .17g texts of inf, -inf and nan are the only ones with an n."""
    if "n" in text:
        raise ValueError("refusing to serialize a non-finite float")
    return text


def _floats(values) -> str:
    """Floats joined by ", "."""
    return _finite(", ".join(map(_17G, values)))


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
        if kinds == {dict} and len(obj) > 1 and obj[0] and len(set(map(tuple, obj))) == 1:
            return _records(obj, pad, keys)
        if obj and all(isinstance(v, (int, float)) and not isinstance(v, bool) for v in obj):
            return "[" + ", ".join([_render(v, pad, keys) for v in obj]) + "]"
        heads, values, brackets = [""] * len(obj), obj, "[]"
    elif kind is str:
        return _quote(obj)
    elif kind is bool or obj is None:
        return _CONSTANTS[obj]
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


def _quote_keys(obj: dict, keys: dict[str, str]) -> None:
    for key in obj.keys() - keys.keys():
        keys[key] = _quote(key) + ": "  # _quote raises TypeError on a key that is no str


def _records(rows, pad: str, keys: dict[str, str]) -> str:
    """Text of two or more non-empty dicts with one key tuple: each record is one
    `%` of a template that holds the quoted keys, filled from per-column texts."""
    _quote_keys(rows[0], keys)
    inner = pad + "  "
    field = inner + "  "
    template = "{" + ",".join(
        field + keys[key].replace("%", "%%") + "%s" for key in rows[0]) + inner + "}"
    sep = "," + inner
    parts = ["[", inner]
    for start in range(0, len(rows), _BLOCK):
        parts += (sep.join(_block(rows[start:start + _BLOCK], template, field, keys)), sep)
    parts[-1] = pad  # in place of the separator after the last block
    parts.append("]")
    return "".join(parts)


def _block(rows, template: str, field: str, keys: dict[str, str]) -> list[str]:
    """The record texts of rows; the column texts are freed on return, before the join."""
    columns = [_column(values, field, keys) for values in zip(*map(dict.values, rows))]
    return list(map(template.__mod__, zip(*columns)))


def _column(values: tuple, pad: str, keys: dict[str, str]):
    """The texts of one field's values, chosen by the exact types found in them."""
    kinds = set(map(type, values))
    if kinds == {float}:
        return _checked(_17G, values)
    if kinds == {int}:
        return map(str, values)
    if kinds == {str}:
        return map(_quote, values)
    if kinds <= {bool, type(None)}:
        return map(_CONSTANTS.__getitem__, values)
    if kinds == {list} and _one_length(values):
        cells = list(chain.from_iterable(values))
        inner = set(map(type, cells))
        if inner == {float}:
            return _checked(_row_format(len(values[0])).__mod__, map(tuple, values))
        if (inner == {list} and _one_length(cells)
                and set(map(type, chain.from_iterable(cells))) == {float}):
            row = pad + "  " + _row_format(len(cells[0]))
            block = "[" + ",".join([row] * len(values[0])) + pad + "]"
            return _checked(block.__mod__, map(tuple, map(chain.from_iterable, values)))
    return [_render(value, pad, keys) for value in values]


def _one_length(lists) -> bool:
    """True when the lists share one length and it is not 0."""
    return len(set(map(len, lists))) == 1 and len(lists[0]) > 0


def _row_format(n: int) -> str:
    return "[" + ", ".join(["%.17g"] * n) + "]"


def _checked(format_, values) -> list[str]:
    texts = list(map(format_, values))
    _finite("".join(texts))
    return texts
