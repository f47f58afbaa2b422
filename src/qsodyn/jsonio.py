"""Deterministic JSON emission with fixed-precision floats.

Every float is written with 17 significant digits, which round-trips every
64-bit value exactly and keeps repeated runs byte-identical. Lists whose
elements are all numbers render inline so coordinate triples stay readable.
"""

from __future__ import annotations

from json.encoder import encode_basestring_ascii as _quote  # what json.dumps writes for a str

_17G = "%.17g".__mod__
_CONSTANTS = {None: "null", True: "true", False: "false"}
_TYPES = (float, int, dict, list, tuple, str, bool, type(None))  # a subclass takes the first base


def dumps(obj) -> str:
    """JSON text of obj in one pass; each container's text is joined once."""
    return _render(obj, "\n", {})


def _floats(values) -> str:
    """Floats joined by ", "; the .17g texts of inf, -inf and nan are the only ones with an n."""
    text = ", ".join(map(_17G, values))
    if "n" in text:
        raise ValueError("refusing to serialize a non-finite float")
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
        for key in obj.keys() - keys.keys():
            keys[key] = _quote(key) + ": "  # _quote raises TypeError on a key that is no str
        heads, values, brackets = [keys[key] for key in obj], obj.values(), "{}"
    elif kind is list or kind is tuple:
        if obj and set(map(type, obj)) == {float}:
            return "[" + _floats(obj) + "]"
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
