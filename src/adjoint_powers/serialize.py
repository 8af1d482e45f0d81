"""Shared JSON conventions.

All emitted JSON uses one canonical layout (sorted keys, two-space
indent) so output is byte-stable and survives a parse/reserialize
round trip unchanged.  Integer data values are encoded as decimal
strings: coefficients overflow 64-bit JSON numbers well before k = 30.

One encoder produces that layout.  :func:`iterencode` yields the text
piece by piece, so a table whose rows come from a generator is written
as the rows are made and never held whole; :func:`canonical_json` joins
the same pieces into one string.  The standard library's encoder drops
to pure Python whenever ``indent`` is set; this one does too, but
encodes a list of strings with one ``join`` over the C string encoder.
"""

from __future__ import annotations

from collections.abc import Iterator
from itertools import repeat

# The C string encoder, without loading the json package; json.encoder
# binds the same function when the C module is present.
try:
    from _json import encode_basestring_ascii
except ImportError:
    from json.encoder import encode_basestring_ascii

__all__ = ["canonical_json", "iterencode"]

INDENT = "  "
_EMPTY = object()


def canonical_json(payload: object) -> str:
    """``json.dumps(payload, indent=2, sort_keys=True)``, from :func:`iterencode`."""
    return "".join(iterencode(payload))


def iterencode(payload: object) -> Iterator[str]:
    """Yield the exact text of ``json.dumps(payload, indent=2, sort_keys=True)``.

    Strings, ints, bools, ``None`` and dicts with string keys encode as
    ``json.dumps`` encodes them.  Any other iterable, a generator
    included, encodes as a list and is consumed once, one item at a
    time; an empty one gives ``[]``.  Anything else raises ``TypeError``.
    """
    return _encode(payload, "\n")


def _encode(value: object, newline: str) -> Iterator[str]:
    """Pieces of ``value``; ``newline`` is a line break plus the indent of its level."""
    if isinstance(value, str):
        yield encode_basestring_ascii(value)
    elif value is None:
        yield "null"
    elif value is True:
        yield "true"
    elif value is False:
        yield "false"
    elif isinstance(value, int):
        yield int.__repr__(value)
    elif isinstance(value, dict):
        yield from _encode_dict(value, newline)
    else:
        yield from _encode_list(value, newline)


def _encode_dict(value: dict, newline: str) -> Iterator[str]:
    if not value:
        yield "{}"
        return
    inner = newline + INDENT
    opener = "{" + inner
    for key, item in sorted(value.items()):
        if not isinstance(key, str):
            raise TypeError(f"keys must be str, not {type(key).__name__}")
        yield opener + encode_basestring_ascii(key) + ": "
        opener = "," + inner
        yield from _encode(item, inner)
    yield newline + "}"


def _encode_list(value: object, newline: str) -> Iterator[str]:
    inner = newline + INDENT
    separator = "," + inner
    if isinstance(value, (list, tuple)) and value and all(map(isinstance, value, repeat(str))):
        yield "[" + inner + separator.join(map(encode_basestring_ascii, value)) + newline + "]"
        return
    try:
        items = iter(value)
    except TypeError:
        raise TypeError(f"Object of type {type(value).__name__} is not JSON serializable") from None
    first = next(items, _EMPTY)
    if first is _EMPTY:
        yield "[]"
        return
    yield "[" + inner
    yield from _encode(first, inner)
    for item in items:
        yield separator
        yield from _encode(item, inner)
    yield newline + "]"
