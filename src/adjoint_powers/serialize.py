"""Shared JSON conventions.

All emitted JSON uses one canonical layout (sorted keys, two-space
indent) so output is byte-stable and survives a parse/reserialize
round trip unchanged.  Integer data values are encoded as decimal
strings: coefficients overflow 64-bit JSON numbers well before k = 30.

One encoder produces that layout.  :func:`iterencode` yields the text
piece by piece, so a table whose rows come from a generator is written
as the rows are made and never held whole; :func:`canonical_json` joins
the same pieces into one string.  The standard library's encoder drops
to pure Python whenever ``indent`` is set; this one does too, but joins
each run of up to :data:`_CHUNK` strings in a list, drawn from a list or
a generator alike, into one piece.  So a long row of strings is written
in bounded pieces, and never held whole.  A run of digit strings, as
every table row is, is joined between quotes as it stands, since the C
string encoder would return each one unchanged in its quotes; any other
run goes through that encoder string by string.
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator
from itertools import islice

# The C string encoder, without loading the json package; json.encoder
# binds the same function when the C module is present.
try:
    from _json import encode_basestring_ascii
except ImportError:
    from json.encoder import encode_basestring_ascii

__all__ = ["canonical_json", "iterencode"]

INDENT = "  "
#: Strings joined per piece, in a JSON list and in :func:`_join_pieces`.
_CHUNK = 32


def _join_pieces(separator: str, items: Iterable[str]) -> Iterator[str]:
    """Yield ``separator.join(items)`` in pieces of at most :data:`_CHUNK`
    items each, every piece after the first led by ``separator``: the
    text of a long row without ever holding it whole."""
    items = iter(items)
    lead = ""
    while chunk := list(islice(items, _CHUNK)):
        yield lead + separator.join(chunk)
        lead = separator


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
    """Items are drawn one at a time.  A run of strings is joined into one
    piece per :data:`_CHUNK` of them; any other item is encoded as drawn."""
    try:
        items = iter(value)
    except TypeError:
        raise TypeError(f"Object of type {type(value).__name__} is not JSON serializable") from None
    inner = newline + INDENT
    separator = "," + inner
    lead = opener = "[" + inner
    strings: list[str] = []
    for item in items:
        if isinstance(item, str):
            strings.append(item)
            if len(strings) == _CHUNK:
                yield lead + _join_strings(separator, strings)
                lead, strings = separator, []
            continue
        if strings:
            yield lead + _join_strings(separator, strings)
            lead, strings = separator, []
        yield lead
        lead = separator
        yield from _encode(item, inner)
    if strings:
        yield lead + _join_strings(separator, strings)
    elif lead is opener:
        yield "[]"
        return
    yield newline + "]"


def _join_strings(separator: str, strings: list[str]) -> str:
    """The JSON strings of ``strings``, joined by ``separator``.  Strings of
    ASCII digits only encode as themselves in quotes, so they are joined
    without escaping; ``isascii`` is asked first, so a lone surrogate is
    never encoded."""
    if all(map(str.isascii, strings)) and all(map(bytes.isdigit, map(str.encode, strings))):
        return '"' + ('"' + separator + '"').join(strings) + '"'
    return separator.join(map(encode_basestring_ascii, strings))
