"""The canonical-JSON encoder: the bytes of ``json.dumps(x, indent=2,
sort_keys=True)`` for every payload shape, generators included."""

import json

import pytest
from hypothesis import given, settings, strategies as st

from adjoint_powers.serialize import _CHUNK, _join_pieces, canonical_json, iterencode


class Streamed(list):
    """A list that the encoder receives as a one-shot generator.

    ``json.dumps`` encodes it as the list it is, which is the reference."""


def streamed(payload):
    """``payload`` with every ``Streamed`` list replaced by a generator of its items."""
    if isinstance(payload, Streamed):
        return (streamed(item) for item in payload)
    if isinstance(payload, list):
        return [streamed(item) for item in payload]
    if isinstance(payload, tuple):
        return tuple(streamed(item) for item in payload)
    if isinstance(payload, dict):
        return {key: streamed(item) for key, item in payload.items()}
    return payload


# st.text() draws non-ASCII and control characters as well as ASCII.
SCALARS = st.none() | st.booleans() | st.integers() | st.text()


def containers(children):
    items = st.lists(children, max_size=5)
    return (
        items
        | items.map(tuple)
        | items.map(Streamed)
        | st.lists(st.text(), max_size=5)
        | st.dictionaries(st.text(), children, max_size=5)
    )


PAYLOADS = st.recursive(SCALARS, containers, max_leaves=40)


@settings(max_examples=300, deadline=None)
@given(PAYLOADS)
def test_encoder_matches_json_dumps(payload):
    expected = json.dumps(payload, indent=2, sort_keys=True)
    assert "".join(iterencode(streamed(payload))) == expected
    assert canonical_json(streamed(payload)) == expected


@pytest.mark.parametrize(
    "payload",
    [[], (), {}, Streamed(), {"rows": Streamed(), "values": []}, [[], {}, Streamed()]],
    ids=repr,
)
def test_empty_containers(payload):
    assert canonical_json(streamed(payload)) == json.dumps(payload, indent=2, sort_keys=True)


# A run of strings is joined _CHUNK (32) at a time: these lengths put the
# last piece empty, single, short and full, across one and two boundaries.
CHUNK_LENGTHS = [0, 1, 31, 32, 33, 64, 65]


@pytest.mark.parametrize("length", CHUNK_LENGTHS)
def test_string_lists_across_chunk_boundaries(length):
    assert _CHUNK == 32
    strings = [f'{i}"\\\n\u00e9' for i in range(length)]  # escapes and non-ASCII
    mixed = [*strings[:32], None, *strings[32:], 7, "tail"]
    for payload in (strings, tuple(strings), Streamed(strings), {"rows": [strings, Streamed(mixed)]}):
        expected = json.dumps(payload, indent=2, sort_keys=True)
        assert "".join(iterencode(streamed(payload))) == expected


# Runs of ASCII digits are joined without escaping; these strings are not
# such digits, or only look like them, and must still be escaped.
NOT_ASCII_DIGITS = st.sampled_from(
    ["", "-12", "\u0661\u0662", "\u00b2", "\ud800", "1\ud8002"]
    + ['1"2', "3\\4", "5\n", "\x00", "\x7f9"]
) | st.text(max_size=3)


@settings(max_examples=300, deadline=None)
@given(
    digits=st.lists(
        st.text(alphabet="0123456789", min_size=1, max_size=12),
        min_size=_CHUNK - 2,
        max_size=2 * _CHUNK + 2,
    ),
    others=st.lists(st.tuples(st.integers(0, 2 * _CHUNK + 2), NOT_ASCII_DIGITS), max_size=3),
)
def test_string_lists_with_digit_runs_match_json_dumps(digits, others):
    strings = list(digits)
    for position, text in others:
        strings.insert(position, text)
    expected = json.dumps(strings, indent=2, sort_keys=True)
    assert canonical_json(strings) == expected
    assert canonical_json(iter(strings)) == expected


@pytest.mark.parametrize("length", CHUNK_LENGTHS)
def test_joined_pieces_hold_at_most_one_chunk(length):
    cells = [str(10**i) for i in range(length)]
    pieces = list(_join_pieces(" | ", iter(cells)))
    assert "".join(pieces) == " | ".join(cells)
    assert len(pieces) == -(-length // _CHUNK)
    assert all(piece.count(" | ") <= _CHUNK for piece in pieces)


def test_generator_is_consumed_once_and_lazily():
    drawn = []

    def rows():
        for i in range(3):
            drawn.append(i)
            yield {"k": i, "entries": [str(i)]}

    pieces = iterencode({"max_index": 2, "rows": rows()})
    head = ""
    while '"k": 0' not in head:
        head += next(pieces)
    assert drawn == [0]
    rest = "".join(pieces)
    assert drawn == [0, 1, 2]
    reference = {"max_index": 2, "rows": [{"k": i, "entries": [str(i)]} for i in range(3)]}
    assert head + rest == json.dumps(reference, indent=2, sort_keys=True)


# An object's repr carries its memory address, so that case gets a fixed id.
@pytest.mark.parametrize(
    "payload", [1.5, {1: "a"}, pytest.param([object()], id="[object()]")], ids=repr
)
def test_unsupported_values_raise_type_error(payload):
    with pytest.raises(TypeError):
        canonical_json(payload)
