"""The canonical-JSON encoder: the bytes of ``json.dumps(x, indent=2,
sort_keys=True)`` for every payload shape, generators included."""

import json

import pytest
from hypothesis import given, settings, strategies as st

from adjoint_powers.serialize import canonical_json, iterencode


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


@pytest.mark.parametrize("payload", [1.5, {1: "a"}, [object()]], ids=repr)
def test_unsupported_values_raise_type_error(payload):
    with pytest.raises(TypeError):
        canonical_json(payload)
