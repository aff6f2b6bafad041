"""Property-based tests for the storage codec and the size model."""

from __future__ import annotations

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.core.ids import MessageId
from repro.core.messages import AppMessage
from repro.sizing import estimate_size
from repro.storage import codec

scalars = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(min_value=-(2 ** 62), max_value=2 ** 62),
    st.floats(allow_nan=False, allow_infinity=False),
    st.text(max_size=30),
)

json_values = st.recursive(
    scalars,
    lambda children: st.one_of(
        st.lists(children, max_size=5),
        st.dictionaries(st.text(max_size=8), children, max_size=5),
        # tuples/sets only over hashable scalars
        st.lists(scalars, max_size=5).map(tuple),
        st.frozensets(scalars, max_size=5),
    ),
    max_leaves=20,
)

# What protocols may send and log: no list, set, dict or bytearray.
immutable_values = st.recursive(
    scalars,
    lambda children: st.one_of(
        st.lists(children, max_size=5).map(tuple),
        st.frozensets(scalars, max_size=5),
    ),
    max_leaves=20,
)

mutables = st.one_of(
    st.lists(scalars, max_size=3),
    st.sets(st.integers(), max_size=3),
    st.dictionaries(st.text(max_size=4), scalars, max_size=3),
    st.binary(max_size=4).map(bytearray),
)


@st.composite
def holding_a_mutable(draw):
    """An immutable-looking value with a mutable container buried in it
    at a drawn depth, between drawn siblings."""
    value = draw(mutables)
    for _ in range(draw(st.integers(min_value=0, max_value=4))):
        before = draw(st.lists(immutable_values, max_size=2))
        after = draw(st.lists(immutable_values, max_size=2))
        value = (*before, value, *after)
    return value


app_messages = st.builds(
    lambda s, i, q, p: AppMessage(MessageId(s, i, q), p),
    s=st.integers(min_value=0, max_value=9),
    i=st.integers(min_value=1, max_value=9),
    q=st.integers(min_value=1, max_value=999),
    p=st.one_of(st.none(), st.text(max_size=20),
                st.tuples(st.text(max_size=5), st.integers())),
)


@given(json_values)
def test_codec_round_trip(value):
    assert codec.decode(codec.encode(value)) == value


@given(json_values)
def test_codec_is_deterministic(value):
    assert codec.encode(value) == codec.encode(value)


@given(json_values)
def test_decoded_value_reencodes_identically(value):
    encoded = codec.encode(value)
    assert codec.encode(codec.decode(encoded)) == encoded


@given(st.dictionaries(st.text(max_size=8), scalars, max_size=6))
def test_dict_encoding_ignores_insertion_order(value):
    assert codec.encode(dict(reversed(list(value.items())))) == \
        codec.encode(value)


@given(st.frozensets(app_messages, max_size=6))
def test_app_message_sets_round_trip(batch):
    decoded = codec.decode(codec.encode(batch))
    assert decoded == batch
    assert {m.id: m.payload for m in decoded} == \
        {m.id: m.payload for m in batch}


@given(immutable_values)
def test_estimate_size_total_and_positive(value):
    size = estimate_size(value)
    assert isinstance(size, int)
    assert size >= 1


@given(st.lists(scalars, max_size=10).map(tuple))
def test_size_monotone_in_content(items):
    """Adding an element never shrinks the estimated size."""
    for cut in range(len(items)):
        assert estimate_size(items[:cut + 1]) >= estimate_size(items[:cut])


@given(holding_a_mutable())
def test_a_mutable_container_at_any_depth_is_refused(value):
    with pytest.raises(TypeError, match="immutable"):
        estimate_size(value)
