"""Contract of the per-key value types on the data plane.

``Fingerprint``, ``LookupResult`` and ``ChunkLocation`` are slotted frozen
dataclasses: one allocation each, no ``__dict__``.  Everything the rest of
the program does with them -- compare, hash, print, ``dataclasses.replace``,
pickle (the ``run_sweep --workers`` pool), deep copy -- must work on
instances from the regular constructor *and* on instances bulk-built by
``column_builder``, and the two must be indistinguishable.  The reference
models' ``LookupReply`` (``tests/oracles/replies.py``) is held to the same
contract: the differential tests compare the replies the oracles construct
with replies column-built from the product's tier columns.
"""

import copy
import pickle
from dataclasses import FrozenInstanceError, fields, replace
from itertools import repeat

import pytest
from oracles.replies import LookupReply

from repro.core.protocol import SERVED_FROM_TIER, ServedFrom
from repro.dedup.fingerprint import Fingerprint, column_builder, synthetic_fingerprint
from repro.dedup.index import ChunkLocation, LookupResult
from repro.network.message import Message
from repro.storage.hashstore import IOOperation
from repro.workloads import trace_cache
from repro.workloads.profiles import profile_by_name

FP = synthetic_fingerprint(7, 4096)


def _regular():
    return [
        FP,
        ChunkLocation(3, 9),
        LookupResult(FP, True, ChunkLocation(), 1.5e-6, "n0"),
        LookupReply(FP, False, ServedFrom.NEW, "n1", 2.5e-6),
    ]


def _column_built():
    return [
        column_builder(Fingerprint)(1, [FP.digest], [FP.chunk_size])[0],
        column_builder(ChunkLocation)(1, [3], [9])[0],
        column_builder(LookupResult)(
            1, [FP], [True], repeat(ChunkLocation()), [1.5e-6], repeat("n0")
        )[0],
        column_builder(LookupReply)(
            1, [FP], map(bool, [0]), map(SERVED_FROM_TIER.__getitem__, [0]), ["n1"], [2.5e-6]
        )[0],
    ]


VALUES = _regular() + _column_built()
IDS = [f"{type(v).__name__}-{how}" for how in ("init", "columns") for v in _regular()]


@pytest.mark.parametrize("value", VALUES, ids=IDS)
class TestValueTypeContract:
    def test_has_no_instance_dict(self, value):
        assert not hasattr(value, "__dict__")
        assert set(type(value).__slots__) == {field.name for field in fields(value)}

    def test_is_frozen(self, value):
        name = fields(value)[0].name
        with pytest.raises(FrozenInstanceError):
            setattr(value, name, getattr(value, name))
        with pytest.raises((FrozenInstanceError, AttributeError, TypeError)):
            value.not_a_field = 1
        with pytest.raises(FrozenInstanceError):
            delattr(value, name)

    def test_replace_builds_an_equal_or_changed_copy(self, value):
        assert replace(value) == value and replace(value) is not value
        last = fields(value)[-1].name
        changed = replace(value, **{last: type(getattr(value, last))(5)})
        assert changed != value and type(changed) is type(value)

    def test_pickle_and_deepcopy_round_trip(self, value):
        for protocol in range(2, pickle.HIGHEST_PROTOCOL + 1):
            clone = pickle.loads(pickle.dumps(value, protocol))
            assert clone == value and hash(clone) == hash(value) and type(clone) is type(value)
        assert copy.deepcopy(value) == value
        assert copy.copy(value) == value


@pytest.mark.parametrize("regular,built", list(zip(_regular(), _column_built())), ids=IDS[:4])
def test_column_built_is_indistinguishable_from_constructor_built(regular, built):
    assert built == regular
    assert hash(built) == hash(regular)
    assert repr(built) == repr(regular)
    assert str(built) == str(regular)
    assert type(built) is type(regular)


def test_column_builder_rejects_a_column_count_that_is_not_the_field_count():
    with pytest.raises(TypeError, match="2 fields"):
        column_builder(Fingerprint)(1, [FP.digest])


def test_public_fingerprint_constructor_still_validates():
    with pytest.raises(ValueError, match="20 bytes"):
        Fingerprint(b"short", 1)
    with pytest.raises(ValueError, match="non-negative"):
        Fingerprint(b"\x00" * 20, -1)
    with pytest.raises(ValueError, match="invalid IO kind"):
        IOOperation("seek", 4096)


def test_read_repair_replaces_fields_on_a_slotted_reply():
    reply = LookupReply(FP, False, ServedFrom.NEW, "n0", 1e-6)
    repaired = replace(reply, is_duplicate=True, served_from=ServedFrom.REPAIR)
    assert repaired == LookupReply(FP, True, ServedFrom.REPAIR, "n0", 1e-6)


def test_per_message_types_are_slotted_too():
    message = Message("a", "b", None, 10)
    operation = IOOperation("read", 4096)
    for value in (message, operation):
        assert not hasattr(value, "__dict__")
    message.created_at = 2.0  # the envelope stays mutable...
    with pytest.raises(AttributeError):
        message.not_a_field = 1  # ...but grows no attributes
    assert message.reply(None, 4).reply_to == message.message_id
    assert pickle.loads(pickle.dumps(operation)) == operation


def test_trace_cache_rehydrates_fingerprints_equal_to_fresh_ones():
    trace_cache.clear_memo()
    profile = profile_by_name("mail-server").scaled(0.0002)
    fresh = trace_cache.generate_trace(profile, seed=3)
    rehydrated = trace_cache.generate_trace(profile, seed=3)
    assert rehydrated is not fresh and rehydrated == fresh
    assert [hash(fp) for fp in rehydrated] == [hash(fp) for fp in fresh]
    assert repr(rehydrated[0]) == repr(fresh[0])
    assert all(type(fp.chunk_size) is int for fp in rehydrated[:16])
    assert not hasattr(rehydrated[0], "__dict__")
    trace_cache.clear_memo()
