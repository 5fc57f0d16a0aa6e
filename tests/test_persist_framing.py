"""Property tests for the binary wire framing (repro.persist.framing).

Hypothesis drives arbitrary nested values -- every scalar and container
the runtime puts on the wire, plus the registered hot-path dataclasses --
through encode/decode and asserts exact round trips, type preservation
and deterministic bytes. Golden-bytes tests pin the version-2 encoding and
the version-4 journal frames around it, and rejection tests pin that
nothing else is accepted as a frame.
"""

from __future__ import annotations

import dataclasses
import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.envelope import Request, Response, TailCall
from repro.core.refs import ActorRef
from repro.mq import FileJournalLog, Record
from repro.persist import CodecError
from repro.persist.framing import (
    HEADER,
    MAGIC,
    FrameCache,
    FramingError,
    decode_value,
    dumps_frame,
    encode_value,
    loads_frame,
    peek_envelope,
)

# ----------------------------------------------------------------------
# strategies
# ----------------------------------------------------------------------
scalars = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(),  # spans int8 / int32 / int64 / bignum opcodes
    st.floats(allow_nan=False),
    st.text(max_size=40),
)

actor_refs = st.builds(
    ActorRef, st.text(min_size=1, max_size=12), st.text(min_size=1, max_size=12)
)


def containers(children):
    return st.one_of(
        st.lists(children, max_size=5),
        st.lists(children, max_size=5).map(tuple),
        st.dictionaries(st.text(max_size=10), children, max_size=5),
        st.dictionaries(
            st.one_of(st.integers(), st.tuples(st.integers(), st.text(max_size=5))),
            children,
            max_size=4,
        ),
        st.sets(st.integers(), max_size=5),
        st.frozensets(st.text(max_size=8), max_size=5),
    )


values = st.recursive(st.one_of(scalars, actor_refs), containers, max_leaves=20)

requests = st.builds(
    Request,
    request_id=st.text(min_size=1, max_size=16),
    step=st.integers(min_value=0, max_value=1000),
    actor=actor_refs,
    method=st.text(min_size=1, max_size=16),
    args=st.lists(values, max_size=3).map(tuple),
    return_address=st.none() | st.text(max_size=12),
    reply_to=st.none() | st.text(max_size=12),
    caller_actor=st.none() | actor_refs,
    caller_member=st.none() | st.text(max_size=12),
    ancestors=st.lists(st.text(max_size=8), max_size=3).map(tuple),
    tail_lock=st.booleans(),
    after_callee=st.none() | st.text(max_size=12),
    copy_epoch=st.integers(min_value=0, max_value=5),
    expects_reply=st.booleans(),
    attempts=st.integers(min_value=0, max_value=9),
    attempt_log=st.lists(
        st.floats(min_value=0, max_value=1e6, allow_nan=False), max_size=4
    ).map(tuple),
)

responses = st.builds(
    Response,
    request_id=st.text(min_size=1, max_size=16),
    value=values,
    error=st.none() | st.text(max_size=30),
    cancelled=st.booleans(),
)


def assert_same(a, b):
    """Equality plus exact type (True != 1, tuple != list, set != frozenset)."""
    assert a == b
    assert type(a) is type(b)
    if isinstance(a, (list, tuple)):
        for x, y in zip(a, b):
            assert_same(x, y)
    elif isinstance(a, dict):
        for key in a:
            assert_same(a[key], b[key])


# ----------------------------------------------------------------------
# properties
# ----------------------------------------------------------------------
@settings(max_examples=200)
@given(values)
def test_value_round_trip(value):
    data = encode_value(value)
    decoded, end = decode_value(data)
    assert end == len(data)
    assert_same(value, decoded)


@settings(max_examples=100)
@given(values)
def test_frame_round_trip_binary(value):
    frame = dumps_frame(value)
    assert frame[:4] == HEADER == MAGIC + b"\x02"
    assert_same(value, loads_frame(frame))


@settings(max_examples=100)
@given(requests)
def test_request_round_trip(request):
    decoded, _ = decode_value(encode_value(request))
    assert decoded == request
    assert isinstance(decoded, Request)


@settings(max_examples=100)
@given(requests)
def test_request_frame_cache_is_transparent(request):
    cache = FrameCache()
    cold = encode_value(request, cache)
    # A recovery copy shares the core fields by identity: cache hit, and
    # the bytes must equal a cache-free encoding of the copy.
    copy = dataclasses.replace(request, attempts=request.attempts + 1)
    warm = encode_value(copy, cache)
    assert cache.hits >= 1
    assert warm == encode_value(copy)
    decoded, _ = decode_value(warm)
    assert decoded == copy
    assert decode_value(cold)[0] == request


@settings(max_examples=100)
@given(responses)
def test_response_round_trip(response):
    decoded, _ = decode_value(encode_value(response))
    assert decoded == response
    assert isinstance(decoded, Response)


@settings(max_examples=50)
@given(st.sets(st.one_of(st.integers(), st.text(max_size=8)), max_size=8))
def test_set_encoding_is_deterministic(members):
    orders = [set(), set()]
    for member in members:
        orders[0].add(member)
    for member in sorted(members, key=repr, reverse=True):
        orders[1].add(member)
    assert encode_value(orders[0]) == encode_value(orders[1])


@settings(max_examples=100)
@given(values)
def test_truncated_data_is_rejected(value):
    data = encode_value(value)
    if len(data) > 1:
        with pytest.raises(FramingError):
            decode_value(data[:-1])


def test_tail_call_and_bytes_round_trip():
    call = TailCall(ActorRef("A", "i"), "m", (b"\x00\xff raw", bytearray(b"ba")))
    decoded, _ = decode_value(encode_value(call))
    assert decoded.actor == call.actor
    assert decoded.args[0] == b"\x00\xff raw"
    # bytearray narrows to bytes (value equality preserved).
    assert decoded.args[1] == b"ba"


def test_trailing_garbage_is_rejected():
    frame = dumps_frame([1, 2, 3])
    with pytest.raises(FramingError):
        loads_frame(frame + b"\x00")


@pytest.mark.parametrize(
    "not_a_frame",
    [
        json.dumps({"a": [1, 2]}).encode("utf-8"),  # headerless JSON bytes
        json.dumps({"a": [1, 2]}),  # a str (SQLite TEXT)
        MAGIC + bytes((1,)) + b'{"a":[1,2]}',  # version 1 header
        MAGIC + bytes((99,)) + b"\x00",  # a version from the future
        MAGIC,  # magic with no version byte
        b"",
    ],
)
def test_only_version_2_frames_decode(not_a_frame):
    with pytest.raises(FramingError):
        loads_frame(not_a_frame)


@dataclasses.dataclass
class Unregistered:
    """Not in the frame table: encodes by import path."""

    label: str
    count: int


def test_unregistered_dataclass_round_trips_by_import_path():
    value = Unregistered("x", 3)
    data = encode_value(value)
    assert f"{__name__}:Unregistered".encode() in data
    assert decode_value(data)[0] == value


def test_unresolvable_type_rejected():
    data = encode_value(Unregistered("x", 3)).replace(
        b"Unregistered", b"NoSuchClass!"
    )
    with pytest.raises(CodecError, match="cannot resolve durable type"):
        decode_value(data)


def test_pickle_fallback_for_exotic_values():
    value = complex(1, 2)  # no opcode, not a dataclass
    assert decode_value(encode_value(value))[0] == value

    class Unpicklable:
        def __reduce__(self):
            raise TypeError("nope")

    with pytest.raises(FramingError, match="not durable"):
        encode_value(Unpicklable())


# ----------------------------------------------------------------------
# golden bytes: the durable format is pinned, not merely self-consistent
# ----------------------------------------------------------------------
# Captured from the last commit that also carried the tagged-JSON codec;
# a change to any of these literals is a change to what old journals and
# databases mean.
GOLDEN_REQUEST = Request(
    request_id="r42",
    step=2,
    actor=ActorRef("Flow", "f1"),
    method="start",
    args=(7, {"opts": (1, 2.5)}),
    return_address="r41",
    reply_to="caller#0",
    caller_actor=ActorRef("Driver", "d1"),
    caller_member="caller#0",
    ancestors=("r40", "r41"),
    tail_lock=True,
    after_callee="r39",
    copy_epoch=3,
    expects_reply=True,
    attempts=1,
    attempt_log=(12.25,),
)
GOLDEN_REQUEST_FRAME = bytes.fromhex(
    "ab4b52021608037234320302150804466c6f7708026631080573746172740c0203"
    "070e0100000008046f7074730c0203010700000000000004400803723431080863"
    "616c6c6572233015080644726976657208026431080863616c6c657223300c0208"
    "03723430080372343101010803723339030303010c01070000000000802840"
)
GOLDEN_RESPONSE = Response("r42", value={"result": (1, None)})
GOLDEN_RESPONSE_FRAME = bytes.fromhex(
    "ab4b52021708037234320e010000000806726573756c740c020301000002"
)
#: The journal file header: frame magic + journal version 4.
GOLDEN_JOURNAL_HEADER = bytes.fromhex("ab4b5204")
#: Two frames, each a length prefix + CRC-32 of the payload + the payload:
#: ("p", "app.topic", "w1#0", 0), declaring the partition's id, then the
#: record head <"r", id 0, offset 5, ts 12.25> and GOLDEN_RESPONSE.
GOLDEN_JOURNAL_ENTRY = bytes.fromhex(
    "1800000015ea51ad0c0408017008096170702e746f70696308047731233003002f0000"
    "007e7bbfa97200000000050000000000000000000000008028401708037234320e0100"
    "00000806726573756c740c020301000002"
)


def test_golden_request_and_response_frames():
    assert dumps_frame(GOLDEN_REQUEST) == GOLDEN_REQUEST_FRAME
    assert dumps_frame(GOLDEN_REQUEST, cache=FrameCache()) == GOLDEN_REQUEST_FRAME
    assert loads_frame(GOLDEN_REQUEST_FRAME) == GOLDEN_REQUEST
    assert dumps_frame(GOLDEN_RESPONSE) == GOLDEN_RESPONSE_FRAME
    assert loads_frame(GOLDEN_RESPONSE_FRAME) == GOLDEN_RESPONSE


def test_request_id_is_wire_field_zero_of_both_envelopes():
    """Replay reads a settled call by its request id alone, peeking at wire
    field 0 of the encoded envelope, and a request's latest record by its
    step, wire field 1: this pins that layout."""
    assert dataclasses.fields(Request)[0].name == "request_id"
    assert dataclasses.fields(Request)[1].name == "step"
    assert dataclasses.fields(Response)[0].name == "request_id"
    assert peek_envelope(GOLDEN_REQUEST_FRAME, 4) == (False, "r42", 2)
    assert peek_envelope(GOLDEN_RESPONSE_FRAME, 4) == (True, "r42", None)
    assert peek_envelope(encode_value(("r42", 1))) is None
    # A long id and a step past one byte take the general decoders.
    long = dataclasses.replace(GOLDEN_REQUEST, request_id="r" * 300, step=70_000)
    assert peek_envelope(encode_value(long)) == (False, "r" * 300, 70_000)
    answer = Response("r" * 300)
    assert peek_envelope(encode_value(answer)) == (True, "r" * 300, None)


def test_golden_journal_file_bytes(tmp_path):
    # The encoder writes the pinned bytes: the partition's declaration,
    # then the record frame with its id, offset and timestamp in place.
    declared = FileJournalLog._frame_bytes(("p", "app.topic", "w1#0", 0))
    record = FileJournalLog._record_frame(0, 5, 12.25, GOLDEN_RESPONSE)
    assert declared + record == GOLDEN_JOURNAL_ENTRY
    # A fresh journal's first append writes the header and those frames,
    # the record at its partition's first offset.
    path = tmp_path / "golden.journal"
    log = FileJournalLog(str(path))
    log.append_many("app.topic", [("w1#0", GOLDEN_RESPONSE)], 12.25)
    log.close()
    first = FileJournalLog._record_frame(0, 0, 12.25, GOLDEN_RESPONSE)
    assert path.read_bytes() == GOLDEN_JOURNAL_HEADER + declared + first
    # And the pinned bytes replay: a partition whose first retained record
    # is at offset 5 starts at 0 and goes on at 6.
    path.write_bytes(GOLDEN_JOURNAL_HEADER + GOLDEN_JOURNAL_ENTRY)
    log = FileJournalLog(str(path))
    ((topic, partition, first, next_offset, records),) = log.replay()
    log.close()
    assert (topic, partition, first, next_offset) == ("app.topic", "w1#0", 0, 6)
    assert records[0].value == GOLDEN_RESPONSE
    assert (records[0].offset, records[0].timestamp) == (5, 12.25)
    assert records[0] == Record("w1#0", 5, 12.25, GOLDEN_RESPONSE)


def test_a_version_2_journal_is_refused_by_name_and_left_untouched(tmp_path):
    """Journals written before frame checksums (the same entry, no CRC) are
    neither read nor migrated."""
    path = tmp_path / "old.journal"
    unchecked = HEADER + GOLDEN_JOURNAL_ENTRY[:4] + GOLDEN_JOURNAL_ENTRY[8:]
    path.write_bytes(unchecked)
    with pytest.raises(ValueError, match="old.journal.*version-2 journal"):
        FileJournalLog(str(path))
    assert path.read_bytes() == unchecked


#: Length prefix + CRC-32 +
#: ("m", "lease:app.topic:w1", ["app.topic", "w1", "w1#3", 3]): broker
#: metadata is a frame of the journal itself, not a sidecar file.
GOLDEN_META_ENTRY = bytes.fromhex(
    "35000000f34469900c0308016d08126c656173653a6170702e746f7069633a77310b04"
    "00000008096170702e746f706963080277310804773123330303"
)


def test_golden_journal_metadata_frame(tmp_path):
    path = tmp_path / "golden.journal"
    lease = ["app.topic", "w1", "w1#3", 3]
    path.write_bytes(GOLDEN_JOURNAL_HEADER + GOLDEN_JOURNAL_ENTRY)
    log = FileJournalLog(str(path))
    log.set_meta("lease:app.topic:w1", lease)
    log.close()
    golden_file = GOLDEN_JOURNAL_HEADER + GOLDEN_JOURNAL_ENTRY + GOLDEN_META_ENTRY
    assert path.read_bytes() == golden_file
    # The pinned bytes replay, and the record entry beside it is unmoved.
    path.write_bytes(golden_file)
    log = FileJournalLog(str(path))
    assert log.meta_items() == {"lease:app.topic:w1": lease}
    assert log.retained_records() == 1
    log.close()
