"""Binary wire framing: the one durable format behind every backend.

Durable backends (the SQLite store, the broker file journal) cannot hold
Python object references: everything they accept must survive a process
death and be reconstructed from bytes. This module maps the values the
runtime persists -- envelopes (frozen dataclasses), actor refs, tuples,
dicts, scalars -- onto a compact length-free binary value encoding under a
magic + version frame header.

Frame layout::

    +-------------------+---------+---------------------------+
    | magic  b"\\xabKR"  | version | payload                   |
    +-------------------+---------+---------------------------+
      3 bytes             1 byte    version 2: binary value encoding

Bytes without the magic prefix, or with any other version byte, are
rejected with :class:`FramingError`.

The binary value encoding is opcode-dispatched with fast paths for the
types the runtime actually persists:

- scalars, strings, lists, tuples, str-keyed dicts each cost one opcode
  byte plus their payload; sets encode in a deterministic byte order
  (identical states -> identical frames, independent of the hash seed);
- registered dataclasses (:func:`register_frame_type`) encode as a 2-byte
  table id plus *positional* field values -- no import-path string and no
  field names per record;
- ``ActorRef`` / ``Request`` / ``Response`` get dedicated opcodes;
  hot identifier fields (method names, member ids, actor types) are
  interned on decode so replay shares one string object per distinct id;
- an optional :class:`FrameCache` memoizes the encoded immutable core of
  each ``Request`` so retry and recovery copies -- which change only the
  retry header (``after_callee``/``copy_epoch``/``attempts``/
  ``attempt_log``) -- never re-encode the unchanged fields (the durable
  backends pass none: on their workloads it never hit);
- :func:`peek_envelope` reads an encoded envelope's request id (and a
  request's step), and :func:`decode_values` a run of leading values,
  without decoding the rest;
- unregistered dataclasses fall back to import-path encoding and anything
  else to raw pickle bytes.
"""

from __future__ import annotations

import importlib
import pickle
import struct
import sys
from dataclasses import fields as dataclass_fields
from dataclasses import is_dataclass
from operator import attrgetter, itemgetter
from typing import Any, Callable

__all__ = [
    "CodecError",
    "FrameCache",
    "FramingError",
    "HEADER",
    "MAGIC",
    "VERSION_BINARY",
    "decode_value",
    "decode_values",
    "dumps_frame",
    "encode_value",
    "loads_frame",
    "peek_envelope",
    "register_frame_type",
]

#: Frame magic. The first byte is a UTF-8 continuation byte, so no valid
#: UTF-8 text can start with it: a text file is never mistaken for a frame.
MAGIC = b"\xabKR"
#: Version byte 2: the payload is the binary value encoding of this module.
VERSION_BINARY = 2

#: The four bytes that open every frame and every journal file.
HEADER = MAGIC + bytes((VERSION_BINARY,))


class CodecError(ValueError):
    """A value could not be encoded or decoded for durable storage."""


class FramingError(CodecError):
    """A value could not be framed or a frame could not be decoded."""


def _resolve_type(path: str) -> type:
    module_name, _, qualname = path.partition(":")
    try:
        target: Any = importlib.import_module(module_name)
        for part in qualname.split("."):
            target = getattr(target, part)
    except (ImportError, AttributeError) as error:
        raise CodecError(f"cannot resolve durable type {path!r}") from error
    return target


# ----------------------------------------------------------------------
# opcodes
# ----------------------------------------------------------------------
_OP_NONE = 0x00
_OP_TRUE = 0x01
_OP_FALSE = 0x02
_OP_INT8 = 0x03
_OP_INT32 = 0x04
_OP_INT64 = 0x05
_OP_INTBIG = 0x06
_OP_FLOAT = 0x07
_OP_STR8 = 0x08
_OP_STR32 = 0x09
_OP_BYTES = 0x0A
_OP_LIST = 0x0B
_OP_TUPLE8 = 0x0C
_OP_TUPLE32 = 0x0D
_OP_DICTSTR = 0x0E
_OP_MAP = 0x0F
_OP_SET = 0x10
_OP_FROZENSET = 0x11
_OP_DATACLASS = 0x12
_OP_DATACLASS_PATH = 0x13
_OP_PICKLE = 0x14
_OP_ACTORREF = 0x15
_OP_REQUEST = 0x16
_OP_RESPONSE = 0x17

_S_INT32 = struct.Struct("<i")
_S_INT64 = struct.Struct("<q")
_S_FLOAT = struct.Struct("<d")
_S_U16 = struct.Struct("<H")
_S_U32 = struct.Struct("<I")

_INT8_MIN, _INT8_MAX = -0x80, 0x7F
_INT32_MIN, _INT32_MAX = -0x80000000, 0x7FFFFFFF
_INT64_MIN, _INT64_MAX = -0x8000000000000000, 0x7FFFFFFFFFFFFFFF


# ----------------------------------------------------------------------
# the dataclass frame table
# ----------------------------------------------------------------------
#: Well-known table ids (reserved; user registrations must use >= 64).
ACTORREF_TYPE_ID = 1
REQUEST_TYPE_ID = 2
RESPONSE_TYPE_ID = 3

#: Request fields that change on retry/recovery copies; everything else is
#: the immutable core memoized by :class:`FrameCache`.
_RETRY_HEADER_FIELDS = ("after_callee", "copy_epoch", "attempts", "attempt_log")

#: Request core fields whose decoded strings are interned (hot identifiers
#: repeated across millions of records).
_INTERNED_REQUEST_FIELDS = ("request_id", "method", "reply_to", "caller_member")


def _tuple_getter(names: tuple[str, ...]) -> Callable[[Any], tuple]:
    """An attrgetter that always yields a tuple (one C call per object)."""
    if not names:
        return lambda obj: ()
    if len(names) == 1:
        single = attrgetter(names[0])
        return lambda obj: (single(obj),)
    return attrgetter(*names)


class _RegisteredType:
    """One row of the frame table: a dataclass and its positional layout."""

    __slots__ = (
        "arg_order",
        "cls",
        "core_names",
        "field_names",
        "get_core",
        "get_fields",
        "get_header",
        "header_names",
        "intern_core_indices",
        "type_id",
        "wire_count",
    )

    def __init__(self, cls: type, type_id: int):
        self.cls = cls
        self.type_id = type_id
        self.field_names: tuple[str, ...] = tuple(
            f.name for f in dataclass_fields(cls)
        )
        # Request-only split: core (memoizable) vs retry header.
        self.core_names: tuple[str, ...] = self.field_names
        self.header_names: tuple[str, ...] = ()
        self.intern_core_indices: tuple[int, ...] = ()
        if type_id == REQUEST_TYPE_ID:
            self.core_names = tuple(
                name
                for name in self.field_names
                if name not in _RETRY_HEADER_FIELDS
            )
            self.header_names = tuple(
                name for name in self.field_names if name in _RETRY_HEADER_FIELDS
            )
            self.intern_core_indices = tuple(
                self.core_names.index(name)
                for name in _INTERNED_REQUEST_FIELDS
                if name in self.core_names
            )
        # Wire order is core then header; arg_order maps each constructor
        # argument back to its wire position so decode builds positionally.
        wire_names = self.core_names + self.header_names
        self.wire_count = len(wire_names)
        # itemgetter with 2+ indices yields the constructor args as a
        # tuple in one C call; tiny types never take the request path.
        self.arg_order: Callable[[list], tuple] = (
            itemgetter(*(wire_names.index(name) for name in self.field_names))
            if len(self.field_names) > 1
            else tuple
        )
        self.get_fields = _tuple_getter(self.field_names)
        self.get_core = _tuple_getter(self.core_names)
        self.get_header = _tuple_getter(self.header_names)


_TABLE_BY_TYPE: dict[type, _RegisteredType] = {}
_TABLE_BY_ID: dict[int, _RegisteredType] = {}

#: Decoder fast-path entries, pinned at registration time (None until the
#: defining module imports; the slow lookup self-heals by importing it).
_REQUEST_ENTRY: _RegisteredType | None = None
_RESPONSE_ENTRY: _RegisteredType | None = None
_ACTORREF_ENTRY: _RegisteredType | None = None


def register_frame_type(cls: type, type_id: int) -> type:
    """Register a dataclass in the binary frame table.

    Registered types encode as ``(table id, positional field values)``
    instead of an import-path string plus field names per record. Ids must
    be stable across every process that reads a journal: the runtime's own
    types own ids below 64, applications register at 64 and above, at
    import time (before any journal is replayed). Returns ``cls`` so the
    call composes as a decorator.
    """
    if not (is_dataclass(cls) and isinstance(cls, type)):
        raise FramingError(f"{cls!r} is not a dataclass type")
    if not 0 < type_id <= 0xFFFF:
        raise FramingError(f"frame type id {type_id} out of range 1..65535")
    existing = _TABLE_BY_ID.get(type_id)
    if existing is not None and existing.cls is not cls:
        raise FramingError(
            f"frame type id {type_id} already registered to {existing.cls!r}"
        )
    entry = _RegisteredType(cls, type_id)
    _TABLE_BY_TYPE[cls] = entry
    _TABLE_BY_ID[type_id] = entry
    # Pin the hot-opcode entries in module globals: the decoder reads them
    # per record, and a dict probe per record is measurable at journal
    # replay volume.
    global _REQUEST_ENTRY, _RESPONSE_ENTRY, _ACTORREF_ENTRY
    if type_id == REQUEST_TYPE_ID:
        _REQUEST_ENTRY = entry
    elif type_id == RESPONSE_TYPE_ID:
        _RESPONSE_ENTRY = entry
    elif type_id == ACTORREF_TYPE_ID:
        _ACTORREF_ENTRY = entry
    return cls


def _lookup_type_id(type_id: int) -> _RegisteredType:
    entry = _TABLE_BY_ID.get(type_id)
    if entry is None:
        # The table self-populates when the defining modules import; a
        # standalone decode (journal inspection tooling) may get here
        # before any of them has loaded.
        import repro.core.envelope  # noqa: F401
        import repro.core.overload  # noqa: F401
        import repro.core.refs  # noqa: F401
        import repro.mq.records  # noqa: F401

        entry = _TABLE_BY_ID.get(type_id)
    if entry is None:
        raise FramingError(f"unknown frame table id {type_id}")
    return entry


# ----------------------------------------------------------------------
# the request frame cache
# ----------------------------------------------------------------------
class FrameCache:
    """Memoized encoded cores of recently framed ``Request`` envelopes.

    Keyed by ``(request_id, step)`` -- the same identity the runtime dedups
    on -- and guarded by identity checks on the core fields, so a hit can
    only serve bytes for the exact same message. Retry and recovery copies
    (built with ``dataclasses.replace``, which preserves field object
    identity) hit the cache and re-encode nothing but the retry header.
    One cache per journal/store backend: request ids are only unique per
    application, so the memo must not outlive or span apps.
    """

    __slots__ = ("_entries", "capacity", "hits", "misses")

    def __init__(self, capacity: int = 4096):
        self._entries: dict[tuple[str, int], tuple[tuple, bytes]] = {}
        self.capacity = capacity
        self.hits = 0
        self.misses = 0

    def core_bytes(self, entry: _RegisteredType, request: Any) -> bytes:
        key = (request.request_id, request.step)
        cached = self._entries.get(key)
        core = entry.get_core(request)
        if cached is not None and cached[0] == core:
            # Tuple equality short-circuits on element identity, so copies
            # built with dataclasses.replace compare in C at pointer speed.
            self.hits += 1
            return cached[1]
        self.misses += 1
        buf = bytearray()
        for item in core:
            _encode(item, buf, self)
        encoded = bytes(buf)
        if len(self._entries) >= self.capacity:
            self._entries.clear()
        self._entries[key] = (core, encoded)
        return encoded


# ----------------------------------------------------------------------
# encoding
# ----------------------------------------------------------------------
def _encode_str(value: str, buf: bytearray) -> None:
    payload = value.encode("utf-8")
    size = len(payload)
    if size < 0x100:
        buf.append(_OP_STR8)
        buf.append(size)
    else:
        buf.append(_OP_STR32)
        buf += _S_U32.pack(size)
    buf += payload


def _encode_int(value: int, buf: bytearray) -> None:
    if _INT8_MIN <= value <= _INT8_MAX:
        buf.append(_OP_INT8)
        buf.append(value & 0xFF)
    elif _INT32_MIN <= value <= _INT32_MAX:
        buf.append(_OP_INT32)
        buf += _S_INT32.pack(value)
    elif _INT64_MIN <= value <= _INT64_MAX:
        buf.append(_OP_INT64)
        buf += _S_INT64.pack(value)
    else:
        payload = value.to_bytes(
            (value.bit_length() + 8) // 8, "little", signed=True
        )
        buf.append(_OP_INTBIG)
        buf += _S_U32.pack(len(payload))
        buf += payload


def _encode(value: Any, buf: bytearray, cache: FrameCache | None) -> None:
    if value is None:
        buf.append(_OP_NONE)
        return
    kind = type(value)
    if kind is bool:
        buf.append(_OP_TRUE if value else _OP_FALSE)
        return
    if kind is str:
        payload = value.encode("utf-8")
        size = len(payload)
        if size < 0x100:
            buf.append(_OP_STR8)
            buf.append(size)
        else:
            buf.append(_OP_STR32)
            buf += _S_U32.pack(size)
        buf += payload
        return
    if kind is int:
        if _INT8_MIN <= value <= _INT8_MAX:
            buf.append(_OP_INT8)
            buf.append(value & 0xFF)
        else:
            _encode_int(value, buf)
        return
    if kind is float:
        buf.append(_OP_FLOAT)
        buf += _S_FLOAT.pack(value)
        return
    if kind is tuple:
        count = len(value)
        if count < 0x100:
            buf.append(_OP_TUPLE8)
            buf.append(count)
        else:
            buf.append(_OP_TUPLE32)
            buf += _S_U32.pack(count)
        for item in value:
            _encode(item, buf, cache)
        return
    if kind is list:
        buf.append(_OP_LIST)
        buf += _S_U32.pack(len(value))
        for item in value:
            _encode(item, buf, cache)
        return
    if kind is dict:
        for key in value:
            if type(key) is not str:
                _encode_map(value, buf, cache)
                return
        buf.append(_OP_DICTSTR)
        buf += _S_U32.pack(len(value))
        for key, item in value.items():
            _encode_str(key, buf)
            _encode(item, buf, cache)
        return
    if kind is set or kind is frozenset:
        buf.append(_OP_SET if kind is set else _OP_FROZENSET)
        buf += _S_U32.pack(len(value))
        # Deterministic frames: members sort by their encoded bytes, which
        # is total, hash-seed-independent, and needs no comparable types.
        members = []
        for item in value:
            member = bytearray()
            _encode(item, member, cache)
            members.append(bytes(member))
        members.sort()
        for member in members:
            buf += member
        return
    entry = _TABLE_BY_TYPE.get(kind)
    if entry is not None:
        type_id = entry.type_id
        if type_id == ACTORREF_TYPE_ID:
            buf.append(_OP_ACTORREF)
            _encode_str(value.type, buf)
            _encode_str(value.id, buf)
            return
        if type_id == REQUEST_TYPE_ID:
            buf.append(_OP_REQUEST)
            if cache is not None:
                buf += cache.core_bytes(entry, value)
            else:
                for item in entry.get_core(value):
                    _encode(item, buf, cache)
            for item in entry.get_header(value):
                _encode(item, buf, cache)
            return
        if type_id == RESPONSE_TYPE_ID:
            buf.append(_OP_RESPONSE)
            for item in entry.get_fields(value):
                _encode(item, buf, cache)
            return
        buf.append(_OP_DATACLASS)
        buf += _S_U16.pack(type_id)
        for item in entry.get_fields(value):
            _encode(item, buf, cache)
        return
    _encode_slow(value, buf, cache)


def _encode_map(
    value: dict[Any, Any], buf: bytearray, cache: FrameCache | None
) -> None:
    buf.append(_OP_MAP)
    buf += _S_U32.pack(len(value))
    for key, item in value.items():
        _encode(key, buf, cache)
        _encode(item, buf, cache)


def _encode_slow(value: Any, buf: bytearray, cache: FrameCache | None) -> None:
    """Cold tail of the dispatch: subclasses, unregistered dataclasses,
    bytes, and the pickle fallback."""
    if isinstance(value, (bytes, bytearray)):
        buf.append(_OP_BYTES)
        buf += _S_U32.pack(len(value))
        buf += value
        return
    if is_dataclass(value) and not isinstance(value, type):
        cls = type(value)
        buf.append(_OP_DATACLASS_PATH)
        _encode_str(f"{cls.__module__}:{cls.__qualname__}", buf)
        names = tuple(f.name for f in dataclass_fields(value))
        if len(names) > 0xFF:
            raise FramingError(f"{cls!r} has too many fields to frame")
        buf.append(len(names))
        for name in names:
            _encode_str(name, buf)
            _encode(getattr(value, name), buf, cache)
        return
    if isinstance(value, (bool, int, float, str)):
        # Scalar subclasses take the base representation (types narrow to
        # their wire shape).
        _encode(
            str(value)
            if isinstance(value, str)
            else float(value)
            if isinstance(value, float)
            else int(value),
            buf,
            cache,
        )
        return
    if isinstance(value, (list, tuple, dict, set, frozenset)):
        base: Any = (
            list(value)
            if isinstance(value, list)
            else tuple(value)
            if isinstance(value, tuple)
            else dict(value)
            if isinstance(value, dict)
            else set(value)
            if isinstance(value, set)
            else frozenset(value)
        )
        _encode(base, buf, cache)
        return
    try:
        payload = pickle.dumps(value)
    except Exception as error:  # noqa: BLE001 - report the offending value
        raise FramingError(
            f"value of type {type(value).__name__} is not durable: {error}"
        ) from error
    buf.append(_OP_PICKLE)
    buf += _S_U32.pack(len(payload))
    buf += payload


# ----------------------------------------------------------------------
# decoding
# ----------------------------------------------------------------------
def _take(data: bytes, start: int, end: int) -> bytes:
    """Slice with a length check: short slices mean a truncated frame."""
    if end > len(data):
        raise FramingError("truncated frame")
    return data[start:end]


def _decode_str(data: bytes, pos: int) -> tuple[str, int]:
    op = data[pos]
    if op == _OP_STR8:
        size = data[pos + 1]
        start = pos + 2
    elif op == _OP_STR32:
        size = _S_U32.unpack_from(data, pos + 1)[0]
        start = pos + 5
    else:
        raise FramingError(f"expected string opcode, found 0x{op:02x}")
    end = start + size
    if end > len(data):
        raise FramingError("truncated frame")
    return data[start:end].decode("utf-8"), end


def _decode_many(data: bytes, pos: int, count: int) -> tuple[list, int]:
    """Decode ``count`` consecutive values with the hot scalar opcodes
    inlined -- the per-field dispatch cost of frames (dataclass fields,
    container items, dict entries) without a function call per value."""
    values: list[Any] = []
    append = values.append
    total = len(data)
    for _ in range(count):
        op = data[pos]
        if op == _OP_STR8:
            size = data[pos + 1]
            start = pos + 2
            end = start + size
            if end > total:
                raise FramingError("truncated frame")
            append(data[start:end].decode("utf-8"))
            pos = end
        elif op == _OP_INT8:
            raw = data[pos + 1]
            append(raw - 0x100 if raw > _INT8_MAX else raw)
            pos += 2
        elif op == _OP_NONE:
            append(None)
            pos += 1
        elif op == _OP_TRUE:
            append(True)
            pos += 1
        elif op == _OP_FALSE:
            append(False)
            pos += 1
        elif op == _OP_FLOAT:
            append(_S_FLOAT.unpack_from(data, pos + 1)[0])
            pos += 9
        elif op == _OP_INT32:
            append(_S_INT32.unpack_from(data, pos + 1)[0])
            pos += 5
        elif op == _OP_TUPLE8:
            size = data[pos + 1]
            items, pos = _decode_many(data, pos + 2, size)
            append(tuple(items))
        elif op == _OP_ACTORREF:
            entry = _ACTORREF_ENTRY or _lookup_type_id(ACTORREF_TYPE_ID)
            strings, pos = _decode_many(data, pos + 1, 2)
            actor_type = strings[0]
            if type(actor_type) is not str:
                raise FramingError("malformed ActorRef frame")
            append(entry.cls(sys.intern(actor_type), strings[1]))
        else:
            value, pos = _decode(data, pos)
            append(value)
    return values, pos


def _decode(data: bytes, pos: int) -> tuple[Any, int]:
    # Scalars decode inline in _decode_many, so this function mostly sees
    # container and dataclass opcodes: they head the dispatch chain.
    op = data[pos]
    pos += 1
    if op == _OP_REQUEST:
        return _decode_request(data, pos)
    if op == _OP_TUPLE8:
        count = data[pos]
        items, pos = _decode_many(data, pos + 1, count)
        return tuple(items), pos
    if op == _OP_STR8:
        size = data[pos]
        end = pos + 1 + size
        if end > len(data):
            raise FramingError("truncated frame")
        return data[pos + 1 : end].decode("utf-8"), end
    if op == _OP_DICTSTR or op == _OP_MAP:
        count = _S_U32.unpack_from(data, pos)[0]
        # Keys and values interleave on the wire; decode them as one flat
        # run and pair them up in C.
        flat, pos = _decode_many(data, pos + 4, count * 2)
        pairs = iter(flat)
        return dict(zip(pairs, pairs)), pos
    if op == _OP_LIST:
        count = _S_U32.unpack_from(data, pos)[0]
        return _decode_many(data, pos + 4, count)
    if op == _OP_INT8:
        value = data[pos]
        return value - 0x100 if value > _INT8_MAX else value, pos + 1
    if op == _OP_NONE:
        return None, pos
    if op == _OP_TRUE:
        return True, pos
    if op == _OP_FALSE:
        return False, pos
    if op == _OP_FLOAT:
        return _S_FLOAT.unpack_from(data, pos)[0], pos + 8
    if op == _OP_INT32:
        return _S_INT32.unpack_from(data, pos)[0], pos + 4
    if op == _OP_INT64:
        return _S_INT64.unpack_from(data, pos)[0], pos + 8
    if op == _OP_RESPONSE:
        entry = _RESPONSE_ENTRY or _lookup_type_id(RESPONSE_TYPE_ID)
        values, pos = _decode_many(data, pos, len(entry.field_names))
        if type(values[0]) is str:
            values[0] = sys.intern(values[0])  # request_id
        return entry.cls(*values), pos
    if op == _OP_ACTORREF:
        entry = _ACTORREF_ENTRY or _lookup_type_id(ACTORREF_TYPE_ID)
        strings, pos = _decode_many(data, pos, 2)
        actor_type = strings[0]
        if type(actor_type) is not str:
            raise FramingError("malformed ActorRef frame")
        return entry.cls(sys.intern(actor_type), strings[1]), pos
    if op == _OP_STR32:
        size = _S_U32.unpack_from(data, pos)[0]
        end = pos + 4 + size
        return _take(data, pos + 4, end).decode("utf-8"), end
    if op == _OP_TUPLE32:
        count = _S_U32.unpack_from(data, pos)[0]
        items, pos = _decode_many(data, pos + 4, count)
        return tuple(items), pos
    if op == _OP_SET or op == _OP_FROZENSET:
        count = _S_U32.unpack_from(data, pos)[0]
        items, pos = _decode_many(data, pos + 4, count)
        return (set(items) if op == _OP_SET else frozenset(items)), pos
    if op == _OP_DATACLASS:
        type_id = _S_U16.unpack_from(data, pos)[0]
        entry = _lookup_type_id(type_id)
        values, pos = _decode_many(data, pos + 2, len(entry.field_names))
        return entry.cls(*values), pos
    if op == _OP_DATACLASS_PATH:
        path, pos = _decode_str(data, pos)
        count = data[pos]
        pos += 1
        cls = _resolve_type(path)
        decoded: dict[str, Any] = {}
        for _ in range(count):
            name, pos = _decode_str(data, pos)
            value, pos = _decode(data, pos)
            decoded[name] = value
        return cls(**decoded), pos
    if op == _OP_BYTES:
        size = _S_U32.unpack_from(data, pos)[0]
        end = pos + 4 + size
        return _take(data, pos + 4, end), end
    if op == _OP_INTBIG:
        size = _S_U32.unpack_from(data, pos)[0]
        end = pos + 4 + size
        return int.from_bytes(_take(data, pos + 4, end), "little", signed=True), end
    if op == _OP_PICKLE:
        size = _S_U32.unpack_from(data, pos)[0]
        end = pos + 4 + size
        return pickle.loads(_take(data, pos + 4, end)), end
    raise FramingError(f"unknown frame opcode 0x{op:02x}")


def _decode_request(data: bytes, pos: int) -> tuple[Any, int]:
    entry = _REQUEST_ENTRY or _lookup_type_id(REQUEST_TYPE_ID)
    wire, pos = _decode_many(data, pos, entry.wire_count)
    for index in entry.intern_core_indices:
        value = wire[index]
        if type(value) is str:
            wire[index] = sys.intern(value)
    return entry.cls(*entry.arg_order(wire)), pos


# ----------------------------------------------------------------------
# frames
# ----------------------------------------------------------------------
def encode_value(value: Any, cache: FrameCache | None = None) -> bytes:
    """Binary value encoding alone (no frame header)."""
    buf = bytearray()
    _encode(value, buf, cache)
    return bytes(buf)


def decode_value(data: bytes, pos: int = 0) -> tuple[Any, int]:
    """Decode one binary value starting at ``pos``; returns (value, end)."""
    try:
        return _decode(data, pos)
    except (IndexError, struct.error) as error:
        raise FramingError(f"truncated binary frame: {error}") from error
    except UnicodeDecodeError as error:
        raise FramingError(f"malformed string in frame: {error}") from error


def decode_values(data: bytes, pos: int, count: int) -> tuple[list, int]:
    """Decode ``count`` consecutive values starting at ``pos``; returns
    (values, end), so a caller can stop before the values it skips."""
    try:
        return _decode_many(data, pos, count)
    except (IndexError, struct.error) as error:
        raise FramingError(f"truncated binary frame: {error}") from error
    except UnicodeDecodeError as error:
        raise FramingError(f"malformed string in frame: {error}") from error


def peek_envelope(data: bytes, pos: int = 0) -> tuple[bool, str, int | None] | None:
    """``(is a response, request id, step)`` of the ``Request`` or
    ``Response`` encoded at ``pos`` (the step is None for a response), or
    None for any other value.

    Only those fields are decoded: the id is wire field 0 of both envelopes
    (the first core field of a ``Request``, the first field of a
    ``Response``), and a request's step is its wire field 1.
    """
    op = data[pos]
    if op != _OP_REQUEST and op != _OP_RESPONSE:
        return None
    try:
        if data[pos + 1] == _OP_STR8:
            # The usual shape, read inline: a short id, then a small step.
            end = pos + 3 + data[pos + 2]
            if end > len(data):
                raise FramingError("truncated frame")
            request_id = data[pos + 3 : end].decode("utf-8")
        else:
            request_id, end = _decode_str(data, pos + 1)
        if op == _OP_RESPONSE:
            return True, sys.intern(request_id), None
        if data[end] == _OP_INT8:
            step = data[end + 1]
            if step > _INT8_MAX:
                step -= 0x100
        else:
            step, _end = _decode(data, end)
    except (IndexError, struct.error, UnicodeDecodeError) as error:
        raise FramingError(f"malformed envelope frame: {error}") from error
    if type(step) is not int:
        raise FramingError("malformed envelope frame: the step is not an int")
    return False, sys.intern(request_id), step


def dumps_frame(value: Any, cache: FrameCache | None = None) -> bytes:
    """Encode ``value`` as a self-describing frame (header + payload)."""
    buf = bytearray(HEADER)
    _encode(value, buf, cache)
    return bytes(buf)


def loads_frame(data: bytes) -> Any:
    """Decode a frame; anything but a version-2 binary frame is rejected."""
    if not isinstance(data, bytes) or not data.startswith(HEADER):
        raise FramingError("not a version-2 frame (bad magic or version byte)")
    try:
        value, end = _decode(data, 4)
    except (IndexError, struct.error) as error:
        raise FramingError(f"truncated binary frame: {error}") from error
    except UnicodeDecodeError as error:
        raise FramingError(f"malformed string in frame: {error}") from error
    if end != len(data):
        raise FramingError(
            f"trailing bytes after frame ({len(data) - end} unread)"
        )
    return value
