"""Checksummed journal frames, and a replay that decodes only what is read.

A journal frame is ``<u32 length><u32 crc32(payload)><payload>``. Replay
verifies every frame's CRC and unpacks a record's binary head only; the
value is decoded when something first reads it. Reconciliation and
``stats("calls")`` read a call by its request id and step alone, so a cold
restart decodes one record of each unsettled request and nothing else.
"""

from __future__ import annotations

import struct
import zlib

import pytest

from repro.core import KarApplication, KarConfig, actor_proxy
from repro.core.envelope import Request
from repro.mq import FileJournalLog, Record
from repro.mq.log import JOURNAL_HEADER
from repro.mq.records import ReplayedValue
from repro.persist import PersistenceConfig, framing
from repro.sim import Kernel

from helpers import Counter, Flow, Tally, unexpired_in_order
from oracle import check_guarantee

TYPES = ("Counter", "Flow", "Tally")


def deploy(app: KarApplication) -> KarApplication:
    app.add_component("w1", TYPES)
    app.add_component("w2", TYPES)
    app.client()
    app.settle()
    return app


def durable_app(root, seed: int = 0) -> KarApplication:
    config = KarConfig.fast_test().with_overrides(
        persistence=PersistenceConfig.sqlite(str(root))
    )
    app = KarApplication.fresh(Kernel(seed=seed), config, name="app")
    for cls in (Counter, Flow, Tally):
        app.register_actor(cls)
    return deploy(app)


def frames(data: bytes) -> list[tuple[int, int, str]]:
    """``(start, end, kind)`` of every frame after the journal header: a
    record's binary head opens with ``r``, any other entry is a tuple in
    the value codec whose first item is its kind."""
    spans, pos = [], len(JOURNAL_HEADER)
    while pos < len(data):
        (size,) = struct.unpack_from("<I", data, pos)
        end = pos + 8 + size
        if data[pos + 8] == ord("r"):
            kind = "r"
        else:
            kind = framing.decode_value(data, pos + 8)[0][0]
        spans.append((pos, end, kind))
        pos = end
    return spans


@pytest.fixture
def counted_decodes(monkeypatch) -> list[int]:
    """Every ``framing.decode_value`` call from here on, one entry each."""
    calls: list[int] = []
    original = framing.decode_value

    def counting(data, pos=0):
        calls.append(pos)
        return original(data, pos)

    monkeypatch.setattr(framing, "decode_value", counting)
    return calls


@pytest.fixture
def ledger_journal(tmp_path):
    """A small real journal: three settled read-then-tail-write calls."""
    app = durable_app(tmp_path / "durable")
    for amount in (1, 2, 3):
        app.run_call(actor_proxy("Counter", "c1"), "bump", amount)
    app.shutdown()
    return tmp_path / "durable" / "app.journal"


def test_every_bit_flip_in_a_frame_with_frames_after_it_is_refused(ledger_journal):
    intact = ledger_journal.read_bytes()
    spans = frames(intact)
    flips = 0
    for start, end, kind in spans[:-1]:
        if kind != "r":
            continue
        for at in range(start, end):
            damaged = bytearray(intact)
            damaged[at] ^= 1 << (at % 8)
            ledger_journal.write_bytes(bytes(damaged))
            with pytest.raises(ValueError, match=f"corrupt journal frame at byte {start} "):
                FileJournalLog(str(ledger_journal))
            assert ledger_journal.read_bytes() == bytes(damaged)  # untouched
            flips += 1
    assert flips > 500  # every byte of every mid-file record frame


def test_a_bit_flip_in_the_last_frame_truncates_it_as_a_torn_tail(ledger_journal):
    log = FileJournalLog(str(ledger_journal))
    retained = log.retained_records()
    log.append_many("app-topic", [("tail#0", "tail")], 1.0)
    log.close()
    intact = ledger_journal.read_bytes()
    start, end, kind = frames(intact)[-1]
    assert (kind, end) == ("r", len(intact))
    for at in range(start, end):
        damaged = bytearray(intact)
        damaged[at] ^= 1 << (at % 8)
        ledger_journal.write_bytes(bytes(damaged))
        log = FileJournalLog(str(ledger_journal))
        assert log.retained_records() == retained
        log.close()
        assert ledger_journal.read_bytes() == intact[:start]


def test_every_byte_prefix_reopens_to_the_records_of_its_whole_frames(ledger_journal):
    """A crash can cut the journal after any byte: the appender keeps every
    whole frame, and truncates the rest."""
    intact = ledger_journal.read_bytes()
    cuts = [len(JOURNAL_HEADER)] + [end for _, end, _ in frames(intact)]
    images = {}
    for cut in cuts:
        ledger_journal.write_bytes(intact[:cut])
        log = FileJournalLog(str(ledger_journal))
        images[cut] = (list(log.replay()), log.meta_items())
        log.close()
    retained = sum(len(records) for *_, records in images[len(intact)][0])
    assert retained == [kind for *_, kind in frames(intact)].count("r") > 0
    whole = len(JOURNAL_HEADER)
    for length in range(len(JOURNAL_HEADER), len(intact) + 1):
        if length in images:
            whole = length
        ledger_journal.write_bytes(intact[:length])
        log = FileJournalLog(str(ledger_journal))
        assert (list(log.replay()), log.meta_items()) == images[whole], length
        log.close()
        assert ledger_journal.read_bytes() == intact[:whole]


def test_a_version_3_journal_is_refused_by_name_and_left_untouched(tmp_path):
    """Journals whose records carry their header in the value codec (the
    frame format before binary record heads) are neither read nor
    migrated."""
    path = tmp_path / "old.journal"
    payload = framing.encode_value(("r", "app.topic", "w1#0", 5, 12.25, "v"))
    old = (
        framing.MAGIC
        + bytes((3,))
        + struct.pack("<II", len(payload), zlib.crc32(payload))
        + payload
    )
    path.write_bytes(old)
    with pytest.raises(ValueError, match="old.journal.*version-3 journal"):
        FileJournalLog(str(path))
    assert path.read_bytes() == old


def test_a_rewrite_after_a_drop_and_a_new_partition_reopens_to_the_same_image(
    tmp_path,
):
    """A dropped queue's id retires with it, whether the drop was made in
    this process or replayed; a rewrite declares each retained partition
    under the id its copied frames carry."""
    path = str(tmp_path / "app.journal")
    log = FileJournalLog(path)
    log.append_many("t", [("a", "a0"), ("b", "b0")], 0.0)
    log.append_many("t", [("a", "a1")], 0.5)
    log.drop_partition("t", "a")
    log.append_many("t", [("c", "c0"), ("a", "a-again")], 1.0)
    log.drop_partition("t", "b")
    log.close()
    log = FileJournalLog(path)  # the drop of "b" replayed: a new queue
    log.append_many("t", [("b", "b-again")], 1.5)
    log.close()
    log = FileJournalLog(path)  # every record replayed: frames copied below
    log.append_many("u", [("b", ("u", 1))], 2.0)
    image = list(log.replay())
    assert [
        (topic, part, [record.value for record in records])
        for topic, part, _, _, records in image
    ] == [
        ("t", "a", ["a-again"]),
        ("t", "b", ["b-again"]),
        ("t", "c", ["c0"]),
        ("u", "b", [("u", 1)]),
    ]
    log.rewrite()
    log.close()
    log = FileJournalLog(path)
    assert list(log.replay()) == image
    # New partitions after the rewrite take ids no retained frame carries.
    log.append_many("t", [("d", "d0"), ("c", "c1")], 3.0)
    image = list(log.replay())
    log.close()
    log = FileJournalLog(path)
    assert list(log.replay()) == image
    assert [record.value for *_, records in image for record in records] == [
        "a-again",
        "b-again",
        "c0",
        "c1",
        "d0",
        ("u", 1),
    ]
    log.close()


def test_replayed_records_equal_the_appended_ones_and_decode_on_first_read(
    tmp_path, counted_decodes
):
    path = str(tmp_path / "app.journal")
    appended = [Record("p", offset, offset / 2, f"v{offset}") for offset in range(3)]
    log = FileJournalLog(path)
    for record in appended:
        log.append_many("t", [(record.partition, record.value)], record.timestamp)
    log.close()
    log = FileJournalLog(path)
    ((_, _, _, _, replayed),) = log.replay()
    log.close()
    entries = replayed.values
    assert all(type(entry) is ReplayedValue for entry in entries)
    assert counted_decodes == []
    assert entries[1].value == "v1"
    assert entries[1].value == "v1"  # decoded once, then kept
    assert len(counted_decodes) == 1
    assert replayed == appended and appended == replayed
    assert [hash(record) for record in replayed] == [hash(r) for r in appended]
    assert len(counted_decodes) == 3


def test_replayed_offsets_follow_each_other_or_the_journal_is_refused(tmp_path):
    """The image does not store offsets, so replay checks them: the first
    record of an empty partition may sit past where it starts, and every
    later one must take the next offset. A frame that breaks that is
    refused as corrupt, and the file is left as it was."""
    path = tmp_path / "app.journal"
    declare = FileJournalLog._frame_bytes(("p", "t", "p", 0))

    def record(offset):
        return FileJournalLog._record_frame(0, offset, 1.0, f"v{offset}")

    path.write_bytes(JOURNAL_HEADER + declare + record(5) + record(6))
    log = FileJournalLog(str(path))
    ((_, _, first, next_offset, records),) = log.replay()
    log.close()
    assert (first, next_offset) == (0, 7)
    assert [(r.offset, r.value) for r in records] == [(5, "v5"), (6, "v6")]
    for late in (4, 5, 7):
        damaged = JOURNAL_HEADER + declare + record(5) + record(late)
        path.write_bytes(damaged)
        with pytest.raises(ValueError, match="corrupt journal frame"):
            FileJournalLog(str(path))
        assert path.read_bytes() == damaged


def test_compaction_copies_replayed_frames_without_decoding(tmp_path, counted_decodes):
    journal = tmp_path / "app.journal"
    path = str(journal)
    log = FileJournalLog(path)
    log.set_meta("app:app:boot", 1)
    log.append_many("t", [("p", ("v", offset)) for offset in range(6)], 0.0)
    log.compact("t", "p", 2)
    log.close()
    log = FileJournalLog(path)
    image = list(log.replay())
    log.rewrite()
    log.close()
    assert counted_decodes == []
    log = FileJournalLog(path)
    assert list(log.replay()) == image
    assert log.meta_items() == {"app:app:boot": 1}
    assert [kind for _, _, kind in frames(journal.read_bytes())] == list("mpsrrrr")
    log.close()


def test_a_cold_restart_decodes_only_the_unsettled_requests(tmp_path, counted_decodes):
    """ROADMAP item 6's count: nothing is decoded inside ``reopen()``, and
    recovery decodes at most one value per unsettled request id, however
    many records (steps) of it the journal retains."""
    app = durable_app(tmp_path / "durable", seed=21)
    kernel, client = app.kernel, app.client()
    for amount in range(8):  # settled calls the replay must read through
        app.run_call(actor_proxy("Counter", f"c{amount}"), "bump", amount)
    workflows, hops = 6, 4
    for wid in range(workflows):
        kernel.spawn(
            client.invoke(None, actor_proxy("Flow", f"f{wid}"), "start", (wid, hops)),
            client.process,
        )
    kernel.run(until=kernel.now + 0.02)  # mid-workflow
    unsettled = set(app.stats("calls")["unsettled"])
    assert unsettled  # the crash interrupted real work
    topic = app.broker.topic(app.topic_name)
    in_flight_records = sum(
        1
        for record in unexpired_in_order(topic, kernel.now)
        if isinstance(record.value, Request) and record.value.request_id in unsettled
    )
    retained = app.broker.log.retained_records()

    del counted_decodes[:]
    recovered = app.reopen()
    assert counted_decodes == []
    assert recovered.restored_records == retained > in_flight_records
    deploy(recovered)
    deadline = kernel.now + 180.0
    while recovered.stats("calls")["unsettled"] and kernel.now < deadline:
        kernel.run(until=kernel.now + 1.0)
    assert in_flight_records > len(unsettled)  # tail calls left earlier steps
    assert 0 < len(counted_decodes) <= len(unsettled)
    assert sum(
        recovered.run_call(actor_proxy("Tally", f"t{index}"), "report")
        for index in range(3)
    ) == workflows * hops
    check_guarantee(app, recovered)
    recovered.shutdown()
