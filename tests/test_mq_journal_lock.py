"""Journal file locking: one appender per partition journal, ever."""

from __future__ import annotations

import pytest

from repro.mq import FileJournalLog, JournalLockedError


def test_second_opener_is_rejected_with_fencing_error(tmp_path):
    path = str(tmp_path / "app.journal")
    first = FileJournalLog(path)
    first.append_many("t", [("p", "v")], 0.0)
    with pytest.raises(JournalLockedError):
        FileJournalLog(path)
    # The first opener is unaffected by the rejected attempt.
    first.append_many("t", [("p", "w")], 1.0)
    assert first.retained_records() == 2
    first.close()


def test_lock_releases_on_close_and_survives_rewrite(tmp_path):
    path = str(tmp_path / "app.journal")
    first = FileJournalLog(path)
    first.append_many("t", [("p", "v")], 0.0)
    # rewrite() replaces the file and must re-take the lock on the new one.
    first.rewrite()
    with pytest.raises(JournalLockedError):
        FileJournalLog(path)
    first.close()
    # After a clean close the journal admits its next (single) opener.
    second = FileJournalLog(path)
    assert second.retained_records() == 1
    second.close()


def test_locks_are_per_path(tmp_path):
    a = FileJournalLog(str(tmp_path / "a.journal"))
    b = FileJournalLog(str(tmp_path / "b.journal"))
    a.append_many("t", [("p", "v")], 0.0)
    b.append_many("t", [("p", "v")], 0.0)
    a.close()
    b.close()

