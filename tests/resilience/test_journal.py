"""Tests for the checkpoint + write-ahead-log persistence layer."""

import json

import pytest

from repro.resilience.journal import ControllerJournal, WriteAheadLog


class TestWriteAheadLog:
    def test_append_and_entries(self):
        wal = WriteAheadLog()
        wal.append({"kind": "quarantine", "t": 1.0, "path_id": 3})
        wal.append({"kind": "restore", "t": 2.0, "path_id": 3})
        assert len(wal) == 2
        assert [e["kind"] for e in wal.entries()] == ["quarantine", "restore"]

    def test_entries_returns_a_copy(self):
        wal = WriteAheadLog()
        wal.append({"kind": "mode", "t": 0.0})
        wal.entries().clear()
        assert len(wal) == 1

    def test_truncate(self):
        wal = WriteAheadLog()
        wal.append({"kind": "mode", "t": 0.0})
        wal.truncate()
        assert len(wal) == 0
        assert wal.entries() == []

    def test_file_backed_roundtrip(self, tmp_path):
        path = tmp_path / "wal.jsonl"
        wal = WriteAheadLog(path)
        wal.append({"kind": "quarantine", "t": 1.5, "path_id": 0})
        wal.append({"kind": "fallback", "t": 2.5, "active": True})
        # A fresh instance on the same file sees the same entries.
        reopened = WriteAheadLog(path)
        assert reopened.entries() == wal.entries()

    def test_file_truncate_empties_file(self, tmp_path):
        path = tmp_path / "wal.jsonl"
        wal = WriteAheadLog(path)
        wal.append({"kind": "mode", "t": 0.0})
        wal.truncate()
        assert path.read_text(encoding="utf-8") == ""
        assert WriteAheadLog(path).entries() == []


class TestControllerJournal:
    def test_record_appends_to_wal(self):
        journal = ControllerJournal()
        journal.record("quarantine", 1.0, path_id=2, cause="stale")
        assert journal.records == 1
        snapshot, wal = journal.recover()
        assert snapshot is None
        assert wal == [{"kind": "quarantine", "t": 1.0, "path_id": 2, "cause": "stale"}]

    def test_checkpoint_truncates_wal(self):
        journal = ControllerJournal()
        journal.record("quarantine", 1.0, path_id=2)
        journal.checkpoint({"ticks": 10, "quarantined": [2]})
        assert journal.checkpoints == 1
        snapshot, wal = journal.recover()
        assert snapshot == {"ticks": 10, "quarantined": [2]}
        assert wal == []

    def test_recover_returns_checkpoint_plus_tail(self):
        journal = ControllerJournal()
        journal.checkpoint({"ticks": 10})
        journal.record("restore", 2.0, path_id=2)
        snapshot, wal = journal.recover()
        assert snapshot == {"ticks": 10}
        assert [e["kind"] for e in wal] == ["restore"]

    def test_validation(self):
        with pytest.raises(ValueError):
            ControllerJournal(checkpoint_every_ticks=0)

    def test_dump_is_deterministic(self):
        def build():
            journal = ControllerJournal()
            journal.checkpoint({"b": 2, "a": 1})
            journal.record("mode", 1.0, mode="degraded")
            return journal

        assert build().dump() == build().dump()
        # Compact, sorted-key JSON regardless of insertion order.
        assert '"a":1,"b":2' in build().dump()

    def test_directory_backed_checkpoint_atomic(self, tmp_path):
        journal = ControllerJournal(tmp_path)
        journal.checkpoint({"ticks": 5})
        assert not (tmp_path / "checkpoint.json.tmp").exists()
        on_disk = json.loads((tmp_path / "checkpoint.json").read_text())
        assert on_disk == {"ticks": 5}

    def test_reopen_recovers_across_process_restart(self, tmp_path):
        """Simulates a real process death: a second journal on the same
        directory must see the checkpoint and the WAL tail."""
        first = ControllerJournal(tmp_path)
        first.checkpoint({"ticks": 50, "quarantined": [1]})
        first.record("quarantine", 5.2, path_id=3, cause="loss")
        del first
        second = ControllerJournal(tmp_path)
        snapshot, wal = second.recover()
        assert snapshot == {"ticks": 50, "quarantined": [1]}
        assert wal == [{"kind": "quarantine", "t": 5.2, "path_id": 3, "cause": "loss"}]

    def test_reopen_drops_a_torn_last_record(self, tmp_path):
        """A crash mid-append leaves the last record without its newline
        and cut short: recovery keeps everything before it, and the next
        append starts on a line of its own."""
        first = ControllerJournal(tmp_path)
        first.record("quarantine", 5.2, path_id=3, cause="loss")
        first.record("probation", 6.2, path_id=3, label="GTT")
        wal_path = tmp_path / "wal.jsonl"
        data = wal_path.read_bytes()
        wal_path.write_bytes(data[:-7])
        second = ControllerJournal(tmp_path)
        _, wal = second.recover()
        assert wal == [{"kind": "quarantine", "t": 5.2, "path_id": 3, "cause": "loss"}]
        second.record("restore", 7.0, path_id=3)
        _, wal = ControllerJournal(tmp_path).recover()
        assert [e["kind"] for e in wal] == ["quarantine", "restore"]

    def test_reopen_keeps_a_whole_record_missing_only_its_newline(self, tmp_path):
        path = tmp_path / "wal.jsonl"
        path.write_text('{"kind":"mode","t":1.0}\n{"kind":"mode","t":2.0}')
        wal = WriteAheadLog(path)
        assert [e["t"] for e in wal.entries()] == [1.0, 2.0]
        wal.append({"kind": "mode", "t": 3.0})
        assert [e["t"] for e in WriteAheadLog(path).entries()] == [1.0, 2.0, 3.0]

    def test_a_bad_line_before_the_tail_names_its_place(self, tmp_path):
        path = tmp_path / "wal.jsonl"
        path.write_text('{"kind":"mode","t":1.0}\n{"kind":"mo\n{"kind":"mode"}\n')
        with pytest.raises(ValueError, match=r"wal\.jsonl:2"):
            WriteAheadLog(path)

    def test_memory_journal_does_not_touch_disk(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        journal = ControllerJournal()
        journal.record("mode", 1.0, mode="degraded")
        journal.checkpoint({"ticks": 1})
        assert list(tmp_path.iterdir()) == []

    def test_repr_mentions_backing(self, tmp_path):
        assert "memory" in repr(ControllerJournal())
        assert str(tmp_path) in repr(ControllerJournal(tmp_path))
