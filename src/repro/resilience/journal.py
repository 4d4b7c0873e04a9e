"""Crash-safe controller persistence: JSON checkpoints + a write-ahead log.

A :class:`ControllerJournal` owns two artifacts:

* a **checkpoint** — the controller's full serialized runtime state
  (quarantine machines, stale flags, estimation mode, tick count), taken
  every ``checkpoint_every_ticks`` control ticks;
* a **write-ahead log** — every decision that mutates routing state
  (quarantine transitions, fallback toggles, mode changes, data-path
  choice changes) appended *as it happens*, truncated at each checkpoint.

Recovery replays checkpoint + WAL: the restarted controller resumes with
the quarantine/edge-trigger/selector state it had at death, so a restart
does not re-thrash tunnels that were already correctly quarantined (or
re-admit ones that were not).

Two backings share one API: in-memory (fast, for simulations that model
the crash without modeling the disk) and directory-backed (checkpoint
written atomically via rename, WAL as append-only JSON lines — a journal
re-opened on the same directory recovers across real process restarts).
All serialization uses sorted keys and compact separators, so
:meth:`ControllerJournal.dump` is byte-identical across replays of the
same seed — the property the E14 acceptance test pins down.
"""

from __future__ import annotations

import contextlib
import json
import os
from pathlib import Path
from typing import Any, Callable, Optional

from ..validate import int_in

__all__ = ["WriteAheadLog", "NullJournal", "ControllerJournal"]


def _dumps(payload: Any) -> str:
    """Stable JSON: sorted keys, no insignificant whitespace."""
    return json.dumps(payload, sort_keys=True, separators=(",", ":"))


def _load_object(text: str | bytes, where: str) -> dict:
    """The JSON object ``text`` holds, or a ``ValueError`` naming ``where``."""
    try:
        value = json.loads(text)
    except ValueError as exc:
        raise ValueError(f"{where}: {exc}") from exc
    if not isinstance(value, dict):
        raise ValueError(f"{where}: not a JSON object: {type(value).__name__}")
    return value


class WriteAheadLog:
    """Append-only decision log, optionally backed by a JSONL file.

    Re-opening a file drops a last record that lacks its newline and
    is not a JSON object (a crash cut the append short); any other line
    that is not a JSON object raises ``ValueError`` naming the file and
    line.
    """

    def __init__(self, path: Optional[Path] = None) -> None:
        self.path = path
        self._entries: list[dict] = []
        if path is not None and path.exists():
            data = path.read_bytes()
            end = data.rfind(b"\n") + 1
            for number, line in enumerate(data[:end].splitlines(), 1):
                if not line.strip():
                    continue
                self._entries.append(_load_object(line, f"{path.name}:{number}"))
            if data[end:].strip():
                # append() writes a record and its newline in one call, so
                # this one never completed: cut it, keep it if it is an object.
                os.truncate(path, end)
                with contextlib.suppress(ValueError):
                    self.append(_load_object(data[end:], path.name))

    def append(self, entry: dict) -> None:
        self._entries.append(entry)
        if self.path is not None:
            with open(self.path, "a", encoding="utf-8") as handle:
                handle.write(_dumps(entry) + "\n")

    def entries(self) -> list[dict]:
        """The logged entries, oldest first (a copy)."""
        return list(self._entries)

    def truncate(self) -> None:
        """Drop everything — called after a successful checkpoint."""
        self._entries.clear()
        if self.path is not None:
            with open(self.path, "w", encoding="utf-8"):
                pass

    def __len__(self) -> int:
        return len(self._entries)


class NullJournal:
    """The journal of a controller that keeps none: :meth:`record` builds
    the entry the controller's machines apply, and keeps nothing."""

    def record(self, kind: str, t: float, **payload: Any) -> dict:
        """One decision entry: ``kind``, time ``t`` and the payload."""
        return {"kind": kind, "t": t, **payload}

    def checkpoint_if_due(self, ticks: int, snapshot: Callable[[], dict]) -> None:
        """Called every control tick; no checkpoint is ever due."""

    def recover(self) -> tuple[Optional[dict], list[dict]]:
        """Nothing was kept: no checkpoint, no WAL — a restore from it
        leaves the controller as a cold start would."""
        return None, []


class ControllerJournal(NullJournal):
    """Checkpoint + WAL pair for one controller.

    Args:
        directory: back the journal with files under this directory
            (``checkpoint.json`` + ``wal.jsonl``); ``None`` keeps it in
            memory.  Re-opening a journal on an existing directory loads
            whatever a previous incarnation persisted — recovery across
            process restarts.
        checkpoint_every_ticks: controller ticks between checkpoints.

    Raises:
        ValueError: a persisted ``checkpoint.json`` or ``wal.jsonl`` line
            is not a JSON object (the message names the file and line).
    """

    def __init__(
        self,
        directory: Optional[str | Path] = None,
        checkpoint_every_ticks: int = 50,
    ) -> None:
        int_in(1)("checkpoint_every_ticks", checkpoint_every_ticks)
        self.checkpoint_every_ticks = checkpoint_every_ticks
        self.directory = Path(directory) if directory is not None else None
        self.checkpoints = 0
        self.records = 0
        self._snapshot: Optional[dict] = None
        wal_path = None
        if self.directory is not None:
            self.directory.mkdir(parents=True, exist_ok=True)
            checkpoint_path = self.directory / "checkpoint.json"
            if checkpoint_path.exists():
                self._snapshot = _load_object(
                    checkpoint_path.read_bytes(), checkpoint_path.name
                )
            wal_path = self.directory / "wal.jsonl"
        self.wal = WriteAheadLog(wal_path)

    # -- write path ----------------------------------------------------------------

    def record(self, kind: str, t: float, **payload: Any) -> dict:
        """Append one decision to the WAL before it takes effect: the
        controller applies the returned entry."""
        entry = super().record(kind, t, **payload)
        self.wal.append(entry)
        self.records += 1
        return entry

    def checkpoint_if_due(self, ticks: int, snapshot: Callable[[], dict]) -> None:
        """Checkpoint ``snapshot()`` every ``checkpoint_every_ticks`` ticks."""
        if ticks % self.checkpoint_every_ticks == 0:
            self.checkpoint(snapshot())

    def checkpoint(self, snapshot: dict) -> None:
        """Persist a full state snapshot and truncate the WAL."""
        self._snapshot = snapshot
        self.checkpoints += 1
        if self.directory is not None:
            target = self.directory / "checkpoint.json"
            tmp = self.directory / "checkpoint.json.tmp"
            with open(tmp, "w", encoding="utf-8") as handle:
                handle.write(_dumps(snapshot))
            os.replace(tmp, target)
        self.wal.truncate()

    # -- recovery ------------------------------------------------------------------

    def recover(self) -> tuple[Optional[dict], list[dict]]:
        """The latest checkpoint (or None) plus WAL entries since it."""
        return self._snapshot, self.wal.entries()

    def dump(self) -> str:
        """Deterministic serialization of checkpoint + WAL for replay
        comparisons (byte-identical for identical campaigns)."""
        return _dumps({"checkpoint": self._snapshot, "wal": self.wal.entries()})

    def __repr__(self) -> str:
        backing = "memory" if self.directory is None else str(self.directory)
        return (
            f"ControllerJournal({backing}, checkpoints={self.checkpoints}, "
            f"wal={len(self.wal)})"
        )
