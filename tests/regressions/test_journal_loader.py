"""A journal on disk loads only JSON objects, and says which file did not.

``WriteAheadLog`` took every line ``json.loads`` accepted, so a
``wal.jsonl`` line ``[1,2]`` loaded and failed much later, in
``QuarantineMachine.apply``, with a bare ``TypeError``.  A
``checkpoint.json`` of ``[]`` loaded as a snapshot, and one that did not
parse raised a ``JSONDecodeError`` that named no file.  Each now raises
a ``ValueError`` naming ``wal.jsonl:<line>`` or ``checkpoint.json``; a
crash-cut last WAL record is still dropped.
"""

import pytest

from repro.resilience.journal import ControllerJournal

RECORD = '{"kind":"quarantine","path_id":1,"t":1.0}'


@pytest.mark.parametrize("line", ["[1,2]", '"text"', "3", "null", "true"])
def test_a_wal_line_that_is_not_an_object_is_refused_by_line(tmp_path, line):
    (tmp_path / "wal.jsonl").write_text(f"{RECORD}\n{line}\n{RECORD}\n")
    with pytest.raises(ValueError, match=r"^wal\.jsonl:2: "):
        ControllerJournal(tmp_path)


@pytest.mark.parametrize("text", ["[]", "{}[", "", "1.5", '"{}"', b"\xff{}"])
def test_a_checkpoint_that_is_not_an_object_is_refused_by_name(tmp_path, text):
    path = tmp_path / "checkpoint.json"
    if isinstance(text, bytes):
        path.write_bytes(text)
    else:
        path.write_text(text)
    with pytest.raises(ValueError, match=r"^checkpoint\.json: "):
        ControllerJournal(tmp_path)


@pytest.mark.parametrize("tail", ['{"kind":"quar', "[1,2]", "7"])
def test_a_crash_cut_last_record_is_still_dropped(tmp_path, tail):
    wal = tmp_path / "wal.jsonl"
    wal.write_text(f"{RECORD}\n{tail}")
    journal = ControllerJournal(tmp_path)
    assert len(journal.wal) == 1
    assert wal.read_text() == f"{RECORD}\n"


def test_a_crash_cut_complete_object_is_kept(tmp_path):
    wal = tmp_path / "wal.jsonl"
    wal.write_text(f"{RECORD}\n{RECORD}")
    journal = ControllerJournal(tmp_path)
    assert len(journal.wal) == 2
    assert wal.read_text() == f"{RECORD}\n{RECORD}\n"
