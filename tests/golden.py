"""Capture/compare for golden sha256 fixtures, shared by the golden tests.

A fixture is one JSON table ``name -> {"sha256", "lines"}`` over
canonical text dumps; a test recomputes one entry and compares, a
module's ``__main__`` rewrites the whole table
(``PYTHONPATH=src:. python tests/<pkg>/test_golden_<x>.py``).
"""

import hashlib
import json
from pathlib import Path


def digest(text: str) -> dict:
    """The fixture entry for one canonical text dump."""
    return {
        "sha256": hashlib.sha256(text.encode("utf-8")).hexdigest(),
        "lines": text.count("\n"),
    }


def load(path: Path) -> dict:
    return json.loads(path.read_text(encoding="utf-8"))


def regenerate(path: Path, table: dict) -> None:
    path.parent.mkdir(exist_ok=True)
    path.write_text(
        json.dumps(table, indent=2, sort_keys=True) + "\n", encoding="utf-8"
    )
    print(path.read_text(encoding="utf-8"))
