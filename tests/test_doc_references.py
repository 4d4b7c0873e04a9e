"""What README, DESIGN and EXPERIMENTS name exists.

Three kinds of reference are checked in the three documents:

* every backticked dotted name under ``repro`` imports, or is an
  attribute chain off a module that does;
* every backticked repository path is a file or directory of the
  repository — a path has a ``/`` and either starts at a top-level
  directory or ends in a file name, optionally with a ``:line`` or
  ``:first-last`` suffix — and every backticked bare file name is one
  somewhere in it;
* every ``tango-repro <verb>`` (or ``{verb,verb}`` list) is a verb of
  the CLI's parser, and every ``--flag`` written after
  ``tango-repro <verb> [<subverb>]`` on the same line (up to a closing
  backtick or a ``#`` comment) is an option of that (sub)parser.

Generated output (what ``python -m bench run`` writes) is described in
words, not named as a path: a fresh checkout does not have it.
"""

import argparse
import functools
import importlib
import os
import re
from pathlib import Path

import pytest

from repro.cli import build_parser

REPO = Path(__file__).resolve().parents[1]
DOCS = ("README.md", "DESIGN.md", "EXPERIMENTS.md")

TICKED = re.compile(r"`([^`\n]+)`")
DOTTED = re.compile(r"repro(?:\.\w+)+")
PATH = re.compile(r"((?:[\w.-]+/)+[\w.-]*)(?::\d+(?:-\d+)?)?")
FILE_NAME = re.compile(r"[\w-]+\.\w+")
BARE_FILE = re.compile(
    r"([\w-]+\.(?:py|json|jsonl|md|toml|yml))(?::\d+(?:-\d+)?)?"
)
#: ``tango-repro lint`` and ``tango-repro {discover,mesh}`` alike.
VERB = re.compile(r"\btango-repro \{?([a-z][a-z,-]*)")
#: A command line's words after ``tango-repro``, up to a closing backtick
#: or a comment.
COMMAND = re.compile(r"\btango-repro ([a-z][^`#\n]*)")
FLAG = re.compile(r"--[a-z][a-z-]*")
#: Directories a fresh checkout does not have (or that hold no doc's file).
SKIPPED_DIRS = {".git", "__pycache__", ".hypothesis", ".pytest_cache",
                ".benchmarks", "out"}


def ticked(doc: str) -> list[str]:
    return TICKED.findall((REPO / doc).read_text(encoding="utf-8"))


def resolves(dotted: str) -> bool:
    parts = dotted.split(".")
    for split in range(len(parts), 0, -1):
        try:
            obj = importlib.import_module(".".join(parts[:split]))
        except ImportError:
            continue
        for attr in parts[split:]:
            if not hasattr(obj, attr):
                return False
            obj = getattr(obj, attr)
        return True
    return False


@functools.cache
def repo_file_names() -> frozenset[str]:
    names = set()
    for _, dirs, files in os.walk(REPO):
        dirs[:] = [d for d in dirs if d not in SKIPPED_DIRS]
        names.update(dirs, files)
    return frozenset(names)


def is_repo_path(path: str) -> bool:
    parts = path.rstrip("/").split("/")
    return FILE_NAME.fullmatch(parts[-1]) is not None or (REPO / parts[0]).is_dir()


def subparsers(parser: argparse.ArgumentParser) -> dict:
    """``parser``'s subcommand parsers by name (empty: it has none)."""
    for action in parser._actions:
        if isinstance(action, argparse._SubParsersAction):
            return action.choices
    return {}


def parser_verbs() -> set[str]:
    return set(subparsers(build_parser()))


def unknown_flags(text: str) -> list[str]:
    """``tango-repro <verb> [<subverb>] --flag`` lines of ``text`` whose
    flag the (sub)parser lacks."""
    verbs = subparsers(build_parser())
    unknown = []
    for command in COMMAND.findall(text):
        words = command.split()
        parser = verbs.get(words[0])
        if parser is None:  # not a verb: the verb test reports it
            continue
        sub = subparsers(parser)
        if len(words) > 1 and words[1] in sub:
            parser = sub[words[1]]
        unknown += [
            f"tango-repro {command.strip()}: {flag}"
            for flag in FLAG.findall(command)
            if flag not in parser._option_string_actions
        ]
    return unknown


@pytest.mark.parametrize("doc", DOCS)
def test_every_dotted_name_resolves(doc):
    names = {t for t in ticked(doc) if DOTTED.fullmatch(t)}
    assert names
    assert sorted(n for n in names if not resolves(n)) == []


@pytest.mark.parametrize("doc", DOCS)
def test_every_path_exists(doc):
    paths = {m.group(1) for t in ticked(doc) if (m := PATH.fullmatch(t))}
    paths = {p for p in paths if is_repo_path(p)}
    bare = {m.group(1) for t in ticked(doc) if (m := BARE_FILE.fullmatch(t))}
    assert paths and bare
    missing = {
        p
        for p in paths
        if not (REPO / p).exists() or SKIPPED_DIRS.intersection(p.split("/"))
    }
    assert sorted(missing) == []
    assert sorted(bare - repo_file_names()) == []


@pytest.mark.parametrize("doc", DOCS)
def test_every_cli_verb_is_a_parser_verb(doc):
    text = (REPO / doc).read_text(encoding="utf-8")
    verbs = {verb for found in VERB.findall(text) for verb in found.split(",")}
    assert verbs
    assert sorted(verbs - parser_verbs()) == []


@pytest.mark.parametrize("doc", DOCS)
def test_every_cli_flag_is_an_option_of_its_verb(doc):
    text = (REPO / doc).read_text(encoding="utf-8")
    assert FLAG.search(" ".join(COMMAND.findall(text)))
    assert unknown_flags(text) == []
