"""The output contract: every command of `corpus/*.txt` keeps its stdout,
stderr and exit code, byte for byte, as recorded in `corpus/digests.json`.

The commands run in-process through `main`. A file whose digest moved
names its first command whose record differs. A deliberate output change
re-records the digests with `corpus/record.py` and says so in CHANGES.md.
"""

from __future__ import annotations

import hashlib
import importlib.util
import json
import pathlib
import time

import pytest

_RECORD_PY = pathlib.Path(__file__).parent / "corpus" / "record.py"
_spec = importlib.util.spec_from_file_location("corpus_record", _RECORD_PY)
record = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(record)

EXPECTED = json.loads(record.DIGESTS.read_text(encoding="utf-8"))


def test_the_corpus_is_recorded_file_by_file():
    assert sorted(EXPECTED) == record.names() == ["compare", "graph", "group", "measure", "paths", "poset"]
    assert sum(len(record.commands(name)) for name in EXPECTED) >= 300


@pytest.fixture(scope="module")
def run():
    """Every corpus command's record, file by file, and the seconds the whole run took."""
    start = time.perf_counter()
    records = {name: [record.record(line) for line in record.commands(name)] for name in sorted(EXPECTED)}
    return records, time.perf_counter() - start


@pytest.mark.parametrize("name", sorted(EXPECTED))
def test_corpus_output_is_unchanged(name, run):
    lines, records = record.commands(name), run[0][name]
    expected = EXPECTED[name]
    assert len(lines) == len(expected["commands"]), f"{name}.txt changed: re-record its digests"
    for line, rec, prefix in zip(lines, records, expected["commands"]):
        assert hashlib.sha256(rec).hexdigest()[:16] == prefix, f"output moved: posetpaths {line}"
    assert hashlib.sha256(b"".join(records)).hexdigest() == expected["sha256"]


def test_the_corpus_runs_in_under_five_seconds(run):
    assert run[1] < 5.0
