"""Run the command corpus in-process and record its digests.

Each `*.txt` file beside this script holds one `posetpaths` command line
per line (blank lines and `#` comments are skipped); kernel files named
by `--markov` live under `kernels/` and poset files named by `--file`
under `posets/`, relative to this directory. A
command's record is its line, exit code, stdout and stderr; a file's
digest is the sha256 of its records in order. `digests.json` keeps that
digest per file and, to name the first command whose output moved, a
16-hex-digit prefix of each record's own sha256.

Re-record after a deliberate output change (and list the changed files
in CHANGES.md):

    PYTHONPATH=src python tests/corpus/record.py
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import pathlib
import shlex

HERE = pathlib.Path(__file__).resolve().parent
DIGESTS = HERE / "digests.json"


def commands(name: str) -> list[str]:
    """The command lines of corpus file `name` (say, "group")."""
    lines = (HERE / f"{name}.txt").read_text(encoding="utf-8").splitlines()
    return [line.strip() for line in lines if line.strip() and not line.lstrip().startswith("#")]


def record(line: str) -> bytes:
    """One command's line, exit code, stdout and stderr, run through `main`
    in this directory."""
    from posetpaths.cli import main

    out, err = io.StringIO(), io.StringIO()
    cwd = os.getcwd()
    os.chdir(HERE)
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(shlex.split(line))
    finally:
        os.chdir(cwd)
    return "\0".join([line, str(code), out.getvalue(), err.getvalue(), ""]).encode("utf-8")


def digest(name: str) -> dict:
    """The file digest and each command's record prefix for corpus file `name`."""
    whole = hashlib.sha256()
    prefixes = []
    for line in commands(name):
        rec = record(line)
        whole.update(rec)
        prefixes.append(hashlib.sha256(rec).hexdigest()[:16])
    return {"sha256": whole.hexdigest(), "commands": prefixes}


def names() -> list[str]:
    return sorted(p.stem for p in HERE.glob("*.txt"))


if __name__ == "__main__":
    DIGESTS.write_text(json.dumps({name: digest(name) for name in names()}, indent=1) + "\n", encoding="utf-8")
    print(f"wrote {DIGESTS}")
