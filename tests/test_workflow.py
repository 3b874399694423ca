"""The CI workflow file must parse as YAML, and every step's `run` must be a
string: a plain scalar holding `: ` is read as a mapping and the step is
dropped or the file rejected."""

from __future__ import annotations

import pathlib

import pytest

WORKFLOW = pathlib.Path(__file__).resolve().parents[1] / ".github" / "workflows" / "tests.yml"


def test_workflow_parses_and_every_run_is_a_string():
    yaml = pytest.importorskip("yaml")
    doc = yaml.safe_load(WORKFLOW.read_text(encoding="utf-8"))
    steps = [step for job in doc["jobs"].values() for step in job["steps"]]
    runs = [step["run"] for step in steps if "run" in step]
    assert runs, "no step runs a command"
    for run in runs:
        assert isinstance(run, str), run
    assert all("uses" in step or "run" in step for step in steps)
