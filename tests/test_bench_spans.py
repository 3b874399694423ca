"""Guard for the benchmark's tracer, which lives outside the test suite.

`bench/spans.py` wraps library functions by rebinding (module,
attribute) names and fails at install time when one of them is gone.
These tests load that file read-only and check that every name it lists
still resolves, and that the sampler and frequency spans still fire
with each trajectory sampled once per frequency op.
"""

from __future__ import annotations

import importlib.util
import pathlib

import pytest

from posetpaths.cli import main

_SPANS_PY = pathlib.Path(__file__).resolve().parents[1] / "bench" / "spans.py"
_spec = importlib.util.spec_from_file_location("bench_spans", _SPANS_PY)
spans = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(spans)

TRACED = [(module, attr) for module, attr, _ in spans.SPANS + spans.KERNELS] + [spans.CLOSURE]


@pytest.mark.parametrize("module,attr", TRACED, ids=[f"{m}.{a}" for m, a in TRACED])
def test_traced_name_resolves(module, attr):
    owner, name = spans._resolve(module, attr)  # the rule install() applies: name in vars(owner)
    assert callable(vars(owner)[name])


def _traced(capsys, *argvs):
    tracer = spans.Tracer()
    tracer.install()
    try:
        for op, argv in enumerate(argvs):
            tracer.op = op
            assert main(list(argv)) == 0
            capsys.readouterr()
    finally:
        tracer.uninstall()
    return tracer


def test_sampler_spans_fire_and_trajectories_are_reused(capsys):
    hooks = ["--ideal", "hook:1,0", "--ideal", "hook:0,1"]
    tracer = _traced(
        capsys,
        ["measure", "freq", "--plancherel", *hooks, "--n", "30", "--replicas", "2", "--seed", "1"],
        ["compare", "--sampler", "rsk:0.7,0.3", "--sampler", "rsk:0.6,0.4", *hooks,
         "--n", "30", "--replicas", "2", "--seed", "1"],
        ["measure", "sample", "--plancherel", "--n", "10", "--seed", "1"],
        ["measure", "sample", "--rsk", "0.5,0.5", "--n", "10", "--seed", "1"],
    )
    names = {span[0] for span in tracer.spans}
    assert {"measures.frequency", "measures.plancherel", "measures.rsk"} <= names
    # 2 plancherel replicas, 2 replicas of each rsk spec, each sampled once for both ideals
    assert tracer.counts["measures.trajectories_sampled"] == 6
    assert len(tracer.trajectories) == 6
    assert tracer.counts["measures.plancherel_steps"] == 2 * 30 + 10
    assert tracer.counts["measures.rsk_steps"] == 4 * 30 + 10
