"""Guard for the benchmark's tracer, which lives outside the test suite.

`bench/spans.py` wraps library functions by rebinding (module,
attribute) names and fails at install time when one of them is gone.
These tests load that file read-only and check that every name it lists
still resolves, that the sampler and frequency spans still fire with
each trajectory sampled once per frequency op, that a uniform `measure
check` enumerates its numberings once, that the graph counts it reads
off `levels` and `up_edges` are the lattice's vertices and edges, and
that every import the library keeps only for the tracer (marked
`# noqa: F401`) is one it lists.
"""

from __future__ import annotations

import ast
import importlib.util
import pathlib
import tokenize

import pytest

from posetpaths import build_box_poset
from posetpaths.cli import main

from oracles import ideal_levels

_ROOT = pathlib.Path(__file__).resolve().parents[1]
_SPANS_PY = _ROOT / "bench" / "spans.py"
_spec = importlib.util.spec_from_file_location("bench_spans", _SPANS_PY)
spans = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(spans)

TRACED = [(module, attr) for module, attr, _ in spans.SPANS + spans.KERNELS] + [spans.CLOSURE]


@pytest.mark.parametrize("module,attr", TRACED, ids=[f"{m}.{a}" for m, a in TRACED])
def test_traced_name_resolves(module, attr):
    owner, name = spans._resolve(module, attr)  # the rule install() applies: name in vars(owner)
    assert callable(vars(owner)[name])


def _unused_imports():
    """(module, name) of every import in `src/posetpaths` marked `# noqa: F401`,
    on the imported name's own line or on the line its statement starts."""
    out = []
    for path in sorted((_ROOT / "src" / "posetpaths").glob("*.py")):
        with tokenize.open(path) as fh:
            marked = {
                tok.start[0]
                for tok in tokenize.generate_tokens(fh.readline)
                if tok.type == tokenize.COMMENT and "noqa: F401" in tok.string
            }
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                for alias in node.names:
                    if alias.lineno in marked or node.lineno in marked:
                        name = alias.asname or alias.name.split(".")[0]
                        out.append((f"posetpaths.{path.stem}", name))
    return out


def test_noqa_imports_are_traced_names():
    listed = {(module, attr) for module, attr, _ in spans.SPANS + spans.KERNELS}
    marked = _unused_imports()
    assert marked, "no `# noqa: F401` import found; the scan itself is broken"
    assert [pair for pair in marked if pair not in listed] == []


def _traced(capsys, *argvs, code=0):
    tracer = spans.Tracer()
    tracer.install()
    try:
        for op, argv in enumerate(argvs):
            tracer.op = op
            assert main(list(argv)) == code
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


def test_uniform_check_enumerates_once_and_builds_no_graph(capsys):
    # young 4,3,2,1 has 768 full numberings: enumerated once, and the CLI
    # builds no graph of its own (the enumeration's lattice is booked under
    # posets.enumerate, since the tracer wraps only cli.build_graph)
    tracer = _traced(capsys, ["measure", "check", "--young", "4,3,2,1", "--perturb", "1/1000"], code=1)
    assert tracer.counts["posets.numberings"] == 768
    assert tracer.counts.get("graded_graph.vertices", 0) == 0


def test_graph_counts_are_the_lattice_vertices_and_edges(capsys):
    # both ops build box 2,2,3's full-depth lattice once: graph reads only
    # its dims, the endpoint check derives its edges
    tracer = _traced(
        capsys,
        ["graph", "--box", "2,2,3"],
        ["measure", "check", "--endpoint", "11:0", "--box", "2,2,3"],
    )
    levels, edges, _ = ideal_levels(build_box_poset(3, (2, 2, 3)).poset, 11)
    assert tracer.counts["graded_graph.vertices"] == 2 * sum(len(level) for level in levels)
    assert tracer.counts["graded_graph.edges"] == 2 * sum(len(row) for level in edges for row in level)
