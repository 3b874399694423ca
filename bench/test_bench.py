"""Self-tests of the benchmark: oracle answers on small known cases, the
value checks on hand-made outputs, exact repetition of count metrics
across two traced runs, and refusal to run without the program.

    python3 -m pytest -q bench/test_bench.py
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import oracle  # noqa: E402
import workloads  # noqa: E402
from spans import COUNTS  # noqa: E402


def test_hook_length_counts():
    assert oracle.hook_length_count((2, 1)) == 2
    assert oracle.hook_length_count((3, 3)) == 5
    assert oracle.hook_length_count((4, 3, 2, 1)) == 768
    assert oracle.hook_length_count((3, 2, 1)) == 16


def test_ideal_levels_small_box_and_staircase():
    levels = oracle.ideal_levels(oracle.box_poset((2, 2)))
    assert [len(lvl) for lvl in levels] == [1, 2, 1, 1]
    assert levels[1] == [((0, 1), 1), ((0, 2), 1)]
    assert levels[-1] == [((0, 1, 2, 3), 2)]
    # 2x2x2 box: 48 standard tableaux
    assert oracle.ideal_levels(oracle.box_poset((2, 2, 2)))[-1][0][1] == 48
    # the staircase's top dimension agrees with the hook-length formula
    stair = oracle.ideal_levels(oracle.young_poset((4, 3, 2, 1)))
    assert stair[-1][0][1] == oracle.hook_length_count((4, 3, 2, 1))
    assert sum(len(lvl) for lvl in oracle.ideal_levels(oracle.young_poset((3, 2, 1)))) == 14  # Catalan(4)


def test_linear_extensions_and_sigma():
    paths = oracle.linear_extensions(oracle.antichain_poset(3))
    assert len(paths) == 6 and paths == sorted(paths)
    box = oracle.box_poset((2, 2, 2))
    ext = oracle.linear_extensions(box)
    assert len(ext) == 48
    for perm in oracle.sigma_perms(box, ext).values():
        assert all(perm[perm[x]] == x for x in range(len(perm)))  # involutions


def test_local_classes():
    # on the 3-antichain the pair (sigma_1, sigma_2) acts regularly: one S3 orbit of size 6
    assert oracle.local_classes(oracle.antichain_poset(3), oracle.linear_extensions(oracle.antichain_poset(3))) == {
        1: (3, 6, ["6:S3-class"])
    }
    # on a chain every sigma is trivial
    chain = oracle.Poset(4, [(0, 1), (1, 2), (2, 3)])
    assert oracle.local_classes(chain, oracle.linear_extensions(chain)) == {1: (1, 1, ["1:trivial"])}


def test_growth_validation():
    assert oracle.growth_cells_valid([(1, 1), (1, 2), (2, 1), (2, 2)])
    assert not oracle.growth_cells_valid([(1, 1), (2, 1), (2, 2)])  # overhangs row 1
    assert not oracle.growth_cells_valid([(1, 1), (3, 1)])  # skips a row
    assert not oracle.growth_cells_valid([(1, 1), (2, 1), (3, 1)], max_rows=2)


def test_checks_accept_values_and_reject_wrong_ones():
    central = workloads._check_central(768, central=True)
    good = "# header\npaths: 768\nexact_arithmetic: True\ngenerator_invariance: pass\n" \
           "fiber_uniformity: pass\ntype: added later\ncentral: yes\n"
    central(good)  # an extra output line is not a failure
    with pytest.raises(workloads.CheckFailed):
        central(good.replace("central: yes", "central: NO"))
    sample = workloads._check_sample(3, max_rows=None)
    sample("step,row,col\n1,1,1\n2,1,2\n3,2,1\n")
    with pytest.raises(workloads.CheckFailed):
        sample("step,row,col\n1,1,1\n2,2,2\n3,2,1\n")
    graph = workloads._check_graph_text(oracle.ideal_levels(oracle.box_poset((2, 2))))
    text = "level 0: vertices=1 dims=[1]\nlevel 1: vertices=2 dims=[1 1]\nlevel 2: vertices=1 dims=[2]\n" \
           "level 3: vertices=1 dims=[2]\npaths_to_top_level: 2\n"
    graph(text)
    with pytest.raises(workloads.CheckFailed):
        graph(text.replace("dims=[1 1]", "dims=[1 2]"))


def test_round_mix_is_seeded_and_complete():
    import random

    a = workloads.round_ops("growth", random.Random(5))
    b = workloads.round_ops("growth", random.Random(5))
    assert [argv for _, argv in a] == [argv for _, argv in b]
    assert len(a) == sum(k.weight for k in workloads.MIXES["growth"])


def _run(args, cwd=ROOT):
    return subprocess.run(
        [sys.executable, "bench/run.py", *args], cwd=cwd, capture_output=True, text=True, timeout=600
    )


def _declared(section):
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return {m["name"]: m["unit"] for m in json.load(fh)[section]}


def _result(args):
    proc = _run(args)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    return result


def test_timed_run_prints_every_end_to_end_metric():
    result = _result(["--workload", "lattice", "--seed", "11", "--seconds", "1", "--trace", "0"])
    assert {k: v["unit"] for k, v in result["metrics"].items()} == _declared("end_to_end")
    assert all(v["value"] > 0 for v in result["metrics"].values())


# layers each workload bypasses: their time metrics must read 0
BYPASSED = {
    "lattice": ("symmetry.", "measures."),
    "numberings": ("measures.sampler_s", "young.", "ideals."),
    "growth": ("graded_graph.", "symmetry."),
}


@pytest.mark.parametrize("workload", sorted(workloads.MIXES))
def test_traced_counts_repeat_exactly(workload):
    results = [
        _result(["--workload", workload, "--seed", "11", "--seconds", "1", "--trace", "1"]) for _ in range(2)
    ]
    assert {k: v["unit"] for k, v in results[0]["metrics"].items()} == _declared("per_layer")
    counts = [{k: r["metrics"][k]["value"] for k in [*COUNTS, "cli.out_bytes"]} for r in results]
    assert counts[0] == counts[1]
    bypassed = {k: v["value"] for k, v in results[0]["metrics"].items()
                if k.startswith(BYPASSED[workload]) and k.endswith("_s")}
    assert bypassed and not any(bypassed.values()), bypassed


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copytree(HERE, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    proc = _run(["--workload", "lattice", "--seed", "1", "--seconds", "1", "--trace", "0"], cwd=tmp_path)
    assert proc.returncode != 0
    assert "correct" not in proc.stdout
