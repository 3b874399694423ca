"""Golden stdout for a fixed-seed subset of the sampler commands and demos.

The files under `golden/` hold the exact stdout (and the table below the
exit code) of every sampler kind through `measure sample`, `measure
freq`, `compare` and `measure check`, of `graph` in text and csv, of `group`
(exact and capped orders, csv, local classification), and of demos
01-05. A change that moves a seed stream or a float operation shows up
here byte for byte; such a change must regenerate the files on purpose
and say so.
"""

from __future__ import annotations

import pathlib
import runpy
import shlex

import pytest

from posetpaths.cli import main

GOLDEN = pathlib.Path(__file__).parent / "golden"
DEMOS = pathlib.Path(__file__).resolve().parents[1] / "demos"

CASES = {
    "sample_plancherel": ("measure sample --plancherel --n 40 --seed 3", 0),
    "sample_rsk": ("measure sample --rsk 0.5,0.3,0.2 --n 40 --seed 3", 0),
    "sample_rsk_long": ("measure sample --rsk 0.4,0.3,0.2,0.1 --n 400 --seed 5", 0),
    "sample_endpoint": ("measure sample --endpoint 6:0 --young 3,2,1 --n 6 --seed 3", 0),
    "sample_markov": ("measure sample --markov kernel.txt --young 2,1 --depth 3 --n 3 --seed 3", 0),
    "freq_plancherel": (
        "measure freq --plancherel --ideal hook:1,0 --ideal hook:0,1 --ideal full"
        " --n 60 --replicas 5 --seed 4", 0),
    "freq_rsk_ties": (
        "measure freq --rsk 0.5,0.5 --ideal hook:1,0 --ideal hook:1,1 --n 80 --replicas 6 --seed 4", 0),
    "freq_endpoint": (
        "measure freq --endpoint 6:0 --young 3,2,1 --ideal hook:1,0 --ideal hook:2,1 --ideal full"
        " --n 6 --replicas 10 --seed 4", 0),
    "freq_markov": (
        "measure freq --markov kernel.txt --young 2,1 --depth 3 --ideal hook:1,0 --ideal set:1,2"
        " --n 3 --replicas 7 --seed 4", 0),
    "compare_rsk": (
        "compare --sampler rsk:0.7,0.3 --sampler rsk:0.5,0.5 --ideal hook:1,0 --ideal hook:0,1"
        " --n 300 --replicas 6 --seed 9", 0),
    "compare_plancherel": (
        "compare --sampler plancherel --sampler plancherel --ideal hook:1,0 --ideal hook:2,2"
        " --n 100 --replicas 6 --seed 9", 0),
    "compare_endpoint": (
        "compare --sampler endpoint:3:0 --sampler endpoint:3:1 --box 3,3 --ideal hook:1,0"
        " --ideal hook:0,1 --n 3 --replicas 8 --seed 9", 0),
    "check_endpoint": ("measure check --endpoint 6:0 --young 3,2,1", 0),
    "check_markov": ("measure check --markov kernel.txt --young 2,1 --depth 3", 0),
    "check_uniform": ("measure check --young 3,2 --depth 6", 0),
    "check_perturb": ("measure check --endpoint 3:0 --young 2,1 --perturb 0.1", 1),
    "check_perturb_negative": ("measure check --young 2,1 --perturb 5", 1),
    "graph_box_2223": ("graph --box 2,2,2,3", 0),
    "graph_box_223_csv": ("graph --box 2,2,3 --format csv", 0),
    "graph_young_4321_csv_depth6": ("graph --young 4,3,2,1 --format csv --depth 6", 0),
    "graph_antichain_4": ("graph --antichain 4", 0),
    "group_antichain_6": ("group --antichain 6", 0),
    "group_young_33_csv": ("group --young 3,3 --format csv", 0),
    "group_young_4321_cap1000_local": ("group --young 4,3,2,1 --group-cap 1000 --local all", 0),
    "group_box_222_cap20000": ("group --box 2,2,2 --group-cap 20000", 0),
}


@pytest.mark.parametrize("name", sorted(CASES))
def test_golden_stdout(name, monkeypatch, capsys):
    argv, code = CASES[name]
    monkeypatch.chdir(GOLDEN)  # the kernel file is named relative to it, as echoed
    assert main(shlex.split(argv)) == code
    assert capsys.readouterr().out == (GOLDEN / f"{name}.out").read_text(encoding="utf-8")


@pytest.mark.parametrize("number", ["01", "02", "03", "04", "05"])
def test_demo_stdout(number, capsys):
    (script,) = DEMOS.glob(f"{number}_*.py")
    runpy.run_path(str(script), run_name="__main__")
    assert capsys.readouterr().out == (GOLDEN / f"demo_{number}.out").read_text(encoding="utf-8")
