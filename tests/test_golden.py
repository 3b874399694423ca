"""Golden stdout for a fixed-seed subset of the sampler commands.

The files under `golden/` hold the exact stdout (and the table below the
exit code) of every sampler kind through `measure sample`, `measure
freq`, `compare` and `measure check`. A change that moves a seed stream
or a float operation shows up here byte for byte; such a change must
regenerate the files on purpose and say so.
"""

from __future__ import annotations

import pathlib
import shlex

import pytest

from posetpaths.cli import main

GOLDEN = pathlib.Path(__file__).parent / "golden"

CASES = {
    "sample_plancherel": ("measure sample --plancherel --n 40 --seed 3", 0),
    "sample_rsk": ("measure sample --rsk 0.5,0.3,0.2 --n 40 --seed 3", 0),
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
    "check_uniform": ("measure check --uniform --young 3,2 --depth 6", 0),
    "check_perturb": ("measure check --endpoint 3:0 --young 2,1 --perturb 0.1", 1),
}


@pytest.mark.parametrize("name", sorted(CASES))
def test_golden_stdout(name, monkeypatch, capsys):
    argv, code = CASES[name]
    monkeypatch.chdir(GOLDEN)  # the kernel file is named relative to it, as echoed
    assert main(shlex.split(argv)) == code
    assert capsys.readouterr().out == (GOLDEN / f"{name}.out").read_text(encoding="utf-8")
