from __future__ import annotations

import pytest

from posetpaths import (
    build_antichain_poset,
    build_box_poset,
    build_chain_poset,
    build_young_poset,
)
from posetpaths.cli import main

from oracles import brute_numberings

CORPUS = [
    (("--young", "2,1"), build_young_poset([2, 1])),
    (("--young", "3,1"), build_young_poset([3, 1])),
    (("--young", "3,2"), build_young_poset([3, 2])),
    (("--young", "2,2,1"), build_young_poset([2, 2, 1])),
    (("--box", "3,3"), build_box_poset(2, (3, 3))),
    (("--box", "2,2,2"), build_box_poset(3, (2, 2, 2))),
    (("--chain", "6"), build_chain_poset(6)),
    (("--antichain", "4"), build_antichain_poset(4)),
]


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_poset_young(capsys):
    code, out, _ = run(capsys, "poset", "--young", "2,1")
    assert code == 0
    assert "elements: 4" in out
    assert "covers: 3" in out
    assert "incomparable_pairs: 1" in out
    assert "# poset=young=2,1" in out


def test_poset_box_d3(capsys):
    code, out, _ = run(capsys, "poset", "--box", "2,2,2")
    assert code == 0
    assert "elements: 8" in out


def test_poset_file_round_trip(tmp_path, capsys):
    code, out, _ = run(capsys, "poset", "--young", "2,1")
    body = "\n".join(
        line for line in out.splitlines() if line.startswith(("el ", "cov "))
    )
    f = tmp_path / "p.txt"
    f.write_text(body + "\n", encoding="utf-8")
    code, out2, _ = run(capsys, "poset", "--file", str(f))
    assert code == 0
    assert body in out2


def test_poset_rejects_bad_partition(capsys):
    code, _, err = run(capsys, "poset", "--young", "1,2")
    assert code == 2
    assert "error" in err


def test_graph_young_32(capsys):
    code, out, _ = run(capsys, "graph", "--young", "3,2", "--depth", "5", "--format", "csv")
    assert code == 0
    lines = out.splitlines()
    assert "level,index,ideal,dim" in lines
    assert lines[-1].startswith("5,0,") and lines[-1].endswith(",5")


def test_graph_text_mode(capsys):
    code, out, _ = run(capsys, "graph", "--chain", "4")
    assert code == 0
    assert "paths_to_top_level: 1" in out


def test_paths_young_list(capsys):
    code, out, _ = run(capsys, "paths", "--young", "2,1", "--depth", "3", "--list")
    assert code == 0
    assert "paths: 2" in out
    assert "0,1,2" in out and "0,1,3" in out


def test_paths_chain_full(capsys):
    code, out, _ = run(capsys, "paths", "--chain", "5", "--depth", "5")
    assert code == 0
    assert "paths: 1" in out


def test_paths_cap_exit_code(capsys):
    code, _, err = run(capsys, "paths", "--antichain", "6", "--path-cap", "5")
    assert code == 3
    assert "error" in err


def test_paths_list_matches_brute_numberings_on_corpus(capsys):
    for flag, w in CORPUS:
        for length in range(1, w.poset.n + 1):
            code, out, _ = run(capsys, "paths", *flag, "--depth", str(length), "--list")
            assert code == 0
            body = [line for line in out.splitlines() if not line.startswith("#")]
            expected = brute_numberings(w.poset, length)
            assert body[0] == f"paths: {len(expected)}"
            assert body[1:] == [",".join(map(str, seq)) for seq in expected], (flag, length)


def test_graph_vertex_cap_exit_code(capsys):
    code, out, err = run(capsys, "graph", "--box", "3,3,3", "--vertex-cap", "100")
    assert code == 3
    assert "100 vertices" in err
    assert out == ""
    code, _, _ = run(capsys, "graph", "--box", "3,3,3", "--vertex-cap", "979")
    assert code == 0


@pytest.mark.parametrize(
    "argv,flag",
    [
        (["graph", "--box", "2,2", "--vertex-cap", "0", "--depth", "0"], "--vertex-cap"),
        (["graph", "--box", "2,2", "--vertex-cap", "-3"], "--vertex-cap"),
        (["paths", "--young", "2,1", "--path-cap", "-1"], "--path-cap"),
        (["paths", "--young", "2,1", "--path-cap", "0"], "--path-cap"),
        (["group", "--young", "2,1", "--path-cap", "0"], "--path-cap"),
        (["group", "--young", "2,1", "--group-cap", "-2"], "--group-cap"),
        (["group", "--young", "2,1", "--group-cap", "0"], "--group-cap"),
        (["group", "--young", "2,1", "--group-cap", "many"], "--group-cap"),
    ],
)
def test_non_positive_caps_exit_2(argv, flag, capsys):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert f"argument {flag}: must be an integer of at least 1" in captured.err
    assert captured.out == ""


def test_cap_of_one_is_accepted(capsys):
    code, out, _ = run(capsys, "graph", "--box", "2,2", "--vertex-cap", "1", "--depth", "0")
    assert code == 0
    assert "level 0: vertices=1 dims=[1]" in out
    assert run(capsys, "graph", "--box", "2,2", "--vertex-cap", "1", "--depth", "1")[0] == 3
    assert run(capsys, "group", "--young", "2,1", "--group-cap", "1")[1].count("cap-exceeded (1)") == 1


def test_measure_check_path_cap_exit_code(capsys):
    # box 2,2,2,2 has 1,680,384 numberings, past the default cap of 100,000
    code, out, err = run(capsys, "measure", "check", "--box", "2,2,2,2")
    assert code == 3
    assert "more than 100000 numberings" in err
    assert out == ""


def test_group_antichain(capsys):
    code, out, _ = run(capsys, "group", "--antichain", "3", "--depth", "4")
    assert code == 0
    assert "order: 6" in out
    assert "relations: all hold" in out


def test_group_chain_trivial(capsys):
    code, out, _ = run(capsys, "group", "--chain", "6", "--depth", "6")
    assert code == 0
    assert "order: 1" in out


def test_group_local_young31(capsys):
    code, out, _ = run(capsys, "group", "--young", "3,1", "--depth", "4", "--local", "1")
    assert code == 0
    assert "local i=1: product_order=2 group_order=2" in out


def test_group_csv(capsys):
    code, out, _ = run(capsys, "group", "--young", "2,1", "--format", "csv", "--local", "all")
    assert code == 0
    assert "relation_involution,,,pass," in out
    assert "relation_braid6,,,pass," in out
    assert any(line.startswith("local,") for line in out.splitlines())


def test_group_hook_note_reports_orders(capsys):
    code, out, _ = run(capsys, "group", "--young", "3,1")
    assert code == 0
    assert "hook_note: cells=4 order=6 factorial(cells)=24 factorial(cells-1)=6" in out
    # a capped order reads as on the order line, not as None
    code, out, _ = run(capsys, "group", "--young", "10,1", "--group-cap", "1000")
    assert code == 0
    assert "order: cap-exceeded (1000)" in out
    assert "hook_note: cells=11 order=cap-exceeded factorial(cells)=39916800 factorial(cells-1)=3628800" in out


def test_measure_check_endpoint_central(capsys):
    code, out, _ = run(capsys, "measure", "check", "--endpoint", "3:0", "--young", "2,1")
    assert code == 0
    assert "central: yes" in out
    assert "exact_arithmetic: True" in out


def test_measure_check_perturbed_fails(capsys):
    code, out, _ = run(
        capsys, "measure", "check", "--endpoint", "3:0", "--young", "2,1", "--perturb", "0.1"
    )
    assert code == 1
    assert "central: NO" in out
    assert "witness: sigma_" in out


def test_measure_check_over_large_perturbation_exits_1(capsys):
    # young 2,1 has two full numberings of mass 1/2 each; the golden case
    # check_perturb_negative pins the stdout of --perturb 5
    code, _, err = run(capsys, "measure", "check", "--young", "2,1", "--perturb", "5")
    assert code == 1 and err == ""
    # moving all of one path's mass leaves a zero, which is still a law
    code, out, _ = run(capsys, "measure", "check", "--young", "2,1", "--perturb", "1/2")
    assert code == 1
    assert "negative" not in out
    assert "generator_invariance: fail" in out


def test_compare_builds_the_window_graph_once(monkeypatch, capsys):
    from posetpaths import cli

    calls = {"build_graph": 0, "build_box_poset": 0}

    def counted(name):
        original = getattr(cli, name)

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return original(*args, **kwargs)
        return wrapper

    for name in calls:
        monkeypatch.setattr(cli, name, counted(name))
    code, _, _ = run(
        capsys, "compare", "--sampler", "endpoint:3:0", "--sampler", "endpoint:3:2", "--box", "3,3",
        "--ideal", "hook:1,0", "--n", "3", "--replicas", "2",
    )
    assert code == 0
    assert calls == {"build_graph": 1, "build_box_poset": 1}


def test_measure_check_uniform(capsys):
    code, out, _ = run(capsys, "measure", "check", "--young", "3,2", "--depth", "6")
    assert code == 0
    assert "central: yes" in out


def test_measure_check_has_no_tolerance(capsys):
    # laws are exact, so there is nothing for a tolerance to loosen
    with pytest.raises(SystemExit) as exc:
        main(["measure", "check", "--young", "3,2", "--depth", "6", "--tol", "0"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --tol 0" in capsys.readouterr().err


def test_measure_check_markov_file(tmp_path, capsys):
    kernel = tmp_path / "k.txt"
    kernel.write_text(
        "row 0:0 1:1\nrow 1:0 2:1/2 3:1/2\nrow 2:0 3:1\nrow 2:1 2:1\n",
        encoding="utf-8",
    )
    code, out, _ = run(
        capsys, "measure", "check", "--markov", str(kernel), "--young", "2,1", "--depth", "3"
    )
    assert code == 0
    assert "central: yes" in out
    biased = tmp_path / "b.txt"
    biased.write_text(
        "row 0:0 1:1\nrow 1:0 2:1/3 3:2/3\nrow 2:0 3:1\nrow 2:1 2:1\n",
        encoding="utf-8",
    )
    code, out, _ = run(
        capsys, "measure", "check", "--markov", str(biased), "--young", "2,1", "--depth", "3"
    )
    assert code == 1
    assert "central: NO" in out


def test_measure_check_markov_rejects_bad_row(tmp_path, capsys):
    kernel = tmp_path / "k.txt"
    kernel.write_text("row 0:0 1:1/2\n", encoding="utf-8")
    code, _, err = run(
        capsys, "measure", "check", "--markov", str(kernel), "--young", "2,1", "--depth", "3"
    )
    assert code == 2
    assert "error" in err


@pytest.mark.parametrize(
    "endpoint,message",
    [
        ("3:-1", "no vertex 3:-1 in the ideal lattice of young[2,1]"),
        ("3:7", "no vertex 3:7 in the ideal lattice of young[2,1]"),
        ("3", "bad endpoint '3': expected LEVEL:INDEX"),
    ],
)
def test_measure_check_bad_endpoint_exit_2(endpoint, message, capsys):
    code, out, err = run(capsys, "measure", "check", "--endpoint", endpoint, "--young", "2,1")
    assert code == 2
    assert message in err
    assert out == ""
    code, _, err = run(
        capsys, "compare", "--sampler", f"endpoint:{endpoint}", "--sampler", "endpoint:3:0",
        "--young", "2,1", "--ideal", "full",
    )
    assert code == 2
    assert message in err


def test_measure_check_endpoint_path_cap_exit_3(capsys):
    # the top of box 2,2,2,2 has 1,680,384 paths; the cap stops the walk before any is built
    code, out, err = run(capsys, "measure", "check", "--endpoint", "15:0", "--box", "2,2,2,2")
    assert code == 3
    assert "more than 100000 paths under endpoint:15:0" in err
    assert out == ""


def test_measure_check_rejects_two_kernels(tmp_path, capsys):
    kernel = tmp_path / "k.txt"
    kernel.write_text("row 0:0 1:1\n", encoding="utf-8")
    with pytest.raises(SystemExit) as exc:
        main(["measure", "check", "--endpoint", "1:0", "--markov", str(kernel), "--young", "2,1"])
    assert exc.value.code == 2
    assert "argument --markov: not allowed with argument --endpoint" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv,message",
    [
        (["freq", "--ideal", "full"], "one of the arguments --plancherel --rsk --endpoint --markov is required"),
        (["sample", "--plancherel", "--rsk", "0.5,0.5"], "argument --rsk: not allowed with argument --plancherel"),
    ],
)
def test_measure_sampler_flags_choose_exactly_one(argv, message, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["measure", *argv])
    assert exc.value.code == 2
    assert message in capsys.readouterr().err


def test_markov_kernel_missing_row_exit_2(tmp_path, capsys):
    kernel = tmp_path / "k.txt"
    kernel.write_text("row 0:0 1:1\nrow 1:0 2:1/2 3:1/2\nrow 2:0 3:1\n", encoding="utf-8")
    for sub in (["check"], ["sample", "--n", "3"]):
        code, out, err = run(
            capsys, "measure", *sub, "--markov", str(kernel), "--young", "2,1", "--depth", "3"
        )
        assert code == 2
        assert "line 2: element 3 leads to 2:1, which has no row" in err
        assert out == ""


def test_measure_freq_rsk_single_letter(capsys):
    code, out, _ = run(
        capsys, "measure", "freq", "--rsk", "1.0", "--ideal", "hook:1,0",
        "--n", "40", "--replicas", "4", "--seed", "1",
    )
    assert code == 0
    assert "sampler,ideal,n,replicas,estimate,stderr,seed" in out
    assert '"hook:1,0",40,4,1.0,0.0,1' in out


def test_measure_freq_multiple_ideals(capsys):
    code, out, _ = run(
        capsys, "measure", "freq", "--plancherel",
        "--ideal", "hook:1,0", "--ideal", "full",
        "--n", "60", "--replicas", "4", "--seed", "2",
    )
    assert code == 0
    rows = [l for l in out.splitlines() if l.startswith("plancherel")]
    assert len(rows) == 2
    assert rows[1].split(",")[2:] == ["60", "4", "1.0", "0.0", "2"]


def test_measure_freq_endpoint_sampler(capsys):
    code, out, _ = run(
        capsys, "measure", "freq", "--endpoint", "6:0", "--box", "3,3",
        "--ideal", "hook:1,0", "--n", "6", "--replicas", "8", "--seed", "3",
    )
    assert code == 0
    assert "endpoint:6:0" in out


def test_measure_freq_byte_identical_runs(tmp_path, capsys):
    argv = [
        "measure", "freq", "--plancherel", "--ideal", "hook:1,0",
        "--n", "80", "--replicas", "6", "--seed", "11",
    ]
    a = tmp_path / "a.csv"
    b = tmp_path / "b.csv"
    assert main(argv + ["--out", str(a)]) == 0
    assert main(argv + ["--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_measure_sample_plancherel(capsys):
    code, out, _ = run(capsys, "measure", "sample", "--plancherel", "--n", "5", "--seed", "4")
    assert code == 0
    assert "step,row,col" in out
    assert out.splitlines()[-5].endswith("1,1,1")


@pytest.mark.parametrize(
    "argv",
    [
        ["measure", "sample", "--plancherel", "--n", "1000000000"],
        ["measure", "sample", "--rsk", "0.5,0.5", "--n", "10000001"],
        ["measure", "freq", "--plancherel", "--ideal", "full", "--n", "1000000", "--replicas", "11"],
        ["compare", "--sampler", "plancherel", "--sampler", "plancherel", "--ideal", "full",
         "--n", "100001", "--replicas", "100"],
    ],
)
def test_growth_step_cap_exit_code(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == 3
    assert "step cap of 10000000" in err
    assert "step,row,col" not in out


def test_measure_sample_markov_ids(capsys):
    code, out, _ = run(
        capsys, "measure", "sample", "--endpoint", "3:0", "--young", "2,1",
        "--n", "3", "--seed", "5",
    )
    assert code == 0
    last = out.splitlines()[-1]
    assert last.startswith("0,1,")


def test_compare_rsk_alphas(capsys):
    code, out, _ = run(
        capsys, "compare", "--sampler", "rsk:0.7,0.3", "--sampler", "rsk:0.6,0.4",
        "--ideal", "hook:1,0", "--n", "800", "--replicas", "12", "--seed", "9",
    )
    assert code == 0
    assert ",distinguished" in out


def test_compare_same_spec_indistinguishable(capsys):
    code, out, _ = run(
        capsys, "compare", "--sampler", "plancherel", "--sampler", "plancherel",
        "--ideal", "hook:1,0", "--n", "200", "--replicas", "12", "--seed", "9",
    )
    assert code == 0
    assert ",indistinguishable" in out


@pytest.mark.parametrize(
    "argv,message",
    [
        (["measure", "sample", "--rsk", "nan"], "alpha entries must be finite"),
        (["measure", "sample", "--rsk", "0.5,nan"], "alpha entries must be finite"),
        (["compare", "--sampler", "rsk:0.7,0.3", "--sampler", "rsk:0.6,0.4", "--ideal", "hook:1,0",
          "--n", "5000", "--replicas", "3", "--seed", "1", "--threshold", "nan"], "threshold must be"),
        (["compare", "--sampler", "rsk:0.7,0.3", "--sampler", "rsk:0.6,0.4", "--ideal", "hook:1,0",
          "--threshold", "-1"], "threshold must be"),
    ],
)
def test_non_finite_or_negative_inputs_exit_2(argv, message, capsys):
    code, out, err = run(capsys, *argv)
    assert code == 2
    assert message in err
    assert out == ""


def test_compare_single_replica_exit_2(capsys):
    code, out, err = run(
        capsys, "compare", "--sampler", "plancherel", "--sampler", "plancherel",
        "--ideal", "hook:1,0", "--n", "100", "--replicas", "1",
    )
    assert code == 2
    assert "at least 2 replicas" in err
    assert out == ""


def test_unknown_sampler_exit_2(capsys):
    code, _, err = run(
        capsys, "compare", "--sampler", "bogus", "--sampler", "plancherel",
        "--ideal", "full",
    )
    assert code == 2


def test_entry_point_installed():
    import shutil
    import subprocess

    exe = shutil.which("posetpaths")
    if exe is None:
        pytest.skip("console script not on PATH")
    proc = subprocess.run(
        [exe, "poset", "--young", "1"], capture_output=True, text=True, check=False
    )
    assert proc.returncode == 0
    assert "elements: 2" in proc.stdout


def test_cli_runs_on_the_standard_library_alone():
    import os
    import pathlib
    import re
    import subprocess
    import sys

    import posetpaths

    # a fresh interpreter, since this one holds whatever other tests imported;
    # it lists the top-level modules the import and one command loaded
    child = (
        "import sys\n"
        "before = set(sys.modules)\n"
        "from posetpaths.cli import main\n"
        "code = main(['graph', '--box', '2,2'])\n"
        "print(' '.join(sorted({m.split('.')[0] for m in set(sys.modules) - before})), file=sys.stderr)\n"
        "sys.exit(code)\n"
    )
    src = str(pathlib.Path(posetpaths.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-c", child], capture_output=True, text=True, env=env, check=False)
    assert proc.returncode == 0, proc.stderr
    loaded = proc.stderr.split()
    assert "posetpaths" in loaded
    assert [m for m in loaded if m != "posetpaths" and m not in sys.stdlib_module_names] == []
    pyproject = pathlib.Path(__file__).resolve().parents[1] / "pyproject.toml"
    assert re.search(r"^dependencies = \[\]$", pyproject.read_text(encoding="utf-8"), re.M)
