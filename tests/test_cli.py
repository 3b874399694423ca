from __future__ import annotations

import tracemalloc
from fractions import Fraction

import pytest

from posetpaths import (
    build_antichain_poset,
    build_box_poset,
    build_chain_poset,
    build_young_poset,
    generate_group,
)
from posetpaths import cli
from posetpaths.cli import main

from oracles import broken_handle, brute_numberings, kernel_path_law, sigma_map

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


def test_poset_csv(capsys):
    code, out, err = run(capsys, "poset", "--young", "2,1", "--format", "csv")
    assert (code, err) == (0, "")
    assert out.splitlines() == [
        "# posetpaths poset", "# format=csv", "# poset=young=2,1",
        "elements,covers,incomparable_pairs", "4,3,1",
        "el 0", "el 1 1 1", "el 2 1 2", "el 3 2 1", "cov 0 1", "cov 1 2", "cov 1 3",
    ]


@pytest.mark.parametrize(
    "text,message",
    [
        ("el 0\nel 0\n", "line 2: duplicate element id 0"),
        ("el 0\nel 1\ncov 0\n", "line 3: cov takes two ids"),
        ("el 0\nedge 0 1\n", "line 2: unknown directive 'edge'"),
        ("el 0\nel x\n", "line 2: cannot parse 'el x'"),
    ],
    ids=["duplicate-id", "cov-arity", "unknown-directive", "unparsable"],
)
def test_poset_file_format_errors_exit_2(text, message, tmp_path, capsys):
    f = tmp_path / "p.txt"
    f.write_text(text, encoding="utf-8")
    assert run(capsys, "poset", "--file", str(f)) == (2, "", f"error: {message}\n")


@pytest.mark.parametrize(
    "argv,message",
    [
        (("paths", "--chain", "3", "--depth", "0"), "length must be in 1..3, got 0"),
        (("measure", "freq", "--endpoint", "3:0", "--ideal", "full"),
         "a poset source is required (--young/--box/--chain/--antichain/--file)"),
        (("measure", "check", "--chain", "3", "--perturb", "1/10"), "no fiber with two or more paths"),
        (("measure", "freq", "--plancherel", "--ideal", "full", "--replicas", "0"), "replicas must be >= 1"),
    ],
    ids=["depth-0", "no-poset", "no-fiber-of-two", "replicas-0"],
)
def test_input_errors_exit_2_with_one_error_line(argv, message, capsys):
    assert run(capsys, *argv) == (2, "", f"error: {message}\n")


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


def test_paths_list_spells_multi_digit_ids(capsys):
    # antichain 12 has ids up to 11; the root alone is the length-1 numbering
    w = build_antichain_poset(12)
    for length in (1, 2, 3):
        code, out, _ = run(capsys, "paths", "--antichain", "12", "--depth", str(length), "--list")
        assert code == 0
        body = [line for line in out.splitlines() if not line.startswith("#")]
        assert body[1:] == [",".join(map(str, seq)) for seq in brute_numberings(w.poset, length)], length


def test_graph_vertex_cap_exit_code(capsys):
    code, out, err = run(capsys, "graph", "--box", "3,3,3", "--vertex-cap", "100")
    assert code == 3
    assert "100 vertices" in err
    assert out == ""
    code, _, _ = run(capsys, "graph", "--box", "3,3,3", "--vertex-cap", "979")
    assert code == 0
    assert run(capsys, "graph", "--vertex-cap", "500", "--box", "3,3,3") == (
        3, "", "error: graph exceeds 500 vertices\n"
    )


def test_memory_exhaustion_exits_3_with_one_error_line(monkeypatch, capsys):
    def exhausted(args):
        raise MemoryError

    monkeypatch.setattr(cli, "build_parser", cli.build_parser.__wrapped__)  # reads cmd_group anew
    monkeypatch.setattr(cli, "cmd_group", exhausted)
    assert run(capsys, "group", "--box", "2,2,3", "--depth", "7") == (3, "", "error: out of memory\n")


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


def test_group_of_one_numbering_has_order_1(capsys):
    code, out, _ = run(capsys, "group", "--chain", "3", "--depth", "2")
    assert code == 0
    assert out.splitlines()[-4:] == ["paths: 1", "generators: 0", "order: 1 (diameter 0)", "relations: all hold"]


def test_group_local_young31(capsys):
    code, out, _ = run(capsys, "group", "--young", "3,1", "--depth", "4", "--local", "1")
    assert code == 0
    assert "local i=1: product_order=2 group_order=2" in out


def test_group_local_takes_all_or_an_integer(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["group", "--young", "3,1", "--local", "x"])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.err.splitlines()[-1] == (
        "posetpaths group: error: argument --local: must be 'all' or an integer, got 'x'"
    )
    assert captured.out == ""
    code, out, _ = run(capsys, "group", "--young", "3,1", "--local", "all")
    assert code == 0 and "# local=all" in out


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


def test_group_antichain_7_orders_5040_paths_without_listing_them(capsys):
    # listing the group held 5,040 permutations of 5,040 paths, about 200 MB
    tracemalloc.start()
    try:
        code, out, _ = run(capsys, "group", "--antichain", "7")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 0
    assert "order: 5040 (diameter 21)" in out.splitlines()
    assert peak < 20 * 2**20, peak


def test_poset_counts_incomparable_pairs_of_a_large_box(capsys):
    # box 15,15,15: C(3375, 2) pairs, of which 120^3 - 3375 are strictly comparable
    code, out, _ = run(capsys, "poset", "--box", "15,15,15")
    assert code == 0
    assert "incomparable_pairs: 3969000\n" in out


def test_group_reports_broken_relations(monkeypatch, capsys):
    monkeypatch.setattr(cli, "generate_group", lambda window, length, path_cap: broken_handle(generate_group(window, length)))
    code, out, err = run(capsys, "group", "--antichain", "4", "--group-cap", "1000")
    assert (code, err) == (1, "")
    assert out.splitlines()[-7:] == [
        "generators: 3",
        "order: cap-exceeded (1000)",
        "relations: VIOLATED",
        "  violation sigma^2 i=2 j=2 witness_path=3",
        "  violation (sigma_i sigma_j)^2 i=1 j=3 witness_path=0",
        "  violation (sigma_i sigma_{i+1})^6 i=1 j=2 witness_path=5",
        "  violation (sigma_i sigma_{i+1})^6 i=2 j=3 witness_path=2",
    ]
    code, out, err = run(capsys, "group", "--antichain", "4", "--group-cap", "1000", "--format", "csv")
    assert (code, err) == (1, "")
    assert out.splitlines()[-10:] == [
        "paths,,,24,",
        "generators,,,3,",
        "order,,,cap-exceeded:1000,",
        "relation_involution,,,fail,",
        "relation_commuting,,,fail,",
        "relation_braid6,,,fail,",
        "violation,2,2,sigma^2,3",
        "violation,1,3,(sigma_i sigma_j)^2,0",
        "violation,1,2,(sigma_i sigma_{i+1})^6,5",
        "violation,2,3,(sigma_i sigma_{i+1})^6,2",
    ]


@pytest.mark.parametrize(
    "argv,code,line",
    [
        (("paths", "--chain", "1500"), 0, "paths: 1"),
        (("measure", "check", "--chain", "1500"), 0, "central: yes"),
        (("measure", "check", "--endpoint", "1400:0", "--chain", "1500"), 0, "central: yes"),
        (("paths", "--antichain", "1200", "--path-cap", "10"), 3, "error: more than 10 numberings"),
    ],
)
def test_windows_deeper_than_the_recursion_limit(argv, code, line, capsys):
    got, out, err = run(capsys, *argv)
    assert got == code
    assert line in (out if code == 0 else err).splitlines()


def test_measure_check_zero_denominator_perturbation_exits_2(capsys):
    code, out, err = run(capsys, "measure", "check", "--young", "2,1", "--perturb", "1/0")
    assert (code, out) == (2, "")
    assert err == "error: --perturb 1/0: zero denominator\n"


@pytest.mark.parametrize("text", ["abc", "nan", "inf", "0.1.2", ""])
def test_measure_check_unreadable_perturbation_names_the_flag(text, capsys):
    # box 3,3,3 lists more than PATH_CAP numberings: the flag is read first
    for window in [("--young", "3,2"), ("--box", "3,3,3"), ("--box", "3,3,3", "--endpoint", "26:0")]:
        code, out, err = run(capsys, "measure", "check", *window, "--perturb", text)
        assert (code, out) == (2, "")
        assert err == f"error: --perturb {text}: not a rational number\n"


@pytest.mark.parametrize(
    "flag, value, window",
    [
        ("--perturb", "-1/3", ("--young", "2,1")),
        ("--perturb", "-5", ("--young", "2,1")),
        ("--perturb", "-.5", ("--endpoint", "3:0", "--young", "2,1")),
        ("--perturb", "-1/0", ("--young", "2,1")),
        ("--endpoint", "-1:0", ("--young", "3,2,1")),
        ("--endpoint", "-1", ("--young", "3,2,1")),
    ],
)
def test_a_negative_value_reads_the_same_as_its_equals_spelling(flag, value, window, capsys):
    # argparse alone took only -1 and -0.5 as values after a flag, so
    # "--perturb -1/3" and "--endpoint -1:0" exited 2 with "expected one argument"
    joined = run(capsys, "measure", "check", *window, f"{flag}={value}")
    assert run(capsys, "measure", "check", *window, flag, value) == joined
    assert "expected one argument" not in joined[2]


def test_a_flag_whose_value_is_missing_is_still_rejected(capsys):
    for argv in [("--perturb", "--young", "2,1"), ("--young", "3,2,1", "--endpoint", "--depth", "2")]:
        with pytest.raises(SystemExit) as info:
            main(["measure", "check", *argv])
        assert info.value.code == 2
        assert "expected one argument" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv", [("measure", "freq", "--ideal", "full", "--n", "1"), ("measure", "sample")], ids=["freq", "sample"]
)
def test_sampling_a_depth_0_kernel_exits_2_naming_it(argv, monkeypatch, capsys):
    from posetpaths import measures

    def no_sampling(*_):
        raise AssertionError("no random draw before the depth is checked")

    monkeypatch.setattr(measures.random, "Random", no_sampling)
    code, out, err = run(capsys, *argv, "--endpoint", "0:0", "--young", "2,1")
    assert (code, out) == (2, "")
    assert err == "error: endpoint:0:0 ends at the root: it has no step to sample\n"
    code, out, _ = run(capsys, "measure", "check", "--endpoint", "0:0", "--young", "2,1")
    assert code == 0
    assert "paths: 1" in out.splitlines() and "central: yes" in out.splitlines()


def test_compare_checks_every_sampler_steps_before_sampling(monkeypatch, capsys):
    # the second kernel stops at level 2: the first must not walk 1,000 paths first
    from posetpaths import measures

    calls = []
    sample_markov = measures.sample_markov

    def counted(*args):
        calls.append(args)
        return sample_markov(*args)

    monkeypatch.setattr(measures, "sample_markov", counted)
    code, out, err = run(
        capsys, "compare", "--young", "3,2,1", "--sampler", "endpoint:6:0", "--sampler", "endpoint:2:0",
        "--ideal", "full", "--n", "4", "--replicas", "1000",
    )
    assert (code, out, len(calls)) == (2, "", 0)
    assert err == "error: endpoint:2:0 supports 1..2 steps, asked for 4\n"


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


def _realized(monkeypatch, capsys, *argv):
    """Run `argv` and return its exit code and stdout, the sigma indices
    realized in full by the end of the run and by the time `generate_group`
    returned (the filled slots of each handle's generators), the reads of
    a generator at some paths, as (sigma index, path ids) in order, and the
    handles. A read at some paths fills no slot."""
    from posetpaths import symmetry

    real_generate, real_at = cli.generate_group, symmetry._Sigmas.at
    handles, at_return, reads = [], [], []

    def filled(handle):
        return [b + 1 for b, perm in enumerate(handle.generators._perms) if perm is not None]

    def generate_group(*args, **kwargs):
        handle = real_generate(*args, **kwargs)
        handles.append(handle)
        at_return.append(len(filled(handle)))
        return handle

    def at(self, b, ids):
        reads.append((range(1, len(self) + 1)[b], list(ids)))
        return real_at(self, b, ids)

    monkeypatch.setattr(cli, "generate_group", generate_group)
    monkeypatch.setattr(symmetry._Sigmas, "at", at)
    code, out, _ = run(capsys, *argv)
    return code, out, [i for h in handles for i in filled(h)], at_return, reads, handles


def test_a_perturbed_law_realizes_generators_up_to_the_first_that_moves_mass(monkeypatch, capsys):
    # the two paths the perturbation moves are the only ones off the common
    # mass: sigma_1..sigma_4 are read at them alone, and only sigma_4, the
    # first that moves mass, is realized in full for its witnesses
    code, out, realized, at_return, reads, (handle,) = _realized(
        monkeypatch, capsys, "measure", "check", "--young", "4,3,2,1", "--perturb", "1/1000"
    )
    assert code == 1
    assert "  witness: sigma_4 moves mass on path 0,1,2,3,4,5,6,7,8,9,10" in out.splitlines()
    assert realized == [4] and at_return == [0]
    moved = next(ids[:2] for ids in handle.fiber_ids if len(ids) >= 2)
    assert reads == [(i, moved) for i in (1, 2, 3, 4)]


def test_a_law_with_negative_mass_realizes_no_generator(monkeypatch, capsys):
    code, out, realized, at_return, reads, _ = _realized(
        monkeypatch, capsys, "measure", "check", "--young", "4,4,3,2", "--perturb", "1/1000"
    )
    assert code == 1
    assert any(line.startswith("perturbed_law: negative mass ") for line in out.splitlines())
    assert realized == [] and at_return == [0] and reads == []


@pytest.mark.parametrize("argv", [
    ("measure", "check", "--young", "4,3,2,1"),
    ("group", "--young", "4,3,2,1", "--group-cap", "1000", "--local", "all"),
])
def test_readers_of_every_generator_realize_each_once(argv, monkeypatch, capsys):
    # the group check realizes every generator; a uniform law has no path off
    # its common mass, so its check reads no generator and lists no fiber
    code, _, realized, at_return, reads, (handle,) = _realized(monkeypatch, capsys, *argv)
    assert code == 0
    assert realized == (list(range(1, 10)) if argv[0] == "group" else []) and at_return == [0] and reads == []
    if argv[0] == "measure":
        assert "fiber_ids" not in vars(handle)


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


@pytest.mark.parametrize("window", [("--endpoint", "10:0", "--young", "4,3,2,1"), ("--endpoint", "3:1", "--young", "3,2,1")])
def test_a_perturbed_kernel_law_groups_its_paths_into_fibers_once(window, monkeypatch, capsys):
    # the mass moves within the handle's fibers, kept to the law's paths,
    # and the centrality check reads the same fibers
    from posetpaths import measures, symmetry

    real, calls = symmetry._endpoint_fiber_ids, []

    def counted(paths):
        calls.append(len(paths))
        return real(paths)

    monkeypatch.setattr(symmetry, "_endpoint_fiber_ids", counted)
    monkeypatch.setattr(measures, "_endpoint_fiber_ids", counted)  # the name perturb_fiber reads
    code, out, _ = run(capsys, "measure", "check", *window, "--perturb", "1/1000")
    assert code == 1 and "central: NO" in out.splitlines()
    assert len(calls) == 1


@pytest.mark.parametrize("argv, line", [
    (("--young", "2,1", "--perturb", "5"), "negative mass -9/2 on path 0,1,3,2"),  # the path losing mass
    (("--young", "2,1", "--perturb=-1"), "negative mass -1/2 on path 0,1,2,3"),  # the path gaining it
    (("--endpoint", "3:1", "--young", "3,2,1", "--perturb", "3"), "negative mass -5/2 on path 0,1,4,2"),
])
def test_negative_mass_is_named_on_the_moved_path_before_any_generator_is_read(argv, line, monkeypatch, capsys):
    code, out, realized, at_return, reads, _ = _realized(monkeypatch, capsys, "measure", "check", *argv)
    assert code == 1
    assert [x for x in out.splitlines() if not x.startswith("#")] == [f"perturbed_law: {line}", "central: NO"]
    assert realized == [] and at_return == [0] and reads == []


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
    # one witness of each kind: two numberings of one endpoint fiber, swapped
    # by the printed sigma_i, lighter before heavier under the kernel's law
    (witness,) = [line.split() for line in out.splitlines() if line.startswith("  witness: ")]
    (fiber,) = [line.split() for line in out.splitlines() if line.startswith("  witness fiber: ")]
    i = int(witness[1].removeprefix("sigma_"))
    path, lo, hi = (tuple(map(int, text.split(","))) for text in (witness[-1], fiber[2], fiber[4]))
    poset = build_young_poset([2, 1]).poset
    assert {path, lo, hi} <= set(brute_numberings(poset, 4))
    assert sorted(lo) == sorted(hi)
    assert {path, sigma_map(poset, path, i)} == {lo, hi}
    rows = {(0, 0): ((1, 0, 1),), (1, 0): ((2, 0, Fraction(1, 3)), (3, 1, Fraction(2, 3))),
            (2, 0): ((3, 0, 1),), (2, 1): ((2, 0, 1),)}
    law = kernel_path_law(rows, 3)
    assert law.get(lo, 0) < law.get(hi, 0)


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
    # the top of box 2,2,2,2 has 1,680,384 paths: the forward pass checks the
    # kernel without listing them, and only a perturbed law, which needs the
    # list, meets the path cap, before any path is built
    code, out, err = run(capsys, "measure", "check", "--endpoint", "15:0", "--box", "2,2,2,2")
    assert (code, err) == (0, "")
    assert {"paths: 1680384", "central: yes"} <= set(out.splitlines())
    code, out, err = run(
        capsys, "measure", "check", "--endpoint", "15:0", "--box", "2,2,2,2", "--perturb", "1/1000"
    )
    assert code == 3
    assert "more than 100000 paths under endpoint:15:0" in err
    assert out == ""


def test_measure_check_kernel_lists_no_path(monkeypatch, capsys):
    # the box 3,3,3 top kernel is central by construction and has
    # 6,405,442,434,150 paths: a check that lists them or their group fails here
    def refuse(*args, **kwargs):
        raise AssertionError("the kernel check listed paths")

    monkeypatch.setattr(cli, "path_measure", refuse)
    monkeypatch.setattr(cli, "generate_group", refuse)
    code, out, err = run(capsys, "measure", "check", "--endpoint", "26:0", "--box", "3,3,3")
    assert (code, err) == (0, "")
    assert {"paths: 6405442434150", "central: yes"} <= set(out.splitlines())


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


@pytest.mark.parametrize(
    "text,message",
    [
        # a later row for the same vertex used to replace the earlier one
        ("row 0:0 1:1\nrow 1:0 2:1/2 3:1/2\nrow 1:0 2:1\nrow 2:0 3:1\nrow 2:1 2:1\n",
         "line 3: row 1:0 repeats line 2"),
        # an element listed twice used to give a path law summing to 1/2
        ("row 0:0 1:1/2 1:1/2\nrow 1:0 2:1/2 3:1/2\nrow 2:0 3:1\nrow 2:1 2:1\n",
         "row (0, 0) lists an element twice"),
    ],
    ids=["row", "element"],
)
def test_markov_kernel_repeat_exit_2(text, message, tmp_path, capsys):
    kernel = tmp_path / "k.txt"
    kernel.write_text(text, encoding="utf-8")
    code, out, err = run(capsys, "measure", "check", "--markov", str(kernel), "--young", "2,1", "--depth", "3")
    assert (code, out, err) == (2, "", f"error: {message}\n")


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


@pytest.mark.parametrize(
    "command",
    [
        ("measure", "freq", "--rsk", "0.5,0.5"),
        ("measure", "freq", "--plancherel"),
        ("compare", "--sampler", "plancherel", "--sampler", "rsk:0.5,0.5"),
    ],
    ids=["rsk", "plancherel", "compare"],
)
def test_growth_sampler_rejects_a_set_ideal_before_sampling(command, monkeypatch, capsys):
    from posetpaths import measures

    def no_sampling(*args):
        raise AssertionError("sampled before the ideals were checked")

    monkeypatch.setattr(measures, "sample_plancherel", no_sampling)
    monkeypatch.setattr(measures, "sample_rsk_thoma", no_sampling)
    code, out, err = run(capsys, *command, "--ideal", "hook:1,0", "--ideal", "set:1", "--n", "2", "--replicas", "2")
    assert (code, out, err) == (2, "", "error: finite-set ideals are window-bound; growth samplers have no ids\n")


@pytest.mark.parametrize(
    "ideal,message",
    [
        # young 2,1: id 1 is cell (1,1), id 2 is (1,2) and id 3 is (2,1)
        ("set:2", "set:2 is not downward closed on young[2,1]: 2 in, lower cover 1 out"),
        ("set:1,3,9", "set:1,3,9 names ids outside young[2,1] (0..3): 9"),
        ("set:-1", "set:-1 names ids outside young[2,1] (0..3): -1"),
    ],
)
@pytest.mark.parametrize(
    "command",
    [
        ("measure", "freq", "--endpoint", "2:0"),
        ("compare", "--sampler", "plancherel", "--sampler", "endpoint:3:0"),
    ],
    ids=["freq", "compare"],
)
def test_window_sampler_rejects_a_set_that_is_no_ideal_of_the_window(ideal, message, command, monkeypatch, capsys):
    from posetpaths import measures

    def no_sampling(*args):
        raise AssertionError("sampled before the ideals were checked")

    monkeypatch.setattr(measures, "sample_markov", no_sampling)
    monkeypatch.setattr(measures, "sample_plancherel", no_sampling)
    code, out, err = run(
        capsys, *command, "--young", "2,1", "--ideal", "hook:1,0", "--ideal", ideal, "--n", "2", "--replicas", "2"
    )
    assert (code, out, err) == (2, "", f"error: {message}\n")


@pytest.mark.parametrize(
    "argv,message",
    [
        # growth samplers read cells (row, col): a spec over another axis count fails at (1,1)
        (("measure", "freq", "--plancherel", "--ideal", "rays:1", "--n", "100000", "--replicas", "1"),
         "rays ideal over 1 axes queried with (1, 1)"),
        (("compare", "--sampler", "plancherel", "--sampler", "rsk:0.5,0.5", "--ideal", "hook:1,0",
          "--ideal", "rays:1,2,3"), "rays ideal over 3 axes queried with (1, 1)"),
        (("measure", "freq", "--endpoint", "3:0", "--antichain", "4", "--ideal", "hook:1,0"),
         "coordinate-free element id 1 queried against hook:1,0"),
        (("measure", "freq", "--endpoint", "3:0", "--box", "2,2,2", "--ideal", "hook:1,0"),
         "hook ideal needs 2 coordinates, got (1, 1, 2)"),
        # 2 at (1,2) lies in the first row, its lower cover 1 at (5,5) does not
        (("measure", "freq", "--endpoint", "2:0", "--file", "f.txt", "--ideal", "hook:1,0"),
         "hook:1,0 is not downward closed on file: 2 in, lower cover 1 out"),
    ],
    ids=["plancherel-axes", "compare-axes", "coordinate-free", "box-axes", "file-not-closed"],
)
def test_coordinate_ideal_faults_exit_2_before_sampling(argv, message, tmp_path, monkeypatch, capsys):
    from posetpaths import measures

    def no_sampling(*args):
        raise AssertionError("sampled before the ideals were checked")

    for name in ("sample_markov", "sample_plancherel", "sample_rsk_thoma"):
        monkeypatch.setattr(measures, name, no_sampling)
    (tmp_path / "f.txt").write_text("el 0 1 1\nel 1 5 5\nel 2 1 2\ncov 0 1\ncov 1 2\n", encoding="utf-8")
    monkeypatch.chdir(tmp_path)
    assert run(capsys, *argv) == (2, "", f"error: {message}\n")


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


def run_child(source: str):
    """Run `source` in a fresh interpreter that imports this checkout's posetpaths."""
    import os
    import pathlib
    import subprocess
    import sys

    import posetpaths

    src = str(pathlib.Path(posetpaths.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    return subprocess.run([sys.executable, "-c", source], capture_output=True, text=True, env=env, check=False)


def test_cli_runs_on_the_standard_library_alone():
    import pathlib
    import re
    import sys

    # a fresh interpreter, since this one holds whatever other tests imported;
    # it lists the top-level modules the import and one command loaded
    proc = run_child(
        "import sys\n"
        "before = set(sys.modules)\n"
        "from posetpaths.cli import main\n"
        "code = main(['graph', '--box', '2,2'])\n"
        "print(' '.join(sorted({m.split('.')[0] for m in set(sys.modules) - before})), file=sys.stderr)\n"
        "sys.exit(code)\n"
    )
    assert proc.returncode == 0, proc.stderr
    loaded = proc.stderr.split()
    assert "posetpaths" in loaded
    assert [m for m in loaded if m != "posetpaths" and m not in sys.stdlib_module_names] == []
    pyproject = pathlib.Path(__file__).resolve().parents[1] / "pyproject.toml"
    assert re.search(r"^dependencies = \[\]$", pyproject.read_text(encoding="utf-8"), re.M)


OUT_CASES = [
    (("poset", "--young", "2,1"), 0),
    (("graph", "--box", "2,3", "--format", "csv"), 0),
    (("paths", "--young", "2,1", "--list"), 0),
    (("group", "--young", "3,1", "--local", "all"), 0),
    (("measure", "check", "--endpoint", "3:0", "--young", "2,1"), 0),
    (("measure", "check", "--young", "2,1", "--perturb", "5"), 1),
    (("measure", "freq", "--rsk", "0.5,0.5", "--ideal", "hook:1,0", "--n", "20", "--replicas", "3"), 0),
    (("measure", "sample", "--plancherel", "--n", "12", "--seed", "2"), 0),
    (("compare", "--sampler", "plancherel", "--sampler", "rsk:0.6,0.4", "--ideal", "hook:1,0",
      "--n", "30", "--replicas", "3"), 0),
]
OUT_IDS = ["poset", "graph", "paths", "group", "check", "check-perturb-5", "freq", "sample", "compare"]


@pytest.mark.parametrize("argv,expected", OUT_CASES, ids=OUT_IDS)
def test_out_file_holds_the_stdout_bytes(argv, expected, tmp_path, capsys):
    code, out, err = run(capsys, *argv)
    assert (code, err) == (expected, "")
    target = tmp_path / "run.out"
    code, out2, err = run(capsys, *argv, "--out", str(target))
    assert (code, out2, err) == (expected, "", "")
    assert target.read_bytes() == out.encode("utf-8")


@pytest.mark.parametrize("argv", [argv for argv, _ in OUT_CASES], ids=OUT_IDS)
def test_unwritable_out_exits_2_with_one_error_line(argv, tmp_path, capsys):
    code, out, err = run(capsys, *argv, "--out", str(tmp_path / "missing" / "run.out"))
    assert code == 2 and out == ""
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "Traceback" not in err


# Calls whose arguments could leak into the next call through a reused parser:
# append lists, per-subcommand defaults, and a usage error between good calls.
REUSE_SEQUENCE = [
    ("measure", "freq", "--endpoint", "3:0", "--young", "2,1", "--ideal", "hook:1,0", "--ideal", "set:1",
     "--n", "3", "--replicas", "3"),
    ("measure", "freq", "--endpoint", "3:0", "--young", "2,1", "--ideal", "full", "--n", "3", "--replicas", "3"),
    ("graph", "--box", "2,2", "--depth", "1"),
    ("graph", "--box", "2,2"),
    ("poset", "--young", "2,1"),
    ("measure", "check", "--young", "3,2", "--depth", "6", "--tol", "0"),
    ("group", "--young", "3,1", "--local", "all"),
    ("group", "--young", "3,1", "--local", "x"),
    ("group", "--young", "3,1"),
    ("compare", "--sampler", "plancherel", "--sampler", "rsk:0.6,0.4", "--ideal", "hook:1,0",
     "--n", "30", "--replicas", "3"),
    ("compare", "--sampler", "plancherel", "--sampler", "rsk:0.6,0.4", "--sampler", "rsk:0.5,0.5",
     "--ideal", "hook:1,0", "--n", "30", "--replicas", "3"),
]


def test_reused_parser_answers_each_call_as_a_fresh_parser_does(monkeypatch, capsys):
    from posetpaths import cli

    def results():
        out = []
        for argv in REUSE_SEQUENCE:
            try:
                code = main(list(argv))
            except SystemExit as exc:
                code = exc.code
            captured = capsys.readouterr()
            out.append((code, captured.out, captured.err))
        return out

    parser = cli.build_parser()
    reused = results()
    assert cli.build_parser() is parser
    assert [code for code, _, _ in reused] == [0, 0, 0, 0, 0, 2, 0, 2, 0, 0, 0]
    monkeypatch.setattr(cli, "build_parser", cli.build_parser.__wrapped__)
    assert cli.build_parser() is not cli.build_parser()
    assert results() == reused


def test_import_builds_no_parser_and_main_builds_one():
    # counted in a fresh interpreter: the top-level parser is the one named
    # "posetpaths", each subcommand's parser carries a longer name
    proc = run_child(
        "import argparse, contextlib, io\n"
        "built = []\n"
        "init = argparse.ArgumentParser.__init__\n"
        "def counting(self, *args, **kwargs):\n"
        "    built.append(kwargs.get('prog'))\n"
        "    init(self, *args, **kwargs)\n"
        "argparse.ArgumentParser.__init__ = counting\n"
        "from posetpaths.cli import main\n"
        "print(built.count('posetpaths'))\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    codes = [main(['graph', '--chain', '2']), main(['poset', '--young', '2,1'])]\n"
        "print(built.count('posetpaths'), codes)\n"
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == ["0", "1 [0, 0]"]


def _readme_commands():
    """(argv, exit code) for each command of the README's command-line
    block: 1 for a line marked `# exits 1`, else 0. A trailing backslash
    continues a command on the next line."""
    import pathlib
    import shlex

    text = (pathlib.Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    block = text.split("## Command line", 1)[1].split("```sh\n", 1)[1].split("```", 1)[0]
    out = []
    for line in block.replace("\\\n", " ").splitlines():
        argv = shlex.split(line, comments=True)
        if argv:
            assert argv[0] == "posetpaths", line
            out.append((argv[1:], 1 if "# exits 1" in line else 0))
    return out


README_COMMANDS = _readme_commands()


@pytest.mark.parametrize("argv,expected", README_COMMANDS, ids=[" ".join(argv) for argv, _ in README_COMMANDS])
def test_readme_command_exit_code(argv, expected, tmp_path, monkeypatch, capsys):
    import pathlib
    import shutil

    from posetpaths import serialize_poset

    (tmp_path / "p.txt").write_text(serialize_poset(build_young_poset([2, 1])), encoding="utf-8")
    shutil.copy(pathlib.Path(__file__).resolve().parent / "golden" / "kernel.txt", tmp_path)
    monkeypatch.chdir(tmp_path)
    code, _, err = run(capsys, *argv)
    assert code == expected, err


@pytest.mark.parametrize(
    "argv,line",
    [
        (("graph", "--box", "2,,2"), "error: --box 2,,2: empty field"),
        (("graph", "--box", "2,2,"), "error: --box 2,2,: empty field"),
        (("poset", "--young", "2,,1"), "error: --young 2,,1: empty field"),
    ],
)
def test_empty_fields_in_integer_lists_exit_2(argv, line, capsys):
    # an empty field used to be dropped: box 2,,2 built the 2-d box 2,2
    assert run(capsys, *argv) == (2, "", line + "\n")


@pytest.mark.parametrize(
    "argv,line",
    [
        (("poset", "--young", "2,x"), "error: --young 2,x: 'x' is not an integer"),
        (("graph", "--box", "2,1.5"), "error: --box 2,1.5: '1.5' is not an integer"),
        (("measure", "sample", "--rsk", "0.5,x"), "error: --rsk 0.5,x: 'x' is not a number"),
        (("measure", "sample", "--rsk", ","), "error: --rsk ,: empty field"),
        (
            ("compare", "--sampler", "rsk:0.5,x", "--sampler", "plancherel", "--ideal", "full"),
            "error: --sampler rsk:0.5,x: 'x' is not a number",
        ),
    ],
)
def test_unreadable_numbers_name_the_flag_and_exit_2(argv, line, capsys):
    assert run(capsys, *argv) == (2, "", line + "\n")


def test_group_local_index_is_checked_before_relations_and_order(monkeypatch, capsys):
    def unreachable(*args, **kwargs):
        raise AssertionError("ran before --local was checked")

    monkeypatch.setattr(cli, "verify_relations", unreachable)
    monkeypatch.setattr(cli, "group_order", unreachable)
    expected = "error: --local 5: the local indices at length 7 are 1..4\n"
    assert run(capsys, "group", "--young", "3,3", "--local", "5") == (2, "", expected)
    expected = "error: --local 1: the local indices at length 3 are none\n"
    assert run(capsys, "group", "--young", "2,1", "--depth", "3", "--local", "1") == (2, "", expected)


def test_capped_antichain_walk_stays_small(capsys):
    # the first descent used to build rows of 2,000, 1,999, ... entries,
    # about 1.2 GB, before the cap fired
    tracemalloc.start()
    try:
        code, out, err = run(capsys, "paths", "--antichain", "2000", "--path-cap", "10")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (code, out, err) == (3, "", "error: more than 10 numberings\n")
    assert peak < 30 * 2**20, peak


@pytest.mark.parametrize("argv,limit_mb", [(("--antichain", "400"), 50), (("--box", "2,2,2,2"), 1)])
def test_a_wide_window_exits_on_the_path_cap_before_listing(capsys, argv, limit_mb):
    # the default cap fires before the first level whose dims pass it is
    # built: level 2 for antichain 400 (159,600 numberings of length 3),
    # level 10 for box 2,2,2,2 (140,928); listing numberings until the cap
    # fired took about 310 and 17 MB
    tracemalloc.start()
    try:
        result = run(capsys, "paths", *argv)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert result == (3, "", "error: more than 100000 numberings\n")
    assert peak < limit_mb * 2**20, peak


def test_plancherel_frequency_of_one_replica_has_zero_stderr(capsys):
    argv = ("measure", "freq", "--plancherel", "--ideal", "hook:1,0", "--n", "10", "--replicas", "1")
    code, out, _ = run(capsys, *argv)
    assert code == 0
    assert out.splitlines()[-1] == 'plancherel,"hook:1,0",10,1,0.4,0.0,0'


@pytest.mark.parametrize(
    "argv,files,line",
    [
        (("measure", "sample", "--plancherel", "--n", "0"), {}, "error: n_steps must be >= 1"),
        (("poset", "--chain", "0"), {}, "error: chain length must be >= 1"),
        (("poset", "--antichain", "0"), {}, "error: antichain size must be >= 1"),
        (("poset", "--file", "p.txt"), {"p.txt": "el 0\nel 1\ncov 0 1\ncov 1 1\n"}, "error: self-cover on id 1"),
        (
            ("measure", "freq", "--plancherel", "--ideal", "rays:1,-1"),
            {},
            "error: rays need one count >= 0 per axis",
        ),
        (
            ("measure", "check", "--markov", "k.txt", "--young", "2,1"),
            {"k.txt": "row 0:0 1:x\n"},
            "error: line 1: bad entry '1:x'",
        ),
    ],
)
def test_input_errors_exit_2_with_one_line(argv, files, line, tmp_path, monkeypatch, capsys):
    for name, text in files.items():
        (tmp_path / name).write_text(text, encoding="utf-8")
    monkeypatch.chdir(tmp_path)
    assert run(capsys, *argv) == (2, "", line + "\n")
