"""Acceptance suite: one test per criterion, one printed verdict line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the verdict lines;
every tolerance is fixed here, nothing is calibrated at runtime.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from fractions import Fraction

from posetpaths import (
    HookIdeal,
    PlancherelYoung,
    RSKThoma,
    build_antichain_poset,
    build_box_poset,
    build_chain_poset,
    build_graph,
    build_young_poset,
    compare_frequency_profiles,
    classify_local,
    dimension,
    endpoint_fibers,
    endpoint_measure,
    enumerate_numberings,
    estimate_frequency,
    generate_group,
    group_order,
    is_central,
    local_indices,
    orbit,
    path_measure,
    perturb_fiber,
    verify_relations,
)
from posetpaths.cli import main
from posetpaths.symmetry import ALLOWED_ORBIT_TAGS
from posetpaths.young import tableau_count

from oracles import brute_numberings, brute_orbit, brute_symmetry_group_order, partitions_of


def corpus():
    return [
        build_young_poset([2, 1]),
        build_young_poset([3, 1]),
        build_young_poset([3, 2]),
        build_young_poset([2, 2, 1]),
        build_box_poset(2, (3, 3)),
        build_box_poset(3, (2, 2, 2)),
        build_chain_poset(6),
        build_antichain_poset(4),
    ]


@contextmanager
def criterion(number: int, name: str):
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {number:>2} {name}: FAIL")
        raise
    print(f"ACCEPTANCE {number:>2} {name}: PASS")


def test_criterion_01_relation_suite():
    with criterion(1, "generator relation suite on the corpus"):
        t0 = time.perf_counter()
        for w in corpus():
            handle = generate_group(w, w.poset.n)
            report = verify_relations(handle)
            assert report.ok, (w.describe(), report)
        elapsed = time.perf_counter() - t0
        assert elapsed < 10.0, f"relation suite took {elapsed:.1f}s"


def test_criterion_02_local_subgroup_bounds():
    with criterion(2, "local subgroup orders and orbit tags"):
        for w in corpus():
            handle = generate_group(w, w.poset.n)
            for i in local_indices(handle):
                rep = classify_local(handle, i)
                assert rep.product_order in (1, 2, 3, 6), (w.describe(), i, rep)
                assert rep.group_order in (1, 2, 4, 6, 12), (w.describe(), i, rep)
                for _, tag in rep.orbit_types:
                    assert tag in ALLOWED_ORBIT_TAGS, (w.describe(), i, tag)


def test_criterion_03_dimension_cross_check():
    with criterion(3, "dimensions equal brute-force path counts"):
        for w in corpus():
            full = w.poset.n - 1
            g = build_graph(w, full)
            for length in range(1, full + 2):
                counts: dict[frozenset, int] = {}
                for seq in brute_numberings(w.poset, length):
                    key = frozenset(seq)
                    counts[key] = counts.get(key, 0) + 1
                for i in range(len(g.levels[length - 1])):
                    v = g.vertex(length - 1, i)
                    assert g.dims[length - 1][v.index] == counts.get(
                        frozenset(v.ideal), 0
                    ), (w.describe(), v)
        g = build_graph(build_young_poset([3, 2]), 5)
        assert dimension(g, g.vertex(5, 0)) == 5


def test_criterion_04_branching_identity():
    with criterion(4, "branching identity up to size 12, exact"):
        from posetpaths.young import additions

        t0 = time.perf_counter()
        for n in range(0, 13):
            for lam in partitions_of(n):
                lhs = sum(tableau_count(mu) for mu, _ in additions(lam))
                assert lhs == (n + 1) * tableau_count(lam), lam
        elapsed = time.perf_counter() - t0
        assert elapsed < 30.0, f"branching identity took {elapsed:.1f}s"


def test_criterion_05_centrality_exact():
    with criterion(5, "endpoint kernels central, perturbation rejected"):
        for w in corpus():
            depth = min(6, w.poset.n - 1)
            g = build_graph(w, depth)
            for i in range(len(g.levels[depth])):
                v = g.vertex(depth, i)
                law = path_measure(endpoint_measure(g, v))
                report = is_central(generate_group(w, depth + 1), law)
                assert report.exact and report.central, (w.describe(), v)
        g = build_graph(build_young_poset([2, 1]), 3)
        law = path_measure(endpoint_measure(g, g.vertex(3, 0)))
        bad = perturb_fiber(law, Fraction(1, 10))
        report = is_central(generate_group(g.window, 4), bad)
        assert not report.central
        assert report.invariance_witnesses, "a witness generator must be named"
        witness_i, _ = report.invariance_witnesses[0]
        assert witness_i in range(1, 3)


def test_criterion_06_fiber_transitivity():
    with criterion(6, "orbits equal endpoint fibers at full depth"):
        for w in corpus():
            paths = enumerate_numberings(w, w.poset.n)
            fibers = endpoint_fibers(paths)
            assert len(fibers) == 1  # full depth: single endpoint
            for phi in paths:
                got = set(orbit(phi, w))
                assert got == set(paths), (w.describe(), phi)
                assert got == brute_orbit(w.poset, phi)


def test_criterion_07_plancherel_zero_frequency():
    with criterion(7, "Plancherel frequency small on single rows/columns"):
        t0 = time.perf_counter()
        row, col = estimate_frequency(PlancherelYoung(), [HookIdeal(1, 0), HookIdeal(0, 1)], 2500, 100, 7)
        elapsed = time.perf_counter() - t0
        assert row.estimate <= 0.10, row
        assert col.estimate <= 0.10, col
        assert elapsed < 60.0, f"plancherel frequency runs took {elapsed:.1f}s"


def test_criterion_08_thoma_identification():
    with criterion(8, "row-insertion frequencies identify the parameters"):
        (rep,) = estimate_frequency(RSKThoma((0.7, 0.3)), [HookIdeal(1, 0)], 5000, 100, 7)
        assert 0.65 <= rep.estimate <= 0.75, rep
        table = compare_frequency_profiles(
            [RSKThoma((0.7, 0.3)), RSKThoma((0.6, 0.4))],
            [HookIdeal(1, 0)],
            n_steps=5000,
            replicas=100,
            seed=7,
        )
        (pair,) = table.pairs
        assert pair.distinguished
        assert pair.separations[0][1] >= 3.0


def test_criterion_09_byte_identical_outputs(tmp_path):
    with criterion(9, "identical seeds give byte-identical CSV"):
        freq_argv = [
            "measure", "freq", "--plancherel",
            "--ideal", "hook:1,0", "--ideal", "hook:0,1",
            "--n", "300", "--replicas", "20", "--seed", "13",
        ]
        a, b = tmp_path / "f1.csv", tmp_path / "f2.csv"
        assert main(freq_argv + ["--out", str(a)]) == 0
        assert main(freq_argv + ["--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()
        cmp_argv = [
            "compare", "--sampler", "rsk:0.7,0.3", "--sampler", "rsk:0.6,0.4",
            "--ideal", "hook:1,0", "--n", "400", "--replicas", "10", "--seed", "5",
        ]
        c, d = tmp_path / "c1.csv", tmp_path / "c2.csv"
        assert main(cmp_argv + ["--out", str(c)]) == 0
        assert main(cmp_argv + ["--out", str(d)]) == 0
        assert c.read_bytes() == d.read_bytes()


def test_criterion_10_hook_diagram_group_orders(tmp_path, capsys):
    with criterion(10, "hook-diagram group orders reported and oracle-exact"):
        # fixtures recorded from the first verified run of the raw closure
        fixtures = {(3, 1): (3, 6), (4, 1): (4, 24), (5, 1): (5, 120)}
        for lam, (n_paths, order) in fixtures.items():
            w = build_young_poset(lam)
            handle = generate_group(w, w.poset.n)
            stats = group_order(handle)
            assert handle.n_paths == n_paths, lam
            assert stats.order == order, lam
            assert (
                brute_symmetry_group_order(w.poset, list(handle.paths))
                == order
            )
            code = main(["group", "--young", ",".join(map(str, lam))])
            out = capsys.readouterr().out
            assert code == 0
            assert f"paths: {n_paths}" in out
            assert f"order: {order}" in out
            assert f"order={order}" in out and "hook_note" in out
