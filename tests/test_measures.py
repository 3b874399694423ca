from __future__ import annotations

import dataclasses
import itertools
import math
import pathlib
import random
import tracemalloc
from fractions import Fraction
from math import factorial

import pytest

from posetpaths import (
    CapExceeded,
    FullIdeal,
    HookIdeal,
    Thoma,
    build_antichain_poset,
    build_box_poset,
    build_chain_poset,
    build_graph,
    build_young_poset,
    compare_frequency_profiles,
    dimension,
    endpoint_measure,
    estimate_frequency,
    generate_group,
    growth_to_numbering,
    is_central,
    kernel_centrality,
    parse_ideal,
    parse_poset,
    parse_markov_kernel,
    path_measure,
    perturb_fiber,
    plancherel_transition,
    sample_markov,
    sample_plancherel,
    sample_rsk_thoma,
    uniform_path_measure,
)
from posetpaths import measures
from posetpaths.graded_graph import LevelVertex
from posetpaths.ideals import member_coords
from posetpaths.measures import ExplicitMarkov, thoma_word
from posetpaths.posets import PATH_CAP
from posetpaths.young import GrowthPath, row_insert, tableau_count

from oracles import (
    brute_fibers,
    brute_numberings,
    central_witnesses,
    first_conflict,
    growth_shapes,
    ideal_levels,
    kernel_path_law,
    partitions_of,
    sigma_map,
)

CORPUS = [
    build_young_poset([2, 1]),
    build_young_poset([3, 1]),
    build_young_poset([3, 2]),
    build_young_poset([2, 2, 1]),
    build_box_poset(2, (3, 3)),
    build_box_poset(3, (2, 2, 2)),
    build_chain_poset(6),
    build_antichain_poset(4),
]


# --- endpoint kernels ----------------------------------------------------


def test_chain_endpoint_all_transitions_one():
    g = build_graph(build_chain_poset(5), 4)
    m = endpoint_measure(g, g.vertex(4, 0))
    for row in m.rows.values():
        assert [p for _, _, p in row] == [Fraction(1)]


def test_young_21_endpoint_splits_evenly():
    g = build_graph(build_young_poset([2, 1]), 3)
    m = endpoint_measure(g, g.vertex(3, 0))
    law = path_measure(m)
    assert set(law.values()) == {Fraction(1, 2)}
    assert len(law) == 2


def test_endpoint_rows_sum_to_one_exactly():
    # every vertex v of every corpus window, at full depth and at half of it: the terms
    # are the reduced oracle pairs (dim(w -> v), dim(u -> v)), the rows the same values as
    # Fractions, and the path law is uniform at 1 / dim(v)
    for w in CORPUS:
        for depth in (w.poset.n - 1, (w.poset.n - 1) // 2):
            g = build_graph(w, depth)
            _, edges, dims = ideal_levels(w.poset, depth)
            for level in range(depth + 1):
                numberings = brute_numberings(w.poset, level + 1)
                for i in range(len(g.levels[level])):
                    v = g.vertex(level, i)
                    m = endpoint_measure(g, v)
                    below = _paths_up_to(edges, level, i)
                    rows = {(k, u): tuple((e, j, Fraction(below[k + 1, j], count)) for e, j in edges[k][u]
                                          if (k + 1, j) in below)
                            for (k, u), count in below.items() if k < level}
                    assert m.terms == {key: tuple((e, j, p.numerator, p.denominator) for e, j, p in row)
                                       for key, row in rows.items()}, (w.describe(), depth, level, i)
                    assert m.rows == rows
                    for row in m.rows.values():
                        assert sum(p for _, _, p in row) == 1
                        assert all(isinstance(p, Fraction) for _, _, p in row)
                    paths = [path for path in numberings if tuple(sorted(path)) == v.ideal]
                    assert len(paths) == dims[level][i]
                    assert path_measure(m) == dict.fromkeys(paths, Fraction(1, dims[level][i]))


def test_kernel_terms_are_the_positive_entries_of_its_rows_as_integers():
    # the walks read `terms`; `rows` stays the Fractions as given, zeros kept
    g = build_graph(build_young_poset([3, 2]), 5)
    kernels = [endpoint_measure(g, g.vertex(5, 0))]
    row = ((2, 0, Fraction(0)), (4, 1, 1))  # a zero entry and a bare int
    kernels.append(ExplicitMarkov(g, {(0, 0): ((1, 0, Fraction(1)),), (1, 0): row}, name="zero", depth=2))
    for m in kernels:
        assert m.terms.keys() == m.rows.keys()
        for key, row in m.rows.items():
            assert m.terms[key] == tuple((e, j, p.numerator, p.denominator) for e, j, p in row if p)
            assert all(type(n) is int and type(d) is int for _, _, n, d in m.terms[key])
    assert kernels[1].rows[(1, 0)] == row
    assert path_measure(kernels[1]) == {(0, 1, 4): Fraction(1)}


def test_endpoint_path_measure_is_uniform_on_fiber():
    g = build_graph(build_box_poset(2, (3, 3)), 6)
    for i in range(len(g.levels[6])):
        v = g.vertex(6, i)
        law = path_measure(endpoint_measure(g, v))
        d = dimension(g, v)
        assert len(law) == d
        assert set(law.values()) == {Fraction(1, d)}
        assert sum(law.values()) == 1


# --- centrality ----------------------------------------------------------


def test_uniform_measure_is_central():
    handle = generate_group(build_young_poset([3, 2]), 6)
    report = is_central(handle, uniform_path_measure(handle))
    assert report.central and report.exact


def test_exact_routes_honour_the_path_cap():
    w = build_box_poset(3, (2, 2, 2))  # 48 full numberings
    handle = generate_group(w, 8, path_cap=48)
    assert is_central(handle, uniform_path_measure(handle)).central
    with pytest.raises(CapExceeded):
        generate_group(w, 8, path_cap=47)


def test_endpoint_measures_are_central():
    for w, depth in [
        (build_young_poset([2, 2, 1]), 5),
        (build_box_poset(2, (3, 3)), 6),
        (build_antichain_poset(4), 4),
    ]:
        g = build_graph(w, depth)
        for i in range(len(g.levels[depth])):
            v = g.vertex(depth, i)
            law = path_measure(endpoint_measure(g, v))
            report = is_central(generate_group(w, depth + 1), law)
            assert report.central, (w.describe(), v)


def test_perturbed_measure_fails_with_witness():
    g = build_graph(build_young_poset([2, 1]), 3)
    law = path_measure(endpoint_measure(g, g.vertex(3, 0)))
    bad = perturb_fiber(law, Fraction(1, 10))
    report = is_central(generate_group(g.window, 4), bad)
    assert not report.central
    assert report.invariance_witnesses, "definition check must name a generator"
    i, path = report.invariance_witnesses[0]
    assert i >= 1 and len(path) == 4
    assert not report.fiber_ok and report.fiber_witnesses


def test_is_central_rejects_non_probability():
    g = build_graph(build_young_poset([2, 1]), 3)
    law = path_measure(endpoint_measure(g, g.vertex(3, 0)))
    too_much = {k: v + Fraction(1, 100) for k, v in law.items()}
    handle = generate_group(g.window, 4)
    with pytest.raises(ValueError):
        is_central(handle, too_much)
    with pytest.raises(ValueError):
        is_central(generate_group(g.window, 3), {(0, 2, 1): Fraction(1)})  # not a numbering
    with pytest.raises(ValueError):
        is_central(handle, {})


def test_floats_are_rejected():
    g = build_graph(build_young_poset([2, 1]), 3)
    kernel = endpoint_measure(g, g.vertex(3, 0))
    rows = {**kernel.rows, (1, 0): tuple((e, j, float(p)) for e, j, p in kernel.rows[(1, 0)])}
    with pytest.raises(ValueError, match="not an exact rational"):
        ExplicitMarkov(g, rows, name="float")
    handle = generate_group(g.window, 4)
    law = {k: float(v) for k, v in uniform_path_measure(handle).items()}
    with pytest.raises(ValueError, match="not an exact rational"):
        is_central(handle, law)


def test_path_measure_matches_oracle_product():
    for w, depth in [
        (build_young_poset([3, 2, 1]), 6),
        (build_box_poset(2, (3, 3)), 6),
        (build_box_poset(3, (2, 2, 2)), 5),
        (build_antichain_poset(4), 3),
    ]:
        g = build_graph(w, depth)
        for i in range(len(g.levels[depth])):
            v = g.vertex(depth, i)
            exact = endpoint_measure(g, v)
            law = path_measure(exact)
            assert law == kernel_path_law(exact.rows, exact.depth)
            assert all(type(p) is Fraction for p in law.values())
    # a kernel with a zero-probability edge
    g = build_graph(build_young_poset([2, 1]), 3)
    tail = {(0, 0): ((1, 0, Fraction(1)),), (2, 0): ((3, 0, Fraction(1)),), (2, 1): ((2, 0, Fraction(1)),)}
    rows = {**tail, (1, 0): ((2, 0, Fraction(0)), (3, 1, Fraction(1)))}
    law = path_measure(ExplicitMarkov(g, rows, name="hand"))
    assert law == kernel_path_law(rows, 3) == {(0, 1, 3, 2): Fraction(1)}


def _random_law(paths, rng):
    weights = [Fraction(rng.randrange(1, 6)) for _ in paths]
    total = sum(weights)
    return {p: q / total for p, q in zip(paths, weights)}


def test_centrality_witnesses_match_per_path_oracle():
    import random as _random

    rng = _random.Random(11)
    for w, length in [
        (build_young_poset([3, 2]), 6),
        (build_young_poset([2, 2, 1]), 5),
        (build_box_poset(2, (3, 3)), 7),
        (build_box_poset(3, (2, 2, 2)), 6),
        (build_antichain_poset(4), 5),
        (build_chain_poset(5), 5),
    ]:
        handle = generate_group(w, length)
        paths = handle.paths
        uniform = uniform_path_measure(handle)
        laws = [uniform, _random_law(paths, rng), _random_law(paths, rng)]
        if len(paths) > 1 and any(len(p) > 1 for p in paths):
            laws.append(perturb_fiber(uniform, Fraction(1, 1000)))
        for law in laws:
            report = is_central(handle, law)
            assert (report.invariance_witnesses, report.fiber_witnesses) == central_witnesses(
                w.poset, law, length
            ), (w.describe(), length)


def _scaled_law(paths, weights):
    total = sum(weights)
    return {p: Fraction(q, total) for p, q in zip(paths, weights)}


def test_off_mass_route_matches_the_per_path_oracle():
    # is_central reads each generator, and scans the fibers, at the paths
    # off the law's most common mass only; on every corpus window at full
    # and at a partial length its verdicts and witnesses are the per-path
    # oracle's, it realizes no slot but the first that moves mass, and a
    # handle holding plain tuples answers the same
    rng = random.Random(35)
    for w in CORPUS:
        for length in sorted({w.poset.n, w.poset.n // 2 + 1}):
            handle = generate_group(w, length)
            paths, n = handle.paths, handle.n_paths
            uniform = uniform_path_measure(handle)
            laws = [uniform, _random_law(paths, rng)]
            for _ in range(2):  # two masses on half the paths each: a tie for the most common
                weights = [1] * (n // 2) + [2] * (n // 2) + [3] * (n % 2)
                rng.shuffle(weights)
                laws.append(_scaled_law(paths, weights))
            # the most common mass is 0, as a Fraction and as an absent path
            heavy = set(rng.sample(range(n), max(1, n // 4)))
            laws.append(_scaled_law(paths, [rng.randrange(1, 4) if k in heavy else 0 for k in range(n)]))
            laws.append({p: q for p, q in laws[-1].items() if q})
            laws.append({p: int(k == n - 1) for k, p in enumerate(paths)})  # int masses
            laws.append(_scaled_law(paths, [p[-1] + 1 for p in paths]))  # moved by the last generator alone
            if any(len(ids) >= 2 for ids in handle.fiber_ids):
                perturbed = perturb_fiber(uniform, Fraction(1, 1000))
                law, moved = measures._perturb(uniform, paths, handle.fiber_ids, Fraction(1, 1000))
                assert law == perturbed and set(moved) == {p for p in paths if perturbed[p] != uniform[p]}
                laws.append(perturbed)
            for law in laws:
                expected = central_witnesses(w.poset, law, length)
                fresh = generate_group(w, length)
                report = is_central(fresh, law)
                assert (report.invariance_witnesses, report.fiber_witnesses) == expected, (w.describe(), length, law)
                assert report.central == (expected == ([], []))
                realized = [b + 1 for b, perm in enumerate(fresh.generators._perms) if perm is not None]
                assert realized == [i for i, _ in expected[0][:1]]
                plain = dataclasses.replace(fresh, generators=tuple(fresh.generators))
                again = is_central(plain, law)
                assert (again.invariance_witnesses, again.fiber_witnesses) == expected


def test_fiber_witness_ties_keep_path_order():
    # antichain 3 at length 4: six paths in one fiber. Masses mix the int 0
    # with Fractions over 6 and 3; the lightest (0) and the heaviest (1/3)
    # are each shared by two paths, and the first of each must be named
    handle = generate_group(build_antichain_poset(3), 4)
    p = handle.paths
    law = {p[0]: Fraction(1, 6), p[1]: 0, p[2]: Fraction(1, 3), p[3]: 0, p[4]: Fraction(2, 6), p[5]: Fraction(1, 6)}
    report = is_central(handle, law)
    assert report.fiber_witnesses == [(p[1], p[2])]
    # many fibers with ties, against a Fraction-keyed min and max in path order
    rng = random.Random(5)
    for w, length in [(build_box_poset(3, (2, 2, 3)), 7), (build_young_poset([4, 3, 2, 1]), 8)]:
        handle = generate_group(w, length)
        raw = {q: rng.choice([0, Fraction(1, 3), Fraction(2, 6), Fraction(1, 2), Fraction(1)]) for q in handle.paths}
        total = sum(raw.values())
        law = {q: m / total if m else 0 for q, m in raw.items()}

        def value(q):
            return Fraction(law[q])

        expected = [
            (min(fiber, key=value), max(fiber, key=value))
            for fiber in brute_fibers(handle.paths)
            if len({value(q) for q in fiber}) > 1
        ]
        assert len(expected) >= 5
        assert is_central(handle, law).fiber_witnesses == expected, w.describe()


def test_markov_row_sums_and_signs_on_integers():
    g = build_graph(build_young_poset([2, 1]), 3)
    (e1, j1), (e2, j2) = g.up_edges[1][0]
    for row, message in [
        (((e1, j1, 1), (e2, j2, 1)), r"row \(1, 0\) sums to 2, not 1"),
        (((e1, j1, Fraction(1, 3)), (e2, j2, Fraction(1, 6))), r"row \(1, 0\) sums to 1/2, not 1"),
        (((e1, j1, 1), (e2, j2, Fraction(1, 2))), r"row \(1, 0\) sums to 3/2, not 1"),
        ((), r"row \(1, 0\) sums to 0, not 1"),
        (((e1, j1, Fraction(3, 2)), (e2, j2, Fraction(-1, 2))), r"row \(1, 0\) has a negative probability"),
        (((e1, j1, 2), (e2, j2, -1)), r"row \(1, 0\) has a negative probability"),
        (((e1, j1, Fraction(1, 2)), (e2, j2, 0.5)), r"row \(1, 0\) has a probability that is not an exact rational"),
    ]:
        with pytest.raises(ValueError, match=message):
            ExplicitMarkov(g, {(0, 0): ((1, 0, 1),), (1, 0): row}, name="row")
    # exact sums over mixed denominators pass (depth 2: no row is needed above level 1)
    kernel = ExplicitMarkov(g, {(0, 0): ((1, 0, 1),), (1, 0): ((e1, j1, Fraction(1, 3)), (e2, j2, Fraction(4, 6)))}, name="ok", depth=2)
    assert kernel.rows[(1, 0)][1][2] == Fraction(2, 3)


def test_is_central_on_a_one_path_handle():
    # a chain has one numbering per length, so every generator is the
    # one-point identity (0,)
    w = build_chain_poset(5)
    for length in range(1, 6):
        handle = generate_group(w, length)
        assert handle.n_paths == 1
        assert all(gen == (0,) for gen in handle.generators)
        report = is_central(handle, uniform_path_measure(handle))
        assert report.central
        assert report.invariance_witnesses == [] and report.fiber_witnesses == []


def test_law_broken_only_by_the_last_generator():
    # weights set by the last entry are invariant under sigma_1, sigma_2,
    # which leave position 4 alone, and moved by sigma_3
    w = build_antichain_poset(4)
    handle = generate_group(w, 5)
    raw = {p: Fraction(p[-1]) for p in handle.paths}
    total = sum(raw.values())
    law = {p: q / total for p, q in raw.items()}
    report = is_central(handle, law)
    expected = central_witnesses(w.poset, law, 5)
    assert (report.invariance_witnesses, report.fiber_witnesses) == expected
    assert report.invariance_witnesses == [
        (3, (0, 1, 2, 3, 4)),
        (3, (0, 1, 2, 4, 3)),
        (3, (0, 1, 3, 2, 4)),
        (3, (0, 1, 3, 4, 2)),
        (3, (0, 1, 4, 2, 3)),
    ]


def test_fiber_checks_follow_the_sorted_endpoint_order():
    # two chains 0 < 3 < 2 and 0 < 4 < 1 at length 4: the fiber ending in
    # {0, 1, 3, 4} sorts first, although the first numbering, (0, 3, 2, 4),
    # ends in {0, 2, 3, 4}
    w = parse_poset("el 0\nel 1\nel 2\nel 3\nel 4\ncov 0 3\ncov 0 4\ncov 3 2\ncov 4 1")
    handle = generate_group(w, 4)
    assert handle.paths[0] == (0, 3, 2, 4)
    uniform = uniform_path_measure(handle)
    moved = perturb_fiber(uniform, Fraction(1, 12))
    assert {p for p in uniform if moved[p] != uniform[p]} == {(0, 3, 4, 1), (0, 4, 1, 3)}
    assert moved[(0, 3, 4, 1)] == uniform[(0, 3, 4, 1)] + Fraction(1, 12)
    # weights 1..6 in path order are uneven on both fibers
    law = {p: Fraction(k + 1, 21) for k, p in enumerate(handle.paths)}
    report = is_central(handle, law)
    assert report.fiber_witnesses == [((0, 3, 4, 1), (0, 4, 3, 1)), ((0, 3, 2, 4), (0, 4, 3, 2))]
    assert (report.invariance_witnesses, report.fiber_witnesses) == central_witnesses(w.poset, law, 4)


def _oracle_verdict(kernel):
    """Centrality of the kernel's listed path law by the per-path oracle."""
    law = path_measure(kernel)
    return central_witnesses(kernel.graph.window.poset, law, kernel.depth + 1) == ([], [])


def _assert_witnesses_hold(kernel, report):
    """The one witness pair: numberings of one endpoint fiber, swapped by the
    printed sigma_i, lighter before heavier under the oracle's path law."""
    (i, path), = report.invariance_witnesses
    (lo, hi), = report.fiber_witnesses
    poset = kernel.graph.window.poset
    assert {path, lo, hi} <= set(brute_numberings(poset, kernel.depth + 1))
    assert sorted(lo) == sorted(hi)
    assert {path, sigma_map(poset, path, i)} == {lo, hi}
    law = kernel_path_law(kernel.rows, kernel.depth)
    assert law.get(lo, 0) < law.get(hi, 0)
    # the pair is the oracle's: the first vertex whose in-edges disagree, and its c.x.y.d / c.y.x.d
    assert first_conflict(kernel)[1:] == (report.invariance_witnesses, report.fiber_witnesses)


def _paths_up_to(edges, level, index):
    """Oracle path counts u -> (level, index), for every u below it that has one."""
    counts = {(level, index): 1}
    for k in range(level - 1, -1, -1):
        for i, row in enumerate(edges[k]):
            total = sum(counts.get((k + 1, j), 0) for _, j in row)
            if total:
                counts[(k, i)] = total
    return counts


def test_kernel_centrality_of_endpoint_kernels_matches_the_oracle():
    for w in CORPUS:
        depth = w.poset.n - 1
        g = build_graph(w, depth)
        _, edges, dims = ideal_levels(w.poset, depth)
        for level in range(depth + 1):
            for i in range(len(g.levels[level])):
                assert dims[level][i] <= PATH_CAP
                kernel = endpoint_measure(g, g.vertex(level, i))
                report = kernel_centrality(kernel)
                assert report.central and _oracle_verdict(kernel), (w.describe(), level, i)
                assert report.n_paths == sum(dims[level])
                # phi(u) = dim(u -> v) / dim(v) on every vertex below v
                below = _paths_up_to(edges, level, i)
                assert report.phi == {u: Fraction(c, dims[level][i]) for u, c in below.items()}


def test_kernel_centrality_of_the_golden_kernel():
    g = build_graph(build_young_poset([2, 1]), 3)
    text = (pathlib.Path(__file__).parent / "golden" / "kernel.txt").read_text(encoding="utf-8")
    kernel = parse_markov_kernel(g, text)
    report = kernel_centrality(kernel)
    assert report.central and _oracle_verdict(kernel)
    assert report.phi == {(0, 0): 1, (1, 0): 1, (2, 0): Fraction(1, 2), (2, 1): Fraction(1, 2),
                          (3, 0): Fraction(1, 2)}


def _random_rows(g, depth, rng):
    """Rows over every vertex below the depth, weights 0..2 (one positive at least)."""
    rows = {}
    for level in range(depth):
        for i, edges in enumerate(g.up_edges[level]):
            weights = [rng.randrange(3) for _ in edges]
            if not any(weights):
                weights[rng.randrange(len(weights))] = 1
            total = sum(weights)
            rows[(level, i)] = tuple((e, j, Fraction(q, total)) for (e, j), q in zip(edges, weights))
    return rows


def _harmonic_rows(g, depth, rng):
    """A central kernel: a random mixture, zeros included, of the endpoint laws
    at the depth; p(u -> w) = phi(w) / phi(u) with phi = sum_v c_v dim(u -> v) / dim(v)."""
    _, edges, dims = ideal_levels(g.window.poset, depth)
    c = [rng.randrange(3) for _ in dims[depth]]
    if not any(c):
        c[0] = 1
    phi = {}
    for v, weight in enumerate(c):
        for u, count in _paths_up_to(edges, depth, v).items():
            phi[u] = phi.get(u, 0) + Fraction(weight * count, dims[depth][v] * sum(c))
    rows = {}
    for (level, i), mass in phi.items():
        if level < depth and mass:
            rows[(level, i)] = tuple(
                (e, j, phi.get((level + 1, j), 0) / mass) for e, j in g.up_edges[level][i]
            )
    return rows, phi


def test_kernel_centrality_of_random_kernels_matches_the_oracle():
    rng = random.Random(17)
    verdicts = []
    for w, depth in [
        (build_young_poset([3, 2, 1]), 6),
        (build_young_poset([3, 3]), 6),
        (build_box_poset(3, (2, 2, 2)), 5),
        (build_antichain_poset(4), 3),
    ]:
        g = build_graph(w, depth)
        for _ in range(12):
            rows, phi = _harmonic_rows(g, depth, rng)
            kernel = ExplicitMarkov(g, rows, name="harmonic", depth=depth)
            report = kernel_centrality(kernel)
            assert report.central and _oracle_verdict(kernel)
            assert report.phi == {u: mass for u, mass in phi.items() if mass}
            kernel = ExplicitMarkov(g, _random_rows(g, depth, rng), name="random", depth=depth)
            report = kernel_centrality(kernel)
            assert report.central == _oracle_verdict(kernel), w.describe()
            verdicts.append(report.central)
            if report.central:
                assert first_conflict(kernel) is None
            else:
                assert report.phi is None
                _assert_witnesses_hold(kernel, report)
                # the same law with every row listed backwards: the pass meets the vertices in
                # another order, and c and d follow other edges
                flipped = ExplicitMarkov(g, {key: row[::-1] for key, row in kernel.rows.items()}, "flipped", depth)
                _assert_witnesses_hold(flipped, kernel_centrality(flipped))
    assert not all(verdicts), "no random kernel failed; the draw tests nothing"


def test_kernel_centrality_catches_a_one_edge_perturbation_at_each_level():
    for w in [build_young_poset([3, 2, 1]), build_box_poset(3, (2, 2, 2)), build_antichain_poset(4)]:
        depth = w.poset.n - 1
        g = build_graph(w, depth)
        kernel = endpoint_measure(g, g.vertex(depth, 0))
        caught = 0
        for level in range(depth):
            key = next((k for k in sorted(kernel.rows) if k[0] == level and len(kernel.rows[k]) > 1), None)
            if key is None:  # every row at this level has one edge: nothing to move
                continue
            (e0, j0, p0), (e1, j1, p1), *rest = kernel.rows[key]
            eps = min(p0, p1) / 2
            moved = ExplicitMarkov(
                g, {**kernel.rows, key: ((e0, j0, p0 + eps), (e1, j1, p1 - eps), *rest)}, name="moved"
            )
            report = kernel_centrality(moved)
            assert not report.central and not _oracle_verdict(moved), (w.describe(), level)
            _assert_witnesses_hold(moved, report)
            caught += 1
        # the root row and, below the top, the last level have one edge each at most
        assert caught >= depth - 2


def _in_degrees(g, level):
    """Graph in-degree of each index at level + 1."""
    degree = [0] * len(g.levels[level + 1])
    for edges in g.up_edges[level]:
        for _, j in edges:
            degree[j] += 1
    return degree


@pytest.mark.parametrize("w, levels", [(build_young_poset([3, 2, 1]), [2, 3, 4]),
                                       (build_box_poset(3, (2, 2, 2)), [1, 2, 3, 4])], ids=["young321", "box222"])
def test_kernel_centrality_finds_a_zero_probability_edge_at_each_level(w, levels):
    # the top endpoint kernel with one edge u -> j set to 0 and its mass put on u's next
    # edge: j keeps another positive in-edge, and it is the first vertex that disagrees
    depth = w.poset.n - 1
    g = build_graph(w, depth)
    top = endpoint_measure(g, g.vertex(depth, 0))
    caught = []
    for level in range(depth):
        degree = _in_degrees(g, level)
        rows = [(key, sorted(top.rows[key], key=lambda entry: entry[1])) for key in sorted(top.rows) if key[0] == level]
        # the first entry, by target, into a vertex of in-degree two or more that has an entry after it
        found = next(((key, row, a) for key, row in rows
                      for a, (_, j, _) in enumerate(row[:-1]) if degree[j] > 1), None)
        if found is None:
            continue
        key, row, a = found
        (e0, j0, p0), (e1, j1, p1) = row[a:a + 2]
        row[a:a + 2] = (e0, j0, 0), (e1, j1, p0 + p1)
        kernel = ExplicitMarkov(g, {**top.rows, key: tuple(row)}, name="zero")
        report = kernel_centrality(kernel)
        assert not report.central and not _oracle_verdict(kernel), (w.describe(), level)
        assert first_conflict(kernel)[0] == (level + 1, j0)
        _assert_witnesses_hold(kernel, report)
        caught.append(level)
    # no row above the last level listed has two edges, and young 3,2,1 has one vertex at
    # level 1, whose two up-edges are the only in-edges of their targets
    assert caught == levels


@pytest.mark.parametrize("w, levels", [(build_young_poset([3, 2, 1]), [2, 3, 4, 5]),
                                       (build_box_poset(3, (2, 2, 2)), [1, 2, 3, 4, 5])], ids=["young321", "box222"])
def test_kernel_centrality_finds_an_edge_from_an_unreached_vertex_at_each_level(w, levels):
    # v's endpoint kernel up to v's level L, the top's above it: L + 1 is the first level
    # where a reached vertex has an in-edge out of a vertex other than v, which is unreached
    depth = w.poset.n - 1
    g = build_graph(w, depth)
    top = endpoint_measure(g, g.vertex(depth, 0))
    caught = []
    for level in range(1, depth):
        for v in range(len(g.levels[level])):
            rows = {**top.rows, **endpoint_measure(g, g.vertex(level, v)).rows}
            kernel = ExplicitMarkov(g, rows, name="unreached", depth=depth)
            conflict = first_conflict(kernel)
            if conflict is None or conflict[0][0] != level + 1:
                continue
            report = kernel_centrality(kernel)
            assert not report.central and not _oracle_verdict(kernel), (w.describe(), level, v)
            _assert_witnesses_hold(kernel, report)
            caught.append(level)
            break
    assert caught == levels  # young 3,2,1 has one vertex at level 1: nothing there is unreached


def test_kernel_centrality_builds_no_fraction_until_phi_is_read(monkeypatch):
    w = build_box_poset(3, (2, 2, 2))
    depth = w.poset.n - 1
    g = build_graph(w, depth)
    built = []

    class Counting(Fraction):
        def __new__(cls, *args, **kwargs):
            built.append(args)
            return super().__new__(cls, *args, **kwargs)

    monkeypatch.setattr(measures, "Fraction", Counting)
    kernel = endpoint_measure(g, g.vertex(depth, 0))
    report = kernel_centrality(kernel)
    assert report.central and built == []
    _, edges, dims = ideal_levels(w.poset, depth)
    below = _paths_up_to(edges, depth, 0)
    oracle = {u: Fraction(c, dims[depth][0]) for u, c in below.items()}
    assert report.phi == oracle
    assert built, "the first read builds the Fractions"
    n_built = len(built)
    assert report.phi == oracle and len(built) == n_built  # the second read reuses them
    rows = kernel.rows
    assert len(built) == n_built + sum(map(len, kernel.terms.values())), "the first read of rows builds them"
    assert rows == {key: tuple((e, j, Fraction(below[key[0] + 1, j], below[key])) for e, j, _, _ in row)
                    for key, row in kernel.terms.items()}
    n_built = len(built)
    assert kernel.rows is rows and len(built) == n_built  # the second read reuses them


def test_endpoint_measure_checks_the_terms_it_builds(monkeypatch):
    # a backward count with one entry off by one: the rows into that vertex no longer sum to 1
    g = build_graph(build_box_poset(3, (2, 2, 2)), 5)
    counts = g.counts_up(5, [int(i == 0) for i in range(len(g.levels[5]))])
    parent = next(u for u, edges in enumerate(g.up_edges[1]) if any(j == 0 for _, j in edges))
    counts[2][0] += 1
    monkeypatch.setattr(g, "counts_up", lambda level, top: [list(row) for row in counts])
    total = Fraction(sum(counts[2][j] for _, j in g.up_edges[1][parent]), counts[1][parent])
    with pytest.raises(ValueError, match=rf"^row \(1, {parent}\) sums to {total}, not 1$"):
        endpoint_measure(g, g.vertex(5, 0))


def test_endpoint_measure_refuses_a_vertex_the_graph_lacks():
    deep = build_graph(build_young_poset([3, 2]), 5)
    g = build_graph(build_young_poset([3, 2]), 3)
    with pytest.raises(ValueError, match=r"^vertex 5:0 not in graph \(depth 3\)$"):
        endpoint_measure(g, deep.vertex(5, 0))
    with pytest.raises(ValueError, match=r"^vertex 3:7 not in graph \(depth 3\)$"):
        endpoint_measure(g, LevelVertex(3, 7, deep.vertex(3, 0).ideal))


def test_kernel_centrality_needs_a_row_where_it_walks():
    # a holed kernel is refused when it is built, before the forward pass or
    # the exact law could walk it; a zero-probability edge reaches nothing
    g = build_graph(build_young_poset([2, 1]), 3)
    rows = {(0, 0): ((1, 0, 1),), (1, 0): ((2, 0, Fraction(1, 2)), (3, 1, Fraction(1, 2))), (2, 0): ((3, 0, 1),)}
    # both 2:1 (reached first, by the row's first entry) and 2:0 lack a row: the lower index is named
    both = {(0, 0): ((1, 0, 1),), (1, 0): ((3, 1, Fraction(1, 2)), (2, 0, Fraction(1, 2)))}
    for holed, depth, vertex in [(rows, None, "2:1"), ({(0, 0): ((1, 0, 1),)}, 2, "1:0"), ({}, 1, "0:0"), (both, 3, "2:0")]:
        with pytest.raises(ValueError, match=f"^the kernel reaches {vertex}, which has no row$"):
            ExplicitMarkov(g, holed, name="holed", depth=depth)
    kernel = ExplicitMarkov(g, {**rows, (1, 0): ((2, 0, 1), (3, 1, 0))}, name="zero edge")
    assert not kernel_centrality(kernel).central  # one of the fiber's two paths carries all the mass
    assert path_measure(kernel) == {(0, 1, 2, 3): 1}
    assert ExplicitMarkov(g, {}, name="root", depth=0).depth == 0


def test_exact_law_of_a_deep_window():
    # one path of 1400 steps: the walk is as deep as the window
    g = build_graph(build_chain_poset(1500), 1400)
    law = path_measure(endpoint_measure(g, g.vertex(1400, 0)))
    assert law == {tuple(range(1401)): 1}


def test_markov_row_validation():
    g = build_graph(build_young_poset([2, 1]), 3)
    rows = {
        (0, 0): ((1, 0, Fraction(1, 2)),),  # sums to 1/2
    }
    with pytest.raises(ValueError):
        ExplicitMarkov(g, rows, name="broken")
    # one element listed twice: the row sums to 1, its path law to 1/2
    rows = {(0, 0): ((1, 0, Fraction(1, 2)), (1, 0, Fraction(1, 2))), (1, 0): ((2, 0, 1),), (2, 0): ((3, 0, 1),)}
    with pytest.raises(ValueError, match=r"row \(0, 0\) lists an element twice"):
        ExplicitMarkov(g, rows, name="twice")


def test_markov_rows_must_be_up_edges():
    # on young 2,1 cell (2,1) is id 3 and cell (1,2) id 2: these rows add
    # (2,1), then (1,2), then (1,1), and would walk 0,3,2,1, no numbering
    g = build_graph(build_young_poset([2, 1]), 3)
    rows = {(0, 0): ((3, 0, 1),), (1, 0): ((2, 0, 1),), (2, 0): ((1, 0, 1),)}
    with pytest.raises(ValueError, match=r"row \(0, 0\) lists \(3, 0\), which is no up-edge of the graph"):
        ExplicitMarkov(g, rows, name="x")
    # an edge's element with another edge's target
    rows = {(0, 0): ((1, 0, 1),), (1, 0): ((2, 1, 1),), (2, 1): ((2, 0, 1),)}
    with pytest.raises(ValueError, match=r"row \(1, 0\) lists \(2, 1\)"):
        ExplicitMarkov(g, rows, name="y")
    for key in [(4, 0), (2, 2), (-1, 0)]:
        with pytest.raises(ValueError, match="is no vertex of the graph"):
            ExplicitMarkov(g, {key: ()}, name="z")
    with pytest.raises(ValueError, match="depth 4 is outside 0..3"):
        ExplicitMarkov(g, {}, name="deep", depth=4)


def test_parse_markov_kernel_round_trip():
    from posetpaths import parse_markov_kernel

    g = build_graph(build_young_poset([2, 1]), 3)
    text = "# hand-written kernel\nrow 0:0 1:1\nrow 1:0 2:0.5 3:1/2\nrow 2:0 3:1\nrow 2:1 2:1\n"
    kernel = parse_markov_kernel(g, text)
    assert kernel.depth == 3
    law = path_measure(kernel)
    assert set(law.values()) == {Fraction(1, 2)}
    assert is_central(generate_group(g.window, 4), law).central
    with pytest.raises(ValueError):
        parse_markov_kernel(g, "row 9:0 1:1\n")
    with pytest.raises(ValueError):
        parse_markov_kernel(g, "row 1:0 1:1\n")  # 1 is already in the ideal
    with pytest.raises(ValueError):
        parse_markov_kernel(g, "")


def test_parse_markov_kernel_rejects_missing_rows():
    from posetpaths import parse_markov_kernel

    g = build_graph(build_young_poset([2, 1]), 3)
    # 2:1 is reached with probability 1/2 before the depth but has no row
    with pytest.raises(ValueError, match="line 2: element 3 leads to 2:1, which has no row"):
        parse_markov_kernel(g, "row 0:0 1:1\nrow 1:0 2:1/2 3:1/2\nrow 2:0 3:1\n")
    with pytest.raises(ValueError, match="the kernel starts at 0:0, which has no row"):
        parse_markov_kernel(g, "row 1:0 2:1\n")
    # the row checks come before the walk: a holed file with a bad row names the row
    with pytest.raises(ValueError, match=r"^row \(1, 0\) sums to 2/3, not 1$"):
        parse_markov_kernel(g, "row 0:0 1:1\nrow 1:0 2:1/3 3:1/3\nrow 2:0 3:1\n")
    # a zero-probability edge may lead to a vertex without a row
    kernel = parse_markov_kernel(g, "row 0:0 1:1\nrow 1:0 2:1 3:0\nrow 2:0 3:1\n")
    assert path_measure(kernel) == {(0, 1, 2, 3): Fraction(1)}
    with pytest.raises(ValueError, match="bad vertex"):
        parse_markov_kernel(g, "row 0:-1 1:1\n")
    with pytest.raises(ValueError, match="line 1"):
        parse_markov_kernel(g, "row\n")


def test_path_measure_cap_counts_before_walking(monkeypatch):
    big = build_graph(build_box_poset(4, (2, 2, 2, 2)), 15)
    with pytest.raises(CapExceeded, match="more than 100000 paths"):
        path_measure(endpoint_measure(big, big.vertex(15, 0)))  # 1,680,384 paths, none built
    # the boundary: the cap counts exactly the positive-probability paths
    g = build_graph(build_young_poset([3, 2, 1]), 6)
    v = g.vertex(6, 0)
    m = endpoint_measure(g, v)
    assert dimension(g, v) == 16
    monkeypatch.setattr(measures, "PATH_CAP", 15)
    with pytest.raises(CapExceeded):
        path_measure(m)
    monkeypatch.setattr(measures, "PATH_CAP", 16)
    assert len(path_measure(m)) == 16
    from posetpaths import parse_markov_kernel

    g3 = build_graph(build_young_poset([2, 1]), 3)
    kernel = parse_markov_kernel(g3, "row 0:0 1:1\nrow 1:0 2:1/2 3:1/2\nrow 2:0 3:1\nrow 2:1 2:1\n")
    monkeypatch.setattr(measures, "PATH_CAP", 1)
    with pytest.raises(CapExceeded):
        path_measure(kernel)


# --- growth transitions and samplers --------------------------------------


def test_plancherel_transition_base_cases():
    assert plancherel_transition(()) == [((1,), Fraction(1))]
    assert plancherel_transition((1,)) == [
        ((2,), Fraction(1, 2)),
        ((1, 1), Fraction(1, 2)),
    ]
    assert plancherel_transition((2,)) == [
        ((3,), Fraction(1, 3)),
        ((2, 1), Fraction(2, 3)),
    ]


def test_plancherel_transition_rows_sum_to_one_exactly():
    for n in range(0, 11):
        for lam in partitions_of(n):
            probs = [p for _, p in plancherel_transition(lam)]
            assert sum(probs) == 1


def test_sample_plancherel_first_cell():
    for seed in range(5):
        assert sample_plancherel(1, seed).cells == ((1, 1),)


def test_sample_plancherel_deterministic_and_valid():
    a = sample_plancherel(64, 123)
    b = sample_plancherel(64, 123)
    assert (a.word, a.cells) == (b.word, b.cells)
    growth_shapes(a.cells)
    window, numbering = growth_to_numbering(a)
    assert len(numbering) == 65


def test_row_insertion_reproduces_exact_plancherel_law():
    # the recording shapes of row insertion over all n! words in distinct
    # letters carry exactly the Plancherel path law: each path's share of
    # the permutations is the product of the exact transitions along it
    distinct = [1, 2, 4, 10, 26, 76, 232]  # standard tableaux of size n
    for n in range(1, 8):
        tally: dict[tuple, int] = {}
        for word in itertools.permutations(range(n)):
            rows: list[list[int]] = []
            cells = tuple(row_insert(rows, letter) for letter in word)
            tally[cells] = tally.get(cells, 0) + 1
        assert len(tally) == distinct[n - 1]
        for cells, count in tally.items():
            law = Fraction(1)
            shape: tuple[int, ...] = ()
            for mu in growth_shapes(cells):
                law *= dict(plancherel_transition(shape))[mu]
                shape = mu
            assert Fraction(count, factorial(n)) == law, cells
    # the sampler's letters are i.i.d. uniform, so their relative order is
    # a uniform permutation, and inserting that permutation gives its path
    for seed in range(20):
        rng = random.Random(seed)
        letters = [rng.random() for _ in range(30)]
        order = sorted(letters)
        word = [order.index(x) for x in letters]
        rows = []
        assert sample_plancherel(30, seed).cells == tuple(row_insert(rows, x) for x in word)


def test_sample_plancherel_second_cell_split():
    lo = sum(1 for seed in range(10_000) if sample_plancherel(2, seed).cells[1] == (1, 2))
    assert abs(lo / 10_000 - 0.5) <= 0.02


def test_rsk_alpha_validation():
    with pytest.raises(ValueError):
        sample_rsk_thoma((), 5, 0)
    with pytest.raises(ValueError):
        Thoma((0.7, 0.2))
    with pytest.raises(ValueError):
        Thoma((1.2, -0.2))
    assert Thoma((0.5, 0.5)).has_ties
    assert not Thoma((0.7, 0.3)).has_ties


def test_thoma_spec_samples_through_the_module_samplers():
    for n, seed in [(1, 0), (7, 3), (200, 11)]:
        a, b = Thoma().sample(n, seed), sample_plancherel(n, seed)
        assert (a.word, a.cells) == (b.word, b.cells)
        for alpha in [(1.0,), (0.7, 0.3), (0.5, 0.3, 0.2)]:
            a, b = Thoma(alpha).sample(n, seed), sample_rsk_thoma(alpha, n, seed)
            assert (a.word, a.cells) == (b.word, b.cells)


@pytest.mark.parametrize("n", [1, 7, 1000])
def test_thoma_word_without_alpha_is_the_plancherel_word(n):
    for seed in range(50):
        rng = random.Random(seed)
        word = thoma_word((), n, seed)
        assert word == [rng.random() for _ in range(n)]
        assert word == sample_plancherel(n, seed).word


def test_thoma_spec_names_family_and_ties():
    spec = Thoma()
    assert (spec.alpha, spec.name(), spec.family, spec.has_ties) == ((), "plancherel", "young-growth", False)
    assert Thoma((0.7, 0.3)).name() == "rsk:0.7,0.3"
    assert Thoma((0.7, 0.3)).family == spec.family


@pytest.mark.parametrize(
    "alpha,message",
    [((0.5, -0.5, 1.0), "positive"), ((0.0, 1.0), "positive"), ((0.7, 0.2), "sum to 1"), ((0.6, 0.6), "sum to 1")],
)
def test_thoma_spec_rejects_bad_alpha(alpha, message):
    with pytest.raises(ValueError, match=message):
        Thoma(alpha)
    with pytest.raises(ValueError, match=message):
        sample_rsk_thoma(alpha, 5, 0)


@pytest.mark.parametrize("alpha", [(math.nan,), (0.5, math.nan), (math.inf,), (0.5, math.inf)])
def test_rsk_alpha_rejects_non_finite(alpha):
    with pytest.raises(ValueError, match="finite"):
        Thoma(alpha)
    with pytest.raises(ValueError, match="finite"):
        sample_rsk_thoma(alpha, 5, 0)


def test_rsk_single_letter_single_row():
    path = sample_rsk_thoma((1.0,), 50, 3)
    assert path.shape() == (50,)
    (rep,) = estimate_frequency(Thoma((1.0,)), [HookIdeal(1, 0)], 50, 5, 3)
    assert rep.estimate == 1.0 and rep.stderr == 0.0


def test_rsk_two_letters_at_most_two_rows():
    for seed in range(10):
        path = sample_rsk_thoma((0.5, 0.5), 200, seed)
        assert len(path.shape()) <= 2
        growth_shapes(path.cells)


def test_rsk_row_one_dominates_letter_one_count():
    # every copy of the smallest letter stays in row 1, so the first row
    # is at least as long as the letter-1 count
    for seed in range(10):
        path = sample_rsk_thoma((0.7, 0.3), 500, seed)
        ones = thoma_word((0.7, 0.3), 500, seed).count(0)  # letter 1 is 0-based 0
        assert path.shape()[0] >= ones


def test_rsk_deterministic():
    a, b = sample_rsk_thoma((0.6, 0.4), 100, 11), sample_rsk_thoma((0.6, 0.4), 100, 11)
    assert (a.word, a.cells) == (b.word, b.cells)


def uniform_ending_below_one(d_min):
    """The smallest uniform alphabet of at least d_min letters whose float
    cumulative sum, accumulated in order as the sampler does, ends below 1."""
    d = next(
        d
        for d in itertools.count(d_min)
        if list(itertools.accumulate(itertools.repeat(1 / d, d)))[-1] < 1
    )
    return (1 / d,) * d


UNIFORM_LONG = uniform_ending_below_one(17)
RSK_ALPHAS = [
    (1.0,),
    (0.7, 0.3),
    (0.5, 0.3, 0.2),
    (0.4, 0.3, 0.2, 0.1),
    (0.1,) * 10,  # its float cumulative sum ends below 1
    (1 / 16,) * 16,
    UNIFORM_LONG,
]


@pytest.mark.parametrize("alpha", RSK_ALPHAS, ids=lambda a: f"d{len(a)}")
def test_rsk_cells_are_row_insertion_of_its_letters(alpha):
    for seed in range(5):
        path = sample_rsk_thoma(alpha, 600, seed)
        word = thoma_word(alpha, 600, seed)
        assert len(word) == 600
        assert set(word) <= set(range(len(alpha)))
        rows = []
        assert path.cells == tuple(row_insert(rows, letter) for letter in word)


@pytest.mark.parametrize("alpha", [(0.1,) * 10, UNIFORM_LONG], ids=lambda a: f"d{len(a)}")
def test_rsk_draw_past_the_float_sum_is_the_last_letter(alpha, monkeypatch):
    top = list(itertools.accumulate(alpha))[-1]
    assert top < 1

    class Scripted(random.Random):
        """Every generator replays the same draws, whatever its seed."""

        def __init__(self, seed):
            super().__init__(seed)
            self.draws = [top, math.nextafter(1.0, 0.0), 0.0, top]

        def random(self):
            return self.draws.pop(0)

    monkeypatch.setattr(measures.random, "Random", Scripted)
    d = len(alpha)
    assert thoma_word(alpha, 4, 0) == [d - 1, d - 1, 0, d - 1]
    path = sample_rsk_thoma(alpha, 4, 0)
    assert path.cells == ((1, 1), (1, 2), (2, 1), (1, 3))


def test_rsk_growth_is_valid_numbering():
    path = sample_rsk_thoma((0.5, 0.3, 0.2), 30, 2)
    window, numbering = growth_to_numbering(path)
    assert len(numbering) == 31


def test_plancherel_first_row_near_two_sqrt_n():
    # loose shape check: first row within 30% of 2*sqrt(n) for >= 90% of seeds
    n = 2500
    target = 2 * n**0.5
    hits = 0
    seeds = range(20)
    for seed in seeds:
        row1 = sample_plancherel(n, seed).shape()[0]
        if abs(row1 - target) <= 0.3 * target:
            hits += 1
    assert hits >= 0.9 * len(seeds)


# --- frequency estimation --------------------------------------------------


def test_full_ideal_estimates_exactly_one():
    (rep,) = estimate_frequency(Thoma(), [FullIdeal()], 100, 10, 5)
    assert rep.estimate == 1.0
    assert rep.stderr == 0.0


def test_frequency_reports_deterministic():
    (a,) = estimate_frequency(Thoma(), [HookIdeal(1, 0)], 200, 10, 42)
    (b,) = estimate_frequency(Thoma(), [HookIdeal(1, 0)], 200, 10, 42)
    assert a == b
    assert a.csv_row() == b.csv_row()


def test_frequency_monotone_under_ideal_inclusion():
    # nested hooks on identical sampled paths
    chains = [HookIdeal(1, 0), HookIdeal(1, 1), HookIdeal(2, 1), HookIdeal(2, 2)]
    reports = estimate_frequency(Thoma(), chains, 300, 8, 17)
    for a, b in zip(reports, reports[1:]):
        for va, vb in zip(a.values, b.values):
            assert va <= vb
    rsk_reports = estimate_frequency(Thoma((0.6, 0.3, 0.1)), chains, 300, 8, 17)
    for a, b in zip(rsk_reports, rsk_reports[1:]):
        for va, vb in zip(a.values, b.values):
            assert va <= vb


def test_frequency_estimates_in_unit_interval():
    for spec in [Thoma(), Thoma((0.7, 0.3))]:
        for rep in estimate_frequency(spec, [HookIdeal(1, 0), HookIdeal(0, 2), FullIdeal()], 150, 6, 9):
            assert 0.0 <= rep.estimate <= 1.0


def test_finite_set_ideal_incompatible_with_growth_sampler():
    from posetpaths import finite_set_ideal

    with pytest.raises(ValueError):
        estimate_frequency(Thoma(), [finite_set_ideal([1])], 10, 2, 1)


def test_growth_hits_match_per_cell_count():
    # hits reads the final shape; the oracle tests every sampled cell
    ideals = [parse_ideal(t) for t in ["hook:0,0", "hook:1,0", "hook:0,1", "hook:2,3", "rays:2,5", "full"]]
    paths = [sample_plancherel(n, seed) for n in (1, 7, 300) for seed in range(4)]
    paths += [sample_rsk_thoma(alpha, 200, seed) for alpha in [(1.0,), (0.5, 0.3, 0.2)] for seed in range(3)]
    for path in paths:
        for ideal in ideals:
            expected = sum(member_coords(ideal, cell) for cell in path.cells)
            assert Thoma().hits(path, ideal) == expected, (path.shape(), ideal.name())
    from posetpaths import finite_set_ideal

    for ideal in [finite_set_ideal([1]), parse_ideal("rays:1,1,1")]:
        with pytest.raises(ValueError):
            Thoma().hits(paths[0], ideal)


def test_window_hits_match_per_element_count(monkeypatch):
    # hits is one popcount against the ideal's mask; the oracle tests every
    # sampled element but the root, and the mask is built once per ideal
    from posetpaths import FiniteSetIdeal

    built = []
    real_mask = measures.ideal_mask
    monkeypatch.setattr(measures, "ideal_mask", lambda spec, window: built.append(spec) or real_mask(spec, window))
    cases = [
        (build_young_poset([3, 2]), ["full", "hook:0,0", "hook:1,0", "hook:1,1", "rays:2,1", "set:1,2,4"]),
        (build_box_poset(3, (2, 3, 2)), ["full", "rays:1,1,1", "rays:2,0,1", "set:1,2,3"]),
        (build_chain_poset(6), ["full", "rays:3", "set:1,2"]),
    ]
    for window, texts in cases:
        poset = window.poset
        g = build_graph(window, poset.n - 1)
        kernel = endpoint_measure(g, g.vertex(poset.n - 1, 0))
        ideals = [parse_ideal(t) for t in texts]
        built.clear()
        for seed in range(12):
            path = kernel.sample(poset.n - 1, seed)
            for ideal in ideals:
                if isinstance(ideal, FiniteSetIdeal):
                    expected = sum(1 for x in path[1:] if x in ideal.ids)
                else:
                    expected = sum(1 for x in path[1:] if member_coords(ideal, poset.coords[x]))
                assert kernel.hits(path, ideal) == expected, (path, ideal.name())
        assert built == ideals, window.describe()


def test_step_cap_boundary(monkeypatch):
    monkeypatch.setattr(measures, "STEP_CAP", 12)
    assert sample_plancherel(12, 1).n_steps == 12
    assert sample_rsk_thoma((0.5, 0.5), 12, 1).n_steps == 12
    with pytest.raises(CapExceeded):
        sample_plancherel(13, 1)
    with pytest.raises(CapExceeded):
        sample_rsk_thoma((0.5, 0.5), 13, 1)
    (rep,) = estimate_frequency(Thoma(), [FullIdeal()], 4, 3, 1)
    assert rep.replicas == 3

    def no_sampling(*args):
        raise AssertionError("sampled past the cap")

    monkeypatch.setattr(measures, "sample_plancherel", no_sampling)
    with pytest.raises(CapExceeded):
        estimate_frequency(Thoma(), [FullIdeal()], 4, 4, 1)
    with pytest.raises(CapExceeded):
        compare_frequency_profiles([Thoma(), Thoma()], [FullIdeal()], 7, 2, 1)


def test_markov_sampler_frequency():
    w = build_box_poset(2, (3, 3))
    g = build_graph(w, 6)
    v = g.vertex(6, 0)
    m = endpoint_measure(g, v)
    numbering = sample_markov(m, 6, 4)
    assert len(numbering) == 7
    assert set(numbering) <= set(v.ideal)
    rep, rep_full = estimate_frequency(m, [parse_ideal("hook:1,0"), FullIdeal()], 6, 12, 4)
    assert 0.0 < rep.estimate <= 1.0
    assert rep_full.estimate == 1.0
    with pytest.raises(ValueError):
        sample_markov(m, 7, 4)  # beyond kernel depth


def test_markov_draw_past_the_float_sum_takes_the_last_positive_edge(monkeypatch):
    # ten float tenths sum to exactly the largest draw below 1, so no edge
    # catches it; the round-off must not land on the zero-probability edge 11
    g = build_graph(build_antichain_poset(11), 1)
    row = " ".join(f"{k}:1/10" for k in range(1, 11))
    m = parse_markov_kernel(g, f"row 0:0 {row} 11:0")
    top = math.nextafter(1.0, 0.0)
    assert list(itertools.accumulate([0.1] * 10))[-1] == top
    draws = [top, 0.0, 0.95, top]

    class Scripted(random.Random):
        def random(self):
            return draws.pop(0)

    monkeypatch.setattr(measures.random, "Random", Scripted)
    assert [sample_markov(m, 1, 0) for _ in range(4)] == [(0, 10), (0, 1), (0, 10), (0, 10)]
    assert draws == []  # one draw per step


def test_markov_sampler_on_coordinate_free_window_rejects_hooks():
    w = build_antichain_poset(3)
    g = build_graph(w, 3)
    m = endpoint_measure(g, g.vertex(3, 0))
    with pytest.raises(ValueError):
        estimate_frequency(m, [HookIdeal(1, 0)], 3, 4, 2)


def test_growth_to_numbering_round_trip():
    path = sample_plancherel(12, 8)
    window, numbering = growth_to_numbering(path)
    assert len(numbering) == 13
    coords = [window.poset.coords[x] for x in numbering[1:]]
    assert tuple(coords) == path.cells


# --- profile comparison -----------------------------------------------------


def test_compare_requires_two_samplers_same_family():
    with pytest.raises(ValueError):
        compare_frequency_profiles([Thoma()], [HookIdeal(1, 0)], 10, 2, 1)
    g = build_graph(build_young_poset([2, 1]), 3)
    m = endpoint_measure(g, g.vertex(3, 0))
    with pytest.raises(ValueError):
        compare_frequency_profiles([Thoma(), m], [HookIdeal(1, 0)], 3, 2, 1)


def test_compare_distinguishes_rsk_alphas():
    table = compare_frequency_profiles(
        [Thoma((0.7, 0.3)), Thoma((0.6, 0.4))],
        [HookIdeal(1, 0)],
        n_steps=1500,
        replicas=30,
        seed=21,
    )
    (pair,) = table.pairs
    assert pair.distinguished
    assert pair.separations[0][1] > 3


def test_compare_needs_two_replicas(monkeypatch):
    # one replica has no standard error, so any gap would read as infinitely
    # many units and distinguish a sampler from itself
    def no_sampling(*args):
        raise AssertionError("sampled before rejecting the replica count")

    monkeypatch.setattr(measures, "sample_plancherel", no_sampling)
    for replicas in (1, 0, -3):
        with pytest.raises(ValueError, match="at least 2 replicas"):
            compare_frequency_profiles([Thoma(), Thoma()], [HookIdeal(1, 0)], 100, replicas, 1)


@pytest.mark.parametrize("threshold", [math.nan, math.inf, -1.0])
def test_compare_rejects_bad_threshold(threshold):
    with pytest.raises(ValueError, match="threshold"):
        compare_frequency_profiles(
            [Thoma((0.7, 0.3)), Thoma((0.6, 0.4))], [HookIdeal(1, 0)], 10, 2, 1, threshold
        )


def test_compare_same_law_indistinguishable():
    table = compare_frequency_profiles(
        [Thoma(), Thoma()],
        [HookIdeal(1, 0), HookIdeal(0, 1), HookIdeal(2, 2)],
        n_steps=400,
        replicas=30,
        seed=5,
    )
    (pair,) = table.pairs
    assert not pair.distinguished


def test_compare_plancherel_vs_rsk_distinguished():
    table = compare_frequency_profiles(
        [Thoma(), Thoma((0.7, 0.3))],
        [HookIdeal(1, 0)],
        n_steps=1000,
        replicas=20,
        seed=13,
    )
    (pair,) = table.pairs
    assert pair.distinguished


def test_centrality_routes_always_agree():
    # invariance under every involution and fiber uniformity are
    # equivalent characterizations (given fiber transitivity), so the two
    # checks must return the same verdict on arbitrary measures
    import random as _random

    rng = _random.Random(3)
    for w, length in [
        (build_young_poset([3, 2]), 6),
        (build_box_poset(2, (2, 2)), 4),
        (build_antichain_poset(3), 4),
    ]:
        handle = generate_group(w, length)
        paths = handle.paths
        for _ in range(20):
            weights = [Fraction(rng.randrange(0, 5) + 1) for _ in paths]
            total = sum(weights)
            measure = {p: q / total for p, q in zip(paths, weights)}
            report = is_central(handle, measure)
            assert report.invariance_ok == report.fiber_ok, (w.describe(), measure)


def _longest_weakly_increasing(word):
    best = [0] * len(word)
    for i, x in enumerate(word):
        best[i] = 1 + max(
            (best[j] for j in range(i) if word[j] <= x), default=0
        )
    return max(best, default=0)


def test_rsk_first_row_is_longest_weakly_increasing_subsequence():
    # independent characterization of the first-row length
    for seed in range(8):
        path = sample_rsk_thoma((0.4, 0.35, 0.25), 120, seed)
        assert path.shape()[0] == _longest_weakly_increasing(thoma_word((0.4, 0.35, 0.25), 120, seed))


def test_plancherel_path_law_at_n3():
    # each growth path to a 3-cell shape carries probability
    # tableau_count(shape)/3!; check empirically with fixed seeds
    reps = 12_000
    counts: dict[tuple, int] = {}
    for seed in range(reps):
        cells = sample_plancherel(3, seed).cells
        counts[cells] = counts.get(cells, 0) + 1
    law = {
        cells: tableau_count(shape) / 6.0
        for cells, shape in (
            (((1, 1), (1, 2), (1, 3)), (3,)),
            (((1, 1), (1, 2), (2, 1)), (2, 1)),
            (((1, 1), (2, 1), (1, 2)), (2, 1)),
            (((1, 1), (2, 1), (3, 1)), (1, 1, 1)),
        )
    }
    assert set(counts) == set(law)
    for cells, expected in law.items():
        assert abs(counts[cells] / reps - expected) < 0.02, cells


def test_endpoint_sampler_walks_uniformly():
    g = build_graph(build_young_poset([3, 2]), 5)
    m = endpoint_measure(g, g.vertex(5, 0))
    counts: dict[tuple, int] = {}
    reps = 2000
    for seed in range(reps):
        key = sample_markov(m, 5, seed)
        counts[key] = counts.get(key, 0) + 1
    assert len(counts) == 5
    for key, c in counts.items():
        assert abs(c / reps - 0.2) < 0.05, key


def test_tableau_count_consistency_with_graph_dims():
    # plancherel transitions are stated through tableau counts; pin those
    # to the ideal-lattice dimensions of the corresponding young windows
    for lam in [(2, 1), (3, 2), (2, 2, 1)]:
        w = build_young_poset(lam)
        g = build_graph(w, w.poset.n - 1)
        assert dimension(g, g.vertex(w.poset.n - 1, 0)) == tableau_count(lam)


def test_is_central_rejects_negative_mass():
    handle = generate_group(build_young_poset([2, 1]), 4)
    law = {(0, 1, 2, 3): Fraction(3, 2), (0, 1, 3, 2): Fraction(-1, 2)}  # sums to 1
    with pytest.raises(ValueError, match="negative probability"):
        is_central(handle, law)


def test_sample_markov_stops_at_a_holed_row():
    # a kernel that reaches 1:0, which has no row, is refused when it is
    # built; cut at depth 1 it samples its one step
    g = build_graph(build_young_poset([2, 1]), 3)
    with pytest.raises(ValueError, match="^the kernel reaches 1:0, which has no row$"):
        ExplicitMarkov(g, {(0, 0): ((1, 0, 1),)}, name="holed", depth=2)
    m = ExplicitMarkov(g, {(0, 0): ((1, 0, 1),)}, name="holed", depth=1)
    assert sample_markov(m, 1, 0) == (0, 1)
    with pytest.raises(ValueError, match="supports 1..1 steps, asked for 2"):
        sample_markov(m, 2, 0)


def test_plancherel_hook_frequencies_insert_no_letter(monkeypatch):
    # hook:1,0 and hook:0,1 are read off the word by Greene's passes; the
    # expected counts come from the cells of the same seeds' paths
    from posetpaths import young

    hooks = [HookIdeal(1, 0), HookIdeal(0, 1)]
    expected = [
        [sum(member_coords(h, cell) for cell in sample_plancherel(200, 5 + k).cells) / 200 for k in range(3)]
        for h in hooks
    ]

    def unreachable(*args):
        raise AssertionError("a hook frequency inserted a letter")

    monkeypatch.setattr(young, "row_insert", unreachable)
    monkeypatch.setattr(young, "row_insert_word", unreachable)
    monkeypatch.setattr(measures, "row_insert", unreachable)
    reports = estimate_frequency(Thoma(), hooks, 200, 3, 5)
    assert [list(r.values) for r in reports] == expected


def test_thoma_frequencies_build_no_cells(monkeypatch):
    # every ideal a growth sampler scores reads the shape off the count rows;
    # the expected counts come from the cells of the same seeds' paths
    alpha = (0.5, 0.3, 0.2)
    ideals = [parse_ideal(t) for t in ("hook:1,0", "hook:0,1", "rays:1,1", "full")]
    expected = [
        [sum(member_coords(ideal, cell) for cell in sample_rsk_thoma(alpha, 500, k).cells) / 500 for k in range(5)]
        for ideal in ideals
    ]

    def unreadable(path):
        raise AssertionError("a frequency built the cells")

    monkeypatch.setattr(GrowthPath, "cells", property(unreadable))
    reports = estimate_frequency(Thoma(alpha), ideals, 500, 5, 0)
    assert [list(r.values) for r in reports] == expected


def test_thoma_hook_frequencies_fit_in_a_few_megabytes():
    # 200,000 steps: the word and one row index per step, no cell tuples
    hooks = [HookIdeal(1, 0), HookIdeal(0, 1)]
    tracemalloc.start()
    try:
        estimate_frequency(Thoma((0.5, 0.3, 0.2)), hooks, 200_000, 1, 0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 * 2**20, peak
