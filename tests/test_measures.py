from __future__ import annotations

import itertools
import math
import random
from fractions import Fraction
from math import factorial

import pytest

from posetpaths import (
    CapExceeded,
    FullIdeal,
    HookIdeal,
    PlancherelYoung,
    RSKThoma,
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
    parse_ideal,
    path_measure,
    perturb_fiber,
    plancherel_transition,
    sample_markov,
    sample_plancherel,
    sample_rsk_thoma,
    uniform_path_measure,
)
from posetpaths import measures
from posetpaths.ideals import member_coords
from posetpaths.measures import ExplicitMarkov
from posetpaths.young import GrowthPath, row_insert, tableau_count

from oracles import central_witnesses, kernel_path_law, partitions_of


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
    for w, depth in [
        (build_young_poset([3, 2]), 5),
        (build_box_poset(2, (3, 3)), 6),
        (build_box_poset(3, (2, 2, 2)), 5),
    ]:
        g = build_graph(w, depth)
        for i in range(len(g.levels[depth])):
            v = g.vertex(depth, i)
            m = endpoint_measure(g, v)
            for row in m.rows.values():
                assert sum(p for _, _, p in row) == 1
                assert all(isinstance(p, Fraction) for _, _, p in row)


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


def test_markov_row_validation():
    g = build_graph(build_young_poset([2, 1]), 3)
    rows = {
        (0, 0): ((1, 0, Fraction(1, 2)),),  # sums to 1/2
    }
    with pytest.raises(ValueError):
        ExplicitMarkov(g, rows, name="broken")


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
    assert a == b
    a.validate()
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
            for mu in GrowthPath(cells).shapes():
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
        RSKThoma(())
    with pytest.raises(ValueError):
        RSKThoma((0.7, 0.2))
    with pytest.raises(ValueError):
        RSKThoma((1.2, -0.2))
    assert RSKThoma((0.5, 0.5)).has_ties
    assert not RSKThoma((0.7, 0.3)).has_ties


@pytest.mark.parametrize("alpha", [(math.nan,), (0.5, math.nan), (math.inf,), (0.5, math.inf)])
def test_rsk_alpha_rejects_non_finite(alpha):
    with pytest.raises(ValueError, match="finite"):
        RSKThoma(alpha)
    with pytest.raises(ValueError, match="finite"):
        sample_rsk_thoma(alpha, 5, 0)


def test_rsk_single_letter_single_row():
    path = sample_rsk_thoma((1.0,), 50, 3)
    assert path.shape() == (50,)
    (rep,) = estimate_frequency(RSKThoma((1.0,)), [HookIdeal(1, 0)], 50, 5, 3)
    assert rep.estimate == 1.0 and rep.stderr == 0.0


def test_rsk_two_letters_at_most_two_rows():
    for seed in range(10):
        path = sample_rsk_thoma((0.5, 0.5), 200, seed)
        assert len(path.shape()) <= 2
        path.validate()


def test_rsk_row_one_dominates_letter_one_count():
    # every copy of the smallest letter stays in row 1, so the first row
    # is at least as long as the letter-1 count
    for seed in range(10):
        path = sample_rsk_thoma((0.7, 0.3), 500, seed)
        ones = sum(1 for letter in path.letters if letter == 1)
        assert path.shape()[0] >= ones


def test_rsk_deterministic():
    assert sample_rsk_thoma((0.6, 0.4), 100, 11) == sample_rsk_thoma((0.6, 0.4), 100, 11)


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
        assert len(path.letters) == 600
        assert set(path.letters) <= set(range(1, len(alpha) + 1))
        rows = []
        assert path.cells == tuple(row_insert(rows, letter) for letter in path.letters)


@pytest.mark.parametrize("alpha", [(0.1,) * 10, UNIFORM_LONG], ids=lambda a: f"d{len(a)}")
def test_rsk_draw_past_the_float_sum_is_the_last_letter(alpha, monkeypatch):
    top = list(itertools.accumulate(alpha))[-1]
    assert top < 1
    draws = [top, math.nextafter(1.0, 0.0), 0.0, top]

    class Scripted(random.Random):
        def random(self):
            return draws.pop(0)

    monkeypatch.setattr(measures.random, "Random", Scripted)
    d = len(alpha)
    path = sample_rsk_thoma(alpha, 4, 0)
    assert path.letters == (d, d, 1, d)
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
    (rep,) = estimate_frequency(PlancherelYoung(), [FullIdeal()], 100, 10, 5)
    assert rep.estimate == 1.0
    assert rep.stderr == 0.0


def test_frequency_reports_deterministic():
    (a,) = estimate_frequency(PlancherelYoung(), [HookIdeal(1, 0)], 200, 10, 42)
    (b,) = estimate_frequency(PlancherelYoung(), [HookIdeal(1, 0)], 200, 10, 42)
    assert a == b
    assert a.csv_row() == b.csv_row()


def test_frequency_monotone_under_ideal_inclusion():
    # nested hooks on identical sampled paths
    chains = [HookIdeal(1, 0), HookIdeal(1, 1), HookIdeal(2, 1), HookIdeal(2, 2)]
    reports = estimate_frequency(PlancherelYoung(), chains, 300, 8, 17)
    for a, b in zip(reports, reports[1:]):
        for va, vb in zip(a.values, b.values):
            assert va <= vb
    rsk_reports = estimate_frequency(RSKThoma((0.6, 0.3, 0.1)), chains, 300, 8, 17)
    for a, b in zip(rsk_reports, rsk_reports[1:]):
        for va, vb in zip(a.values, b.values):
            assert va <= vb


def test_frequency_estimates_in_unit_interval():
    for spec in [PlancherelYoung(), RSKThoma((0.7, 0.3))]:
        for rep in estimate_frequency(spec, [HookIdeal(1, 0), HookIdeal(0, 2), FullIdeal()], 150, 6, 9):
            assert 0.0 <= rep.estimate <= 1.0


def test_finite_set_ideal_incompatible_with_growth_sampler():
    from posetpaths import finite_set_ideal

    with pytest.raises(ValueError):
        estimate_frequency(PlancherelYoung(), [finite_set_ideal([1])], 10, 2, 1)


def test_growth_hits_match_per_cell_count():
    # hits reads the final shape; the oracle tests every sampled cell
    ideals = [parse_ideal(t) for t in ["hook:0,0", "hook:1,0", "hook:0,1", "hook:2,3", "rays:2,5", "full"]]
    paths = [sample_plancherel(n, seed) for n in (1, 7, 300) for seed in range(4)]
    paths += [sample_rsk_thoma(alpha, 200, seed) for alpha in [(1.0,), (0.5, 0.3, 0.2)] for seed in range(3)]
    for path in paths:
        for ideal in ideals:
            expected = sum(member_coords(ideal, cell) for cell in path.cells)
            assert PlancherelYoung().hits(path, ideal) == expected, (path.shape(), ideal.name())
    from posetpaths import finite_set_ideal

    for ideal in [finite_set_ideal([1]), parse_ideal("rays:1,1,1")]:
        with pytest.raises(ValueError):
            PlancherelYoung().hits(paths[0], ideal)


def test_step_cap_boundary(monkeypatch):
    monkeypatch.setattr(measures, "STEP_CAP", 12)
    assert sample_plancherel(12, 1).n_steps == 12
    assert sample_rsk_thoma((0.5, 0.5), 12, 1).n_steps == 12
    with pytest.raises(CapExceeded):
        sample_plancherel(13, 1)
    with pytest.raises(CapExceeded):
        sample_rsk_thoma((0.5, 0.5), 13, 1)
    (rep,) = estimate_frequency(PlancherelYoung(), [FullIdeal()], 4, 3, 1)
    assert rep.replicas == 3

    def no_sampling(*args):
        raise AssertionError("sampled past the cap")

    monkeypatch.setattr(measures, "sample_plancherel", no_sampling)
    with pytest.raises(CapExceeded):
        estimate_frequency(PlancherelYoung(), [FullIdeal()], 4, 4, 1)
    with pytest.raises(CapExceeded):
        compare_frequency_profiles([PlancherelYoung(), PlancherelYoung()], [FullIdeal()], 7, 2, 1)


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
        compare_frequency_profiles([PlancherelYoung()], [HookIdeal(1, 0)], 10, 2, 1)
    g = build_graph(build_young_poset([2, 1]), 3)
    m = endpoint_measure(g, g.vertex(3, 0))
    with pytest.raises(ValueError):
        compare_frequency_profiles([PlancherelYoung(), m], [HookIdeal(1, 0)], 3, 2, 1)


def test_compare_distinguishes_rsk_alphas():
    table = compare_frequency_profiles(
        [RSKThoma((0.7, 0.3)), RSKThoma((0.6, 0.4))],
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
            compare_frequency_profiles([PlancherelYoung(), PlancherelYoung()], [HookIdeal(1, 0)], 100, replicas, 1)


@pytest.mark.parametrize("threshold", [math.nan, math.inf, -1.0])
def test_compare_rejects_bad_threshold(threshold):
    with pytest.raises(ValueError, match="threshold"):
        compare_frequency_profiles(
            [RSKThoma((0.7, 0.3)), RSKThoma((0.6, 0.4))], [HookIdeal(1, 0)], 10, 2, 1, threshold
        )


def test_compare_same_law_indistinguishable():
    table = compare_frequency_profiles(
        [PlancherelYoung(), PlancherelYoung()],
        [HookIdeal(1, 0), HookIdeal(0, 1), HookIdeal(2, 2)],
        n_steps=400,
        replicas=30,
        seed=5,
    )
    (pair,) = table.pairs
    assert not pair.distinguished


def test_compare_plancherel_vs_rsk_distinguished():
    table = compare_frequency_profiles(
        [PlancherelYoung(), RSKThoma((0.7, 0.3))],
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
        assert path.shape()[0] == _longest_weakly_increasing(path.letters)


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
