from __future__ import annotations

import itertools

import pytest

from posetpaths import (
    CapExceeded,
    addable_elements,
    build_antichain_poset,
    build_box_poset,
    build_chain_poset,
    build_graph,
    build_young_poset,
    dimension,
    endpoint_measure,
    enumerate_numberings,
    numbering_of,
    parse_poset,
    path_measure,
    path_of,
    up_dimension,
    up_dimension_table,
)
from posetpaths.young import tableau_count

from oracles import bitmask_extension_count, brute_numberings, graph_csv, ideal_levels, partitions_of

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

# a --file poset that is no product: ids out of order (4 < 1, 7 < 3), two
# covers below 1 and below 3, and a branch 4 < 6 < 5 with nothing above it
FILE_WINDOW = parse_poset(
    "el 0\nel 1\nel 2\nel 3\nel 4\nel 5\nel 6\nel 7\nel 8\n"
    "cov 0 4\ncov 0 2\ncov 4 1\ncov 2 1\ncov 2 7\ncov 4 6\ncov 7 3\ncov 1 3\ncov 6 5\ncov 1 8\n"
)


def test_chain_graph_is_a_path():
    g = build_graph(build_chain_poset(4), 3)
    assert [len(lvl) for lvl in g.levels] == [1, 1, 1, 1]
    assert all(d == [1] for d in g.dims)


def test_young_21_top_dimension():
    g = build_graph(build_young_poset([2, 1]), 3)
    assert len(g.levels[3]) == 1
    assert g.dims[3][0] == 2
    assert g.dims[3][0] == len(enumerate_numberings(g.window, 4))


def test_box_33_full_depth_top_dimension():
    w = build_box_poset(2, (3, 3))
    g = build_graph(w, 8)
    assert len(g.levels[8]) == 1
    # frozen from the enumeration oracle (also the 3x3 tableau count)
    assert g.dims[8][0] == 42
    assert len(brute_numberings(w.poset, 9)) == 42


def test_depth_beyond_window_rejected():
    with pytest.raises(ValueError):
        build_graph(build_young_poset([2, 1]), 4)


def test_dims_match_enumeration_oracle_per_vertex():
    for w in CORPUS:
        full = w.poset.n - 1
        g = build_graph(w, full)
        for length in range(1, full + 2):
            by_endpoint: dict[frozenset, int] = {}
            for seq in brute_numberings(w.poset, length):
                key = frozenset(seq)
                by_endpoint[key] = by_endpoint.get(key, 0) + 1
            level = length - 1
            for i in range(len(g.levels[level])):
                v = g.vertex(level, i)
                assert g.dims[level][v.index] == by_endpoint.get(frozenset(v.ideal), 0), (
                    w.describe(),
                    v,
                )


@pytest.mark.parametrize(
    "window",
    [
        build_young_poset([6, 5, 4, 3, 2, 1]),
        build_box_poset(3, (3, 3, 3)),
        build_box_poset(4, (2, 2, 2, 3)),
    ],
    ids=lambda w: w.describe(),
)
def test_build_matches_level_oracle(window):
    full = window.poset.n - 1
    for depth in (0, 1, 4, full // 2, full):
        g = build_graph(window, depth)
        levels, edges, dims = ideal_levels(window.poset, depth)
        vertices = [[g.vertex(k, i) for i in range(len(lvl))] for k, lvl in enumerate(g.levels)]
        assert [[v.ideal for v in lvl] for lvl in vertices] == levels, depth
        assert g.up_edges == edges, depth
        assert g.dims == dims, depth
        for lvl in vertices:
            for v in lvl:
                assert g.vertex_of(v.ideal) == v


def test_vertex_of_rejects_sets_outside_the_graph():
    w = build_box_poset(2, (3, 3))
    g = build_graph(w, 4)
    ids = {w.poset.coords[x]: x for x in range(w.poset.n)}
    for ideal in ([ids[(2, 2)]], list(range(w.poset.n)), [w.poset.n], [-1]):
        with pytest.raises(KeyError):
            g.vertex_of(ideal)


def test_vertex_counts_levels_from_either_end_as_it_counts_indices():
    g = build_graph(build_young_poset([2, 1]), 3)
    top = g.vertex(3, 0)
    assert g.vertex(-1, 0) == top == g.vertex(-1, -1)
    assert g.vertex(-4, 0) == g.vertex(0, 0)
    for level in (4, -5):
        with pytest.raises(IndexError):
            g.vertex(level, 0)
    # a negative level once gave a depth -1 kernel with an empty path law
    assert path_measure(endpoint_measure(g, g.vertex(-1, 0))) == path_measure(endpoint_measure(g, top))
    assert len(path_measure(endpoint_measure(g, top))) == 2


def test_vertex_cap():
    # the cap is checked once per parent row: caps inside a level, at its
    # last vertex and one past it must all give the exact verdict
    w = build_box_poset(3, (3, 3, 3))  # 979 ideals
    sizes = [len(lvl) for lvl in build_graph(w, 26).levels]
    totals = list(itertools.accumulate(sizes))  # vertices through each level
    assert totals[-1] == 979
    caps = {c for t, s in zip(totals, sizes) for c in (t - s + 1, t - s // 2, t - 1, t, t + 1)}
    for cap in sorted(c for c in caps if c >= 1):
        if cap < 979:
            with pytest.raises(CapExceeded, match=f"graph exceeds {cap} vertices"):
                build_graph(w, 26, vertex_cap=cap)
        else:
            assert sum(len(lvl) for lvl in build_graph(w, 26, vertex_cap=cap).levels) == 979
    for depth in (1, 5, 13):
        assert len(build_graph(w, depth, vertex_cap=totals[depth]).levels) == depth + 1
        with pytest.raises(CapExceeded):
            build_graph(w, depth, vertex_cap=totals[depth] - 1)


def test_young_32_top_dim_is_5():
    g = build_graph(build_young_poset([3, 2]), 5)
    assert dimension(g, g.vertex(5, 0)) == 5


def test_root_dimension_is_one():
    for w in CORPUS:
        g = build_graph(w, 1)
        assert dimension(g, g.vertex(0, 0)) == 1


@pytest.mark.parametrize(
    "window", [*CORPUS, FILE_WINDOW, build_chain_poset(1)], ids=lambda w: w.describe()
)
def test_inline_child_step_matches_addable_elements(window):
    # the build grows each child's addable mask from its parent's, inline
    poset = window.poset
    full = poset.n - 1
    for depth in sorted({full // 2, full}):
        g = build_graph(window, depth)
        assert g.dims == ideal_levels(poset, depth)[2], depth
        for k, addables in enumerate(g._addables):
            for i, addable in enumerate(addables):
                ideal = g.vertex(k, i).ideal
                assert addable == poset.mask_of(addable_elements(poset, ideal)), (depth, ideal)


def test_edges_match_addable_elements():
    for w in CORPUS:
        g = build_graph(w, w.poset.n - 1)
        for level in range(g.depth):
            for i in range(len(g.levels[level])):
                v = g.vertex(level, i)
                added = sorted(x for x, _ in g.up_edges[level][v.index])
                assert added == addable_elements(w.poset, v.ideal)
                for x, j in g.up_edges[level][v.index]:
                    target = g.vertex(level + 1, j)
                    assert set(target.ideal) == set(v.ideal) | {x}


def test_up_dimension_basics():
    g = build_graph(build_young_poset([3, 2]), 5)
    top = g.vertex(5, 0)
    root = g.vertex(0, 0)
    assert up_dimension(g, top, top) == 1
    assert up_dimension(g, root, top) == dimension(g, top) == 5
    # incomparable vertices at equal level have no connecting path
    if len(g.levels[2]) > 1:
        assert up_dimension(g, g.vertex(2, 0), g.vertex(2, 1)) == 0


def test_up_dimension_young_shape_21_from_single_cell():
    g = build_graph(build_young_poset([2, 1]), 3)
    u = g.vertex_of((0, 1))
    v = g.vertex(3, 0)
    assert up_dimension(g, u, v) == 2


def test_up_dimension_counts_paths_by_brute_force():
    w = build_box_poset(2, (3, 3))
    g = build_graph(w, 6)
    # enumerate all root paths to level 6 and count pass-throughs per level-2 vertex
    paths = brute_numberings(w.poset, 7)
    for k in range(len(g.levels[2])):
        u = g.vertex(2, k)
        for i in range(len(g.levels[6])):
            v = g.vertex(6, i)
            crossing = sum(
                1
                for seq in paths
                if frozenset(seq) == frozenset(v.ideal)
                and frozenset(seq[:3]) == frozenset(u.ideal)
            )
            direct = up_dimension(g, u, v) * g.dims[2][u.index]
            assert crossing == direct, (u, v)


def test_counts_up_counts_numberings_and_paths_to_each_vertex():
    for w in CORPUS:
        for length in range(1, w.poset.n + 1):
            g = build_graph(w, length - 1)
            top = length - 1
            # all ones at the top: N at the root counts the numberings of this length
            assert g.counts_up(top, [1] * len(g.levels[top]))[0] == [bitmask_extension_count(w.poset, length)]
            for level in range(top + 1):
                for index in range(len(g.levels[level])):
                    # 1 at v alone: N(u) counts u -> v, and every level below v splits dim(v)
                    top_row = [int(i == index) for i in range(len(g.levels[level]))]
                    counts = g.counts_up(level, top_row)
                    assert len(counts) == level + 1
                    for k in range(level + 1):
                        assert sum(d * c for d, c in zip(g.dims[k], counts[k])) == g.dims[level][index]
                    v = g.vertex(level, index)
                    table = up_dimension_table(g, v)
                    assert table == {(level, index): 1, **{(k, u): c for k in range(level) for u, c in enumerate(counts[k])}}
                    for low in range(level + 1):
                        assert g.counts_up(level, top_row, low) == counts[low:]
                    # up_dimension reads one count off a shortened pass: it agrees with the table everywhere
                    for k in range(top + 1):
                        for u in range(len(g.levels[k])):
                            assert up_dimension(g, g.vertex(k, u), v) == table.get((k, u), 0)


def test_path_numbering_round_trip():
    w = build_young_poset([3, 2])
    g = build_graph(w, 5)
    for phi in enumerate_numberings(w, 6):
        chain = path_of(phi, g)
        assert [v.level for v in chain] == list(range(6))
        assert numbering_of(chain, g) == phi


def test_path_of_is_the_chain_of_prefix_ideals():
    for w in CORPUS:
        g = build_graph(w, w.poset.n - 1)
        for phi in enumerate_numberings(w, w.poset.n):
            assert path_of(phi, g) == [g.vertex_of(phi[: k + 1]) for k in range(len(phi))]


def test_path_of_young_21_example():
    w = build_young_poset([2, 1])
    g = build_graph(w, 3)
    chain = path_of((0, 1, 2), g)
    assert [v.ideal for v in chain] == [(0,), (0, 1), (0, 1, 2)]


def test_path_of_rejects_non_ideal_prefix():
    w = build_young_poset([2, 1])
    g = build_graph(w, 3)
    with pytest.raises(ValueError):
        path_of((0, 2, 1), g)


def test_young_branching_identity_up_to_12():
    from posetpaths.young import additions

    for n in range(0, 13):
        for lam in partitions_of(n):
            total = sum(tableau_count(mu) for mu, _ in additions(lam))
            assert total == (n + 1) * tableau_count(lam), lam


@pytest.mark.parametrize("fmt", ["text", "csv"])
def test_graph_command_builds_no_edges_or_vertex_objects(fmt, monkeypatch, capsys):
    from posetpaths import graded_graph
    from posetpaths.cli import main

    def forbidden(*args, **kwargs):
        raise AssertionError("graph output must read only masks and dims")

    monkeypatch.setattr(graded_graph.GradedGraph, "up_edges", property(forbidden))
    monkeypatch.setattr(graded_graph.LevelVertex, "__init__", forbidden)
    assert main(["graph", "--box", "2,2,3", "--format", fmt]) == 0
    last = {"text": "paths_to_top_level: 2452", "csv": "11,0,0 1 2 3 4 5 6 7 8 9 10 11,2452"}[fmt]
    assert capsys.readouterr().out.endswith(last + "\n")


def test_graph_csv_shape():
    g = build_graph(build_young_poset([2, 1]), 3)
    lines = g.csv().strip().splitlines()
    assert lines[0] == "level,index,ideal,dim"
    assert lines[1] == "0,0,0,1"
    assert lines[-1] == "3,0,0 1 2 3,2"


@pytest.mark.parametrize(
    "window,depth",
    [
        (build_chain_poset(1), 0),  # n = 1: the low half holds no id
        (build_chain_poset(2), 1),
        (build_young_poset([2, 1]), 3),
        (build_box_poset(2, (3, 3)), 8),  # odd n
        (FILE_WINDOW, 8),
        (build_box_poset(3, (3, 3, 3)), 26),
        (build_box_poset(3, (3, 3, 3)), 5),
        (build_young_poset([7, 6, 5, 4, 3, 2, 1]), 9),
        (build_antichain_poset(60), 2),  # n = 61: a 31-bit high half
        (build_antichain_poset(63), 2),  # n = 64: both halves past one 30-bit digit
        (build_antichain_poset(64), 2),  # n = 65
        (build_box_poset(3, (4, 4, 4)), 7),
        (build_chain_poset(70), 69),
    ],
    ids=lambda v: v.describe() if hasattr(v, "describe") else f"depth{v}",
)
def test_csv_matches_decoding_each_mask_on_its_own(window, depth):
    g = build_graph(window, depth)
    got, want = g.csv(), graph_csv(g)
    same = got == want  # name the first differing row, not a diff of the whole dump
    assert same, next(pair for pair in zip(got.split("\n"), want.split("\n")) if pair[0] != pair[1])


def test_numbering_of_rejects_chains_that_are_no_paths():
    g = build_graph(build_young_poset([2, 1]), 3)
    root, one, two, top = g.vertex(0, 0), g.vertex_of((0, 1)), g.vertex_of((0, 1, 2)), g.vertex(3, 0)
    with pytest.raises(ValueError, match="must start at the root vertex"):
        numbering_of([one, two], g)
    with pytest.raises(ValueError, match="must climb one level per step"):
        numbering_of([root, one, top], g)
    assert numbering_of([root, one, two], g) == (0, 1, 2)
    g = build_graph(build_young_poset([3, 2]), 3)
    chain = [g.vertex_of(ideal) for ideal in ((0,), (0, 1), (0, 1, 4), (0, 1, 2, 3))]
    with pytest.raises(ValueError, match=r"\{0 1 2 3\} does not cover \{0 1 4\}"):
        numbering_of(chain, g)


def test_path_of_rejects_a_numbering_past_the_graph_depth():
    g = build_graph(build_young_poset([2, 1]), 2)
    with pytest.raises(ValueError, match="numbering of length 4 exceeds graph depth 2"):
        path_of((0, 1, 2, 3), g)


def test_up_dimension_is_zero_from_above():
    g = build_graph(build_young_poset([2, 1]), 3)
    assert up_dimension(g, g.vertex(3, 0), g.vertex_of((0, 1))) == 0
