from __future__ import annotations

import pytest

from posetpaths import (
    CapExceeded,
    build_antichain_poset,
    build_box_poset,
    build_chain_poset,
    build_graph,
    build_young_poset,
    dimension,
    enumerate_numberings,
    numbering_of,
    path_of,
    up_dimension,
)
from posetpaths.young import tableau_count

from oracles import brute_numberings, ideal_levels, partitions_of

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


def test_vertex_cap():
    w = build_box_poset(3, (3, 3, 3))  # 979 ideals
    assert sum(len(lvl) for lvl in build_graph(w, 26, vertex_cap=979).levels) == 979
    with pytest.raises(CapExceeded):
        build_graph(w, 26, vertex_cap=978)


def test_young_32_top_dim_is_5():
    g = build_graph(build_young_poset([3, 2]), 5)
    assert dimension(g, g.vertex(5, 0)) == 5


def test_root_dimension_is_one():
    for w in CORPUS:
        g = build_graph(w, 1)
        assert dimension(g, g.vertex(0, 0)) == 1


def test_edges_match_addable_elements():
    from posetpaths import addable_elements

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


def test_path_numbering_round_trip():
    w = build_young_poset([3, 2])
    g = build_graph(w, 5)
    for phi in enumerate_numberings(w, 6):
        chain = path_of(phi, g)
        assert [v.level for v in chain] == list(range(6))
        assert numbering_of(chain, g) == phi


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
