"""The graded graph of finite ideals of a poset window.

Level k holds the downward-closed sets with k non-root elements (the
root is always present and not counted); an up-edge adds exactly one
element. Path counts from the root ("dimensions") are exact big
integers; counting never touches floating point.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass

from .posets import (
    ROOT,
    CapExceeded,
    PosetWindow,
    add_element,
    addable_elements,  # noqa: F401  (bench/spans.py traces the name here)
    validate_numbering,
)

DEFAULT_VERTEX_CAP = 1_000_000


@dataclass(frozen=True, slots=True)
class LevelVertex:
    level: int
    index: int
    ideal: tuple[int, ...]  # sorted ids, root included

    def describe(self) -> str:
        return "{" + " ".join(str(i) for i in self.ideal) + "}"


class GradedGraph:
    """Levels of ideal vertices with up-edges and exact path counts.

    The build runs on the bitmask ideal core of `posets`: each vertex is
    an int mask carried together with the mask of its addable elements,
    and `add_element` updates the pair from the upper covers of the
    element added. A child reached along several edges is computed once;
    its sorted id tuple is its parent's with the added id inserted.
    Ids are stored as bit n-1-x, so sorting a level's masks in descending
    order lists its ideals lexicographically by their sorted id tuples:
    (level, index) coordinates are deterministic across runs, and edge
    rows, read from the highest addable bit down, are sorted by the added
    id. Raises CapExceeded when the graph would hold more than
    `vertex_cap` vertices.
    """

    def __init__(self, window: PosetWindow, depth: int, vertex_cap: int = DEFAULT_VERTEX_CAP):
        poset = window.poset
        if not (0 <= depth <= poset.n - 1):
            raise ValueError(
                f"depth must be in 0..{poset.n - 1} for {window.describe()}, got {depth}"
            )
        self.window = window
        self.depth = depth
        self.levels: list[list[LevelVertex]] = []
        self.up_edges: list[list[list[tuple[int, int]]]] = []
        self.dims: list[list[int]] = []
        # per level: ideal mask -> index
        self._index: list[dict[int, int]] = []

        n = poset.n
        root, root_addable = add_element(poset, 0, poset.bit(ROOT), ROOT)
        masks, addables, ideals = [root], [root_addable], [(ROOT,)]
        index = {root: 0}
        total = 1
        for level in range(depth + 1):
            self.levels.append(
                [LevelVertex(level, i, ideal) for i, ideal in enumerate(ideals)]
            )
            self._index.append(index)
            if level == depth:
                self.up_edges.append([[] for _ in masks])
                break
            # child mask -> (its addable mask, its sorted id tuple)
            children: dict[int, tuple[int, tuple[int, ...]]] = {}
            rows = []
            for mask, addable, ideal in zip(masks, addables, ideals):
                row = []
                rest = addable
                while rest:
                    top = rest.bit_length()
                    bit = 1 << (top - 1)
                    rest ^= bit
                    child = mask | bit
                    x = n - top
                    if child not in children:
                        total += 1
                        if total > vertex_cap:
                            raise CapExceeded(f"graph exceeds {vertex_cap} vertices")
                        at = bisect_right(ideal, x)
                        children[child] = (
                            add_element(poset, mask, addable, x)[1],
                            ideal[:at] + (x,) + ideal[at:],
                        )
                    row.append((x, child))
                rows.append(row)
            masks = sorted(children, reverse=True)
            addables = [children[m][0] for m in masks]
            ideals = [children[m][1] for m in masks]
            index = {m: i for i, m in enumerate(masks)}
            self.up_edges.append([[(x, index[c]) for x, c in row] for row in rows])

        self.dims = [[0] * len(lvl) for lvl in self.levels]
        self.dims[0][0] = 1
        for level in range(self.depth):
            for i, row in enumerate(self.up_edges[level]):
                for _, j in row:
                    self.dims[level + 1][j] += self.dims[level][i]

    def vertex(self, level: int, index: int) -> LevelVertex:
        return self.levels[level][index]

    def vertex_of(self, ideal) -> LevelVertex:
        key = tuple(sorted(set(ideal) | {ROOT}))
        poset = self.window.poset
        level = len(key) - 1
        if 0 <= key[0] and key[-1] < poset.n and level <= self.depth:
            index = self._index[level].get(poset.mask_of(key))
            if index is not None:
                return self.levels[level][index]
        raise KeyError(f"ideal {key} not in graph (depth {self.depth})")

    def csv(self) -> str:
        """Per-level dump: level,index,ideal,dim (ideal ids space-joined)."""
        lines = ["level,index,ideal,dim"]
        for lvl in self.levels:
            for v in lvl:
                ideal = " ".join(map(str, v.ideal))
                lines.append(f"{v.level},{v.index},{ideal},{self.dims[v.level][v.index]}")
        return "\n".join(lines) + "\n"


def build_graph(
    window: PosetWindow, depth: int, vertex_cap: int = DEFAULT_VERTEX_CAP
) -> GradedGraph:
    return GradedGraph(window, depth, vertex_cap)


def dimension(g: GradedGraph, v: LevelVertex) -> int:
    """Exact number of root-to-v monotone paths."""
    return g.dims[v.level][v.index]


def up_dimension_table(g: GradedGraph, v: LevelVertex) -> dict[tuple[int, int], int]:
    """Path counts u -> v for every vertex u at levels <= level(v).

    Descending dynamic program seeded at v; vertices not below v get 0.
    """
    counts: dict[tuple[int, int], int] = {(v.level, v.index): 1}
    for level in range(v.level - 1, -1, -1):
        for i, row in enumerate(g.up_edges[level]):
            total = 0
            for _, j in row:
                total += counts.get((level + 1, j), 0)
            counts[(level, i)] = total
    return counts


def up_dimension(g: GradedGraph, u: LevelVertex, v: LevelVertex) -> int:
    """Number of monotone paths u -> v; 0 when u is not contained in v."""
    if u.level > v.level:
        return 0
    return up_dimension_table(g, v).get((u.level, u.index), 0)


def path_of(numbering: tuple[int, ...], g: GradedGraph) -> list[LevelVertex]:
    """The vertex chain visited by a numbering (prefix ideals, in order)."""
    numbering = validate_numbering(g.window.poset, numbering)
    if len(numbering) - 1 > g.depth:
        raise ValueError(
            f"numbering of length {len(numbering)} exceeds graph depth {g.depth}"
        )
    out = []
    seen: list[int] = []
    for x in numbering:
        seen.append(x)
        out.append(g.vertex_of(seen))
    return out


def numbering_of(vertices: list[LevelVertex], g: GradedGraph) -> tuple[int, ...]:
    """Inverse of path_of: recover the numbering from a root-based vertex chain."""
    if not vertices or vertices[0].ideal != (ROOT,):
        raise ValueError("vertex path must start at the root vertex")
    elems = [ROOT]
    for a, b in zip(vertices, vertices[1:]):
        if b.level != a.level + 1:
            raise ValueError("vertex path must climb one level per step")
        added = set(b.ideal) - set(a.ideal)
        if len(added) != 1 or not set(a.ideal) <= set(b.ideal):
            raise ValueError(f"{b.describe()} does not cover {a.describe()}")
        elems.append(added.pop())
    return validate_numbering(g.window.poset, elems)
