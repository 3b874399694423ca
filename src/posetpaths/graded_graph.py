"""The graded graph of finite ideals of a poset window.

Level k holds the downward-closed sets with k non-root elements (the
root is always present and not counted); an up-edge adds exactly one
element. Path counts from the root ("dimensions") are exact big
integers; counting never touches floating point.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from itertools import compress

from .posets import (
    ROOT,
    CapExceeded,
    PosetWindow,
    add_element,
    addable_elements,  # noqa: F401  (bench/spans.py traces the name here)
    validate_numbering,
)

DEFAULT_VERTEX_CAP = 1_000_000

_BITS = bytes.maketrans(b"01", b"\x00\x01")  # "0"/"1" digits -> falsy/truthy bytes


@dataclass(frozen=True, slots=True)
class LevelVertex:
    level: int
    index: int
    ideal: tuple[int, ...]  # sorted ids, root included

    def describe(self) -> str:
        return "{" + " ".join(str(i) for i in self.ideal) + "}"


class GradedGraph:
    """Per level: ideal masks (`levels`), their addable masks and their
    exact root path counts (`dims`); edges and vertices are decoded on demand.

    The build runs on the bitmask ideal core of `posets`: `add_element`
    gives each new child mask its addable mask, and a child's dimension
    accumulates over the edges that reach it. Ids are bits n-1-x, so a
    level's masks sorted in descending order list its ideals
    lexicographically. `up_edges[k][i]`, the (added id, index at level
    k+1) rows sorted by added id, is derived on first read. Raises
    CapExceeded when the graph would hold more than `vertex_cap`
    vertices, the root included.
    """

    def __init__(self, window: PosetWindow, depth: int, vertex_cap: int = DEFAULT_VERTEX_CAP):
        poset = window.poset
        if not (0 <= depth <= poset.n - 1):
            raise ValueError(
                f"depth must be in 0..{poset.n - 1} for {window.describe()}, got {depth}"
            )
        self.window = window
        self.depth = depth
        n = poset.n
        root, root_addable = add_element(poset, 0, poset.bit(ROOT), ROOT)
        masks, addables, dims = [root], [root_addable], [1]
        self.levels, self._addables, self.dims = [masks], [addables], [dims]
        total = 1
        for _ in range(depth):
            children: dict[int, list[int]] = {}  # child mask -> [its addable mask, its dim]
            for mask, addable, dim in zip(masks, addables, dims):
                rest = addable
                while rest:
                    bit = rest & -rest
                    rest ^= bit
                    entry = children.get(mask | bit)
                    if entry is not None:
                        entry[1] += dim
                        continue
                    total += 1
                    if total > vertex_cap:
                        raise CapExceeded(f"graph exceeds {vertex_cap} vertices")
                    children[mask | bit] = [add_element(poset, mask, addable, n - bit.bit_length())[1], dim]
            masks = sorted(children, reverse=True)
            addables = [children[m][0] for m in masks]
            dims = [children[m][1] for m in masks]
            self.levels.append(masks)
            self.dims.append(dims)
            self._addables.append(addables)

    @cached_property
    def _index(self) -> list[dict[int, int]]:  # per level: ideal mask -> index
        return [{m: i for i, m in enumerate(masks)} for masks in self.levels]

    @cached_property
    def up_edges(self) -> list[list[list[tuple[int, int]]]]:
        n = self.window.poset.n
        out = []
        for level in range(self.depth):
            index = self._index[level + 1]
            rows = []
            for mask, rest in zip(self.levels[level], self._addables[level]):
                row = []
                while rest:  # highest bit first: ascending added id
                    top = rest.bit_length()
                    bit = 1 << (top - 1)
                    rest ^= bit
                    row.append((n - top, index[mask | bit]))
                rows.append(row)
            out.append(rows)
        out.append([[] for _ in self.levels[self.depth]])
        return out

    def vertex(self, level: int, index: int) -> LevelVertex:
        index = range(len(self.levels[level]))[index]  # IndexError past either end
        n = self.window.poset.n
        bits = format(self.levels[level][index], f"0{n}b").encode().translate(_BITS)
        return LevelVertex(level, index, tuple(compress(range(n), bits)))

    def vertex_of(self, ideal) -> LevelVertex:
        key = tuple(sorted(set(ideal) | {ROOT}))
        poset = self.window.poset
        level = len(key) - 1
        if 0 <= key[0] and key[-1] < poset.n and level <= self.depth:
            index = self._index[level].get(poset.mask_of(key))
            if index is not None:
                return LevelVertex(level, index, key)
        raise KeyError(f"ideal {key} not in graph (depth {self.depth})")

    def csv(self) -> str:
        """Per-level dump: level,index,ideal,dim (ideal ids space-joined)."""
        n = self.window.poset.n
        ids, width = [str(x) for x in range(n)], f"0{n}b"
        lines = ["level,index,ideal,dim"]
        for level, (masks, dims) in enumerate(zip(self.levels, self.dims)):
            for i, (mask, dim) in enumerate(zip(masks, dims)):
                ideal = " ".join(compress(ids, format(mask, width).encode().translate(_BITS)))
                lines.append(f"{level},{i},{ideal},{dim}")
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
