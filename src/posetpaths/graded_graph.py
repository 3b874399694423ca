"""The graded graph of finite ideals of a poset window, and its paths.

Level k holds the downward-closed sets with k non-root elements (the
root is always present and not counted); an up-edge adds exactly one
element. Path counts are exact big integers, never floats: the counts
from the root ("dimensions", `dims`) are summed as the graph is built,
and `counts_up` is the one backward pass, from weights at a level down.
A monotone numbering of length k+1 is a path from the root to level k,
so `enumerate_numberings` lists them level by level from `up_edges`,
gluing each ideal's completions, built once, to the prefixes that reach
it; a level's dims sum to their number before any is listed.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from itertools import compress
from operator import mul

from .posets import (
    ROOT,
    CapExceeded,
    PosetWindow,
    addable_elements,  # noqa: F401  (bench/spans.py traces the name here)
    validate_numbering,
)

DEFAULT_VERTEX_CAP = 1_000_000
KEPT_TAIL = 4  # positions past the depth where `enumerate_numberings` glues prefixes to completions

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

    The build runs on the bitmask ideal core of `posets`: each new child
    mask gets its addable mask from its parent's, grown by the upper
    covers of the added element whose lower covers it now holds
    (tests/test_graded_graph.py pins it against `addable_elements` on
    every vertex), and a child's dimension accumulates over the edges
    that reach it. Ids are bits n-1-x, so a level's masks sorted in
    descending order list its ideals lexicographically.
    `up_edges[k][i]`, the (added id, index at level k+1) rows sorted by
    added id, is derived on first read. Raises CapExceeded when the
    graph would hold more than `vertex_cap` vertices, the root included
    (None: no cap); the count is checked after each parent's children.
    It also raises, before building a level, when that level's dims
    would sum past `path_cap`: they count the numberings one position
    longer, and no longer length has fewer, so the verdict is exact.
    """

    def __init__(
        self, window: PosetWindow, depth: int, vertex_cap: int | None = DEFAULT_VERTEX_CAP, path_cap: int | None = None
    ):
        poset = window.poset
        if not (0 <= depth <= poset.n - 1):
            raise ValueError(
                f"depth must be in 0..{poset.n - 1} for {window.describe()}, got {depth}"
            )
        self.window = window
        self.depth = depth
        n, grow = poset.n, poset._grow
        masks, addables, dims = [0], [poset.bit(ROOT)], [1]  # the empty set: the root is its one child
        self.levels, self._addables, self.dims = [], [], []
        vertex_cap = float("inf") if vertex_cap is None else vertex_cap
        total = 0
        for _ in range(depth + 1):
            # each edge carries its parent's dim, so these are the next level's dims summed
            if path_cap is not None and sum(map(mul, dims, map(int.bit_count, addables))) > path_cap:
                raise CapExceeded(f"more than {path_cap} numberings")
            children: dict[int, list[int]] = {}  # child mask -> [its addable mask, its dim]
            get = children.get
            for mask, addable, dim in zip(masks, addables, dims):
                rest = addable
                while rest:
                    bit = rest & -rest
                    rest ^= bit
                    child = mask | bit
                    entry = get(child)
                    if entry is not None:
                        entry[1] += dim
                        continue
                    grown = addable ^ bit
                    for up, needs in grow[n - bit.bit_length()]:
                        if needs & child == needs:
                            grown |= up
                    children[child] = [grown, dim]
                if total + len(children) > vertex_cap:  # children only grow: exact verdict
                    raise CapExceeded(f"graph exceeds {vertex_cap} vertices")
            total += len(children)
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

    def counts_up(self, level: int, top, low: int = 0) -> list[list[int]]:
        """Per level `low`..`level`, N(u) = the sum of N(w) over u's up-edges,
        with N at `level` the weights `top`: 1 at v alone counts the paths
        u -> v, 1 everywhere the paths from u up to `level`."""
        counts = [list(top)]
        for rows in reversed(self.up_edges[low:level]):
            above = counts[-1]
            counts.append([sum(above[j] for _, j in row) for row in rows])
        counts.reverse()
        return counts

    def vertex(self, level: int, index: int) -> LevelVertex:
        level = range(len(self.levels))[level]  # IndexError past either end, as for index
        index = range(len(self.levels[level]))[index]
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
        """Per-level dump: level,index,ideal,dim (ideal ids space-joined).

        Each mask splits into a high half (ids 0..n-low-1, the root among
        them, so never empty) and a low half; each half's id string is
        decoded once per call, the low one with its leading space.
        """
        n = self.window.poset.n
        low = n // 2
        high_ids = [str(x) for x in range(n - low)]
        low_ids = [f" {x}" for x in range(n - low, n)]
        high_width, low_width, low_mask = f"0{n - low}b", f"0{low}b", (1 << low) - 1
        high_text: dict[int, str] = {}
        low_text: dict[int, str] = {}
        lines = ["level,index,ideal,dim"]
        for level, (masks, dims) in enumerate(zip(self.levels, self.dims)):
            for i, (mask, dim) in enumerate(zip(masks, dims)):
                high, rest = mask >> low, mask & low_mask
                head = high_text.get(high)
                if head is None:
                    bits = format(high, high_width).encode().translate(_BITS)
                    head = high_text[high] = " ".join(compress(high_ids, bits))
                tail = low_text.get(rest)
                if tail is None:
                    bits = format(rest, low_width).encode().translate(_BITS)
                    tail = low_text[rest] = "".join(compress(low_ids, bits))
                lines.append(f"{level},{i},{head}{tail},{dim}")
        return "\n".join(lines) + "\n"


def build_graph(
    window: PosetWindow, depth: int, vertex_cap: int = DEFAULT_VERTEX_CAP
) -> GradedGraph:
    return GradedGraph(window, depth, vertex_cap)


def enumerate_numberings(
    window: PosetWindow, length: int, limit: int | None = None
) -> list[tuple[int, ...]]:
    """All monotone numberings of the given length, in lexicographic id order.

    `limit` caps the number of numberings produced; exceeding it raises
    CapExceeded from the graph build (`limit` is its path cap, and it has
    no vertex cap), off a level's dims, before any numbering is listed.

    Every prefix that reaches an ideal continues with the same completions,
    so the list is built level by level from `up_edges`, meeting at the glue
    depth `stop = length - 1 - KEPT_TAIL`. From the top level down to
    `stop`, each ideal's completions are built once, from its children's;
    from the root up to `stop`, the prefixes are built with the index of the
    ideal each reaches; then every prefix is glued to each completion of its
    ideal. Each row lists its added ids in ascending order, so both lists,
    and the output, are lexicographic. No ideal at level 0 or 1 is reached
    by two prefixes, so when `stop` falls below 2 nothing is glued: the
    prefixes run to the level below the top, and the completions are
    1-tuples, one per up-edge into the top level. KEPT_TAIL is 4: at 3 the long narrow windows (box
    2,2,3, young 5,3,2,1 and antichain 8 at full length) took 1.2 to 1.5
    times as long, as more levels of prefixes are built; at 5 antichain 6
    at full length no longer glues and took 1.7 times as long.
    """
    if not (1 <= length <= window.poset.n):
        raise ValueError(f"length must be in 1..{window.poset.n}, got {length}")
    rows = GradedGraph(window, length - 1, vertex_cap=None, path_cap=limit).up_edges
    if length == 1:
        return [(ROOT,)]
    last = length - 1
    stop = last - KEPT_TAIL
    if stop < 2:
        stop = last - 1
    comps = [[(x,) for x, _ in row] for row in rows[last - 1]]  # per ideal at level k: its completions
    for k in range(last - 2, stop - 1, -1):
        comps = [[(x,) + c for x, w in row for c in comps[w]] for row in rows[k]]
    heads, ends = [(ROOT,)], [0]  # the prefixes to level k, and the index of each one's ideal there
    for k in range(stop):
        heads = [p + (x,) for p, v in zip(heads, ends) for x, _ in rows[k][v]]
        ends = [w for v in ends for _, w in rows[k][v]]
    return [p + c for p, v in zip(heads, ends) for c in comps[v]]


def dimension(g: GradedGraph, v: LevelVertex) -> int:
    """Exact number of root-to-v monotone paths."""
    return g.dims[v.level][v.index]


def up_dimension_table(g: GradedGraph, v: LevelVertex) -> dict[tuple[int, int], int]:
    """Path counts u -> v, keyed (level, index), for v and every vertex u
    at the levels below it (0 when u is not below v): `counts_up` from v."""
    counts = g.counts_up(v.level, [int(i == v.index) for i in range(len(g.levels[v.level]))])
    return {(v.level, v.index): 1} | {(k, i): c for k in range(v.level - 1, -1, -1) for i, c in enumerate(counts[k])}


def up_dimension(g: GradedGraph, u: LevelVertex, v: LevelVertex) -> int:
    """Number of monotone paths u -> v; 0 when u is not contained in v."""
    if u.level > v.level:
        return 0
    top = [int(i == v.index) for i in range(len(g.levels[v.level]))]
    return g.counts_up(v.level, top, u.level)[0][u.index]


def path_of(numbering: tuple[int, ...], g: GradedGraph) -> list[LevelVertex]:
    """The vertex chain visited by a numbering (prefix ideals, in order)."""
    numbering = validate_numbering(g.window.poset, numbering)
    if len(numbering) - 1 > g.depth:
        raise ValueError(
            f"numbering of length {len(numbering)} exceeds graph depth {g.depth}"
        )
    out, mask = [], 0
    for level, x in enumerate(numbering):
        mask |= g.window.poset.bit(x)
        out.append(g.vertex(level, g._index[level][mask]))
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
