"""Independent answers for the benchmark's value checks.

Nothing here imports `posetpaths` or the repository's tests: every
expected value is recomputed from first principles (hook lengths,
a bitmask dynamic program over order ideals, factorials, the sigma
action on linear extensions) so a wrong program answer cannot be
matched by a shared bug.

Element ids follow the program's documented conventions: a box window
numbers its lattice points lexicographically by coordinates (the
all-ones corner is id 0, the root); a Young window puts the root at
id 0 and numbers the cells 1.. in row-major order.
"""

from __future__ import annotations

import itertools
from math import factorial


class Poset:
    """A finite poset as lower-cover bitmasks; element 0 is the root."""

    def __init__(self, n: int, covers):
        self.n = n
        self.lower = [0] * n
        for lo, hi in covers:
            self.lower[hi] |= 1 << lo
        self.less = self._strict_lower_sets()

    def _strict_lower_sets(self) -> list[int]:
        # ids are topologically ordered in both window families
        below = [0] * self.n
        for x in range(self.n):
            m = self.lower[x]
            acc = m
            for y in range(x):
                if m >> y & 1:
                    acc |= below[y]
            below[x] = acc
        return below

    def comparable(self, a: int, b: int) -> bool:
        return bool(self.less[b] >> a & 1 or self.less[a] >> b & 1)


def box_poset(bounds) -> Poset:
    points = sorted(itertools.product(*(range(1, b + 1) for b in bounds)))
    ids = {p: k for k, p in enumerate(points)}
    covers = []
    for p in points:
        for axis in range(len(bounds)):
            q = p[:axis] + (p[axis] + 1,) + p[axis + 1:]
            if q in ids:
                covers.append((ids[p], ids[q]))
    return Poset(len(points), covers)


def young_cells(parts) -> list[tuple[int, int]]:
    return [(r, c) for r in range(1, len(parts) + 1) for c in range(1, parts[r - 1] + 1)]


def young_poset(parts) -> Poset:
    cells = young_cells(parts)
    ids = {cell: k + 1 for k, cell in enumerate(cells)}
    covers = [(0, 1)]
    for (r, c), k in ids.items():
        for nb in ((r, c + 1), (r + 1, c)):
            if nb in ids:
                covers.append((k, ids[nb]))
    return Poset(len(cells) + 1, covers)


def antichain_poset(n: int) -> Poset:
    return Poset(n + 1, [(0, k) for k in range(1, n + 1)])


def hook_length_count(parts) -> int:
    """Standard Young tableaux of a shape: n! / product of hook lengths."""
    conj = [sum(1 for p in parts if p >= c) for c in range(1, parts[0] + 1)]
    hooks = 1
    for r, row in enumerate(parts, start=1):
        for c in range(1, row + 1):
            hooks *= (row - c) + (conj[c - 1] - r) + 1
    return factorial(sum(parts)) // hooks


def ideal_levels(poset: Poset) -> list[list[tuple[tuple[int, ...], int]]]:
    """Every order ideal containing the root, by level (non-root size).

    Each level lists (sorted ids, number of root-to-ideal paths) in
    lexicographic order of the id tuples. The path count is the number of
    linear extensions of the ideal, built by a bitmask DP.
    """
    n = poset.n
    level = {1: 1}
    out = []
    for _ in range(n):
        out.append(level)
        nxt: dict[int, int] = {}
        for mask, count in level.items():
            for x in range(1, n):
                bit = 1 << x
                if not mask & bit and poset.lower[x] & mask == poset.lower[x]:
                    nxt[mask | bit] = nxt.get(mask | bit, 0) + count
        level = nxt
    return [
        sorted((tuple(i for i in range(n) if mask >> i & 1), count) for mask, count in lvl.items())
        for lvl in out
    ]


def linear_extensions(poset: Poset) -> list[tuple[int, ...]]:
    """All full-length numberings (root first) in lexicographic order."""
    n = poset.n
    out = []
    prefix = [0]

    def extend(mask):
        if len(prefix) == n:
            out.append(tuple(prefix))
            return
        for x in range(1, n):
            if not mask >> x & 1 and poset.lower[x] & mask == poset.lower[x]:
                prefix.append(x)
                extend(mask | 1 << x)
                prefix.pop()

    extend(1)
    return out


def sigma_perms(poset: Poset, paths) -> dict[int, tuple[int, ...]]:
    """sigma_i as a permutation of path indices, for i in 1..length-2."""
    index = {p: k for k, p in enumerate(paths)}
    length = len(paths[0])
    perms = {}
    for i in range(1, length - 1):
        perm = []
        for p in paths:
            if poset.comparable(p[i], p[i + 1]):
                perm.append(index[p])
            else:
                q = p[:i] + (p[i + 1], p[i]) + p[i + 2:]
                perm.append(index[q])
        perms[i] = tuple(perm)
    return perms


LOCAL_TAG = {1: "trivial", 2: "Z2-swap", 3: "3-cycle-class", 6: "S3-class"}


def local_classes(poset: Poset, paths) -> dict[int, tuple[int, int, list[str]]]:
    """For adjacent pairs (sigma_i, sigma_{i+1}): product order, order of the
    generated group, and the sorted orbit tags `size:tag`.

    An orbit of the pair reorders the three entries at positions i..i+2,
    so its size is the number of linear extensions of those three
    elements: 1, 2, 3 or 6, with groups trivial, Z2, S3 on three points
    and S3 acting regularly.
    """
    perms = sigma_perms(poset, paths)
    out = {}
    for i in perms:
        if i + 1 not in perms:
            continue
        a, b = perms[i], perms[i + 1]
        ab = tuple(a[x] for x in b)
        group = _closure(a, b)
        sizes = []
        seen = [False] * len(a)
        for s in range(len(a)):
            if seen[s]:
                continue
            stack, size = [s], 0
            seen[s] = True
            while stack:
                x = stack.pop()
                size += 1
                for y in (a[x], b[x]):
                    if not seen[y]:
                        seen[y] = True
                        stack.append(y)
            sizes.append(size)
        tags = sorted((size, LOCAL_TAG[size]) for size in sizes)
        out[i] = (_perm_order(ab), group, [f"{size}:{tag}" for size, tag in tags])
    return out


def _closure(a, b) -> int:
    ident = tuple(range(len(a)))
    seen = {ident}
    frontier = [ident]
    while frontier:
        nxt = []
        for p in frontier:
            for g in (a, b):
                q = tuple(g[x] for x in p)
                if q not in seen:
                    seen.add(q)
                    nxt.append(q)
        frontier = nxt
    return len(seen)


def _perm_order(p) -> int:
    order = 1
    seen = [False] * len(p)
    for s in range(len(p)):
        length = 0
        x = s
        while not seen[x]:
            seen[x] = True
            x = p[x]
            length += 1
        if length:
            a, b = order, length
            while b:
                a, b = b, a % b
            order = order * length // a
    return order


def growth_cells_valid(cells, max_rows: int | None = None) -> bool:
    """True when each (row, col) cell extends a Young diagram by one box."""
    rows: list[int] = []
    for r, c in cells:
        if r < 1 or r > len(rows) + 1:
            return False
        if r == len(rows) + 1:
            rows.append(0)
        if c != rows[r - 1] + 1 or (r >= 2 and rows[r - 2] < c):
            return False
        rows[r - 1] += 1
    return max_rows is None or len(rows) <= max_rows
