"""Young diagram utilities: exact tableau counts, corner data, row insertion.

Partitions are weakly decreasing tuples of positive ints. Cells are
(row, col), 1-based. Standard tableaux are counted by the hook-length
product; the lattice recursion that checks it lives in the tests' oracles.
"""

from __future__ import annotations

import bisect
import functools
from dataclasses import dataclass
from math import factorial


def check_partition(parts) -> tuple[int, ...]:
    p = tuple(int(x) for x in parts)
    if any(x < 1 for x in p):
        raise ValueError(f"partition parts must be >= 1, got {p}")
    if any(p[i] < p[i + 1] for i in range(len(p) - 1)):
        raise ValueError(f"partition must be weakly decreasing, got {p}")
    return p


def conjugate(parts: tuple[int, ...]) -> tuple[int, ...]:
    if not parts:
        return ()
    return tuple(sum(1 for p in parts if p > c) for c in range(parts[0]))


def hook_product(parts: tuple[int, ...]) -> int:
    conj = conjugate(parts)
    prod = 1
    for r in range(1, len(parts) + 1):
        for c in range(1, parts[r - 1] + 1):
            prod *= (parts[r - 1] - c) + (conj[c - 1] - r) + 1
    return prod


def tableau_count(parts) -> int:
    """Number of standard tableaux via the hook-length product (exact int)."""
    p = check_partition(parts)
    if not p:
        return 1
    return factorial(sum(p)) // hook_product(p)


def additions(parts: tuple[int, ...]) -> list[tuple[tuple[int, ...], tuple[int, int]]]:
    """Partitions obtained by adding one cell, with the cell, row-ascending."""
    out = []
    for r in range(len(parts) + 1):
        here = parts[r] if r < len(parts) else 0
        above = parts[r - 1] if r >= 1 else None
        if r == 0 or above > here:
            mu = list(parts)
            if r < len(parts):
                mu[r] += 1
            else:
                mu.append(1)
            out.append((tuple(mu), (r + 1, here + 1)))
    return out


def corner_probabilities(xs: list[float], ys: list[float]) -> list[float]:
    """Probabilities from interlacing corner contents.

    `xs` are the contents of the addable cells, `ys` of the removable
    cells, both strictly descending with xs interlacing ys
    (x_0 > y_0 > x_1 > ... > x_{m-1}). The weight of x_i is
    prod_j (x_i - y_j) / prod_{j != i} (x_i - x_j); pairing y_j with x_j
    for j < i and with x_{j+1} otherwise keeps every factor in (0, 1).

    No program route calls this: it is kept only because the benchmark
    tracer (`bench/spans.py`, `KERNELS`) resolves it as a `young.step`
    name. Delete it once the tracer drops it.
    """
    probs = []
    for i, x in enumerate(xs):
        p = 1.0
        for j, y in enumerate(ys):
            p *= (x - y) / (x - xs[j if j < i else j + 1])
        probs.append(p)
    total = sum(probs)
    return [p / total for p in probs]


def growth_step_arrays(rows: list[int], k: int) -> tuple[list[int], list[float], list[float]]:
    """Corner contents of the diagram whose row lengths are rows[:k].

    Returns (addable row indices 0-based excluding the fresh row, xs, ys)
    where xs already includes the fresh-row content as its last entry.
    Kept, like `corner_probabilities`, only as a traced `young.step` name.
    """
    act = rows[:k]
    add_idx = [i for i in range(k) if i == 0 or act[i - 1] > act[i]]
    xs = [float(act[i] - i) for i in add_idx] + [float(-k)]
    ys = [float(act[i] - i - 1) for i in range(k) if i == k - 1 or act[i] > act[i + 1]]
    return add_idx, xs, ys


@dataclass(frozen=True)
class GrowthPath:
    """A sampled growth of Young diagrams: the cell added at each step.

    `letters` carries the inserted word of a path drawn by row insertion
    from alpha, else None (Plancherel paths do not keep their uniform
    letters).
    """

    cells: tuple[tuple[int, int], ...]
    letters: tuple[int, ...] | None = None

    @property
    def n_steps(self) -> int:
        return len(self.cells)

    def shape(self) -> tuple[int, ...]:
        """The final diagram's row lengths, computed once per path: a
        frequency estimate reads them for every ideal it scores."""
        return self._shape

    @functools.cached_property
    def _shape(self) -> tuple[int, ...]:
        # each row grows left to right, so its last cell's column is its length
        last = dict(self.cells)
        return tuple(last[r] for r in sorted(last))

    def shapes(self):
        """The increasing chain of diagrams, one per step."""
        rows: list[int] = []
        out = []
        for r, c in self.cells:
            if r == len(rows) + 1:
                rows.append(0)
            rows[r - 1] += 1
            out.append(tuple(rows))
        return out

    def validate(self) -> None:
        """Every step must add an addable cell of the current diagram."""
        rows: list[int] = []
        for k, (r, c) in enumerate(self.cells):
            if r < 1 or r > len(rows) + 1:
                raise ValueError(f"step {k}: row {r} skips a row")
            cur = rows[r - 1] if r <= len(rows) else 0
            if c != cur + 1:
                raise ValueError(f"step {k}: cell {(r, c)} does not extend row {r}")
            if r >= 2 and rows[r - 2] < c:
                raise ValueError(f"step {k}: cell {(r, c)} overhangs row above")
            if r > len(rows):
                rows.append(0)
            rows[r - 1] += 1


def row_insert(rows: list[list[int]], letter: int) -> tuple[int, int]:
    """Standard row insertion; returns the (row, col) of the new cell, 1-based.

    Rows are weakly increasing; the inserted letter bumps the leftmost
    strictly greater entry.
    """
    x = letter
    for r, row in enumerate(rows):
        k = bisect.bisect_right(row, x)
        if k == len(row):
            row.append(x)
            return (r + 1, len(row))
        row[k], x = x, row[k]
    rows.append([x])
    return (len(rows), 1)


def row_insert_counts(word, d: int) -> list[tuple[int, int]]:
    """Row-insert a word over the letters 0..d-1 into an empty tableau and
    return the cell each letter adds, as `row_insert` would.

    A row is a list allocated when the row first appears: its largest
    letter, its length, then the multiplicity of each letter (letter a at
    index a + 2). Inserting a into a row adds the cell (row, length + 1)
    when a is at least the row's largest letter; otherwise a takes one
    copy of the smallest letter b > a the row holds, and b moves on to the
    next row. A step costs O(d) integer operations and a row holds d + 2
    entries, so on alphabets much larger than a row is long, `row_insert`
    is cheaper.
    """
    rows: list[list[int]] = []
    cells = []
    add = cells.append
    for x in word:
        x += 2
        r = 0
        for row in rows:
            r += 1
            if x >= row[0]:
                row[0] = x
                row[x] += 1
                row[1] += 1
                add((r, row[1]))
                break
            b = x + 1
            while not row[b]:
                b += 1
            row[x] += 1
            row[b] -= 1
            if b == row[0] and not row[b]:
                row[0] = x
            x = b
        else:
            row = [0] * (d + 2)
            row[0] = x
            row[1] = 1
            row[x] = 1
            rows.append(row)
            add((len(rows), 1))
    return cells
