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

import numpy as np


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


def corner_probabilities(xs: np.ndarray, ys: np.ndarray) -> np.ndarray:
    """Probabilities from interlacing corner contents.

    `xs` are the contents of the addable cells, `ys` of the removable
    cells, both strictly descending with xs interlacing ys
    (x_0 > y_0 > x_1 > ... > x_{m-1}). The weight of x_i is
    prod_j (x_i - y_j) / prod_{j != i} (x_i - x_j); pairing y_j with x_j
    for j < i and with x_{j+1} otherwise keeps every factor in (0, 1).
    """
    m = len(xs)
    if m == 1:
        return np.array([1.0])
    j = np.arange(m - 1)
    pair = np.where(j[None, :] < np.arange(m)[:, None], j[None, :], j[None, :] + 1)
    ratios = (xs[:, None] - ys[None, :]) / (xs[:, None] - xs[pair])
    probs = np.prod(ratios, axis=1)
    return probs / probs.sum()


def growth_step_arrays(rows: np.ndarray, k: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Corner contents of the diagram held in rows[:k], fully vectorized.

    Returns (addable row indices 0-based excluding the fresh row, xs, ys)
    where xs already includes the fresh-row content as its last entry.
    """
    act = rows[:k]
    if k == 0:
        return np.empty(0, dtype=np.int64), np.zeros(1), np.empty(0)
    gt = act[:-1] > act[1:]
    add_idx = np.flatnonzero(np.concatenate(([True], gt)))
    xs = np.empty(len(add_idx) + 1)
    xs[:-1] = act[add_idx] - add_idx
    xs[-1] = -k
    rem_mask = np.empty(k, dtype=bool)
    rem_mask[:-1] = gt
    rem_mask[-1] = True
    rem_idx = np.flatnonzero(rem_mask)
    ys = (act[rem_idx] - rem_idx - 1).astype(float)
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
        rows: dict[int, int] = {}
        for r, _ in self.cells:
            rows[r] = rows.get(r, 0) + 1
        return tuple(rows[r] for r in sorted(rows))

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
