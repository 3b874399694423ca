"""Young diagram utilities: exact tableau counts, corner data, row insertion.

Partitions are weakly decreasing tuples of positive ints. Cells are
(row, col), 1-based. Standard tableaux are counted by the hook-length
product; the lattice recursion that checks it lives in the tests' oracles,
as do the cell-validity walk and shape chain of a growth path, which is
built from its word alone (`GrowthPath`).
"""

from __future__ import annotations

import bisect
import functools
import itertools
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


class GrowthPath:
    """A sampled growth of Young diagrams, kept as the word whose row insertion adds
    its cells when first read (letters 0..alphabet-1 on counts, real ones if 0)."""

    def __init__(self, word, alphabet: int = 0):
        self.word, self.alphabet, self._passes = word, alphabet, {}
        self.n_steps = len(word)

    @functools.cached_property
    def insertion(self) -> tuple[list[int], tuple[int, ...]]:
        """The 1-based row of each step's cell and the final row lengths, computed
        once per path: a frequency estimate reads the lengths for every ideal it scores."""
        if self.alphabet:
            return row_insert_counts(self.word, self.alphabet)
        return row_insert_word(self.word)

    @functools.cached_property
    def cells(self) -> tuple[tuple[int, int], ...]:
        rows, shape = self.insertion
        length = [0] * (len(shape) + 1)  # a row's running length is its new cell's column
        out = []
        for r in rows:
            length[r] += 1
            out.append((r, length[r]))
        return tuple(out)

    def shape(self) -> tuple[int, ...]:
        """The final diagram's row lengths."""
        return self.insertion[1]

    def hook_cells(self, k: int, l: int) -> int:
        """How many cells of the final shape lie in its first k rows or first l
        columns. A real-letter word is not inserted: lambda_1..lambda_k and
        lambda'_1..lambda'_l come from Greene passes (`row_lengths`), once each."""
        if self.alphabet:
            shape = self.shape()
            return sum(shape[:k]) + sum(min(p, l) for p in shape[k:])
        rows = self._greene(k, False)
        return sum(rows) + sum(self._greene(l, True)) - sum(min(p, l) for p in rows)

    def _greene(self, k: int, strict: bool) -> list[int]:
        # the lengths read so far in this direction, and the passes still to make
        done, passes = self._passes.setdefault(strict, ([], _greene_passes(reversed(self.word) if strict else self.word, strict)))
        done.extend(itertools.islice(passes, max(0, k - len(done))))
        return done[:k]


def row_insert(rows: list[list[int]], letter: int) -> tuple[int, int]:
    """Standard row insertion; returns the (row, col) of the new cell, 1-based.

    Rows are weakly increasing; the inserted letter bumps the leftmost
    strictly greater entry. The word routes (`row_insert_word`,
    `row_insert_counts`) are pinned to this one letter at a time.
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


def _greene_passes(word, strict: bool):
    """Row lengths of the insertion tableau of `word`, one per pass: row r is filled from the letters
    row r - 1 bumped. A strict row bumps the leftmost entry >= the letter, a weak one the leftmost >."""
    place = bisect.bisect_left if strict else bisect.bisect_right
    while True:
        row, bumped = [], []
        for x in word:
            i = place(row, x)
            if i == len(row):
                row.append(x)
            else:
                bumped.append(row[i])
                row[i] = x
        if not row:
            return
        yield len(row)
        word = bumped


def row_lengths(word, k: int, strict: bool = False) -> tuple[int, ...]:
    """lambda_1..lambda_k of the shape `row_insert` gives the word, or fewer: by
    Greene's theorem their sum is the most letters k disjoint weakly increasing
    subsequences cover. Strict passes over the reversed word give lambda'_1..lambda'_k."""
    return tuple(itertools.islice(_greene_passes(word, strict), k))


def row_insert_word(word) -> tuple[list[int], tuple[int, ...]]:
    """Row-insert a word into an empty tableau, as `row_insert` does letter by
    letter, and return the 1-based row each letter's cell lands in and the
    final row lengths. Any comparable letters do; the real-letter growth uses it."""
    tableau: list[list] = []
    rows: list[int] = []
    add = rows.append
    for x in word:
        r = 0
        for row in tableau:
            r += 1
            k = bisect.bisect_right(row, x)
            if k == len(row):
                row.append(x)
                add(r)
                break
            row[k], x = x, row[k]
        else:
            tableau.append([x])
            add(len(tableau))
    return rows, tuple(map(len, tableau))


def row_insert_counts(word, d: int) -> tuple[list[int], tuple[int, ...]]:
    """Row-insert a word over the letters 0..d-1 into an empty tableau and
    return what `row_insert_word` does: the 1-based row each letter's cell
    lands in, and the final row lengths, read off the count rows.

    A row is a list allocated when the row first appears: its largest
    letter, its length, then the multiplicity of each letter (letter a at
    index a + 2). Inserting a into a row lengthens it by one when a is at
    least the row's largest letter; otherwise a takes one copy of the
    smallest letter b > a the row holds, and b moves on to the next row.
    A step costs O(d) integer operations and a row holds d + 2 entries, so
    on alphabets much larger than a row is long, `row_insert_word` is cheaper.
    """
    count_rows: list[list[int]] = []
    rows: list[int] = []
    add = rows.append
    for x in word:
        x += 2
        r = 0
        for row in count_rows:
            r += 1
            if x >= row[0]:
                row[0] = x
                row[x] += 1
                row[1] += 1
                add(r)
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
            count_rows.append(row)
            add(len(count_rows))
    return rows, tuple([row[1] for row in count_rows])
