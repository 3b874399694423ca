"""Host-speed calibration for the benchmark's timings.

The sandbox this benchmark was built on shares its CPU with other
tenants, and its speed drifts by up to 1.8x over tens of seconds (the
same op read 27 ms and 49 ms a minute apart, with CPU time / wall time
at 0.99 throughout). Raw wall-clock medians of two runs of one commit
can therefore differ by far more than any useful regression bound.

The benchmark absorbs the drift by timing this fixed, pure-Python kernel
next to every op and scaling the op's wall time by REFERENCE_S divided by
the kernel's local time. Reported times are thus in "reference-host"
seconds: what the op would have taken while the kernel ran in
REFERENCE_S. The kernel mixes the kinds of work the program does
(dict-of-bitmask dynamic programming, tuple permutation products,
Fraction sums, random draws with bisect-driven row insertion, string
formatting), so a host slowdown affects it roughly as it affects an op.
Nothing here depends on the program, so a faster program still reads
faster.
"""

from __future__ import annotations

import bisect
import itertools
import random
import time
from fractions import Fraction

# Median kernel time on a quiet host (2-vCPU Intel Xeon, Python 3.11.7).
REFERENCE_S = 0.0020


def _box_lower_masks(bounds) -> list[int]:
    points = sorted(itertools.product(*(range(b) for b in bounds)))
    ids = {p: k for k, p in enumerate(points)}
    masks = []
    for p in points:
        m = 0
        for axis in range(len(bounds)):
            if p[axis]:
                m |= 1 << ids[p[:axis] + (p[axis] - 1,) + p[axis + 1:]]
        masks.append(m)
    return masks


_LOWER = _box_lower_masks((2, 2, 3))
_PERM = tuple(random.Random(1).sample(range(720), 720))


def kernel() -> int:
    """Fixed work of about REFERENCE_S; returns a value so none is skipped."""
    n = len(_LOWER)
    level = {0: 1}
    for _ in range(n):
        nxt: dict[int, int] = {}
        for mask, count in level.items():
            for i in range(n):
                bit = 1 << i
                if not mask & bit and _LOWER[i] & mask == _LOWER[i]:
                    nxt[mask | bit] = nxt.get(mask | bit, 0) + count
        level = nxt
    p = _PERM
    seen = {p}
    for _ in range(20):
        p = tuple(_PERM[x] for x in p)
        seen.add(p)
    s = Fraction(0)
    for k in range(1, 200):
        s += Fraction(1, k * (k + 1))
    rng = random.Random(5)
    rows: list[list[int]] = []
    for _ in range(1500):
        x = int(rng.random() * 3)
        for row in rows:
            k = bisect.bisect_right(row, x)
            if k == len(row):
                row.append(x)
                x = None
                break
            row[k], x = x, row[k]
        if x is not None:
            rows.append([x])
    text = "\n".join(f"{k},{k * k}" for k in range(1500))
    return sum(level.values()) + len(seen) + s.denominator + len(rows) + len(text)


def timed_kernel() -> float:
    t0 = time.perf_counter()
    kernel()
    return time.perf_counter() - t0
