"""Independent brute-force routes used to check the library's answers.

Everything here recomputes from first principles (permutation filters,
bitmask dynamic programs, raw closure searches) and deliberately shares
no code with the implementations under test.
"""

from __future__ import annotations

import dataclasses
import functools
import itertools
from fractions import Fraction
from math import gcd, prod


@functools.lru_cache(maxsize=64)
def order_pairs(poset):
    """All pairs (x, y) with x <= y: the reflexive-transitive closure of
    `poset.covers`, by a depth-first search from every element."""
    upper = {x: [] for x in range(poset.n)}
    for lo, hi in poset.covers:
        upper[lo].append(hi)
    pairs = set()
    for x in range(poset.n):
        seen = {x}
        stack = [x]
        while stack:
            for y in upper[stack.pop()]:
                if y not in seen:
                    seen.add(y)
                    stack.append(y)
        pairs.update((x, y) for y in seen)
    return frozenset(pairs)


def is_ideal(poset, ids):
    """True if `ids` is downward closed: with every upper end of a cover
    relation it holds the lower end."""
    s = set(ids)
    return all(lo in s for lo, hi in poset.covers if hi in s)


def brute_numberings(poset, length):
    """All valid numberings by filtering raw permutations of non-root ids.

    Exponential; fine for the corpus posets (at most 8 non-root elements).
    """
    leq = order_pairs(poset)
    below = {
        x: {y for y in range(poset.n) if y != x and (y, x) in leq}
        for x in range(poset.n)
    }
    out = []
    for perm in itertools.permutations(range(1, poset.n), length - 1):
        seq = (0,) + perm
        ok = True
        for pos, x in enumerate(seq):
            if not below[x] <= set(seq[:pos]):
                ok = False
                break
        if ok:
            out.append(seq)
    return sorted(out)


def bitmask_extension_count(poset, length):
    """Count numberings by dynamic programming over downward-closed subsets."""
    n = poset.n
    lowers = [poset.lower_covers(x) for x in range(n)]
    counts = {1: 1}  # mask with only the root
    for _ in range(length - 1):
        nxt = {}
        for mask, ways in counts.items():
            for x in range(1, n):
                bit = 1 << x
                if mask & bit:
                    continue
                if all(mask >> lo & 1 for lo in lowers[x]):
                    key = mask | bit
                    nxt[key] = nxt.get(key, 0) + ways
        counts = nxt
    return sum(counts.values())


def ideal_levels(poset, depth):
    """Ideal lattice by a level-by-level scan over id tuples.

    Returns (levels, edges, dims): level k lists the downward-closed id
    tuples (root included) with k non-root elements, sorted
    lexicographically; edges[k][i] lists (added id, index at level k+1)
    in increasing id order; dims counts root-to-vertex paths.
    """
    lower = {x: set() for x in range(poset.n)}
    for lo, hi in poset.covers:
        lower[hi].add(lo)
    levels = [[(0,)]]
    edges = []
    for _ in range(depth):
        grown = {}
        for ideal in levels[-1]:
            members = set(ideal)
            grown[ideal] = [
                (x, tuple(sorted(members | {x})))
                for x in range(poset.n)
                if x not in members and lower[x] <= members
            ]
        nxt = sorted({child for row in grown.values() for _, child in row})
        position = {child: j for j, child in enumerate(nxt)}
        edges.append([[(x, position[c]) for x, c in grown[ideal]] for ideal in levels[-1]])
        levels.append(nxt)
    edges.append([[] for _ in levels[-1]])
    dims = [[0] * len(level) for level in levels]
    dims[0][0] = 1
    for k in range(depth):
        for i, row in enumerate(edges[k]):
            for _, j in row:
                dims[k + 1][j] += dims[k][i]
    return levels, edges, dims


def sigma_map(poset, seq, i):
    """Independent adjacent-swap rule: swap iff the two entries are incomparable."""
    a, b = seq[i], seq[i + 1]
    leq = order_pairs(poset)
    if (a, b) in leq or (b, a) in leq:
        return seq
    out = list(seq)
    out[i], out[i + 1] = b, a
    return tuple(out)


def brute_symmetry_group_order(poset, paths, cap=10**6):
    """Order of the group generated by all adjacent-swap maps on `paths`,
    found by closing over composed path-to-path mappings."""
    paths = sorted(paths)
    index = {p: k for k, p in enumerate(paths)}
    length = len(paths[0])
    gens = []
    for i in range(1, length - 1):
        gens.append(tuple(index[sigma_map(poset, p, i)] for p in paths))
    if not gens:
        return 1
    return left_closure(gens, cap)[0]


def left_closure(generators, cap=None):
    """(order, diameter) of the group the permutation tuples generate, by a
    breadth-first search that left-multiplies each element by every
    generator. Raises RuntimeError once more than `cap` elements are found."""
    ident = tuple(range(len(generators[0])))
    elements = {ident}
    frontier = [ident]
    diameter = 0
    while frontier:
        new = []
        for f in frontier:
            for g in generators:
                h = tuple(g[x] for x in f)
                if h not in elements:
                    if cap is not None and len(elements) >= cap:
                        raise RuntimeError("oracle closure exceeded cap")
                    elements.add(h)
                    new.append(h)
        if new:
            diameter += 1
        frontier = new
    return len(elements), diameter


def perm_order(p):
    """Order of the permutation tuple p: the lcm of its cycle lengths."""
    seen, lengths = set(), []
    for s in range(len(p)):
        length, x = 0, s
        while x not in seen:
            seen.add(x)
            x = p[x]
            length += 1
        if length:
            lengths.append(length)
    return lcm(lengths)


def restricted_pairs(a, b):
    """(a, b) relabelled onto each orbit of <a, b>, found by a search from each point."""
    seen = set()
    for s in range(len(a)):
        if s in seen:
            continue
        orb = {s}
        stack = [s]
        while stack:
            x = stack.pop()
            for y in (a[x], b[x]):
                if y not in orb:
                    orb.add(y)
                    stack.append(y)
        seen |= orb
        points = sorted(orb)
        pos = {x: k for k, x in enumerate(points)}
        yield tuple(pos[a[x]] for x in points), tuple(pos[b[x]] for x in points)


def local_class(i, a, b):
    """(product order, group order, sorted (orbit size, tag) pairs) of the
    pair (a, b) = (sigma_i, sigma_{i+1}), by closing <a, b> and <ab> on each
    orbit of <a, b>. An orbit's tag names the order g of <a, b> on it:
    1 trivial, 2 Z2-swap, 6 on 3 points 3-cycle-class, 6 on 6 points
    S3-class, 12 order-6-dihedral-class, else unexpected(size,g). Raises
    ValueError when the order of ab is outside {1, 2, 3, 6}, and then
    when a or b is no involution."""
    orbits = list(restricted_pairs(a, b))
    product = lcm(left_closure([tuple(ra[y] for y in rb)])[0] for ra, rb in orbits)
    if product not in (1, 2, 3, 6):
        raise ValueError(f"product of adjacent involutions {i},{i + 1} has order {product}")
    for k, g in ((i, a), (i + 1, b)):
        if any(g[g[x]] != x for x in range(len(g))):
            raise ValueError(f"sigma_{k} is not an involution")
    tags = []
    for ra, rb in orbits:
        size, g = len(ra), left_closure([ra, rb])[0]
        if g in (1, 2, 12):
            tag = {1: "trivial", 2: "Z2-swap", 12: "order-6-dihedral-class"}[g]
        elif g == 6 and size in (3, 6):
            tag = "3-cycle-class" if size == 3 else "S3-class"
        else:
            tag = f"unexpected({size},{g})"
        tags.append((size, tag))
    return product, left_closure([a, b])[0], sorted(tags)


def relation_violations(sigma_indices, generators):
    """The failed generator relations as (involution, commuting, braid)
    lists of (i, j, witness), pairs in increasing (i, j) order. With
    p(k) = g_i(g_j(k)), every point k must come back to itself after p is
    applied once when i = j, six times when j = i + 1 and twice otherwise;
    the witness is the least point that does not."""
    gens = dict(zip(sigma_indices, generators))
    found = ([], [], [])
    for i, j in itertools.combinations_with_replacement(sorted(gens), 2):
        if i == j:
            kind, times = 0, 1
        elif j == i + 1:
            kind, times = 2, 6
        else:
            kind, times = 1, 2
        a, b = gens[i], gens[j]
        for k in range(len(a)):
            x = k
            for _ in range(times):
                x = a[b[x]]
            if x != k:
                found[kind].append((i, j, k))
                break
    return found


def broken_handle(handle):
    """A group handle with three generators (antichain 4 at length 5: 24
    paths) with sigma_1 replaced by sigma_2 and sigma_2 by a 5-cycle on
    paths 3..7, so each of the three relation kinds fails."""
    cycle = list(range(handle.n_paths))
    for a in range(5):
        cycle[3 + a] = 3 + (a + 1) % 5
    sigma_1, sigma_2, sigma_3 = handle.generators
    return dataclasses.replace(handle, generators=(sigma_2, tuple(cycle), sigma_3))


def central_witnesses(poset, measure, length):
    """Per-path centrality witnesses of an exact measure on numbering tuples.

    Invariance: the first involution index that moves mass, with up to
    five of the paths it moves, in lexicographic order. Fibers: for each
    endpoint set in sorted order whose mass is not uniform, the first
    lightest and first heaviest path.
    """
    paths = brute_numberings(poset, length)

    def weight(seq):
        return measure.get(seq, Fraction(0))

    invariance = []
    for i in range(1, length - 1):
        moved = [seq for seq in paths if weight(seq) != weight(sigma_map(poset, seq, i))]
        if moved:
            invariance = [(i, seq) for seq in moved[:5]]
            break
    fibers = {}
    for seq in paths:
        fibers.setdefault(tuple(sorted(seq)), []).append(seq)
    uneven = []
    for key in sorted(fibers):
        group = fibers[key]
        lo = min(group, key=weight)
        hi = max(group, key=weight)
        if weight(lo) != weight(hi):
            uneven.append((lo, hi))
    return invariance, uneven


def kernel_path_law(rows, depth, root=0):
    """Law of a transition kernel's root-based paths of length `depth`:
    each path's probability is the product of its edge probabilities as a
    Fraction. Paths through a zero-probability edge are left out.

    `rows` maps (level, index) to (added element, next index, probability).
    """
    paths = [((root,), 0, [])]
    for level in range(depth):
        paths = [
            (seq + (elem,), j, probs + [p])
            for seq, index, probs in paths
            for elem, j, p in rows.get((level, index), ())
        ]
    law = {}
    for seq, _, probs in paths:
        value = prod(probs, start=Fraction(1))
        if value:
            law[seq] = value
    return law


def brute_orbit(poset, seq):
    """Closure of one numbering under the independent swap rule."""
    seen = {seq}
    frontier = [seq]
    while frontier:
        new = []
        for p in frontier:
            for i in range(1, len(p) - 1):
                q = sigma_map(poset, p, i)
                if q not in seen:
                    seen.add(q)
                    new.append(q)
        frontier = new
    return seen


def lcm(values):
    out = 1
    for v in values:
        out = out * v // gcd(out, v)
    return out


# --- partitions --------------------------------------------------------------


def partitions_of(n):
    """All partitions of n, lexicographically decreasing."""

    def gen(remaining, cap):
        if remaining == 0:
            yield ()
            return
        for first in range(min(remaining, cap), 0, -1):
            for rest in gen(remaining - first, first):
                yield (first,) + rest

    yield from gen(n, n)


def removals(parts):
    """Partitions obtained by removing one corner cell."""
    out = []
    for r in range(len(parts)):
        nxt = parts[r + 1] if r + 1 < len(parts) else 0
        if parts[r] > nxt:
            mu = list(parts)
            mu[r] -= 1
            if mu[-1] == 0:
                mu.pop()
            out.append(tuple(mu))
    return out


@functools.lru_cache(maxsize=None)
def tableau_count_recursive(parts):
    """Standard tableaux by the lattice recursion over removable corners,
    independent of the library's hook-length product."""
    if not parts:
        return 1
    return sum(tableau_count_recursive(mu) for mu in removals(parts))
