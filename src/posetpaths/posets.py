"""Finite posets, order ideals, and monotone numberings.

Elements are dense integer ids with id 0 reserved for the unique minimal
element (the root). Windows of the canonical infinite families (Young
diagrams in Z+^2, boxes in Z+^d, chains, antichains) attach integer
coordinates to elements so that ideals of the ambient family can be
evaluated on elements directly.

A monotone numbering of length N is an injective sequence
phi(0), ..., phi(N-1) of element ids with phi(0) = root and every prefix
image downward closed; equivalently a path from the root in the lattice
of finite ideals. It is held as a plain tuple of ids, root at position 0,
and checked here (`validate_numbering`); `graded_graph` lists them as the
paths of that lattice.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from .young import check_partition

ROOT = 0
PATH_CAP = 100_000  # default cap on the numberings, or kernel paths, one enumeration or exact law lists


class PosetFormatError(ValueError):
    """Malformed poset text or a violated poset axiom."""


class CapExceeded(RuntimeError):
    """An enumeration or closure grew past its configured cap."""


class Poset:
    """Immutable finite poset given by its cover relations.

    Sets of elements are Python int bitmasks with id x stored as bit
    n-1-x (see `bit`), so id 0 is the highest bit. For two sets of equal
    size, the larger mask is the one whose sorted id tuple comes first
    lexicographically; sorting masks in descending order therefore lists
    them in lexicographic id order.

    The order itself is one reachability bitset per element: `_above[x]`
    is the mask of every y with x <= y, filled in reverse topological
    order from the upper covers, so `leq` is a shift and a mask. Kahn's
    algorithm produces that order and detects cycles on the way. Raises
    PosetFormatError if the covers contain a cycle or if id 0 is not the
    unique minimal element.
    """

    def __init__(self, n: int, covers, coords=None):
        if n < 1:
            raise PosetFormatError("poset needs at least the root element")
        cover_set = set()
        for lo, hi in covers:
            if not (0 <= lo < n and 0 <= hi < n):
                raise PosetFormatError(f"dangling id in cover ({lo}, {hi})")
            if lo == hi:
                raise PosetFormatError(f"self-cover on id {lo}")
            cover_set.add((int(lo), int(hi)))
        self.n = n
        self.covers: tuple[tuple[int, int], ...] = tuple(sorted(cover_set))
        if coords is None:
            self.coords: tuple[tuple[int, ...] | None, ...] = (None,) * n
        else:
            if len(coords) != n:
                raise PosetFormatError("coords length does not match n")
            self.coords = tuple(
                None if c is None else tuple(int(x) for x in c) for c in coords
            )
        seen = {}
        for c in self.coords:
            if c is not None:
                if c in seen:
                    raise PosetFormatError(f"duplicate coordinates {c}")
                seen[c] = True

        lower: list[list[int]] = [[] for _ in range(n)]
        upper: list[list[int]] = [[] for _ in range(n)]
        for lo, hi in self.covers:
            lower[hi].append(lo)
            upper[lo].append(hi)
        self._lower = tuple(tuple(ids) for ids in lower)

        # Kahn's algorithm: an element enters the order once all its lower
        # covers have; elements left over lie on or above a cycle
        waiting = [len(ids) for ids in lower]
        order = [x for x in range(n) if not waiting[x]]
        for x in order:
            for y in upper[x]:
                waiting[y] -= 1
                if not waiting[y]:
                    order.append(y)
        if len(order) < n:
            stuck = [x for x in range(n) if waiting[x]]
            raise PosetFormatError(f"cycle detected among ids {stuck}")
        minimal = [x for x in range(n) if not lower[x]]
        if minimal != [ROOT]:
            raise PosetFormatError(
                f"id 0 must be the unique minimal element, found minimal ids {minimal}"
            )
        self._bit = tuple(1 << (n - 1 - x) for x in range(n))
        above = [0] * n
        for x in reversed(order):
            reach = self._bit[x]
            for y in upper[x]:
                reach |= above[y]
            above[x] = reach
        self._above = tuple(above)
        self._below = tuple(self.mask_of(ids) for ids in lower)  # lower-cover masks
        # per element: (bit, lower-cover mask) of each upper cover
        self._grow = tuple(
            tuple((self._bit[y], self._below[y]) for y in upper[x]) for x in range(n)
        )

    def leq(self, x: int, y: int) -> bool:
        return bool(self._above[x] >> (self.n - 1 - y) & 1)

    def bit(self, x: int) -> int:
        """The single-bit mask of id x (bit n-1-x)."""
        return self._bit[x]

    def mask_of(self, ids) -> int:
        """Bitmask of an id collection."""
        mask = 0
        for x in ids:
            mask |= self._bit[x]
        return mask

    def lower_covers(self, x: int) -> tuple[int, ...]:
        return self._lower[x]

    def missing_cover(self, mask: int, among: int | None = None) -> tuple[int, int] | None:
        """(x, lo): the least member x of the set `mask`, or of its part `among`
        if given, with a lower cover outside the set, and lo the least such
        cover. None when there is none: a set is an ideal exactly then."""
        outside = ~mask
        rest = mask if among is None else among
        while rest:  # highest bit first: ascending id
            top = rest.bit_length()
            rest ^= 1 << (top - 1)
            gap = self._below[self.n - top] & outside
            if gap:
                return self.n - top, self.n - gap.bit_length()
        return None

    def incomparable_count(self) -> int:
        """How many unordered pairs neither leq relates, read off the
        reachability bitsets: of the n(n-1)/2 pairs, x lies strictly below
        |up-set of x| - 1 others."""
        return self.n * (self.n - 1) // 2 - sum(up.bit_count() - 1 for up in self._above)

    def __eq__(self, other):
        return (
            isinstance(other, Poset)
            and self.n == other.n
            and self.covers == other.covers
            and self.coords == other.coords
        )

    def __hash__(self):
        return hash((self.n, self.covers, self.coords))

    def __repr__(self):
        return f"Poset(n={self.n}, covers={len(self.covers)})"


@dataclass(frozen=True)
class PosetWindow:
    """A finite, downward-closed window of a (possibly infinite) poset family."""

    family: str
    params: tuple
    poset: Poset

    def describe(self) -> str:
        if self.params:
            inner = ",".join(str(p) for p in self.params)
            return f"{self.family}[{inner}]"
        return self.family


def build_young_poset(partition) -> PosetWindow:
    """Cells of one Young diagram under componentwise order, root adjoined.

    Cells are (row, col), 1-based, with id order row-major; the root sits
    below cell (1,1) only (and below everything else by transitivity).
    """
    parts = check_partition(partition)
    if not parts:
        raise ValueError("partition must be nonempty")
    cells = [(r, c) for r in range(1, len(parts) + 1) for c in range(1, parts[r - 1] + 1)]
    ids = {cell: k + 1 for k, cell in enumerate(cells)}
    coords: list[tuple[int, ...] | None] = [None] + cells
    covers = [(ROOT, ids[(1, 1)])]
    for (r, c), k in ids.items():
        if (r, c + 1) in ids:
            covers.append((k, ids[(r, c + 1)]))
        if (r + 1, c) in ids:
            covers.append((k, ids[(r + 1, c)]))
    poset = Poset(len(cells) + 1, covers, coords)
    return PosetWindow("young", parts, poset)


def build_box_poset(d: int, bounds) -> PosetWindow:
    """Lattice points of a d-dimensional box under componentwise order.

    The all-ones point is the minimal element and carries id 0; remaining
    points are id-ordered lexicographically by coordinates.
    """
    if d < 1:
        raise ValueError("d must be >= 1")
    bnds = tuple(int(b) for b in bounds)
    if len(bnds) != d:
        raise ValueError(f"expected {d} bounds, got {len(bnds)}")
    if any(b < 1 for b in bnds):
        raise ValueError(f"bounds must be >= 1, got {bnds}")
    points = sorted(itertools.product(*(range(1, b + 1) for b in bnds)))
    origin = (1,) * d
    ordered = [origin] + [p for p in points if p != origin]
    ids = {p: k for k, p in enumerate(ordered)}
    covers = []
    for p in ordered:
        for axis in range(d):
            q = p[:axis] + (p[axis] + 1,) + p[axis + 1 :]
            if q in ids:
                covers.append((ids[p], ids[q]))
    poset = Poset(len(ordered), covers, ordered)
    return PosetWindow("box", bnds, poset)


def build_chain_poset(n: int) -> PosetWindow:
    """Total order on n elements (the root included); same poset as a 1-d box."""
    if n < 1:
        raise ValueError("chain length must be >= 1")
    covers = [(k, k + 1) for k in range(n - 1)]
    coords = [(k + 1,) for k in range(n)]
    return PosetWindow("chain", (n,), Poset(n, covers, coords))


def build_antichain_poset(n: int) -> PosetWindow:
    """Root plus n pairwise incomparable elements (n+1 elements in total)."""
    if n < 1:
        raise ValueError("antichain size must be >= 1")
    covers = [(ROOT, k) for k in range(1, n + 1)]
    return PosetWindow("antichain", (n,), Poset(n + 1, covers))


def parse_poset(text: str) -> PosetWindow:
    """Parse the line-based poset format.

    Lines are `el <id> [<c1> ... <cd>]` or `cov <lower> <upper>`; `#`
    starts a comment. Ids must be dense from 0 and id 0 must be the
    unique minimal element.
    """
    elems: dict[int, tuple[int, ...] | None] = {}
    covers = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        tokens = line.split()
        try:
            if tokens[0] == "el":
                eid = int(tokens[1])
                if eid in elems:
                    raise PosetFormatError(f"line {lineno}: duplicate element id {eid}")
                coords = tuple(int(t) for t in tokens[2:]) if len(tokens) > 2 else None
                elems[eid] = coords
            elif tokens[0] == "cov":
                if len(tokens) != 3:
                    raise PosetFormatError(f"line {lineno}: cov takes two ids")
                covers.append((int(tokens[1]), int(tokens[2])))
            else:
                raise PosetFormatError(f"line {lineno}: unknown directive {tokens[0]!r}")
        except (ValueError, IndexError) as exc:
            if isinstance(exc, PosetFormatError):
                raise
            raise PosetFormatError(f"line {lineno}: cannot parse {raw!r}") from exc
    for lo, hi in covers:
        for eid in (lo, hi):
            if eid not in elems:
                raise PosetFormatError(f"cover references undeclared id {eid}")
    n = len(elems)
    if sorted(elems) != list(range(n)):
        raise PosetFormatError(f"element ids must be dense from 0, got {sorted(elems)}")
    coords_list = [elems[i] for i in range(n)]
    if all(c is None for c in coords_list):
        coords_list = None
    poset = Poset(n, covers, coords_list)
    return PosetWindow("file", (), poset)


def serialize_poset(window: PosetWindow) -> str:
    """Canonical text form; parse(serialize(w)) reproduces the poset exactly."""
    poset = window.poset
    lines = []
    for x in range(poset.n):
        c = poset.coords[x]
        if c is None:
            lines.append(f"el {x}")
        else:
            lines.append("el " + " ".join(str(v) for v in (x, *c)))
    for lo, hi in poset.covers:
        lines.append(f"cov {lo} {hi}")
    return "\n".join(lines) + "\n"


def addable_elements(poset: Poset, ideal) -> list[int]:
    """Ids outside the ideal whose lower covers all lie inside it, ascending.

    Adding any returned id keeps the set downward closed. The input must
    itself be downward closed, or ValueError is raised.
    """
    members = set(ideal)
    if not all(0 <= x < poset.n for x in members):
        raise ValueError(f"ids outside 0..{poset.n - 1} in {sorted(members)}")
    mask = poset.mask_of(members)
    if poset.missing_cover(mask) is not None:
        raise ValueError("input set is not downward closed")
    # x is addable when the set with x added is still downward closed
    return [
        x
        for x, bit in enumerate(poset._bit)
        if not mask & bit and poset.missing_cover(mask | bit, bit) is None
    ]


def validate_numbering(poset: Poset, seq) -> tuple[int, ...]:
    """Check the numbering axioms for `seq` and return it as an id tuple,
    or raise ValueError."""
    elems = tuple(int(x) for x in seq)
    if not elems:
        raise ValueError("numbering must contain at least the root")
    if elems[0] != ROOT:
        raise ValueError(f"position 0 must be the root, got {elems[0]}")
    if len(set(elems)) != len(elems):
        raise ValueError("numbering must be injective")
    prefix = 0
    for pos, x in enumerate(elems):
        if not (0 <= x < poset.n):
            raise ValueError(f"id {x} outside poset")
        prefix |= poset.bit(x)
        # the prefix before x is an ideal, so only x can miss a lower cover
        if poset.missing_cover(prefix, poset.bit(x)) is not None:
            missing = [lo for lo in poset.lower_covers(x) if not prefix & poset.bit(lo)]
            raise ValueError(
                f"prefix through position {pos} is not an ideal: "
                f"{x} needs {missing} first"
            )
    return elems
