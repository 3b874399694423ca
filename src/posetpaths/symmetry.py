"""Adjacent-swap involutions on numberings and the group they generate.

The i-th involution exchanges the entries at positions i and i+1 of a
numbering when those elements are incomparable and does nothing when
they are comparable (position 0, the root, is never touched). On the
indexed set of all fixed-length numberings of a window these moves are
permutations; the group they generate is the symmetry group of the
window's numberings, represented here by dense index arrays.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from math import lcm
from operator import itemgetter

from .posets import (
    PATH_CAP,
    CapExceeded,
    Poset,
    PosetWindow,
    enumerate_numberings,
)

GROUP_CAP = 1_000_000  # default for the most group elements a closure lists

ALLOWED_ORBIT_TAGS = (
    "trivial",
    "Z2-swap",
    "3-cycle-class",
    "S3-class",
    "order-6-dihedral-class",
)


def _swapped(poset: Poset, i: int, elems: tuple[int, ...]) -> tuple[int, ...] | None:
    """The tuple sigma_i makes of `elems`, or None when it fixes them
    (the entries at positions i, i+1 are comparable)."""
    a, b = elems[i], elems[i + 1]
    if poset.leq(a, b):
        return None
    return elems[:i] + (b, a) + elems[i + 2:]


def apply_sigma(poset: Poset, i: int, phi: tuple[int, ...]) -> tuple[int, ...]:
    """Swap positions i, i+1 of phi when their elements are incomparable.

    Requires 1 <= i <= len(phi)-2; shorter numberings are rejected rather
    than treated as fixed points. The swapped sequence is always again a
    valid numbering (the two elements are incomparable, so each prefix
    stays an ideal); the tests check this against brute-force numberings.
    """
    if not (1 <= i <= len(phi) - 2):
        raise ValueError(f"sigma index {i} out of range for length {len(phi)}")
    swapped = _swapped(poset, i, phi)
    if swapped is None:
        return phi
    assert not poset.leq(phi[i + 1], phi[i]), (
        "later entry below earlier one: invalid numbering"
    )
    return swapped


def orbit(phi: tuple[int, ...], window: PosetWindow, length: int | None = None) -> list[tuple[int, ...]]:
    """Closure of {phi} under every applicable involution, sorted."""
    poset = window.poset
    if length is not None and len(phi) != length:
        raise ValueError(f"numbering has length {len(phi)}, expected {length}")
    seen = {phi}
    frontier = [phi]
    while frontier:
        nxt = []
        for p in frontier:
            for i in range(1, len(p) - 1):
                q = apply_sigma(poset, i, p)
                if q not in seen:
                    seen.add(q)
                    nxt.append(q)
        frontier = nxt
    return sorted(seen)


# --- permutations as dense index tuples ---------------------------------


def identity_perm(n: int) -> tuple[int, ...]:
    return tuple(range(n))


def compose(p, q) -> tuple[int, ...]:
    """Apply q first, then p."""
    return tuple(p[x] for x in q)


def perm_order(p, points=None) -> int:
    """Order via lcm of cycle lengths; on the p-invariant set `points` only, if given."""
    seen, order = set(), 1
    for s in range(len(p)) if points is None else points:
        length, x = 0, s
        while x not in seen:
            seen.add(x)
            x = p[x]
            length += 1
        if length:
            order = lcm(order, length)
    return order


def _orbit(generators, start, cap):
    """Breadth-first orbit of the point tuple `start`, each generator g
    taking t to (g[t[0]], g[t[1]], ...). Identity generators are skipped.

    Each tuple of the newest level keeps a bitmask of its descents: the
    generators that reached it from the level below. Extending t = g_a(r),
    a a descent of t, the search skips generator b when
      - b = a and g_b is an involution: g_b(t) = r lies a level down;
      - b < a and g_a, g_b commute: g_b(t) = g_a(g_b(r)) is reached from
        g_b(r) by the larger letter a.
    No tuple is lost: u on level d+1 is reached from g_b^-1(u) by its
    largest descent b, which neither rule skips (the first would put u a
    level down, the second would give u the larger descent a). Involution
    and commutation are read off the generators, never assumed.

    Returns (tuples as a set-like view, the largest level). Raises
    CapExceeded past `cap` tuples.
    """
    ident = identity_perm(len(generators[0]))
    gens = [g for g in generators if g != ident]
    after = [itemgetter(*g) for g in gens]  # after[b](h) is h * g_b, g_b applied first
    moves = []  # (generator, its bit, descents at which it is skipped)
    for b, g in enumerate(gens):
        skip = 1 << b if after[b](g) == ident else 0
        for a in range(b + 1, len(gens)):
            if after[a](g) == after[b](gens[a]):
                skip |= 1 << a
        moves.append((g, 1 << b, skip))
    index = {start: 0}  # tuple -> discovery number
    size = 1
    frontier, descents = [start], [0]
    diameter = 0
    while True:
        first = size  # the next level's discovery numbers begin here
        nxt, nxt_descents = [], []
        for t, mask in zip(frontier, descents):
            # image(g) is g applied to each point of t; itemgetter of one
            # index returns a bare item, but on a single point every
            # generator is the identity and no move is left
            image = itemgetter(*t)
            for g, bit, skip in moves:
                if mask & skip:
                    continue
                u = image(g)
                k = index.setdefault(u, size)  # hashed once per move
                if k == size:
                    size += 1
                    nxt.append(u)
                    nxt_descents.append(bit)
                    if cap is not None and size > cap:
                        raise CapExceeded(f"orbit exceeded {cap} tuples")
                elif k >= first:
                    nxt_descents[k - first] |= bit
        if not nxt:
            return index.keys(), diameter
        diameter += 1
        frontier, descents = nxt, nxt_descents


def closure(generators, cap: int | None = None):
    """Breadth-first closure of the generated permutation group: the orbit
    of the identity tuple, each element left-multiplied by the generators
    and pruned as in `_orbit`. Level d holds the elements whose shortest
    word in the generators has d letters, so the diameter is the Cayley
    graph's.

    Returns (elements as a set-like view, diameter). Raises CapExceeded
    past `cap`.
    """
    if not generators:
        raise ValueError("need at least one generator")
    return _orbit(generators, identity_perm(len(generators[0])), cap)


def _orbit_exceeds_cap(generators, cap: int) -> bool:
    """True when the orbit of the point tuple (0, ..., k-1) has more than
    `cap` members, so the group, at least that large, has too; False when
    the bound cannot decide.

    k (at least 2) is the least length with more than `cap` tuples of
    distinct points.
    """
    n = len(generators[0])
    k, tuples = 2, n * (n - 1)  # itemgetter needs two or more indices to return a tuple
    while tuples <= cap and k < n:
        tuples *= n - k
        k += 1
    if tuples <= cap:
        return False
    try:
        _orbit(generators, tuple(range(k)), cap)
    except CapExceeded:
        return True
    return False


@dataclass
class CayleyStats:
    order: int | None
    diameter: int | None
    capped: bool
    cap: int


@dataclass
class GroupHandle:
    """Involution generators realized on the indexed numbering set."""

    window: PosetWindow
    length: int
    paths: tuple[tuple[int, ...], ...]
    sigma_indices: tuple[int, ...]
    generators: tuple[tuple[int, ...], ...]
    path_index: dict = field(default_factory=dict, repr=False)  # numbering -> id

    @property
    def n_paths(self) -> int:
        return len(self.paths)

    def generator(self, i: int) -> tuple[int, ...]:
        try:
            return self.generators[self.sigma_indices.index(i)]
        except ValueError:
            raise ValueError(f"no involution with index {i} at length {self.length}") from None


def generate_group(window: PosetWindow, length: int, path_cap: int = PATH_CAP) -> GroupHandle:
    """Enumerate all length-`length` numberings and realize each involution
    as a permutation of their lexicographic indices.

    Involution indices run over 1..length-2 (positions i, i+1 must both
    exist beyond the root). Raises CapExceeded when the path set outgrows
    `path_cap`.
    """
    poset = window.poset
    paths = tuple(enumerate_numberings(window, length, limit=path_cap))
    index = {p: k for k, p in enumerate(paths)}
    sigma_indices = tuple(range(1, max(length - 1, 1)))
    gens = []
    for i in sigma_indices:
        perm = []
        for k, p in enumerate(paths):
            swapped = _swapped(poset, i, p)
            perm.append(k if swapped is None else index[swapped])
        gens.append(tuple(perm))
    return GroupHandle(
        window=window,
        length=length,
        paths=paths,
        sigma_indices=sigma_indices,
        generators=tuple(gens),
        path_index=index,
    )


def group_order(handle: GroupHandle, cap: int = GROUP_CAP) -> CayleyStats:
    """Exact order by closure, or a capped report when the group has more
    than `cap` elements.

    The orbit bound runs first: the images of a point tuple under G number
    |G| / |stabilizer| <= |G|, so an orbit of more than `cap` tuples proves
    |G| > cap without listing a group element. Otherwise the closure
    decides.
    """
    if not handle.generators:
        return CayleyStats(order=1, diameter=0, capped=False, cap=cap)
    if _orbit_exceeds_cap(handle.generators, cap):
        return CayleyStats(order=None, diameter=None, capped=True, cap=cap)
    try:
        elements, diameter = closure(handle.generators, cap=cap)
    except CapExceeded:
        return CayleyStats(order=None, diameter=None, capped=True, cap=cap)
    return CayleyStats(order=len(elements), diameter=diameter, capped=False, cap=cap)


@dataclass(frozen=True)
class RelationViolation:
    relation: str
    i: int
    j: int
    witness_path: int


@dataclass
class RelationReport:
    """Outcome of the generator-relation suite on one handle."""

    length: int
    n_paths: int
    involution_violations: list[RelationViolation]
    commuting_violations: list[RelationViolation]
    braid_violations: list[RelationViolation]

    @property
    def ok(self) -> bool:
        return not (
            self.involution_violations
            or self.commuting_violations
            or self.braid_violations
        )


def _first_moved(p, q) -> int:
    for x, (a, b) in enumerate(zip(p, q)):
        if a != b:
            return x
    return -1


def verify_relations(handle: GroupHandle) -> RelationReport:
    """Check, as exact permutation identities, that every generator squares
    to the identity, distant generators commute, and adjacent products
    have order dividing 6."""
    gens = dict(zip(handle.sigma_indices, handle.generators))
    ident = identity_perm(handle.n_paths)
    inv, comm, braid = [], [], []
    for i, g in gens.items():
        sq = compose(g, g)
        if sq != ident:
            inv.append(RelationViolation("sigma^2", i, i, _first_moved(sq, ident)))
    idxs = list(gens)
    for a in idxs:
        for b in idxs:
            if b <= a + 1:
                continue
            pq = compose(gens[a], gens[b])
            sq = compose(pq, pq)
            if sq != ident:
                comm.append(RelationViolation("(sigma_i sigma_j)^2", a, b, _first_moved(sq, ident)))
    for i in idxs:
        if i + 1 not in gens:
            continue
        pq = compose(gens[i], gens[i + 1])
        sixth = ident
        for _ in range(6):
            sixth = compose(pq, sixth)
        if sixth != ident:
            braid.append(RelationViolation("(sigma_i sigma_{i+1})^6", i, i + 1, _first_moved(sixth, ident)))
    return RelationReport(
        length=handle.length,
        n_paths=handle.n_paths,
        involution_violations=inv,
        commuting_violations=comm,
        braid_violations=braid,
    )


@dataclass
class LocalGroupReport:
    """Structure of the subgroup generated by two adjacent involutions."""

    i: int
    product_order: int
    group_order: int
    orbit_types: tuple[tuple[int, str], ...]  # (orbit size, tag), sorted
    sigma_i_trivial: bool
    sigma_next_trivial: bool


def _orbits_of_pair(a, b):
    seen, orbits = set(), []
    for s in range(len(a)):
        if s not in seen:
            seen.add(s)
            orbit = [s]
            for x in orbit:  # the list grows while it is read
                for y in (a[x], b[x]):
                    if y not in seen:
                        seen.add(y)
                        orbit.append(y)
            orbits.append(orbit)
    return orbits


def _dihedral_order(a_moves: bool, b_moves: bool, product_order: int) -> int:
    """Order of <a, b> for involutions a, b: 2*ord(ab), or 2 if one is the identity, 1 if both are."""
    return 2 * product_order if a_moves and b_moves else 1 + (a_moves or b_moves)


def classify_local(handle: GroupHandle, i: int) -> LocalGroupReport:
    """Orders and orbit structure of the pair (sigma_i, sigma_{i+1}).

    Two involutions generate a dihedral group, on all paths and on each orbit.
    The product order must land in {1, 2, 3, 6}; anything else would
    falsify the adjacent-generator relation and raises.
    """
    a = handle.generator(i)
    b = handle.generator(i + 1)
    ab = compose(a, b)
    product_order = perm_order(ab)
    if product_order not in (1, 2, 3, 6):
        raise ValueError(
            f"product of adjacent involutions {i},{i + 1} has order {product_order}"
        )
    ident = identity_perm(handle.n_paths)
    tags = []
    for orb in _orbits_of_pair(a, b):
        moves = (any(a[x] != x for x in orb), any(b[x] != x for x in orb))
        g = _dihedral_order(*moves, perm_order(ab, orb))
        if g == 1:
            tag = "trivial"
        elif g == 2:
            tag = "Z2-swap"
        elif g == 6 and len(orb) == 3:
            tag = "3-cycle-class"
        elif g == 6 and len(orb) == 6:
            tag = "S3-class"
        elif g == 12:
            tag = "order-6-dihedral-class"
        else:
            tag = f"unexpected({len(orb)},{g})"
        tags.append((len(orb), tag))
    return LocalGroupReport(
        i=i,
        product_order=product_order,
        group_order=_dihedral_order(a != ident, b != ident, product_order),
        orbit_types=tuple(sorted(tags)),
        sigma_i_trivial=a == ident,
        sigma_next_trivial=b == ident,
    )


def local_indices(handle: GroupHandle) -> list[int]:
    """Indices i for which both sigma_i and sigma_{i+1} exist."""
    return [i for i in handle.sigma_indices if i + 1 in handle.sigma_indices]


def endpoint_fibers(paths) -> dict[frozenset[int], list[tuple[int, ...]]]:
    """Group numberings by the set of visited elements."""
    out: dict[frozenset[int], list[tuple[int, ...]]] = {}
    for p in paths:
        out.setdefault(frozenset(p), []).append(p)
    return out
