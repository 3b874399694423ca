"""Adjacent-swap involutions on numberings and the group they generate.

The i-th involution exchanges the entries at positions i and i+1 of a
numbering when those elements are incomparable and does nothing when
they are comparable (position 0, the root, is never touched). On the
indexed set of all fixed-length numberings of a window these moves are
permutations; the group they generate is the symmetry group of the
window's numberings, represented here by dense index arrays.

`generate_group` enumerates and indexes the numberings; slot b of the
handle's `generators` is sigma_{b+1}, realized when it is first read,
without consulting the order: every numbering has positions i and i+1
exchanged and is looked up in the index of numberings. Two comparable
entries come in order, so their exchange puts an element before one
below it; that tuple is no numbering, the lookup misses, and the path
stays fixed. A reader that stops early realizes no generator past it,
and one of a few paths (`_Sigmas.at`) realizes none; a reader of every
generator takes them once as one tuple. No other field records the
index i. Permutations are composed by `operator.itemgetter`.

The pairwise facts (which generators are involutions, which pairs
commute, and the violated relations) form one table per handle,
`GroupHandle.pair_facts`, built by `_pair_facts` on first read: the
relation check reads its violations, `group_order`'s walks and
`closure` its skip masks. The local classes of (sigma_i, sigma_{i+1})
are counts on the ideal lattice (`_local_classes`), set by the window
and length alone. A handle is frozen, so no table outlives the fields
it was read from; `dataclasses.replace` gives a handle whose tables
start empty.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field
from math import lcm
from itertools import chain, compress, count
from operator import and_, itemgetter, ne

from .graded_graph import build_graph, enumerate_numberings
from .posets import PATH_CAP, CapExceeded, Poset, PosetWindow

GROUP_CAP = 1_000_000  # default for the most group elements a closure lists

# an orbit's tag by its size: an orbit of <sigma_i, sigma_{i+1}> is the set
# of orderings of three elements that keep a numbering, and the pair acts
# on 1, 2, 3 and 6 of them as a group of order 1, 2, 6 and 6
ORBIT_TAGS = {1: "trivial", 2: "Z2-swap", 3: "3-cycle-class", 6: "S3-class"}
ALLOWED_ORBIT_TAGS = tuple(ORBIT_TAGS.values())


def apply_sigma(poset: Poset, i: int, phi: tuple[int, ...]) -> tuple[int, ...]:
    """Swap positions i, i+1 of phi when their elements are incomparable.

    Requires 1 <= i <= len(phi)-2; shorter numberings are rejected rather
    than treated as fixed points. The swapped sequence is always again a
    valid numbering (the two elements are incomparable, so each prefix
    stays an ideal); the tests check this against brute-force numberings.
    Raises ValueError when the entry at i+1 lies below the one at i, as
    it never does in a numbering.
    """
    if not (1 <= i <= len(phi) - 2):
        raise ValueError(f"sigma index {i} out of range for length {len(phi)}")
    a, b = phi[i], phi[i + 1]
    if poset.leq(a, b):
        return phi
    if poset.leq(b, a):
        raise ValueError(f"{b} at position {i + 1} lies below {a} at position {i}: not a numbering")
    return phi[:i] + (b, a) + phi[i + 2:]


# --- permutations as dense index tuples ---------------------------------


def identity_perm(n: int) -> tuple[int, ...]:
    return tuple(range(n))


def compose(p, q) -> tuple[int, ...]:
    """Apply q first, then p: the tuple of p[x] for x in q."""
    if len(q) < 2:  # itemgetter of fewer than two indices returns no tuple
        return tuple(p[x] for x in q)
    return itemgetter(*q)(p)


def _orbit(generators, start, cap, skips, head=None):
    """Breadth-first orbit of the point tuple `start`, each generator g
    taking t to (g[t[0]], g[t[1]], ...). `skips` is the generators'
    skip-mask list from `_pair_facts`; identity generators (mask None) are
    skipped.

    Each tuple of the newest level keeps a bitmask of its descents: the
    generators that reached it from the level below. Extending t = g_a(r),
    a a descent of t, the search skips generator b when
      - b = a and g_b is an involution: g_b(t) = r lies a level down;
      - b < a and g_a, g_b commute: g_b(t) = g_a(g_b(r)) is reached from
        g_b(r) by the larger letter a.
    No tuple is lost: u on level d+1 is reached from g_b^-1(u) by its
    largest descent b, which neither rule skips (the first would put u a
    level down, the second would give u the larger descent a). The skip
    mask of g_b holds bit b for the first rule and bit a for the second,
    read off the generators, never assumed.

    With `head`, the first `head` points of a tuple must determine the
    rest: the search returns None as soon as a new tuple agrees there with
    one found before.

    Returns (tuples as a set-like view, the largest level). Raises
    CapExceeded past `cap` tuples.
    """
    # (generator, its bit, descents at which it is skipped)
    moves = [(g, 1 << b, skip) for b, (g, skip) in enumerate(zip(generators, skips)) if skip is not None]
    index = {start: 0}  # tuple -> discovery number
    heads = {start[:head]}  # the first `head` points of each tuple found
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
                    if head is not None:
                        key = u[:head]
                        if key in heads:
                            return None
                        heads.add(key)
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


def closure(handle: GroupHandle, cap: int | None = None):
    """Breadth-first closure of the group generated by the handle's
    generators: the orbit of the identity tuple, each element
    left-multiplied by the generators and pruned as in `_orbit` by the
    skip masks of the handle's pair facts. Level d holds the elements whose
    shortest word in the generators has d letters, so the diameter is the
    Cayley graph's. The identity tuple is the base of every group, and
    `group_order` falls back to it when a shorter base fails its
    certificate.

    Returns (elements as a set-like view, diameter). Raises CapExceeded
    past `cap`.
    """
    generators = tuple(handle.generators)
    if not generators:
        raise ValueError("need at least one generator")
    return _orbit(generators, identity_perm(len(generators[0])), cap, handle.pair_facts[0])


def _orbit_minima(generators) -> list[int]:
    """The least point of each orbit of the generators on points, in
    increasing order."""
    seen = bytearray(len(generators[0]))
    minima = []
    for s in range(len(seen)):
        if seen[s]:
            continue
        minima.append(s)
        seen[s] = 1
        stack = [s]
        while stack:
            x = stack.pop()
            for g in generators:
                y = g[x]
                if not seen[y]:
                    seen[y] = 1
                    stack.append(y)
    return minima


@dataclass
class CayleyStats:
    order: int | None
    diameter: int | None
    capped: bool


class _Sigmas:
    """The involutions of a handle as permutations of path ids, slot b
    (sigma_{b+1}) realized when it is first read and kept: every path with
    positions i, i+1 exchanged, looked up in the path index; a missed
    lookup (comparable entries, so no numbering) leaves the path fixed.
    `at` reads a slot at some paths only. Equal to the tuple of the
    realized permutations.
    """

    def __init__(self, paths, index, length):
        self._paths, self._index, self._length = paths, index, length
        self._perms = [None] * max(length - 2, 0)

    def __len__(self) -> int:
        return len(self._perms)

    def _swapped(self, b, paths, ids):
        """The ids of `paths` (whose own ids are `ids`) with the positions
        of sigma_{b+1} exchanged."""
        i = range(1, len(self._perms) + 1)[b]  # a negative slot counts from sigma_{length-2}
        order = list(range(self._length))
        order[i], order[i + 1] = i + 1, i
        return tuple(map(self._index.get, map(itemgetter(*order), paths), ids))

    def __getitem__(self, b):
        if isinstance(b, slice):
            return tuple(map(self.__getitem__, range(len(self._perms))[b]))
        perm = self._perms[b]
        if perm is None:
            perm = self._perms[b] = self._swapped(b, self._paths, range(len(self._paths)))
        return perm

    def at(self, b, ids) -> tuple[int, ...]:
        """Slot b's images of the path ids `ids`, read off the slot when it
        is realized, else looked up at those paths alone and not kept."""
        perm = self._perms[b]
        if perm is not None:
            return tuple(map(perm.__getitem__, ids))
        if not ids:
            return ()
        return self._swapped(b, map(self._paths.__getitem__, ids), ids)

    def __iter__(self):
        perms = self._perms
        return iter(perms) if None not in perms else map(self.__getitem__, range(len(perms)))

    def __eq__(self, other) -> bool:
        return tuple(self) == other


@dataclass(frozen=True)
class GroupHandle:
    """Involution generators on the indexed numbering set, slot b holding
    sigma_{b+1}, each realized on first read (any sequence of permutation
    tuples will do, as in `dataclasses.replace(handle, generators=...)`),
    and tables built once per handle; the local classes follow the
    window, not the generators."""

    window: PosetWindow
    length: int
    paths: tuple[tuple[int, ...], ...]
    generators: tuple[tuple[int, ...], ...] | _Sigmas
    path_index: dict = field(default_factory=dict, repr=False)  # numbering -> id

    @property
    def n_paths(self) -> int:
        return len(self.paths)

    @functools.cached_property
    def pair_facts(self):
        """The generator-pair table and the violated relations,
        `_pair_facts(generators)`."""
        return _pair_facts(tuple(self.generators))

    @functools.cached_property
    def local_classes(self) -> dict[int, tuple[int, int, dict[int, int]]]:
        """`_local_classes(window, length)`, read by `classify_local`, under
        a vertex cap of n_paths * length, which no window reaches."""
        return _local_classes(self.window, self.length, self.n_paths * self.length)

    @functools.cached_property
    def fiber_ids(self) -> list[list[int]]:
        """The endpoint fibers as lists of path ids, in the lexicographic
        order of their sorted endpoint sets, each in path order."""
        return list(_endpoint_fiber_ids(self.paths).values())


def generate_group(window: PosetWindow, length: int, path_cap: int = PATH_CAP) -> GroupHandle:
    """Enumerate all length-`length` numberings and index them
    lexicographically; the handle realizes each involution as a
    permutation of those indices when it is first read.

    Involution indices run over 1..length-2 (positions i, i+1 must both
    exist beyond the root). Raises CapExceeded when the path set outgrows
    `path_cap`.
    """
    paths = tuple(enumerate_numberings(window, length, limit=path_cap))
    index = dict(zip(paths, range(len(paths))))
    return GroupHandle(
        window=window,
        length=length,
        paths=paths,
        generators=_Sigmas(paths, index, length),
        path_index=index,
    )


def group_order(handle: GroupHandle, cap: int = GROUP_CAP) -> CayleyStats:
    """Exact order and Cayley diameter, or a capped report exactly when the
    group G has more than `cap` elements. Raises ValueError for a cap
    below 1.

    The orbit of a point tuple T has |G| / |G_T| <= |G| members, and T is a
    base when its stabilizer G_T is trivial. T is (0, ..., k-1), where k
    (at least 2) is the least length with more than `cap` tuples of
    distinct points, followed by the least point of each orbit of G on
    points that those k miss.
      - Bound: an orbit of (0, ..., k-1) with more than `cap` members
        proves |G| > cap, before anything else is computed.
      - Certificate: T is walked in step with c(T) for every generator c,
        as the orbit of T followed by the other points of c_1(T), c_2(T),
        ..., which T must determine. Then w(T) -> w(c(T)) is well
        defined, so G_T fixes each c(T), is normalized by every
        generator and fixes the whole orbit of T: every point of every
        orbit T meets, which is every point. So G_T is trivial, |G| is
        the orbit's size, g -> g(T) maps the Cayley graph onto the
        orbit's search graph, and the depth is the diameter. Conversely,
        a trivial G_T always passes.
      - Otherwise the base widens to every point, and `closure` lists G.
    Both walks on T read their skip masks from the handle's pair facts.
    """
    if cap < 1:
        raise ValueError(f"group cap must be at least 1, got {cap}")
    gens = tuple(handle.generators)
    if not gens:
        return CayleyStats(order=1, diameter=0, capped=False)
    n = len(gens[0])
    k, tuples = 2, n * (n - 1)  # itemgetter needs two or more indices to return a tuple
    while tuples <= cap and k < n:
        tuples *= n - k
        k += 1
    try:
        certified = None
        if tuples > cap:  # else (0, ..., k-1) holds every point: the base is the identity
            skips = handle.pair_facts[0]
            base = tuple(range(k))
            _orbit(gens, base, cap, skips)  # the bound
            base += tuple(p for p in _orbit_minima(gens) if p >= k)
            if len(base) < n:
                # the points of every c(T) beyond T: the walk's tuples hold at most n points
                shadow = set(chain.from_iterable(itemgetter(*base)(c) for c in gens)).difference(base)
                certified = _orbit(gens, base + tuple(sorted(shadow)), cap, skips, head=len(base))
        elements, diameter = certified or closure(handle, cap=cap)
    except CapExceeded:
        return CayleyStats(order=None, diameter=None, capped=True)
    return CayleyStats(order=len(elements), diameter=diameter, capped=False)


@dataclass(frozen=True)
class RelationViolation:
    relation: str
    i: int
    j: int
    witness_path: int


@dataclass
class RelationReport:
    """Outcome of the generator-relation suite on one handle."""

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


# the relation (sigma_i sigma_j)^m = 1 by its exponent m(i, j), i <= j
_RELATION_NAMES = {1: "sigma^2", 6: "(sigma_i sigma_{i+1})^6", 2: "(sigma_i sigma_j)^2"}


def _least_moved(p) -> int:
    """The least point the permutation p moves, or len(p) if it moves none."""
    return next(compress(count(), map(ne, p, count())), len(p))


def _pair_facts(generators):
    """The generator-pair table of the permutation tuples sigma_1, sigma_2,
    ... (slot b holding sigma_{b+1}), and the violated relations, as
    (skips, {m: [RelationViolation]}) with m from `_RELATION_NAMES`.

    skips[b] is None when g_b is the identity, which no walk moves by;
    else it is `_orbit`'s skip mask of g_b: bit b when g_b is an
    involution, bit a for each a > b whose g_a (no identity) commutes with g_b.

    Each g is squared once. Generators g, h with disjoint supports (one
    may be the identity) commute, and (gh)^m = g^m h^m moves what g^m or
    h^m moves; g^m comes from g's square and is the identity for an
    involution. Only pairs with overlapping supports are composed, once
    each as gh; h moving the least point g moves shows most overlaps at
    once. Then (gh)^2 = 1 decides commutation only when g and h are both
    involutions (gh = (gh)^-1 = hg); otherwise gh is compared with hg. An
    adjacent pair's (gh)^6 is ((gh)^3)^2.
    """
    n = len(generators[0]) if generators else 0
    ident = identity_perm(n)
    low = [n if g == ident else _least_moved(g) for g in generators]  # the least point each g moves
    squares = {b: compose(g, g) for b, g in enumerate(generators) if low[b] < n}
    # position -> {m: the least point g^m moves} for m = 2, 6, for each g that is no involution
    odd = {b: {2: _least_moved(sq), 6: _least_moved(compose(sq, compose(sq, sq)))} for b, sq in squares.items() if sq != ident}
    skips = [None if x == n else 0 if b in odd else 1 << b for b, x in enumerate(low)]
    found: dict[int, list[RelationViolation]] = {m: [] for m in _RELATION_NAMES}
    for a, g in enumerate(generators):
        if a in odd:
            found[1].append(RelationViolation(_RELATION_NAMES[1], a + 1, a + 1, odd[a][2]))
        x = low[a]
        if x == n:  # the identity: gh = h, so only an h that is no involution fails a relation
            for b in odd:
                m = 6 if b == a + 1 else 2
                if b > a and odd[b][m] < n:
                    found[m].append(RelationViolation(_RELATION_NAMES[m], a + 1, b + 1, odd[b][m]))
            continue
        for b in range(a + 1, len(generators)):
            h = generators[b]
            m = 6 if b == a + 1 else 2
            if low[b] == n or h[x] == x and not any(map(and_, map(ne, g, count()), map(ne, h, count()))):
                if low[b] < n:
                    skips[a] |= 1 << b
                moved = min(odd.get(a, {}).get(m, n), odd.get(b, {}).get(m, n))
            else:
                gh = compose(g, h)
                gh2 = compose(gh, gh)
                if (gh2 == ident) if a not in odd and b not in odd else (gh == compose(h, g)):
                    skips[a] |= 1 << b
                power = compose(gh3 := compose(gh2, gh), gh3) if m == 6 else gh2
                moved = n if power == ident else _least_moved(power)
            if moved < n:
                found[m].append(RelationViolation(_RELATION_NAMES[m], a + 1, b + 1, moved))
    return skips, found


def verify_relations(handle: GroupHandle) -> RelationReport:
    """Check, as exact permutation identities, the Coxeter-matrix relations
    (sigma_i sigma_j)^m(i, j) = 1 for every pair i <= j: m = 1 for i = j
    (each generator is an involution), 6 for adjacent indices and 2 for
    distant ones (they commute). A violation's witness is the least path
    the power moves. The violations come from the handle's pair facts,
    one walk over the generator pairs, whose skip masks `group_order`
    then reads without composing a pair again.
    """
    found = handle.pair_facts[1]
    return RelationReport(list(found[1]), list(found[2]), list(found[6]))


@dataclass
class LocalGroupReport:
    """Structure of the subgroup generated by two adjacent involutions."""

    i: int
    product_order: int
    group_order: int
    orbit_counts: dict[int, int]  # orbit size -> number of orbits, by size

    @property
    def orbit_types(self) -> tuple[tuple[int, str], ...]:  # (orbit size, tag) per orbit, sorted
        return tuple(chain.from_iterable([(size, ORBIT_TAGS[size])] * n for size, n in self.orbit_counts.items()))


def _local_classes(window: PosetWindow, length: int, vertex_cap: int) -> dict[int, tuple[int, int, dict[int, int]]]:
    """(product order, group order, {orbit size: count} by size) of the pair
    (sigma_i, sigma_{i+1}) per local index i at length `length`. The pair
    moves positions i..i+2 only, so an orbit is the set of up-paths
    u -> v1 -> v2 -> w from a prefix ideal u at level i-1 to one w at
    level i+2: 1, 2, 3 or 6 paths, on which sigma_i sigma_{i+1} has order
    1, 2, 3 and 3, and dim(u) N(w) orbits, N(w) counting the paths from w
    to the top. sigma_i moves a numbering exactly when some ideal at level
    i-1 has two addable elements. Raises CapExceeded past `vertex_cap`
    vertices; each is a prefix ideal, so there are at most n_paths * length."""
    g = build_graph(window, length - 1, vertex_cap)
    edges = g.up_edges  # per level, per ideal: (added id, index one level up)
    up = g.counts_up(length - 1, [1] * len(g.levels[-1]))[3:]  # N; up[k] is level k + 3
    moves = [any(len(row) > 1 for row in rows) for rows in edges]  # sigma_{k+1} moves
    out = {}
    for i in range(1, length - 2):
        sizes = {}
        for row, dim in zip(edges[i - 1], g.dims[i - 1]):
            ends = {}  # w -> the number of up-paths from u
            for _, v1 in row:
                for _, v2 in edges[i][v1]:
                    for _, w in edges[i + 1][v2]:
                        ends[w] = ends.get(w, 0) + 1
            for w, size in ends.items():
                sizes[size] = sizes.get(size, 0) + dim * up[i - 1][w]
        product_order = lcm(*(min(size, 3) for size in sizes))
        moving = moves[i - 1] + moves[i]  # the pair's group has order 1, 2 or 2 * product_order
        out[i] = product_order, 2 * product_order if moving == 2 else 1 + moving, dict(sorted(sizes.items()))
    return out


def classify_local(handle: GroupHandle, i: int) -> LocalGroupReport:
    """Orders and orbit structure of the pair (sigma_i, sigma_{i+1}), from
    the handle's table of local classes (`_local_classes`), which depend
    on its window and length only. No generator is realized."""
    missing = [k for k in (i, i + 1) if not 1 <= k <= len(handle.generators)]
    if missing:
        raise ValueError(f"no involution with index {missing[0]} at length {handle.length}")
    product_order, group_order, sizes = handle.local_classes[i]
    return LocalGroupReport(i, product_order, group_order, dict(sizes))


def local_indices(handle: GroupHandle) -> list[int]:
    """Indices i for which both sigma_i and sigma_{i+1} exist."""
    return list(range(1, len(handle.generators)))


def _endpoint_fiber_ids(paths) -> dict[frozenset[int], list[int]]:
    """Positions in `paths` grouped by the set of visited elements, in the
    lexicographic order of the sorted endpoint sets."""
    out: dict[frozenset[int], list[int]] = {}
    for k, p in enumerate(paths):
        out.setdefault(frozenset(p), []).append(k)
    return dict(sorted(out.items(), key=lambda item: sorted(item[0])))
