"""Central measures on numbering spaces: exact kernels and samplers.

A measure on fixed-length numberings is central when every adjacent-swap
involution preserves it; equivalently, when it is conditionally uniform
on every endpoint fiber. Finite-truncation kernels and laws hold exact
rationals only, and a float in a kernel row or a law raises ValueError:
centrality is an exact symmetry, and a tolerance would mask bugs.
Centrality has two routes, chosen by the kind of input. An explicit law
goes to `is_central`, which reads the symmetry off a
`symmetry.GroupHandle` the caller builds once with `generate_group`, at
the paths off the law's most common mass alone.
A kernel goes to `kernel_centrality`, one integer pass over the positive
terms of its rows: every prefix reaching a vertex must carry one mass,
and no path or numbering is listed. A kernel stores integer terms and is
checked once, when it is built: its rows, then a row at every vertex it
reaches before its depth, so the walks that read it check nothing again.
Floating point enters only inside Monte Carlo sampling. One spec,
`Thoma(alpha)`, covers Young growth, and its path keeps the word whose
row insertion is the growth (`GrowthPath`), drawn by one letter stream
(`thoma_word`): with an empty alpha, Plancherel growth, i.i.d. uniform
letters; otherwise letters drawn from alpha, inserted on per-row letter
counts (`row_insert_counts`). Insertion yields one row index per step
and the final shape; frequencies read the shape, and a sample dump reads
each column off its row's running length, so no (row, col) tuple is
built.

Replica k of a Monte Carlo run is seeded with seed + k; sampler s of a
comparison run gets base seed seed + s * 1_000_003. Identical seeds give
bit-identical paths and reports.
"""

from __future__ import annotations

import bisect
import functools
import itertools
import math
import operator
import random
from dataclasses import dataclass
from fractions import Fraction
from numbers import Rational

from .graded_graph import GradedGraph, LevelVertex
from .graded_graph import enumerate_numberings, up_dimension_table  # noqa: F401  (bench/spans.py traces the names here)
from .ideals import AxisRaysIdeal, FullIdeal, HookIdeal, IdealSpec, ideal_mask, member_coords
from .posets import PATH_CAP, ROOT, CapExceeded, PosetWindow, build_young_poset, validate_numbering
from .symmetry import apply_sigma  # noqa: F401  (bench/spans.py traces the name here)
from .symmetry import GroupHandle, _endpoint_fiber_ids
from .young import GrowthPath, additions, check_partition, tableau_count
from .young import corner_probabilities, growth_step_arrays, row_insert  # noqa: F401  (only bench/spans.py's KERNELS use them; delete them once it drops them)

STEP_CAP = 10_000_000  # most steps one growth sample, or all replicas of one estimate, draw


@dataclass(frozen=True)
class Thoma:
    """Young growth at a Thoma point with beta = 0: row insertion of i.i.d.
    letters (`thoma_word`), whose points are the added cells (row, col).

    An empty `alpha` is Plancherel growth (gamma = 1), uniform real letters.
    Otherwise `alpha` are the letter probabilities: strictly positive,
    summing to one. Tied entries are legal but flagged, since row
    frequencies only identify the parameters when they are distinct.
    """

    alpha: tuple[float, ...] = ()
    family = "young-growth"

    def __post_init__(self):
        if not all(math.isfinite(a) for a in self.alpha):
            raise ValueError(f"alpha entries must be finite, got {self.alpha}")
        if any(a <= 0 for a in self.alpha):
            raise ValueError(f"alpha entries must be positive, got {self.alpha}")
        if self.alpha and abs(sum(self.alpha) - 1.0) > 1e-9:
            raise ValueError(f"alpha must sum to 1, got {sum(self.alpha)}")

    @property
    def has_ties(self) -> bool:
        return len(set(self.alpha)) < len(self.alpha)

    def name(self) -> str:
        return "rsk:" + ",".join(repr(a) for a in self.alpha) if self.alpha else "plancherel"

    def check_steps(self, n_steps: int) -> None:
        _check_steps(n_steps)

    def sample(self, n_steps: int, seed: int) -> GrowthPath:
        return sample_rsk_thoma(self.alpha, n_steps, seed) if self.alpha else sample_plancherel(n_steps, seed)

    def hits(self, path: GrowthPath, ideal: IdealSpec) -> int:
        """How many of the sampled cells, those of the final shape, lie in the ideal: a
        hook or two-axis rays ideal k,l holds its first k rows and l columns."""
        if isinstance(ideal, FullIdeal):
            return path.n_steps
        if isinstance(ideal, HookIdeal):
            return path.hook_cells(ideal.rows, ideal.cols)
        if not (isinstance(ideal, AxisRaysIdeal) and len(ideal.rays) == 2):
            member_coords(ideal, (1, 1))  # a set or wrong-axis spec: raises its ValueError
        return path.hook_cells(*ideal.rays)

    def text(self, path: GrowthPath) -> str:
        """One `step,row,col` line per step; a cell's column is its row's running length."""
        rows, shape = path.insertion
        num = list(map(str, range(len(rows) + 1)))
        length = [0] * (len(shape) + 1)
        lines = []
        for k, r in zip(num[1:], rows):
            length[r] += 1
            lines.append(f"{k},{num[r]},{num[length[r]]}")
        return "step,row,col\n" + "\n".join(lines)


class ExplicitMarkov:
    """Per-vertex transition rows over the up-edges of a graded graph.

    `terms`, the one stored form, maps (level, index) to the row's positive
    entries as integers (added element, target index, numerator,
    denominator). Each entry is an up-edge of the graph, a row lists each
    element at most once, and its probabilities are non-negative and sum to
    exactly one. Every vertex the kernel reaches with positive probability
    below its depth needs a row: the first one that has none, in (level,
    index) order, raises ValueError, naming through `lines` (row -> line
    number, from a kernel file) the line whose edge leads there. Both
    constructors run that one integer check when the kernel is built:
    `ExplicitMarkov(graph, rows, name)` reads exact rational probabilities
    (a float raises ValueError) and keeps the rows as given in `rows`;
    `from_terms` takes reduced terms with positive denominators, as
    `endpoint_measure` builds them, and builds `rows` on first read.
    """

    has_ties = False

    def __init__(self, graph: GradedGraph, rows, name: str, depth: int | None = None, lines: dict | None = None):
        self.rows = dict(rows)
        self._check(graph, name, depth, lines, map(_integer_row, self.rows.items()))

    @classmethod
    def from_terms(cls, graph: GradedGraph, terms: dict, name: str, depth: int | None = None) -> ExplicitMarkov:
        kernel = cls.__new__(cls)
        kernel._check(graph, name, depth, None, terms.items())
        return kernel

    def _check(self, graph, name, depth, lines, rows) -> None:
        """Check the integer rows, (key, entries) pairs, and keep their positive entries as `terms`."""
        self.graph = graph
        self.terms = terms = {}
        self._name = name
        self._masks: dict[IdealSpec, int] = {}  # ideal -> its `ideal_mask` on the window
        self.depth = depth if depth is not None else graph.depth
        if not 0 <= self.depth <= graph.depth:
            raise ValueError(f"depth {self.depth} is outside 0..{graph.depth}, the graph's depth")
        for key, row in rows:
            level, index = key
            if not (0 <= level <= graph.depth and 0 <= index < len(graph.levels[level])):
                raise ValueError(f"row {key} is no vertex of the graph")
            if len({entry[0] for entry in row}) < len(row):
                raise ValueError(f"row {key} lists an element twice")
            edges = graph.up_edges[level][index]
            for elem, j, _, _ in row:
                if (elem, j) not in edges:
                    raise ValueError(f"row {key} lists ({elem}, {j}), which is no up-edge of the graph")
            total, common, smallest = 0, 1, 1  # the row's sum so far is total / common
            for _, _, num, den in row:
                total = total * den + num * common
                common *= den
                if num < smallest:
                    smallest = num
            if total != common:
                raise ValueError(f"row {key} sums to {Fraction(total, common)}, not 1")
            if smallest < 0:
                raise ValueError(f"row {key} has a negative probability")
            terms[key] = row if smallest else tuple([entry for entry in row if entry[2]])
        reached = {0: None}  # index at the current level -> (source index, element) of the first edge into it
        for level in range(self.depth):
            nxt = {}
            for i in sorted(reached):
                row = terms.get((level, i))
                if row is None:
                    via, here = reached[i], f"{level}:{i}, which has no row"
                    if lines is None:
                        raise ValueError(f"the kernel reaches {here}")
                    if via is None:
                        raise ValueError(f"the kernel starts at {here}")
                    raise ValueError(f"line {lines[level - 1, via[0]]}: element {via[1]} leads to {here}")
                for elem, j, _, _ in row:
                    if j not in nxt:
                        nxt[j] = (i, elem)
            reached = nxt

    @functools.cached_property
    def rows(self) -> dict:
        """The terms as Fractions; a kernel built from rows keeps them as given instead."""
        return {key: tuple([(elem, j, Fraction(num, den)) for elem, j, num, den in row])
                for key, row in self.terms.items()}

    def name(self) -> str:
        return self._name

    @property
    def family(self) -> str:
        return f"window:{self.graph.window.describe()}"

    def check_steps(self, n_steps: int) -> None:
        if self.depth == 0:
            raise ValueError(f"{self.name()} ends at the root: it has no step to sample")
        if not 1 <= n_steps <= self.depth:
            raise ValueError(f"{self.name()} supports 1..{self.depth} steps, asked for {n_steps}")

    def sample(self, n_steps: int, seed: int) -> tuple[int, ...]:
        return sample_markov(self, n_steps, seed)

    def hits(self, path: tuple[int, ...], ideal: IdealSpec) -> int:
        """How many of the sampled elements, the root excluded, lie in the
        ideal: one popcount against the ideal's mask, built once per ideal."""
        mask = self._masks.get(ideal)
        if mask is None:
            mask = self._masks[ideal] = ideal_mask(ideal, self.graph.window)
        return (self.graph.window.poset.mask_of(path) & mask).bit_count() - 1

    def text(self, path: tuple[int, ...]) -> str:
        return ",".join(str(x) for x in path)


def _integer_row(item):
    """A given row as (key, integer entries): each probability's numerator and denominator, read once."""
    key, row = item
    entries = tuple([(elem, j, p.numerator, p.denominator) for elem, j, p in row
                     if type(p) is Fraction or type(p) is int or isinstance(p, Rational)])
    if len(entries) < len(row):
        raise ValueError(f"row {key} has a probability that is not an exact rational")
    return key, entries


# The sampler interface every spec shares: name(); `family`, the poset
# family its points live in (specs are only compared within one);
# `has_ties`; check_steps(n_steps), which raises ValueError or CapExceeded
# for a path length it cannot sample; sample(n_steps, seed), one path;
# hits(path, ideal), how many of the path's points lie in the ideal;
# text(path), the path as text.
CentralMeasureSpec = Thoma | ExplicitMarkov


def parse_markov_kernel(graph: GradedGraph, text: str, name: str = "markov:file") -> ExplicitMarkov:
    """Kernel file: lines `row <level>:<index> <elem>:<prob> ...`, `#` comments.

    Probabilities are exact rationals (`1/3`) or decimal literals, taken
    at face value as fractions (0.2 means exactly 1/5); rows may only use
    edges of the graph, a vertex has one row and a row names an element once.
    """
    rows = {}
    row_lines = {}  # vertex -> line number of its row
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        tokens = line.split()
        if tokens[0] != "row" or len(tokens) < 2:
            raise ValueError(f"line {lineno}: expected 'row LEVEL:INDEX ...', got {line!r}")
        try:
            level, index = (int(x) for x in tokens[1].split(":"))
            if level < 0 or index < 0:
                raise ValueError("negative coordinate")
            edge_targets = {elem: j for elem, j in graph.up_edges[level][index]}
        except (ValueError, IndexError) as exc:
            raise ValueError(f"line {lineno}: bad vertex {tokens[1]!r}") from exc
        if (level, index) in row_lines:
            raise ValueError(f"line {lineno}: row {level}:{index} repeats line {row_lines[level, index]}")
        row = []
        for tok in tokens[2:]:
            elem_text, _, prob_text = tok.partition(":")
            try:
                elem = int(elem_text)
                prob = Fraction(prob_text)
            except (ValueError, ZeroDivisionError) as exc:
                raise ValueError(f"line {lineno}: bad entry {tok!r}") from exc
            if elem not in edge_targets:
                raise ValueError(
                    f"line {lineno}: element {elem} is not addable at {level}:{index}"
                )
            row.append((elem, edge_targets[elem], prob))
        rows[(level, index)] = tuple(row)
        row_lines[(level, index)] = lineno
    if not rows:
        raise ValueError("kernel file declares no rows")
    return ExplicitMarkov(graph, rows, name=name, depth=1 + max(level for level, _ in rows), lines=row_lines)


def endpoint_measure(g: GradedGraph, v: LevelVertex) -> ExplicitMarkov:
    """The exact kernel whose path law is uniform on root-to-v paths.

    Transition u -> w gets probability (paths w->v) / (paths u->v); the
    products along any root-to-v path telescope to 1/dimension(v). Each
    row's terms are reduced integer pairs read straight off `counts_up` at v.
    """
    if not (0 <= v.level <= g.depth and 0 <= v.index < len(g.levels[v.level])):
        raise ValueError(f"vertex {v.level}:{v.index} not in graph (depth {g.depth})")
    counts = g.counts_up(v.level, [int(i == v.index) for i in range(len(g.levels[v.level]))])
    terms = {}
    for level in range(v.level):
        counts_above = counts[level + 1]
        for i, (edge_row, below) in enumerate(zip(g.up_edges[level], counts[level])):
            if below:
                row = []
                for elem, j in edge_row:
                    above = counts_above[j]
                    if above:
                        c = math.gcd(above, below)
                        row.append((elem, j, above // c, below // c))
                terms[level, i] = tuple(row)
    return ExplicitMarkov.from_terms(g, terms, name=f"endpoint:{v.level}:{v.index}", depth=v.level)


def path_measure(m: ExplicitMarkov) -> dict[tuple[int, ...], Fraction]:
    """Exact law on root-based paths of the kernel's depth. Raises
    CapExceeded, before any path is built, when more than PATH_CAP paths
    carry positive probability (for an endpoint kernel, dimension(v))."""
    counts = {0: 1}  # index at the current level -> positive-probability paths to it
    for level in range(m.depth):
        nxt: dict[int, int] = {}
        for i, c in counts.items():
            for _, j, _, _ in m.terms[(level, i)]:
                nxt[j] = nxt.get(j, 0) + c
        counts = nxt
    if sum(counts.values()) > PATH_CAP:
        raise CapExceeded(f"more than {PATH_CAP} paths under {m.name()}")
    # paths grow one level at a time (no recursion, so any depth), multiplying
    # integer numerators and denominators; one Fraction per path at the end
    terms = m.terms
    paths = [((ROOT,), 0, 1, 1)]  # (prefix, index at its level, numerator, denominator)
    for level in range(m.depth):
        paths = [
            (prefix + (elem,), j, num * p_num, den * p_den)
            for prefix, index, num, den in paths
            for elem, j, p_num, p_den in terms[(level, index)]
        ]
    return {prefix: Fraction(num, den) for prefix, _, num, den in paths}


def uniform_path_measure(handle: GroupHandle) -> dict[tuple[int, ...], Fraction]:
    """The uniform law on the numberings the group handle lists."""
    return dict.fromkeys(handle.paths, Fraction(1, handle.n_paths))


def _perturb(measure, paths, fibers, eps):
    """Move mass eps onto the first and off the second path of the first
    fiber holding at least two, each fiber a list of ids into `paths`;
    returns the new law and those two paths, the only ones it changed."""
    for ids in fibers:
        if len(ids) >= 2:
            first, second = paths[ids[0]], paths[ids[1]]
            out = dict(measure)
            out[first] = out[first] + eps
            out[second] = out[second] - eps
            return out, (first, second)
    raise ValueError("no fiber with two or more paths")


def perturb_fiber(measure, eps=Fraction(1, 10)):
    """Move mass eps between the two lexicographically first paths of the
    first endpoint fiber holding at least two paths; breaks centrality by
    construction. `measure check` moves a law by the same rule within its
    handle's `fiber_ids`, each kept to the law's paths, grouped once."""
    paths = sorted(measure)
    return _perturb(measure, paths, _endpoint_fiber_ids(paths).values(), eps)[0]


@dataclass
class CentralityReport:
    """Both routes to centrality: generator invariance (the definition)
    and conditional uniformity on endpoint fibers (the characterization,
    given fiber transitivity).

    `phi`, set only by `kernel_centrality` on a central kernel, is built on
    first read from the pass's integer pairs `phi_pairs`: the mass phi(w)
    that every prefix reaching vertex w = (level, index) carries."""

    exact = True  # a constant, no field: laws and kernels are exact rationals, and a float raises
    n_paths: int
    invariance_ok: bool
    invariance_witnesses: list[tuple[int, tuple[int, ...]]]
    fiber_ok: bool
    fiber_witnesses: list[tuple[tuple[int, ...], tuple[int, ...]]]
    phi_pairs: list[dict[int, tuple[int, int]]] | None = None  # per level: index -> phi, reduced (num, den)

    @property
    def central(self) -> bool:
        return self.invariance_ok and self.fiber_ok

    @functools.cached_property
    def phi(self) -> dict[tuple[int, int], Fraction] | None:
        if self.phi_pairs is not None:
            return {(level, j): Fraction(*pair) for level, row in enumerate(self.phi_pairs) for j, pair in row.items()}


def is_central(handle: GroupHandle, measure) -> CentralityReport:
    """Check a path measure for invariance under every involution and for
    fiber-conditional uniformity.

    `measure` maps numberings (tuples of ids) that `handle` lists to exact
    rational probabilities summing to one; a float raises ValueError.

    A permutation keeps every mass exactly when it keeps the masses of
    the paths off the most common one: it maps them into, so onto,
    themselves. So the generators are read in order at those paths alone,
    only the first that moves mass is realized in full (for its
    witnesses), and only the fibers holding such a path are scanned. A
    uniform law, or one this refuses, reads no generator.
    """
    from collections import Counter  # loaded with functools; no import at module load

    if not measure:
        raise ValueError("empty measure")
    # masses as integers over one common denominator compare as the rationals do, without Fractions
    weights = [(0, 1)] * handle.n_paths  # (numerator, denominator) by path id, lexicographic
    by_den: dict[int, int] = {}
    for key, p in measure.items():
        k = handle.path_index.get(key)
        if k is None:
            raise ValueError(f"{key} is not a numbering of length {handle.length} of this window")
        if not (type(p) is Fraction or type(p) is int or isinstance(p, Rational)):
            raise ValueError(f"probability {p!r} of {key} is not an exact rational")
        num, den = p.numerator, p.denominator
        if num < 0:
            raise ValueError("negative probability")
        weights[k] = (num, den)
        by_den[den] = by_den.get(den, 0) + num
    common = math.lcm(*by_den)
    total = Fraction(sum(num * (common // den) for den, num in by_den.items()), common)
    if total != 1:
        raise ValueError(f"probabilities sum to {total}, not 1")

    scaled = [num * (common // den) for num, den in weights]
    counts = Counter(scaled)
    usual = max(counts, key=counts.__getitem__)  # the most common weight, the first seen on a tie
    off = list(itertools.compress(range(len(scaled)), map(operator.ne, scaled, itertools.repeat(usual))))
    inv_witnesses, fiber_witnesses = [], []
    if off:  # else the law is uniform: no generator or fiber is read
        gens = handle.generators
        at = getattr(gens, "at", None) or (lambda b, ids: [gens[b][k] for k in ids])  # plain tuples are indexed
        masses = [scaled[k] for k in off]
        for b in range(len(gens)):
            if list(map(scaled.__getitem__, at(b, off))) != masses:  # the slot moves mass: realize it
                moved = map(operator.ne, scaled, map(scaled.__getitem__, gens[b]))
                inv_witnesses = [(b + 1, handle.paths[k]) for k in itertools.islice(itertools.compress(itertools.count(), moved), 5)]
                break
        marked = set(off)
        for ids in handle.fiber_ids:
            if marked.isdisjoint(ids):  # the common weight alone: uniform
                continue
            keys = [scaled[k] for k in ids]
            lo, hi = min(keys), max(keys)
            if lo != hi:  # the first lightest and the first heaviest, in path order
                fiber_witnesses.append((handle.paths[ids[keys.index(lo)]], handle.paths[ids[keys.index(hi)]]))
    return CentralityReport(
        n_paths=handle.n_paths,
        invariance_ok=not inv_witnesses,
        invariance_witnesses=inv_witnesses,
        fiber_ok=not fiber_witnesses,
        fiber_witnesses=fiber_witnesses,
    )


def kernel_centrality(kernel: ExplicitMarkov) -> CentralityReport:
    """Check a kernel's path law at its depth for centrality by one exact
    forward pass over the positive terms of the rows it reaches.

    The law is central exactly when every prefix reaching a vertex w
    carries one mass phi(w) (Vershik-Kerov). Level by level, each later
    mass phi(u) * p(u -> w) into a reached w must equal its first, and the
    reached vertices must have no more graph in-edges than the level has
    terms: one more leaves an unreached u, or has probability 0, and
    carries 0. Only a level that fails lists its in-edges, to find the
    first vertex w (lowest level L, then index) where in-edges adding
    x < y disagree; v = w - x - y is reached (level L - 1 agrees), so the
    prefix c to v back along each vertex's first positive in-edge and the
    continuation d from w along each row's first positive edge give
    c.x.y.d and c.y.x.d: one endpoint fiber, two masses, swapped by
    sigma_{L-1}. Each witness list holds that one pair. Every vertex the
    pass reaches has a row: the kernel checked that when it was built.
    """
    g, terms = kernel.graph, kernel.terms
    phis = [{0: (1, 1)}]  # per level: reached index -> phi as a reduced (numerator, denominator)
    for level in range(kernel.depth):
        phi, seen, n_terms, agree = phis[level], {}, 0, True  # seen: index above -> its first in-term's mass
        for u, (num, den) in phi.items():
            row = terms[(level, u)]
            n_terms += len(row)
            for _, j, p_num, p_den in row:
                first = seen.get(j)
                if first is None:
                    seen[j] = (num * p_num, den * p_den)
                elif first[0] * den * p_den != num * p_num * first[1]:
                    agree = False
        targets = map(operator.itemgetter(1), itertools.chain.from_iterable(g.up_edges[level]))
        if not agree or sum(map(seen.__contains__, targets)) > n_terms:  # more in-edges than terms: one carries 0
            break
        phis.append({j: (num // c, den // c) for j, (num, den) in seen.items() for c in [math.gcd(num, den)]})
    else:  # every level agrees
        return CentralityReport(n_paths=sum(g.dims[kernel.depth]), invariance_ok=True, invariance_witnesses=[],
                                fiber_ok=True, fiber_witnesses=[], phi_pairs=phis)
    into = [[] for _ in g.levels[level + 1]]  # per index above: its in-edges (num, den, elem), source ascending
    for u, edges in enumerate(g.up_edges[level]):
        num, den = phi.get(u, (0, 1))
        carried = {elem: (num * p_num, den * p_den) for elem, _, p_num, p_den in terms.get((level, u), ()) if num}
        for elem, j in edges:
            into[j].append((*carried.get(elem, (0, 1)), elem))
    for w, edges in enumerate(into):  # the first reached vertex whose in-edges disagree
        num, den, elem = next((edge for edge in edges if edge[0]), (0, 1, None))
        bad = next((edge for edge in edges if edge[0] * den != num * edge[1]), None)
        if bad:
            break
    level, masses = level + 1, {elem: (num, den), bad[2]: bad[:2]}
    x, y = sorted(masses)
    v = g._index[level - 2][g.levels[level][w] & ~g.window.poset.mask_of((x, y))]  # w's mask with x and y cleared
    head = []
    for k in range(level - 2, 0, -1):  # back from v along each first positive in-edge
        v, elem = next((u, elem) for u in sorted(phis[k - 1]) for elem, j, _, _ in terms[(k - 1, u)] if j == v)
        head.append(elem)
    tail = []
    for k in range(level, kernel.depth):
        elem, w = terms[(k, w)][0][:2]
        tail.append(elem)
    c = (ROOT, *reversed(head))
    first_xy, first_yx = c + (x, y, *tail), c + (y, x, *tail)
    # c.x.y ends on the edge adding y, c.y.x on the one adding x; d scales both alike
    (ny, dy), (nx, dx) = masses[y], masses[x]
    lo, hi = (first_xy, first_yx) if ny * dx < nx * dy else (first_yx, first_xy)
    return CentralityReport(
        n_paths=sum(g.dims[kernel.depth]), invariance_ok=False, invariance_witnesses=[(level - 1, first_xy)],
        fiber_ok=False, fiber_witnesses=[(lo, hi)],
    )


def plancherel_transition(shape):
    """Growth step of the dimension-proportional central measure.

    Returns the diagrams one cell larger with their probabilities,
    row-ascending, as ratios of tableau counts (big integers; the
    probabilities sum to 1 exactly).
    """
    parts = check_partition(shape)
    n = sum(parts)
    d = tableau_count(parts)
    return [
        (mu, Fraction(tableau_count(mu), (n + 1) * d)) for mu, _ in additions(parts)
    ]


def _check_steps(n_steps: int) -> None:
    if n_steps < 1:
        raise ValueError("n_steps must be >= 1")
    if n_steps > STEP_CAP:
        raise CapExceeded(f"{n_steps} steps exceed the step cap of {STEP_CAP}")


def sample_plancherel(n_steps: int, seed: int) -> GrowthPath:
    """One trajectory of the dimension-proportional growth process.

    Keeps i.i.d. uniform letters, whose row insertion is the shape growth:
    their relative order is a uniform permutation, whose recording tableau
    grows by the exact Plancherel transitions (Kerov-Vershik).
    Deterministic given the seed.
    """
    _check_steps(n_steps)
    return GrowthPath(thoma_word((), n_steps, seed))


def thoma_word(alpha: tuple[float, ...], n_steps: int, seed: int) -> list:
    """The n_steps i.i.d. letters a growth sampler inserts for this seed, one
    rng.random() draw each: with an empty alpha the draws themselves, else
    the 0-based letter a with probability alpha[a]."""
    draws = itertools.islice(iter(random.Random(seed).random, None), n_steps)
    if not alpha:
        return list(draws)
    cum = list(itertools.accumulate(alpha))
    cum[-1] = math.inf  # a draw at or above the float sum, which may end below 1, is the last letter
    return list(map(bisect.bisect_right, itertools.repeat(cum), draws))


def sample_rsk_thoma(alpha, n_steps: int, seed: int) -> GrowthPath:
    """Insert n i.i.d. letters drawn from alpha and record the shape growth.

    The path keeps the word (`thoma_word`), inserted on letter counts when
    its cells are first read. The shape never exceeds len(alpha) rows;
    deterministic given the seed.
    """
    alpha = Thoma(tuple(alpha)).alpha
    if not alpha:
        raise ValueError("alpha must be nonempty")
    _check_steps(n_steps)
    return GrowthPath(thoma_word(alpha, n_steps, seed), alphabet=len(alpha))


def sample_markov(m: ExplicitMarkov, n_steps: int, seed: int) -> tuple[int, ...]:
    """Walk an explicit kernel for n_steps edges from the root."""
    m.check_steps(n_steps)
    rng = random.Random(seed)
    level, index = 0, 0
    elems = [ROOT]
    for _ in range(n_steps):
        u = rng.random()
        acc = 0.0
        # the row's positive terms: zero-probability edges are never taken;
        # without a break, float round-off picks the last positive edge
        for elem, j, num, den in m.terms[(level, index)]:
            acc += num / den  # float(p), as Fraction.__float__ divides
            if u < acc:
                break
        elems.append(elem)
        level, index = level + 1, j
    return validate_numbering(m.graph.window.poset, elems)


def growth_to_numbering(path: GrowthPath) -> tuple[PosetWindow, tuple[int, ...]]:
    """Materialize the smallest Young window containing a growth path and
    re-express the path as a numbering of it."""
    window = build_young_poset(path.shape())
    ids = {window.poset.coords[x]: x for x in range(1, window.poset.n)}
    elems = [ROOT] + [ids[cell] for cell in path.cells]
    return window, validate_numbering(window.poset, elems)


@dataclass
class FrequencyReport:
    """Monte Carlo estimate of the fraction of a numbering's first n
    elements landing in an ideal (the root excluded from numerator and
    denominator)."""

    sampler: str
    ideal: str
    n_steps: int
    replicas: int
    estimate: float
    stderr: float
    seed: int
    values: tuple[float, ...]

    def csv_row(self) -> str:
        return ",".join(
            csv_field(v)
            for v in (
                self.sampler,
                self.ideal,
                self.n_steps,
                self.replicas,
                repr(self.estimate),
                repr(self.stderr),
                self.seed,
            )
        )


FREQUENCY_CSV_HEADER = "sampler,ideal,n,replicas,estimate,stderr,seed"


def csv_field(value) -> str:
    """Quote a CSV field when it contains a comma or quote (sampler and
    ideal names legitimately do, e.g. hook:1,0)."""
    text = str(value)
    if "," in text or '"' in text:
        return '"' + text.replace('"', '""') + '"'
    return text


def estimate_frequency(
    spec: CentralMeasureSpec,
    ideals,
    n_steps: int,
    replicas: int,
    seed: int,
) -> list[FrequencyReport]:
    """Mean and standard error of the ideal-occupation fraction over
    independent replicas, one report per ideal. Replica k is sampled once,
    seeded with seed + k, and scored against every ideal. Raises
    CapExceeded, before any sampling, when n_steps * replicas exceeds
    STEP_CAP."""
    if replicas < 1:
        raise ValueError("replicas must be >= 1")
    if n_steps * replicas > STEP_CAP:
        raise CapExceeded(f"{n_steps} steps x {replicas} replicas exceed the step cap of {STEP_CAP}")
    ideals = list(ideals)
    values: list[list[float]] = [[] for _ in ideals]
    for k in range(replicas):
        path = spec.sample(n_steps, seed + k)
        for ideal, vals in zip(ideals, values):
            vals.append(spec.hits(path, ideal) / n_steps)
    reports = []
    for ideal, vals in zip(ideals, values):
        # reduce adds left to right on every Python; from 3.12 on, sum()
        # compensates round-off, which moves the last digits of estimates
        mean = functools.reduce(operator.add, vals) / replicas
        if replicas > 1:
            var = functools.reduce(operator.add, ((v - mean) ** 2 for v in vals)) / (replicas - 1)
            stderr = math.sqrt(var / replicas)
        else:
            stderr = 0.0
        reports.append(
            FrequencyReport(
                sampler=spec.name(),
                ideal=ideal.name(),
                n_steps=n_steps,
                replicas=replicas,
                estimate=mean,
                stderr=stderr,
                seed=seed,
                values=tuple(vals),
            )
        )
    return reports


@dataclass
class PairVerdict:
    sampler_a: str
    sampler_b: str
    distinguished: bool
    separations: tuple[tuple[str, float], ...]  # (ideal, separation in stderr units)


@dataclass
class ComparisonTable:
    reports: list[FrequencyReport]
    pairs: list[PairVerdict]
    threshold: float


def compare_frequency_profiles(
    specs,
    ideals,
    n_steps: int,
    replicas: int,
    seed: int,
    threshold: float = 3.0,
) -> ComparisonTable:
    """Estimate every sampler on every ideal and flag sampler pairs whose
    estimates stay within `threshold` combined standard errors on all of
    the supplied ideals (empirical indistinguishability, not proof).
    Needs at least two replicas: one gives no standard error to scale a
    gap by."""
    if not (math.isfinite(threshold) and threshold >= 0):
        raise ValueError(f"threshold must be finite and non-negative, got {threshold}")
    if replicas < 2:
        raise ValueError(f"comparing needs at least 2 replicas, got {replicas}")
    specs = list(specs)
    ideals = list(ideals)
    if len(specs) < 2:
        raise ValueError("need at least two samplers to compare")
    families = {s.family for s in specs}
    if len(families) != 1:
        raise ValueError(f"samplers over mixed poset families: {sorted(families)}")
    for spec in specs:  # before any sampler samples
        spec.check_steps(n_steps)
    grid = [
        estimate_frequency(spec, ideals, n_steps, replicas, seed + s * 1_000_003)
        for s, spec in enumerate(specs)
    ]
    pairs = []
    for s in range(len(specs)):
        for t in range(s + 1, len(specs)):
            seps = []
            distinguished = False
            for j, ideal in enumerate(ideals):
                ra, rb = grid[s][j], grid[t][j]
                gap = abs(ra.estimate - rb.estimate)
                combined = math.sqrt(ra.stderr**2 + rb.stderr**2)
                units = gap / combined if combined > 0 else (math.inf if gap > 0 else 0.0)
                seps.append((ideal.name(), units))
                if units > threshold:
                    distinguished = True
            pairs.append(
                PairVerdict(
                    sampler_a=specs[s].name(),
                    sampler_b=specs[t].name(),
                    distinguished=distinguished,
                    separations=tuple(seps),
                )
            )
    return ComparisonTable(
        reports=[r for row in grid for r in row], pairs=pairs, threshold=threshold
    )
