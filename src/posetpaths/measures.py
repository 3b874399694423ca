"""Central measures on numbering spaces: exact kernels and samplers.

A measure on fixed-length numberings is central when every adjacent-swap
involution preserves it; equivalently, when it is conditionally uniform
on every endpoint fiber. Finite-truncation kernels and laws hold exact
rationals only, and a float in a kernel row or a law raises ValueError:
centrality is an exact symmetry, and a tolerance would mask bugs.
`is_central` reads that symmetry off a `symmetry.GroupHandle` the
caller builds once with `generate_group`. Floating point enters only
inside Monte Carlo sampling. Both Young growth samplers run on row
insertion: Plancherel growth inserts i.i.d. uniform letters, the Thoma
samplers letters drawn from alpha. RSK growth runs on per-row letter
counts (`young.row_insert_counts`), Plancherel growth on `row_insert`.

Replica k of a Monte Carlo run is seeded with seed + k; sampler s of a
comparison run gets base seed seed + s * 1_000_003. Identical seeds give
bit-identical paths and reports.
"""

from __future__ import annotations

import bisect
import itertools
import math
import random
from dataclasses import dataclass
from fractions import Fraction
from numbers import Rational

from .graded_graph import GradedGraph, LevelVertex, dimension, up_dimension_table
from .ideals import (
    FiniteSetIdeal,
    IdealSpec,
    ideal_member,
    member_coords,
)
from .posets import PATH_CAP, ROOT, CapExceeded, PosetWindow, build_young_poset, validate_numbering
from .posets import enumerate_numberings  # noqa: F401  (bench/spans.py traces the name here)
from .symmetry import apply_sigma  # noqa: F401  (bench/spans.py traces the name here)
from .symmetry import GroupHandle
from .young import (
    GrowthPath,
    additions,
    check_partition,
    row_insert,
    row_insert_counts,
    tableau_count,
)
from .young import corner_probabilities, growth_step_arrays  # noqa: F401  (only bench/spans.py's KERNELS use them; delete both once it drops them)

STEP_CAP = 10_000_000  # most steps one growth sample, or all replicas of one estimate, draw


class _YoungGrowth:
    """The growth samplers' points are the added cells, read by coordinates."""

    family = "young-growth"
    has_ties = False

    def hits(self, path: GrowthPath, ideal: IdealSpec) -> int:
        """How many of the sampled cells lie in the ideal.

        The cells of a path are those of its final shape. A coordinate
        ideal is downward closed, so it meets each row of that shape in a
        prefix no longer than the one in the row above, and no row below
        a row whose first cell is outside it; bisection finds each prefix.
        """
        if isinstance(ideal, FiniteSetIdeal):
            raise ValueError("finite-set ideals are window-bound; growth samplers have no ids")
        total = 0
        prefix = path.n_steps
        for r, length in enumerate(path.shape(), start=1):
            if not member_coords(ideal, (r, 1)):
                break
            cols = range(2, min(length, prefix) + 1)
            prefix = 1 + bisect.bisect_left(cols, True, key=lambda c: not member_coords(ideal, (r, c)))
            total += prefix
        return total

    def text(self, path: GrowthPath) -> str:
        return "step,row,col\n" + "\n".join([f"{k},{r},{c}" for k, (r, c) in enumerate(path.cells, start=1)])


@dataclass(frozen=True)
class PlancherelYoung(_YoungGrowth):
    """Dimension-proportional growth on Young diagrams."""

    def name(self) -> str:
        return "plancherel"

    def sample(self, n_steps: int, seed: int) -> GrowthPath:
        return sample_plancherel(n_steps, seed)


@dataclass(frozen=True)
class RSKThoma(_YoungGrowth):
    """Shape growth of row insertion applied to i.i.d. letters.

    `alpha` are the letter probabilities: strictly positive, summing to
    one. Tied entries are legal but flagged, since row frequencies only
    identify the parameters when they are distinct.
    """

    alpha: tuple[float, ...]

    def __post_init__(self):
        if not self.alpha:
            raise ValueError("alpha must be nonempty")
        if not all(math.isfinite(a) for a in self.alpha):
            raise ValueError(f"alpha entries must be finite, got {self.alpha}")
        if any(a <= 0 for a in self.alpha):
            raise ValueError(f"alpha entries must be positive, got {self.alpha}")
        if abs(sum(self.alpha) - 1.0) > 1e-9:
            raise ValueError(f"alpha must sum to 1, got {sum(self.alpha)}")

    @property
    def has_ties(self) -> bool:
        return len(set(self.alpha)) < len(self.alpha)

    def name(self) -> str:
        return "rsk:" + ",".join(repr(a) for a in self.alpha)

    def sample(self, n_steps: int, seed: int) -> GrowthPath:
        return sample_rsk_thoma(self.alpha, n_steps, seed)


class ExplicitMarkov:
    """Per-vertex transition rows over the up-edges of a graded graph.

    Rows map (level, index) to tuples (added element, target index,
    probability). Probabilities are exact rationals (ints or Fractions),
    non-negative, and each row sums to exactly one; a float raises
    ValueError.
    """

    has_ties = False

    def __init__(self, graph: GradedGraph, rows, name: str, depth: int | None = None):
        self.graph = graph
        self.rows = dict(rows)
        self._name = name
        self.depth = depth if depth is not None else graph.depth
        for key, row in self.rows.items():
            if not all(isinstance(p, Rational) for _, _, p in row):
                raise ValueError(f"row {key} has a probability that is not an exact rational")
            total = sum(p for _, _, p in row)
            if total != 1:
                raise ValueError(f"row {key} sums to {total}, not 1")
            if any(p < 0 for _, _, p in row):
                raise ValueError(f"row {key} has a negative probability")

    def name(self) -> str:
        return self._name

    @property
    def family(self) -> str:
        return f"window:{self.graph.window.describe()}"

    def sample(self, n_steps: int, seed: int) -> tuple[int, ...]:
        return sample_markov(self, n_steps, seed)

    def hits(self, path: tuple[int, ...], ideal: IdealSpec) -> int:
        """How many of the sampled elements, the root excluded, lie in the ideal."""
        poset = self.graph.window.poset
        return sum(1 for x in path[1:] if ideal_member(ideal, poset.element(x)))

    def text(self, path: tuple[int, ...]) -> str:
        return ",".join(str(x) for x in path)


# The sampler interface every spec shares: name(); `family`, the poset
# family its points live in (specs are only compared within one);
# `has_ties`; sample(n_steps, seed), one path; hits(path, ideal), how many
# of the path's points lie in the ideal; text(path), the path as text.
CentralMeasureSpec = PlancherelYoung | RSKThoma | ExplicitMarkov


def parse_markov_kernel(graph: GradedGraph, text: str, name: str = "markov:file") -> ExplicitMarkov:
    """Kernel file: lines `row <level>:<index> <elem>:<prob> ...`, `#` comments.

    Probabilities are exact rationals (`1/3`) or decimal literals, taken
    at face value as fractions (0.2 means exactly 1/5); rows may only use
    edges of the graph.
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
    depth = 1 + max(level for level, _ in rows)
    # every vertex reached with positive probability before the depth needs a row
    reached = {(0, 0): "the kernel starts at"}  # vertex -> what reaches it first
    for level in range(1, depth + 1):
        nxt = {}
        for key, how in sorted(reached.items()):
            if key not in rows:
                raise ValueError(f"{how} {key[0]}:{key[1]}, which has no row")
            for elem, j, p in rows[key]:
                if p:
                    nxt.setdefault((level, j), f"line {row_lines[key]}: element {elem} leads to")
        reached = nxt
    return ExplicitMarkov(graph, rows, name=name, depth=depth)


def endpoint_measure(g: GradedGraph, v: LevelVertex) -> ExplicitMarkov:
    """The exact kernel whose path law is uniform on root-to-v paths.

    Transition u -> w gets probability (paths w->v) / (paths u->v); the
    products along any root-to-v path telescope to 1/dimension(v).
    """
    if dimension(g, v) < 1:
        raise ValueError(f"vertex {v.describe()} is unreachable")
    table = up_dimension_table(g, v)
    rows = {}
    for level in range(v.level):
        for i, edge_row in enumerate(g.up_edges[level]):
            below = table.get((level, i), 0)
            if below == 0:
                continue
            row = []
            for elem, j in edge_row:
                above = table.get((level + 1, j), 0)
                if above:
                    row.append((elem, j, Fraction(above, below)))
            rows[(level, i)] = tuple(row)
    return ExplicitMarkov(g, rows, name=f"endpoint:{v.level}:{v.index}", depth=v.level)


def path_measure(m: ExplicitMarkov) -> dict[tuple[int, ...], Fraction]:
    """Exact law on root-based paths of the kernel's depth. Raises
    CapExceeded, before any path is built, when more than PATH_CAP paths
    carry positive probability (for an endpoint kernel, dimension(v))."""
    counts = {0: 1}  # index at the current level -> positive-probability paths to it
    for level in range(m.depth):
        nxt: dict[int, int] = {}
        for i, c in counts.items():
            for _, j, p in m.rows.get((level, i), ()):
                if p:
                    nxt[j] = nxt.get(j, 0) + c
        counts = nxt
    if sum(counts.values()) > PATH_CAP:
        raise CapExceeded(f"more than {PATH_CAP} paths under {m.name()}")
    # the walk multiplies integer numerators and denominators and makes
    # one Fraction per path
    terms = {
        key: [(elem, j, p.numerator, p.denominator) for elem, j, p in row if p]
        for key, row in m.rows.items()
    }
    out: dict[tuple[int, ...], Fraction] = {}

    def walk(level, index, prefix, num, den):
        if level == m.depth:
            out[prefix] = Fraction(num, den)
            return
        for elem, j, p_num, p_den in terms.get((level, index), ()):
            walk(level + 1, j, prefix + (elem,), num * p_num, den * p_den)

    walk(0, 0, (ROOT,), 1, 1)
    return out


def uniform_path_measure(handle: GroupHandle) -> dict[tuple[int, ...], Fraction]:
    """The uniform law on the numberings the group handle lists."""
    return dict.fromkeys(handle.paths, Fraction(1, handle.n_paths))


def perturb_fiber(measure, eps=Fraction(1, 10)):
    """Move mass eps between the two lexicographically first paths of the
    first endpoint fiber holding at least two paths; breaks centrality by
    construction."""
    by_fiber: dict[frozenset, list[tuple[int, ...]]] = {}
    for key in sorted(measure):
        by_fiber.setdefault(frozenset(key), []).append(key)
    for fiber_key in sorted(by_fiber, key=lambda f: tuple(sorted(f))):
        paths = by_fiber[fiber_key]
        if len(paths) >= 2:
            out = dict(measure)
            out[paths[0]] = out[paths[0]] + eps
            out[paths[1]] = out[paths[1]] - eps
            return out
    raise ValueError("no fiber with two or more paths")


@dataclass
class CentralityReport:
    """Both routes to centrality: generator invariance (the definition)
    and conditional uniformity on endpoint fibers (the characterization,
    given fiber transitivity)."""

    n_paths: int
    length: int
    exact: bool  # always True: laws are exact rationals
    invariance_ok: bool
    invariance_witnesses: list[tuple[int, tuple[int, ...]]]
    fiber_ok: bool
    fiber_witnesses: list[tuple[tuple[int, ...], tuple[int, ...]]]

    @property
    def central(self) -> bool:
        return self.invariance_ok and self.fiber_ok


def is_central(handle: GroupHandle, measure) -> CentralityReport:
    """Check a path measure for invariance under every involution and for
    fiber-conditional uniformity.

    `measure` maps numberings (tuples of ids) that `handle` lists to exact
    rational probabilities summing to one; a float raises ValueError.
    """
    if not measure:
        raise ValueError("empty measure")
    # normalized (numerator, denominator) pairs are equal exactly when the
    # values are; sums and comparisons run on them without Fraction's
    # per-operation gcd and mixed-type dispatch
    weights = [(0, 1)] * handle.n_paths  # by path id, lexicographic
    by_den: dict[int, int] = {}
    for key, p in measure.items():
        k = handle.path_index.get(key)
        if k is None:
            raise ValueError(f"{key} is not a numbering of length {handle.length} of this window")
        if not isinstance(p, Rational):
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

    inv_witnesses = []
    for i, gen in zip(handle.sigma_indices, handle.generators):
        inv_witnesses = [(i, handle.paths[k]) for k, j in enumerate(gen) if weights[k] != weights[j]][:5]
        if inv_witnesses:
            break

    def value(k):
        return Fraction(*weights[k])

    fiber_witnesses = []
    fibers: dict[frozenset, list[int]] = {}
    for k, p in enumerate(handle.paths):
        fibers.setdefault(frozenset(p), []).append(k)
    for fiber_key in sorted(fibers, key=lambda f: tuple(sorted(f))):
        group = fibers[fiber_key]
        if len({weights[k] for k in group}) > 1:
            fiber_witnesses.append((handle.paths[min(group, key=value)], handle.paths[max(group, key=value)]))
    return CentralityReport(
        n_paths=handle.n_paths,
        length=handle.length,
        exact=True,
        invariance_ok=not inv_witnesses,
        invariance_witnesses=inv_witnesses,
        fiber_ok=not fiber_witnesses,
        fiber_witnesses=fiber_witnesses,
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

    Row-inserts i.i.d. uniform letters and records the shape growth: the
    letters' relative order is a uniform permutation, whose recording
    tableau grows by the exact Plancherel transitions (Kerov-Vershik).
    Deterministic given the seed.
    """
    _check_steps(n_steps)
    rng = random.Random(seed)
    rows: list[list[float]] = []
    return GrowthPath(tuple(row_insert(rows, rng.random()) for _ in range(n_steps)))


def sample_rsk_thoma(alpha, n_steps: int, seed: int) -> GrowthPath:
    """Insert n i.i.d. letters drawn from alpha and record the shape growth.

    The whole word is drawn first, then inserted on letter counts; the
    cells are those `row_insert` gives. The shape never exceeds len(alpha)
    rows; deterministic given the seed.
    """
    spec = RSKThoma(tuple(alpha))
    _check_steps(n_steps)
    rng = random.Random(seed)
    cum = list(itertools.accumulate(spec.alpha))
    cum[-1] = math.inf  # a draw at or above the float sum, which may end below 1, is the last letter
    # one rng.random() per letter, in order: map stops when repeat does
    word = list(map(bisect.bisect_right, itertools.repeat(cum, n_steps), iter(rng.random, None)))
    cells = row_insert_counts(word, len(spec.alpha))
    return GrowthPath(tuple(cells), letters=tuple([letter + 1 for letter in word]))


def sample_markov(m: ExplicitMarkov, n_steps: int, seed: int) -> tuple[int, ...]:
    """Walk an explicit kernel for n_steps edges from the root."""
    if not (1 <= n_steps <= m.depth):
        raise ValueError(f"kernel supports 1..{m.depth} steps, asked for {n_steps}")
    rng = random.Random(seed)
    level, index = 0, 0
    elems = [ROOT]
    for _ in range(n_steps):
        row = m.rows.get((level, index))
        if not row:
            raise ValueError(f"kernel has no row at level {level} index {index}")
        u = rng.random()
        acc = 0.0
        for elem, j, p in row:  # without a break, float round-off picks the last edge
            acc += float(p)
            if u < acc:
                break
        elems.append(elem)
        level, index = level + 1, j
    return validate_numbering(m.graph.window.poset, elems)


def growth_to_numbering(path: GrowthPath) -> tuple[PosetWindow, tuple[int, ...]]:
    """Materialize the smallest Young window containing a growth path and
    re-express the path as a numbering of it."""
    path.validate()
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
        mean = sum(vals) / replicas
        if replicas > 1:
            var = sum((v - mean) ** 2 for v in vals) / (replicas - 1)
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
