"""Outside-in spans around each layer's public functions.

The tracer rebinds names as the calling module sees them (for example
`posetpaths.cli.build_graph` or `posetpaths.graded_graph.addable_elements`),
so the program's source stays untouched. A name that no longer exists
raises at install time: a later change that renames a layer function
must update the table below rather than silently lose its span.

Spans record (name, start, end, parent); self time is a span's duration
minus the time its child spans cover. Per-step kernels (`young` row
insertion and corner weights, `ideals` coordinate membership) are called
tens of thousands of times per op, so they get a counter and aggregate
time instead of a span; that time still counts as covered in the
enclosing span.
"""

from __future__ import annotations

import functools
import importlib
import json
import time

# (module, attribute, span name); attribute "Class.method" patches a method.
SPANS = [
    ("posetpaths.graded_graph", "addable_elements", "posets.addable"),
    ("posetpaths.cli", "enumerate_numberings", "posets.enumerate"),
    ("posetpaths.symmetry", "enumerate_numberings", "posets.enumerate"),
    ("posetpaths.measures", "enumerate_numberings", "posets.enumerate"),
    ("posetpaths.cli", "build_young_poset", "posets.window"),
    ("posetpaths.cli", "build_box_poset", "posets.window"),
    ("posetpaths.cli", "build_chain_poset", "posets.window"),
    ("posetpaths.cli", "build_antichain_poset", "posets.window"),
    ("posetpaths.cli", "parse_poset", "posets.window"),
    ("posetpaths.cli", "build_graph", "graded_graph.build"),
    ("posetpaths.graded_graph", "GradedGraph.csv", "graded_graph.csv"),
    ("posetpaths.measures", "up_dimension_table", "graded_graph.up_table"),
    ("posetpaths.symmetry", "apply_sigma", "symmetry.sigma"),
    ("posetpaths.measures", "apply_sigma", "symmetry.sigma"),
    ("posetpaths.cli", "generate_group", "symmetry.generate"),
    ("posetpaths.cli", "verify_relations", "symmetry.relations"),
    ("posetpaths.cli", "group_order", "symmetry.order"),
    ("posetpaths.cli", "classify_local", "symmetry.local"),
    ("posetpaths.cli", "is_central", "measures.is_central"),
    ("posetpaths.cli", "path_measure", "measures.path_measure"),
    ("posetpaths.cli", "uniform_path_measure", "measures.path_measure"),
    ("posetpaths.cli", "perturb_fiber", "measures.path_measure"),
    ("posetpaths.cli", "endpoint_measure", "measures.endpoint"),
    ("posetpaths.cli", "sample_plancherel", "measures.plancherel"),
    ("posetpaths.measures", "sample_plancherel", "measures.plancherel"),
    ("posetpaths.cli", "sample_rsk_thoma", "measures.rsk"),
    ("posetpaths.measures", "sample_rsk_thoma", "measures.rsk"),
    ("posetpaths.cli", "estimate_frequency", "measures.frequency"),
    ("posetpaths.measures", "estimate_frequency", "measures.frequency"),
    ("posetpaths.cli", "compare_frequency_profiles", "measures.frequency"),
    ("posetpaths.cli", "parse_ideal", "ideals.parse"),
]

# per-step kernels: counter plus aggregate time, no span
KERNELS = [
    ("posetpaths.measures", "growth_step_arrays", "young.step"),
    ("posetpaths.measures", "corner_probabilities", "young.step"),
    ("posetpaths.measures", "row_insert", "young.step"),
    ("posetpaths.measures", "member_coords", "ideals.member"),
]

# counted only: group elements materialized by BFS closure
CLOSURE = ("posetpaths.symmetry", "closure")

SAMPLERS = ("measures.plancherel", "measures.rsk")


def _resolve(module: str, attr: str):
    owner = importlib.import_module(module)
    *path, name = attr.split(".")
    for part in path:
        owner = getattr(owner, part)
    if name not in vars(owner):
        raise AttributeError(f"traced name {module}.{attr} no longer exists")
    return owner, name


class Tracer:
    """Spans of one round of traced ops. install() / uninstall() bracket each
    traced round, so untraced rounds run the program's own functions."""

    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent, covered, op]
        self.stack: list[int] = []
        self.counts: dict[str, int] = {}
        self.kernel_s: dict[str, float] = {}
        self.trajectories: set = set()
        self.op = -1
        self._freq_depth = 0
        self._saved: list[tuple[object, str, object]] = []

    # --- patching -----------------------------------------------------------

    def install(self) -> None:
        from posetpaths.posets import CapExceeded

        self._cap_exceeded = CapExceeded
        for module, attr, name in SPANS:
            self._patch(module, attr, self._span_wrapper(name))
        for module, attr, name in KERNELS:
            self._patch(module, attr, self._kernel_wrapper(name))
        self._patch(*CLOSURE, self._closure_wrapper)

    def uninstall(self) -> None:
        for owner, name, original in reversed(self._saved):
            setattr(owner, name, original)
        self._saved.clear()

    def _patch(self, module, attr, make) -> None:
        owner, name = _resolve(module, attr)
        original = vars(owner)[name]
        self._saved.append((owner, name, original))
        setattr(owner, name, make(original))

    def _span_wrapper(self, span_name):
        def make(fn):
            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                idx = self.open(span_name)
                try:
                    result = fn(*args, **kwargs)
                finally:
                    self.close(idx)
                self._count(span_name, result, args)
                return result
            return wrapper
        return make

    def _kernel_wrapper(self, kernel_name):
        counts, secs, spans, stack = self.counts, self.kernel_s, self.spans, self.stack
        calls_key = kernel_name + "_calls"

        def make(fn):
            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                t0 = time.perf_counter()
                try:
                    return fn(*args, **kwargs)
                finally:
                    dt = time.perf_counter() - t0
                    counts[calls_key] = counts.get(calls_key, 0) + 1
                    secs[kernel_name] = secs.get(kernel_name, 0.0) + dt
                    spans[stack[-1]][4] += dt
            return wrapper
        return make

    def _closure_wrapper(self, fn):
        @functools.wraps(fn)
        def wrapper(generators, cap=None):
            try:
                elements, diameter = fn(generators, cap=cap)
            except self._cap_exceeded:
                self._add("symmetry.closure_elements", cap + 1)  # raised on the element past the cap
                raise
            self._add("symmetry.closure_elements", len(elements))
            return elements, diameter
        return wrapper

    def _add(self, key: str, value: int) -> None:
        self.counts[key] = self.counts.get(key, 0) + value

    def _count(self, name: str, result, args) -> None:
        """Work counts read off a layer call's result."""
        if name == "posets.addable":
            self._add("posets.addable_calls", 1)
        elif name == "posets.enumerate":
            self._add("posets.numberings", len(result))
        elif name == "graded_graph.build":
            self._add("graded_graph.vertices", sum(len(level) for level in result.levels))
            self._add("graded_graph.edges", sum(len(row) for level in result.up_edges for row in level))
        elif name == "symmetry.sigma":
            self._add("symmetry.sigma_calls", 1)
        elif name == "symmetry.order":
            self._add("symmetry.cap_hits", int(result.capped))
        elif name == "measures.is_central":
            self._add("measures.central_paths", result.n_paths)
        elif name in SAMPLERS:
            self._add(name + "_steps", result.n_steps)
            if self._freq_depth:
                self._add("measures.trajectories_sampled", 1)
                self.trajectories.add((self.op, name, args))

    # --- spans --------------------------------------------------------------

    def open(self, name: str) -> int:
        parent = self.stack[-1] if self.stack else None
        self.spans.append([name, time.perf_counter(), None, parent, 0.0, self.op])
        idx = len(self.spans) - 1
        self.stack.append(idx)
        if name == "measures.frequency":
            self._freq_depth += 1
        return idx

    def close(self, idx: int) -> None:
        span = self.spans[idx]
        span[2] = time.perf_counter()
        self.stack.pop()
        if span[0] == "measures.frequency":
            self._freq_depth -= 1
        if span[3] is not None:
            self.spans[span[3]][4] += span[2] - span[1]

    def write_spans(self, path: str) -> None:
        """One JSON array per line: name, start, end (s from the first span), parent, op."""
        t0 = self.spans[0][1] if self.spans else 0.0
        with open(path, "w", encoding="utf-8") as fh:
            for name, start, end, parent, _, op in self.spans:
                fh.write(json.dumps([name, round(start - t0, 7), round(end - t0, 7), parent, op]) + "\n")


# span name -> per-layer self-time metric
SELF_TIME = {
    "posets.addable": "posets.addable_s",
    "posets.enumerate": "posets.enumerate_s",
    "posets.window": "posets.window_s",
    "graded_graph.build": "graded_graph.build_s",
    "graded_graph.csv": "graded_graph.csv_s",
    "graded_graph.up_table": "graded_graph.up_table_s",
    "symmetry.sigma": "symmetry.sigma_s",
    "symmetry.generate": "symmetry.generate_s",
    "symmetry.relations": "symmetry.relations_s",
    "symmetry.order": "symmetry.order_s",
    "symmetry.local": "symmetry.local_s",
    "measures.is_central": "measures.is_central_s",
    "measures.path_measure": "measures.path_measure_s",
    "measures.endpoint": "measures.endpoint_s",
    "measures.frequency": "measures.frequency_s",
    "ideals.parse": "ideals.parse_s",
    "op": "cli.self_s",
}

COUNTS = [
    "posets.addable_calls", "posets.numberings", "graded_graph.vertices", "graded_graph.edges",
    "symmetry.sigma_calls", "symmetry.closure_elements", "symmetry.cap_hits", "measures.central_paths",
    "measures.plancherel_steps", "measures.rsk_steps", "young.step_calls", "ideals.member_calls",
]


def layer_metrics(tracer: Tracer, factors, kernel_s, out_bytes: int, untraced_s: float) -> dict:
    """Per-layer metrics of one traced round, in reference-host seconds.

    `factors[op]` scales op `op`'s wall times; `kernel_s[op]` holds its
    aggregate kernel time; `untraced_s` is the same round's op time
    without tracing.
    """
    self_s = dict.fromkeys(SELF_TIME, 0.0)
    total_s: dict[str, float] = {}
    for name, start, end, _, covered, op in tracer.spans:
        f = factors[op]
        self_s[name] = self_s.get(name, 0.0) + (end - start - covered) * f
        total_s[name] = total_s.get(name, 0.0) + (end - start) * f
    out = {metric: self_s[name] for name, metric in SELF_TIME.items()}
    out.update({key: tracer.counts.get(key, 0) for key in COUNTS})
    for kernel in ("young.step", "ideals.member"):
        out[kernel + "_s"] = sum(k.get(kernel, 0.0) * f for k, f in zip(kernel_s, factors))
    out["measures.sampler_s"] = sum(self_s.get(name, 0.0) for name in SAMPLERS)
    sampled = tracer.counts.get("measures.trajectories_sampled", 0)
    out["measures.trajectory_reuse"] = len(tracer.trajectories) / sampled if sampled else 0.0
    out["cli.out_bytes"] = out_bytes
    out["trace.op_s"] = total_s["op"]
    out["trace.overhead_ratio"] = total_s["op"] / untraced_s
    # totals, for the per-second rates the caller derives
    out["graded_graph.build_total_s"] = total_s.get("graded_graph.build", 0.0)
    out["measures.plancherel_total_s"] = total_s.get("measures.plancherel", 0.0)
    out["measures.rsk_total_s"] = total_s.get("measures.rsk", 0.0)
    return out
