"""Command-line front end: build, inspect, enumerate, group-check, sample,
estimate, compare.

Every run echoes its resolved configuration as `#`-prefixed header lines,
so identical command lines produce byte-identical output. Exit codes:
0 success, 1 a checked property failed (relation violation, non-central
measure), 2 usage or input error, 3 a cap was exceeded.
"""

from __future__ import annotations

import argparse
import functools
import sys
from fractions import Fraction

from .graded_graph import DEFAULT_VERTEX_CAP, build_graph
from .ideals import parse_ideal
from .measures import (
    FREQUENCY_CSV_HEADER,
    PlancherelYoung,
    RSKThoma,
    compare_frequency_profiles,
    csv_field,
    endpoint_measure,
    parse_markov_kernel,
    estimate_frequency,
    is_central,
    path_measure,
    perturb_fiber,
    sample_plancherel,  # noqa: F401  (bench/spans.py traces the name here)
    sample_rsk_thoma,  # noqa: F401  (bench/spans.py traces the name here)
    uniform_path_measure,
)
from .posets import (
    PATH_CAP,
    CapExceeded,
    PosetFormatError,
    build_antichain_poset,
    build_box_poset,
    build_chain_poset,
    build_young_poset,
    enumerate_numberings,
    parse_poset,
    serialize_poset,
)
from .symmetry import (
    GROUP_CAP,
    classify_local,
    generate_group,
    group_order,
    local_indices,
    verify_relations,
)

EXIT_OK = 0
EXIT_VIOLATION = 1
EXIT_USAGE = 2
EXIT_CAP = 3


def _ints(text: str) -> list[int]:
    return [int(t) for t in text.split(",") if t != ""]


_POSET_SOURCES = ("young", "box", "chain", "antichain", "file")


def _add_poset_args(p: argparse.ArgumentParser, required: bool) -> None:
    src = p.add_mutually_exclusive_group(required=required)
    src.add_argument("--young", metavar="P1,P2,...", help="Young diagram window")
    src.add_argument("--box", metavar="B1,...,BD", help="box window of Z+^d")
    src.add_argument("--chain", type=int, metavar="N", help="chain on N elements")
    src.add_argument("--antichain", type=int, metavar="N", help="root plus N-antichain")
    src.add_argument("--file", metavar="PATH", help="poset file (el/cov lines)")


def _add_sampler_args(p: argparse.ArgumentParser, kinds, required: bool) -> None:
    """Sampler flags, each stored in `args.sampler` as the text `_parse_sampler` reads."""
    group = p.add_mutually_exclusive_group(required=required)
    if "plancherel" in kinds:
        group.add_argument("--plancherel", action="store_const", const="plancherel", dest="sampler")
    for kind, metavar in (("rsk", "A1,A2,..."), ("endpoint", "LEVEL:INDEX"), ("markov", "FILE")):
        if kind in kinds:
            group.add_argument(
                f"--{kind}", dest="sampler", metavar=metavar, type=lambda t, k=kind: f"{k}:{t}"
            )


def _resolve_window(args):
    if all(getattr(args, k) is None for k in _POSET_SOURCES):
        raise ValueError("a poset source is required (--young/--box/--chain/--antichain/--file)")
    if args.young is not None:
        return build_young_poset(_ints(args.young))
    if args.box is not None:
        bounds = _ints(args.box)
        return build_box_poset(len(bounds), bounds)
    if args.chain is not None:
        return build_chain_poset(args.chain)
    if args.antichain is not None:
        return build_antichain_poset(args.antichain)
    with open(args.file, encoding="utf-8") as fh:
        return parse_poset(fh.read())


def _poset_flag(args) -> str:
    key = next(k for k in _POSET_SOURCES if getattr(args, k) is not None)
    return f"{key}={getattr(args, key)}"


class _Out:
    def __init__(self, path: str | None):
        self.lines: list[str] = []
        self.path = path

    def emit(self, text: str = "") -> None:
        self.lines.append(text)

    def flush(self) -> int:
        body = "\n".join(self.lines) + "\n"
        if self.path:
            with open(self.path, "w", encoding="utf-8", newline="\n") as fh:
                fh.write(body)
        else:
            sys.stdout.write(body)
        return EXIT_OK


def _echo_config(out: _Out, subcommand: str, pairs: dict) -> None:
    out.emit(f"# posetpaths {subcommand}")
    for key in sorted(pairs):
        out.emit(f"# {key}={pairs[key]}")


# --- subcommands -----------------------------------------------------------


def cmd_poset(args) -> int:
    window = _resolve_window(args)
    out = _Out(args.out)
    _echo_config(out, "poset", {"poset": _poset_flag(args), "format": args.format})
    p = window.poset
    stats = {
        "elements": p.n,
        "covers": len(p.covers),
        "incomparable_pairs": len(p.incomparable_pairs()),
    }
    if args.format == "csv":
        out.emit("elements,covers,incomparable_pairs")
        out.emit(f"{stats['elements']},{stats['covers']},{stats['incomparable_pairs']}")
    else:
        for k, v in stats.items():
            out.emit(f"{k}: {v}")
    out.emit(serialize_poset(window).rstrip("\n"))
    return out.flush()


def cmd_graph(args) -> int:
    window = _resolve_window(args)
    depth = args.depth if args.depth is not None else window.poset.n - 1
    g = build_graph(window, depth, vertex_cap=args.vertex_cap)
    out = _Out(args.out)
    _echo_config(
        out, "graph", {"poset": _poset_flag(args), "depth": depth, "format": args.format}
    )
    if args.format == "csv":
        out.emit(g.csv().rstrip("\n"))
    else:
        for level, verts in enumerate(g.levels):
            dims = " ".join(str(g.dims[level][v.index]) for v in verts)
            out.emit(f"level {level}: vertices={len(verts)} dims=[{dims}]")
        top = sum(g.dims[depth])
        out.emit(f"paths_to_top_level: {top}")
    return out.flush()


def cmd_paths(args) -> int:
    window = _resolve_window(args)
    length = args.depth if args.depth is not None else window.poset.n
    paths = enumerate_numberings(window, length, limit=args.path_cap)
    out = _Out(args.out)
    _echo_config(
        out,
        "paths",
        {
            "poset": _poset_flag(args),
            "depth": length,
            "list": args.list,
            "path_cap": args.path_cap,
        },
    )
    out.emit(f"paths: {len(paths)}")
    if args.list:
        for p in paths:
            out.emit(",".join(str(x) for x in p))
    return out.flush()


def cmd_group(args) -> int:
    window = _resolve_window(args)
    length = args.depth if args.depth is not None else window.poset.n
    handle = generate_group(window, length, path_cap=args.path_cap)
    report = verify_relations(handle)
    stats = group_order(handle, cap=args.group_cap)
    out = _Out(args.out)
    _echo_config(
        out,
        "group",
        {
            "poset": _poset_flag(args),
            "depth": length,
            "local": args.local if args.local is not None else "none",
            "path_cap": args.path_cap,
            "group_cap": args.group_cap,
            "format": args.format,
        },
    )
    violations = (
        report.involution_violations
        + report.commuting_violations
        + report.braid_violations
    )
    if args.format == "csv":
        out.emit("row,i,j,value,witness")
        out.emit(f"paths,,,{handle.n_paths},")
        out.emit(f"generators,,,{len(handle.generators)},")
        order_text = stats.order if stats.order is not None else f"cap-exceeded:{stats.cap}"
        out.emit(f"order,,,{order_text},")
        for name, ok in [
            ("relation_involution", not report.involution_violations),
            ("relation_commuting", not report.commuting_violations),
            ("relation_braid6", not report.braid_violations),
        ]:
            out.emit(f"{name},,,{'pass' if ok else 'fail'},")
        for v in violations:
            out.emit(f"violation,{v.i},{v.j},{v.relation},{v.witness_path}")
    else:
        out.emit(f"paths: {handle.n_paths}")
        out.emit(f"generators: {len(handle.generators)}")
        if stats.order is not None:
            out.emit(f"order: {stats.order} (diameter {stats.diameter})")
        else:
            out.emit(f"order: cap-exceeded ({stats.cap})")
        out.emit(f"relations: {'all hold' if report.ok else 'VIOLATED'}")
        for v in violations:
            out.emit(f"  violation {v.relation} i={v.i} j={v.j} witness_path={v.witness_path}")
        if window.family == "young" and len(window.params) == 2 and window.params[1] == 1:
            # single-cell second row: record the order next to the factorials
            # of the cell count and the cell count plus one (see README)
            from math import factorial

            cells = window.poset.n - 1
            out.emit(
                f"hook_note: cells={cells} order={stats.order} "
                f"factorial(cells)={factorial(cells)} "
                f"factorial(cells-1)={factorial(cells - 1)}"
            )
    local_rows = []
    if args.local is not None:
        idxs = local_indices(handle) if args.local == "all" else [int(args.local)]
        for i in idxs:
            rep = classify_local(handle, i)
            tags = " ".join(f"{size}:{tag}" for size, tag in rep.orbit_types)
            local_rows.append((i, rep.product_order, rep.group_order, tags))
    if local_rows:
        if args.format == "csv":
            out.emit("local,i,product_order,group_order,orbits")
            for i, po, go, tags in local_rows:
                out.emit(f"local,{i},{po},{go},{tags}")
        else:
            for i, po, go, tags in local_rows:
                out.emit(
                    f"local i={i}: product_order={po} group_order={go} orbits=[{tags}]"
                )
    code = out.flush()
    return EXIT_VIOLATION if violations else code


def _window_source(args):
    """The command's poset window and its ideal graph at a depth, as callables
    that resolve the window and build each depth's graph at most once."""
    window = functools.cache(lambda: _resolve_window(args))
    return window, functools.cache(lambda depth: build_graph(window(), depth))


def _parse_sampler(text: str, args, source):
    """The one route from sampler text (plancherel | rsk:A1,... | endpoint:LEVEL:INDEX
    | markov:FILE) to a central-measure spec; window specs read the poset flags
    through `source`, a `_window_source(args)` shared by the command's samplers."""
    window, graph = source
    t = text.strip()
    kind, _, rest = t.partition(":")
    if t == "plancherel":
        return PlancherelYoung()
    if kind == "rsk":
        return RSKThoma(tuple(float(x) for x in rest.split(",")))
    if kind == "endpoint":
        try:
            level, index = (int(x) for x in rest.split(":"))
        except ValueError as exc:
            raise ValueError(f"bad endpoint {rest!r}: expected LEVEL:INDEX") from exc
        g = graph(level) if 0 <= level < window().poset.n else None
        if g is None or not 0 <= index < len(g.levels[level]):
            raise ValueError(f"no vertex {level}:{index} in the ideal lattice of {window().describe()}")
        return endpoint_measure(g, g.vertex(level, index))
    if kind == "markov":
        g = graph(args.depth if args.depth is not None else window().poset.n - 1)
        with open(rest, encoding="utf-8") as fh:
            return parse_markov_kernel(g, fh.read(), name=f"markov:{rest}")
    raise ValueError(f"unknown sampler spec {text!r}")


def _ties_note(config: dict, specs) -> None:
    if any(s.has_ties for s in specs):
        config["ties"] = "flagged (tied letter probabilities blur row identification)"


def cmd_measure_check(args) -> int:
    out = _Out(args.out)
    handle = None
    if args.sampler is not None:
        kernel = _parse_sampler(args.sampler, args, _window_source(args))
        window, length = kernel.graph.window, kernel.depth + 1
        measure = path_measure(kernel)
        what = kernel.name()
    else:
        window = _resolve_window(args)
        length = args.depth if args.depth is not None else window.poset.n
        handle = generate_group(window, length)
        measure = uniform_path_measure(handle)
        what = f"uniform:{length}"
    negative = []  # paths an over-large perturbation leaves with negative mass
    if args.perturb is not None:
        measure = perturb_fiber(measure, Fraction(args.perturb))
        what += f"+perturb:{args.perturb}"
        negative = sorted(path for path, p in measure.items() if p < 0)
    _echo_config(out, "measure check", {"poset": _poset_flag(args), "measure": what})
    if negative:
        for path in negative:
            out.emit(f"perturbed_law: negative mass {measure[path]} on path {','.join(map(str, path))}")
        out.emit("central: NO")
        out.flush()
        return EXIT_VIOLATION
    if handle is None:  # a kernel's numberings are enumerated only for a law without negative mass
        handle = generate_group(window, length)
    report = is_central(handle, measure)
    out.emit(f"paths: {report.n_paths}")
    out.emit(f"exact_arithmetic: {report.exact}")
    out.emit(f"generator_invariance: {'pass' if report.invariance_ok else 'fail'}")
    for i, path in report.invariance_witnesses:
        out.emit(f"  witness: sigma_{i} moves mass on path {','.join(map(str, path))}")
    out.emit(f"fiber_uniformity: {'pass' if report.fiber_ok else 'fail'}")
    for lo, hi in report.fiber_witnesses:
        out.emit(
            f"  witness fiber: {','.join(map(str, lo))} vs {','.join(map(str, hi))}"
        )
    out.emit(f"central: {'yes' if report.central else 'NO'}")
    code = out.flush()
    return code if report.central else EXIT_VIOLATION


def cmd_measure_freq(args) -> int:
    spec = _parse_sampler(args.sampler, args, _window_source(args))
    ideals = [parse_ideal(t) for t in args.ideal]
    out = _Out(args.out)
    config = {
        "sampler": spec.name(),
        "ideals": ";".join(i.name() for i in ideals),
        "n": args.n,
        "replicas": args.replicas,
        "seed": args.seed,
    }
    _ties_note(config, [spec])
    _echo_config(out, "measure freq", config)
    out.emit(FREQUENCY_CSV_HEADER)
    for rep in estimate_frequency(spec, ideals, args.n, args.replicas, args.seed):
        out.emit(rep.csv_row())
    return out.flush()


def cmd_measure_sample(args) -> int:
    spec = _parse_sampler(args.sampler, args, _window_source(args))
    out = _Out(args.out)
    _echo_config(
        out,
        "measure sample",
        {"sampler": spec.name(), "n": args.n, "seed": args.seed},
    )
    for line in spec.lines(spec.sample(args.n, args.seed)):
        out.emit(line)
    return out.flush()


def cmd_compare(args) -> int:
    source = _window_source(args)
    specs = [_parse_sampler(t, args, source) for t in args.sampler]
    ideals = [parse_ideal(t) for t in args.ideal]
    table = compare_frequency_profiles(
        specs,
        ideals,
        n_steps=args.n,
        replicas=args.replicas,
        seed=args.seed,
        threshold=args.threshold,
    )
    out = _Out(args.out)
    config = {
        "samplers": ";".join(s.name() for s in specs),
        "ideals": ";".join(i.name() for i in ideals),
        "n": args.n,
        "replicas": args.replicas,
        "seed": args.seed,
        "threshold": args.threshold,
    }
    _ties_note(config, specs)
    _echo_config(out, "compare", config)
    out.emit(FREQUENCY_CSV_HEADER)
    for rep in table.reports:
        out.emit(rep.csv_row())
    out.emit("sampler_a,sampler_b,ideal,separation_stderr_units,verdict")
    for pair in table.pairs:
        verdict = "distinguished" if pair.distinguished else "indistinguishable"
        for ideal_name, units in pair.separations:
            row = [pair.sampler_a, pair.sampler_b, ideal_name, repr(units), verdict]
            out.emit(",".join(csv_field(v) for v in row))
    return out.flush()


# --- parser ------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="posetpaths",
        description="posets, ideal-lattice paths, numbering symmetries, central measures",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_poset = sub.add_parser("poset", help="build and serialize a poset window")
    _add_poset_args(p_poset, required=True)
    p_poset.add_argument("--format", choices=["text", "csv"], default="text")
    p_poset.add_argument("--out", default=None)
    p_poset.set_defaults(func=cmd_poset)

    p_graph = sub.add_parser("graph", help="level table of the ideal lattice with path counts")
    _add_poset_args(p_graph, required=True)
    p_graph.add_argument("--depth", type=int, default=None, help="largest ideal size (default: all)")
    p_graph.add_argument(
        "--vertex-cap", type=int, default=DEFAULT_VERTEX_CAP, dest="vertex_cap"
    )
    p_graph.add_argument("--format", choices=["text", "csv"], default="text")
    p_graph.add_argument("--out", default=None)
    p_graph.set_defaults(func=cmd_graph)

    p_paths = sub.add_parser("paths", help="enumerate monotone numberings")
    _add_poset_args(p_paths, required=True)
    p_paths.add_argument("--depth", type=int, default=None, help="numbering length incl. root (default: all elements)")
    p_paths.add_argument("--list", action="store_true")
    p_paths.add_argument("--path-cap", type=int, default=PATH_CAP, dest="path_cap")
    p_paths.add_argument("--out", default=None)
    p_paths.set_defaults(func=cmd_paths)

    p_group = sub.add_parser("group", help="relation report, order, local subgroups")
    _add_poset_args(p_group, required=True)
    p_group.add_argument("--depth", type=int, default=None, help="numbering length incl. root (default: all elements)")
    p_group.add_argument("--local", default=None, help="index i, or 'all'")
    p_group.add_argument("--path-cap", type=int, default=PATH_CAP, dest="path_cap")
    p_group.add_argument("--group-cap", type=int, default=GROUP_CAP, dest="group_cap")
    p_group.add_argument("--format", choices=["text", "csv"], default="text")
    p_group.add_argument("--out", default=None)
    p_group.set_defaults(func=cmd_group)

    p_measure = sub.add_parser("measure", help="centrality checks, sampling, frequencies")
    msub = p_measure.add_subparsers(dest="measure_command", required=True)

    m_check = msub.add_parser("check", help="exact centrality check of a kernel")
    _add_poset_args(m_check, required=True)
    _add_sampler_args(m_check, ("endpoint", "markov"), required=False)
    m_check.add_argument("--depth", type=int, default=None)
    m_check.add_argument("--perturb", default=None, metavar="EPS")
    m_check.add_argument("--out", default=None)
    m_check.set_defaults(func=cmd_measure_check)

    m_freq = msub.add_parser("freq", help="frequency estimates as CSV")
    _add_poset_args(m_freq, required=False)
    _add_sampler_args(m_freq, ("plancherel", "rsk", "endpoint", "markov"), required=True)
    m_freq.add_argument("--depth", type=int, default=None)
    m_freq.add_argument("--ideal", action="append", required=True)
    m_freq.add_argument("--n", type=int, default=1000)
    m_freq.add_argument("--replicas", type=int, default=100)
    m_freq.add_argument("--seed", type=int, default=0)
    m_freq.add_argument("--out", default=None)
    m_freq.set_defaults(func=cmd_measure_freq)

    m_sample = msub.add_parser("sample", help="dump one sampled path")
    _add_poset_args(m_sample, required=False)
    _add_sampler_args(m_sample, ("plancherel", "rsk", "endpoint", "markov"), required=True)
    m_sample.add_argument("--depth", type=int, default=None)
    m_sample.add_argument("--n", type=int, default=10)
    m_sample.add_argument("--seed", type=int, default=0)
    m_sample.add_argument("--out", default=None)
    m_sample.set_defaults(func=cmd_measure_sample)

    p_compare = sub.add_parser("compare", help="distinguishability of frequency profiles")
    _add_poset_args(p_compare, required=False)
    p_compare.add_argument("--sampler", action="append", required=True)
    p_compare.add_argument("--ideal", action="append", required=True)
    p_compare.add_argument("--depth", type=int, default=None)
    p_compare.add_argument("--n", type=int, default=1000)
    p_compare.add_argument("--replicas", type=int, default=100)
    p_compare.add_argument("--seed", type=int, default=0)
    p_compare.add_argument("--threshold", type=float, default=3.0)
    p_compare.add_argument("--out", default=None)
    p_compare.set_defaults(func=cmd_compare)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except CapExceeded as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CAP
    except (PosetFormatError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
