"""Command-line front end: build, inspect, enumerate, group-check, sample,
estimate, compare.

One pipeline runs every subcommand. A `cmd_*` function computes and returns
`(config, lines, exit_code)`: the resolved configuration, the body lines and
the exit code. Only `main` writes: it echoes `# posetpaths <subcommand>` and
the config as sorted `# key=value` lines, so identical command lines produce
byte-identical output, then the body, to `--out PATH` or else stdout. The
write sits inside the same error mapping as the computation. Exit codes:
0 success, 1 a checked property failed (relation violation, non-central
measure), 2 usage or input error (an unwritable `--out` included), 3 a cap
was exceeded. `main` may be called repeatedly in one process: it builds the
argument parser on its first call and reuses it, since parsing leaves no
state in it.
"""

from __future__ import annotations

import argparse
import functools
import re
import sys
from fractions import Fraction
from itertools import islice
from operator import itemgetter

from .graded_graph import DEFAULT_VERTEX_CAP, build_graph, enumerate_numberings
from .ideals import FiniteSetIdeal, ideal_mask, member_coords, parse_ideal
from .measures import (
    FREQUENCY_CSV_HEADER,
    ExplicitMarkov,
    Thoma,
    _perturb,
    compare_frequency_profiles,
    csv_field,
    endpoint_measure,
    parse_markov_kernel,
    estimate_frequency,
    is_central,
    kernel_centrality,
    path_measure,
    perturb_fiber,  # noqa: F401  (bench/spans.py traces the name here)
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
    parse_poset,
    serialize_poset,
)
from .symmetry import (
    GROUP_CAP,
    ORBIT_TAGS,
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


def _numbers(given: str, text: str, kind=int) -> list:
    """A comma-separated list read field by field with `kind`; an error starts with `given`."""
    values = []
    for t in text.split(","):
        try:
            values.append(kind(t))
        except ValueError:
            what = f"{t!r} is not {'an integer' if kind is int else 'a number'}" if t else "empty field"
            raise ValueError(f"{given}: {what}") from None
    return values


def _commas(values) -> str:
    return ",".join(map(str, values))


def _cap(text: str) -> int:
    """A cap flag's value: an integer of at least 1."""
    try:
        cap = int(text)
    except ValueError:
        cap = 0
    if cap < 1:
        raise argparse.ArgumentTypeError(f"must be an integer of at least 1, got {text!r}")
    return cap


def _local(text: str) -> int | str:
    """`group --local`'s value: `all` or an integer index."""
    if text == "all":
        return text
    try:
        return int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"must be 'all' or an integer, got {text!r}") from None


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
        return build_young_poset(_numbers(f"--young {args.young}", args.young))
    if args.box is not None:
        bounds = _numbers(f"--box {args.box}", args.box)
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


# --- subcommands -----------------------------------------------------------


def cmd_poset(args):
    window = _resolve_window(args)
    p = window.poset
    stats = {
        "elements": p.n,
        "covers": len(p.covers),
        "incomparable_pairs": p.incomparable_count(),
    }
    if args.format == "csv":
        lines = [",".join(stats), _commas(stats.values())]
    else:
        lines = [f"{k}: {v}" for k, v in stats.items()]
    lines.append(serialize_poset(window).rstrip("\n"))
    return {"poset": _poset_flag(args), "format": args.format}, lines, EXIT_OK


def cmd_graph(args):
    window = _resolve_window(args)
    depth = args.depth if args.depth is not None else window.poset.n - 1
    g = build_graph(window, depth, vertex_cap=args.vertex_cap)
    if args.format == "csv":
        lines = [g.csv().rstrip("\n")]
    else:
        lines = [
            f"level {level}: vertices={len(dims)} dims=[{' '.join(map(str, dims))}]"
            for level, dims in enumerate(g.dims)
        ]
        lines.append(f"paths_to_top_level: {sum(g.dims[depth])}")
    return {"poset": _poset_flag(args), "depth": depth, "format": args.format}, lines, EXIT_OK


def cmd_paths(args):
    window = _resolve_window(args)
    length = args.depth if args.depth is not None else window.poset.n
    paths = enumerate_numberings(window, length, limit=args.path_cap)
    config = {"poset": _poset_flag(args), "depth": length, "list": args.list, "path_cap": args.path_cap}
    lines = [f"paths: {len(paths)}"]
    if args.list:
        names = list(map(str, range(window.poset.n)))
        # one gather per path; itemgetter of one index returns a bare string
        lines += [",".join(itemgetter(*p)(names)) if len(p) > 1 else names[p[0]] for p in paths]
    return config, lines, EXIT_OK


def cmd_group(args):
    window = _resolve_window(args)
    length = args.depth if args.depth is not None else window.poset.n
    handle = generate_group(window, length, path_cap=args.path_cap)
    local = local_indices(handle)
    if isinstance(args.local, int):  # checked before the relations and the order
        if args.local not in local:
            span = f"1..{local[-1]}" if local else "none"
            raise ValueError(f"--local {args.local}: the local indices at length {length} are {span}")
        local = [args.local]
    report = verify_relations(handle)
    stats = group_order(handle, cap=args.group_cap)
    config = {
        "poset": _poset_flag(args),
        "depth": length,
        "local": args.local if args.local is not None else "none",
        "path_cap": args.path_cap,
        "group_cap": args.group_cap,
        "format": args.format,
    }
    violations = (
        report.involution_violations
        + report.commuting_violations
        + report.braid_violations
    )
    if args.format == "csv":
        order_text = stats.order if stats.order is not None else f"cap-exceeded:{args.group_cap}"
        lines = [
            "row,i,j,value,witness",
            f"paths,,,{handle.n_paths},",
            f"generators,,,{len(handle.generators)},",
            f"order,,,{order_text},",
        ]
        for name, ok in [
            ("relation_involution", not report.involution_violations),
            ("relation_commuting", not report.commuting_violations),
            ("relation_braid6", not report.braid_violations),
        ]:
            lines.append(f"{name},,,{'pass' if ok else 'fail'},")
        lines += [f"violation,{v.i},{v.j},{v.relation},{v.witness_path}" for v in violations]
    else:
        lines = [f"paths: {handle.n_paths}", f"generators: {len(handle.generators)}"]
        if stats.order is not None:
            lines.append(f"order: {stats.order} (diameter {stats.diameter})")
        else:
            lines.append(f"order: cap-exceeded ({args.group_cap})")
        lines.append(f"relations: {'all hold' if report.ok else 'VIOLATED'}")
        for v in violations:
            lines.append(f"  violation {v.relation} i={v.i} j={v.j} witness_path={v.witness_path}")
        if window.family == "young" and len(window.params) == 2 and window.params[1] == 1:
            # single-cell second row: record the order next to the factorials
            # of the cell count and the cell count plus one (see README)
            from math import factorial

            cells = window.poset.n - 1
            lines.append(
                f"hook_note: cells={cells} order={stats.order or 'cap-exceeded'} "
                f"factorial(cells)={factorial(cells)} "
                f"factorial(cells-1)={factorial(cells - 1)}"
            )
    if args.local is not None:
        if local and args.format == "csv":
            lines.append("local,i,product_order,group_order,orbits")
        for i in local:
            rep = classify_local(handle, i)
            tags = " ".join(" ".join([f"{size}:{ORBIT_TAGS[size]}"] * n) for size, n in rep.orbit_counts.items())
            if args.format == "csv":
                lines.append(f"local,{i},{rep.product_order},{rep.group_order},{tags}")
            else:
                lines.append(f"local i={i}: product_order={rep.product_order} "
                             f"group_order={rep.group_order} orbits=[{tags}]")
    return config, lines, EXIT_VIOLATION if violations else EXIT_OK


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
    if t == "plancherel" or kind == "rsk":  # a Thoma point: alpha empty for Plancherel growth
        given = f"--sampler {t}" if args.command == "compare" else f"--rsk {rest}"
        return Thoma(tuple(_numbers(given, rest, float)) if kind == "rsk" else ())
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


def _parse_ideals(texts, specs):
    """The `--ideal` specs, each checked against every sampler before any
    sampling: an ideal of every window sampler's window (`ideal_mask`), and
    a coordinate ideal of the plane for a growth sampler."""
    ideals = [parse_ideal(t) for t in texts]
    windows = [spec.graph.window for spec in specs if isinstance(spec, ExplicitMarkov)]
    for window in windows:
        for ideal in ideals:
            ideal_mask(ideal, window)
    if len(windows) < len(specs):  # a growth sampler reads cells (row, col)
        for ideal in ideals:
            if isinstance(ideal, FiniteSetIdeal):
                raise ValueError("finite-set ideals are window-bound; growth samplers have no ids")
            member_coords(ideal, (1, 1))
    return ideals


def _centrality_lines(report):
    """The body lines and exit code of one centrality report, from either route."""
    lines = [
        f"paths: {report.n_paths}",
        f"exact_arithmetic: {report.exact}",
        f"generator_invariance: {'pass' if report.invariance_ok else 'fail'}",
    ]
    for i, path in report.invariance_witnesses:
        lines.append(f"  witness: sigma_{i} moves mass on path {_commas(path)}")
    lines.append(f"fiber_uniformity: {'pass' if report.fiber_ok else 'fail'}")
    lines += [f"  witness fiber: {_commas(lo)} vs {_commas(hi)}" for lo, hi in report.fiber_witnesses]
    lines.append(f"central: {'yes' if report.central else 'NO'}")
    return lines, EXIT_OK if report.central else EXIT_VIOLATION


def cmd_measure_check(args):
    """A kernel is checked by one forward pass over its rows; the uniform
    law and every perturbed law are checked on the numberings' group
    handle, within whose fibers a perturbation moves mass."""
    config = {"poset": _poset_flag(args)}
    try:  # read before any law is listed, which may hit a cap first
        eps = None if args.perturb is None else Fraction(args.perturb)
    except ZeroDivisionError:
        raise ValueError(f"--perturb {args.perturb}: zero denominator") from None
    except ValueError:
        raise ValueError(f"--perturb {args.perturb}: not a rational number") from None
    if args.sampler is not None:
        kernel = _parse_sampler(args.sampler, args, _window_source(args))
        config["measure"] = kernel.name()
        if eps is None:
            return config, *_centrality_lines(kernel_centrality(kernel))
        measure = path_measure(kernel)
        handle = generate_group(kernel.graph.window, kernel.depth + 1)
    else:
        window = _resolve_window(args)
        length = args.depth if args.depth is not None else window.poset.n
        handle = generate_group(window, length)
        measure = uniform_path_measure(handle)
        config["measure"] = f"uniform:{length}"
    if eps is not None:  # each fiber kept to its first two paths of the law; is_central reads the fibers next
        paths = handle.paths
        fibers = (list(islice((k for k in ids if paths[k] in measure), 2)) for ids in handle.fiber_ids)
        measure, moved = _perturb(measure, paths, fibers, eps)
        config["measure"] += f"+perturb:{args.perturb}"
        negative = sorted(path for path in moved if measure[path].numerator < 0)
        if negative:  # moved paths an over-large perturbation leaves with negative mass; no generator is read
            lines = [f"perturbed_law: negative mass {measure[path]} on path {_commas(path)}" for path in negative]
            return config, lines + ["central: NO"], EXIT_VIOLATION
    return config, *_centrality_lines(is_central(handle, measure))


def _frequency_csv(args, specs, ideals, reports, **config):
    """The config keys and frequency-report CSV lines `measure freq` and `compare` share."""
    config.update(
        ideals=";".join(i.name() for i in ideals), n=args.n, replicas=args.replicas, seed=args.seed
    )
    if any(s.has_ties for s in specs):
        config["ties"] = "flagged (tied letter probabilities blur row identification)"
    return config, [FREQUENCY_CSV_HEADER, *(rep.csv_row() for rep in reports)]


def cmd_measure_freq(args):
    spec = _parse_sampler(args.sampler, args, _window_source(args))
    ideals = _parse_ideals(args.ideal, [spec])
    reports = estimate_frequency(spec, ideals, args.n, args.replicas, args.seed)
    config, lines = _frequency_csv(args, [spec], ideals, reports, sampler=spec.name())
    return config, lines, EXIT_OK


def cmd_measure_sample(args):
    spec = _parse_sampler(args.sampler, args, _window_source(args))
    config = {"sampler": spec.name(), "n": args.n, "seed": args.seed}
    return config, [spec.text(spec.sample(args.n, args.seed))], EXIT_OK


def cmd_compare(args):
    source = _window_source(args)
    specs = [_parse_sampler(t, args, source) for t in args.sampler]
    ideals = _parse_ideals(args.ideal, specs)
    table = compare_frequency_profiles(
        specs,
        ideals,
        n_steps=args.n,
        replicas=args.replicas,
        seed=args.seed,
        threshold=args.threshold,
    )
    samplers = ";".join(s.name() for s in specs)
    config, lines = _frequency_csv(
        args, specs, ideals, table.reports, samplers=samplers, threshold=args.threshold
    )
    lines.append("sampler_a,sampler_b,ideal,separation_stderr_units,verdict")
    for pair in table.pairs:
        verdict = "distinguished" if pair.distinguished else "indistinguishable"
        for ideal_name, units in pair.separations:
            row = [pair.sampler_a, pair.sampler_b, ideal_name, repr(units), verdict]
            lines.append(",".join(csv_field(v) for v in row))
    return config, lines, EXIT_OK


# --- parser ------------------------------------------------------------------


def _add_leaf(subparsers, name: str, func, help: str, poset_required: bool) -> argparse.ArgumentParser:
    """A subcommand that `main` runs: its poset flags, `--out` and its `cmd_*`."""
    p = subparsers.add_parser(name, help=help)
    # argparse reads a word after a flag as its value only if the word does
    # not look like an option, and takes only -1 and -0.5 for negative
    # numbers; no flag starts with "-" and a digit, so -1/3 and -1:0 are
    # values too, as they are when written after "="
    p._negative_number_matcher = re.compile(r"-\.?\d")
    _add_poset_args(p, required=poset_required)
    p.add_argument("--out", default=None, metavar="PATH", help="write the output here instead of stdout")
    p.set_defaults(func=func)
    return p


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process on the first call.

    Reuse is safe: each parse makes a fresh namespace, `append` actions copy
    their default, and the defaults bound here (the `cmd_*` functions and the
    cap constants) are read-only.
    """
    parser = argparse.ArgumentParser(
        prog="posetpaths",
        description="posets, ideal-lattice paths, numbering symmetries, central measures",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_poset = _add_leaf(sub, "poset", cmd_poset, "build and serialize a poset window", True)
    p_poset.add_argument("--format", choices=["text", "csv"], default="text")

    p_graph = _add_leaf(sub, "graph", cmd_graph, "level table of the ideal lattice with path counts", True)
    p_graph.add_argument("--depth", type=int, default=None, help="largest ideal size (default: all)")
    p_graph.add_argument(
        "--vertex-cap", type=_cap, default=DEFAULT_VERTEX_CAP, dest="vertex_cap"
    )
    p_graph.add_argument("--format", choices=["text", "csv"], default="text")

    p_paths = _add_leaf(sub, "paths", cmd_paths, "enumerate monotone numberings", True)
    p_paths.add_argument("--depth", type=int, default=None, help="numbering length incl. root (default: all elements)")
    p_paths.add_argument("--list", action="store_true")
    p_paths.add_argument("--path-cap", type=_cap, default=PATH_CAP, dest="path_cap")

    p_group = _add_leaf(sub, "group", cmd_group, "relation report, order, local subgroups", True)
    p_group.add_argument("--depth", type=int, default=None, help="numbering length incl. root (default: all elements)")
    p_group.add_argument("--local", type=_local, default=None, help="index i, or 'all'")
    p_group.add_argument("--path-cap", type=_cap, default=PATH_CAP, dest="path_cap")
    p_group.add_argument("--group-cap", type=_cap, default=GROUP_CAP, dest="group_cap")
    p_group.add_argument("--format", choices=["text", "csv"], default="text")

    p_measure = sub.add_parser("measure", help="centrality checks, sampling, frequencies")
    msub = p_measure.add_subparsers(dest="measure_command", required=True)

    m_check = _add_leaf(msub, "check", cmd_measure_check, "exact centrality check of a kernel", True)
    _add_sampler_args(m_check, ("endpoint", "markov"), required=False)
    m_check.add_argument("--depth", type=int, default=None)
    m_check.add_argument("--perturb", default=None, metavar="EPS")

    m_freq = _add_leaf(msub, "freq", cmd_measure_freq, "frequency estimates as CSV", False)
    _add_sampler_args(m_freq, ("plancherel", "rsk", "endpoint", "markov"), required=True)
    m_freq.add_argument("--depth", type=int, default=None)
    m_freq.add_argument("--ideal", action="append", required=True)
    m_freq.add_argument("--n", type=int, default=1000)
    m_freq.add_argument("--replicas", type=int, default=100)
    m_freq.add_argument("--seed", type=int, default=0)

    m_sample = _add_leaf(msub, "sample", cmd_measure_sample, "dump one sampled path", False)
    _add_sampler_args(m_sample, ("plancherel", "rsk", "endpoint", "markov"), required=True)
    m_sample.add_argument("--depth", type=int, default=None)
    m_sample.add_argument("--n", type=int, default=10)
    m_sample.add_argument("--seed", type=int, default=0)

    p_compare = _add_leaf(sub, "compare", cmd_compare, "distinguishability of frequency profiles", False)
    p_compare.add_argument("--sampler", action="append", required=True)
    p_compare.add_argument("--ideal", action="append", required=True)
    p_compare.add_argument("--depth", type=int, default=None)
    p_compare.add_argument("--n", type=int, default=1000)
    p_compare.add_argument("--replicas", type=int, default=100)
    p_compare.add_argument("--seed", type=int, default=0)
    p_compare.add_argument("--threshold", type=float, default=3.0)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    title = " ".join(filter(None, [args.command, getattr(args, "measure_command", None)]))
    try:
        config, lines, code = args.func(args)
        header = [f"# posetpaths {title}", *(f"# {key}={config[key]}" for key in sorted(config))]
        body = "\n".join(header + lines) + "\n"
        if args.out:
            with open(args.out, "w", encoding="utf-8", newline="\n") as fh:
                fh.write(body)
        else:
            sys.stdout.write(body)
        return code
    except CapExceeded as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CAP
    except MemoryError:  # a run past the memory it has is capped, not a violation
        print("error: out of memory", file=sys.stderr)
        return EXIT_CAP
    except (PosetFormatError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
