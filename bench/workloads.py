"""The three workloads: their op mixes and the value check of every op.

A round is a fixed multiset of CLI invocations, shuffled by the workload
seed; sampler ops get a fresh `--seed` drawn from the same stream. The
weights put the 50th and 90th latency percentiles inside one op kind
each, at least a tenth of the round away from the boundary between two
kinds (see BENCHMARK.md), so a few ops more or less of one kind cannot
move a percentile from one kind's latency to another's.

Checks compare values parsed from the output with answers from
`oracle`, never bytes, so added output lines do not count as failures.
"""

from __future__ import annotations

import csv
import re
from math import factorial

import oracle


class Kind:
    """One CLI invocation of a workload's mix."""

    def __init__(self, name: str, weight: int, argv: list[str], rc: int = 0, seeded: bool = False):
        self.name = name
        self.weight = weight
        self.argv = argv
        self.rc = rc
        self.seeded = seeded

    def make_argv(self, rng) -> list[str]:
        if self.seeded:
            return self.argv + ["--seed", str(rng.randrange(1 << 31))]
        return list(self.argv)


HOOKS = ["--ideal", "hook:1,0", "--ideal", "hook:0,1"]

MIXES: dict[str, list[Kind]] = {
    "lattice": [
        Kind("graph-box-2223", 2, ["graph", "--box", "2,2,2,3"]),
        Kind("graph-box-333-csv", 2, ["graph", "--box", "3,3,3", "--format", "csv"]),
        Kind("graph-young-7654321-csv", 2, ["graph", "--young", "7,6,5,4,3,2,1", "--format", "csv"]),
        Kind("graph-box-334", 4, ["graph", "--box", "3,3,4"]),
    ],
    "numberings": [
        Kind("group-young-33", 2, ["group", "--young", "3,3"]),
        Kind("paths-box-223", 2, ["paths", "--box", "2,2,3", "--list"]),
        Kind("check-young-4321-perturb", 2,
             ["measure", "check", "--young", "4,3,2,1", "--perturb", "1/1000"], rc=1),
        Kind("check-young-4321-endpoint", 6,
             ["measure", "check", "--endpoint", "10:0", "--young", "4,3,2,1"]),
        Kind("group-antichain-6", 2, ["group", "--antichain", "6"]),
        Kind("group-young-4321-local", 2,
             ["group", "--young", "4,3,2,1", "--group-cap", "1000", "--local", "all"]),
        Kind("check-box-223-endpoint", 4, ["measure", "check", "--endpoint", "11:0", "--box", "2,2,3"]),
    ],
    "growth": [
        Kind("sample-rsk-20000", 2, ["measure", "sample", "--rsk", "0.5,0.3,0.2", "--n", "20000"], seeded=True),
        Kind("freq-rsk-1", 1, ["measure", "freq", "--rsk", "1.0", *HOOKS, "--n", "1000", "--replicas", "20"],
             seeded=True),
        Kind("compare-rsk", 1, ["compare", "--sampler", "rsk:0.7,0.3", "--sampler", "rsk:0.6,0.4", *HOOKS,
                                "--n", "5000", "--replicas", "3"], seeded=True),
        Kind("sample-plancherel-2500", 2, ["measure", "sample", "--plancherel", "--n", "2500"], seeded=True),
        Kind("freq-plancherel", 4, ["measure", "freq", "--plancherel", *HOOKS, "--n", "1000", "--replicas", "2"],
             seeded=True),
    ],
}


def round_ops(workload: str, rng) -> list[tuple[Kind, list[str]]]:
    """One shuffled round of the workload's mix."""
    ops = [(k, k.make_argv(rng)) for k in MIXES[workload] for _ in range(k.weight)]
    rng.shuffle(ops)
    return ops


class CheckFailed(Exception):
    pass


def _expect(cond: bool, what: str) -> None:
    if not cond:
        raise CheckFailed(what)


def _fields(text: str) -> dict[str, str]:
    """`key: value` lines, skipping `#` headers; the first occurrence wins."""
    out: dict[str, str] = {}
    for line in text.splitlines():
        if line.startswith("#") or ": " not in line:
            continue
        key, _, value = line.partition(": ")
        out.setdefault(key.strip(), value.strip())
    return out


def _after_header(text: str, header: str) -> list[str]:
    lines = text.splitlines()
    _expect(header in lines, f"missing header {header!r}")
    return lines[lines.index(header) + 1:]


# --- lattice -----------------------------------------------------------------

_LEVEL = re.compile(r"level (\d+): vertices=(\d+) dims=\[([\d ]*)\]")


def _check_graph_text(levels):
    def check(text: str) -> None:
        seen = {}
        for line in text.splitlines():
            m = _LEVEL.fullmatch(line)
            if m:
                seen[int(m.group(1))] = (int(m.group(2)), [int(x) for x in m.group(3).split()])
        _expect(sorted(seen) == list(range(len(levels))), f"levels {sorted(seen)[:3]}...")
        for k, lvl in enumerate(levels):
            _expect(seen[k] == (len(lvl), [dim for _, dim in lvl]), f"level {k} differs")
        top = sum(dim for _, dim in levels[-1])
        _expect(_fields(text).get("paths_to_top_level") == str(top), "paths_to_top_level")
    return check


def _check_graph_csv(levels):
    expected = [
        f"{k},{i},{' '.join(map(str, ideal))},{dim}"
        for k, lvl in enumerate(levels)
        for i, (ideal, dim) in enumerate(lvl)
    ]

    def check(text: str) -> None:
        rows = [line for line in _after_header(text, "level,index,ideal,dim") if line and not line.startswith("#")]
        _expect(len(rows) == len(expected), f"{len(rows)} rows, expected {len(expected)}")
        for got, want in zip(rows, expected):
            # the ideal column is space-joined ids, so the row has exactly four fields
            _expect(got.split(",") == want.split(","), f"row {got[:40]!r}")
    return check


# --- numberings --------------------------------------------------------------


def _check_group(paths: int, generators: int, order, local=None):
    """`order` is an int, or None for 'capped or exact'."""

    def check(text: str) -> None:
        f = _fields(text)
        _expect(f.get("paths") == str(paths), f"paths {f.get('paths')}")
        _expect(f.get("generators") == str(generators), f"generators {f.get('generators')}")
        _expect(f.get("relations") == "all hold", f"relations {f.get('relations')}")
        got = f.get("order", "").split()
        if order is None:
            _expect(got[:1] == ["cap-exceeded"] or (got[:1] and got[0].isdigit()), f"order {got}")
        else:
            _expect(got[:1] == [str(order)], f"order {got}")
        if local is not None:
            rows = {}
            for line in text.splitlines():
                m = re.fullmatch(r"local i=(\d+): product_order=(\d+) group_order=(\d+) orbits=\[(.*)\]", line)
                if m:
                    rows[int(m.group(1))] = (int(m.group(2)), int(m.group(3)), m.group(4).split())
            _expect(rows == local, "local classes differ")
    return check


def _check_paths_list(paths):
    def check(text: str) -> None:
        _expect(_fields(text).get("paths") == str(len(paths)), "path count")
        listed = [line for line in text.splitlines() if line and line[0].isdigit() and "," in line]
        _expect(listed == [",".join(map(str, p)) for p in paths], "listed numberings differ")
    return check


def _check_central(paths: int, central: bool):
    verdict = "pass" if central else "fail"

    def check(text: str) -> None:
        f = _fields(text)
        _expect(f.get("paths") == str(paths), f"paths {f.get('paths')}")
        _expect(f.get("exact_arithmetic") == "True", "exact_arithmetic")
        _expect(f.get("generator_invariance") == verdict, "generator_invariance")
        _expect(f.get("fiber_uniformity") == verdict, "fiber_uniformity")
        _expect(f.get("central") == ("yes" if central else "NO"), f"central {f.get('central')}")
    return check


# --- growth ------------------------------------------------------------------


def _check_sample(n: int, max_rows: int | None):
    def check(text: str) -> None:
        rows = [line.split(",") for line in _after_header(text, "step,row,col") if line]
        _expect(len(rows) == n, f"{len(rows)} steps, expected {n}")
        _expect(all(int(r[0]) == k for k, r in enumerate(rows, start=1)), "step numbers")
        cells = [(int(r[1]), int(r[2])) for r in rows]
        _expect(oracle.growth_cells_valid(cells, max_rows), "not a valid growth")
    return check


def _freq_rows(text: str) -> dict[tuple[str, str], dict]:
    out = {}
    for r in csv.reader(_after_header(text, "sampler,ideal,n,replicas,estimate,stderr,seed")):
        if len(r) != 7:
            break
        out[(r[0], r[1])] = {"n": int(r[2]), "replicas": int(r[3]), "estimate": float(r[4]),
                             "stderr": float(r[5])}
    return out


def _check_freq(sampler: str, n: int, replicas: int, bounds: dict[str, tuple[float, float]]):
    def check(text: str) -> None:
        rows = _freq_rows(text)
        _expect(sorted(rows) == sorted((sampler, ideal) for ideal in bounds), f"rows {sorted(rows)}")
        for ideal, (lo, hi) in bounds.items():
            r = rows[(sampler, ideal)]
            _expect(r["n"] == n and r["replicas"] == replicas, "n/replicas echo")
            _expect(lo <= r["estimate"] <= hi, f"{sampler} {ideal} estimate {r['estimate']}")
            _expect(r["stderr"] >= 0.0, "negative stderr")
    return check


def _check_compare(text: str) -> None:
    a, b = "rsk:0.7,0.3", "rsk:0.6,0.4"
    rows = _freq_rows(text)
    r = rows.get((a, "hook:1,0")), rows.get((b, "hook:1,0"))
    _expect(None not in r, "missing frequency rows")
    _expect(0.65 <= r[0]["estimate"] <= 0.75, f"{a} row estimate {r[0]['estimate']}")
    _expect(0.55 <= r[1]["estimate"] <= 0.65, f"{b} row estimate {r[1]['estimate']}")
    for s in (a, b):
        _expect(abs(rows[(s, "hook:0,1")]["estimate"] - 2 / 5000) < 1e-12, f"{s} column estimate")
    verdicts = [p[4] for p in csv.reader(_after_header(text, "sampler_a,sampler_b,ideal,separation_stderr_units,verdict"))
                if len(p) == 5 and p[:2] == [a, b]]
    _expect(verdicts == ["distinguished", "distinguished"], f"verdicts {verdicts}")


def checks(workload: str) -> dict[str, object]:
    """Value checks per kind; builds the oracle answers (not timed)."""
    if workload == "lattice":
        return {
            "graph-box-2223": _check_graph_text(oracle.ideal_levels(oracle.box_poset((2, 2, 2, 3)))),
            "graph-box-333-csv": _check_graph_csv(oracle.ideal_levels(oracle.box_poset((3, 3, 3)))),
            "graph-young-7654321-csv": _check_graph_csv(
                oracle.ideal_levels(oracle.young_poset((7, 6, 5, 4, 3, 2, 1)))),
            "graph-box-334": _check_graph_text(oracle.ideal_levels(oracle.box_poset((3, 3, 4)))),
        }
    if workload == "numberings":
        box = oracle.box_poset((2, 2, 3))
        box_paths = oracle.linear_extensions(box)
        staircase = oracle.young_poset((4, 3, 2, 1))
        stair_paths = oracle.linear_extensions(staircase)
        n_stair = oracle.hook_length_count((4, 3, 2, 1))
        return {
            # young 3,3: 5 tableaux, group of order 120 = 5!
            "group-young-33": _check_group(oracle.hook_length_count((3, 3)), 5, 120),
            "paths-box-223": _check_paths_list(box_paths),
            "check-young-4321-perturb": _check_central(n_stair, central=False),
            "check-young-4321-endpoint": _check_central(n_stair, central=True),
            # the antichain's numberings are the 6! orders of its elements
            "group-antichain-6": _check_group(factorial(6), 5, factorial(6)),
            "group-young-4321-local": _check_group(n_stair, 9, None, oracle.local_classes(staircase, stair_paths)),
            "check-box-223-endpoint": _check_central(len(box_paths), central=True),
        }
    if workload == "growth":
        return {
            "sample-rsk-20000": _check_sample(20000, max_rows=3),
            "freq-rsk-1": _check_freq("rsk:1.0", 1000, 20,
                                      {"hook:1,0": (1.0, 1.0), "hook:0,1": (0.001 - 1e-12, 0.001 + 1e-12)}),
            "sample-plancherel-2500": _check_sample(2500, max_rows=None),
            "compare-rsk": _check_compare,
            "freq-plancherel": _check_freq("plancherel", 1000, 2,
                                           {"hook:1,0": (0.0, 0.10), "hook:0,1": (0.0, 0.10)}),
        }
    raise ValueError(f"unknown workload {workload!r}")
