"""posetpaths benchmark: one command for every end-to-end and per-layer metric.

Run from the repository root:

    python3 bench/run.py --workload lattice --seed 1 --seconds 30 --trace 0
    python3 bench/run.py --workload growth --seed 1 --seconds 30 --trace 1
    python3 bench/run.py --aa 5 --seconds 30        # steadiness / A/A check

A timed run (--trace 0) starts SETUP_PROBES set-up-only children, then
one workload child (bench/worker.py) under a memory limit, and prints
ops_per_s, op_p50_ms, op_p90_ms, setup_s, peak_rss_mb and ok_ratio. A
traced run (--trace 1) prints the per-layer metrics instead. The last
line of stdout is one JSON object; the `#` lines above it give the run
context and the raw (unscaled) timings. See BENCHMARK.md.
"""

from __future__ import annotations

import argparse
import importlib.metadata
import json
import os
import platform
import resource
import select
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKER = os.path.join(HERE, "worker.py")

from calibrate import REFERENCE_S, timed_kernel  # noqa: E402

SETUP_PROBES = 11
MEMORY_LIMIT_BYTES = 2 << 30  # address space of each child; the host has 8 GB shared
RUN_LIMIT_S = 170.0  # a run must end within 180 s
WORKLOADS = ("lattice", "numberings", "growth")

END_TO_END_UNITS = {
    "ops_per_s": "1/s",
    "op_p50_ms": "ms",
    "op_p90_ms": "ms",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "ok_ratio": "ratio",
}


class RunFailed(Exception):
    pass


def _limit_child() -> None:
    resource.setrlimit(resource.RLIMIT_AS, (MEMORY_LIMIT_BYTES, MEMORY_LIMIT_BYTES))


def _spawn(args: list[str]) -> subprocess.Popen:
    # numpy's BLAS pool would otherwise start one spinning thread per core at
    # import; posetpaths never calls BLAS, and the client is single-threaded
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")
    return subprocess.Popen(
        [sys.executable, WORKER, *args],
        cwd=ROOT,
        env=env,
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
        preexec_fn=_limit_child,
    )


def _await_ready(proc: subprocess.Popen, deadline: float) -> None:
    ready, _, _ = select.select([proc.stdout], [], [], max(0.0, deadline - time.monotonic()))
    line = proc.stdout.readline() if ready else ""
    if line.strip() != "ready":
        proc.kill()
        _, err = proc.communicate()
        raise RunFailed(f"worker did not get ready: {line!r} {err.strip()[-2000:]}")


def setup_time(worker_args: list[str], deadline: float) -> tuple[float, float]:
    """Median time from child start to first op ready over SETUP_PROBES
    set-up-only children, as (reference-host s, raw s). The host factor is
    the median of the calibration kernels timed between the probes: one
    kernel sample is as noisy as one probe, so they are pooled."""
    cal = [timed_kernel()]
    raw = []
    for _ in range(SETUP_PROBES):
        t0 = time.perf_counter()
        proc = _spawn([*worker_args, "--setup-only"])
        _await_ready(proc, deadline)
        raw.append(time.perf_counter() - t0)
        proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
        cal.append(timed_kernel())
    median = statistics.median(raw)
    return median * REFERENCE_S / statistics.median(cal), median


def _host_sample() -> dict:
    with open("/proc/loadavg", encoding="ascii") as fh:
        load = fh.read().split()[:3]
    with open("/proc/stat", encoding="ascii") as fh:
        cpu = fh.readline().split()
    steal = int(cpu[8]) / os.sysconf("SC_CLK_TCK") if len(cpu) > 8 else None
    return {"loadavg": " ".join(load), "steal_s": steal}


def _host_delta(before: dict, after: dict) -> str:
    steal = "n/a" if before["steal_s"] is None else f"{after['steal_s'] - before['steal_s']:.2f}"
    return f"loadavg before {before['loadavg']} after {after['loadavg']}; /proc/stat steal during run {steal} s"


def _git_commit() -> str:
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD"), encoding="ascii") as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        path = os.path.join(git, ref)
        if os.path.exists(path):
            with open(path, encoding="ascii") as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs"), encoding="ascii") as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def run_context() -> dict:
    model = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="ascii", errors="replace") as fh:
            model = next((line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")), model)
    except OSError:
        pass
    try:
        numpy_version = importlib.metadata.version("numpy")
    except importlib.metadata.PackageNotFoundError:
        numpy_version = "not installed"
    return {
        "commit": _git_commit(),
        "python": platform.python_version(),
        "numpy": numpy_version,
        "nproc": os.cpu_count(),
        "cpu": model,
        "limits": "no CPU pinning, cache dropping or system-wide tracing; wall clock on own processes only",
    }


def measure(workload: str, seed: int, seconds: float, trace: int) -> dict:
    """One run; raises RunFailed when the worker dies or overruns."""
    deadline = time.monotonic() + RUN_LIMIT_S
    host_before = _host_sample()
    worker_args = ["--workload", workload, "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    setup = None if trace else setup_time(worker_args, deadline)
    if trace:
        out_dir = os.path.join(ROOT, ".bench_out")
        os.makedirs(out_dir, exist_ok=True)
        worker_args += ["--spans-out", os.path.join(out_dir, f"spans-{workload}-seed{seed}.jsonl")]
    proc = _spawn(worker_args)
    _await_ready(proc, deadline)
    try:
        out, err = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise RunFailed(f"worker overran {RUN_LIMIT_S} s") from None
    lines = out.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RunFailed(f"worker exited {proc.returncode}: {err.strip()[-2000:]}")
    result = json.loads(lines[-1])
    result["host_before"], result["host_after"] = host_before, _host_sample()
    if setup:
        result["setup_s"], result["raw_setup_s"] = setup
    return result


def metrics_of(result: dict, trace: int) -> dict:
    if trace:
        return {
            name: {"value": value, "unit": _layer_unit(name)} for name, value in result["layers"].items()
        }
    values = {
        "ops_per_s": result["ops_per_s"],
        "op_p50_ms": result["op_p50_ms"],
        "op_p90_ms": result["op_p90_ms"],
        "setup_s": result["setup_s"],
        "peak_rss_mb": result["peak_rss_mb"],
        "ok_ratio": (result["attempted"] - result["failed"]) / result["attempted"],
    }
    return {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END_UNITS.items()}


def _layer_unit(name: str) -> str:
    if name.endswith("_per_s"):
        return "1/s"
    if name.endswith("_s"):
        return "s"
    if name.endswith("_bytes"):
        return "bytes"
    if name.endswith(("_ratio", "_reuse")):
        return "ratio"
    return "count"


def report(workload: str, seed: int, seconds: float, trace: int, result: dict, context: dict) -> None:
    print(f"# posetpaths benchmark workload={workload} seed={seed} seconds={seconds:g} trace={trace}")
    print(f"# context {json.dumps(context)}")
    print(f"# host {_host_delta(result['host_before'], result['host_after'])}")
    if trace:
        print(f"# traced rounds {result['traced_rounds']}; times are medians over them, counts from the first")
    else:
        print(
            f"# timed ops {result['ops']}, {result['p90_beyond']} beyond p90; "
            f"p50 in {result['p50_at']}, p90 in {result['p90_at']}"
        )
        print(f"# median ms per op kind {json.dumps(result['kind_p50_ms'])}")
        print(
            "# raw wall clock: ops_per_s={:.4f} op_p50_ms={:.3f} op_p90_ms={:.3f} setup_s={:.4f}; "
            "median host factor {:.3f}".format(
                result["raw_ops_per_s"], result["raw_op_p50_ms"], result["raw_op_p90_ms"],
                result["raw_setup_s"], result["host_factor"],
            )
        )
    for failure in result["failures"]:
        print(f"# FAILED {failure}")


def _quartile_stats(values: list[float]) -> dict:
    q1, med, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (values[0],) * 3
    return {"median": med, "q1": q1, "q3": q3, "iqr_share": (q3 - q1) / med if med else 0.0}


def steadiness(k: int, seconds: float, seed: int) -> int:
    """Runs every workload 2k times, alternating their order, as two
    interleaved sets A and B of k runs each (distinct seeds), and checks
    them against the bounds in BENCHMARK.json."""
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    bounds = {m["name"]: (m["bound"], m["better"]) for m in spec["end_to_end"]}
    values: dict[str, list[list[float]]] = {w: [] for w in WORKLOADS}
    for i in range(2 * k):
        order = WORKLOADS if i % 2 == 0 else WORKLOADS[::-1]
        for workload in order:
            result = measure(workload, seed + i, seconds, 0)
            m = metrics_of(result, 0)
            values[workload].append([m[name]["value"] for name in bounds])
            print(f"# run {i} {workload}: " + " ".join(f"{n}={m[n]['value']:.5g}" for n in bounds), flush=True)
    ok = True
    summary = {"context": run_context(), "k": k, "seconds": seconds, "workloads": {}}
    for workload in WORKLOADS:
        rows = {}
        for j, (name, (bound, better)) in enumerate(bounds.items()):
            col = [run[j] for run in values[workload]]
            a, b = col[0::2], col[1::2]
            stats = _quartile_stats(col)
            med_a, med_b = statistics.median(a), statistics.median(b)
            worse = (med_a - med_b) / med_a if better == "higher" else (med_b - med_a) / med_a
            spread_ok = name == "setup_s" or stats["iqr_share"] <= bound
            drift_ok = worse <= bound
            ok &= spread_ok and drift_ok
            rows[name] = {**stats, "median_a": med_a, "median_b": med_b, "b_worse_share": worse,
                          "bound": bound, "spread_below_third": stats["iqr_share"] < bound / 3,
                          "pass": spread_ok and drift_ok, "values": col}
            print(
                f"{workload:11s} {name:12s} median {stats['median']:10.5g}  IQR/median {stats['iqr_share']:.4f}"
                f"  B vs A worse by {worse:+.4f}  bound {bound}  {'ok' if spread_ok and drift_ok else 'FAIL'}"
            )
        summary["workloads"][workload] = rows
    out_dir = os.path.join(ROOT, ".bench_out")
    os.makedirs(out_dir, exist_ok=True)
    path = os.path.join(out_dir, f"aa-{time.strftime('%Y%m%d-%H%M%S')}.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(summary, fh, indent=1)
    print(f"# A/A summary written to {os.path.relpath(path, ROOT)}; {'PASS' if ok else 'FAIL'}")
    return 0 if ok else 1


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload", choices=WORKLOADS)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=25.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--aa", type=int, default=0, metavar="K", help="A/A mode: two sets of K runs per workload")
    args = p.parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "posetpaths", "cli.py")):
        print("error: src/posetpaths not found; run from a full checkout of the repository", file=sys.stderr)
        return 2
    if args.workload is None and not args.aa:
        p.error("--workload is required unless --aa is given")
    try:
        if args.aa:
            return steadiness(args.aa, args.seconds, args.seed)
        result = measure(args.workload, args.seed, args.seconds, args.trace)
    except RunFailed as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    report(args.workload, args.seed, args.seconds, args.trace, result, run_context())
    print(json.dumps({
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": metrics_of(result, args.trace),
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
