"""One workload process: a single closed-loop client of `posetpaths.cli.main`.

Started by run.py with the checkout as working directory. It prints
`ready` once `posetpaths` is imported and the first round of argv lists
is built (the end of set-up). Unless --setup-only, it then builds the
oracle answers, runs one warm-up round and the measured rounds, and
prints one JSON line of results. Every op is an in-process `main(argv)`
call with stdout and stderr captured; its wall time is scaled to
reference-host seconds by the calibration kernel timed around it (see
calibrate.py).
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import math
import os
import random
import resource
import signal
import statistics
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))

from posetpaths.cli import main  # noqa: E402

import workloads  # noqa: E402
from calibrate import REFERENCE_S, timed_kernel  # noqa: E402

OP_TIMEOUT_S = 20.0
MIN_TIMED_OPS = 100  # so the 90th percentile has at least ten samples beyond it


class OpTimeout(BaseException):
    """Raised by the per-op alarm; a BaseException so that no handler in
    the program can swallow it."""


def _on_alarm(signum, frame):
    raise OpTimeout()


class Client:
    """Runs and checks ops, timing the calibration kernel between them."""

    def __init__(self, workload: str, seed: int):
        self.workload = workload
        self.rng = random.Random(seed)
        self.pending = workloads.round_ops(workload, self.rng)
        self.checks = None
        self.attempted = 0
        self.failures: list[str] = []
        self.cal: list[float] = []

    def next_round(self):
        ops, self.pending = self.pending, None
        return ops or workloads.round_ops(self.workload, self.rng)

    def run_op(self, kind, argv, tracer=None):
        """Returns (reference-host seconds, raw seconds, stdout bytes)."""
        if not self.cal:
            self.cal.append(timed_kernel())
        out, err = io.StringIO(), io.StringIO()
        error = rc = None
        root = tracer.open("op") if tracer is not None else None
        signal.setitimer(signal.ITIMER_REAL, OP_TIMEOUT_S)
        t0 = time.perf_counter()
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                rc = main(argv)
        except SystemExit as exc:
            rc = exc.code
        except OpTimeout:
            error = f"timeout after {OP_TIMEOUT_S} s"
        except MemoryError:
            error = "MemoryError"
        except Exception as exc:  # any other fault fails the op, not the run
            error = f"{type(exc).__name__}: {exc}"
        finally:
            raw = time.perf_counter() - t0
            signal.setitimer(signal.ITIMER_REAL, 0)
            if root is not None:
                tracer.close(root)
        text = out.getvalue()
        if error is None and rc != kind.rc:
            error = f"exit code {rc}, expected {kind.rc}: {err.getvalue().strip()[:200]}"
        if error is None:
            try:
                self.checks[kind.name](text)
            except Exception as exc:  # a malformed output fails its op
                error = f"check: {type(exc).__name__}: {exc}"
        self.attempted += 1
        if error is not None:
            self.failures.append(f"{' '.join(argv)}: {error}")
        self.cal.append(timed_kernel())
        factor = REFERENCE_S / ((self.cal[-2] + self.cal[-1]) / 2)
        return raw * factor, raw, len(text.encode())

    def warm_up(self) -> None:
        """One unmeasured round: first-call imports, caches, allocator."""
        for kind, argv in self.next_round():
            self.run_op(kind, argv)


def _rank(n: int, q: float) -> int:
    """Nearest-rank index of quantile q among n sorted samples."""
    return max(0, math.ceil(q * n) - 1)


def timed_run(client: Client, seconds: float) -> dict:
    client.warm_up()
    lat = []
    t_start = time.perf_counter()
    while True:
        for kind, argv in client.next_round():
            norm, raw, _ = client.run_op(kind, argv)
            lat.append((norm, raw, kind.name))
        if time.perf_counter() - t_start >= seconds and len(lat) >= MIN_TIMED_OPS:
            break
    n = len(lat)
    ranked = sorted(lat)
    raws = sorted(x[1] for x in lat)

    def kind_at(q):
        # the op kind at the percentile and its share of the ranks within 5% of it
        idx = _rank(n, q)
        window = ranked[max(0, idx - n // 20): idx + n // 20 + 1]
        name = ranked[idx][2]
        return {"kind": name, "share": round(sum(x[2] == name for x in window) / len(window), 3)}

    return {
        "ops": n,
        "ops_per_s": n / sum(x[0] for x in lat),
        "op_p50_ms": ranked[_rank(n, 0.5)][0] * 1000,
        "op_p90_ms": ranked[_rank(n, 0.9)][0] * 1000,
        "p90_beyond": n - 1 - _rank(n, 0.9),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "raw_ops_per_s": n / sum(raws),
        "raw_op_p50_ms": raws[_rank(n, 0.5)] * 1000,
        "raw_op_p90_ms": raws[_rank(n, 0.9)] * 1000,
        "host_factor": statistics.median(x[0] / x[1] for x in lat),
        "p50_at": kind_at(0.5),
        "p90_at": kind_at(0.9),
        "kind_p50_ms": {
            k.name: round(statistics.median(x[0] for x in lat if x[2] == k.name) * 1000, 3)
            for k in workloads.MIXES[client.workload]
        },
    }


def traced_run(client: Client, seconds: float, spans_out: str | None) -> dict:
    """Pairs of rounds on one op list, untraced then traced, until `seconds`
    pass. Counts come from the first traced round; times are medians."""
    from spans import Tracer, layer_metrics

    client.warm_up()
    rounds = []
    first = None
    t_start = time.perf_counter()
    while not rounds or time.perf_counter() - t_start < seconds:
        ops = client.next_round()
        untraced = sum(client.run_op(kind, argv)[0] for kind, argv in ops)
        tracer = Tracer()
        factors, kernel_s, out_bytes = [], [], 0
        tracer.install()
        try:
            for i, (kind, argv) in enumerate(ops):
                tracer.op = i
                before = dict(tracer.kernel_s)
                norm, raw, nbytes = client.run_op(kind, argv, tracer)
                factors.append(norm / raw)
                kernel_s.append({k: v - before.get(k, 0.0) for k, v in tracer.kernel_s.items()})
                out_bytes += nbytes
        finally:
            tracer.uninstall()
        rounds.append(layer_metrics(tracer, factors, kernel_s, out_bytes, untraced))
        first = first or tracer
    if spans_out:
        first.write_spans(spans_out)
    out = {}
    for key, value in rounds[0].items():
        timed = key.endswith("_s") or key == "trace.overhead_ratio"
        out[key] = statistics.median(r[key] for r in rounds) if timed else value
    for rate, count, secs in (
        ("graded_graph.vertices_per_s", "graded_graph.vertices", "graded_graph.build_total_s"),
        ("measures.plancherel_steps_per_s", "measures.plancherel_steps", "measures.plancherel_total_s"),
        ("measures.rsk_steps_per_s", "measures.rsk_steps", "measures.rsk_total_s"),
    ):
        busy = out.pop(secs)
        out[rate] = out[count] / busy if busy else 0.0
    return {"layers": out, "traced_rounds": len(rounds)}


def run(argv=None) -> int:
    p = argparse.ArgumentParser()
    p.add_argument("--workload", required=True, choices=sorted(workloads.MIXES))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-only", action="store_true")
    p.add_argument("--spans-out", default=None)
    args = p.parse_args(argv)
    client = Client(args.workload, args.seed)
    print("ready", flush=True)
    if args.setup_only:
        return 0
    signal.signal(signal.SIGALRM, _on_alarm)
    client.checks = workloads.checks(args.workload)
    if args.trace:
        result = traced_run(client, args.seconds, args.spans_out)
    else:
        result = timed_run(client, args.seconds)
    result.update(attempted=client.attempted, failed=len(client.failures), failures=client.failures[:20])
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(run())
