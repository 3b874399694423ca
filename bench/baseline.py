"""Re-measure the library-level baseline numbers quoted in ROADMAP.md.

    python3 bench/baseline.py

Times, in-process and untraced, full-depth `build_graph` on young
6,5,4,3,2,1, box 3,3,3 and box 3,3,4, `sample_plancherel` at 2500 steps,
`sample_rsk_thoma((0.7, 0.3))` at 5000 steps, and `generate_group` /
`verify_relations` on young 4,3,2,1. Prints the median raw wall time of
each over REPEATS calls and the same in reference-host seconds (see
calibrate.py).
"""

from __future__ import annotations

import os
import statistics
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

from posetpaths import (  # noqa: E402
    build_box_poset,
    build_graph,
    build_young_poset,
    generate_group,
    sample_plancherel,
    sample_rsk_thoma,
    verify_relations,
)

from calibrate import REFERENCE_S, timed_kernel  # noqa: E402

REPEATS = 5


def _graph(window):
    return lambda: build_graph(window, window.poset.n - 1)


def main() -> int:
    staircase4 = build_young_poset((4, 3, 2, 1))
    handle = generate_group(staircase4, staircase4.poset.n)
    cases = [
        ("build_graph young 6,5,4,3,2,1", _graph(build_young_poset((6, 5, 4, 3, 2, 1)))),
        ("build_graph box 3,3,3", _graph(build_box_poset(3, (3, 3, 3)))),
        ("build_graph box 3,3,4", _graph(build_box_poset(3, (3, 3, 4)))),
        ("sample_plancherel 2500 steps", lambda: sample_plancherel(2500, 7)),
        ("sample_rsk_thoma (0.7,0.3) 5000 steps", lambda: sample_rsk_thoma((0.7, 0.3), 5000, 7)),
        ("generate_group young 4,3,2,1", lambda: generate_group(staircase4, staircase4.poset.n)),
        ("verify_relations young 4,3,2,1", lambda: verify_relations(handle)),
    ]
    print(f"{'case':40s} {'raw ms':>9s} {'ref ms':>9s}")
    for name, fn in cases:
        fn()  # warm-up
        raw, ref = [], []
        for _ in range(REPEATS):
            before = timed_kernel()
            t0 = time.perf_counter()
            fn()
            dt = time.perf_counter() - t0
            after = timed_kernel()
            raw.append(dt)
            ref.append(dt * REFERENCE_S / ((before + after) / 2))
        print(f"{name:40s} {statistics.median(raw) * 1000:9.1f} {statistics.median(ref) * 1000:9.1f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
