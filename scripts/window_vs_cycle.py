#!/usr/bin/env python3
"""Time the window engine against the cycle engine on the benchmark suite.

Runs every registered benchmark through ``dispatch(name, "mac")`` (the
window engine, ``coalesce_trace_fast``) and ``dispatch(name,
"mac-cycle", engine="skip")`` (``MAC.process`` on the skip engine) with
the traces generated up front, and prints the best-of-N suite time of
each and their ratio.  This is the figure quoted in the
``coalesce_trace_fast`` docstring and DESIGN.md section 6.

Usage::

    PYTHONPATH=src python scripts/window_vs_cycle.py [--threads 8] [--ops 3000] [--repeat 3]
"""

from __future__ import annotations

import argparse
import time

from repro.eval.runner import DEFAULT_SEED, dispatch, warm_trace_cache
from repro.workloads.registry import benchmark_names


def suite_seconds(policy: str, threads: int, ops: int, engine=None) -> float:
    t0 = time.perf_counter()
    for name in benchmark_names():
        dispatch(name, policy, threads, ops, engine=engine)
    return time.perf_counter() - t0


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--threads", type=int, default=8)
    parser.add_argument("--ops", type=int, default=3000)
    parser.add_argument("--repeat", type=int, default=3)
    args = parser.parse_args()
    warm_trace_cache(
        (name, args.threads, args.ops, DEFAULT_SEED) for name in benchmark_names()
    )
    window = min(
        suite_seconds("mac", args.threads, args.ops) for _ in range(args.repeat)
    )
    cycle = min(
        suite_seconds("mac-cycle", args.threads, args.ops, engine="skip")
        for _ in range(args.repeat)
    )
    print(f"window engine (coalesce_trace_fast): {window:.2f} s")
    print(f"cycle engine (MAC.process, skip):    {cycle:.2f} s")
    print(f"window is {cycle / window:.1f}x faster")


if __name__ == "__main__":
    main()
