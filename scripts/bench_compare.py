#!/usr/bin/env python3
"""Compare two sets of BENCH_<name>.json benchmark artifacts.

The benchmark suite (``benchmarks/``) writes one ``BENCH_<name>.json``
per figure driver — wall time plus the driver's key metrics (see
``benchmarks/conftest.py``).  This script diffs a baseline set against a
candidate set and **fails (exit 1) when any benchmark's wall time
regressed by more than the threshold** (default 20%), so CI can gate on
simulator performance the same way it gates on correctness.

Usage::

    python scripts/bench_compare.py BASELINE CANDIDATE [--threshold 0.2]

``BASELINE`` and ``CANDIDATE`` are each either a directory of
``BENCH_*.json`` files or a single artifact file.  Benchmarks present
on only one side are reported but never fail the gate (new or retired
figures are expected as the suite grows).  Metric values present on
both sides are printed for context; only wall time is gated, because
key metrics are deterministic and already pinned by the test suite.
When both sides resolve to the same artifact files the wall-time gate
cannot fire, so it is reported as not run; ``--require`` still applies.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import Dict, List


def artifact_files(path: Path) -> List[Path]:
    """The ``BENCH_*.json`` files a file or directory argument names."""
    if path.is_file():
        return [path]
    if path.is_dir():
        return sorted(path.glob("BENCH_*.json"))
    raise FileNotFoundError(f"no such file or directory: {path}")


def load_artifacts(path: Path) -> Dict[str, dict]:
    """Load ``{benchmark name: artifact}`` from a file or directory."""
    out: Dict[str, dict] = {}
    for f in artifact_files(path):
        data = json.loads(f.read_text())
        name = data.get("name") or f.stem
        out[name] = data
    if not out:
        raise FileNotFoundError(f"no BENCH_*.json artifacts under {path}")
    return out


def _fmt_ratio(ratio: float) -> str:
    sign = "+" if ratio >= 1 else ""
    return f"{sign}{(ratio - 1) * 100:.1f}%"


def compare(
    baseline: Dict[str, dict],
    candidate: Dict[str, dict],
    threshold: float,
) -> int:
    """Print the comparison table; return the number of regressions."""
    names = sorted(set(baseline) | set(candidate))
    width = max(len(n) for n in names)
    regressions = 0
    print(f"{'benchmark':<{width}}  {'base s':>9}  {'cand s':>9}  {'delta':>8}")
    for name in names:
        base = baseline.get(name)
        cand = candidate.get(name)
        if base is None:
            print(f"{name:<{width}}  {'-':>9}  "
                  f"{cand.get('wall_time_s', 0) or 0:>9.3f}  {'new':>8}")
            continue
        if cand is None:
            print(f"{name:<{width}}  "
                  f"{base.get('wall_time_s', 0) or 0:>9.3f}  {'-':>9}  "
                  f"{'removed':>8}")
            continue
        b = base.get("wall_time_s") or 0.0
        c = cand.get("wall_time_s") or 0.0
        if b <= 0:
            print(f"{name:<{width}}  {b:>9.3f}  {c:>9.3f}  {'n/a':>8}")
            continue
        ratio = c / b
        flag = ""
        if ratio > 1 + threshold:
            regressions += 1
            flag = "  << REGRESSION"
        print(f"{name:<{width}}  {b:>9.3f}  {c:>9.3f}  "
              f"{_fmt_ratio(ratio):>8}{flag}")
        # Context: shared numeric metrics that moved.
        bm = base.get("metrics") or {}
        cm = cand.get("metrics") or {}
        for key in sorted(set(bm) & set(cm)):
            bv, cv = bm[key], cm[key]
            if (
                isinstance(bv, (int, float))
                and isinstance(cv, (int, float))
                and bv != cv
            ):
                print(f"{'':<{width}}    {key}: {bv} -> {cv}")
    return regressions


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="Diff BENCH_*.json artifacts; fail on wall-time regression."
    )
    parser.add_argument("baseline", type=Path, help="baseline file or directory")
    parser.add_argument("candidate", type=Path, help="candidate file or directory")
    parser.add_argument(
        "--threshold",
        type=float,
        default=0.2,
        help="allowed relative wall-time growth before failing (default 0.2)",
    )
    parser.add_argument(
        "--require",
        action="append",
        default=[],
        metavar="PREFIX",
        help="fail unless the candidate set has a benchmark whose name "
        "starts with PREFIX (repeatable); guards against a figure "
        "silently dropping out of the suite",
    )
    args = parser.parse_args(argv)

    baseline = load_artifacts(args.baseline)
    candidate = load_artifacts(args.candidate)
    for prefix in args.require:
        if not any(name.startswith(prefix) for name in candidate):
            print(
                f"required benchmark missing from candidate set: {prefix}*",
                file=sys.stderr,
            )
            return 1
    same = {f.resolve() for f in artifact_files(args.baseline)} == {
        f.resolve() for f in artifact_files(args.candidate)
    }
    if same:
        print(
            f"wall-time gate not run: baseline and candidate are the same "
            f"{len(candidate)} artifact(s)"
        )
        return 0
    regressions = compare(baseline, candidate, args.threshold)
    if regressions:
        print(
            f"\n{regressions} benchmark(s) regressed beyond "
            f"{args.threshold * 100:.0f}% wall time",
            file=sys.stderr,
        )
        return 1
    print(f"\nno wall-time regressions beyond {args.threshold * 100:.0f}%")
    return 0


if __name__ == "__main__":
    sys.exit(main())
