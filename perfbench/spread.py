"""Run-to-run spread of the end-to-end metrics, one seed per run.

    python3 perfbench/spread.py --runs 10 --seconds 20 [--workload NAME ...]

Runs the benchmark ``--runs`` times per workload, each in a fresh
process with seeds ``--first-seed``, ``--first-seed + 1``, ...; prints,
per metric, the median, the quartiles and the interquartile range as a
share of the median, next to the metric's bound from ``BENCHMARK.json``.
With ``--out FILE`` the summary is also written as JSON (a trajectory
point).
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def one_run(workload: str, seed: int, seconds: int) -> dict:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
    if proc.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed} failed:\n{proc.stderr}")
    lines = proc.stdout.strip().splitlines()
    return {"info": json.loads(lines[-2])["info"], "result": json.loads(lines[-1])}


def summarize(values: list) -> dict:
    q1, med, q3 = statistics.quantiles(values, n=4)
    return {"median": med, "q1": q1, "q3": q3,
            "iqr_share": (q3 - q1) / med if med else float("nan"),
            "values": values}


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", action="append", choices=names)
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=spec["run_seconds"])
    parser.add_argument("--out", type=Path)
    args = parser.parse_args()

    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    report, ok = {}, True
    for workload in args.workload or names:
        seeds = range(args.first_seed, args.first_seed + args.runs)
        runs = [one_run(workload, seed, args.seconds) for seed in seeds]
        info = runs[0]["info"]
        entry = {
            "seconds": args.seconds,
            "environment": {k: info[k] for k in ("engine", "python", "numpy", "nproc")},
            "attempted": sum(r["result"]["attempted"] for r in runs),
            "failed": sum(r["result"]["failed"] for r in runs),
            "fingerprints": {str(s): r["info"]["fingerprint"] for s, r in zip(seeds, runs)},
            "metrics": {},
        }
        for metric in bounds:
            values = [r["result"]["metrics"][metric]["value"] for r in runs]
            s = summarize(values)
            entry["metrics"][metric] = s
            flag = "" if s["iqr_share"] < bounds[metric] / 3 else "  <-- wide"
            if metric != "setup_s" and s["iqr_share"] > bounds[metric]:
                ok = False
            print(f"{workload:<18} {metric:<20} median {s['median']:<12.6g} "
                  f"q1 {s['q1']:<12.6g} q3 {s['q3']:<12.6g} "
                  f"iqr/median {s['iqr_share']:.3f} (bound {bounds[metric]}){flag}")
        report[workload] = entry
    if args.out:
        args.out.write_text(json.dumps(report, indent=1, sort_keys=True) + "\n")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
