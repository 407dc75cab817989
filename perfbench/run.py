"""Benchmark entry point.

One workload per invocation, in this fresh process::

    python3 perfbench/run.py --workload node_latency --seed 2019 --seconds 15 --trace 0

The last line of standard output is the result object
(``correct``/``attempted``/``failed``/``metrics``); the line before it
carries the run's environment, fingerprint and paper comparison.
``--trace 1`` reports per-layer metrics instead of end-to-end ones.

``--all`` runs every workload, each in its own child process, and prints
one table of the end-to-end metrics.  See ``perfbench/README.md``.
"""

from __future__ import annotations

import time

START = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402
from typing import List, MutableMapping, Optional  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".perfbench_out"
WORKLOAD_NAMES = ("figures_open_loop", "node_saturated", "node_latency", "numa_mesh")

def clear_repro_env(environ: MutableMapping[str, str]) -> List[str]:
    """Remove every ``REPRO_*`` variable; return the names removed.

    ``REPRO_SIM_ENGINE``, ``REPRO_SIM_VECTOR``, ``REPRO_SIM_CHECK``,
    ``REPRO_SIM_SHARDS`` and ``REPRO_PDES_CHAOS`` change which code runs;
    the benchmark measures the program's defaults.
    """
    names = sorted(k for k in environ if k.startswith("REPRO_"))
    for name in names:
        del environ[name]
    return names


def load_program() -> bool:
    """Import ``repro`` from this checkout's ``src``; False if it is not there."""
    if not (SRC / "repro" / "__init__.py").is_file():
        return False
    sys.path[:0] = [str(SRC), str(ROOT)]
    import repro

    return SRC in Path(repro.__file__).resolve().parents


def run_all(seed: int, seconds: int) -> int:
    """Each workload in its own child process; print one metric table."""
    rows, status = [], 0
    for name in WORKLOAD_NAMES:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                              timeout=600)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or len(lines) < 2:
            sys.stderr.write(proc.stderr)
            print(f"{name}: failed with exit code {proc.returncode}")
            status = 1
            continue
        info = json.loads(lines[-2])["info"]
        result = json.loads(lines[-1])
        for metric, entry in result["metrics"].items():
            rows.append((name, metric, entry["value"], entry["unit"]))
        rows.append((name, "failed_share", info["failed_share"], "fraction"))
        rows.append((name, "fingerprint", info["fingerprint"], "sha256/16"))
        if not result["correct"]:
            status = 1
    width = max(len(r[1]) for r in rows) if rows else 0
    for name, metric, value, unit in rows:
        shown = f"{value:.6g}" if isinstance(value, float) else str(value)
        print(f"{name:<18} {metric:<{width}} {shown:>18} {unit}")
    return status


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, default=2019)
    parser.add_argument("--seconds", type=int, default=15)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--all", action="store_true",
                        help="run every workload in its own process")
    args = parser.parse_args(argv)
    if args.workload is None and not args.all:
        parser.error("give --workload NAME or --all")

    clear_repro_env(os.environ)
    if not load_program():
        print(f"no repro package under {SRC}; run from a checkout of the repo",
              file=sys.stderr)
        return 2
    if args.all:
        return run_all(args.seed, args.seconds)

    from perfbench import harness

    import_s = time.perf_counter() - START
    return harness.run(args.workload, args.seed, args.seconds, bool(args.trace),
                       import_s, OUT_DIR)


if __name__ == "__main__":
    sys.exit(main())
