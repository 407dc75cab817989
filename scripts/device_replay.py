#!/usr/bin/env python3
"""Time the HMC device on the figure pipeline's replay streams.

Replays the raw and MAC packet streams of every registered benchmark
(8 threads x 200 ops, seed 2019: the streams one ``figures_open_loop``
benchmark round replays) through ``replay_on_device``, a fresh device
per stream, with the streams built up front.  Prints the median suite
time of ``--repeat`` runs and a digest over every replay's
``device.metrics()``, and exits 1 when any replay's metrics differ from
the default-config entry of the device golden
(``tests/hmc/golden/device_replay.json``).  This is the figure quoted in
the ``HMCDevice.submit`` docstring.

Usage::

    PYTHONPATH=src python scripts/device_replay.py [--repeat 7]
"""

from __future__ import annotations

import argparse
import hashlib
import statistics
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

from repro.eval import runner  # noqa: E402
from repro.workloads.registry import benchmark_names  # noqa: E402
from tests.hmc.test_device_golden import (  # noqa: E402
    CADENCE, load_golden, metrics_digest, streams,
)


def replay_suite(cells):
    """Replay every stream on a fresh device; return (seconds, devices)."""
    t0 = time.perf_counter()
    devices = {
        label: runner.replay_on_device(packets, cycles_per_packet=CADENCE[policy]).device
        for label, policy, packets in cells
    }
    return time.perf_counter() - t0, devices


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--repeat", type=int, default=7)
    args = parser.parse_args()
    cells = [
        (f"{name}/{policy}", policy, packets)
        for name in benchmark_names()
        for policy, packets in streams(name).items()
    ]
    times = []
    for _ in range(args.repeat):
        seconds, devices = replay_suite(cells)
        times.append(seconds)
    digests = {label: metrics_digest(dev) for label, dev in devices.items()}
    submits = sum(len(packets) for _, _, packets in cells)
    print(f"{len(cells)} streams, {submits} submits")
    print(
        f"median {statistics.median(times):.3f} s over {args.repeat} runs "
        f"(min {min(times):.3f}, max {max(times):.3f})"
    )
    combined = hashlib.sha256("".join(digests[k] for k in sorted(digests)).encode())
    print(f"metrics digest: {combined.hexdigest()}")
    want = load_golden()["default"]
    drifted = [label for label in digests if digests[label] != want[label]["metrics"]]
    if drifted:
        print(f"metrics differ from the device golden: {drifted}", file=sys.stderr)
        return 1
    print("metrics match the device golden")
    return 0


if __name__ == "__main__":
    sys.exit(main())
