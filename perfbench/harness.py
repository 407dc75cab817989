"""Measurement loop of the benchmark: set-up, timed rounds, traced rounds.

Imported only after :func:`perfbench.run.clear_repro_env`, because it
imports ``repro``.  Untraced runs give the end-to-end metrics; traced
runs alternate untraced and traced rounds so the tracing overhead is
measured in the same process, and report per-layer metrics per traced
round.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple

import numpy as np

from perfbench import hostspeed
from perfbench.spans import Patcher, SpanRecorder
from perfbench.workloads import PAPER, WORKLOADS, Cell, Workload
from repro.eval import runner
from repro.sim import get_engine

ROOT = Path(__file__).resolve().parent.parent
#: Set-ups per run; ``setup_s`` reports the median of their times.
SETUP_REPEATS = 3
#: Fresh interpreters that time their import of ``repro``, beside this one.
IMPORT_REPEATS = 2
#: A run never stops before this many rounds, whatever ``--seconds`` says.
MIN_ROUNDS = 3
#: Traced rounds per traced run; spans of the busiest workload take
#: about 25 MB per round, so later rounds of the run are untraced.
TRACED_ROUNDS = 3

#: (span name, target, tally) wrapped in the traced run.
TARGETS = [
    ("workloads.generate", "repro.workloads.base:Workload.generate", len),
    ("trace.to_requests", "repro.trace.record:to_requests", None),
    ("core.window", "repro.core.mac:coalesce_trace_fast", None),
    ("baselines.dispatch_raw", "repro.baselines.direct:dispatch_raw", None),
    ("core.mac.submit", "repro.core.mac:MAC.submit", lambda ok: not ok),
    ("core.mac.tick", "repro.core.mac:MAC.tick", None),
    ("core.mac.deliver", "repro.core.mac:MAC.deliver_responses", None),
    ("node.core_tick", "repro.node.core:InOrderCore.tick", None),
    ("node.core_retry", "repro.node.core:InOrderCore.retry", None),
    ("node.tick", "repro.node.node:Node.tick", None),
    ("node.deliver", "repro.node.node:Node.deliver_completion", None),
    ("node.system.tick", "repro.node.system:NUMASystem.tick", None),
    ("hmc.submit", "repro.hmc.device:HMCDevice.submit", None),
    ("sim.engine.node", "repro.node.node:Node.run", None),
    ("sim.engine.system", "repro.node.system:NUMASystem.run", None),
    ("eval.dispatch", "repro.eval.runner:dispatch", None),
    ("eval.compare_policies", "repro.eval.runner:compare_policies", None),
    ("eval.replay_on_device", "repro.eval.runner:replay_on_device", None),
]

#: Per-layer span metrics: metric -> (field, spans summed).  ``self_s``
#: and ``calls`` are per traced round; ``items`` is the wrapper's tally.
SPAN_METRICS: Dict[str, Tuple[str, Tuple[str, ...]]] = {
    "trace.to_requests_s": ("self_s", ("trace.to_requests",)),
    "trace.to_requests_calls": ("calls", ("trace.to_requests",)),
    "core.window.self_s": ("self_s", ("core.window",)),
    "core.window.calls": ("calls", ("core.window",)),
    "baselines.dispatch_raw.self_s": ("self_s", ("baselines.dispatch_raw",)),
    "core.mac.submit.self_s": ("self_s", ("core.mac.submit",)),
    "core.mac.submit.calls": ("calls", ("core.mac.submit",)),
    "core.mac.submit.rejected": ("items", ("core.mac.submit",)),
    "core.mac.tick.self_s": ("self_s", ("core.mac.tick",)),
    "core.mac.deliver.self_s": ("self_s", ("core.mac.deliver",)),
    "node.core_tick.self_s": ("self_s", ("node.core_tick",)),
    "node.core_tick.calls": ("calls", ("node.core_tick",)),
    "node.core_retry.self_s": ("self_s", ("node.core_retry",)),
    "node.core_retry.calls": ("calls", ("node.core_retry",)),
    "node.tick.self_s": ("self_s", ("node.tick",)),
    "node.deliver.self_s": ("self_s", ("node.deliver",)),
    "node.system.tick.self_s": ("self_s", ("node.system.tick",)),
    "hmc.submit.self_s": ("self_s", ("hmc.submit",)),
    "hmc.submit.calls": ("calls", ("hmc.submit",)),
    "sim.engine.self_s": ("self_s", ("sim.engine.node", "sim.engine.system")),
    "eval.self_s": (
        "self_s", ("eval.dispatch", "eval.compare_policies", "eval.replay_on_device")
    ),
}

#: Simulated statistics reported per layer (from each workload's summary).
SIM_METRICS = (
    "mac.suite_efficiency_pct",
    "hmc.makespan_speedup_pct",
    "mac.coalescing_efficiency",
    "arq.merges",
    "node.cycles",
    "system.remote_share",
    "system.fabric_credit_stalls",
    "device.bank_conflicts",
    "device.mean_latency",
)

END_TO_END = ("sim_requests_per_s", "setup_s", "peak_rss_mb")
#: Everything a traced run reports, in report order.
PER_LAYER = (
    "workloads.generate_s",
    "workloads.records",
    *SPAN_METRICS,
    "core.mac.accept_ratio",
    "sim.ticks",
    "sim.skip_ratio",
    *SIM_METRICS,
    "bench.trace_overhead",
)

UNITS = {
    "sim_requests_per_s": "requests/s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "workloads.generate_s": "s",
    "workloads.records": "count",
    "core.mac.accept_ratio": "fraction",
    "sim.ticks": "count",
    "sim.skip_ratio": "fraction",
    "bench.trace_overhead": "ratio",
    "mac.suite_efficiency_pct": "%",
    "hmc.makespan_speedup_pct": "%",
    "mac.coalescing_efficiency": "fraction",
    "arq.merges": "count",
    "node.cycles": "cycles",
    "system.remote_share": "fraction",
    "system.fabric_credit_stalls": "count",
    "device.bank_conflicts": "count",
    "device.mean_latency": "cycles",
}


def unit_of(name: str) -> str:
    if name in UNITS:
        return UNITS[name]
    return "s" if name.endswith("_s") else "count"


def fingerprint(sim: Dict[str, Any]) -> str:
    """Stable hash of a flat dict of simulated statistics."""
    blob = json.dumps(sorted(sim.items()), default=repr, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()[:16]


class Round:
    """Cells of one round plus the round's totals."""

    def __init__(self, cells: List[Cell], attempted: int, failed: int) -> None:
        self.cells = cells
        self.attempted = attempted
        self.failed = failed
        self.requests = sum(c.requests for c in cells)
        self.seconds = sum(c.seconds for c in cells)
        sim: Dict[str, Any] = {}
        for c in cells:
            for key, value in c.sim.items():
                sim[f"{c.label}|{key}"] = value
        self.fingerprint = fingerprint(sim)
        #: ``seconds`` on the reference host; set by the measuring loop.
        self.ref_seconds = self.seconds


def run_round(workload: Workload, inputs: Any) -> Round:
    """Run every cell; a cell that raises or breaks a check counts as failed."""
    cells: List[Cell] = []
    attempted = failed = 0
    for label, fn in workload.cells(inputs):
        attempted += 1
        try:
            cell = fn()
        except Exception:  # noqa: BLE001 - a failing cell must not end the run
            failed += 1
            print(f"cell {label} raised:\n{traceback.format_exc()}", file=sys.stderr)
            continue
        if cell.violations:
            failed += 1
            print(f"cell {label} broke: {'; '.join(cell.violations)}", file=sys.stderr)
        cells.append(cell)
    return Round(cells, attempted, failed)


class HostClock:
    """Scales measured seconds to the reference host (see ``hostspeed``)."""

    def __init__(self) -> None:
        self.probes = [hostspeed.probe()]

    def scaled(self, seconds: float) -> float:
        """Scale seconds measured since the last probe, then probe again."""
        before = self.probes[-1]
        self.probes.append(hostspeed.probe())
        return hostspeed.scale(seconds, before, self.probes[-1])


def timed_setup(workload: Workload, clock: Optional[HostClock] = None
                ) -> Tuple[List[Tuple[float, float]], Any]:
    """Set up ``SETUP_REPEATS`` times from a cold trace cache.

    Returns the (raw, reference-host) seconds of each set-up and the
    inputs the last one built.
    """
    times, inputs = [], None
    for _ in range(SETUP_REPEATS):
        runner.clear_trace_cache()
        t0 = time.perf_counter()
        workload.generate()
        inputs = workload.prepare()
        raw = time.perf_counter() - t0
        times.append((raw, clock.scaled(raw) if clock else raw))
    return times, inputs


def child_import_times(clock: HostClock) -> List[Tuple[float, float]]:
    """(raw, reference-host) seconds to import the benchmark in new interpreters."""
    code = ("import time; t = time.perf_counter(); import perfbench.harness; "
            "print(time.perf_counter() - t)")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(ROOT / "src"), str(ROOT)]))
    times = []
    for _ in range(IMPORT_REPEATS):
        proc = subprocess.run([sys.executable, "-c", code], cwd=ROOT, env=env,
                              capture_output=True, text=True, check=True, timeout=120)
        raw = float(proc.stdout.split()[-1])
        times.append((raw, clock.scaled(raw)))
    return times


def environment(workload: Workload) -> Dict[str, Any]:
    return {
        "workload": workload.name,
        "seed": workload.seed,
        "engine": get_engine().name,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "nproc": os.cpu_count(),
        "jobs": 1,
        "shards": 1,
    }


def _metric(value: float, name: str) -> Dict[str, Any]:
    return {"value": value, "unit": unit_of(name)}


def _result(correct: bool, attempted: int, failed: int, metrics: Dict[str, float],
            names: Tuple[str, ...]) -> Dict[str, Any]:
    return {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: _metric(metrics[k], k) for k in names},
    }


def measure(workload: Workload, seconds: float, import_s: float,
            trace: bool, out_dir: Path) -> Tuple[Dict[str, Any], Dict[str, Any]]:
    """Run one benchmark invocation; returns ``(result line, info)``."""
    info = environment(workload)
    clock = HostClock()
    imports = [(import_s, hostspeed.scale(import_s, clock.probes[0], clock.probes[0]))]
    if not trace:
        imports += child_import_times(clock)
    setup_rec = SpanRecorder()
    patcher = Patcher(setup_rec)
    if trace:
        info["absent"] = patcher.install(TARGETS)
    setup_times, inputs = timed_setup(workload, clock)
    patcher.uninstall()

    rec = SpanRecorder()
    plain: List[Round] = []
    traced: List[Round] = []
    deadline = time.perf_counter() + seconds
    while True:
        tracing = trace and len(traced) < min(len(plain), TRACED_ROUNDS)
        if tracing:
            patcher = Patcher(rec)
            patcher.install(TARGETS)
        if inputs is None:
            inputs = workload.prepare()
        rnd = run_round(workload, inputs)
        rnd.ref_seconds = clock.scaled(rnd.seconds)
        inputs = None
        if tracing:
            patcher.uninstall()
            traced.append(rnd)
        else:
            plain.append(rnd)
        done = len(plain) >= MIN_ROUNDS and len(traced) == (TRACED_ROUNDS if trace else 0)
        if done and time.perf_counter() >= deadline:
            break

    rounds = plain + traced
    attempted = sum(r.attempted for r in rounds)
    failed = sum(r.failed for r in rounds)
    prints = {r.fingerprint for r in rounds}
    info.update(
        rounds=len(plain),
        traced_rounds=len(traced),
        attempted=attempted,
        failed=failed,
        failed_share=failed / attempted,
        fingerprint=plain[0].fingerprint,
        fingerprint_stable=len(prints) == 1,
        host_probe_s=statistics.median(clock.probes),
        host_reference_s=hostspeed.REFERENCE_S,
    )
    correct = failed == 0 and len(prints) == 1
    summary = workload.summarize(plain[0].cells)
    info["paper"] = {
        name: {"simulated": summary[name], "paper": value}
        for name, value in PAPER.items()
        if name in summary
    }

    if not trace:
        info["raw"] = {
            "sim_requests_per_s": statistics.median(
                r.requests / r.seconds if r.seconds else 0.0 for r in plain),
            "setup_s": statistics.median(raw for raw, _ in imports)
            + statistics.median(raw for raw, _ in setup_times),
        }
        metrics = {
            "sim_requests_per_s": statistics.median(
                r.requests / r.ref_seconds if r.ref_seconds else 0.0 for r in plain),
            "setup_s": statistics.median(ref for _, ref in imports)
            + statistics.median(ref for _, ref in setup_times),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
        return _result(correct, attempted, failed, metrics, END_TO_END), info

    # Per-layer times are scaled like the blocks they were measured in.
    metrics = layer_metrics(
        setup_rec, rec, len(traced),
        setup_speed=statistics.median(ref / raw for raw, ref in setup_times),
        speed=statistics.median(r.ref_seconds / r.seconds for r in traced),
    )
    for name in SIM_METRICS:
        metrics[name] = float(summary.get(name, 0.0))
    # Share of simulated cycles the engine never ticked.
    cycles = metrics["node.cycles"]
    metrics["sim.skip_ratio"] = 1.0 - metrics["sim.ticks"] / cycles if cycles else 0.0
    metrics["bench.trace_overhead"] = (
        statistics.median(r.ref_seconds for r in traced)
        / statistics.median(r.ref_seconds for r in plain)
    )
    absent_spans = {name for name, target, _ in TARGETS if target in info["absent"]}
    info["layers"] = {
        metric: "absent"
        for metric, (_, spans) in SPAN_METRICS.items()
        if all(s in absent_spans for s in spans)
    }
    out_dir.mkdir(parents=True, exist_ok=True)
    spans_path = out_dir / f"spans-{workload.name}.npz"
    rec.save(spans_path)
    info["spans"] = {"file": f"{out_dir.name}/{spans_path.name}", "count": len(rec)}
    return _result(correct, attempted, failed, metrics, PER_LAYER), info


def layer_metrics(setup_rec: SpanRecorder, rec: SpanRecorder, rounds: int,
                  setup_speed: float, speed: float) -> Dict[str, float]:
    """Per-layer metrics: set-up spans per set-up, the rest per traced round.

    Times are multiplied by the reference-host scale factor of the set-ups
    (``setup_speed``) or of the traced rounds (``speed``).
    """
    setup = setup_rec.summary().get("workloads.generate", {})
    out = {
        "workloads.generate_s":
            setup_speed * setup.get("total_s", 0.0) / SETUP_REPEATS,
        "workloads.records": setup.get("items", 0) / SETUP_REPEATS,
    }
    summary = rec.summary()
    for metric, (fld, spans) in SPAN_METRICS.items():
        total = sum(summary.get(s, {}).get(fld, 0) for s in spans) / rounds
        out[metric] = total * speed if fld == "self_s" else total
    submits = out["core.mac.submit.calls"]
    out["core.mac.accept_ratio"] = (
        (submits - out["core.mac.submit.rejected"]) / submits if submits else 0.0
    )
    ticks = summary.get("node.system.tick", {}).get("calls", 0) or summary.get(
        "node.tick", {}).get("calls", 0)
    out["sim.ticks"] = ticks / rounds
    return out


def run(workload_name: str, seed: int, seconds: float, trace: bool,
        import_s: float, out_dir: Path) -> int:
    workload = WORKLOADS[workload_name](seed)
    result, info = measure(workload, seconds, import_s, trace, out_dir)
    for name, entry in result["metrics"].items():
        if not math.isfinite(entry["value"]):
            raise ValueError(f"metric {name} is not finite: {entry['value']}")
    print(json.dumps({"info": info}, sort_keys=True))
    print(json.dumps(result))
    return 0
