"""The benchmark's workloads: inputs, one round of cells, checks.

Every workload is single-process and serial: no pool, no PDES shards.
A round runs a fixed set of *cells*.  A cell is one top-level call into
``repro`` (a dispatch, a device comparison, a closed-loop run), timed on
its own; the conservation checks run after the clock stops.  Rounds are
deterministic for a seed, so every round of a run must give the same
simulated-statistics fingerprint.

The program is reached only through module attributes
(``runner.dispatch``, ``record.to_requests``, classes), never through
names bound here at import time, so the traced run's wrappers see every
call the benchmark makes.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Iterable, List, Optional, Tuple

from repro.core.config import MACConfig
from repro.eval import runner
from repro.node import node as node_mod
from repro.node import system as system_mod
from repro.seeding import derive_seeds
from repro.trace import record
from repro.workloads.registry import benchmark_names

THREADS = 8
#: Fig. 11's ARQ sizes; the default size doubles as the Fig. 10 point.
ARQ_SIZES = (8, 16, 32, 64, 128, 256)
DEFAULT_ARQ = MACConfig().arq_entries
#: Paper reference values shown beside the simulated ones (not gated):
#: Fig. 10's 8-thread suite average and Fig. 17's average latency cut.
PAPER = {"mac.suite_efficiency_pct": 52.86, "hmc.makespan_speedup_pct": 60.73}


@dataclass
class Cell:
    """Outcome of one timed call into the program."""

    label: str
    requests: int = 0
    seconds: float = 0.0
    #: Flat simulated statistics; hashed into the workload fingerprint.
    sim: Dict[str, Any] = field(default_factory=dict)
    #: Broken conservation identities (empty when the cell is correct).
    violations: List[str] = field(default_factory=list)


def _timed(fn: Callable[[], Any]) -> Tuple[Any, float]:
    t0 = time.perf_counter()
    out = fn()
    return out, time.perf_counter() - t0


def _check(cell: Cell, what: str, got: int, want: int) -> None:
    if got != want:
        cell.violations.append(f"{what}: {got} != {want}")


class Workload:
    """One benchmark workload; subclasses fill in the three hooks."""

    name = ""
    why = ""

    def __init__(self, seed: int) -> None:
        self.seed = seed

    def trace_seeds(self, count: int) -> List[int]:
        """The run's seed, then ``count - 1`` seeds derived from it.

        Simulated work per request varies from trace to trace; a round
        that pools several traces keeps that out of the run-to-run spread.
        """
        return [self.seed, *derive_seeds(self.seed, count - 1, "trace")]

    def generate(self) -> None:
        """Generate the traces into the per-process trace cache."""

    def prepare(self) -> Any:
        """Build the inputs one round consumes (streams are single-use)."""
        return None

    def cells(self, inputs: Any) -> Iterable[Tuple[str, Callable[[], Cell]]]:
        raise NotImplementedError

    def summarize(self, cells: List[Cell]) -> Dict[str, float]:
        """Per-layer simulated statistics of one round."""
        raise NotImplementedError


class FiguresOpenLoop(Workload):
    """The open-loop cells behind ``repro figures`` (Figs. 10, 11, 17)."""

    name = "figures_open_loop"
    why = (
        "Fig. 11 ARQ sweep plus Fig. 17 raw-vs-MAC replay over all 12 "
        "benchmarks: trace, window coalescer, baseline and HMC replay; no "
        "node, no engine"
    )

    ops = 200

    def __init__(self, seed: int) -> None:
        super().__init__(seed)
        self.names = benchmark_names()
        self._trace_len: Dict[str, int] = {}

    def generate(self) -> None:
        runner.warm_trace_cache(
            [(n, THREADS, self.ops, self.seed) for n in self.names]
        )
        self._trace_len = {
            n: len(runner.cached_trace(n, THREADS, self.ops, self.seed))
            for n in self.names
        }

    def cells(self, inputs):
        for name in self.names:
            reference: Dict[str, int] = {}
            for entries in ARQ_SIZES:
                yield (f"{name}/arq{entries}",
                       lambda n=name, e=entries, r=reference: self._dispatch(n, e, r))
            yield (f"{name}/compare",
                   lambda n=name, r=reference: self._compare(n, r))

    def _dispatch(self, name: str, entries: int, reference: Dict[str, int]) -> Cell:
        res, dt = _timed(lambda: runner.dispatch(
            name, "mac", THREADS, self.ops,
            config=MACConfig(arq_entries=entries), seed=self.seed,
        ))
        cell = Cell(f"{name}/arq{entries}", self._trace_len[name], dt, res.metrics())
        carried = [id(raw) for pkt in res.packets for raw in pkt.requests]
        memory_raw = res.stats.memory_raw_requests
        _check(cell, "raw requests carried by packets", len(carried), memory_raw)
        _check(cell, "distinct raw requests carried", len(set(carried)), memory_raw)
        if entries == DEFAULT_ARQ:
            reference.update(packets=len(res.packets), memory_raw=memory_raw)
        return cell

    def _compare(self, name: str, reference: Dict[str, int]) -> Cell:
        out, dt = _timed(lambda: runner.compare_policies(
            name, THREADS, self.ops, seed=self.seed
        ))
        sim = {}
        for policy in ("raw", "mac"):
            for key, value in out[policy].metrics().items():
                sim[f"{policy}.{key}"] = value
        cell = Cell(f"{name}/compare", self._trace_len[name], dt, sim)
        if not reference:
            cell.violations.append("default-ARQ dispatch missing")
            return cell
        _check(cell, "MAC device served its packets",
               out["mac"].device.stats.requests, reference["packets"])
        _check(cell, "raw device served its packets",
               out["raw"].device.stats.requests, reference["memory_raw"])
        return cell

    def summarize(self, cells):
        effs, speedups = [], []
        packets = memory_raw = conflicts = lat_total = served = 0
        for c in cells:
            if c.label.endswith(f"/arq{DEFAULT_ARQ}"):
                effs.append(c.sim["mac.coalescing_efficiency"])
                packets += c.sim["mac.coalesced_packets"]
                memory_raw += c.sim["mac.raw_requests"] - c.sim["mac.raw_fences"]
            elif c.label.endswith("/compare"):
                speedups.append(
                    1.0 - c.sim["mac.device.makespan"] / c.sim["raw.device.makespan"]
                )
                conflicts += c.sim["mac.device.bank_conflicts"]
                lat_total += c.sim["mac.device.total_latency_cycles"]
                served += c.sim["mac.device.requests"]
        return {
            "mac.suite_efficiency_pct": 100.0 * sum(effs) / len(effs) if effs else 0.0,
            "hmc.makespan_speedup_pct":
                100.0 * sum(speedups) / len(speedups) if speedups else 0.0,
            "mac.coalescing_efficiency":
                1.0 - packets / memory_raw if memory_raw else 0.0,
            "device.bank_conflicts": conflicts,
            "device.mean_latency": lat_total / served if served else 0.0,
        }


class ClosedLoop(Workload):
    """Shared summary and checks of the closed-loop node workloads."""

    def summarize(self, cells):
        sims = [c.sim for c in cells]

        def total(suffix: str) -> float:
            """Sum over cells and nodes of the values keyed ``[node<i>.]suffix``."""
            dotted = "." + suffix
            return sum(v for s in sims for k, v in s.items()
                       if k == suffix or k.endswith(dotted))

        memory_raw = total("mac.raw_requests") - total("mac.raw_fences")
        served = total("device.requests")
        local, remote = total("system.local_requests"), total("system.remote_requests")
        cycles = sum(s.get("system.cycles", s.get("node.cycles", 0)) for s in sims)
        return {
            "mac.coalescing_efficiency":
                1.0 - total("mac.coalesced_packets") / memory_raw if memory_raw else 0.0,
            "arq.merges": total("arq.merges"),
            "node.cycles": cycles,
            "device.bank_conflicts": total("device.bank_conflicts"),
            "device.mean_latency":
                total("device.total_latency_cycles") / served if served else 0.0,
            "system.remote_share":
                remote / (local + remote) if local + remote else 0.0,
            "system.fabric_credit_stalls": total("system.fabric_credit_stalls"),
        }

    @staticmethod
    def check_node(cell: Cell, node, label: str = "") -> None:
        mst = node.mac.stats
        _check(cell, f"{label}packets carry every non-fence raw request",
               mst.merged_requests, mst.memory_raw_requests)
        _check(cell, f"{label}device served every packet",
               node.device.stats.requests, mst.coalesced_packets)


class SingleNode(ClosedLoop):
    """One closed-loop Fig. 4 node per (benchmark, trace seed)."""

    benchmarks: Tuple[str, ...] = ()
    ops = 1000
    traces_per_benchmark = 1
    lsq_capacity: Optional[int] = None

    def _specs(self):
        return [(b, THREADS, self.ops, s) for b in self.benchmarks
                for s in self.trace_seeds(self.traces_per_benchmark)]

    def generate(self) -> None:
        runner.warm_trace_cache(self._specs())

    def prepare(self):
        streams = []
        for spec in self._specs():
            per_core: Dict[int, List] = {}
            for req in record.to_requests(runner.cached_trace(*spec)):
                per_core.setdefault(req.core, []).append(req)
            streams.append((spec[0], [reqs for _, reqs in sorted(per_core.items())]))
        return streams

    def cells(self, inputs):
        for i, (bench, per_core) in enumerate(inputs):
            yield f"{bench}/{i}", lambda p=per_core, i=i: self._run(f"{bench}/{i}", p)

    def _run(self, label: str, per_core: List[List]) -> Cell:
        def simulate():
            node = node_mod.Node(
                [iter(reqs) for reqs in per_core], lsq_capacity=self.lsq_capacity
            )
            node.run()
            return node

        node, dt = _timed(simulate)
        cell = Cell(label, node.mac.stats.raw_requests, dt, node.metrics())
        self.check_node(cell, node)
        _check(cell, "issued == delivered + fences", node.stats.requests_issued,
               node.stats.responses_delivered + node.mac.stats.raw_fences)
        return cell


class NodeSaturated(SingleNode):
    name = "node_saturated"
    why = (
        "deep-LSQ cores on store-heavy IS and SORT keep the MAC input queue "
        "full: node front end, retry churn, cycle MAC and device"
    )
    benchmarks = ("IS", "SORT")
    ops = 500
    traces_per_benchmark = 2


class NodeLatency(SingleNode):
    name = "node_latency"
    why = (
        "stall-on-miss cores (LSQ of 1) on load-dominated PageRank: long latency-bound "
        "runs with no refusals, so engine and per-cycle tick loop dominate"
    )
    benchmarks = ("PR",)
    lsq_capacity = 1


class NumaMesh(ClosedLoop):
    name = "numa_mesh"
    why = (
        "serial 4-node NUMA mesh on SSCA2, mostly remote traffic with fabric "
        "credit stalls: the only load on repro.node.system and the interconnect"
    )
    bench = "SSCA2"
    nodes = 4
    ops = 150
    meshes = 3

    def prepare(self):
        return [runner.numa_streams(self.bench, self.nodes, THREADS, self.ops, s)
                for s in self.trace_seeds(self.meshes)]

    def cells(self, inputs):
        for i, streams in enumerate(inputs):
            label = f"{self.bench}/{i}"
            yield label, lambda s=streams, label=label: self._run(label, s)

    def _run(self, label: str, streams) -> Cell:
        def simulate():
            system = system_mod.NUMASystem(streams)
            system.run(shards=1)
            return system

        system, dt = _timed(simulate)
        nodes = system.nodes
        cell = Cell(label, sum(n.mac.stats.raw_requests for n in nodes), dt,
                    system.metrics())
        for n in nodes:
            self.check_node(cell, n, f"node{n.node_id}: ")
        issued = sum(n.stats.requests_issued for n in nodes)
        answered = (sum(n.stats.responses_delivered for n in nodes)
                    + system.stats.responses
                    + sum(n.mac.stats.raw_fences for n in nodes))
        _check(cell, "issued == delivered + fences", issued, answered)
        return cell


WORKLOADS = {
    cls.name: cls for cls in (FiguresOpenLoop, NodeSaturated, NodeLatency, NumaMesh)
}
