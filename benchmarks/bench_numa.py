"""Section 3 generality — coalescing remote traffic at the home node.

The architecture routes remote requests into the home node's Remote
Access Queue, where its MAC coalesces them *together with local
traffic*.  This bench runs a 4-node NUMA system over interleaved shared
data with and without coalescing and measures the conflict and makespan
effect of home-node coalescing on mixed local/remote streams.
"""

from repro.core.request import MemoryRequest, RequestType
from repro.eval.report import format_table, pct
from repro.node.system import NUMASystem

from conftest import attach, run_figure

NODES, CORES, OPS = 4, 2, 300


def _stream(node_id, core_id):
    for i in range(OPS):
        idx = (node_id * 11 + core_id * 5 + i) % 384
        yield MemoryRequest(
            addr=idx * 256 + (i % 16) * 16,
            rtype=RequestType.LOAD if i % 4 else RequestType.STORE,
            tid=core_id,
            tag=i,
            core=core_id,
            node=node_id,
        )


def _run(coalescing: bool):
    system = NUMASystem(
        [[_stream(n, c) for c in range(CORES)] for n in range(NODES)],
        interconnect_latency=120,
        interleave_bytes=1 << 10,
    )
    if not coalescing:
        from repro.core.config import MACConfig
        from repro.core.mac import MAC

        for node in system.nodes:
            mac = MAC(MACConfig(arq_entries=1, latency_hiding=False),
                      node_id=node.node_id)
            mac.request_router.home_fn = system.home
            node.mac = mac
    stats = system.run()
    return system, stats


def test_numa_home_node_coalescing(benchmark):
    def run():
        with_mac, st_mac = _run(True)
        without, st_raw = _run(False)
        return {
            "cycles": (st_mac.cycles, st_raw.cycles),
            "remote": (st_mac.remote_requests, st_raw.remote_requests),
            "conflicts": (
                sum(n.device.bank_conflicts for n in with_mac.nodes),
                sum(n.device.bank_conflicts for n in without.nodes),
            ),
            "merges": sum(n.mac.aggregator.arq.merges for n in with_mac.nodes),
        }

    out = run_figure(benchmark, run, "Section 3: NUMA home-node coalescing")
    print()
    print(
        format_table(
            ["metric", "with MAC", "without"],
            [
                ["cycles", out["cycles"][0], out["cycles"][1]],
                ["bank conflicts", out["conflicts"][0], out["conflicts"][1]],
                ["remote requests", out["remote"][0], out["remote"][1]],
            ],
            title="4-node NUMA, 75% remote traffic",
        )
    )
    print(f"home-node merges: {out['merges']}")
    speedup = 1 - out["cycles"][0] / out["cycles"][1]
    print(f"makespan speedup: {pct(speedup)}")
    attach(benchmark, makespan_speedup=speedup, merges=out["merges"])
    # Remote traffic flows identically either way...
    assert out["remote"][0] == out["remote"][1]
    # ...but coalescing at the home node merges requests and cuts
    # conflicts across the whole system.
    assert out["merges"] > 0
    assert out["conflicts"][0] < out["conflicts"][1]


def test_numa_sharded_scaling(benchmark):
    """Sharded PDES over a 64-node mesh: identity always, speedup if cores.

    The equivalence suite proves shards=k is bit-identical on small
    meshes; this figure measures the wall-clock payoff at scale.  Every
    row runs the skip engine, so the speedup is shards=1 vs shards=k on
    one engine (the table's engine column shows it).  The
    ≥3x speedup assertion is gated on host parallelism — on a 1-CPU
    container the forked shards time-slice one core and sharding can
    only break even.
    """
    import os

    from repro.eval.experiments import numa_scaling

    shard_counts = (1, 4)

    def run():
        return numa_scaling(
            "GUPS", nodes=64, threads=1, ops_per_thread=60,
            shard_counts=shard_counts,
        )

    out = run_figure(benchmark, run, "Sharded PDES scaling, 64-node mesh")
    rows = [
        [
            shards,
            "PDES" if cell["sharded"] else "serial",
            cell["engine"],
            cell["windows"],
            f"{cell['wall_s']:.2f}",
            f"{cell['speedup']:.2f}x",
        ]
        for shards, cell in out["runs"].items()
    ]
    print()
    print(
        format_table(
            ["shards", "backend", "engine", "windows", "wall s", "speedup"],
            rows,
            title=f"64-node {out['benchmark']} mesh, conservative windows",
        )
    )
    best = max(cell["speedup"] for cell in out["runs"].values())
    attach(
        benchmark,
        identical=out["identical"],
        best_speedup=best,
        shard_counts=list(shard_counts),
    )
    # The contract half: sharding never changes the simulated outcome.
    assert out["identical"]
    assert out["runs"][4]["sharded"] and out["runs"][4]["windows"] > 0
    # The payoff half, only meaningful with real cores to spread over.
    if (os.cpu_count() or 1) >= 4:
        assert best >= 3.0, f"expected >=3x at 4 shards, got {best:.2f}x"