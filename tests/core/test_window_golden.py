"""Recorded-output golden for the open-loop figure pipeline.

Pins, bit for bit, what the window engine (``coalesce_trace_fast``), the
raw baseline (``dispatch_raw``) and the trace converter (``to_requests``)
produce on every registered benchmark: 8 threads x 200 ops, seed 2019,
ARQ sizes 8..256 under every FLIT-table policy.  Each cell is reduced to
a sha256 digest of its packet stream (address, size, type, targets, the
indices of the carried raw requests in input order, bypass flag, issue
cycle) and of its ``MACStats.snapshot()``.  The benchmarks issue no
fences or atomics, so one extra case (``MIXED``) turns every 41st record
of the SORT trace into a fence and every 29th into an atomic.

Regenerate only when a semantic change is intended::

    PYTHONPATH=src python -m tests.core.test_window_golden
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

import pytest

from repro.baselines.direct import dispatch_raw
from repro.core.config import MACConfig
from repro.core.flit_table import FlitTablePolicy
from repro.core.mac import coalesce_trace_fast
from repro.core.request import RequestType
from repro.core.stats import MACStats
from repro.eval.runner import cached_trace
from repro.trace.record import TraceRecord, to_requests
from repro.workloads.registry import benchmark_names

GOLDEN = Path(__file__).parent / "golden" / "window_engine.json"
THREADS, OPS, SEED = 8, 200, 2019
ARQ_SIZES = (8, 16, 32, 64, 128, 256)
MIXED = "MIXED"
CASES = [*benchmark_names(), MIXED]


def golden_trace(name: str):
    if name != MIXED:
        return cached_trace(name, THREADS, OPS, SEED)
    out = []
    for i, rec in enumerate(cached_trace("SORT", THREADS, OPS, SEED)):
        if i % 41 == 0:
            rec = TraceRecord(RequestType.FENCE, 0, rec.size, rec.tid, rec.core, rec.cycle)
        elif i % 29 == 0:
            rec = TraceRecord(
                RequestType.ATOMIC, rec.addr, rec.size, rec.tid, rec.core, rec.cycle
            )
        out.append(rec)
    return out


def _sha(obj) -> str:
    return hashlib.sha256(json.dumps(obj).encode()).hexdigest()


def packet_digest(packets, requests, stats: MACStats) -> dict:
    """Digest of a packet stream plus the stats it recorded."""
    index = {id(req): i for i, req in enumerate(requests)}
    stream = [
        [
            p.addr, p.size, int(p.rtype),
            [[t.tid, t.tag, t.flit_id] for t in p.targets],
            [index[id(r)] for r in p.requests],
            p.bypassed, p.issue_cycle,
        ]
        for p in packets
    ]
    return {
        "packets": len(packets),
        "stream": _sha(stream),
        "stats": _sha(stats.snapshot()),
    }


def request_digest(requests) -> str:
    return _sha([
        [r.addr, int(r.rtype), r.tid, r.tag, r.size, r.core, r.node, r.issue_cycle]
        for r in requests
    ])


def case_digests(name: str) -> dict:
    """Every golden cell of one benchmark."""
    requests = list(to_requests(golden_trace(name)))
    out = {"to_requests": request_digest(requests)}
    st = MACStats()
    out["raw"] = packet_digest(dispatch_raw(requests, MACConfig(), st), requests, st)
    for policy in FlitTablePolicy:
        for entries in ARQ_SIZES:
            st = MACStats()
            pkts = coalesce_trace_fast(
                requests, MACConfig(arq_entries=entries), policy, st
            )
            out[f"{policy.value}/arq{entries}"] = packet_digest(pkts, requests, st)
    return out


def _golden() -> dict:
    return json.loads(GOLDEN.read_text())


@pytest.mark.parametrize("name", CASES)
def test_open_loop_pipeline_matches_golden(name):
    want = _golden()[name]
    got = case_digests(name)
    assert got.keys() == want.keys()
    mismatched = [cell for cell in want if got[cell] != want[cell]]
    assert not mismatched, f"{name}: cells drifted from golden: {mismatched}"


def test_golden_covers_every_case():
    assert sorted(_golden()) == sorted(CASES)


if __name__ == "__main__":
    GOLDEN.parent.mkdir(exist_ok=True)
    GOLDEN.write_text(
        json.dumps({n: case_digests(n) for n in CASES}, indent=1) + "\n"
    )
    print(f"wrote {GOLDEN}")
