"""Recorded-output golden for the HMC device model.

Pins, bit for bit, what ``replay_on_device`` produces for the packet
streams the figures replay: the raw and MAC streams of every registered
benchmark (8 threads x 200 ops, seed 2019; raw at 1 packet/cycle, MAC at
the default 2-cycle cadence, as ``compare_policies`` paces them) on the
default device; three benchmarks on every NoC topology x page policy;
and the same three under one seeded fault config (FLIT bit errors,
transient vault errors, response poison/drop/delay).  Each replay is
reduced to a sha256 digest of its per-response ``(complete_cycle,
service_cycles, poisoned)`` stream (``None`` for a dropped response) and
of its ``device.metrics()`` dict.

Regenerate only when a semantic change is intended::

    PYTHONPATH=src python -m tests.hmc.test_device_golden
"""

from __future__ import annotations

import hashlib
import json
import re
from pathlib import Path
from unittest import mock

import pytest

from repro.eval import runner
from repro.faults import FaultConfig
from repro.hmc.bank import PAGE_POLICIES
from repro.hmc.config import HMCConfig
from repro.hmc.device import HMCDevice
from repro.hmc.noc import NOC_TOPOLOGIES
from repro.workloads.registry import benchmark_names

GOLDEN = Path(__file__).parent / "golden" / "device_replay.json"
THREADS, OPS, SEED = 8, 200, 2019
#: Packets per cycle of each stream (``compare_policies``' pacing).
CADENCE = {"raw": 1.0, "mac": 0.0}
GRID_BENCHMARKS = ("SG", "SORT", "IS")


def fault_config() -> HMCConfig:
    return HMCConfig(faults=FaultConfig.simple(
        flit_ber=1e-3, vault_error_rate=0.1, vault_error_limit=1,
        poison_rate=5e-3, drop_rate=5e-3, delay_rate=5e-3, seed=42,
    ))


def configs() -> dict:
    """``{config label: (HMCConfig factory, benchmarks)}``."""
    out = {"default": (HMCConfig, benchmark_names())}
    for topology in NOC_TOPOLOGIES:
        for policy in PAGE_POLICIES:
            out[f"{topology}-{policy}"] = (
                lambda t=topology, p=policy: HMCConfig(noc_topology=t, page_policy=p),
                GRID_BENCHMARKS,
            )
    out["faults"] = (fault_config, GRID_BENCHMARKS)
    return out


class RecordingDevice(HMCDevice):
    """An :class:`HMCDevice` that keeps what every submit returned."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.responses = []

    def submit(self, request, arrival):
        resp = super().submit(request, arrival)
        self.responses.append(
            None if resp is None
            else [resp.complete_cycle, resp.service_cycles, resp.poisoned]
        )
        return resp


def _sha(obj) -> str:
    return hashlib.sha256(json.dumps(obj, sort_keys=True).encode()).hexdigest()


def metrics_digest(device: HMCDevice) -> str:
    return _sha(device.metrics())


def streams(name: str) -> dict:
    """The raw and MAC packet streams of one benchmark."""
    return {
        policy: runner.dispatch(name, policy, THREADS, OPS, seed=SEED).packets
        for policy in CADENCE
    }


def replay_digest(packets, cadence: float, hmc: HMCConfig) -> dict:
    with mock.patch.object(runner, "HMCDevice", RecordingDevice):
        dev = runner.replay_on_device(packets, cycles_per_packet=cadence, hmc=hmc).device
    return {
        "packets": len(dev.responses),
        "dropped": dev.responses.count(None),
        "responses": _sha(dev.responses),
        "metrics": metrics_digest(dev),
    }


def config_digests(label: str) -> dict:
    """Every golden cell of one device config."""
    factory, names = configs()[label]
    return {
        f"{name}/{policy}": replay_digest(packets, CADENCE[policy], factory())
        for name in names
        for policy, packets in streams(name).items()
    }


def load_golden() -> dict:
    return json.loads(GOLDEN.read_text())


@pytest.mark.parametrize("label", list(configs()))
def test_device_replay_matches_golden(label):
    want = load_golden()[label]
    got = config_digests(label)
    assert got.keys() == want.keys()
    mismatched = [cell for cell in want if got[cell] != want[cell]]
    assert not mismatched, f"{label}: cells drifted from golden: {mismatched}"


def test_golden_covers_every_config():
    assert sorted(load_golden()) == sorted(configs())


def test_fault_cells_exercise_every_fate():
    """The fault config must retry, re-read, poison, drop and delay."""
    dev = HMCDevice(fault_config())
    for cycle, pkt in enumerate(streams("SG")["raw"]):
        dev.submit(pkt, cycle)
    fired = {
        (re.match("[a-z]+", site).group(), event)
        for site, counts in dev.fault_stats.counters.items()
        for event in counts
    }
    assert {
        ("link", "retry"), ("vault", "reread"), ("vault", "poisoned"),
        ("response", "injected_poison"), ("response", "injected_drop"),
        ("response", "injected_delay"),
    } <= fired


if __name__ == "__main__":
    GOLDEN.parent.mkdir(exist_ok=True)
    GOLDEN.write_text(
        json.dumps({label: config_digests(label) for label in configs()}, indent=1)
        + "\n"
    )
    print(f"wrote {GOLDEN}")
