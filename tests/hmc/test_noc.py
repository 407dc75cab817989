"""Unit tests for the configurable intra-cube NoC (repro.hmc.noc)."""

import pytest

from repro.hmc.config import HMCConfig
from repro.hmc.noc import (
    NOC_ARBITRATIONS,
    NOC_TOPOLOGIES,
    IdealNoC,
    MeshNoC,
    NoCStats,
    RingNoC,
    XbarNoC,
    build_noc,
)
from repro.hmc.timing import HMCTiming

T = HMCTiming()


class TestIdealNoC:
    def test_matches_legacy_crossbar_cycle_for_cycle(self):
        """`ideal` has the legacy fixed-latency crossbar's delay for any
        cycle, both directions: its outputs, recorded before it was
        removed (default timing, ``crossbar_latency`` = 8)."""
        legacy = {0: 8, 1: 9, 17: 25, 93: 101, 10_000: 10_008}
        noc = IdealNoC(T)
        for cycle, out in legacy.items():
            assert noc.to_vault(cycle, vault=3, link=1, flits=9) == out
            assert noc.to_link(cycle, vault=3, link=1, flits=9) == out

    def test_no_contention_state(self):
        noc = IdealNoC(T)
        # Simultaneous packets to the same vault: no serialization.
        a = noc.to_vault(100, vault=0, link=0, flits=8)
        b = noc.to_vault(100, vault=0, link=1, flits=8)
        assert a == b == 100 + T.crossbar_latency
        assert noc.busy_until() == 0
        assert noc.stats.contention_cycles == 0

    def test_traffic_counters(self):
        noc = IdealNoC(T)
        noc.to_vault(0, flits=3)
        noc.to_vault(5, flits=4)
        noc.to_link(9, flits=17)
        st = noc.stats
        assert (st.forwarded, st.returned) == (2, 1)
        assert (st.request_flits, st.response_flits) == (7, 17)


class TestXbarContention:
    def test_isolated_packet_matches_ideal(self):
        """An uncontended xbar packet pays exactly the ideal latency."""
        noc = XbarNoC(T, vaults=4, links=2)
        assert noc.to_vault(50, vault=1, link=0, flits=4) == 50 + T.crossbar_latency

    def test_same_vault_packets_serialize(self):
        """Two packets converging on one vault port: the second waits
        for the first's FLIT serialization time."""
        noc = XbarNoC(T, vaults=4, links=2)
        flits = 6
        first = noc.to_vault(100, vault=2, link=0, flits=flits)
        second = noc.to_vault(100, vault=2, link=1, flits=flits)
        service = max(1, flits * T.cycles_per_flit)
        assert first == 100 + T.crossbar_latency
        assert second == first + service
        assert noc.stats.contention_cycles == service

    def test_different_vaults_do_not_contend(self):
        noc = XbarNoC(T, vaults=4, links=2)
        a = noc.to_vault(100, vault=0, link=0, flits=8)
        b = noc.to_vault(100, vault=1, link=1, flits=8)
        assert a == b
        assert noc.stats.contention_cycles == 0

    def test_request_and_response_ports_are_independent(self):
        noc = XbarNoC(T, vaults=4, links=2)
        noc.to_vault(100, vault=0, link=0, flits=8)
        # Response through the same cycle window: separate port plane.
        assert noc.to_link(100, vault=0, link=0, flits=8) == 100 + T.crossbar_latency

    def test_contention_stall_attributed(self):
        from repro.obs.attribution import AttributionCollector, StallCause

        at = AttributionCollector()
        noc = XbarNoC(T, vaults=2, links=2, attrib=at)
        noc.to_vault(10, vault=0, link=0, flits=8)
        noc.to_vault(10, vault=0, link=1, flits=8)
        snap = at.snapshot()
        stalls = snap["stalls"]["noc"]
        assert stalls[StallCause.NOC_CONTENTION.value] > 0


class TestXbarBackpressure:
    def test_full_buffer_delays_admission(self):
        """With a 1-entry buffer, a third packet cannot even be admitted
        until the first grant's release frees the slot — the stall is
        charged to buffer backpressure, not port contention."""
        flits = 8
        service = max(1, flits * T.cycles_per_flit)
        deep = XbarNoC(T, vaults=2, links=4, buffers=4)
        shallow = XbarNoC(T, vaults=2, links=4, buffers=1)
        for noc in (deep, shallow):
            for link in range(3):
                noc.to_vault(0, vault=0, link=link, flits=flits)
        # Arrival times (and hence total delay) are identical — the
        # bounded buffer only moves waiting upstream into the link.
        assert deep.busy_until() == shallow.busy_until() == 3 * service
        assert deep.stats.buffer_stall_cycles == 0
        assert deep.stats.contention_cycles == 3 * service
        assert shallow.stats.buffer_stall_cycles > 0
        assert (
            shallow.stats.buffer_stall_cycles + shallow.stats.contention_cycles
            == 3 * service
        )

    def test_buffers_must_be_positive(self):
        with pytest.raises(ValueError):
            XbarNoC(T, vaults=2, links=2, buffers=0)

    def test_unknown_arbitration_rejected(self):
        with pytest.raises(ValueError):
            XbarNoC(T, vaults=2, links=2, arbitration="lottery")


class TestArbitration:
    def _burst(self, noc, n=6, flits=4):
        return [noc.to_vault(0, vault=0, link=i % noc.links, flits=flits) for i in range(n)]

    def test_round_robin_differs_from_fifo(self):
        fifo = XbarNoC(T, vaults=2, links=4, arbitration="fifo")
        rr = XbarNoC(T, vaults=2, links=4, arbitration="round_robin")
        assert self._burst(fifo) != self._burst(rr)

    def test_round_robin_grants_on_source_aligned_cycles(self):
        rr = XbarNoC(T, vaults=2, links=4, arbitration="round_robin")
        for i, arrival in enumerate(self._burst(rr)):
            grant = arrival - T.crossbar_latency
            assert grant % rr.links == i % rr.links

    def test_oldest_first_equals_fifo_under_in_order_submission(self):
        """The device submits in arrival order, so the waiting packets a
        port sees are already age-sorted and oldest_first == fifo (the
        module docstring's provable property, pinned here)."""
        fifo = XbarNoC(T, vaults=2, links=4, arbitration="fifo")
        oldest = XbarNoC(T, vaults=2, links=4, arbitration="oldest_first")
        arrivals = [0, 0, 3, 3, 10, 11, 11, 40]
        out_fifo = [
            fifo.to_vault(a, vault=0, link=i % 4, flits=5)
            for i, a in enumerate(arrivals)
        ]
        out_oldest = [
            oldest.to_vault(a, vault=0, link=i % 4, flits=5)
            for i, a in enumerate(arrivals)
        ]
        assert out_fifo == out_oldest


class TestHopRouting:
    def test_ring_distance_is_minimal_and_symmetric(self):
        noc = RingNoC(T, vaults=8, links=4)
        # Link 0 injects at stop 0: vault 1 is 1 hop, vault 7 is 1 hop
        # the other way, vault 4 is the 4-hop antipode.
        assert noc.hops(1, 0) == 1
        assert noc.hops(7, 0) == 1
        assert noc.hops(4, 0) == 4
        assert all(noc.hops(v, 0) <= noc.vaults // 2 for v in range(8))

    def test_ring_hop_latency_charged(self):
        noc = RingNoC(T, vaults=8, links=4)
        at_stop = noc.to_vault(0, vault=2, link=1, flits=1)  # stop 2: 0 hops
        noc2 = RingNoC(T, vaults=8, links=4)
        away = noc2.to_vault(0, vault=4, link=1, flits=1)  # 2 hops
        assert at_stop == T.crossbar_latency
        assert away == T.crossbar_latency + 2 * T.noc_hop_cycles
        assert noc2.stats.hop_cycles == 2 * T.noc_hop_cycles

    def test_mesh_manhattan_distance(self):
        noc = MeshNoC(T, vaults=16, links=4)  # 4x4 grid
        # Link 0 injects at vault 0 = (0,0); vault 15 = (3,3).
        assert noc.hops(0, 0) == 0
        assert noc.hops(15, 0) == 6
        assert noc.hops(5, 0) == 2  # (1,1)

    def test_mesh_never_exceeds_ring_worst_case(self):
        ring = RingNoC(T, vaults=16, links=4)
        mesh = MeshNoC(T, vaults=16, links=4)
        assert max(mesh.hops(v, 0) for v in range(16)) <= max(
            ring.hops(v, 0) for v in range(16)
        )


class TestStatsContract:
    def test_snapshot_merge_roundtrip(self):
        """NoCStats rides StatsMixin: PDES shard merges carry it."""
        a, b = NoCStats(), NoCStats()
        a.forwarded, a.contention_cycles = 3, 7
        b.forwarded, b.buffer_stall_cycles = 2, 5
        merged = NoCStats()
        merged.merge(a)
        merged.merge(b)
        assert merged.forwarded == 5
        assert merged.contention_cycles == 7
        assert merged.buffer_stall_cycles == 5
        merged.reset()
        assert merged.snapshot() == NoCStats().snapshot()

    def test_device_metrics_expose_noc_namespace(self):
        from repro.hmc.device import HMCDevice

        dev = HMCDevice(HMCConfig(noc_topology="xbar"))
        metrics = dev.metrics()
        assert "noc.forwarded" in metrics
        assert "noc.contention_cycles" in metrics


class TestBuildNoc:
    def test_topology_dispatch(self):
        for topology, cls in (
            ("ideal", IdealNoC),
            ("xbar", XbarNoC),
            ("ring", RingNoC),
            ("mesh", MeshNoC),
        ):
            assert isinstance(build_noc(HMCConfig(noc_topology=topology)), cls)

    def test_config_validates_knobs(self):
        with pytest.raises(ValueError):
            HMCConfig(noc_topology="torus")
        with pytest.raises(ValueError):
            HMCConfig(noc_arbitration="lottery")
        with pytest.raises(ValueError):
            HMCConfig(noc_buffers=0)
        with pytest.raises(ValueError):
            HMCConfig(page_policy="half-open")

    def test_constants_are_exhaustive(self):
        assert set(NOC_TOPOLOGIES) == {"ideal", "xbar", "ring", "mesh"}
        assert set(NOC_ARBITRATIONS) == {"fifo", "round_robin", "oldest_first"}
