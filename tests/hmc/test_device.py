"""Device-level tests: Table 1 calibration, Fig. 2 scenario, routing."""

import pickle

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.packet import CoalescedRequest
from repro.core.request import RequestType
from repro.hmc.config import HMCConfig
from repro.hmc.device import HMCDevice
from repro.hmc.packet import encode


def read(addr, size=16):
    return CoalescedRequest(addr=addr, size=size, rtype=RequestType.LOAD)


def write(addr, size=16):
    return CoalescedRequest(addr=addr, size=size, rtype=RequestType.STORE)


class TestCalibration:
    def test_table1_93ns_unloaded_read(self):
        """Table 1: average HMC access latency 93 ns at 3.3 GHz."""
        dev = HMCDevice()
        lat_cycles = dev.unloaded_read_latency(16)
        lat_ns = lat_cycles / 3.3
        assert abs(lat_ns - 93) < 5  # within ~5 ns of the paper's figure

    def test_measured_matches_analytic(self):
        dev = HMCDevice()
        resp = dev.submit(read(0x1000), 0)
        assert resp.complete_cycle == dev.unloaded_read_latency(16)

    def test_larger_reads_cost_more(self):
        d16, d256 = HMCDevice(), HMCDevice()
        r16 = d16.submit(read(0x1000, 16), 0)
        r256 = d256.submit(read(0x1000, 256), 0)
        assert r256.complete_cycle > r16.complete_cycle


class TestFig2Scenario:
    """The motivating example: 16 x 16 B same-row loads vs one 256 B."""

    def test_raw_dispatch_15_conflicts(self):
        dev = HMCDevice()
        for i in range(16):
            dev.submit(read(0x2000 + 16 * i), 0)
        assert dev.bank_conflicts == 15
        assert dev.activations == 16

    def test_coalesced_no_conflicts(self):
        dev = HMCDevice()
        dev.submit(read(0x2000, 256), 0)
        assert dev.bank_conflicts == 0
        assert dev.activations == 1

    def test_coalesced_makespan_wins_by_factors(self):
        raw, mac = HMCDevice(), HMCDevice()
        for i in range(16):
            raw.submit(read(0x2000 + 16 * i), 0)
        mac.submit(read(0x2000, 256), 0)
        assert raw.stats.makespan > 4 * mac.stats.makespan

    def test_wire_bytes_match_section_222(self):
        """16 raw accesses: 768 B total; one 256 B access: 288 B."""
        raw, mac = HMCDevice(), HMCDevice()
        for i in range(16):
            raw.submit(read(0x2000 + 16 * i), 0)
        mac.submit(read(0x2000, 256), 0)
        assert raw.stats.wire_bytes == 768
        assert mac.stats.wire_bytes == 288


class TestProtocolValidation:
    def test_oversize_rejected(self):
        with pytest.raises(ValueError):
            HMCDevice().submit(read(0x0, 512), 0)

    def test_row_crossing_rejected(self):
        with pytest.raises(ValueError):
            HMCDevice().submit(read(0x80, 256), 0)

    def test_misaligned_rejected(self):
        with pytest.raises(ValueError):
            HMCDevice().submit(read(0x8, 16), 0)

    def test_out_of_order_arrival_rejected(self):
        dev = HMCDevice()
        dev.submit(read(0x100), 100)
        with pytest.raises(ValueError):
            dev.submit(read(0x200), 50)


class TestShapeCache:
    """``submit`` caches each packet shape after its first valid packet;
    later packets of that shape must still be checked like ``encode``."""

    @pytest.mark.parametrize(
        "addr,size",
        [(0x108, 16), (0xF0, 32), (0xF8, 32)],
        ids=["misaligned", "row-crossing", "misaligned-and-crossing"],
    )
    def test_cached_shape_rejects_like_encode(self, addr, size):
        dev = HMCDevice()
        dev.submit(read(0x100, size), 0)
        with pytest.raises(ValueError) as cached:
            dev.submit(read(addr, size), 1)
        with pytest.raises(ValueError) as encoded:
            encode(read(addr, size), dev.config)
        assert str(cached.value) == str(encoded.value)
        assert dev.stats.requests == 1

    def test_oversize_rejected_on_every_call(self):
        dev = HMCDevice()
        for cycle in range(3):
            with pytest.raises(ValueError, match="exceeds protocol max"):
                dev.submit(read(0x0, 512), cycle)
        assert dev.stats.requests == 0

    @settings(max_examples=60, deadline=None)
    @given(
        vaults=st.sampled_from((8, 16, 32)),
        banks=st.sampled_from((8, 16)),
        row=st.sampled_from((128, 256)),
        packets=st.lists(
            st.tuples(
                st.integers(min_value=0, max_value=2**40),
                st.sampled_from((16, 32, 64, 128)),
                st.booleans(),
            ),
            min_size=1,
            max_size=24,
        ),
    )
    def test_packets_reach_the_vault_and_bank_encode_names(
        self, vaults, banks, row, packets
    ):
        cfg = HMCConfig(
            vaults=vaults, banks_per_vault=banks, row_bytes=row,
            max_request_bytes=row,
        )
        dev = HMCDevice(cfg)
        for cycle, (addr, size, store) in enumerate(packets):
            req = (write if store else read)(addr - addr % size, size)
            wire = encode(req, cfg)
            vault = dev.vaults[wire.vault]
            bank = vault.banks[wire.bank]
            requests, accesses = vault.stats.requests, bank.accesses
            dev.submit(req, cycle)
            assert vault.stats.requests == requests + 1
            assert bank.accesses == accesses + 1
            assert bank.last_row == wire.dram_row

    def test_device_survives_pickling(self):
        """Sharded runs pickle whole nodes, devices included."""
        dev = HMCDevice()
        dev.submit(read(0x100), 0)
        copy = pickle.loads(pickle.dumps(dev))
        assert copy.submit(read(0x4200), 5) == dev.submit(read(0x4200), 5)


class TestRouting:
    def test_links_share_load(self):
        dev = HMCDevice()
        for i in range(64):
            dev.submit(read((i * 37 % 512) << 8), i)
        used = [link for link in dev.links if link.request.packets > 0]
        assert len(used) == len(dev.links)

    def test_reads_and_writes_counted(self):
        dev = HMCDevice()
        dev.submit(read(0x100), 0)
        dev.submit(write(0x200), 1)
        assert dev.stats.reads == 1
        assert dev.stats.writes == 1

    def test_atomic_counted(self):
        dev = HMCDevice()
        dev.submit(
            CoalescedRequest(addr=0x100, size=16, rtype=RequestType.ATOMIC), 0
        )
        assert dev.stats.atomics == 1

    def test_write_moves_payload_on_request_side(self):
        """A 256 B write's response is one FLIT; the read's is 17 — the
        payload swaps sides but the total wire traffic is identical."""
        r, w = HMCDevice(), HMCDevice()
        r.submit(read(0x1000, 256), 0)
        w.submit(write(0x1000, 256), 0)
        assert sum(link.response.flits for link in r.links) == 17
        assert sum(link.response.flits for link in w.links) == 1
        assert sum(link.request.flits for link in w.links) == 17
        assert r.stats.wire_bytes == w.stats.wire_bytes == 288


class TestStreamSubmission:
    def test_submit_stream_orders_by_issue_cycle(self):
        dev = HMCDevice()
        pkts = [read(0x100), read(0x200)]
        pkts[0].issue_cycle = 50
        pkts[1].issue_cycle = 10
        resps = dev.submit_stream(pkts)
        assert len(resps) == 2

    def test_mean_latency_and_makespan(self):
        dev = HMCDevice()
        dev.submit(read(0x100), 10)
        dev.submit(read(0x10000), 20)
        st = dev.stats
        assert st.requests == 2
        assert st.mean_latency > 0
        assert st.makespan == st.last_completion - 10
