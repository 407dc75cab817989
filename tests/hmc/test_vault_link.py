"""Unit tests for vault controller and link serialization."""

import pytest

from repro.hmc.config import HMCConfig
from repro.hmc.link import Link, LinkChannel
from repro.hmc.timing import HMCTiming
from repro.hmc.vault import Vault

T = HMCTiming()


class TestVault:
    def test_frontend_serializes(self):
        v = Vault(0, HMCConfig())
        d1 = v.access(0, bank_idx=0, dram_row=1, columns=1, is_write=False)
        d2 = v.access(0, bank_idx=1, dram_row=2, columns=1, is_write=False)
        # Different banks, same arrival: front-end spaces them.
        assert d2 - d1 == T.vault_processing

    def test_bank_index_validated(self):
        v = Vault(0, HMCConfig())
        with pytest.raises(ValueError):
            v.access(0, bank_idx=16, dram_row=0, columns=1, is_write=False)

    def test_stats(self):
        v = Vault(0, HMCConfig())
        v.access(0, 0, 0, 1, is_write=False)
        v.access(0, 1, 0, 1, is_write=True)
        assert v.stats.reads == 1 and v.stats.writes == 1
        assert v.stats.queue_wait_cycles > 0  # the write waited

    def test_aggregates(self):
        v = Vault(0, HMCConfig())
        for i in range(4):
            v.access(0, 0, i, 1, is_write=False)
        assert v.bank_accesses == 4
        assert v.bank_conflicts == 3
        assert v.activations == 4


class TestLinkChannel:
    def test_serialization_time(self):
        ch = LinkChannel(T)
        done = ch.transmit(0, nflits=4)
        assert done == 4 * T.cycles_per_flit + T.link_latency

    def test_back_to_back_packets_queue(self):
        ch = LinkChannel(T)
        ch.transmit(0, 10)
        done2 = ch.transmit(0, 1)
        assert done2 == 11 * T.cycles_per_flit + T.link_latency

    def test_zero_flits_rejected(self):
        with pytest.raises(ValueError):
            LinkChannel(T).transmit(0, 0)

    def test_counters(self):
        ch = LinkChannel(T)
        ch.transmit(0, 3)
        ch.transmit(0, 2)
        assert ch.flits == 5
        assert ch.packets == 2
        assert ch.busy_cycles == 5 * T.cycles_per_flit


class TestLink:
    def test_directions_independent(self):
        link = Link(0, T)
        link.request.transmit(0, 100)
        done = link.response.transmit(0, 1)
        assert done == T.cycles_per_flit + T.link_latency

    def test_wire_flits(self):
        link = Link(0, T)
        link.request.transmit(0, 2)
        link.response.transmit(0, 5)
        assert link.wire_flits == 7
