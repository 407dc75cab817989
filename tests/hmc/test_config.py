"""Unit tests for HMC geometry/protocol configuration."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.hmc.config import HMCConfig, PAPER_HMC


class TestGeometry:
    def test_paper_cube(self):
        # Section 2.2.1: an 8 GB HMC has 512 banks; Table 1: 4 links.
        assert PAPER_HMC.capacity_bytes == 8 << 30
        assert PAPER_HMC.total_banks == 512
        assert PAPER_HMC.links == 4
        assert PAPER_HMC.vaults == 32
        assert PAPER_HMC.banks_per_vault == 16
        assert PAPER_HMC.row_bytes == 256

    def test_validation(self):
        with pytest.raises(ValueError):
            HMCConfig(vaults=33)
        with pytest.raises(ValueError):
            HMCConfig(banks_per_vault=3)
        with pytest.raises(ValueError):
            HMCConfig(row_bytes=300)
        with pytest.raises(ValueError):
            HMCConfig(max_request_bytes=512)
        with pytest.raises(ValueError):
            HMCConfig(links=0)


class TestAddressMapping:
    def test_vault_and_bank_in_range(self):
        for addr in range(0, 1 << 20, 4093):
            assert 0 <= PAPER_HMC.vault_of(addr) < 32
            assert 0 <= PAPER_HMC.bank_of(addr) < 16

    def test_same_row_same_bank(self):
        """Every byte of one 256 B row maps to the same vault+bank."""
        base = 0xABCD00
        v, b = PAPER_HMC.vault_of(base), PAPER_HMC.bank_of(base)
        for off in range(0, 256, 16):
            assert PAPER_HMC.vault_of(base + off) == v
            assert PAPER_HMC.bank_of(base + off) == b

    def test_consecutive_rows_spread_vaults(self):
        """Row-interleaving: consecutive rows land on distinct vaults."""
        vaults = {PAPER_HMC.vault_of(r << 8) for r in range(32)}
        assert len(vaults) == 32

    def test_power_of_two_strides_do_not_alias(self):
        """The XOR fold spreads 8 KB-strided streams (tiled matrices)."""
        vaults = {PAPER_HMC.vault_of(i * 8192) for i in range(64)}
        assert len(vaults) > 8

    @settings(max_examples=200, deadline=None)
    @given(
        addr=st.integers(min_value=0, max_value=2**52),
        vaults=st.sampled_from((1, 2, 8, 16, 32, 64)),
        banks=st.sampled_from((1, 8, 16)),
        row=st.sampled_from((128, 256, 1024)),
    )
    def test_fold_matches_its_definition(self, addr, vaults, banks, row):
        """The shared fold equals the XOR-fold written out field by field."""
        cfg = HMCConfig(
            vaults=vaults, banks_per_vault=banks, row_bytes=row,
            max_request_bytes=min(row, 256),
        )
        row_bits = (row - 1).bit_length()
        vault_bits = (vaults - 1).bit_length()
        bank_bits = (banks - 1).bit_length()
        r = addr >> row_bits
        vault = (r ^ (r >> vault_bits) ^ (r >> (2 * vault_bits))) & (vaults - 1)
        upper = addr >> (row_bits + vault_bits)
        bank = (upper ^ (upper >> bank_bits)) & (banks - 1)
        dram_row = addr >> (row_bits + vault_bits + bank_bits)
        assert cfg.address_map().locate(addr) == (vault, bank, dram_row)
        assert (cfg.vault_of(addr), cfg.bank_of(addr), cfg.dram_row_of(addr)) == (
            vault, bank, dram_row,
        )

    def test_global_row(self):
        assert PAPER_HMC.global_row_of(0x1234_00) == 0x1234


class TestFlitArithmetic:
    def test_data_flits(self):
        assert PAPER_HMC.data_flits(16) == 1
        assert PAPER_HMC.data_flits(17) == 2
        assert PAPER_HMC.data_flits(256) == 16

    def test_read_flits(self):
        # Read: 1-FLIT request, (data + 1) response.
        assert PAPER_HMC.request_flits(64, is_write=False) == 1
        assert PAPER_HMC.response_flits(64, is_write=False) == 5

    def test_write_flits(self):
        # Write: (data + 1) request, 1-FLIT response.
        assert PAPER_HMC.request_flits(64, is_write=True) == 5
        assert PAPER_HMC.response_flits(64, is_write=True) == 1

    def test_control_overhead_is_32B_per_access(self):
        """Section 2.2.2: 32 B control per access, read or write."""
        for size in (16, 64, 256):
            for w in (True, False):
                total = PAPER_HMC.request_flits(size, w) + PAPER_HMC.response_flits(
                    size, w
                )
                assert total * 16 - size == 32

    def test_columns(self):
        assert PAPER_HMC.columns(16) == 1
        assert PAPER_HMC.columns(64) == 2
        assert PAPER_HMC.columns(256) == 8

    def test_data_flits_invalid(self):
        with pytest.raises(ValueError):
            PAPER_HMC.data_flits(0)
