"""Physical address codec (paper Fig. 5 and section 4.1).

The MAC partitions a physical address into:

* ``flit offset``  — bits 0..3, the byte offset inside one 16 B FLIT
  (ignored by the coalescer);
* ``flit id``      — bits 4..7, which of the 16 FLITs of the 256 B row is
  requested;
* ``row number``   — bits 8.., the index of the HMC DRAM row (vault, bank
  and in-bank row bits combined).

Two extension bits augment the row number inside the ARQ
(section 4.1.2): the ``T`` (type) bit, placed just above the 52-bit
physical address so that loads and stores to the same row compare unequal
with a single comparator, and the ``B`` (bypass) bit, which marks entries
that cannot coalesce further.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .config import MACConfig
from .request import MemoryRequest, RequestType


@dataclass(frozen=True, slots=True)
class AddressCodec:
    """Bit-level encode/decode of physical addresses for one MAC config.

    The shifts and masks are derived once, at construction; the hot
    loops (window engine, raw dispatch, ARQ) read them as plain ints.
    """

    config: MACConfig
    #: Address bits below the row number (8 for 256 B rows).
    row_shift: int = field(init=False, repr=False, compare=False)
    #: Address bits below the FLIT id (4 for 16 B FLITs).
    flit_shift: int = field(init=False, repr=False, compare=False)
    #: Mask of the in-row byte offset (``row_bytes - 1``).
    row_offset_mask: int = field(init=False, repr=False, compare=False)
    #: Mask of the in-FLIT byte offset (``flit_bytes - 1``).
    flit_offset_mask: int = field(init=False, repr=False, compare=False)
    #: Width of the row number; the T bit sits just above it.
    row_bits: int = field(init=False, repr=False, compare=False)
    #: Mask of the row number inside an ARQ key.
    row_mask: int = field(init=False, repr=False, compare=False)
    #: The T bit in key position: ``key & t_bit`` marks a store.
    t_bit: int = field(init=False, repr=False, compare=False)
    #: Physical-address width; wider or negative addresses are rejected.
    addr_bits: int = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        cfg = self.config
        row_shift = cfg.row_offset_bits
        row_bits = cfg.phys_addr_bits - row_shift
        for name, value in (
            ("row_shift", row_shift),
            ("flit_shift", cfg.flit_offset_bits),
            ("row_offset_mask", cfg.row_bytes - 1),
            ("flit_offset_mask", cfg.flit_bytes - 1),
            ("row_bits", row_bits),
            ("row_mask", (1 << row_bits) - 1),
            ("t_bit", 1 << row_bits),
            ("addr_bits", cfg.phys_addr_bits),
        ):
            object.__setattr__(self, name, value)

    # -- basic field extraction ------------------------------------------

    def row_number(self, addr: int) -> int:
        """DRAM row index of ``addr`` (address >> row_offset_bits)."""
        self._check(addr)
        return addr >> self.row_shift

    def row_offset(self, addr: int) -> int:
        """Byte offset of ``addr`` inside its DRAM row."""
        self._check(addr)
        return addr & self.row_offset_mask

    def flit_id(self, addr: int) -> int:
        """FLIT index (0..15 for 256 B rows) of ``addr`` inside its row."""
        self._check(addr)
        return (addr & self.row_offset_mask) >> self.flit_shift

    def flit_offset(self, addr: int) -> int:
        """Byte offset of ``addr`` inside its FLIT (bits 0..3)."""
        self._check(addr)
        return addr & self.flit_offset_mask

    def row_base(self, addr: int) -> int:
        """Byte address of the first byte of the row containing ``addr``."""
        self._check(addr)
        return addr & ~self.row_offset_mask

    # -- composition ------------------------------------------------------

    def compose(self, row: int, flit: int = 0, offset: int = 0) -> int:
        """Build a physical address from (row number, flit id, byte offset)."""
        cfg = self.config
        if not 0 <= flit < cfg.flits_per_row:
            raise ValueError(f"flit id {flit} out of range")
        if not 0 <= offset < cfg.flit_bytes:
            raise ValueError(f"flit offset {offset} out of range")
        addr = (row << self.row_shift) | (flit << self.flit_shift) | offset
        self._check(addr)
        return addr

    # -- ARQ comparator key ------------------------------------------------

    def arq_key(self, request: MemoryRequest) -> int:
        """The single-comparator key used by the ARQ (section 4.1.2).

        The key is the row number with the T bit spliced in as its most
        significant bit, so one integer comparison distinguishes both the
        target row and the request type.
        """
        if not request.rtype.coalescable:
            raise ValueError("only loads/stores carry an ARQ key")
        return self.row_key(request.addr, request.rtype.t_bit)

    def row_key(self, addr: int, t: int) -> int:
        """ARQ key of a load (``t`` = 0) or store (``t`` = 1) to ``addr``.

        The one key derivation shared by the ARQ, the window engine and
        the efficiency predictor.
        """
        if addr < 0 or addr >> self.addr_bits:  # hot path: call only to raise
            self._check(addr)
        return (t << self.row_bits) | (addr >> self.row_shift)

    def key_row(self, key: int) -> int:
        """Recover the row number from an ARQ key."""
        return key & self.row_mask

    def key_type(self, key: int) -> RequestType:
        """Recover the request type (load/store) from an ARQ key."""
        return RequestType.STORE if key & self.t_bit else RequestType.LOAD

    # -- helpers -----------------------------------------------------------

    def _check(self, addr: int) -> None:
        if addr < 0:
            raise ValueError(f"negative address {addr:#x}")
        if addr >> self.addr_bits:
            raise ValueError(
                f"address {addr:#x} exceeds {self.addr_bits}-bit "
                "physical address space"
            )
