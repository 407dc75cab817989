"""Two-stage pipelined Request Builder (paper section 4.2, Fig. 8).

Stage 1 (1 cycle) OR-reduces the 16-bit FLIT map of the entry popped from
the ARQ into 4 group bits, one per 64 B chunk of the 256 B row.  Stage 2
(2 cycles: table lookup + assembly) consults the FLIT table and emits the
coalesced transaction(s).  The pipeline therefore issues at a steady rate
of one packet every 2 cycles once primed (section 4.4).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from ..sim import register_wake_protocol
from .address import AddressCodec
from .arq import ARQEntry
from .config import MACConfig
from .flit import FlitMap
from .flit_table import FlitTable, FlitTablePolicy
from .packet import CoalescedRequest
from .request import MemoryRequest, RequestType, Target

_LOAD = RequestType.LOAD
_STORE = RequestType.STORE
_ATOMIC = RequestType.ATOMIC

#: One packet of a row: (byte offset in the row, size, first FLIT, end FLIT).
_Segment = Tuple[int, int, int, int]

#: (flits, groups, chunk bytes, policy) -> (FLIT table, FLIT bitmap ->
#: its packets' segments).  Filled lazily, once per bitmap the first time
#: it is emitted, and shared by every emitter of that geometry: a layout
#: is a pure function of its key, so sharing cannot change a result.
_GEOMETRY: Dict[tuple, Tuple[FlitTable, Dict[int, Tuple[_Segment, ...]]]] = {}


class PacketEmitter:
    """Int-level packet assembly for the builder, bypass path and window engine.

    The pipelined builder, the cycle engine's bypass path and the window
    engine all emit through this one implementation.  :meth:`build`
    turns a row's ARQ key, FLIT bitmap, targets and raw requests into
    the builder's packets: stage 1 OR-reduces the bitmap into group
    bits, stage 2 looks them up in the FLIT table, and each target rides
    the packet covering its FLIT.  :meth:`bypass` makes the single-FLIT
    packet of a B-bit entry or an atomic.  A packet that carries every
    target takes the given lists as they are, so callers hand over lists
    they no longer mutate.
    """

    __slots__ = ("config", "codec", "table", "_layouts")

    def __init__(
        self,
        config: MACConfig,
        codec: Optional[AddressCodec] = None,
        policy: FlitTablePolicy = FlitTablePolicy.SPAN,
    ) -> None:
        self.config = config
        self.codec = codec or AddressCodec(config)
        geometry = (
            config.flits_per_row, config.groups_per_row,
            config.min_request_bytes, policy,
        )
        cached = _GEOMETRY.get(geometry)
        if cached is None:
            table = FlitTable(
                groups=config.groups_per_row,
                chunk_bytes=config.min_request_bytes,
                policy=policy,
            )
            cached = _GEOMETRY[geometry] = (table, {})
        self.table, self._layouts = cached

    def _layout(self, flit_bits: int) -> Tuple[_Segment, ...]:
        cfg = self.config
        pattern = FlitMap(cfg.flits_per_row, flit_bits).group_bits(
            cfg.groups_per_row
        )
        chunk, per = cfg.min_request_bytes, cfg.flits_per_group
        segments = tuple(
            (seg.offset * chunk, seg.length * chunk,
             seg.offset * per, (seg.offset + seg.length) * per)
            for seg in self.table.lookup(pattern)
        )
        self._layouts[flit_bits] = segments
        return segments

    def build(
        self,
        key: int,
        flit_bits: int,
        targets: List[Target],
        requests: List[MemoryRequest],
        cycle: int = 0,
    ) -> List[CoalescedRequest]:
        """The builder's packets for one row (exactly what the pipeline emits).

        Every target's FLIT must be set in ``flit_bits``, as it is in an
        ARQ entry's FLIT map.
        """
        segments = self._layouts.get(flit_bits)
        if segments is None:
            segments = self._layout(flit_bits)
        codec = self.codec
        base = (key & codec.row_mask) << codec.row_shift
        rtype = _STORE if key & codec.t_bit else _LOAD
        if len(segments) == 1:
            # Every policy covers all set chunks (tests/core/test_flit_table),
            # so a lone packet carries every target.
            offset, size = segments[0][0], segments[0][1]
            return [
                CoalescedRequest(
                    base + offset, size, rtype, targets, requests, False, cycle
                )
            ]
        packets: List[CoalescedRequest] = []
        for offset, size, lo, hi in segments:
            idx = [i for i, t in enumerate(targets) if lo <= t.flit_id < hi]
            packets.append(
                CoalescedRequest(
                    base + offset, size, rtype,
                    [targets[i] for i in idx], [requests[i] for i in idx],
                    False, cycle,
                )
            )
        return packets

    def bypass(
        self,
        key: int,
        targets: List[Target],
        requests: List[MemoryRequest],
        cycle: int = 0,
    ) -> CoalescedRequest:
        """The single-FLIT (16 B) packet of a B-bit entry.

        ``key`` is the entry's ARQ key, or -1 for an atomic: atomics
        carry no key, so their row comes from the raw request's address.
        """
        codec = self.codec
        if key < 0:
            rtype = _ATOMIC
            base = codec.row_base(requests[0].addr)
        else:
            rtype = _STORE if key & codec.t_bit else _LOAD
            base = (key & codec.row_mask) << codec.row_shift
        flit_bytes = self.config.flit_bytes
        return CoalescedRequest(
            base + targets[0].flit_id * flit_bytes, flit_bytes, rtype,
            targets, requests, True, cycle,
        )


@dataclass(slots=True)
class _StageSlot:
    """Pipeline latch between/inside builder stages."""

    entry: ARQEntry
    remaining: int = 0


@register_wake_protocol
class RequestBuilder:
    """Cycle-level model of the two-stage pipelined request builder.

    The pipeline models the stage timing; the packets themselves come
    from the shared :class:`PacketEmitter`.
    """

    def __init__(
        self,
        config: MACConfig,
        codec: Optional[AddressCodec] = None,
        policy: FlitTablePolicy = FlitTablePolicy.SPAN,
    ) -> None:
        self.config = config
        self.codec = codec or AddressCodec(config)
        self.emitter = PacketEmitter(config, self.codec, policy)
        self._stage1: Optional[_StageSlot] = None
        self._stage2: Optional[_StageSlot] = None
        self.built_packets = 0
        self.built_rows = 0

    # -- occupancy -----------------------------------------------------------

    @property
    def stage1_busy(self) -> bool:
        return self._stage1 is not None

    @property
    def stage2_busy(self) -> bool:
        return self._stage2 is not None

    @property
    def busy(self) -> bool:
        return self.stage1_busy or self.stage2_busy

    def can_accept(self) -> bool:
        """Whether stage 1 can latch a new ARQ entry this cycle."""
        return self._stage1 is None

    def pending_requests(self) -> int:
        """Raw requests latched in the pipeline (conservation checks)."""
        return sum(
            len(slot.entry.requests)
            for slot in (self._stage1, self._stage2)
            if slot is not None
        )

    # -- pipeline ------------------------------------------------------------

    def accept(self, entry: ARQEntry) -> None:
        """Latch an ARQ entry into stage 1 (must be non-bypass, non-fence)."""
        if not self.can_accept():
            raise RuntimeError("builder stage 1 is busy")
        if entry.fence or entry.atomic:
            raise ValueError("fences/atomics bypass the request builder")
        self._stage1 = _StageSlot(entry)

    def tick(self, cycle: int) -> List[CoalescedRequest]:
        """Advance the pipeline one cycle; return any packets completed.

        Stage 2 is modelled as a 2-cycle occupancy (lookup, assemble);
        stage 1 results move into stage 2 when it frees up, so the
        steady-state issue rate is one row every ``pop_interval`` cycles.
        """
        out: List[CoalescedRequest] = []

        # Stage 2: count down assembly; emit on completion.
        if self._stage2 is not None:
            self._stage2.remaining -= 1
            if self._stage2.remaining <= 0:
                out.extend(self._emit(self._stage2, cycle))
                self._stage2 = None

        # Stage 1 -> stage 2 transfer (group OR takes the single cycle).
        if self._stage1 is not None and self._stage2 is None:
            slot = self._stage1
            slot.remaining = self.config.builder_stage2_cycles
            self._stage2 = slot
            self._stage1 = None

        return out

    def flush(self, cycle: int) -> List[CoalescedRequest]:
        """Drain both stages immediately (end-of-simulation helper)."""
        out: List[CoalescedRequest] = []
        if self._stage2 is not None:
            out.extend(self._emit(self._stage2, cycle))
            self._stage2 = None
        if self._stage1 is not None:
            out.extend(self._emit(self._stage1, cycle))
            self._stage1 = None
        return out

    # -- quiescence skipping --------------------------------------------------

    def next_event_cycle(self, now: int) -> Optional[int]:
        """A primed pipeline moves every cycle; an empty one never.

        Stage occupancy changes each tick while anything is latched
        (stage 2 counts down, stage 1 transfers), so a busy builder pins
        its owner to lockstep; empty, it schedules no wake of its own.
        """
        return now if self.busy else None

    def skip_to(self, target: int) -> None:
        """No per-cycle state outside the stage latches: idle skip is free."""

    # -- packet assembly -----------------------------------------------------

    def build(self, entry: ARQEntry, cycle: int = 0) -> List[CoalescedRequest]:
        """Functional (non-pipelined) build of an entry's packets.

        Used by tests; produces exactly what the pipeline would emit.
        """
        return self._emit(_StageSlot(entry), cycle)

    def _emit(self, slot: _StageSlot, cycle: int) -> List[CoalescedRequest]:
        entry = slot.entry
        packets = self.emitter.build(
            entry.key, entry.flit_map.bits, entry.targets, entry.requests, cycle
        )
        self.built_packets += len(packets)
        self.built_rows += 1
        return packets


def bypass_packet(
    entry: ARQEntry, codec: AddressCodec, config: MACConfig, cycle: int = 0
) -> CoalescedRequest:
    """Build the single-FLIT packet for a B-bit (bypass) entry.

    Bypass entries skip the builder and go straight to the device as
    minimum-granularity (16 B) transactions (section 4.1.2).  Atomics
    likewise travel as single uncoalesced packets.
    """
    if entry.fence:
        raise ValueError("fences produce no memory packet")
    return PacketEmitter(config, codec).bypass(
        -1 if entry.atomic else entry.key,
        list(entry.targets), list(entry.requests), cycle,
    )
