"""Simple in-order core model (paper section 3).

Cores replay a per-thread trace of memory operations.  A core issues its
next operation when its LSQ has room, then — matching the paper's
stall-until-complete semantics — blocks once the LSQ fills or a fence is
outstanding.  Latency tolerance comes from *spatial* parallelism: other
cores keep issuing while one is stalled.

The default LSQ depth (64) models the temporal-multithreading extension
the paper sketches at the end of section 3: each core interleaves enough
hardware contexts to keep tens of requests outstanding, which is what
sustains the >2 requests/cycle offered load of Fig. 9 against ~100 ns
memory latency.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, List, Optional

from repro.core.request import MemoryRequest
from repro.obs.protocol import StatsMixin
from repro.sim import register_wake_protocol

from .lsq import LoadStoreQueue
from .spm import ScratchpadMemory


@dataclass
class CoreStats(StatsMixin):
    MERGE_MAX = frozenset({"finished_cycle"})

    issued: int = 0
    spm_hits: int = 0
    mac_requests: int = 0
    stall_cycles: int = 0
    fence_stalls: int = 0
    finished_cycle: int = -1


@register_wake_protocol
class InOrderCore:
    """One cache-less core replaying a memory-operation stream."""

    def __init__(
        self,
        core_id: int,
        stream: Iterator[MemoryRequest],
        spm: Optional[ScratchpadMemory] = None,
        lsq_capacity: int = 64,
        ops_between_mem: int = 0,
    ) -> None:
        self.core_id = core_id
        self._stream = iter(stream)
        self.spm = spm or ScratchpadMemory()
        self.lsq = LoadStoreQueue(lsq_capacity)
        #: Non-memory instructions between memory ops (issue pacing).
        self.ops_between_mem = max(ops_between_mem, 0)
        self.stats = CoreStats()
        self._next: Optional[MemoryRequest] = next(self._stream, None)
        self._cooldown = 0
        self._fence_pending = False
        self._last_issued: Optional[MemoryRequest] = None
        #: Requests displaced by a retry, LIFO (at most one deep in use).
        self._pushback: List[MemoryRequest] = []
        #: Completions of SPM hits scheduled (cycle, request).
        self._spm_retire: List[tuple] = []

    @property
    def done(self) -> bool:
        return self._next is None and self.lsq.empty and not self._spm_retire

    def tick(self, cycle: int) -> Optional[MemoryRequest]:
        """Advance one cycle; returns a request the node must route.

        The returned request is *tentative*: the caller must either let
        it stand (accepted downstream) or call :meth:`retry` so the core
        re-issues it next cycle.  SPM hits are absorbed internally and
        never returned.
        """
        # Retire due SPM accesses.
        if self._spm_retire:
            remaining = []
            for when, req in self._spm_retire:
                if when <= cycle:
                    self.lsq.complete(req.tid, req.tag, cycle)
                else:
                    remaining.append((when, req))
            self._spm_retire = remaining

        if self._fence_pending:
            if self.lsq.empty:
                self._fence_pending = False
            else:
                self.stats.fence_stalls += 1
                return None

        if self._cooldown > 0:
            self._cooldown -= 1
            return None

        if self._next is None:
            if self.done and self.stats.finished_cycle < 0:
                self.stats.finished_cycle = cycle
            return None

        if self.lsq.full:
            self.stats.stall_cycles += 1
            return None

        req = self._next
        if self._pushback:
            self._next = self._pushback.pop()
        else:
            self._next = next(self._stream, None)
        self._cooldown = self.ops_between_mem
        req.issue_cycle = cycle
        self.stats.issued += 1

        if req.is_fence:
            self._fence_pending = True
            self._last_issued = req
            return req  # the MAC must also observe the fence

        spm_latency = self.spm.access(req.addr)
        if spm_latency is not None:
            self.stats.spm_hits += 1
            self.lsq.insert(req)
            self._spm_retire.append((cycle + spm_latency, req))
            self._last_issued = None
            return None

        self.stats.mac_requests += 1
        self.lsq.insert(req)
        self._last_issued = req
        return req

    def next_event_cycle(self, now: int) -> Optional[int]:
        """Earliest cycle >= ``now`` this core can act on its own.

        ``now`` means the core is not skippable (it can issue, clear a
        fence, or stamp its finish cycle this very tick); a future cycle
        points at a scheduled SPM retirement or the end of an issue
        cooldown; ``None`` means the core is blocked and only an external
        response delivery (handled by the node's in-flight heap) can wake
        it.  Mirrors the branch order of :meth:`tick` exactly.
        """
        wake: Optional[int] = None
        if self._spm_retire:
            wake = min(when for when, _ in self._spm_retire)
            if wake <= now:
                return now
        if self._fence_pending:
            # Blocked until the LSQ drains (delivery or SPM retirement).
            return now if self.lsq.empty else wake
        if self._cooldown > 0:
            cooled = now + self._cooldown
            return cooled if wake is None else min(wake, cooled)
        if self._next is None:
            if self.done and self.stats.finished_cycle < 0:
                return now  # must tick once more to stamp finished_cycle
            return wake
        if self.lsq.full:
            return wake  # stalled until a response frees an LSQ slot
        return now  # ready to issue

    def skip(self, start: int, end: int) -> None:
        """Apply the per-cycle accounting of ticks [start, end) in bulk.

        Only called for windows the skip engine proved uneventful via
        :meth:`next_event_cycle`, so the branch taken by every skipped
        tick is the same one; replicate its counter/cooldown effect.
        """
        delta = end - start
        if self._fence_pending:
            if not self.lsq.empty:
                self.stats.fence_stalls += delta
            return
        if self._cooldown > 0:
            # next_event_cycle bounds the window, so this never underflows.
            self._cooldown -= delta
            return
        if self._next is not None and self.lsq.full:
            self.stats.stall_cycles += delta

    def retry(self) -> None:
        """Undo the issue returned by the last tick (downstream was full)."""
        req = self._last_issued
        if req is None:
            raise RuntimeError("nothing to retry")
        self._last_issued = None
        if req.is_fence:
            self._fence_pending = False
        else:
            self.lsq._pending.pop((req.tid, req.tag), None)
            self.lsq.inserted -= 1
            self.stats.mac_requests -= 1
            self.spm.misses -= 1  # the re-issue looks the SPM up again
        self.stats.issued -= 1
        # Put the request back at the head of the stream.
        if self._next is not None:
            self._pushback.append(self._next)
        self._next = req
        self._cooldown = 0

    def complete(self, tid: int, tag: int, cycle: int) -> bool:
        """Response delivery from the response router; True if matched."""
        return self.lsq.complete(tid, tag, cycle) is not None
