"""Temporally multithreaded core — the extension sketched in section 3.

The paper's base core "generates memory references and stalls until the
memory operation completes"; the end of section 3 proposes exploiting
the scratchpad for *temporal multithreading with quick context
switching* when spatial parallelism alone cannot saturate the memory
system.  This core implements that: K hardware contexts, each a strict
stall-on-miss thread with one outstanding memory operation, sharing one
issue port round-robin.  With enough contexts the core sustains close
to one request per cycle against hundreds of cycles of memory latency —
the concurrency behind Fig. 9's offered load.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, List, Optional, Sequence

from repro.core.request import MemoryRequest
from repro.obs.protocol import StatsMixin
from repro.sim import register_wake_protocol

from .spm import ScratchpadMemory


@dataclass
class _Context:
    """One hardware thread: stream + single outstanding operation."""

    stream: Iterator[MemoryRequest]
    next_req: Optional[MemoryRequest] = None
    #: (tid, tag) of the in-flight operation, None when ready to issue.
    waiting_on: Optional[tuple] = None
    #: Cycle an SPM hit (or context switch penalty) resolves.
    ready_cycle: int = 0
    issued: int = 0
    done: bool = False


@dataclass
class MTCoreStats(StatsMixin):
    issued: int = 0
    spm_hits: int = 0
    mac_requests: int = 0
    idle_cycles: int = 0  # no context ready to issue
    switches: int = 0


@register_wake_protocol
class MultithreadedCore:
    """K-context barrel-style core with stall-on-miss threads."""

    def __init__(
        self,
        core_id: int,
        streams: Sequence[Iterator[MemoryRequest]],
        spm: Optional[ScratchpadMemory] = None,
        switch_penalty: int = 1,
    ) -> None:
        if not streams:
            raise ValueError("need at least one context")
        self.core_id = core_id
        self.spm = spm or ScratchpadMemory()
        self.switch_penalty = max(switch_penalty, 0)
        self.contexts: List[_Context] = []
        for s in streams:
            it = iter(s)
            ctx = _Context(stream=it)
            ctx.next_req = next(it, None)
            ctx.done = ctx.next_req is None
            self.contexts.append(ctx)
        self.stats = MTCoreStats()
        self._rr = 0
        self._last: Optional[_Context] = None
        self._last_issued: Optional[tuple] = None  # (context, request)

    @property
    def done(self) -> bool:
        return all(c.done and c.waiting_on is None for c in self.contexts)

    def tick(self, cycle: int) -> Optional[MemoryRequest]:
        """Issue from the next ready context; returns a MAC-bound request."""
        n = len(self.contexts)
        for i in range(n):
            ctx = self.contexts[(self._rr + i) % n]
            if ctx.done or ctx.waiting_on is not None or ctx.ready_cycle > cycle:
                continue
            # Found a ready context; rotating the start pointer models
            # the single shared issue port.
            if self._last is not None and self._last is not ctx:
                self.stats.switches += 1
            self._last = ctx
            self._rr = (self._rr + i + 1) % n

            req = ctx.next_req
            assert req is not None
            ctx.next_req = next(ctx.stream, None)
            if ctx.next_req is None:
                ctx.done = True
            req.issue_cycle = cycle
            ctx.issued += 1
            self.stats.issued += 1

            spm_latency = self.spm.access(req.addr)
            if spm_latency is not None:
                self.stats.spm_hits += 1
                ctx.ready_cycle = cycle + spm_latency
                return None
            self.stats.mac_requests += 1
            ctx.waiting_on = (req.tid, req.tag)
            ctx.ready_cycle = cycle + self.switch_penalty
            self._last_issued = (ctx, req)
            return req
        self.stats.idle_cycles += 1
        return None

    def next_event_cycle(self, now: int) -> Optional[int]:
        """Earliest cycle >= ``now`` any context can issue on its own.

        Contexts blocked on an in-flight memory operation wake only via
        :meth:`complete` (an external event); contexts resolving an SPM
        hit or a switch penalty wake at their ``ready_cycle``.
        """
        wake: Optional[int] = None
        for ctx in self.contexts:
            if ctx.done or ctx.waiting_on is not None:
                continue
            if ctx.ready_cycle <= now:
                return now
            if wake is None or ctx.ready_cycle < wake:
                wake = ctx.ready_cycle
        return wake

    def skip(self, start: int, end: int) -> None:
        """Bulk-account ticks [start, end) in which no context could issue.

        Every such tick walks the context list, finds nothing ready and
        counts one idle cycle; the round-robin pointer and last-issuer
        latch are untouched.
        """
        self.stats.idle_cycles += end - start

    def retry(self) -> None:
        """Undo the last tick's issue (downstream queue was full)."""
        if self._last_issued is None:
            raise RuntimeError("nothing to retry")
        ctx, req = self._last_issued
        self._last_issued = None
        ctx.waiting_on = None
        if ctx.next_req is not None:
            # Chain the displaced request back in front.
            displaced = ctx.next_req
            stream = ctx.stream

            def _chain(first=displaced, rest=stream):
                yield first
                yield from rest

            ctx.stream = _chain()
        ctx.next_req = req
        ctx.done = False
        ctx.issued -= 1
        self.stats.issued -= 1
        self.stats.mac_requests -= 1
        self.spm.misses -= 1  # the re-issue looks the SPM up again
        ctx.ready_cycle = 0

    def complete(self, tid: int, tag: int, cycle: int) -> bool:
        """Wake the context blocked on (tid, tag); True if matched."""
        for ctx in self.contexts:
            if ctx.waiting_on == (tid, tag):
                ctx.waiting_on = None
                ctx.ready_cycle = max(ctx.ready_cycle, cycle + self.switch_penalty)
                return True
        return False

    @property
    def outstanding(self) -> int:
        return sum(1 for c in self.contexts if c.waiting_on is not None)
