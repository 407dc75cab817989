"""Unit tests for the in-order core model."""

import pytest

from repro.core.request import MemoryRequest, RequestType
from repro.node.core import InOrderCore
from repro.node.spm import ScratchpadMemory


def reqs(n, row=1, tid=0):
    return [
        MemoryRequest(
            addr=(row << 8) | ((i % 16) << 4), rtype=RequestType.LOAD, tid=tid, tag=i
        )
        for i in range(n)
    ]


class TestIssue:
    def test_issues_one_per_cycle(self):
        core = InOrderCore(0, iter(reqs(3)))
        out = [core.tick(c) for c in range(3)]
        assert all(o is not None for o in out)
        assert core.stats.issued == 3

    def test_pacing_with_ops_between_mem(self):
        core = InOrderCore(0, iter(reqs(2)), ops_between_mem=2)
        issued = [c for c in range(7) if core.tick(c) is not None]
        assert issued == [0, 3]

    def test_stalls_when_lsq_full(self):
        core = InOrderCore(0, iter(reqs(5)), lsq_capacity=2)
        assert core.tick(0) is not None
        assert core.tick(1) is not None
        assert core.tick(2) is None  # LSQ full
        assert core.stats.stall_cycles == 1
        core.complete(0, 0, cycle=2)
        assert core.tick(3) is not None

    def test_done_when_drained(self):
        core = InOrderCore(0, iter(reqs(1)))
        core.tick(0)
        assert not core.done
        core.complete(0, 0, 1)
        assert core.done


class TestSPMFiltering:
    def test_spm_hits_never_reach_mac(self):
        spm = ScratchpadMemory()
        spm.map(0x100, 0x100)
        core = InOrderCore(0, iter(reqs(4)), spm=spm)
        out = [core.tick(c) for c in range(4)]
        assert all(o is None for o in out)
        assert core.stats.spm_hits == 4
        assert core.stats.mac_requests == 0

    def test_spm_hits_retire_after_latency(self):
        spm = ScratchpadMemory(latency_cycles=3)
        spm.map(0x100, 0x100)
        core = InOrderCore(0, iter(reqs(1)), spm=spm)
        core.tick(0)
        assert not core.done
        core.tick(1)
        core.tick(2)
        core.tick(3)
        assert core.done


class TestFences:
    def test_fence_stalls_until_lsq_empty(self):
        stream = [
            MemoryRequest(addr=0x100, rtype=RequestType.LOAD, tag=0),
            MemoryRequest(addr=0, rtype=RequestType.FENCE, tag=1),
            MemoryRequest(addr=0x200, rtype=RequestType.LOAD, tag=2),
        ]
        core = InOrderCore(0, iter(stream))
        assert core.tick(0).tag == 0
        assert core.tick(1).is_fence
        assert core.tick(2) is None  # fence pending: load 0 outstanding
        assert core.stats.fence_stalls == 1
        core.complete(0, 0, 3)
        assert core.tick(4).tag == 2


class TestRetry:
    def test_retry_reissues_same_request(self):
        core = InOrderCore(0, iter(reqs(2)))
        first = core.tick(0)
        core.retry()
        second = core.tick(1)
        assert second is first
        assert core.stats.issued == 1  # net
        third = core.tick(2)
        assert third.tag == 1

    def test_retry_without_issue_raises(self):
        core = InOrderCore(0, iter(reqs(1)))
        with pytest.raises(RuntimeError):
            core.retry()

    def test_retry_fence_resets_pending(self):
        stream = [MemoryRequest(addr=0, rtype=RequestType.FENCE)]
        core = InOrderCore(0, iter(stream))
        core.tick(0)
        core.retry()
        fence = core.tick(1)
        assert fence.is_fence

    def test_refused_issues_do_not_count_as_spm_misses(self):
        # A tiny MAC input queue refuses most issue attempts; each refusal
        # is undone by retry() and must not leave an SPM miss behind.
        from repro.node.node import Node

        node = Node([iter(reqs(40, row=t + 1, tid=t)) for t in range(8)])
        node.mac.request_router.local_queue.capacity = 2
        node.run()
        assert node.mac.request_router.local_queue.rejected > 0
        misses = sum(core.spm.misses for core in node.cores)
        assert misses == sum(core.stats.mac_requests for core in node.cores)
        assert misses == 8 * 40
        assert all(core.spm.hits == 0 for core in node.cores)
