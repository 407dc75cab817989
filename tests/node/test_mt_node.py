"""Closed-loop node with multithreaded cores (section 3's extension)."""


from repro.core.request import MemoryRequest, RequestType
from repro.node.node import Node


def stream(tid, n=100, rows=311):
    for i in range(n):
        yield MemoryRequest(
            addr=((tid * 37 + i // 8) % rows) << 8 | (i % 8) << 4,
            rtype=RequestType.LOAD,
            tid=tid,
            tag=i,
            core=tid,
        )


class TestMTNode:
    def test_all_requests_complete(self):
        node = Node.with_multithreaded_cores(
            [stream(t, n=60) for t in range(16)], cores=4
        )
        st = node.run()
        assert st.requests_issued == st.responses_delivered == 16 * 60

    def test_concurrency_enables_cross_thread_coalescing(self):
        """Strict stall-on-miss threads cannot self-coalesce (their own
        same-row accesses are a full memory latency apart); merges come
        only from *cross-thread* coincidence on shared rows, which needs
        high thread counts.  This is why the paper's architecture leans
        on SPM block transfers for same-row adjacency — see
        EXPERIMENTS.md."""

        def shared_stream(tid, n=24):
            for i in range(n):
                row = (i * 7) % 256
                yield MemoryRequest(
                    addr=(row << 8) | ((tid % 16) << 4),
                    rtype=RequestType.LOAD,
                    tid=tid,
                    tag=i,
                    core=tid,
                )

        def run(threads):
            node = Node.with_multithreaded_cores(
                [shared_stream(t) for t in range(threads)], cores=8
            )
            return node.run().coalescing_efficiency

        low = run(16)
        high = run(512)
        assert low < 0.02  # 16 desynchronized threads: nothing merges
        assert high > low + 0.05  # coincidence emerges with concurrency

    def test_concurrency_improves_makespan(self):
        def cycles(threads):
            node = Node.with_multithreaded_cores(
                [stream(t, n=24) for t in range(threads)], cores=8
            )
            return node.run().cycles / (threads * 24)

        # Cycles *per operation* drop sharply with more contexts.
        assert cycles(256) < cycles(16) / 4

    def test_retry_on_backpressure(self):
        # A tiny input queue forces retries; nothing may be lost.
        node = Node.with_multithreaded_cores(
            [stream(t, n=40) for t in range(64)], cores=2
        )
        node.mac.request_router.local_queue.capacity = 2
        st = node.run()
        assert st.responses_delivered == 64 * 40

    def test_refused_issues_do_not_count_as_spm_misses(self):
        node = Node.with_multithreaded_cores(
            [stream(t, n=40) for t in range(64)], cores=2
        )
        node.mac.request_router.local_queue.capacity = 2
        node.run()
        assert node.mac.request_router.local_queue.rejected > 0
        misses = sum(core.spm.misses for core in node.cores)
        assert misses == sum(core.stats.mac_requests for core in node.cores)
        assert misses == 64 * 40
