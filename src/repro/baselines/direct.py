"""Direct dispatch — the paper's "without MAC" comparator.

Every raw load/store ships to the device as an individual 16 B (one
FLIT) packet in arrival order; fences are local barriers with no memory
packet; atomics ship as 16 B atomic packets.  This is the traffic the
MAC's coalescing efficiency (Eq. 3) and speedup (Fig. 17) are measured
against.
"""

from __future__ import annotations

from typing import Iterable, List, Optional

from repro.core.address import AddressCodec
from repro.core.config import MACConfig
from repro.core.packet import CoalescedRequest
from repro.core.request import MemoryRequest, RequestType, Target
from repro.core.stats import MACStats


def dispatch_raw(
    requests: Iterable[MemoryRequest],
    config: Optional[MACConfig] = None,
    stats: Optional[MACStats] = None,
) -> List[CoalescedRequest]:
    """One FLIT-sized packet per raw request, no aggregation."""
    cfg = config or MACConfig()
    codec = AddressCodec(cfg)
    flit_id, row_offset_mask = codec.flit_id, codec.row_offset_mask
    flit_bytes = cfg.flit_bytes
    LOAD, STORE, FENCE = RequestType.LOAD, RequestType.STORE, RequestType.FENCE
    out: List[CoalescedRequest] = []
    append = out.append
    loads = stores = fences = atomics = 0
    for req in requests:
        rtype = req.rtype
        if rtype is LOAD:
            loads += 1
        elif rtype is STORE:
            stores += 1
        elif rtype is FENCE:
            fences += 1
            continue
        else:
            atomics += 1
        addr = req.addr
        flit = flit_id(addr)
        append(CoalescedRequest(
            (addr & ~row_offset_mask) + flit * flit_bytes, flit_bytes, rtype,
            [Target(req.tid, req.tag, flit)], [req], True,
        ))
    st = stats if stats is not None else MACStats()
    st.record_raw_counts(loads, stores, fences, atomics)
    st.record_packets(out)
    return out
