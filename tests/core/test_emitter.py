"""The shared packet emitter against the builder pipeline and its spec.

For every 16-bit FLIT map under every FLIT-table policy, the packets of
:meth:`PacketEmitter.build` must equal both the pipelined builder's
output (``accept``/``tick``/``flush``) and the stage-by-stage reference:
stage 1 OR-reduces the map with :meth:`FlitMap.group_bits`, stage 2
looks the group bits up in the :class:`FlitTable`, and each target rides
the segment covering its FLIT.
"""

import pytest

from repro.core.address import AddressCodec
from repro.core.arq import ARQEntry
from repro.core.builder import PacketEmitter, RequestBuilder, bypass_packet
from repro.core.config import MACConfig
from repro.core.flit import FlitMap
from repro.core.flit_table import FlitTable, FlitTablePolicy
from repro.core.request import MemoryRequest, RequestType, Target

CFG = MACConfig()
CODEC = AddressCodec(CFG)
ROW = 0x5A5


#: One target and one raw request per (T bit, FLIT), shared by all maps:
#: a request's identity tells which FLIT it asked for.
POOL = {
    (t, f): (
        Target(f, t, f),
        MemoryRequest(
            (ROW << CODEC.row_shift) | (f << CODEC.flit_shift),
            RequestType.STORE if t else RequestType.LOAD, f, t,
        ),
    )
    for t in (0, 1)
    for f in range(CFG.flits_per_row)
}


def entry_for(bits: int) -> ARQEntry:
    """One target per set FLIT; odd maps are stores, even maps loads."""
    t = bits & 1
    pairs = [POOL[t, f] for f in range(CFG.flits_per_row) if bits >> f & 1]
    return ARQEntry(
        key=(t << CODEC.row_bits) | ROW,
        flit_map=FlitMap(CFG.flits_per_row, bits),
        targets=[target for target, _ in pairs],
        requests=[req for _, req in pairs],
    )


def reference(entry: ARQEntry, pattern: int, table: FlitTable):
    """Stage 2 of the builder for stage 1's group bits ``pattern``."""
    per, chunk = CFG.flits_per_group, CFG.min_request_bytes
    rtype = CODEC.key_type(entry.key)
    out = []
    for seg in table.lookup(pattern):
        lo, hi = seg.offset * per, (seg.offset + seg.length) * per
        idx = [i for i, t in enumerate(entry.targets) if lo <= t.flit_id < hi]
        out.append((
            (CODEC.key_row(entry.key) << CODEC.row_shift) + seg.offset * chunk,
            seg.length * chunk, rtype,
            [id(entry.targets[i]) for i in idx],
            [id(entry.requests[i]) for i in idx],
            False,
        ))
    return out


def summary(packets):
    """Pooled targets and requests compare by identity (and so by FLIT)."""
    return [
        (p.addr, p.size, p.rtype, list(map(id, p.targets)),
         list(map(id, p.requests)), p.bypassed)
        for p in packets
    ]


def pipeline(builder: RequestBuilder, entries):
    """Stream entries back to back through the pipeline."""
    out, cycle = [], 0
    for entry in entries:
        while not builder.can_accept():
            out.extend(builder.tick(cycle))
            cycle += 1
        builder.accept(entry)
    out.extend(builder.flush(cycle))
    return out


@pytest.fixture(scope="module")
def every_map():
    """Every non-empty FLIT map's entry with its stage-1 group bits."""
    entries = [entry_for(bits) for bits in range(1, 1 << CFG.flits_per_row)]
    return [(e, e.flit_map.group_bits(CFG.groups_per_row)) for e in entries]


@pytest.mark.parametrize("policy", list(FlitTablePolicy))
def test_emitter_matches_pipeline_and_reference_for_every_flit_map(
    policy, every_map
):
    emitter = PacketEmitter(CFG, CODEC, policy)
    table = FlitTable(CFG.groups_per_row, CFG.min_request_bytes, policy)
    emitted, want = [], []
    for entry, pattern in every_map:
        emitted += emitter.build(
            entry.key, entry.flit_map.bits, entry.targets, entry.requests
        )
        want += reference(entry, pattern, table)
    got = summary(emitted)
    first_bad = next((i for i, (g, w) in enumerate(zip(got, want)) if g != w), None)
    assert len(got) == len(want) and first_bad is None, first_bad
    piped = pipeline(RequestBuilder(CFG, CODEC, policy), [e for e, _ in every_map])
    assert summary(piped) == got


def test_empty_map_emits_nothing():
    assert PacketEmitter(CFG).build(ROW, 0, [], []) == []


def test_map_outside_the_row_rejected():
    with pytest.raises(ValueError):
        PacketEmitter(CFG).build(ROW, 1 << CFG.flits_per_row, [], [])


class TestBypass:
    def test_matches_bypass_packet_for_loads_stores_and_atomics(self):
        emitter = PacketEmitter(CFG)
        for rtype in (RequestType.LOAD, RequestType.STORE, RequestType.ATOMIC):
            req = MemoryRequest(0xA63, rtype, tid=3, tag=9)
            target = Target(3, 9, CODEC.flit_id(req.addr))
            atomic = rtype is RequestType.ATOMIC
            entry = ARQEntry(
                key=-1 if atomic else CODEC.arq_key(req),
                flit_map=FlitMap(CFG.flits_per_row, 1 << target.flit_id),
                targets=[target], requests=[req], bypass=True, atomic=atomic,
            )
            want = bypass_packet(entry, CODEC, CFG, cycle=7)
            got = emitter.bypass(entry.key, [target], [req], cycle=7)
            assert got == want
            assert (got.addr, got.size, got.rtype) == (0xA60, 16, rtype)
