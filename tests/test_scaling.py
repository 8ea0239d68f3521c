"""Per-record linearity guards for the layers a trace passes through besides
`simulate` and `run`, modelled on `test_simulate_scales_linearly`: from a
short input to one 16 times as long, the best per-record time of a layer may
not grow 3 times."""

import time

import pytest

from sdvkit.analysis import phase_metrics
from sdvkit.isa import parse_instruction
from sdvkit.prv import emit_prv, to_prv
from sdvkit.timing import simulate
from sdvkit.tracefile import TraceRecord, read_trace, write_trace
from sdvkit.vstream import ItemKind, StreamItem, parse_vstream, write_vstream

# (instruction text, vl, scalar_before, address ranges), every category
_MIX = [("vsetvli x1, x2, e64, m1", 64, 2, ()),
        ("vle64.v v1, (x10)", 64, 0, ((0x1000, 512),)),
        ("vluxei64.v v2, (x10), v1", 16, 0, ((0x2008, 8), (0x1000, 16))),
        ("vfmacc.vv v3, v1, v2", 64, 1, ()),
        ("vrgather.vv v4, v3, v1", 8, 3, ()),
        ("vsse64.v v4, (x11), x2", 2, 0, ((0x3000, 8), (0x3100, 8))),
        ("vadd.vv v5, v6, v7", 64, 0, ()),
        ("vse64.v v5, (x11)", 64, 0, ((0x4000, 512),))]
_INSTRS = {text: parse_instruction(text) for text, *_ in _MIX}


def _trace(copies):
    trace = []
    for seq in range(copies * len(_MIX)):
        text, vl, scalar, ranges = _MIX[seq % len(_MIX)]
        trace.append(TraceRecord(seq=seq, pc=4 * seq, phase=seq // 256 % 4,
                                 scalar_before=scalar, instr=_INSTRS[text], vl=vl,
                                 sew_bits=64, addresses=ranges, window_id=seq // 32))
    return trace


def _parse_vstream(trace):
    items = []
    for rec in trace:
        if rec.seq % len(_MIX) == 0:  # a few directives between instructions
            items.append(StreamItem(ItemKind.SET_XREG, rec.pc, rec.phase, rec.window_id,
                                    reg=10, ivalue=0x1000 + rec.seq))
            items.append(StreamItem(ItemKind.INIT_MEM_F64, rec.pc, rec.phase,
                                    rec.window_id, address=0x1000,
                                    fvalues=(0.5, -1.25, float(rec.seq))))
        items.append(StreamItem(ItemKind.INSTRUCTION, rec.pc, rec.phase, rec.window_id,
                                scalar_before=rec.scalar_before, instr=rec.instr))
    text = write_vstream(items)
    return lambda: parse_vstream(text)


def _trace_file(trace):
    return lambda: read_trace(write_trace(trace))


def _prv(trace):
    timeline, _ = simulate(trace)
    return lambda: emit_prv(to_prv(trace, timeline))


def _phase_metrics(trace):
    timeline, _ = simulate(trace)
    return lambda: phase_metrics(trace, timeline)


def _per_record_seconds(work, records, repeats):
    best = float("inf")
    for _ in range(repeats):
        t0 = time.perf_counter()
        work()
        best = min(best, time.perf_counter() - t0)
    return best / records


@pytest.mark.parametrize("prepare", [_parse_vstream, _trace_file, _prv, _phase_metrics],
                         ids=["parse_vstream", "write_trace+read_trace",
                              "to_prv+emit_prv", "phase_metrics"])
def test_layer_scales_linearly(prepare):
    short, long = _trace(64), _trace(1024)
    assert (len(short), len(long)) == (512, 8192)
    # best of several runs each, so a slow stretch of the host does not count
    ratio = (_per_record_seconds(prepare(long), len(long), 2)
             / _per_record_seconds(prepare(short), len(short), 5))
    assert ratio < 3, f"per-record time grew {ratio:.1f}x from 512 to 8,192 records"
