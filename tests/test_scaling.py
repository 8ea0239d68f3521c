"""Per-record linearity guards for the layers a trace passes through besides
`simulate` and `run`, modelled on `test_simulate_scales_linearly`: from a
short input to one 16 times as long, the best per-record time of a layer may
not grow 3 times.  `Memory.write_u64` and `Memory.read_u64` are guarded per
word, on address arrays that are all 8-aligned, on arrays that are not, and
on aligned arrays that rise.  The emulator's `run` is guarded here over
streams in which no two instructions are equal, so every record binds a new
handler.  The scheduler has five: `schedule_stream` per
record as the stream grows, once with every window alike and once with no
two alike, `build_dependences` per address range as the ranges of each
record grow and per record as a window of loads that all read the same bytes
grows, and `reschedule_order` per record as a window whose stores are all
ready at once grows.  `parse_vstream` and `write_vstream` are also guarded
per value of one `.memf64` or `.memu64` line, since a generated memory image
is one directive however long."""

import time

import numpy as np
import pytest

from sdvkit import scheduler
from sdvkit.analysis import phase_metrics
from sdvkit.emulator import Memory, run
from sdvkit.isa import parse_instruction
from sdvkit.prv import emit_prv, to_prv
from sdvkit.scheduler import MEM_ORDER, build_dependences, schedule_stream
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


def _stream_items(trace):
    items = []
    for rec in trace:
        if rec.seq % len(_MIX) == 0:  # a few directives between instructions
            items.append(StreamItem(ItemKind.SET_XREG, rec.pc, rec.phase, rec.window_id,
                                    target=10, values=(0x1000 + rec.seq,)))
            items.append(StreamItem(ItemKind.INIT_MEM_F64, rec.pc, rec.phase,
                                    rec.window_id, target=0x1000,
                                    values=(0.5, -1.25, float(rec.seq))))
            items.append(StreamItem(ItemKind.INIT_MEM_U64, rec.pc, rec.phase,
                                    rec.window_id, target=0x2000 + 8 * rec.seq,
                                    values=(0, rec.seq, 2 ** 64 - 1 - rec.seq, 0x10)))
        items.append(StreamItem(ItemKind.INSTRUCTION, rec.pc, rec.phase, rec.window_id,
                                scalar_before=rec.scalar_before, instr=rec.instr))
    return items


def _parse_vstream(trace):
    text = write_vstream(_stream_items(trace))
    return lambda: parse_vstream(text)


def _write_vstream(trace):
    items = _stream_items(trace)
    return lambda: write_vstream(items)


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


@pytest.mark.parametrize("prepare", [_parse_vstream, _write_vstream, _trace_file, _prv,
                                     _phase_metrics],
                         ids=["parse_vstream", "write_vstream", "write_trace+read_trace",
                              "to_prv+emit_prv", "phase_metrics"])
def test_layer_scales_linearly(prepare):
    short, long = _trace(64), _trace(1024)
    assert (len(short), len(long)) == (512, 8192)
    # best of several runs each, so a slow stretch of the host does not count
    ratio = (_per_record_seconds(prepare(long), len(long), 5)
             / _per_record_seconds(prepare(short), len(short), 5))
    assert ratio < 3, f"per-record time grew {ratio:.1f}x from 512 to 8,192 records"


def _image(kind, count):
    """One memory-image item of `count` values that print at full width."""
    values = ([k / 7 - 1e6 for k in range(count)] if kind is ItemKind.INIT_MEM_F64
              else [(k * 0x9E3779B97F4A7C15) % 2 ** 64 for k in range(count)])
    return [StreamItem(kind, 0, target=0x10000, values=tuple(values))]


@pytest.mark.parametrize("layer", ["parse_vstream", "write_vstream"])
@pytest.mark.parametrize("kind", [ItemKind.INIT_MEM_F64, ItemKind.INIT_MEM_U64],
                         ids=[".memf64", ".memu64"])
def test_vstream_scales_linearly_in_the_values_of_one_directive(kind, layer):
    few, many = _image(kind, 512), _image(kind, 8192)
    if layer == "parse_vstream":
        few, many = write_vstream(few), write_vstream(many)
        assert parse_vstream(many) == _image(kind, 8192)
    work = parse_vstream if layer == "parse_vstream" else write_vstream
    ratio = (_per_record_seconds(lambda: work(many), 8192, 5)
             / _per_record_seconds(lambda: work(few), 512, 40))
    assert ratio < 3, f"per-value time grew {ratio:.1f}x from 512 to 8,192 values"


def _scattered_words(count, offset, rising):
    """`count` word addresses 24 bytes apart, plus `offset` bytes, in rising
    order or in one that visits the pages out of turn, and a value for each."""
    steps = np.arange(count) if rising else np.random.default_rng(1).permutation(count)
    addrs = 0x10000 + 24 * steps.astype(np.uint64)
    return addrs + np.uint64(offset), np.arange(count, dtype=np.uint64)


_WORD_ORDERS = pytest.mark.parametrize("offset, rising", [(0, False), (3, False), (0, True)],
                                       ids=["aligned", "unaligned", "rising"])


@_WORD_ORDERS
def test_write_u64_scales_linearly_in_words(offset, rising):
    memory = Memory(1 << 20)
    few, many = _scattered_words(512, offset, rising), _scattered_words(8192, offset, rising)
    ratio = (_per_record_seconds(lambda: memory.write_u64(*many), 8192, 10)
             / _per_record_seconds(lambda: memory.write_u64(*few), 512, 10))
    assert ratio < 3, f"per-word time grew {ratio:.1f}x from 512 to 8,192 words"


@_WORD_ORDERS
def test_read_u64_scales_linearly_in_words(offset, rising):
    memory = Memory(1 << 20)
    (few, _), (many, values) = (_scattered_words(512, offset, rising),
                                _scattered_words(8192, offset, rising))
    memory.write_u64(many, values)
    assert memory.read_u64(many).tolist() == values.tolist()
    ratio = (_per_record_seconds(lambda: memory.read_u64(many), 8192, 10)
             / _per_record_seconds(lambda: memory.read_u64(few), 512, 10))
    assert ratio < 3, f"per-word time grew {ratio:.1f}x from 512 to 8,192 words"


# instruction forms whose operands k's base-32 digits a, b, c fill in; every
# x register holds an in-bounds address, which also serves as a scalar operand
_FORMS = ("vadd.vv v{a}, v{b}, v{c}", "vfadd.vv v{a}, v{b}, v{c}", "vfmul.vv v{a}, v{b}, v{c}",
          "vfmacc.vv v{a}, v{b}, v{c}", "vrgather.vv v{a}, v{b}, v{c}",
          "vmul.vx v{a}, v{b}, x{c}", "vsll.vi v{a}, v{b}, {c}", "vfsub.vv v{a}, v{b}, v{c}",
          "vle64.v v{a}, (x{b})", "vse64.v v{a}, (x{b})")


def _distinct_stream(count):
    """A stream of `count` instructions at vl 4, no two of them equal."""
    lines = [*(f".xreg x{r} 0x{0x10000 + 0x100 * r:x}" for r in range(1, 32)),
             ".xreg x1 4", "vsetvli x0, x1, e64, m1"]
    texts, k = {}, 0
    while len(texts) < count - 1:
        text = _FORMS[k % len(_FORMS)].format(a=k % 32, b=k // 32 % 32, c=k // 1024 % 32)
        texts.setdefault(parse_instruction(text), text)
        k += 1
    return parse_vstream("\n".join([*lines, *texts.values()]) + "\n")


def test_run_scales_linearly_over_distinct_instructions():
    short, long = _distinct_stream(512), _distinct_stream(8192)
    for items in (short, long):
        state, records = run(None, items)
        assert len(state.bindings) == len({record.instr for record in records}) == len(records)
    assert len(records) == 8192
    ratio = (_per_record_seconds(lambda: run(None, long), 8192, 5)
             / _per_record_seconds(lambda: run(None, short), 512, 5))
    assert ratio < 3, f"per-record time grew {ratio:.1f}x from 512 to 8,192 instructions"


# one scheduling window that `schedule_stream` reorders
_WINDOW = ("vle64.v v1, (x10)", "vfadd.vv v2, v1, v1", "vfmul.vv v4, v2, v2",
           "vle64.v v3, (x11)", "vluxei64.v v5, (x12), v8", "vfmacc.vv v6, v3, v5",
           "vse64.v v4, (x13)", "vsuxei64.v v6, (x11), v8")


def _window_stream(windows, distinct=False):
    """`windows` copies of `_WINDOW`; with `distinct`, window k's first op
    gets a `.scalar k`, so no two windows share a scheduling key."""
    lines = [".xreg x1 16", "vsetvli x2, x1, e64, m1", "vid.v v8", "vsll.vi v8, v8, 3",
             ".memf64 0x10000 " + " ".join(str(float(k)) for k in range(16))]
    lines += [f".xreg x{10 + k} 0x{0x10000 * (k + 1):x}" for k in range(4)]
    for window in range(1, windows + 1):
        lines += [f".window {window}", *[f".scalar {window}"] * distinct, *_WINDOW]
    return parse_vstream("\n".join(lines) + "\n")


def test_schedule_stream_scales_linearly():
    short, long = _window_stream(16), _window_stream(256)
    records = [sum(item.kind == ItemKind.INSTRUCTION for item in items)
               for items in (short, long)]
    assert records == [3 + 16 * 8, 3 + 256 * 8]
    scheduled, before, after = schedule_stream(long)
    assert after < before  # the windows move, so both emulations and the check run
    ratio = (_per_record_seconds(lambda: schedule_stream(long), records[1], 2)
             / _per_record_seconds(lambda: schedule_stream(short), records[0], 5))
    assert ratio < 3, f"per-record time grew {ratio:.1f}x from 131 to 2,051 records"


def test_schedule_stream_scales_linearly_over_distinct_windows(monkeypatch):
    short, long = _window_stream(16, distinct=True), _window_stream(256, distinct=True)
    records = [sum(item.kind == ItemKind.INSTRUCTION for item in items)
               for items in (short, long)]
    calls, original = [], scheduler.reschedule_order
    monkeypatch.setattr(scheduler, "reschedule_order", lambda window, params=None, **kw:
                        calls.append(window) or original(window, params, **kw))
    scheduled, before, after = schedule_stream(long)
    # each window is ordered after the stream before it, which ends in one of
    # the same instructions; scoring an order after a copy of itself reached
    # 51,181 here, and pipeline alternation 51,242
    assert before == 52704 and after <= 51019
    assert len(calls) == 1 + 256  # the 3-op prologue and every window: none reused
    monkeypatch.undo()
    ratio = (_per_record_seconds(lambda: schedule_stream(long), records[1], 2)
             / _per_record_seconds(lambda: schedule_stream(short), records[0], 5))
    assert ratio < 3, f"per-record time grew {ratio:.1f}x from 131 to 2,051 records"


_GATHER, _SCATTER = (parse_instruction(text) for text in
                     ("vluxei64.v v1, (x10), v2", "vsuxei64.v v3, (x11), v2"))


def _interleaved_window(ranges, records=24):
    """Gathers and scatters that each touch every 24th 8-byte word of one
    buffer: no two records overlap, so each pair must be told apart."""
    return [TraceRecord(seq=k, pc=4 * k, phase=0, scalar_before=0,
                        instr=_SCATTER if k % 2 else _GATHER, vl=ranges, sew_bits=64,
                        addresses=tuple((0x10000 + 8 * (m * records + k), 8)
                                        for m in range(ranges)),
                        window_id=0)
            for k in range(records)]


def test_build_dependences_scales_linearly_in_ranges():
    few, many = _interleaved_window(16), _interleaved_window(256)
    assert not any(MEM_ORDER in labels for labels in build_dependences(many).values())
    ratio = (_per_record_seconds(lambda: build_dependences(many), 24 * 256, 10)
             / _per_record_seconds(lambda: build_dependences(few), 24 * 16, 10))
    assert ratio < 3, f"per-range time grew {ratio:.1f}x from 16 to 256 ranges a record"


def _shared_load_window(pairs):
    """A `vsetvli`, then `pairs` loads of the same 64 bytes, each followed by
    a `vfadd.vv` of what it loaded: two loads never conflict, so the window
    has no memory edge however many of them overlap."""
    texts = ["vsetvli x2, x1, e64, m1"]
    for k in range(pairs):
        texts += [f"vle64.v v{1 + k % 8}, (x10)", f"vfadd.vv v{9 + k % 8}, v{1 + k % 8}, v{1 + k % 8}"]
    return [TraceRecord(seq=k, pc=4 * k, phase=0, scalar_before=0, instr=parse_instruction(text),
                        vl=8, sew_bits=64, addresses=((0x10000, 64),) if "vle" in text else (),
                        window_id=0)
            for k, text in enumerate(texts)]


def test_build_dependences_scales_linearly_over_loads_of_shared_bytes():
    few, many = _shared_load_window(256), _shared_load_window(4096)
    assert not any(MEM_ORDER in labels for labels in build_dependences(many).values())
    ratio = (_per_record_seconds(lambda: build_dependences(many), len(many), 10)
             / _per_record_seconds(lambda: build_dependences(few), len(few), 10))
    assert ratio < 3, f"per-record time grew {ratio:.1f}x from 513 to 8,193 records"


_STORE, _CHAIN = (parse_instruction(text) for text in
                  ("vse64.v v1, (x10)", "vfadd.vv v2, v2, v3"))


def _store_chain_window(pairs):
    """`pairs` stores of v1 to bytes of their own, then a chain of `pairs`
    adds that each reads the one before: every store is ready at once, and
    the picks interleave the stores with the adds."""
    return [TraceRecord(seq=k, pc=4 * k, phase=0, scalar_before=0,
                        instr=_STORE if k < pairs else _CHAIN, vl=8, sew_bits=64,
                        addresses=((0x10000 + 64 * k, 64),) if k < pairs else (), window_id=0)
            for k in range(2 * pairs)]


def test_reschedule_order_scales_linearly_over_ready_records():
    few, many = _store_chain_window(250), _store_chain_window(4000)
    order = scheduler.reschedule_order(many)
    # the first add, then a store each time the memory pipeline frees, the
    # adds of the chain between
    assert order[:7] == [4000, 0, 4001, 4002, 4003, 4004, 1]
    ratio = (_per_record_seconds(lambda: scheduler.reschedule_order(many), len(many), 3)
             / _per_record_seconds(lambda: scheduler.reschedule_order(few), len(few), 5))
    assert ratio < 3, f"per-record time grew {ratio:.1f}x from 500 to 8,000 records"
