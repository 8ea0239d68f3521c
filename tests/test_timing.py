import heapq
import random
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sdvkit.isa import Category, parse_instruction
from sdvkit.timing import (CounterSet, ModelState, Pipeline, TimelineEntry, TimingParams,
                           emit_timeline, emit_timeline_svg, occupancy, pipeline_of,
                           simulate)
from sdvkit.tracefile import TraceRecord


def _rec(seq, mnemonic, category, vl=256, scalar=0, addresses=()):
    instr = parse_instruction(mnemonic)
    assert instr.category == category, mnemonic
    return TraceRecord(seq=seq, pc=4 * seq, phase=0, scalar_before=scalar,
                       instr=instr, vl=vl, sew_bits=64, addresses=addresses)


def test_occupancy_defaults():
    p = TimingParams()
    assert occupancy(_rec(0, "vle64.v v1, (x10)", Category.MEM_UNIT, 256), p) == 32
    assert occupancy(_rec(0, "vluxei64.v v1, (x10), v2", Category.MEM_INDEXED, 256), p) == 256
    assert occupancy(_rec(0, "vfadd.vv v1, v2, v3", Category.ARITH_FP, 8), p) == 1
    assert occupancy(_rec(0, "vsetvli x1, x2, e64, m1", Category.CONFIG, 256), p) == 1
    assert occupancy(_rec(0, "vle64.v v1, (x10)", Category.MEM_UNIT, 0), p) == 1
    assert occupancy(_rec(0, "vlse64.v v1, (x10), x2", Category.MEM_STRIDED, 256), p) == 256


# Which pipeline runs each category and which knobs set its costs, written
# out here rather than read from `timing`, so that a knob wired to the wrong
# category or pipeline there changes a cost this test checks.
_CATEGORY_COSTS = {  # category -> (example, pipeline, rate knob)
    Category.CONFIG: ("vsetvli x1, x2, e64, m1", Pipeline.CONFIG, None),
    Category.MEM_UNIT: ("vle64.v v1, (x10)", Pipeline.MEM, "unit_stride_elems_per_cycle"),
    Category.MEM_STRIDED: ("vlse64.v v1, (x10), x2", Pipeline.MEM, "strided_elems_per_cycle"),
    Category.MEM_INDEXED: ("vluxei64.v v1, (x10), v2", Pipeline.MEM,
                           "indexed_elems_per_cycle"),
    Category.ARITH_INT: ("vadd.vv v1, v2, v3", Pipeline.ARITH, "arith_elems_per_cycle"),
    Category.ARITH_FP: ("vfadd.vv v1, v2, v3", Pipeline.ARITH, "arith_elems_per_cycle"),
    Category.PERM: ("vrgather.vv v1, v2, v3", Pipeline.ARITH, "arith_elems_per_cycle"),
}
_LATENCY_KNOBS = {Pipeline.MEM: "mem_latency_cycles", Pipeline.ARITH: "arith_latency_cycles",
                  Pipeline.CONFIG: None}


@pytest.mark.parametrize("knob", [
    None, "unit_stride_elems_per_cycle", "indexed_elems_per_cycle", "strided_elems_per_cycle",
    "arith_elems_per_cycle", "mem_latency_cycles", "arith_latency_cycles"])
def test_each_knob_sets_only_its_own_costs(knob):
    vl = 64
    params = TimingParams(**({knob: getattr(TimingParams(), knob) + 3} if knob else {}))
    for category, (text, pipe, rate) in _CATEGORY_COSTS.items():
        assert pipeline_of(category) is pipe, category
        cycles = 1 if rate is None else -(-vl // getattr(params, rate))
        assert occupancy(_rec(0, text, category, vl), params) == cycles, category
    for pipe, latency in _LATENCY_KNOBS.items():
        assert params.latency_of(pipe) == (getattr(params, latency) if latency else 0), pipe


def test_independent_pair_overlaps():
    # hand-computed: load starts at 0, completes 0+32+30=62;
    # independent add issues at 1, starts at 1, completes 1+32+6=39
    trace = [_rec(0, "vle64.v v1, (x10)", Category.MEM_UNIT, 256),
             _rec(1, "vfadd.vv v2, v3, v4", Category.ARITH_FP, 256)]
    entries, counters = simulate(trace, TimingParams())
    load, add = entries
    assert (load.start_cycle, load.complete_cycle) == (0, 62)
    assert (add.start_cycle, add.complete_cycle) == (1, 39)
    assert add.start_cycle < load.complete_cycle
    assert counters.overlap_cycles == 38
    assert counters.total_cycles == 62


def test_raw_pair_serializes():
    trace = [_rec(0, "vle64.v v1, (x10)", Category.MEM_UNIT, 256),
             _rec(1, "vfadd.vv v2, v1, v1", Category.ARITH_FP, 256)]
    entries, counters = simulate(trace, TimingParams())
    load, add = entries
    assert add.start_cycle >= load.complete_cycle
    assert counters.overlap_cycles == 0


def test_war_and_waw_serialize():
    trace = [_rec(0, "vfadd.vv v2, v1, v1", Category.ARITH_FP, 64),
             _rec(1, "vle64.v v1, (x10)", Category.MEM_UNIT, 64),   # WAR on v1
             _rec(2, "vle64.v v2, (x10)", Category.MEM_UNIT, 64)]   # WAW on v2
    entries, _ = simulate(trace, TimingParams())
    assert entries[1].start_cycle >= entries[0].complete_cycle
    assert entries[2].start_cycle >= entries[0].complete_cycle


def test_in_order_start():
    # a stalled instruction blocks younger independent ones
    trace = [_rec(0, "vle64.v v1, (x10)", Category.MEM_UNIT, 256),
             _rec(1, "vfadd.vv v2, v1, v1", Category.ARITH_FP, 256),
             _rec(2, "vfadd.vv v3, v4, v5", Category.ARITH_FP, 256)]
    entries, _ = simulate(trace, TimingParams())
    assert entries[2].start_cycle > entries[1].start_cycle >= entries[0].complete_cycle


def test_empty_trace_counters():
    entries, counters = simulate([], TimingParams())
    assert entries == []
    assert counters == CounterSet()


def test_scalar_work_delays_dispatch():
    trace = [_rec(0, "vid.v v1", Category.ARITH_INT, 8, scalar=100)]
    entries, counters = simulate(trace, TimingParams())
    assert entries[0].issue_cycle >= 100
    assert counters.scalar_instr_count == 100


def test_queue_depth_stalls_dispatch():
    trace = [_rec(0, "vfadd.vv v1, v1, v1", Category.ARITH_FP, 256),
             _rec(1, "vfadd.vv v2, v2, v2", Category.ARITH_FP, 256),
             _rec(2, "vfadd.vv v3, v3, v3", Category.ARITH_FP, 256)]
    deep = simulate(trace, TimingParams())[0]
    shallow = simulate(trace, TimingParams(vector_queue_depth=1))[0]
    assert shallow[1].issue_cycle >= deep[0].complete_cycle
    assert shallow[1].issue_cycle > deep[1].issue_cycle


def test_issue_is_in_order_and_unit_rate():
    trace = [_rec(i, "vid.v v1", Category.ARITH_INT, 8) for i in range(10)]
    entries, _ = simulate(trace, TimingParams())
    issues = [e.issue_cycle for e in entries]
    assert all(b > a for a, b in zip(issues, issues[1:]))


def test_work_conservation_and_busy_counters():
    trace = [_rec(0, "vle64.v v1, (x10)", Category.MEM_UNIT, 256),
             _rec(1, "vse64.v v1, (x11)", Category.MEM_UNIT, 256),
             _rec(2, "vfadd.vv v2, v3, v4", Category.ARITH_FP, 64)]
    entries, counters = simulate(trace, TimingParams())
    mem = [e for e in entries if e.pipeline == Pipeline.MEM]
    assert counters.mem_busy_cycles == sum(e.complete_cycle - e.start_cycle for e in mem)
    assert counters.overlap_cycles <= min(counters.mem_busy_cycles,
                                          counters.arith_busy_cycles)
    assert counters.vpu_idle_cycles >= 0


def test_single_pipeline_total_at_least_sum_of_occupancies():
    params = TimingParams()
    trace = [_rec(i, "vle64.v v1, (x10)", Category.MEM_UNIT, 256) for i in range(5)]
    _, counters = simulate(trace, params)
    assert counters.total_cycles >= 5 * 32


def test_chaining_starts_consumer_early():
    trace = [_rec(0, "vle64.v v1, (x10)", Category.MEM_UNIT, 256),
             _rec(1, "vfadd.vv v2, v1, v1", Category.ARITH_FP, 256)]
    stalled = simulate(trace, TimingParams())[0]
    chained = simulate(trace, TimingParams(chaining=True))[0]
    assert chained[1].start_cycle < stalled[1].start_cycle
    assert chained[1].start_cycle > chained[0].start_cycle


_MNEMONICS = {
    Category.MEM_UNIT: "vle64.v v{}, (x10)",
    Category.MEM_INDEXED: "vluxei64.v v{}, (x10), v8",
    Category.MEM_STRIDED: "vlse64.v v{}, (x10), x2",
    Category.ARITH_FP: "vfadd.vv v{}, v1, v2",
    Category.ARITH_INT: "vadd.vv v{}, v1, v2",
    Category.PERM: "vrgather.vv v{}, v1, v2",
}

_RATE_FIELDS = ["unit_stride_elems_per_cycle", "indexed_elems_per_cycle",
                "strided_elems_per_cycle", "arith_elems_per_cycle"]


def _random_trace(rng):
    cats = list(_MNEMONICS)
    trace = []
    for seq in range(rng.randrange(1, 40)):
        cat = rng.choice(cats)
        reg = rng.randrange(3, 8)
        trace.append(_rec(seq, _MNEMONICS[cat].format(reg), cat,
                          vl=rng.randrange(0, 257), scalar=rng.randrange(0, 20)))
    return trace


def test_rate_monotonicity_random():
    rng = random.Random(99)
    for _ in range(100):
        trace = _random_trace(rng)
        base_kwargs = {f: rng.choice([1, 2, 4, 8, 16]) for f in _RATE_FIELDS}
        params = TimingParams(**base_kwargs)
        total = simulate(trace, params)[1].total_cycles
        field = rng.choice(_RATE_FIELDS)
        if base_kwargs[field] == 1:
            continue
        slower = dict(base_kwargs)
        slower[field] = rng.randrange(1, base_kwargs[field])
        slow_total = simulate(trace, TimingParams(**slower))[1].total_cycles
        assert slow_total >= total


def test_dependence_safety_random():
    rng = random.Random(5)
    for _ in range(50):
        trace = _random_trace(rng)
        entries, _ = simulate(trace, TimingParams())
        writer = {}
        for rec, entry in zip(trace, entries):
            instr = rec.instr
            for reg in instr.vreg_uses:
                if reg in writer:
                    assert entry.start_cycle >= writer[reg]
            for reg in instr.vreg_defs:
                writer[reg] = entry.complete_cycle


def _brute_force_counters(trace, entries):
    """Test-only oracle for the counters: the set of cycles each pipeline is
    busy, one cycle at a time, then set sizes, intersection and union."""
    busy = {p: set() for p in Pipeline}
    for e in entries:
        busy[e.pipeline].update(range(e.start_cycle, e.complete_cycle))
    mem, arith = busy[Pipeline.MEM], busy[Pipeline.ARITH]
    total = max((e.complete_cycle for e in entries), default=0)
    return CounterSet(total_cycles=total, vector_instr_count=len(entries),
                      scalar_instr_count=sum(r.scalar_before for r in trace),
                      mem_busy_cycles=len(mem), arith_busy_cycles=len(arith),
                      overlap_cycles=len(mem & arith),
                      vpu_idle_cycles=total - len(mem | arith))


def _simulate_nlargest(trace, params):
    """Test-only oracle for `simulate`: the same model, with the queue bound
    taken by `heapq.nlargest` as the depth-th largest of every completion so
    far, at O(n) per record."""
    entries = []
    scalar_time = 0
    last_issue = last_start = -1
    pipe_free = {p: 0 for p in Pipeline}
    writers = {}  # reg -> (start, occupancy, latency, complete)
    reader_complete = {}
    completes = []
    for rec in trace:
        instr = rec.instr
        pipe = pipeline_of(instr.category)
        scalar_time += rec.scalar_before * params.scalar_cycles_per_instr
        issue = max(scalar_time, last_issue + 1)
        if len(completes) >= params.vector_queue_depth:
            issue = max(issue, heapq.nlargest(params.vector_queue_depth, completes)[-1])
        occ = occupancy(rec, params)
        latency = params.latency_of(pipe)
        start = max(issue, last_start + 1, pipe_free[pipe])
        for reg in instr.vreg_uses:
            if reg in writers:
                p_start, p_occ, p_latency, p_complete = writers[reg]
                if params.chaining:
                    start = max(start, p_start + p_latency + max(1, p_occ - occ))
                else:
                    start = max(start, p_complete)
        for reg in instr.vreg_defs:
            if reg in writers:
                start = max(start, writers[reg][3])
            start = max(start, reader_complete.get(reg, 0))
        complete = start + occ + latency
        entries.append(TimelineEntry(rec.seq, pipe, issue, start, complete,
                                     instr.mnemonic))
        pipe_free[pipe] = complete
        for reg in instr.vreg_uses:
            reader_complete[reg] = max(reader_complete.get(reg, 0), complete)
        for reg in instr.vreg_defs:
            writers[reg] = (start, occ, latency, complete)
            reader_complete[reg] = 0
        completes.append(complete)
        last_issue, last_start = issue, start
        scalar_time = issue + 1
    return entries, _brute_force_counters(trace, entries)


# Two texts per category (a load and a store for memory), over registers
# v1..v4, so hazards of every kind are common.
_ORACLE_TEXTS = ["vsetvli x1, x2, e64, m1", "vsetvl x1, x2, x3",
                 "vle64.v v{d}, (x10)", "vse64.v v{a}, (x10)",
                 "vlse64.v v{d}, (x10), x2", "vsse64.v v{a}, (x10), x2",
                 "vluxei64.v v{d}, (x10), v{a}", "vsuxei64.v v{a}, (x10), v{b}",
                 "vadd.vv v{d}, v{a}, v{b}", "vid.v v{d}",
                 "vfadd.vv v{d}, v{a}, v{b}", "vfmacc.vv v{d}, v{a}, v{b}",
                 "vrgather.vv v{d}, v{a}, v{b}"]
assert {parse_instruction(t.format(d=1, a=2, b=3)).category
        for t in _ORACLE_TEXTS} == set(Category)
_vreg = st.integers(1, 4)


@st.composite
def _oracle_traces(draw):
    trace = []
    for seq in range(draw(st.integers(0, 40))):
        text = draw(st.sampled_from(_ORACLE_TEXTS)).format(
            d=draw(_vreg), a=draw(_vreg), b=draw(_vreg))
        # few distinct VLs and latencies, so completion cycles often tie
        trace.append(TraceRecord(seq=seq, pc=4 * seq, phase=0,
                                 scalar_before=draw(st.sampled_from([0, 0, 1, 5])),
                                 instr=parse_instruction(text),
                                 vl=draw(st.sampled_from([0, 1, 8, 9, 64, 256])),
                                 sew_bits=64))
    return trace


@settings(max_examples=200, deadline=None)
@given(_oracle_traces(), st.sampled_from([1, 2, 3, 4, 16]), st.booleans(),
       st.sampled_from([1, 6, 30]), st.sampled_from([1, 6]))
def test_queue_bound_matches_nlargest_oracle(trace, depth, chaining, mem_latency,
                                              arith_latency):
    params = TimingParams(vector_queue_depth=depth, chaining=chaining,
                          mem_latency_cycles=mem_latency,
                          arith_latency_cycles=arith_latency)
    assert simulate(trace, params) == _simulate_nlargest(trace, params)


@settings(max_examples=300, deadline=None)
@given(_oracle_traces(), st.integers(1, 16), st.booleans(),
       st.sampled_from([1, 6, 30]), st.sampled_from([1, 6]),
       st.sampled_from([1, 2, 8]), st.sampled_from([1, 4]))
def test_counters_match_per_cycle_brute_force(trace, depth, chaining, mem_latency,
                                              arith_latency, unit_rate, other_rate):
    params = TimingParams(vector_queue_depth=depth, chaining=chaining,
                          mem_latency_cycles=mem_latency,
                          arith_latency_cycles=arith_latency,
                          unit_stride_elems_per_cycle=unit_rate,
                          arith_elems_per_cycle=unit_rate,
                          indexed_elems_per_cycle=other_rate,
                          strided_elems_per_cycle=other_rate)
    entries, counters = simulate(trace, params)
    assert counters == _brute_force_counters(trace, entries)


@settings(max_examples=300, deadline=None)
@given(_oracle_traces(), st.integers(1, 16), st.booleans(), st.data())
def test_a_trace_placed_in_two_parts_matches_one_simulate_call(trace, depth, chaining, data):
    params = TimingParams(vector_queue_depth=depth, chaining=chaining)
    split = data.draw(st.integers(0, len(trace)))
    state = ModelState(params)
    head = state.place(trace[:split])
    fork = state.copy()
    # each record placed next starts no earlier than the state's lower bound
    for record in trace[split:]:
        start = fork.copy().place((record,))[0].start_cycle
        assert fork.earliest_start(record) <= start
    tail = state.place(trace[split:])
    assert (head + tail, state.counters()) == simulate(trace, params)
    # a copy resumes from where it was taken, whatever its original did since
    assert fork.place(trace[split:]) == tail and fork.counters() == state.counters()
    assert fork.place(()) == []


def _per_record_seconds(trace, repeats):
    best = float("inf")
    for _ in range(repeats):
        t0 = time.perf_counter()
        simulate(trace)
        best = min(best, time.perf_counter() - t0)
    return best / len(trace)


def test_simulate_scales_linearly():
    mix = [_rec(0, "vle64.v v1, (x10)", Category.MEM_UNIT, 64),
           _rec(0, "vluxei64.v v2, (x10), v1", Category.MEM_INDEXED, 16),
           _rec(0, "vfmacc.vv v3, v1, v2", Category.ARITH_FP, 64),
           _rec(0, "vrgather.vv v4, v3, v1", Category.PERM, 8, scalar=3),
           _rec(0, "vse64.v v4, (x11)", Category.MEM_UNIT, 64),
           _rec(0, "vsetvli x1, x2, e64, m1", Category.CONFIG, 64),
           _rec(0, "vadd.vv v5, v6, v7", Category.ARITH_INT, 64),
           _rec(0, "vlse64.v v6, (x10), x2", Category.MEM_STRIDED, 32)]
    short = [r._replace(seq=i) for i, r in enumerate(mix * 256)]
    long = [r._replace(seq=i) for i, r in enumerate(mix * 4096)]
    assert (len(short), len(long)) == (2048, 32768)
    # best of several runs each, so a slow stretch of the host does not count
    ratio = _per_record_seconds(long, 2) / _per_record_seconds(short, 5)
    assert ratio < 3, f"per-record time grew {ratio:.1f}x from 2,048 to 32,768 records"


def test_csv_format():
    entries = [TimelineEntry(0, Pipeline.MEM, 10, 10, 42, "vle64.v")]
    text = emit_timeline(entries)
    lines = text.splitlines()
    assert lines[0] == "seq,pipeline,issue,start,complete,mnemonic"
    assert lines[1] == "0,MEM,10,10,42,vle64.v"


def test_svg_rect_count_and_lanes():
    entries = [TimelineEntry(0, Pipeline.MEM, 0, 0, 40, "vle64.v"),
               TimelineEntry(1, Pipeline.ARITH, 1, 1, 20, "vfadd.vv"),
               TimelineEntry(2, Pipeline.MEM, 2, 40, 80, "vse64.v")]
    svg = emit_timeline_svg(entries)
    assert svg.count("<rect") == 3
    mem_y = {line.split('y="')[1].split('"')[0]
             for line in svg.splitlines() if "<rect" in line and "vle64" in line}
    arith_y = {line.split('y="')[1].split('"')[0]
               for line in svg.splitlines() if "<rect" in line and "vfadd" in line}
    assert mem_y and arith_y and mem_y.isdisjoint(arith_y)


def test_params_validation():
    with pytest.raises(ValueError):
        TimingParams(unit_stride_elems_per_cycle=0)
    with pytest.raises(ValueError):
        TimingParams(mem_latency_cycles=0)
    with pytest.raises(ValueError):
        TimingParams(vector_queue_depth=0)
