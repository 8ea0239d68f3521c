import itertools

import numpy as np
import pytest

from conftest import random_window_stream
from sdvkit.isa import Category, parse_instruction
from sdvkit.scheduler import (MEM_ORDER, RAW, WAR, WAW, build_dependences,
                              reschedule, reschedule_order, schedule_stream,
                              trace_windows, verify_equivalence)
from sdvkit.timing import TimingParams, simulate
from sdvkit.tracefile import TraceRecord
from sdvkit.vstream import ItemKind, parse_vstream
from sdvkit.emulator import run


def _rec(seq, mnemonic, category, vl=8, addresses=(), window=1):
    instr = parse_instruction(mnemonic)
    assert instr.category == category, mnemonic
    return TraceRecord(seq=seq, pc=4 * seq, phase=0, scalar_before=0,
                       instr=instr, vl=vl, sew_bits=64, addresses=addresses,
                       window_id=window)


def test_raw_edge_on_vector_register():
    window = [_rec(0, "vle64.v v1, (x10)", Category.MEM_UNIT, addresses=((0x1000, 64),)),
              _rec(1, "vfadd.vv v2, v1, v1", Category.ARITH_FP)]
    graph = build_dependences(window)
    assert RAW in graph.edge_labels(0, 1)


def test_disjoint_stores_have_no_memory_edge():
    window = [_rec(0, "vse64.v v1, (x10)", Category.MEM_UNIT, addresses=((0x1000, 64),)),
              _rec(1, "vse64.v v2, (x11)", Category.MEM_UNIT, addresses=((0x2000, 64),))]
    graph = build_dependences(window)
    assert MEM_ORDER not in graph.edge_labels(0, 1)


def test_overlapping_store_load_ordered():
    window = [_rec(0, "vse64.v v1, (x10)", Category.MEM_UNIT, addresses=((0x1000, 0x800),)),
              _rec(1, "vle64.v v2, (x11)", Category.MEM_UNIT, addresses=((0x1400, 0x800),))]
    graph = build_dependences(window)
    assert MEM_ORDER in graph.edge_labels(0, 1)


def test_config_is_barrier():
    window = [_rec(0, "vfadd.vv v1, v2, v3", Category.ARITH_FP),
              _rec(1, "vsetvli x1, x2, e64, m1", Category.CONFIG),
              _rec(2, "vfadd.vv v4, v5, v6", Category.ARITH_FP)]
    graph = build_dependences(window)
    assert WAR in graph.edge_labels(0, 1)
    assert RAW in graph.edge_labels(1, 2)


def test_scalar_register_dependence():
    window = [_rec(0, "vsetvli x10, x2, e64, m1", Category.CONFIG),
              _rec(1, "vle64.v v1, (x10)", Category.MEM_UNIT, addresses=((0x1000, 64),))]
    graph = build_dependences(window)
    assert RAW in graph.edge_labels(0, 1)


def _all_topological_orders(window):
    graph = build_dependences(window)
    n = len(window)
    for perm in itertools.permutations(range(n)):
        position = {node: i for i, node in enumerate(perm)}
        if all(position[a] < position[b] for (a, b) in graph.labels):
            yield list(perm)


def test_four_node_schedule_is_cycle_optimal():
    # two independent load->add pairs, loads grouped first
    window = [
        _rec(0, "vle64.v v1, (x10)", Category.MEM_UNIT, vl=256, addresses=((0x1000, 2048),)),
        _rec(1, "vle64.v v2, (x11)", Category.MEM_UNIT, vl=256, addresses=((0x2000, 2048),)),
        _rec(2, "vfadd.vv v3, v1, v1", Category.ARITH_FP, vl=256),
        _rec(3, "vfadd.vv v4, v2, v2", Category.ARITH_FP, vl=256),
    ]
    params = TimingParams()
    best = min(simulate([window[i] for i in order], params)[1].total_cycles
               for order in _all_topological_orders(window))
    chosen = reschedule(window, params)
    assert simulate(chosen, params)[1].total_cycles == best
    assert simulate(chosen, params)[1].total_cycles <= \
        simulate(window, params)[1].total_cycles


def test_fully_dependent_chain_keeps_order():
    window = [_rec(0, "vle64.v v1, (x10)", Category.MEM_UNIT, addresses=((0x1000, 64),)),
              _rec(1, "vfadd.vv v2, v1, v1", Category.ARITH_FP),
              _rec(2, "vfadd.vv v3, v2, v2", Category.ARITH_FP),
              _rec(3, "vse64.v v3, (x11)", Category.MEM_UNIT, addresses=((0x2000, 64),))]
    assert reschedule_order(window, TimingParams()) == [0, 1, 2, 3]


def test_empty_window():
    assert reschedule([], TimingParams()) == []


def test_reschedule_deterministic():
    rng = np.random.default_rng(8)
    items = parse_vstream(random_window_stream(rng))
    a = schedule_stream(items, TimingParams())
    b = schedule_stream(items, TimingParams())
    assert a == b


def test_stream_equivalent_to_itself():
    rng = np.random.default_rng(2)
    text = random_window_stream(rng)
    assert verify_equivalence(None, text, text)


def test_random_windows_equivalence_and_never_worse():
    params = TimingParams()
    rng = np.random.default_rng(1234)
    for _ in range(25):
        text = random_window_stream(rng)
        items = parse_vstream(text)
        scheduled, _, _ = schedule_stream(items, params)
        assert verify_equivalence(None, items, scheduled)
        _, before = run(None, items)
        _, after = run(None, scheduled)
        assert simulate(after, params)[1].total_cycles <= \
            simulate(before, params)[1].total_cycles


def test_schedule_stream_reports_modeled_cycles():
    params = TimingParams()
    rng = np.random.default_rng(77)
    for _ in range(5):
        items = parse_vstream(random_window_stream(rng))
        scheduled, before, after = schedule_stream(items, params)
        assert before == simulate(run(None, items)[1], params)[1].total_cycles
        assert after == simulate(run(None, scheduled)[1], params)[1].total_cycles


def test_swapped_raw_pair_is_not_equivalent():
    prefix = (".xreg x1 4\nvsetvli x2, x1, e64, m1\n"
              ".memf64 0x1000 1 2 3 4\n.xreg x10 0x1000\n.xreg x11 0x2000\n")
    original = prefix + "vle64.v v1, (x10)\nvfadd.vv v2, v1, v1\nvse64.v v2, (x11)\n"
    swapped = prefix + "vfadd.vv v2, v1, v1\nvle64.v v1, (x10)\nvse64.v v2, (x11)\n"
    assert not verify_equivalence(None, original, swapped)


def test_directives_split_windows():
    # the mid-window .xreg must keep the second load after the redefinition
    text = (".xreg x1 2\nvsetvli x2, x1, e64, m1\n"
            ".memf64 0x1000 1 2\n.memf64 0x2000 3 4\n"
            ".window 1\n.xreg x10 0x1000\n"
            "vle64.v v1, (x10)\n"
            ".xreg x10 0x2000\n"
            "vle64.v v2, (x10)\n")
    items = parse_vstream(text)
    scheduled, _, _ = schedule_stream(items, TimingParams())
    assert verify_equivalence(None, items, scheduled)
    ordered = [i.instr.vd for i in scheduled if i.kind == ItemKind.INSTRUCTION
               and i.instr.mnemonic == "vle64.v"]
    assert ordered == [1, 2]


def test_trace_windows_grouping():
    records = [_rec(0, "vid.v v1", Category.ARITH_INT, window=1),
               _rec(1, "vid.v v2", Category.ARITH_INT, window=1),
               _rec(2, "vid.v v3", Category.ARITH_INT, window=2)]
    windows = trace_windows(records)
    assert [len(w) for w in windows] == [2, 1]
