import copy
import dataclasses
import itertools
import struct

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import random_window_stream
from sdvkit import scheduler
from sdvkit.cli import main
from sdvkit.errors import NotEquivalent
from sdvkit.isa import MNEMONICS, ROLES, SPEC, Category, Instruction, parse_instruction
from sdvkit.scheduler import (MEM_ORDER, RAW, WAR, WAW, build_dependences,
                              reschedule_order, schedule_stream, verify_equivalence)
from sdvkit.timing import ModelState, TimingParams, simulate
from sdvkit.tracefile import TraceRecord
from sdvkit.vstream import ItemKind, parse_vstream
from sdvkit.emulator import run
from sdvkit.workloads import gen_fft


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
    assert RAW in graph.get((0, 1), set())


def test_disjoint_stores_have_no_memory_edge():
    window = [_rec(0, "vse64.v v1, (x10)", Category.MEM_UNIT, addresses=((0x1000, 64),)),
              _rec(1, "vse64.v v2, (x11)", Category.MEM_UNIT, addresses=((0x2000, 64),))]
    graph = build_dependences(window)
    assert MEM_ORDER not in graph.get((0, 1), set())


def test_overlapping_store_load_ordered():
    window = [_rec(0, "vse64.v v1, (x10)", Category.MEM_UNIT, addresses=((0x1000, 0x800),)),
              _rec(1, "vle64.v v2, (x11)", Category.MEM_UNIT, addresses=((0x1400, 0x800),))]
    graph = build_dependences(window)
    assert MEM_ORDER in graph.get((0, 1), set())


def _ranges_overlap(ranges_a, ranges_b) -> bool:
    """The pairwise range check the scheduler's sweep replaced: the oracle."""
    for base_a, len_a in ranges_a:
        for base_b, len_b in ranges_b:
            if max(base_a, base_b) < min(base_a + len_a, base_b + len_b):
                return True
    return False


_TOP = 1 << 64
_GATHER_SCATTER = {store: _rec(0, text, Category.MEM_INDEXED)
                   for store, text in ((False, "vluxei64.v v1, (x10), v2"),
                                       (True, "vsuxei64.v v3, (x11), v2"))}
# dense small ranges, so zero-length, touching and overlapping ones are
# common, within and across records; and ranges that end exactly at 2^64
_RANGE = st.one_of(st.tuples(st.integers(0, 96), st.integers(0, 24)),
                   st.integers(1, 40).map(lambda n: (_TOP - n, n)))
_RECORD = st.tuples(st.booleans(), st.lists(_RANGE, max_size=6))


@settings(max_examples=100, deadline=None)
@given(st.lists(_RECORD, min_size=1, max_size=40))
@example([(True, [(0, 8), (4, 8), (12, 0)]),   # self-overlap, zero-length
          (False, [(12, 4)]),                   # touches record 0's end
          (False, [(_TOP - 8, 8)]),
          (True, [(_TOP - 4, 4), (_TOP, 0)]),    # overlaps record 2 at 2^64
          (False, [(0, 4)]),
          (False, [(2, 4)])])                   # load-load with record 4
def test_memory_edges_match_pairwise_check(records):
    window = [_GATHER_SCATTER[store]._replace(seq=seq, addresses=tuple(ranges))
              for seq, (store, ranges) in enumerate(records)]
    expected = {(i, j) for j in range(len(window)) for i in range(j)
                if (records[i][0] or records[j][0])
                and _ranges_overlap(records[i][1], records[j][1])}
    graph = build_dependences(window)
    found = {pair for pair, labels in graph.items() if MEM_ORDER in labels}
    assert found == expected
    assert all(records[i][0] or records[j][0] for i, j in found)


def test_config_is_barrier():
    window = [_rec(0, "vfadd.vv v1, v2, v3", Category.ARITH_FP),
              _rec(1, "vsetvli x1, x2, e64, m1", Category.CONFIG),
              _rec(2, "vfadd.vv v4, v5, v6", Category.ARITH_FP)]
    graph = build_dependences(window)
    assert WAR in graph.get((0, 1), set())
    assert RAW in graph.get((1, 2), set())


def _resources(instr):
    """(read, written) resources of an instruction: ("v", n) and ("x", n)
    registers, and "vl" for vl/vtype, which CONFIG writes and all else reads."""
    config = instr.category == Category.CONFIG
    reads = {("v", r) for r in instr.vreg_uses} | {("x", r) for r in instr.xreg_uses}
    writes = {("v", r) for r in instr.vreg_defs} | {("x", r) for r in instr.xreg_defs}
    (writes if config else reads).add("vl")
    return reads, writes


def _last_writer_labels(instrs) -> dict:
    """Brute-force oracle: (i, j) -> labels, from each resource's last writer."""
    access = [_resources(instr) for instr in instrs]

    def last_writer(resource, j):
        return max((k for k in range(j) if resource in access[k][1]), default=-1)

    labels = {}
    for j, (reads_j, writes_j) in enumerate(access):
        for i in range(j):
            found = set()
            if any(last_writer(r, j) == i for r in reads_j):
                found.add(RAW)
            if any(last_writer(r, j) == i for r in writes_j):
                found.add(WAW)
            # i read r, and nothing from i itself up to j wrote r
            if any(last_writer(r, j) < i for r in writes_j & access[i][0]):
                found.add(WAR)
            if found:
                labels[(i, j)] = found
    return labels


@st.composite
def _instruction(draw, mnemonics):
    """An instruction over registers 0-3, so hazards are common."""
    mnemonic = draw(st.sampled_from(mnemonics))
    fields = {}
    for role in SPEC[mnemonic][1]:
        names, prefix, _ = ROLES[role]
        if prefix is not None:
            fields[names[0]] = draw(st.integers(0, 3))
        elif len(names) == 1:  # an immediate
            fields[names[0]] = draw(st.integers(0, 31))
        else:  # the element width and group multiplier
            fields.update(zip(names, (64, 1)))
    return Instruction(mnemonic, **fields)


_CONFIGS = [m for m in MNEMONICS if SPEC[m][0] == Category.CONFIG]


@st.composite
def _mixed_window(draw):
    """Vector, scalar-reading and at least two CONFIG instructions, mixed."""
    instrs = draw(st.lists(_instruction(MNEMONICS), max_size=12))
    for config in draw(st.lists(_instruction(_CONFIGS), min_size=2, max_size=4)):
        instrs.insert(draw(st.integers(0, len(instrs))), config)
    return [TraceRecord(seq=i, pc=4 * i, phase=0, scalar_before=0, instr=instr,
                        vl=8, sew_bits=64, addresses=(), window_id=1)
            for i, instr in enumerate(instrs)]


@settings(max_examples=200, deadline=None)
@given(_mixed_window())
def test_register_and_vl_labels_match_last_writer_oracle(window):
    expected = _last_writer_labels([record.instr for record in window])
    assert build_dependences(window) == expected
    configs = [i for i, record in enumerate(window) if record.instr.category == Category.CONFIG]
    # every window has a config->config WAW edge, from the vl/vtype writes
    assert WAW in expected[(configs[0], configs[1])]


def test_scalar_register_dependence():
    window = [_rec(0, "vsetvli x10, x2, e64, m1", Category.CONFIG),
              _rec(1, "vle64.v v1, (x10)", Category.MEM_UNIT, addresses=((0x1000, 64),))]
    graph = build_dependences(window)
    assert RAW in graph.get((0, 1), set())


def _all_topological_orders(window):
    graph = build_dependences(window)
    n = len(window)
    for perm in itertools.permutations(range(n)):
        position = {node: i for i, node in enumerate(perm)}
        if all(position[a] < position[b] for (a, b) in graph):
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
    chosen = [window[i] for i in reschedule_order(window, params)]
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
    assert reschedule_order([], TimingParams()) == []


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
    assert verify_equivalence(None, run(None, text)[0], parse_vstream(text))


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
    assert not verify_equivalence(None, run(None, original)[0], run(None, swapped)[0])


_EQUIVALENCE_BASE = (".xreg x1 4\nvsetvli x2, x1, e64, m1\n.xreg x5 7\n.freg f1 1.5\n"
                     ".memf64 0x1000 1 2 3 4\n.xreg x10 0x1000\n.xreg x11 0x2000\n"
                     "vle64.v v1, (x10)\nvse64.v v1, (x11)\n")
_QNAN = 0x7FF8000000000000


def _freg_bits(bits):
    """Sets f1 to a new float object with exactly these bits."""
    def change(state):
        state.fregs[1] = struct.unpack("<d", struct.pack("<Q", bits))[0]
    return change


def _unchanged(state):
    pass


def _bump_xreg(state):
    state.xregs[5] += 1


def _shorten_vl(state):
    state.vl -= 1


def _set_vill(state):
    state.vtype = dataclasses.replace(state.vtype, vill=True)


def _flip_vreg_element(state):
    state.vregs[1, 3] ^= np.uint64(1)


def _flip_stored_byte(state):
    byte = state.memory.read_bytes(0x2003, 1)[0]
    state.memory.write_bytes(0x2003, bytes([byte ^ 1]))


def _store_zeros_in_fresh_page(state):
    state.memory.write_bytes(0x9000, bytes(8))


# (change to one final state, change to the other, whether they stay equivalent)
EQUIVALENCE_CASES = {
    "xreg": (_bump_xreg, _unchanged, False),
    "freg +0.0 vs -0.0": (_freg_bits(0), _freg_bits(1 << 63), False),
    "freg NaN payloads": (_freg_bits(_QNAN | 1), _freg_bits(_QNAN | 2), False),
    "vl": (_shorten_vl, _unchanged, False),
    "vtype": (_set_vill, _unchanged, False),
    "vreg element": (_flip_vreg_element, _unchanged, False),
    "stored byte": (_flip_stored_byte, _unchanged, False),
    "same NaN bits": (_freg_bits(_QNAN | 1), _freg_bits(_QNAN | 1), True),
    "zeros written vs untouched page": (_store_zeros_in_fresh_page, _unchanged, True),
}


@pytest.mark.parametrize("change_a,change_b,equivalent", EQUIVALENCE_CASES.values(),
                         ids=EQUIVALENCE_CASES.keys())
def test_equivalence_compares_each_state_component(change_a, change_b, equivalent):
    state_a, state_b = run(None, _EQUIVALENCE_BASE)[0], run(None, _EQUIVALENCE_BASE)[0]
    assert verify_equivalence(None, state_a, state_b)
    change_a(state_a)
    change_b(state_b)
    assert verify_equivalence(None, state_a, state_b) is equivalent
    assert verify_equivalence(None, state_b, state_a) is equivalent


def test_non_equivalent_schedule_is_refused(tmp_path, capsys, monkeypatch):
    text = (".xreg x1 4\nvsetvli x2, x1, e64, m1\n.memf64 0x1000 1 2 3 4\n"
            ".xreg x10 0x1000\n.xreg x11 0x2000\n.window 1\n"
            "vle64.v v1, (x10)\nvfadd.vv v2, v1, v1\nvse64.v v2, (x11)\n")
    swapped = text.replace("vle64.v v1, (x10)\nvfadd.vv v2, v1, v1",
                           "vfadd.vv v2, v1, v1\nvle64.v v1, (x10)")
    # the illegal order is no slower, so only the equivalence check stops it
    params = TimingParams()
    assert simulate(run(None, swapped)[1], params)[1].total_cycles <= \
        simulate(run(None, text)[1], params)[1].total_cycles
    monkeypatch.setattr(scheduler, "reschedule_order",
                        lambda window, params=None, **_: [1, 0, *range(2, len(window))])
    with pytest.raises(NotEquivalent):
        schedule_stream(parse_vstream(text), params)

    vs, out = tmp_path / "in.vs", tmp_path / "out.vs"
    vs.write_text(text)
    capsys.readouterr()
    assert main(["schedule", str(vs), "-o", str(out)]) == 1
    assert capsys.readouterr().err == \
        "error: rescheduled stream is not equivalent to the input\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["in.vs"]


def test_a_stream_made_slower_is_returned_as_it_was(monkeypatch):
    items = parse_vstream(".xreg x1 256\n.xreg x10 0x1000\nvsetvli x2, x1, e64, m1\n"
                          ".window 1\nvle64.v v1, (x10)\nvfadd.vv v2, v3, v3\n"
                          "vfadd.vv v4, v1, v1\n")
    assert schedule_stream(items)[1:] == (101, 101)  # already in the best order
    # a legal order that ends later (102 cycles): the independent add delays the load
    monkeypatch.setattr(scheduler, "reschedule_order",
                        lambda window, params=None, **_: [1, 0, 2])
    checked, original = [], scheduler.verify_equivalence
    monkeypatch.setattr(scheduler, "verify_equivalence",
                        lambda *states: checked.append(original(*states)) or checked[-1])
    assert schedule_stream(items) == (items, 101, 101)
    assert checked == [True]


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


def _units(items):
    """The records of a stream, the item position of each, and the slice of
    records each unit spans: adjacent instructions of one window and phase."""
    _, records = run(None, items)
    positions = [i for i, item in enumerate(items) if item.kind == ItemKind.INSTRUCTION]
    starts = [k for k in range(len(records)) if k == 0 or positions[k] != positions[k - 1] + 1
              or (records[k].window_id, records[k].phase)
              != (records[k - 1].window_id, records[k - 1].phase)]
    return records, positions, [slice(*ends) for ends in zip(starts, starts[1:] + [len(records)])]


# an arithmetic chain, then two independent loads that scheduling moves into
# it when all five share a unit
_SPLIT = (".xreg x1 16\nvsetvli x2, x1, e64, m1\n.xreg x10 0x10000\n.xreg x11 0x20000\n"
          ".window 1\nvfadd.vv v3, v1, v1\nvfmul.vv v4, v3, v3\nvfmul.vv v5, v4, v4\n"
          "{}\nvle64.v v6, (x10)\nvle64.v v7, (x11)\n")


def test_a_phase_change_splits_a_unit_and_a_restated_window_does_not():
    split = parse_vstream(_SPLIT.format(".phase 1"))
    scheduled, before, after = schedule_stream(split)
    assert scheduled == split and before == after
    restated, joined = parse_vstream(_SPLIT.format(".window 1")), parse_vstream(_SPLIT.format(""))
    assert restated == joined
    scheduled, before, after = schedule_stream(restated)
    assert after < before
    assert [i.instr.vd for i in scheduled[4:]] == [6, 3, 4, 5, 7]


# What the windows of a reuse test are made of: loads, a gather and stores
# through x10 and x11, and arithmetic between them.  At vl > 8 the first two
# bases overlap, so a base address can change a window's overlap set.
_BODY = ("vle64.v v1, (x10)", "vle64.v v2, (x11)", "vluxei64.v v4, (x10), v8",
         "vfadd.vv v3, v1, v1", "vfmul.vv v5, v2, v2", "vfmacc.vv v6, v4, v5",
         "vse64.v v3, (x11)", "vse64.v v5, (x10)")
_VLS = (4, 12, 16)
_BASES = (0x10000, 0x10040, 0x20000)
_SCALARS = (0, 2, 60)


@st.composite
def _window_shape(draw):
    """(body as indices into _BODY, vl, x10, x11, scalar_before of each op)"""
    body = draw(st.lists(st.integers(0, len(_BODY) - 1), min_size=2, max_size=6))
    return (tuple(body), draw(st.sampled_from(_VLS)), draw(st.sampled_from(_BASES)),
            draw(st.sampled_from(_BASES)),
            tuple(draw(st.sampled_from(_SCALARS)) for _ in body))


@st.composite
def _windows(draw):
    """Windows drawn from one or two shapes, each as drawn or with one thing
    changed: its vl, one base address, or one op's scalar_before."""
    shapes = draw(st.lists(_window_shape(), min_size=1, max_size=2))
    windows = []
    for _ in range(draw(st.integers(1, 4))):
        body, vl, x10, x11, scalars = draw(st.sampled_from(shapes))
        change = draw(st.sampled_from(["none", "vl", "x10", "x11", "scalar"]))
        if change == "vl":
            vl = draw(st.sampled_from(_VLS))
        elif change == "x10":
            x10 = draw(st.sampled_from(_BASES))
        elif change == "x11":
            x11 = draw(st.sampled_from(_BASES))
        elif change == "scalar":
            op = draw(st.integers(0, len(body) - 1))
            scalars = (*scalars[:op], draw(st.sampled_from(_SCALARS)), *scalars[op + 1:])
        windows.append((body, vl, x10, x11, scalars))
    return windows


def _reuse_stream(windows):
    """A stream of one window per tuple, each behind its own vsetvli and
    base addresses."""
    lines = [".xreg x1 16", "vsetvli x2, x1, e64, m1", "vid.v v8", "vsll.vi v8, v8, 3",
             ".memf64 0x10000 " + " ".join(str(float(k)) for k in range(24))]
    for number, (body, vl, x10, x11, scalars) in enumerate(windows, start=1):
        lines += [f".xreg x1 {vl}", "vsetvli x2, x1, e64, m1", f".window {number}",
                  f".xreg x10 {x10:#x}", f".xreg x11 {x11:#x}"]
        for op, scalar in zip(body, scalars):
            lines += [f".scalar {scalar}"] * (scalar > 0) + [_BODY[op]]
    return parse_vstream("\n".join(lines) + "\n")


@settings(max_examples=100, deadline=None)
@given(_windows())
# pairs whose orders differ only through scalar_before, vl or the overlap set
@example([((1, 0, 0), 4, 0x10000, 0x10000, (0, 0, 0)),
          ((1, 0, 0), 4, 0x10000, 0x10000, (0, 2, 0))])
@example([((0, 4, 6, 2, 2), 4, 0x20000, 0x10000, (0, 0, 60, 60, 0)),
          ((0, 4, 6, 2, 2), 12, 0x20000, 0x10000, (0, 0, 60, 60, 0))])
@example([((0, 0, 0, 1, 6), 4, 0x10000, 0x10000, (0, 0, 0, 0, 0)),
          ((0, 0, 0, 1, 6), 4, 0x10040, 0x10000, (0, 0, 0, 0, 0))])
def test_reused_orders_match_scheduling_every_window(windows):
    # an order also reads the model's state before the first unit of its key,
    # so no order is recomputed here: each key is ordered once, its order is
    # legal for each unit of the key, and each of them is permuted by it
    items = _reuse_stream(windows + windows)  # every window shape twice
    params = TimingParams()
    orders, original = {}, scheduler.reschedule_order

    def ordered(window, params=None, **kw):
        key = tuple((r.instr, r.vl, r.scalar_before) for r in window), kw["conflicts"]
        assert key not in orders
        orders[key] = original(window, params, **kw)
        return orders[key]

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(scheduler, "reschedule_order", ordered)
        scheduled, before, after = schedule_stream(items, params)
    records, positions, units = _units(items)
    units = [unit for unit in units if unit.stop - unit.start > 1]
    keys = _unit_keys(items)
    assert orders.keys() == set(keys)
    expected = list(items)
    for unit, key in zip(units, keys):
        order = orders[key]
        slot_of = {source: slot for slot, source in enumerate(order)}
        assert sorted(order) == list(range(len(order)))
        assert all(slot_of[src] < slot_of[dst] for src, dst in build_dependences(records[unit]))
        base = positions[unit.start]
        for slot, source in enumerate(order):
            expected[base + slot] = items[base + source]
    cycles = simulate(run(None, expected)[1], params)[1].total_cycles
    if cycles > before:  # the whole stream got slower, so the input comes back
        assert (scheduled, after) == (items, before)
    else:
        assert (scheduled, after) == (expected, cycles)


def _unit_keys(items):
    """The key of each unit of two or more instructions, in stream order."""
    records, _, units = _units(items)
    return [(tuple((r.instr, r.vl, r.scalar_before) for r in records[unit]),
             frozenset(scheduler._memory_conflicts(records[unit])))
            for unit in units if unit.stop - unit.start > 1]


@pytest.mark.parametrize("variant, n, follows",
                         [("naive", 128, (66, 75)), ("wide", 1024, (20, 32))])
def test_most_ordered_units_run_right_after_a_copy_of_themselves(variant, n, follows):
    # a unit is ordered after what runs before it, in these streams mostly a
    # copy of itself, whose order the later copies of a loop body reuse
    records, _, units = _units(gen_fft(n=n, variant=variant, seed=1)[0])
    keys = [tuple((r.instr, r.vl, r.scalar_before) for r in records[unit]) for unit in units]
    ordered = [k for k, unit in enumerate(units) if unit.stop - unit.start > 1]
    assert (sum(k > 0 and keys[k - 1] == keys[k] for k in ordered), len(ordered)) == follows


def test_each_distinct_unit_is_ordered_once_per_call(monkeypatch):
    items, _ = gen_fft(n=128, variant="naive", seed=1)
    keys = _unit_keys(items)
    assert (len(keys), len(set(keys))) == (75, 7)
    calls, original = [], scheduler.reschedule_order
    monkeypatch.setattr(scheduler, "reschedule_order", lambda window, params=None, **kw:
                        calls.append(window) or original(window, params, **kw))
    first = schedule_stream(items)
    assert len(calls) == 7
    # no order outlives its call
    assert schedule_stream(items) == first
    assert len(calls) == 14
    assert first[1:] == (42655, 34643)

    # under two sets of timing parameters, in either order, each call gives
    # what it gives alone
    params = (TimingParams(), TimingParams(mem_latency_cycles=200, indexed_elems_per_cycle=4))
    in_order = [schedule_stream(items, p) for p in params]
    reversed_order = [schedule_stream(items, p) for p in reversed(params)][::-1]
    assert in_order == reversed_order
    assert in_order[0] == first and in_order[1] != first


def test_each_unit_sweeps_its_memory_conflicts_once(monkeypatch):
    items, _ = gen_fft(n=128, variant="naive", seed=1)
    sweeps, original = [], scheduler._memory_conflicts
    monkeypatch.setattr(scheduler, "_memory_conflicts",
                        lambda window: sweeps.append(len(window)) or original(window))
    schedule_stream(items)
    # one sweep per unit of two or more records, none again for the 7 ordered
    assert len(sweeps) == 75 and min(sweeps) >= 2
    # a window given directly is still swept
    build_dependences(run(None, items)[1][:8])
    assert len(sweeps) == 76


@pytest.mark.parametrize("variant, n, unscheduled, at_most", [
    ("naive", 128, 42655, 34643), ("wide", 1024, 43091, 36211)])
def test_earliest_start_scheduling_gains_on_the_fft(variant, n, unscheduled, at_most):
    items, _ = gen_fft(n=n, variant=variant, seed=1)
    scheduled, before, after = schedule_stream(items)
    assert before == unscheduled and after <= at_most
    assert verify_equivalence(None, items, scheduled)


def _model_fields(state):
    """What a `ModelState` holds, copied, so a later change to it shows."""
    return {name: copy.copy(getattr(state, name)) for name in ModelState.__slots__}


def _context_kept():
    """`reschedule_order`, checking that it leaves its ``context`` as it was."""
    original = scheduler.reschedule_order

    def ordered(window, params=None, **kw):
        context = _model_fields(kw["context"])
        order = original(window, params, **kw)
        assert _model_fields(kw["context"]) == context
        return order
    return ordered


def _assert_cycles_after_simulated(items, params):
    scheduled, before, after = schedule_stream(items, params)
    assert before == simulate(run(None, items)[1], params)[1].total_cycles
    assert after == simulate(run(None, scheduled)[1], params)[1].total_cycles
    return before, after


@pytest.mark.parametrize("depth", [1, 2, 16])
@pytest.mark.parametrize("chaining", [False, True])
@pytest.mark.parametrize("variant, n", [("naive", 128), ("wide", 1024)])
def test_cycles_after_is_the_scheduled_streams_simulate(variant, n, chaining, depth,
                                                         monkeypatch):
    monkeypatch.setattr(scheduler, "reschedule_order", _context_kept())
    items, _ = gen_fft(n=n, variant=variant, seed=1)
    before, after = _assert_cycles_after_simulated(
        items, TimingParams(chaining=chaining, vector_queue_depth=depth))
    assert after < before


@settings(max_examples=50, deadline=None)
@given(st.integers(0, 2 ** 32 - 1), st.integers(1, 3), st.booleans(), st.integers(1, 16))
def test_cycles_after_is_the_simulate_of_random_scheduled_streams(seed, streams, chaining,
                                                                  depth):
    # one to three random streams in a row, so units follow other units
    rng = np.random.default_rng(seed)
    items = parse_vstream("".join(random_window_stream(rng) for _ in range(streams)))
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(scheduler, "reschedule_order", _context_kept())
        _assert_cycles_after_simulated(
            items, TimingParams(chaining=chaining, vector_queue_depth=depth))


@settings(max_examples=100, deadline=None)
@given(st.integers(0, 2 ** 32 - 1), st.integers(0, 40), st.booleans(), st.integers(1, 16))
def test_an_order_never_ends_later_after_its_context(seed, placed, chaining, depth):
    rng = np.random.default_rng(seed)
    params = TimingParams(chaining=chaining, vector_queue_depth=depth)
    prefix = run(None, random_window_stream(rng))[1][:placed]
    window = [r for r in run(None, random_window_stream(rng))[1] if r.window_id == 1]
    context = ModelState(params)
    context.place(prefix)
    fields = _model_fields(context)
    order = reschedule_order(window, params, context=context)
    assert _model_fields(context) == fields
    ends = []
    for records in ([window[i] for i in order], window):
        state = context.copy()
        state.place(records)
        ends.append(state.counters().total_cycles)
    assert ends[0] <= ends[1]
