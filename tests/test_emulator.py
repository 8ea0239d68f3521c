import numpy as np
import pytest

from sdvkit.config import MachineConfig, Vtype
from sdvkit.emulator import MachineState, apply_vsetvli, fused_madd, run, step
from sdvkit.errors import (EmulationError, OutOfBoundsAccess,
                           UnsupportedVtype)
from sdvkit.tracefile import write_trace
from sdvkit.vstream import ItemKind, parse_vstream
from sdvkit.workloads import gen_axpy, oracle_axpy, read_f64_array


def _run(text, config=None):
    return run(config, text)


def _floats(state, reg, vl):
    return state.vregs[reg, :vl].view(np.float64).tolist()


def test_vsetvli_clamps_to_vlmax():
    state = MachineState.create()
    assert apply_vsetvli(state, 300, Vtype(64, 1)) == 256
    assert apply_vsetvli(state, 100, Vtype(64, 1)) == 100
    assert apply_vsetvli(state, 0, Vtype(64, 1)) == 0


def test_vsetvli_law_sample():
    rng = np.random.default_rng(11)
    state = MachineState.create()
    for avl in rng.integers(0, 5000, size=1000):
        assert apply_vsetvli(state, int(avl), Vtype(64, 1)) == min(int(avl), 256)


def test_unsupported_vtype_sets_vill():
    state = MachineState.create()
    with pytest.raises(UnsupportedVtype):
        apply_vsetvli(state, 10, Vtype(8, 1))
    assert state.vtype.vill


def test_vsetvli_writes_rd_and_x0_is_discarded():
    _, records = _run(".xreg x2 100\nvsetvli x1, x2, e64, m1\n")
    state, _ = _run(".xreg x2 100\nvsetvli x1, x2, e64, m1\n")
    assert state.xregs[1] == 100
    state, _ = _run(".xreg x2 100\nvsetvli x0, x2, e64, m1\n")
    assert state.xregs[0] == 0


def test_vsetvli_x0_rs1_forms():
    # rs1=x0, rd!=x0 requests the maximum length
    state, _ = _run("vsetvli x1, x0, e64, m1\n")
    assert state.vl == 256 and state.xregs[1] == 256
    # rs1=x0, rd=x0 keeps the current vl
    state, _ = _run(".xreg x2 5\nvsetvli x1, x2, e64, m1\nvsetvli x0, x0, e64, m1\n")
    assert state.vl == 5


def test_elementwise_fp_add():
    text = (".xreg x1 4\nvsetvli x2, x1, e64, m1\n"
            ".memf64 0x1000 1 2 3 4\n.memf64 0x2000 5 5 5 5\n"
            ".xreg x10 0x1000\n.xreg x11 0x2000\n"
            "vle64.v v2, (x10)\nvle64.v v3, (x11)\nvfadd.vv v1, v2, v3\n")
    state, records = _run(text)
    assert _floats(state, 1, 4) == [6.0, 7.0, 8.0, 9.0]


def test_load_store_copy_identity():
    text = (".xreg x1 8\nvsetvli x2, x1, e64, m1\n"
            ".memf64 0x1000 1 2 3 4 5 6 7 8\n"
            ".xreg x10 0x1000\n.xreg x11 0x3000\n"
            "vle64.v v4, (x10)\nvse64.v v4, (x11)\n")
    state, _ = _run(text)
    src = state.memory.read_bytes(0x1000, 64)
    dst = state.memory.read_bytes(0x3000, 64)
    assert src == dst


def test_indexed_gather_per_element_rule():
    text = (".xreg x1 3\nvsetvli x2, x1, e64, m1\n"
            ".memf64 0x1000 10\n.memf64 0x1008 11\n.memf64 0x1010 12\n"
            ".memu64 0x4000 16 0 8\n"
            ".xreg x10 0x1000\n.xreg x11 0x4000\n"
            "vle64.v v2, (x11)\nvluxei64.v v1, (x10), v2\n")
    state, records = _run(text)
    assert _floats(state, 1, 3) == [12.0, 10.0, 11.0]
    gather = records[-1]
    assert gather.addresses == ((0x1010, 8), (0x1000, 16))  # runs coalesced


def test_strided_negative_stride():
    stride = (-8) & ((1 << 64) - 1)
    text = (".xreg x1 3\nvsetvli x2, x1, e64, m1\n"
            ".memf64 0x1000 1 2 3\n"
            f".xreg x10 0x1010\n.xreg x12 {stride}\n"
            "vlse64.v v1, (x10), x12\n")
    state, _ = _run(text)
    assert _floats(state, 1, 3) == [3.0, 2.0, 1.0]


def test_vl_zero_leaves_destination_untouched():
    text = (".xreg x1 4\nvsetvli x2, x1, e64, m1\n"
            ".memf64 0x1000 1 2 3 4\n.xreg x10 0x1000\nvle64.v v1, (x10)\n"
            ".xreg x1 0\nvsetvli x2, x1, e64, m1\nvfadd.vv v1, v1, v1\n")
    state, records = _run(text)
    assert _floats(state, 1, 4) == [1.0, 2.0, 3.0, 4.0]
    assert records[-1].vl == 0


def test_tail_elements_undisturbed():
    text = (".xreg x1 4\nvsetvli x2, x1, e64, m1\n"
            ".memf64 0x1000 1 2 3 4\n.xreg x10 0x1000\nvle64.v v1, (x10)\n"
            ".xreg x1 2\nvsetvli x2, x1, e64, m1\nvfadd.vv v1, v1, v1\n")
    state, _ = _run(text)
    assert _floats(state, 1, 4) == [2.0, 4.0, 3.0, 4.0]


def test_vrgather_out_of_range_yields_zero():
    text = (".xreg x1 4\nvsetvli x2, x1, e64, m1\n"
            ".memf64 0x1000 10 11 12 13\n.memu64 0x2000 3 9 0 1\n"
            ".xreg x10 0x1000\n.xreg x11 0x2000\n"
            "vle64.v v2, (x10)\nvle64.v v3, (x11)\nvrgather.vv v1, v2, v3\n")
    state, _ = _run(text)
    assert _floats(state, 1, 4) == [13.0, 0.0, 10.0, 11.0]


def test_integer_ops():
    text = (".xreg x1 4\nvsetvli x2, x1, e64, m1\n"
            ".xreg x3 10\nvid.v v1\nvadd.vx v2, v1, x3\n"
            "vsll.vi v3, v1, 3\n.xreg x4 1\nvand.vx v4, v1, x4\n"
            ".xreg x5 3\nvmul.vx v5, v1, x5\nvadd.vv v6, v1, v5\n")
    state, _ = _run(text)
    assert state.vregs[1, :4].tolist() == [0, 1, 2, 3]
    assert state.vregs[2, :4].tolist() == [10, 11, 12, 13]
    assert state.vregs[3, :4].tolist() == [0, 8, 16, 24]
    assert state.vregs[4, :4].tolist() == [0, 1, 0, 1]
    assert state.vregs[5, :4].tolist() == [0, 3, 6, 9]
    assert state.vregs[6, :4].tolist() == [0, 4, 8, 12]


def test_fused_madd_single_rounding():
    eps = 2.0 ** -52
    a = 1.0 + eps
    c = -(1.0 + 2 * eps)
    assert a * a + c == 0.0               # two roundings lose the low product bits
    assert fused_madd(a, a, c) == eps * eps


def test_vfmacc_is_fused():
    eps = 2.0 ** -52
    text = (".xreg x1 1\nvsetvli x2, x1, e64, m1\n"
            f".memf64 0x1000 {1 + eps!r}\n.memf64 0x2000 {-(1 + 2 * eps)!r}\n"
            ".xreg x10 0x1000\n.xreg x11 0x2000\n"
            "vle64.v v1, (x10)\nvle64.v v2, (x11)\n"
            "vfmacc.vv v2, v1, v1\n")
    state, _ = _run(text)
    assert _floats(state, 2, 1) == [eps * eps]


def test_out_of_bounds_access():
    config = MachineConfig(memory_bytes=0x1000)
    text = ".xreg x1 4\nvsetvli x2, x1, e64, m1\n.xreg x10 0xff8\nvle64.v v1, (x10)\n"
    with pytest.raises(EmulationError) as excinfo:
        _run(text, config)
    assert excinfo.value.seq == 1  # aborted on the second record
    assert isinstance(excinfo.value.cause, OutOfBoundsAccess)


def test_indexed_fault_reports_element():
    config = MachineConfig(memory_bytes=0x2000)
    text = (".xreg x1 2\nvsetvli x2, x1, e64, m1\n"
            ".memu64 0x1000 0 0x4000\n.xreg x10 0x1000\n.xreg x11 0x1000\n"
            "vle64.v v2, (x11)\nvluxei64.v v1, (x10), v2\n")
    with pytest.raises(EmulationError) as excinfo:
        _run(text, config)
    assert excinfo.value.cause.element == 1


def test_stores_have_no_partial_effect_on_fault():
    config = MachineConfig(memory_bytes=0x2000)
    text = (".xreg x1 2\nvsetvli x2, x1, e64, m1\n"
            ".memu64 0x1000 0x1800 0x4000\n.xreg x10 0\n.xreg x11 0x1000\n"
            "vle64.v v2, (x11)\n.xreg x3 7\nvid.v v3\nvadd.vx v3, v3, x3\n"
            "vsuxei64.v v3, (x10), v2\n")
    items = parse_vstream(text)
    state = MachineState.create(config)
    for item in items[:-1]:
        step(state, item)
    with pytest.raises(OutOfBoundsAccess):
        step(state, items[-1])
    # the in-bounds element (offset 0x1800) must not have been written
    assert state.memory.read_u64(0x1800) == 0


def test_empty_stream():
    state, records = _run("")
    assert records == []
    assert state.vl == 0 and state.instret == 0


def test_record_count_matches_instruction_items():
    text = ".phase 1\n.xreg x1 4\nvsetvli x2, x1, e64, m1\nvid.v v1\nvid.v v2\n"
    items = parse_vstream(text)
    _, records = run(None, items)
    assert len(records) == sum(1 for i in items if i.kind == ItemKind.INSTRUCTION)
    assert [r.seq for r in records] == [0, 1, 2]


def test_determinism():
    items, _ = gen_axpy(100, 3.0, seed=5)
    _, rec_a = run(None, items)
    _, rec_b = run(None, items)
    assert write_trace(rec_a) == write_trace(rec_b)


def test_axpy_against_oracle():
    rng = np.random.default_rng(3)
    x = rng.integers(-1000, 1000, 1000).astype(float)
    y = rng.integers(-1000, 1000, 1000).astype(float)
    items, manifest = gen_axpy(1000, 3.0, x=x, y=y)
    state, _ = run(None, items)
    got = read_f64_array(state.memory, manifest["y"], 1000)
    expected = oracle_axpy(3.0, x, y)
    assert np.array_equal(got, expected)  # exact for integer-valued doubles
