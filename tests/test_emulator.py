import hashlib
import math
import struct
import time
import warnings
from fractions import Fraction
from itertools import accumulate

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sdvkit import emulator
from sdvkit.cli import main as cli_main
from sdvkit.config import MachineConfig, Vtype
from sdvkit.emulator import (_SHORT_LANES, Memory, MachineState, _coalesce, _exact_fused_madd,
                             apply_vsetvli, fused_madd, run, step)
from sdvkit.errors import (EmulationError, OutOfBoundsAccess,
                           UnsupportedVtype)
from sdvkit.scheduler import _snapshot
from sdvkit.tracefile import write_trace
from sdvkit.vstream import ItemKind, parse_vstream
from sdvkit.workloads import gen_axpy, gen_fft, oracle_axpy, read_f64_array


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


E64_M1_BITS = 0b011 << 3  # vsew=e64 in bits 5:3, vlmul=m1 in bits 2:0


@pytest.mark.parametrize("avl, vl", [(300, 256), (100, 100)])
def test_vsetvl_takes_the_type_from_rs2(avl, vl):
    state, records = _run(f".xreg x1 {avl}\n.xreg x3 {E64_M1_BITS}\nvsetvl x2, x1, x3\n")
    assert (state.vl, state.xregs[2], records[-1].vl) == (vl, vl, vl)
    assert state.vtype == Vtype(64, 1)


# (rs2 value, the reason its message gives, the ill-formed type it leaves)
_VSETVL_REJECTIONS = {
    "vill bit": (E64_M1_BITS | 1 << 63, "vill bit set", Vtype(64, 1, vill=True)),
    "reserved bit 8": (E64_M1_BITS | 1 << 8, "reserved bits 8-62 set", Vtype(0, 0, vill=True)),
    "reserved bit 62": (E64_M1_BITS | 1 << 62, "reserved bits 8-62 set", Vtype(0, 0, vill=True)),
    "e32": (0b010 << 3, "unsupported type e32/m1", Vtype(32, 1, vill=True)),
    "reserved vsew": (0b100 << 3, "reserved element width", Vtype(0, 0, vill=True)),
    "reserved vlmul": (E64_M1_BITS | 0b100, "fractional or reserved group multiplier",
                       Vtype(0, 0, vill=True)),
}


@pytest.mark.parametrize("bits, why, vtype", _VSETVL_REJECTIONS.values(),
                         ids=_VSETVL_REJECTIONS.keys())
def test_vsetvl_rejects_an_unsupported_type_in_rs2(bits, why, vtype):
    text = f".xreg x1 4\n.xreg x3 {bits}\nvsetvl x2, x1, x3\n"
    with pytest.raises(EmulationError) as excinfo:
        _run(text)
    assert isinstance(excinfo.value.cause, UnsupportedVtype)
    state = MachineState.create()
    *directives, vsetvl = parse_vstream(text)
    for item in directives:
        step(state, item)
    with pytest.raises(UnsupportedVtype) as excinfo:
        step(state, vsetvl)
    # the message names the value asked for and why it was refused
    assert str(excinfo.value) == f"vsetvl rs2 value 0x{bits:x} rejected: {why}"
    assert state.vtype == vtype


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


_MEMORY_FORMS = ("vle64.v v1, (x{base})", "vse64.v v1, (x{base})",
                 "vlse64.v v1, (x{base}), x11", "vsse64.v v1, (x{base}), x11",
                 "vluxei64.v v1, (x{base}), v2", "vsuxei64.v v1, (x{base}), v2")


def test_strided_and_indexed_at_vl_zero_touch_only_the_base():
    # every access form at vl=0, at a base inside memory (x10) and at one
    # past its end (x12): no fault, and nothing is written
    text = (".xreg x1 0\nvsetvli x2, x1, e64, m1\n.xreg x10 0x1000\n.xreg x11 8\n"
            ".xreg x12 0xfffffffffffffff8\n"
            + "".join(form.format(base=base) + "\n" for base in (10, 12) for form in _MEMORY_FORMS))
    state, records = _run(text)
    assert [r.addresses for r in records[1:]] == \
        [((0x1000, 0),)] * 6 + [((0xfffffffffffffff8, 0),)] * 6
    assert state.memory.touched_pages() == {}


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


_U64_MAX = 2 ** 64 - 1

# The registers every compute case starts from: four lanes each, given as
# u64 words (ints) or doubles (floats); every other lane is 0.
_COMPUTE_INIT = {
    1: [_U64_MAX, 3, 2 ** 63, 11],
    2: [5, _U64_MAX - 1, 7, 12],
    3: [1.5, -2.0, 8.0, 100.0],
    4: [0.25, 3.0, -0.5, 200.0],
    5: [2, 0, 300, 13],  # gather indices; 300 is past VLMAX
    6: [10.0, 1.0, -4.0, 300.0],
    7: [2, 0, 3, 1],  # gather indices in [vl, VLMAX) read the source too
    8: [111, 222, 333, 444],
}

# instruction -> its destination's four lanes after it runs at vl=3; the
# fourth lane is the tail and keeps its old value
_COMPUTE_CASES = {
    "vadd.vv v8, v2, v1": [4, 1, 2 ** 63 + 7, 444],
    "vadd.vx v8, v1, x5": [_U64_MAX - 1, 2, 2 ** 63 - 1, 444],
    "vmul.vx v8, v1, x5": [1, _U64_MAX - 2, 2 ** 63, 444],
    "vand.vx v8, v2, x6": [1, 2, 3, 444],
    "vsll.vi v8, v1, 4": [_U64_MAX - 15, 48, 0, 444],
    "vid.v v8": [0, 1, 2, 444],
    "vfadd.vv v8, v3, v4": [1.75, 1.0, 7.5, 444],
    "vfsub.vv v8, v3, v4": [1.25, -5.0, 8.5, 444],  # vs2 - vs1
    "vfmul.vv v8, v3, v4": [0.375, -6.0, -4.0, 444],
    "vfmacc.vv v6, v3, v4": [10.375, -5.0, -8.0, 300.0],  # vd + vs1*vs2
    "vfmacc.vv v3, v3, v4": [1.875, -8.0, 4.0, 100.0],  # vd aliases vs1
    "vfmv.v.f v8, f1": [2.5, 2.5, 2.5, 444],
    "vrgather.vv v8, v2, v5": [7, 5, 0, 444],  # vs2[vs1]
    "vrgather.vv v2, v2, v5": [7, 5, 0, 12],  # vd aliases vs2
    "vrgather.vv v5, v2, v5": [7, 5, 0, 13],  # vd aliases vs1
    "vrgather.vv v8, v2, v7": [7, 5, 12, 444],  # index 3 >= vl reads vs2[3]
}


def _words(lanes) -> list[int]:
    return [int(np.float64(v).view(np.uint64)) if isinstance(v, float) else v
            for v in lanes]


@pytest.mark.parametrize("vl", [3, 0])
@pytest.mark.parametrize("text", _COMPUTE_CASES)
def test_compute_semantics_per_element(text, vl):
    state = MachineState.create()
    for reg, lanes in _COMPUTE_INIT.items():
        state.vregs[reg, :4] = _words(lanes)
    state.xregs[5], state.xregs[6], state.fregs[1] = _U64_MAX, 3, 2.5
    apply_vsetvli(state, vl, Vtype(64, 1))
    want = state.vregs.copy()
    (item,) = parse_vstream(text)
    if vl:
        want[item.instr.vd, :4] = _words(_COMPUTE_CASES[text])
    assert step(state, item).vl == vl
    # every other register and lane, the sources included, is untouched
    assert state.vregs.tolist() == want.tolist()


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


def _bits(x: float) -> int:
    return struct.unpack("<Q", struct.pack("<d", x))[0]


def _from_bits(bits: int) -> float:
    return struct.unpack("<d", struct.pack("<Q", bits))[0]


_SPECIALS = [0.0, -0.0, 1.0, -1.5, 5e-324, -5e-324, 2.0 ** -1022, 2.0 ** 1000,
             1.7976931348623157e308, math.inf, -math.inf, math.nan]


@st.composite
def _fma_lane(draw):
    """One (a, b, c) lane, from IEEE special values, random bit patterns,
    exponents across the whole range, products and sums at the edges of that
    range, near-cancellation, and sums whose low part lands near half an ulp
    of the result (where rounding twice fails)."""
    kind = draw(st.sampled_from(["special", "floats", "bits", "scaled", "edge",
                                 "cancel", "tie"]))
    if kind == "special":
        return tuple(draw(st.sampled_from(_SPECIALS)) for _ in range(3))
    if kind == "floats":
        return tuple(draw(st.floats(width=64)) for _ in range(3))
    if kind == "bits":
        return tuple(_from_bits(draw(st.integers(0, 2 ** 64 - 1))) for _ in range(3))

    def scaled(exponent):
        unit = draw(st.floats(1.0, 2.0, exclude_max=True))
        return draw(st.sampled_from([1.0, -1.0])) * float(np.ldexp(unit, exponent))

    if kind == "scaled":
        return tuple(scaled(draw(st.integers(-1074, 1023))) for _ in range(3))
    if kind == "edge":
        if draw(st.booleans()):  # products up to the largest double; c may overflow the sum
            a = scaled(draw(st.integers(400, 600)))
            product = draw(st.floats(2.0 ** 1020, 1.7976931348623157e308))
            return a, product / a, scaled(1023)
        product = draw(st.integers(-1100, -950))  # products near underflow
        ea = product // 2 + draw(st.integers(-40, 40))
        return scaled(ea), scaled(product - ea), scaled(product + draw(st.integers(-60, 3)))
    a = scaled(draw(st.integers(-500, 500)))
    if kind == "cancel":
        b = scaled(draw(st.integers(-500, 500)))
        return a, b, -(a * b) + draw(st.integers(-4, 4)) * float(np.spacing(a * b))
    c = scaled(draw(st.integers(-400, 400)))
    half_ulps = (draw(st.integers(0, 3)) + 0.5) * float(np.spacing(abs(c)))
    return a, draw(st.sampled_from([1.0, -1.0])) * half_ulps / a, c


def _scaled(rng, n, low, high):
    return rng.uniform(1.0, 2.0, n) * np.exp2(rng.integers(low, high, n)) * rng.choice([-1.0, 1.0], n)


def _fraction_fused_madd(a: float, b: float, c: float) -> float:
    """Test-side reference: a*b + c with a single rounding, by exact rational
    arithmetic."""
    if not (math.isfinite(a) and math.isfinite(b)):
        return a * b + c
    if not math.isfinite(c):
        return c  # the exact product is finite, however large its rounding
    exact = Fraction(a) * Fraction(b) + Fraction(c)
    if exact == 0:
        product = a * b
        if product == 0.0:
            return product + c  # IEEE signed-zero addition rules
        return 0.0
    try:
        return float(exact)
    except OverflowError:
        return math.inf if exact > 0 else -math.inf


@settings(max_examples=400, deadline=None)
@given(_fma_lane())
def test_exact_fused_madd_matches_rational_oracle(lane):
    assert _bits(_exact_fused_madd(*lane)) == _bits(_fraction_fused_madd(*lane))


@settings(max_examples=400, deadline=None)
@given(st.lists(_fma_lane(), min_size=1, max_size=8))
def test_vector_fused_madd_matches_exact_oracle(lanes):
    want = [_bits(_fraction_fused_madd(*lane)) for lane in lanes]
    # as drawn, a short vector for the exact routine; repeated past the
    # cutoff, a long one for the error-free path
    for copies in (1, _SHORT_LANES // len(lanes) + 1):
        a, b, c = (np.array(column * copies, dtype=np.float64) for column in zip(*lanes))
        assert [_bits(x) for x in fused_madd(a, b, c).tolist()] == want * copies
    assert _bits(fused_madd(*lanes[0])) == want[0]  # the scalar form


@pytest.mark.parametrize("lanes", [_SHORT_LANES, _SHORT_LANES + 1])
def test_fused_madd_at_the_short_vector_cutoff(lanes, monkeypatch):
    """Up to the cutoff every lane goes to the exact routine, past it none of
    these in-range lanes does; both give the single-rounding result on
    products a few half-ulps of c, where rounding twice fails."""
    rng = np.random.default_rng(lanes)
    a, c = _scaled(rng, lanes, 400, 600), _scaled(rng, lanes, -50, 50)
    half_ulps = (rng.integers(0, 4, lanes) + 0.5) * np.spacing(np.abs(c))
    b = half_ulps * rng.choice([-1.0, 1.0], lanes) / a
    calls = []
    monkeypatch.setattr(emulator, "_exact_fused_madd",
                        lambda *lane: calls.append(lane) or _exact_fused_madd(*lane))
    got = fused_madd(a, b, c)
    assert len(calls) == (lanes if lanes <= _SHORT_LANES else 0)
    want = [_fraction_fused_madd(*lane) for lane in zip(a.tolist(), b.tolist(), c.tolist())]
    assert got.view(np.uint64).tolist() == [_bits(x) for x in want]
    assert got.tolist() != (a * b + c).tolist()  # two roundings differ somewhere


@pytest.mark.parametrize("a, b, c, want", [
    (1e308, 10.0, -math.inf, -math.inf),  # the exact product is finite
    (-1e308, 10.0, math.inf, math.inf),
    (1e308, 10.0, math.nan, math.nan),
    (math.inf, 0.0, 1.0, math.nan),       # invalid: inf * 0
])
def test_fused_madd_with_a_non_finite_operand(a, b, c, want):
    lanes = np.array([a, 1.0]), np.array([b, 2.0]), np.array([c, 3.0])
    for got in (fused_madd(a, b, c), float(fused_madd(*lanes)[0])):
        if math.isnan(want):
            assert math.isnan(got)
        else:
            assert got == want
    assert fused_madd(*lanes)[1] == 5.0


def test_fp_overflow_gives_ieee_results_without_warnings(tmp_path, capsys):
    text = (".xreg x1 2\n.xreg x10 0x1000\n.memf64 0x1000 1e308 1e308\n"
            "vsetvli x2, x1, e64, m1\nvle64.v v1, (x10)\n"
            "vfadd.vv v2, v1, v1\nvfmul.vv v3, v1, v1\n")
    stream = tmp_path / "overflow.vs"
    stream.write_text(text)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        state, _ = run(None, text)
        assert cli_main(["emulate", str(stream), "-o", str(tmp_path / "o.trace")]) == 0
    assert _floats(state, 2, 2) == _floats(state, 3, 2) == [math.inf, math.inf]
    assert capsys.readouterr().err == ""
    # a difference that overflows, and a fused multiply-add whose product
    # does, on the short-vector path (vl 4) and on the error-free one (vl 32)
    for vl in (4, 32):
        text = (f".xreg x1 {vl}\n.xreg x10 0x1000\n.xreg x11 0x2000\n"
                f".memf64 0x1000 {' '.join(['1e308'] * vl)}\n"
                f".memf64 0x2000 {' '.join(['-1e308'] * vl)}\n"
                "vsetvli x2, x1, e64, m1\nvle64.v v1, (x10)\nvle64.v v5, (x11)\n"
                "vfsub.vv v4, v1, v5\nvfmacc.vv v6, v1, v1\nvfmacc.vv v7, v1, v5\n")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            state, _ = run(None, text)
        assert _floats(state, 4, vl) == _floats(state, 6, vl) == [math.inf] * vl, vl
        assert _floats(state, 7, vl) == [-math.inf] * vl, vl


def test_step_follows_the_callers_fp_error_state():
    """`run` keeps FP exceptions quiet; a lone `step` leaves that to its caller."""
    state = MachineState.create()
    items = parse_vstream(".xreg x1 2\n.xreg x10 0x1000\n.memf64 0x1000 1e308 1e308\n"
                          "vsetvli x2, x1, e64, m1\nvle64.v v1, (x10)\n"
                          "vfadd.vv v2, v1, v1\n")
    for item in items[:-1]:
        step(state, item)
    with np.errstate(over="raise"), pytest.raises(FloatingPointError):
        step(state, items[-1])


def test_vector_fused_madd_matches_exact_oracle_at_every_bound():
    """Seeded lanes aimed at each bound of the error-free path and at its
    round-to-odd step, so that dropping any of them fails here."""
    rng = np.random.default_rng(2008)
    n = 3000
    a_mid = _scaled(rng, n, 400, 600)
    a_low = _scaled(rng, n, -560, -500)
    c_half = _scaled(rng, n, -50, 50)
    families = {
        "split overflow": (_scaled(rng, n, 990, 1000), _scaled(rng, n, -100, 20),
                           _scaled(rng, n, -100, 1000)),
        "product near the largest double": (
            a_mid, np.finfo(np.float64).max * (1 - rng.uniform(0, 2.0 ** -20, n)) / a_mid,
            _scaled(rng, n, 900, 1000)),
        "sum overflow": (a_mid, _scaled(rng, n, 1019, 1021) / a_mid, _scaled(rng, n, 1023, 1024)),
        "product underflow": (a_low, _scaled(rng, n, -1090, -960) / a_low,
                              _scaled(rng, n, -1074, -1000)),
        "half-ulp ties": (a_mid, (rng.integers(0, 4, n) + 0.5) * np.spacing(np.abs(c_half))
                          * rng.choice([-1.0, 1.0], n) / a_mid, c_half),
    }
    for name, (a, b, c) in families.items():
        want = [_fraction_fused_madd(*lane) for lane in zip(a.tolist(), b.tolist(), c.tolist())]
        got = fused_madd(a, b, c)
        assert got.view(np.uint64).tolist() == [_bits(x) for x in want], name


_LIMIT = 3 * 4096 + 4  # not a multiple of 8: the bound cuts an aligned word
_ADDRESS = st.one_of(st.integers(0, _LIMIT + 16),
                     st.builds(lambda page, delta: page * 4096 + delta,
                               st.integers(1, 3), st.integers(-12, 4)),
                     st.integers(2 ** 64 - 16, 2 ** 64 - 1))


class _ByteModel:
    """Test-side reference: element by element, one dict entry per byte."""

    def __init__(self, limit):
        self.limit = limit
        self.bytes = {}

    def _check(self, addrs):
        for i, addr in enumerate(addrs):
            if addr + 8 > self.limit:
                raise OutOfBoundsAccess(addr, i)

    def write(self, addrs, values):
        self._check(addrs)
        for addr, value in zip(addrs, values):
            for k, byte in enumerate(value.to_bytes(8, "little")):
                self.bytes[addr + k] = byte

    def read(self, addrs):
        self._check(addrs)
        return [int.from_bytes(bytes(self.bytes.get(addr + k, 0) for k in range(8)), "little")
                for addr in addrs]

    def image(self):
        return bytes(self.bytes.get(addr, 0) for addr in range(self.limit))


def _fault(call):
    try:
        return call(), None
    except OutOfBoundsAccess as err:
        return None, (err.address, err.element)


# a whole 8-byte word near a page boundary; the one at 3 * 4096 is the word
# `_LIMIT` cuts
_EDGE_WORD = st.builds(lambda page, delta: max(0, page * 4096 + 8 * delta),
                       st.integers(0, 3), st.integers(-6, 2))
_ALIGNED = st.one_of(st.integers(0, _LIMIT // 8 + 2).map(lambda word: 8 * word), _EDGE_WORD)


@st.composite
def _aligned_run(draw):
    """Consecutive words from near a page boundary, in either order."""
    start = draw(_EDGE_WORD)
    run = [start + 8 * k for k in range(draw(st.integers(1, 10)))]
    return run[::-1] if draw(st.booleans()) else run


@st.composite
def _rising_run(draw):
    """Strictly rising addresses, aligned or not, a few bytes to a few pages
    apart, from the first page's start or across a page boundary: inside one
    page or across pages, and past `_LIMIT` across the last boundary."""
    unit = draw(st.sampled_from([8, 8, 1]))  # 1: unaligned words that may overlap
    gap = draw(st.sampled_from([1, 4, 64, 600]))
    steps = draw(st.lists(st.integers(1, gap).map(lambda k: unit * k), min_size=1, max_size=20))
    boundary = 4096 * draw(st.integers(0, 3))
    start = max(0, boundary - draw(st.integers(0, sum(steps))))
    return list(accumulate(steps, initial=start + draw(st.sampled_from([0, 0, 1, 3, 7]))))


@st.composite
def _accesses(draw):
    ops = []
    for _ in range(draw(st.integers(1, 6))):
        addrs = draw(st.one_of(st.lists(_ADDRESS, min_size=1, max_size=12),
                               st.lists(_ALIGNED, min_size=1, max_size=12), _aligned_run(),
                               _rising_run()))
        if draw(st.booleans()):  # duplicates and overlapping words
            addrs += draw(st.lists(st.sampled_from(addrs), max_size=4))
        values = draw(st.lists(st.integers(0, 2 ** 64 - 1),
                               min_size=len(addrs), max_size=len(addrs)))
        ops.append((draw(st.booleans()), addrs, values))
    return ops


@settings(max_examples=300, deadline=None)
@given(_accesses())
def test_vector_memory_matches_per_element_reference(ops):
    memory, model = Memory(_LIMIT), _ByteModel(_LIMIT)
    # the first two pages start with distinct bytes, the third empty: a word
    # read from the wrong page, or from no page, shows
    image = np.random.default_rng(0).bytes(2 * 4096)
    memory.write_bytes(0, image)
    model.bytes.update(enumerate(image))
    for is_write, addrs, values in ops:
        address = np.array(addrs, dtype=np.uint64)
        if is_write:
            value = np.array(values, dtype=np.uint64)
            before = memory.read_bytes(0, _LIMIT)
            _, fault = _fault(lambda: memory.write_u64(address, value))
            assert fault == _fault(lambda: model.write(addrs, values))[1]
            if fault:
                assert memory.read_bytes(0, _LIMIT) == before  # no partial effect
        else:
            got, fault = _fault(lambda: memory.read_u64(address))
            want, want_fault = _fault(lambda: model.read(addrs))
            assert fault == want_fault
            if not fault:
                assert got.tolist() == want
    assert memory.read_bytes(0, _LIMIT) == model.image()


def test_an_empty_word_access_touches_nothing():
    memory, none = Memory(_LIMIT), np.array([], dtype=np.uint64)
    got = memory.read_u64(none)
    assert (got.dtype, got.shape) == (np.uint64, (0,))
    memory.write_u64(none, none)
    assert memory.touched_pages() == {}


@st.composite
def _rising_lanes(draw):
    """Up to 256 rising lane addresses modulo 2^64, a step of 8 or 16 bytes
    apart: one run, a run per lane, or runs of mixed lengths; some wrap."""
    start = draw(st.one_of(st.integers(0, 1 << 20), st.integers(2 ** 64 - 4096, 2 ** 64 - 1),
                           st.integers(1, 8).map(lambda words: 2 ** 64 - 8 * words)))
    strides = draw(st.sampled_from([(8,), (16,), (8, 16)]))
    steps = draw(st.lists(st.sampled_from(strides), max_size=255))
    return [addr % 2 ** 64 for addr in accumulate(steps, initial=start)]


@given(st.one_of(st.lists(st.one_of(st.integers(0, 64), st.integers(2 ** 64 - 24, 2 ** 64 - 1)),
                          min_size=1, max_size=20),
                 _rising_lanes()))
def test_coalesced_ranges_match_element_order_runs(addrs):
    runs = []
    for addr in addrs:
        if runs and addr == runs[-1][0] + runs[-1][1]:
            runs[-1][1] += 8
        else:
            runs.append([addr, 8])
    assert _coalesce(np.array(addrs, dtype=np.uint64), 8) == tuple(map(tuple, runs))


def test_indexed_address_wraps_modulo_2_64():
    text = (".xreg x1 0xffffffffffffff00\n.xreg x2 1\n.xreg x4 256\n"
            ".memu64 0x0 0x1234\nvsetvli x3, x2, e64, m1\n"
            "vid.v v1\nvadd.vx v2, v1, x4\nvluxei64.v v3, (x1), v2\n")
    state, records = _run(text)
    assert state.vregs[3, 0] == 0x1234
    assert records[-1].addresses == ((0, 8),)


def test_strided_address_wraps_modulo_2_64():
    # a memory that reaches the top of the address space: the stride steps
    # from the last word past 2^64 back to address 0
    config = MachineConfig(memory_bytes=1 << 64)
    text = (".xreg x1 2\nvsetvli x2, x1, e64, m1\n"
            ".memu64 0xfffffffffffffff8 7\n.memu64 0x0 9\n"
            ".xreg x10 0xfffffffffffffff8\n.xreg x11 8\nvlse64.v v1, (x10), x11\n")
    state, records = _run(text, config)
    assert state.vregs[1, :2].tolist() == [7, 9]
    assert records[-1].addresses == ((0xfffffffffffffff8, 8), (0, 8))
    # below address 0 a negative stride wraps to the top, out of bounds here
    text = (".xreg x1 2\nvsetvli x2, x1, e64, m1\n.xreg x10 0\n"
            ".xreg x11 0xfffffffffffffff8\nvlse64.v v1, (x10), x11\n")
    with pytest.raises(EmulationError) as excinfo:
        _run(text)
    cause = excinfo.value.cause
    assert (cause.address, cause.element) == (0xfffffffffffffff8, 1)


def test_directive_fault_names_first_word_that_does_not_fit():
    config = MachineConfig(memory_bytes=0x1014)
    for directive in (".memf64 0x1000 1 2 3 4", ".memu64 0x1000 1 2 3 4"):
        with pytest.raises(EmulationError) as excinfo:
            _run(directive + "\n", config)
        cause = excinfo.value.cause
        assert (cause.address, cause.element) == (0x1010, 2)


@pytest.mark.parametrize("line", [*(form.format(base=10) for form in _MEMORY_FORMS),
                                  ".memf64 0xff0 1 2 3 4", ".memu64 0xff0 1 2 3 4"])
def test_every_access_form_faults_at_the_first_word_that_does_not_fit(line):
    """Four words at 0xff0 with memory_bytes = 0x1000: unit-stride, strided
    (stride 8), indexed (offsets 0, 8, 16, 24) and directive forms all name
    the word at 0x1000, element 2, and change no register or memory."""
    config = MachineConfig(memory_bytes=0x1000)
    items = parse_vstream(".xreg x1 4\nvsetvli x2, x1, e64, m1\n.xreg x10 0xff0\n.xreg x11 8\n"
                          ".xreg x3 3\nvid.v v2\nvsll.vi v2, v2, 3\nvid.v v1\nvadd.vx v1, v1, x3\n"
                          ".memu64 0xfe8 5 6\n" + line + "\n")
    state = MachineState.create(config)
    for item in items[:-1]:
        step(state, item)
    before = _snapshot(None, state)
    with pytest.raises(OutOfBoundsAccess) as excinfo:
        step(state, items[-1])
    assert (excinfo.value.address, excinfo.value.element) == (0x1000, 2)
    assert _snapshot(None, state) == before


def _wide_stream(windows: int) -> list:
    """Windows of VL-256 records like the wide FFT's: unit-stride loads,
    FP arithmetic with an FMA, a register gather, an indexed scatter and a
    strided load, each window preceded by a memory directive."""
    values = " ".join(repr(1.0 + i / 256) for i in range(256))
    lines = [".xreg x1 256", "vsetvli x2, x1, e64, m1", f".memf64 0x100000 {values}",
             ".xreg x10 0x100000", ".xreg x11 0x200000", ".xreg x12 16",
             "vid.v v1", "vsll.vi v1, v1, 4"]
    for w in range(windows):
        lines += [f".memf64 0x{0x300000 + 64 * w:x} 1 2 3 4 5 6 7 8",
                  "vle64.v v2, (x10)", "vle64.v v3, (x10)", "vfmacc.vv v4, v2, v3",
                  "vfadd.vv v5, v4, v2", "vrgather.vv v6, v5, v1",
                  "vsuxei64.v v6, (x11), v1", "vlse64.v v7, (x11), x12"]
    return parse_vstream("\n".join(lines) + "\n")


def _per_record_seconds(items, repeats):
    best = float("inf")
    for _ in range(repeats):
        t0 = time.perf_counter()
        _, records = run(None, items)
        best = min(best, time.perf_counter() - t0)
    return best / len(records)


def test_run_scales_linearly():
    short, long = _wide_stream(32), _wide_stream(512)
    # best of several runs each, so a slow stretch of the host does not count
    ratio = _per_record_seconds(long, 2) / _per_record_seconds(short, 5)
    assert ratio < 3, f"per-record time grew {ratio:.1f}x from 32 to 512 windows"


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
    assert state.memory.read_bytes(0x1800, 8) == bytes(8)


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


# stream -> sha256 of its trace text and of its final architectural state,
# recorded from the emulator before it bound one handler per instruction
_PINNED_DIGESTS = {
    "naive n=64": ("7cfc020e2ac3b0c163e718a46b4dec37b7638567b3d35e4bac4aebef264ba849",
                   "0627ebe4de40cb3ad58721d9d25c896175e01591978fab9df109947fb8f2b9ce"),
    "wide n=64": ("60596a14944fd4655ede0b9bac9c01c36a658591088a1c655a1c1b515942a4b9",
                  "75e2ddd3f67180bbedddfeb1f973064a46b35355733812eaf6572fc8331cd468"),
    "axpy n=300": ("5f5ca5a82fdb0205f408c687559088b9019268b16a07cca09bc3cd35d8761529",
                   "934022b2ac600355ffe445908c65d4a01a2472eb939c5825c56fba7da94612a2"),
}


@pytest.mark.parametrize("stream", _PINNED_DIGESTS)
def test_emulator_outputs_match_pinned_digests(stream):
    """Trace bytes and the final-state snapshot `verify_equivalence` compares
    (pages in address order) stay bit-identical; axpy n=300 ends in a tail
    strip."""
    kind, n = stream.split(" n=")
    items = gen_axpy(int(n), 2.0)[0] if kind == "axpy" \
        else gen_fft(n=int(n), variant=kind, seed=1)[0]
    state, records = run(None, items)
    *registers, pages = _snapshot(None, state)
    snapshot = repr((*registers, sorted(pages.items())))
    assert (hashlib.sha256(write_trace(records).encode()).hexdigest(),
            hashlib.sha256(snapshot.encode()).hexdigest()) == _PINNED_DIGESTS[stream]


def test_machine_states_compare_by_identity():
    a, b = MachineState.create(), MachineState.create()
    assert a != b and not a == b
    assert a == a
