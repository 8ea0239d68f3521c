import math
import struct
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sdvkit import vstream, workloads
from sdvkit.errors import (MalformedNumber, StreamSyntaxError, UnknownDirective)
from sdvkit.isa import Instruction, parse_instruction
from sdvkit.vstream import (ItemKind, StreamBuilder, StreamItem, parse_vstream,
                            write_vstream)
from sdvkit.workloads import gen_axpy, gen_fft


def _instructions(items):
    return [i for i in items if i.kind == ItemKind.INSTRUCTION]


def test_phase_and_scalar_resolution():
    # the four state directives make no item; the items after them carry the values
    items = parse_vstream(".pc 0x40\n.phase 2\n.window 7\n.scalar 17\nvfadd.vv v1, v2, v3\n"
                          ".xreg x1 5\n.phase 3\n")
    assert items == [
        StreamItem(ItemKind.INSTRUCTION, 0x40, 2, 7, 17, Instruction("vfadd.vv", vd=1, vs2=2, vs1=3)),
        StreamItem(ItemKind.SET_XREG, 0x44, 2, 7, target=1, values=(5,))]


def test_scalar_is_one_shot():
    items = _instructions(parse_vstream(
        ".scalar 9\nvid.v v1\nvid.v v2\n"))
    assert [i.scalar_before for i in items] == [9, 0]


def test_xreg_then_instruction():
    items = parse_vstream(".xreg x10 0x1000\nvle64.v v4, (x10)\n")
    assert items[0].kind == ItemKind.SET_XREG
    assert items[0].target == 10 and items[0].values == (0x1000,)
    assert items[1].kind == ItemKind.INSTRUCTION
    assert items[1].instr.rs1 == 10


def test_pc_defaults_plus_four():
    items = _instructions(parse_vstream(
        ".pc 0x80000000\nvid.v v1\nvid.v v2\nvid.v v3\n"))
    assert [i.pc for i in items] == [0x80000000, 0x80000004, 0x80000008]


def test_initial_pc_is_zero():
    items = _instructions(parse_vstream("vid.v v1\nvid.v v2\n"))
    assert [i.pc for i in items] == [0, 4]


def test_unknown_directive():
    with pytest.raises(UnknownDirective) as excinfo:
        parse_vstream("vid.v v1\n.bogus 1\n")
    assert excinfo.value.line == 2


def test_malformed_number():
    with pytest.raises(MalformedNumber) as excinfo:
        parse_vstream(".phase zebra\n")
    assert excinfo.value.line == 1
    with pytest.raises(MalformedNumber):
        parse_vstream(".freg f1 not-a-float\n")


# (malformed line, its first bad token)
_MALFORMED = [
    (".pc -4", "-4"), (".pc 0x10000000000000000", "0x10000000000000000"),
    (".phase -3", "-3"), (".phase 4294967296", "4294967296"), (".window -1", "-1"),
    (".window 4294967296", "4294967296"), (".scalar -1", "-1"),
    (".scalar 0x100000000", "0x100000000"), (".memf64 -8 1.0", "-8"),
    (".memu64 0x10000000000000000 1", "0x10000000000000000"),
    (".xreg x1 0x10000000000000005", "0x10000000000000005"), (".memu64 0x100 -2", "-2"),
    # numbers outside the canonical forms
    (".xreg x1 1_6", "1_6"), (".phase +3", "+3"), (".scalar 0o7", "0o7"),
    (".memu64 0x100 0X10", "0X10"), (".xreg x1 0b101", "0b101"), (".pc 0x0010", "0x0010"),
    (".xreg x1 \u0661\u0666", "\u0661\u0666"), (".phase \uff13", "\uff13"),
    (".freg f1 \u0661.\u0665", "\u0661.\u0665"), (".memf64 0x10 1_0.5", "1_0.5"),
    (".xreg x1 " + "1" * 5000, "1" * 5000),
    # two bad tokens in one run: the error names the first
    (".memu64 0x0 0x1 zz 0x1_0", "zz"),
    (".memu64 0x0 0x10000000000000000 zz", "0x10000000000000000"),
    (".memf64 0x0 1.0 nan_1 \u00bd", "nan_1"),
]


@pytest.mark.parametrize("line, first_bad", _MALFORMED, ids=[line for line, _ in _MALFORMED])
def test_out_of_domain_value_is_malformed(line, first_bad):
    with pytest.raises(MalformedNumber) as excinfo:
        parse_vstream(f"vid.v v1\n{line}\nvid.v v2\n")
    assert excinfo.value.line == 2
    assert repr(first_bad) in str(excinfo.value)


def test_domain_edges_roundtrip():
    for text in (".pc 0xfffffffffffffff8\n.phase 4294967295\n.window 4294967295\n"
                 ".scalar 4294967295\nvid.v v1\n",
                 ".memf64 0x1000 -nan nan -0.0 inf 5e-324 -inf 0.0\n.memf64 0x0 nan\n",
                 ".memf64 0x8 5e-324 -nan -0.0\n.memf64 0x10 -nan\n.freg f1 -nan\n",
                 ".memu64 0x0 0x0 0xffffffffffffffff 0x0 0x1\n"
                 ".memu64 0xffffffffffffffff 0xffffffffffffffff\n"):
        items = parse_vstream(text)
        assert write_vstream(items) == text
        assert _bits(parse_vstream(write_vstream(items))) == _bits(items)


def test_pc_wraps_modulo_2_64():
    text = ".pc 0xfffffffffffffffc\nvid.v v1\nvid.v v2\n.xreg x1 0x7\nvid.v v3\n"
    items = parse_vstream(text)
    assert [i.pc for i in items] == [0xfffffffffffffffc, 0, 4, 4]
    assert write_vstream(items) == text
    assert parse_vstream(write_vstream(items)) == items


@pytest.mark.parametrize("line", ["vid.v v\u00b2", ".xreg x\u00b2 1", ".freg f\u0661 1.0"])
def test_non_ascii_register_digits(line):
    with pytest.raises(StreamSyntaxError) as excinfo:
        parse_vstream(f"vid.v v1\n{line}\n")
    assert excinfo.value.line == 2


def test_instruction_error_carries_line():
    with pytest.raises(StreamSyntaxError) as excinfo:
        parse_vstream("vid.v v1\nvid.v v2\nvbroken v3\n")
    assert excinfo.value.line == 3


def test_errors_are_line_local():
    text = ".phase 1\nvid.v v1\nvid.v v2\n"
    good = parse_vstream(text)
    with pytest.raises(StreamSyntaxError):
        parse_vstream(text + ".bogus\n")
    assert parse_vstream(text) == good  # earlier lines parse identically


def test_comments_and_blank_lines():
    items = parse_vstream("# header comment\n\nvid.v v1  # trailing\n")
    assert len(_instructions(items)) == 1


def test_memory_init_directives():
    items = parse_vstream(
        ".memf64 0x1000 1.5 -2.25\n.memu64 0x2000 0x10 7\n.freg f3 0.5\n")
    assert items[0].kind == ItemKind.INIT_MEM_F64
    assert items[0].target == 0x1000 and items[0].values == (1.5, -2.25)
    assert items[1].kind == ItemKind.INIT_MEM_U64
    assert items[1].target == 0x2000 and items[1].values == (0x10, 7)
    assert items[2].kind == ItemKind.SET_FREG
    assert items[2].target == 3 and items[2].values == (0.5,)


def test_window_marks_persist():
    items = parse_vstream(".window 5\nvid.v v1\nvid.v v2\n.window 6\nvid.v v3\n")
    assert [(i.kind, i.window) for i in items] == [(ItemKind.INSTRUCTION, 5)] * 2 + [
        (ItemKind.INSTRUCTION, 6)]


def test_a_phase_or_window_is_written_only_where_it_changes():
    text = (".phase 1\n.window 2\nvid.v v1\n.phase 1\n.window 2\nvid.v v2\n"
            ".window 3\n.phase 0\n.xreg x1 0x5\n.phase 4\n")
    assert write_vstream(parse_vstream(text)) == (
        ".phase 1\n.window 2\nvid.v v1\nvid.v v2\n.phase 0\n.window 3\n.xreg x1 0x5\n")


def test_every_directive_makes_one_item_kind_or_sets_builder_state():
    kinds = [kind for kind, *_ in vstream._DIRECTIVES.values() if kind]
    assert sorted(kinds, key=str) == sorted(set(ItemKind) - {ItemKind.INSTRUCTION}, key=str)
    builder = StreamBuilder()
    assert all(hasattr(builder, name[1:])
               for name, (kind, *_) in vstream._DIRECTIVES.items() if kind is None)


def test_write_parse_roundtrip_simple():
    text = (".pc 0x100\n.phase 1\n.window 2\n.xreg x10 0x1000\n"
            ".freg f1 2.5\n.memf64 0x2000 1.0 2.0\n.memu64 0x3000 0x8\n"
            ".scalar 3\nvle64.v v1, (x10)\nvfmv.v.f v2, f1\n")
    items = parse_vstream(text)
    assert parse_vstream(write_vstream(items)) == items


def test_write_parse_roundtrip_nonconsecutive_pcs():
    # reordered instructions keep their own pcs; the writer must re-emit .pc
    items = parse_vstream(".pc 0x100\nvid.v v1\nvid.v v2\nvid.v v3\n")
    shuffled = [items[2], items[0], items[1]]
    again = parse_vstream(write_vstream(shuffled))
    assert [i.pc for i in again] == [0x108, 0x100, 0x104]
    assert again == shuffled


def test_write_empty():
    assert write_vstream([]) == ""


def _bits(items):
    """Items with each float value replaced by its bit pattern, so -0.0 differs
    from 0.0 and a NaN equals itself."""
    return [item._replace(values=tuple(struct.pack("<d", v) if isinstance(v, float) else v
                                       for v in item.values)) for item in items]


@pytest.mark.parametrize("make", [
    lambda: gen_fft(n=64, variant="naive"), lambda: gen_fft(n=256, variant="naive"),
    lambda: gen_fft(n=64, variant="wide"), lambda: gen_fft(n=256, variant="wide"),
    lambda: gen_axpy(300, 2.0),
], ids=["fft-naive-64", "fft-naive-256", "fft-wide-64", "fft-wide-256", "axpy-300"])
def test_generated_streams_follow_the_parser(make):
    items, _ = make()
    assert _bits(parse_vstream(write_vstream(items))) == _bits(items)


_GENERATED = ([("fft", variant, 64 << k) for variant in ("naive", "wide") for k in range(8)]
              + [("axpy", None, n) for n in (1, 255, 256, 257, 1000, 100_000)])


@pytest.mark.parametrize("kind, variant, n", _GENERATED,
                         ids=["-".join(map(str, filter(None, g))) for g in _GENERATED])
def test_generated_text_round_trips_with_one_directive_per_image(monkeypatch, kind, variant, n):
    images, mem = [], workloads._Emitter.mem
    monkeypatch.setattr(workloads._Emitter, "mem",
                        lambda self, *image: images.append(image) or mem(self, *image))
    items, _ = gen_fft(n=n, variant=variant, seed=1) if kind == "fft" else gen_axpy(n, 2.0, seed=1)
    text = write_vstream(items)
    assert write_vstream(parse_vstream(text)) == text
    directives = [line.split() for line in text.splitlines() if line.startswith(".mem")]
    assert [(d[0], int(d[1], 0), len(d) - 2) for d in directives] == [
        (".memf64" if k is ItemKind.INIT_MEM_F64 else ".memu64", address, len(values))
        for k, address, values in images]


_WORDS = st.sampled_from([
    ".pc", ".phase", ".window", ".scalar", ".xreg", ".freg", ".memf64", ".memu64",
    ".bogus", "x1", "f2", "x32", "0", "0x10", "0x00", "1e5", "nan", "-0.0", "inf",
    "1_0", "\u0661", "0x" + "f" * 17, "9" * 5000, "vid.v", "v1,", "vle64.v", "(x10)",
    "#", ",",
]) | st.text(max_size=6)
_TEXT = st.lists(st.lists(_WORDS, max_size=5).map(" ".join), max_size=8).map("\n".join)


@settings(max_examples=300, deadline=None)
@given(_TEXT | st.text())
def test_any_text_parses_or_raises_stream_syntax_error(text):
    try:
        items = parse_vstream(text)
    except StreamSyntaxError:
        return
    assert all(type(item) is StreamItem for item in items)
    assert _bits(parse_vstream(write_vstream(items))) == _bits(items)


_U32S = st.sampled_from([0, 1, 2**32 - 1]) | st.integers(0, 2**32 - 1)
_U64S = st.sampled_from([0, 2**32 - 1, 2**32, 2**64 - 1]) | st.integers(0, 2**64 - 1)
_F64S = st.sampled_from([0.0, -0.0, math.inf, -math.inf, math.nan, -math.nan, 5e-324,
                         -5e-324, sys.float_info.min, sys.float_info.max]) | st.floats(allow_nan=False)
_INSTRS = [parse_instruction(text) for text in
           ("vid.v v1", "vsetvli x1, x2, e64, m1", "vle64.v v2, (x10)",
            "vfmacc.vv v3, v1, v2", "vsuxei64.v v4, (x11), v1")]
# (operation, target, values) for StreamBuilder: every item kind, and each
# state directive as the builder attribute it sets
_OPS = st.one_of(
    st.tuples(st.just("pc"), st.none(), _U64S.map(lambda v: [v])),
    st.tuples(st.sampled_from(["phase", "window", "scalar"]), st.none(), _U32S.map(lambda v: [v])),
    st.tuples(st.just(ItemKind.INSTRUCTION), st.sampled_from(_INSTRS), st.just([])),
    st.tuples(st.just(ItemKind.SET_XREG), st.integers(0, 31), _U64S.map(lambda v: [v])),
    st.tuples(st.just(ItemKind.SET_FREG), st.integers(0, 31), _F64S.map(lambda v: [v])),
    st.tuples(st.just(ItemKind.INIT_MEM_F64), _U64S, st.lists(_F64S, min_size=1, max_size=9)),
    st.tuples(st.just(ItemKind.INIT_MEM_U64), _U64S, st.lists(_U64S, min_size=1, max_size=9)),
)


@settings(max_examples=300, deadline=None)
@given(st.lists(_OPS, max_size=30))
def test_built_items_write_and_parse_back_bit_exact(ops):
    builder = StreamBuilder()
    for op, target, values in ops:
        if isinstance(op, str):
            setattr(builder, op, values[0])
        elif op is ItemKind.INSTRUCTION:
            builder.instruction(target)
        else:
            builder.add(op, target, *values)
    items = builder.items
    assert _bits(parse_vstream(write_vstream(items))) == _bits(items)
