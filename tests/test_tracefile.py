from datetime import timedelta

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from sdvkit import tracefile
from sdvkit.errors import TraceFormatError
from sdvkit.isa import Category, parse_instruction
from sdvkit.tracefile import HEADER, TraceRecord, read_trace, write_trace


def test_empty_roundtrip():
    text = write_trace([])
    assert text == HEADER + "\n"
    assert read_trace(text) == []


def test_single_record_roundtrip():
    record = TraceRecord(seq=0, pc=0x80000000, phase=2, scalar_before=17,
                         instr=parse_instruction("vfadd.vv v1, v2, v3"),
                         vl=256, sew_bits=64)
    text = write_trace([record])
    assert len(text.splitlines()) == 2
    assert read_trace(text) == [record]


def test_memory_record_roundtrip():
    record = TraceRecord(seq=3, pc=0x1000, phase=0, scalar_before=0,
                         instr=parse_instruction("vluxei64.v v1, (x10), v2"),
                         vl=3, sew_bits=64,
                         addresses=((0x1010, 8), (0x1000, 16)), window_id=7)
    assert read_trace(write_trace([record])) == [record]


# One instruction text per category, so every category column is exercised.
_TEXTS = ["vsetvli x1, x2, e64, m1", "vle64.v v4, (x10)", "vlse64.v v5, (x11), x3",
          "vsuxei64.v v8, (x16), v9", "vid.v v1", "vfadd.vv v1, v2, v3",
          "vrgather.vv v6, v7, v2"]
assert {parse_instruction(t).category for t in _TEXTS} == set(Category)
# (base, length) with base + length <= 2^64, up to the top of the address space
_ranges = st.integers(0, (1 << 64) - 1).flatmap(
    lambda base: st.tuples(st.just(base), st.integers(0, min(1 << 16, (1 << 64) - base))))


@st.composite
def records(draw):
    n = draw(st.integers(0, 20))
    out = []
    for seq in range(n):
        instr = parse_instruction(draw(st.sampled_from(_TEXTS)))
        # only memory instructions carry address ranges
        memory = instr.is_load or instr.is_store
        out.append(TraceRecord(
            seq=seq,
            pc=draw(st.integers(0, (1 << 64) - 1)),
            phase=draw(st.integers(0, 7)),
            scalar_before=draw(st.integers(0, 1000)),
            instr=instr,
            vl=draw(st.integers(0, 256)),
            sew_bits=64,
            addresses=tuple(draw(st.lists(_ranges, max_size=4 if memory else 0))),
            window_id=draw(st.integers(0, 1 << 31))))
    return out


@settings(max_examples=200, deadline=None)
@given(records())
def test_roundtrip_property(recs):
    assert read_trace(write_trace(recs)) == recs


def test_rewrite_is_byte_identical():
    recs = [TraceRecord(seq=i, pc=4 * i, phase=0, scalar_before=0,
                        instr=parse_instruction("vid.v v1"), vl=8, sew_bits=64)
            for i in range(50)]
    text = write_trace(recs)
    assert write_trace(read_trace(text)) == text


def test_each_distinct_mnemonic_text_is_parsed_once(monkeypatch):
    texts = ["vid.v v1", "vfadd.vv v2, v1, v1", "vsetvli x10, x2, e64, m1"]
    recs = [TraceRecord(seq=i, pc=4 * i, phase=i % 3, scalar_before=0,
                        instr=parse_instruction(texts[i % 3]), vl=1 + i % 7, sew_bits=64)
            for i in range(60)]
    text = write_trace(recs)
    calls = []

    def counted(asm):
        calls.append(asm)
        return parse_instruction(asm)

    monkeypatch.setattr(tracefile, "parse_instruction", counted)
    assert read_trace(text) == recs
    assert sorted(calls) == sorted(texts)


def test_category_is_checked_on_each_run_of_a_parsed_mnemonic():
    # the second line reuses the first's mnemonic text under another vl
    with pytest.raises(TraceFormatError) as excinfo:
        read_trace(HEADER + "\n0:0x0:0:0:8:64:ARITH_INT:vid.v v1::0"
                            "\n1:0x4:0:0:4:64:CONFIG:vid.v v1::0\n")
    assert excinfo.value.line == 3


def test_missing_header():
    with pytest.raises(TraceFormatError) as excinfo:
        read_trace("0:0x0:0:0:8:64:CONFIG:vid.v v1::0\n")
    assert excinfo.value.line == 1


def test_bad_field_count():
    with pytest.raises(TraceFormatError) as excinfo:
        read_trace(HEADER + "\n0:0x0:0:0:8:64:CONFIG\n")
    assert excinfo.value.line == 2


def test_bad_category():
    with pytest.raises(TraceFormatError):
        read_trace(HEADER + "\n0:0x0:0:0:8:64:NOPE:vid.v v1::0\n")


# Negative fields, then numbers `int()` takes but `write_trace` never writes:
# underscores, non-ASCII digits, a space, a sign, leading zeros, an upper-case
# or missing 0x prefix, and decimals longer than 20 digits, one of them longer
# than `int()` converts.
@pytest.mark.parametrize("line", ["0:-0x4:0:0:8:64:ARITH_INT:vid.v v1::0",
                                  "0:0x0:-3:0:8:64:ARITH_INT:vid.v v1::0",
                                  "0:0x0:0:0:8:64:ARITH_INT:vid.v v1::-1",
                                  "0:0x0:0:0:1_6:64:ARITH_INT:vid.v v1::0",
                                  "0:0x0:0:0:\u0661\u0666:64:ARITH_INT:vid.v v1::0",
                                  "0:0x0:0:0: 16:64:ARITH_INT:vid.v v1::0",
                                  "0:0x0:0:0:+16:64:ARITH_INT:vid.v v1::0",
                                  "0:0x0:0:0:016:64:ARITH_INT:vid.v v1::0",
                                  "0:0X0:0:0:16:64:ARITH_INT:vid.v v1::0",
                                  "0:0:0:0:16:64:ARITH_INT:vid.v v1::0",
                                  "0:0x0:0:0:2:64:MEM_UNIT:vle64.v v1, (x10):0x1_0+0X40:0",
                                  "0:0x0:0:0:2:64:MEM_UNIT:vle64.v v1, (x10):10+40:0",
                                  "1" * 21 + ":0x0:0:0:8:64:ARITH_INT:vid.v v1::0",
                                  "1" * 5000 + ":0x0:0:0:8:64:ARITH_INT:vid.v v1::0"])
def test_negative_field(line):
    with pytest.raises(TraceFormatError) as excinfo:
        read_trace(HEADER + "\n" + line + "\n")
    assert excinfo.value.line == 2


def test_pc_past_u64():
    with pytest.raises(TraceFormatError) as excinfo:
        read_trace(HEADER + "\n0:0x10000000000000000:0:0:8:64:ARITH_INT:vid.v v1::0\n")
    assert excinfo.value.line == 2


# A mnemonic field that does not parse, one that is not canonical text, and
# one that its category column contradicts.
BAD_MNEMONIC_LINES = ["0:0x0:0:0:8:64:ARITH_INT:vfoo v1::0",
                      "0:0x0:0:0:8:64:ARITH_INT:VID.V v1::0",
                      "0:0x0:0:0:8:64:MEM_INDEXED:vid.v v1::0"]


@pytest.mark.parametrize("line", BAD_MNEMONIC_LINES)
def test_bad_mnemonic_field(line):
    with pytest.raises(TraceFormatError) as excinfo:
        read_trace(HEADER + "\n" + line + "\n")
    assert excinfo.value.line == 2


# Address ranges outside their domain: a negative base, a negative length, a
# base past 2^64, a range that ends past 2^64, and a range on an instruction
# that touches no memory.
BAD_RANGE_LINES = ["0:0x0:0:0:4:64:MEM_UNIT:vle64.v v1, (x10):-0x10+0x20:0",
                   "0:0x0:0:0:4:64:MEM_UNIT:vle64.v v1, (x10):0x10+-0x20:0",
                   "0:0x0:0:0:4:64:MEM_UNIT:vle64.v v1, (x10):0x1ffffffffffffffff+0x20:0",
                   "0:0x0:0:0:2:64:MEM_UNIT:vle64.v v1, (x10):0xfffffffffffffff8+0x10:0",
                   "0:0x0:0:0:4:64:ARITH_FP:vfadd.vv v1, v2, v3:0x10+0x20:0"]


@pytest.mark.parametrize("line", BAD_RANGE_LINES)
def test_address_range_outside_its_domain(line):
    with pytest.raises(TraceFormatError) as excinfo:
        read_trace(HEADER + "\n" + line + "\n")
    assert excinfo.value.line == 2


def test_address_ranges_at_the_domain_edges():
    # a range may end exactly at 2^64, and a vl=0 memory op records length 0
    text = (HEADER + "\n0:0x0:0:0:1:64:MEM_UNIT:vle64.v v1, (x10):0xfffffffffffffff8+0x8:0"
            "\n1:0x4:0:0:0:64:MEM_STRIDED:vlse64.v v1, (x10), x2:0x10+0x0:0\n")
    first, second = read_trace(text)
    assert first.addresses == ((0xfffffffffffffff8, 8),)
    assert second.addresses == ((0x10, 0),)
    assert write_trace([first, second]) == text


# Field values a fuzzed line is built from: the canonical forms, the near
# misses of `test_negative_field`, separators, and short arbitrary text.
_FIELDS = st.sampled_from(
    ["", "0", "7", "64", "01", "-1", "+1", "1_0", " 1", "\u0661", "9" * 20, "9" * 21,
     "0x0", "0x10", "0X10", "0x01", "0xG", "0x10+0x8", "0x10+0x8,0x0+0x0", "0x8+",
     "ARITH_INT", "ARITH_FP", "MEM_UNIT", "CONFIG", "vid.v v1", "vfadd.vv v1, v2, v3",
     "vle64.v v4, (x10)", "vsetvli x1, x2, e64, m1", ":", "+", ","]) | st.text(max_size=6)
_LINES = (st.sampled_from(["", " ", "0:0x4:0:0:8:64:ARITH_INT:vid.v v1::0",
                           "1:0x0:3:17:256:64:MEM_UNIT:vle64.v v4, (x10):0x10+0x8,0x0+0x0:7"])
          | st.lists(_FIELDS, min_size=8, max_size=11).map(":".join) | st.text(max_size=12))
_TEXT = st.lists(_LINES, max_size=4).map(lambda lines: "\n".join([HEADER, *lines]) + "\n")


def _written_back(text):
    """What `write_trace` gives back for a text that reads: its lines without
    the blank ones, each ended by one newline."""
    return "".join(line + "\n" for line in text.splitlines() if line.strip())


@settings(max_examples=300, deadline=timedelta(seconds=2))
@given(_TEXT | st.text())
@example(HEADER)
@example(HEADER + "\r\n\n0:0x4:0:0:8:64:ARITH_INT:vid.v v1::0\r\n  \n")
@example(HEADER + "\n" + "1" * 5000 + ":0x0:0:0:8:64:ARITH_INT:vid.v v1::0\n")
def test_any_text_reads_back_byte_for_byte_or_raises_trace_format_error(text):
    try:
        records = read_trace(text)
    except TraceFormatError:
        return
    assert write_trace(records) == _written_back(text)


# one line break-free field value: a trace line stays one line
_FIELD = _FIELDS.filter(lambda field: "".join(field.splitlines()) == field)


@settings(max_examples=150, deadline=timedelta(seconds=2))
@given(records().filter(bool), st.data())
def test_one_mutated_field_reads_back_byte_for_byte_or_raises(recs, data):
    lines = write_trace(recs).splitlines()
    line = data.draw(st.integers(1, len(lines) - 1))
    fields = lines[line].split(":")
    fields[data.draw(st.integers(0, len(fields) - 1))] = data.draw(_FIELD)
    lines[line] = ":".join(fields)
    text = "\n".join(lines) + "\n"
    try:
        records = read_trace(text)
    except TraceFormatError:
        return
    assert write_trace(records) == text
