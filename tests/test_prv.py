import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import sdvkit.prv as prv_module
from sdvkit.cli import main as cli_main
from sdvkit.errors import EmptyTrace, PrvFormatError, SdvError
from sdvkit.isa import MNEMONIC_IDS, Category, parse_instruction
from sdvkit.prv import (CATEGORY_IDS, EVENT_TYPE_NAMES, TYPE_CATEGORY, TYPE_MNEMONIC,
                        TYPE_PC, TYPE_PHASE, TYPE_VL, EventRecord, PrvDocument,
                        StateRecord, emit_prv, parse_prv, to_prv)
from sdvkit.timing import Pipeline, TimelineEntry, TimingParams, simulate
from sdvkit.tracefile import TraceRecord, read_trace


def _rec(seq, phase=0, vl=8, pc=None, mnemonic="vfadd.vv v1, v2, v3",
         category=Category.ARITH_FP):
    instr = parse_instruction(mnemonic)
    assert instr.category == category, mnemonic
    return TraceRecord(seq=seq, pc=pc if pc is not None else 4 * seq,
                       phase=phase, scalar_before=0, instr=instr, vl=vl,
                       sew_bits=64)


def test_sequence_time_axis():
    doc = to_prv([_rec(0), _rec(1), _rec(2)])
    assert doc.duration == 3
    times = sorted({r.time for r in doc.records})
    assert times == [0, 1, 2]
    assert len(doc.records) == 15  # five events per record


def test_event_mapping():
    doc = to_prv([_rec(0, phase=2, vl=8)])
    pairs = {(r.etype, r.value) for r in doc.records}
    assert (1000, 2) in pairs
    assert (3000, 8) in pairs
    assert len({r.time for r in doc.records}) == 1


def test_event_count_property():
    rng = random.Random(4)
    for _ in range(20):
        n = rng.randrange(1, 60)
        trace = [_rec(i, phase=rng.randrange(4), vl=rng.randrange(257))
                 for i in range(n)]
        doc = to_prv(trace)
        assert len(doc.records) == 5 * n


def test_timeline_time_axis():
    trace = [_rec(0, mnemonic="vle64.v v1, (x10)", category=Category.MEM_UNIT, vl=256),
             _rec(1, mnemonic="vfadd.vv v2, v1, v1", vl=256)]
    timeline, _ = simulate(trace, TimingParams())
    doc = to_prv(trace, timeline)
    times = sorted({r.time for r in doc.records})
    assert times == [timeline[0].issue_cycle, timeline[1].issue_cycle]
    assert doc.duration == max(e.complete_cycle for e in timeline)


def test_header_text():
    doc = PrvDocument(duration=4821, records=[])
    prv, _ = emit_prv(doc)
    assert prv.splitlines()[0] == "#Paraver (01/01/00 at 00:00):4821_ns:1(1):1:1(1:1)"


def test_event_record_grammar():
    doc = PrvDocument(duration=10, records=[EventRecord(7, 3000, 256)])
    prv, _ = emit_prv(doc)
    assert prv.splitlines()[1] == "2:1:1:1:1:7:3000:256"


def test_state_record_grammar():
    doc = PrvDocument(duration=10, records=[StateRecord(0, 10, 1)])
    prv, _ = emit_prv(doc)
    assert prv.splitlines()[1] == "1:1:1:1:1:0:10:1"


def _random_doc(rng):
    duration = rng.randrange(1, 10000)
    records = []
    time = 0
    for _ in range(rng.randrange(0, 40)):
        if rng.random() < 0.2:
            begin = rng.randrange(0, duration)
            records.append(StateRecord(begin, rng.randrange(begin, duration + 1),
                                       rng.randrange(5)))
        else:
            time = min(duration, time + rng.randrange(0, 50))
            records.append(EventRecord(time, rng.choice([1000, 2000, 3000, 4000, 5000, 77]),
                                       rng.randrange(1 << 32)))
    return PrvDocument(duration=duration, records=records)


def test_roundtrip_property():
    rng = random.Random(12)
    for _ in range(100):
        doc = _random_doc(rng)
        prv, pcf = emit_prv(doc)
        parsed = parse_prv(prv)
        assert parsed.duration == doc.duration
        assert parsed.records == doc.records


def test_pcf_labels_every_event_type():
    rng = random.Random(13)
    for _ in range(20):
        doc = _random_doc(rng)
        prv, pcf = emit_prv(doc)
        types = {r.etype for r in doc.records if isinstance(r, EventRecord)}
        for etype in types:
            assert f"9    {etype}    " in pcf


def test_pcf_labels_category_and_mnemonic_values():
    doc = to_prv([_rec(0)])
    _, pcf = emit_prv(doc)
    assert "ARITH_FP" in pcf
    assert "vfadd.vv" in pcf


def test_timestamps_non_decreasing_enforced():
    with pytest.raises(SdvError):
        PrvDocument(duration=10, records=[EventRecord(5, 1000, 1),
                                          EventRecord(3, 1000, 1)])
    with pytest.raises(SdvError):
        PrvDocument(duration=2, records=[EventRecord(5, 1000, 1)])


def test_empty_trace_raises():
    with pytest.raises(EmptyTrace):
        to_prv([])


def test_parse_errors():
    with pytest.raises(PrvFormatError) as excinfo:
        parse_prv("not a header\n")
    assert excinfo.value.line == 1
    prv, _ = emit_prv(PrvDocument(duration=5, records=[EventRecord(1, 1000, 1)]))
    with pytest.raises(PrvFormatError) as excinfo:
        parse_prv(prv + "2:1:1:1:1:3:9\n")  # dangling type without value
    assert excinfo.value.line == 3


@pytest.mark.parametrize("line", [
    "2:0:1:1:1:-5:1000:1",         # event before time 0
    "2:0:1:1:1:50:1000:1",         # event after the duration
    "2:0:1:1:1:5:-1000:1",         # negative event type
    "2:0:1:1:1:5:1000:-1",         # negative event value
    "2:0:1:1:1:5:1000:1:-7:2",     # negative type in a later pair
    "2:0:1:1:1:1:1000:1",          # time goes backwards
    "1:0:1:1:1:-1:5:1",            # state begins before time 0
    "1:0:1:1:1:2:11:1",            # state ends after the duration
    "1:0:1:1:1:6:4:1",             # state ends before it begins
    "1:0:1:1:1:2:4:-1",            # negative state
])
def test_out_of_domain_record_carries_line(line):
    text = "#Paraver (01/01/00 at 00:00):10_ns:1(1):1:1(1:1)\n2:1:1:1:1:3:1000:1\n"
    with pytest.raises(PrvFormatError) as excinfo:
        parse_prv(text + line + "\n")
    assert excinfo.value.line == 3


def test_header_duration_too_long_for_int():
    with pytest.raises(PrvFormatError) as excinfo:
        parse_prv("#Paraver ():" + "9" * 5000 + "_ns:1(1):1:1(1:1)\n")
    assert excinfo.value.line == 1


# A record line: a kind, then 4 to 9 small integers, some out of domain.
_PRV_LINE = st.tuples(st.sampled_from(["1", "2", "3", "x"]),
                      st.lists(st.integers(-5, 40).map(str), min_size=4, max_size=9)).map(
    lambda t: ":".join([t[0], *t[1]]))


@settings(max_examples=500, deadline=None)
@given(st.one_of(
    st.text(),
    st.tuples(st.sampled_from(["#Paraver (01/01/00 at 00:00):30_ns:1(1):1:1(1:1)",
                               "#Paraver ():0_ns:1(1):1:1(1:1)", "#Paraver"]),
              st.lists(st.one_of(_PRV_LINE, st.text(max_size=12)), max_size=8))
    .map(lambda t: "\n".join([t[0], *t[1]]))))
def test_parse_prv_returns_or_raises_prv_format_error(text):
    try:
        doc = parse_prv(text)
    except PrvFormatError:
        return
    prv, _ = emit_prv(doc)
    assert parse_prv(prv) == doc


def test_timeline_length_mismatch():
    trace = [_rec(0), _rec(1)]
    timeline, _ = simulate(trace[:1], TimingParams())
    with pytest.raises(SdvError):
        to_prv(trace, timeline)


# --- the per-key exporter against the per-event one it replaced ------------

def _oracle_export(trace, timeline=None):
    """The per-event `to_prv` + `emit_prv` that per-key templates replaced:
    five `EventRecord`s per trace record, each formatted on its own, and
    `.pcf` labels from a scan over every event."""
    if timeline is not None:
        times = [entry.issue_cycle for entry in timeline]
        duration = max(entry.complete_cycle for entry in timeline)
    else:
        times = list(range(len(trace)))
        duration = len(trace)
    records = []
    for rec, time in zip(trace, times):
        records.append(EventRecord(time, TYPE_PHASE, rec.phase))
        records.append(EventRecord(time, TYPE_PC, rec.pc))
        records.append(EventRecord(time, TYPE_VL, rec.vl))
        records.append(EventRecord(time, TYPE_CATEGORY, CATEGORY_IDS[rec.instr.category]))
        records.append(EventRecord(time, TYPE_MNEMONIC, MNEMONIC_IDS[rec.instr.mnemonic]))
    lines = [f"#Paraver (01/01/00 at 00:00):{duration}_ns:1(1):1:1(1:1)"]
    for record in records:
        lines.append(f"2:1:1:1:1:{record.time}:{record.etype}:{record.value}")
    used_types: dict[int, set[int]] = {}
    for record in records:
        used_types.setdefault(record.etype, set()).add(record.value)
    out = ["DEFAULT_OPTIONS", "", "LEVEL               THREAD",
           "UNITS               NANOSEC", "", "DEFAULT_SEMANTIC", "",
           "THREAD_FUNC          State As Is", ""]
    for etype in sorted(used_types):
        out += ["EVENT_TYPE", f"9    {etype}    {EVENT_TYPE_NAMES[etype]}"]
        if etype == TYPE_CATEGORY:
            values = [(i, category.value) for category, i in CATEGORY_IDS.items()]
        elif etype == TYPE_MNEMONIC:
            values = [(i, m) for m, i in MNEMONIC_IDS.items()]
        elif etype == TYPE_PHASE:
            values = [(value, f"phase {value}") for value in sorted(used_types[etype])]
        else:
            values = []
        if values:
            out.append("VALUES")
            out.extend(f"{value}      {label}" for value, label in values)
        out.append("")
    return records, "\n".join(lines) + "\n", "\n".join(out) + "\n"


# two FP mnemonics of one category, and two of others
_ORACLE_INSTRS = [parse_instruction(text) for text in
                  ("vfadd.vv v1, v2, v3", "vfmul.vv v1, v2, v3",
                   "vle64.v v1, (x10)", "vadd.vv v1, v2, v3")]


@st.composite
def _trace_and_timeline(draw):
    """A trace whose (phase, pc, vl, instruction) keys repeat and include, for
    each field, two keys that differ in that field alone; and either no
    timeline or one whose issue cycles repeat."""
    base = (draw(st.integers(0, 3)), 4 * draw(st.integers(0, 3)), draw(st.integers(0, 256)),
            draw(st.integers(0, len(_ORACLE_INSTRS) - 1)))
    keys = [base]
    for field, step, modulo in ((0, 1, 1 << 32), (1, 4, 1 << 64), (2, 1, 257),
                                (3, 1, len(_ORACLE_INSTRS))):
        key = list(base)
        key[field] = (key[field] + step * draw(st.integers(1, 2))) % modulo
        keys.append(tuple(key))
    keys += draw(st.lists(st.sampled_from(keys), max_size=20))
    keys = draw(st.permutations(keys))
    trace = [TraceRecord(seq=seq, pc=pc, phase=phase, scalar_before=0,
                         instr=_ORACLE_INSTRS[which], vl=vl, sew_bits=64)
             for seq, (phase, pc, vl, which) in enumerate(keys)]
    if not draw(st.booleans()):
        return trace, None
    issue = draw(st.integers(0, 5))
    timeline = []
    for rec in trace:
        issue += draw(st.sampled_from([0, 0, 1, 7]))
        timeline.append(TimelineEntry(rec.seq, Pipeline.ARITH, issue, issue,
                                      issue + draw(st.integers(0, 40))))
    return trace, timeline


@settings(max_examples=300, deadline=None)
@given(_trace_and_timeline())
def test_export_matches_per_event_oracle(case):
    trace, timeline = case
    records, prv, pcf = _oracle_export(trace, timeline)
    doc = to_prv(trace, timeline)
    assert emit_prv(doc) == (prv, pcf)
    assert doc.record_count == len(records)
    assert doc.records == records


# --- each record is checked exactly once -----------------------------------

@pytest.fixture
def domain_checks(monkeypatch):
    """The arguments of every `_domain_error` call made during the test."""
    calls = []
    check = prv_module._domain_error

    def counted(*args):
        calls.append(args)
        return check(*args)

    monkeypatch.setattr(prv_module, "_domain_error", counted)
    return calls


def test_hand_built_and_parsed_records_checked_once(domain_checks):
    doc = _random_doc(random.Random(21))
    assert len(doc.records) > 5 and len(domain_checks) == len(doc.records)
    domain_checks.clear()
    text, _ = emit_prv(doc)
    assert domain_checks == []
    assert parse_prv(text) == doc
    assert len(domain_checks) == len(doc.records)


def test_to_prv_command_checks_no_event(domain_checks, tmp_path):
    vs, trace, timing = tmp_path / "a.vs", tmp_path / "a.trace", tmp_path / "t.ini"
    timing.write_text("")
    assert cli_main(["gen", "axpy", "--n", "300", "-o", str(vs)]) == 0
    assert cli_main(["emulate", str(vs), "-o", str(trace)]) == 0
    assert cli_main(["to-prv", str(trace), "-o", str(tmp_path / "a.prv")]) == 0
    assert cli_main(["to-prv", str(trace), "--timing", str(timing),
                     "-o", str(tmp_path / "b.prv")]) == 0
    assert domain_checks == []
    events = f"events = {5 * len(read_trace(trace.read_text()))}\n"
    assert events in (tmp_path / "b.prv.manifest").read_text()


@pytest.mark.parametrize("issue_cycles", [(5, 4), (-1, 2), (0, 50)],
                         ids=["decreasing", "negative", "after-duration"])
def test_to_prv_refuses_out_of_order_issue_cycles(issue_cycles):
    trace = [_rec(0), _rec(1)]
    timeline = [TimelineEntry(seq, Pipeline.ARITH, issue, max(issue, 0), 9)
                for seq, issue in enumerate(issue_cycles)]
    with pytest.raises(SdvError, match=r"^record \d: time"):
        to_prv(trace, timeline)


def test_to_prv_refuses_negative_event_value():
    with pytest.raises(SdvError, match="negative"):
        to_prv([_rec(0, vl=-1)])


# --- every number in canonical decimal form --------------------------------

@pytest.mark.parametrize("line", [
    "2:1:1:1:1:1_0:1000:3", "2:1:1:1:1:5:1000:+3", "2:1:1:1:1: 12 :1000:3",
    "2:1:1:1:1:012:1000:3", "2:1:1:1:1:5:1000:-0", "1:1:1:1:1:4:+5:1",
    "2:1:1:1:1:\u0663:1000:1",  # an Arabic-Indic digit three
    "2:1:1:1:1:" + "1" * 21 + ":1000:1",  # more digits than any u64 has
])
def test_non_canonical_number_carries_line(line):
    text = "#Paraver (01/01/00 at 00:00):100_ns:1(1):1:1(1:1)\n2:1:1:1:1:3:1000:1\n"
    with pytest.raises(PrvFormatError) as excinfo:
        parse_prv(text + line + "\n")
    assert excinfo.value.line == 3


@pytest.mark.parametrize("duration", ["0100", "\u0661\u0660"])
def test_non_canonical_header_duration(duration):
    with pytest.raises(PrvFormatError) as excinfo:
        parse_prv(f"#Paraver (01/01/00 at 00:00):{duration}_ns:1(1):1:1(1:1)\n")
    assert excinfo.value.line == 1


@pytest.mark.parametrize("record, message", [
    (EventRecord(1, -1, 0), "negative event type or value -1:0"),
    (EventRecord(1, 3000, -5), "negative event type or value 3000:-5"),
    (StateRecord(0, 5, -1), "negative state -1"),
    ((1, 2, 3), "unknown record (1, 2, 3)"),
])
def test_a_document_refuses_a_record_out_of_its_domain(record, message):
    with pytest.raises(SdvError) as excinfo:
        PrvDocument(duration=10, records=[record])
    assert str(excinfo.value) == message


def test_document_repr_lists_its_records():
    doc = PrvDocument(duration=10, records=[StateRecord(0, 10, 1), EventRecord(7, 3000, 256)])
    assert repr(doc) == ("PrvDocument(duration=10, records=[StateRecord(begin=0, end=10, "
                         "state=1), EventRecord(time=7, etype=3000, value=256)])")
