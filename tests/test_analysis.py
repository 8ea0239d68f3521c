import pytest

from sdvkit.analysis import (compare, metrics_to_csv, metrics_to_text,
                             pc_profile, phase_metrics)
from sdvkit.emulator import run
from sdvkit.errors import EmptyTrace, PhaseSetMismatch, SdvError
from sdvkit.isa import Category, parse_instruction
from sdvkit.prv import TYPE_VL, EventRecord, to_prv
from sdvkit.timing import TimingParams, simulate
from sdvkit.tracefile import TraceRecord, read_trace, write_trace
from sdvkit.workloads import gen_fft


def _rec(seq, phase=0, vl=8, pc=None, scalar=0, category=Category.ARITH_FP,
         mnemonic="vfadd.vv v1, v2, v3"):
    instr = parse_instruction(mnemonic)
    assert instr.category == category, mnemonic
    return TraceRecord(seq=seq, pc=pc if pc is not None else 4 * seq,
                       phase=phase, scalar_before=scalar, instr=instr, vl=vl,
                       sew_bits=64)


def test_avg_vl_simple_mean():
    trace = [_rec(i, phase=2, vl=8) for i in range(4)]
    metrics = phase_metrics(trace)
    assert len(metrics) == 1
    assert metrics[0].avg_vl == 8.0
    assert metrics[0].vl_histogram == {8: 4}


def test_phase_count_and_order():
    trace = [_rec(0, phase=3), _rec(1, phase=0), _rec(2, phase=1),
             _rec(3, phase=2), _rec(4, phase=0)]
    metrics = phase_metrics(trace)
    assert [m.phase for m in metrics] == [3, 0, 1, 2]
    assert sum(m.vector_instr_count for m in metrics) == len(trace)


def test_scalar_sums_and_histograms():
    trace = [_rec(0, scalar=5), _rec(1, scalar=7, category=Category.MEM_UNIT,
                                     mnemonic="vle64.v v1, (x10)")]
    m = phase_metrics(trace)[0]
    assert m.scalar_instr_sum == 12
    assert m.category_histogram == {"ARITH_FP": 1, "MEM_UNIT": 1}


def test_cycle_metrics_with_params():
    trace = [_rec(0, phase=0, vl=256, category=Category.MEM_UNIT,
                  mnemonic="vle64.v v1, (x10)"),
             _rec(1, phase=0, vl=256)]
    metrics = phase_metrics(trace, simulate(trace, TimingParams())[0])
    assert metrics[0].modeled_cycles is not None
    assert metrics[0].ipc is not None
    assert 0.0 <= metrics[0].mem_inflight_fraction <= 1.0


def test_timeline_of_another_length_is_refused():
    """As in `to_prv`: a short timeline, and a long one, name the mismatch."""
    _, trace = run(None, gen_fft(n=64, variant="naive")[0])
    timeline = simulate(trace, TimingParams())[0]
    for wrong in (timeline[:-1], timeline + timeline[:1]):
        for convert in (phase_metrics, to_prv):
            with pytest.raises(SdvError, match="timeline and trace lengths differ"):
                convert(trace, wrong)


def test_metrics_without_timing_have_no_cycles():
    metrics = phase_metrics([_rec(0)])
    assert metrics[0].modeled_cycles is None
    assert metrics[0].ipc is None


def test_empty_trace():
    with pytest.raises(EmptyTrace):
        phase_metrics([])


def test_pc_ramps():
    pcs = [100, 104, 108, 100, 104, 108]
    trace = [_rec(i, pc=pc) for i, pc in enumerate(pcs)]
    assert pc_profile(trace).ramp_count == 2


def test_pc_single_instruction():
    assert pc_profile([_rec(0, pc=100)]).ramp_count == 1


def test_pc_profile_series():
    trace = [_rec(0, pc=8), _rec(1, pc=4)]
    assert pc_profile(trace).series == [(0, 8), (1, 4)]


def test_compare_self_is_fixed_point():
    trace = [_rec(0, phase=0, vl=8), _rec(1, phase=1, vl=16)]
    metrics = phase_metrics(trace, simulate(trace, TimingParams())[0])
    report = compare(metrics, metrics)
    for delta in report.phases:
        assert delta.delta_cycles == 0
        assert delta.delta_avg_vl == 0.0
        assert delta.delta_instr == 0
        assert delta.flag == ""
    assert report.overall_ipc_a == report.overall_ipc_b


def test_compare_flags_direction():
    slow = [_rec(i, phase=0, vl=256, category=Category.MEM_INDEXED,
                 mnemonic="vluxei64.v v1, (x10), v2") for i in range(4)]
    fast = [_rec(i, phase=0, vl=256, category=Category.MEM_UNIT,
                 mnemonic="vle64.v v1, (x10)") for i in range(4)]
    params = TimingParams()
    report = compare(phase_metrics(slow, simulate(slow, params)[0]),
                     phase_metrics(fast, simulate(fast, params)[0]))
    assert report.phases[0].flag == "IMPROVEMENT"
    report = compare(phase_metrics(fast, simulate(fast, params)[0]),
                     phase_metrics(slow, simulate(slow, params)[0]))
    assert report.phases[0].flag == "REGRESSION"


def test_phase_set_mismatch():
    a = phase_metrics([_rec(0, phase=0)])
    b = phase_metrics([_rec(0, phase=1)])
    with pytest.raises(PhaseSetMismatch):
        compare(a, b)


def test_avg_vl_invariant_under_trace_roundtrip():
    trace = [_rec(i, phase=i % 2, vl=8 * (i + 1)) for i in range(10)]
    again = read_trace(write_trace(trace))
    assert [m.avg_vl for m in phase_metrics(trace)] == \
        [m.avg_vl for m in phase_metrics(again)]


def test_avg_vl_invariant_under_prv_export():
    trace = [_rec(i, phase=0, vl=8 * (i + 1)) for i in range(6)]
    doc = to_prv(trace)
    vls = [r.value for r in doc.records
           if isinstance(r, EventRecord) and r.etype == TYPE_VL]
    assert sum(vls) / len(vls) == phase_metrics(trace)[0].avg_vl


def test_report_renderings():
    trace = [_rec(0, phase=0), _rec(1, phase=1)]
    metrics = phase_metrics(trace, simulate(trace, TimingParams())[0])
    text = metrics_to_text(metrics)
    csv = metrics_to_csv(metrics)
    assert len(text.splitlines()) == 3
    assert csv.splitlines()[0].startswith("phase,")
    assert len(csv.splitlines()) == 3
    report = compare(metrics, metrics)
    assert "overall ipc" in report.to_text()
    assert report.to_csv().count("\n") == 3


def test_compare_without_cycles_reads_dashes():
    trace = [_rec(0, phase=0), _rec(1, phase=1)]
    report = compare(phase_metrics(trace), phase_metrics(trace))
    assert report.phase_span_sum_a is None and report.overall_ipc_b is None
    text = report.to_text()
    assert "sum of phase spans" not in text
    for line in text.splitlines()[1:]:
        assert line.split()[1:4] == ["-", "-", "-"]
