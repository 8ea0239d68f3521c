"""Post-mortem trace analysis: per-phase metrics, PC profile, A/B comparison.

Phase boundaries come exclusively from the phase ids carried on trace
records; there is no heuristic phase detection.  IPC counts scalar plus
vector instructions over modeled cycles, so processing the same data with
fewer, longer vector instructions lowers IPC by construction.

`PhaseMetrics.modeled_cycles` is a span: from the phase's earliest issue
cycle to its latest completion.  Queued instructions issue while the previous
phase still runs, so the spans of consecutive phases may overlap, and their
sum can exceed the run's total cycles.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from typing import Optional, Sequence

from .errors import EmptyTrace, PhaseSetMismatch, SdvError
from .timing import Pipeline, TimelineEntry
from .tracefile import TraceRecord


@dataclass
class PhaseMetrics:
    phase: int
    vector_instr_count: int = 0
    scalar_instr_sum: int = 0
    avg_vl: float = 0.0
    vl_histogram: dict = field(default_factory=dict)
    category_histogram: dict = field(default_factory=dict)
    modeled_cycles: Optional[int] = None
    ipc: Optional[float] = None
    mem_inflight_fraction: Optional[float] = None


def phase_metrics(trace: Sequence[TraceRecord],
                  timeline: Optional[Sequence[TimelineEntry]] = None) -> list[PhaseMetrics]:
    """One entry per distinct phase id, in first-appearance order.  Cycle
    metrics are filled when the trace's modeled timeline is supplied."""
    if not trace:
        raise EmptyTrace("cannot analyze an empty trace")
    if timeline is not None and len(timeline) != len(trace):
        raise SdvError("timeline and trace lengths differ")

    groups: dict[int, list[int]] = {}  # phase -> its record indices, in first-appearance order
    for i, rec in enumerate(trace):
        groups.setdefault(rec.phase, []).append(i)

    results = []
    mem = Pipeline.MEM  # read off the Enum class once, not per entry
    for phase, idxs in groups.items():
        records = [trace[i] for i in idxs]
        metrics = PhaseMetrics(phase=phase)
        metrics.vector_instr_count = len(records)
        metrics.scalar_instr_sum = sum(r.scalar_before for r in records)
        metrics.avg_vl = sum(r.vl for r in records) / len(records)
        metrics.vl_histogram = dict(sorted(Counter(r.vl for r in records).items()))
        metrics.category_histogram = dict(sorted(
            Counter(r.instr.category._value_ for r in records).items()))
        if timeline is not None:
            entries = [timeline[i] for i in idxs]
            begin = min(e.issue_cycle for e in entries)
            end = max(e.complete_cycle for e in entries)
            span = max(1, end - begin)
            metrics.modeled_cycles = end - begin
            metrics.ipc = (metrics.vector_instr_count + metrics.scalar_instr_sum) / span
            mem_busy = sum(e.complete_cycle - e.start_cycle
                           for e in entries if e.pipeline is mem)
            metrics.mem_inflight_fraction = min(1.0, mem_busy / span)
        results.append(metrics)
    return results


@dataclass
class PcProfile:
    series: list[tuple[int, int]]
    ramp_count: int


def pc_profile(trace: Sequence[TraceRecord]) -> PcProfile:
    """(seq, pc) series plus the number of maximal strictly-increasing pc
    runs: the sawtooth count of an iterative execution."""
    series = [(r.seq, r.pc) for r in trace]
    ramps = 0
    previous = None
    for _, pc in series:
        if previous is None or pc <= previous:
            ramps += 1
        previous = pc
    return PcProfile(series=series, ramp_count=ramps)


@dataclass
class PhaseDelta:
    phase: int
    cycles_a: Optional[int]
    cycles_b: Optional[int]
    delta_cycles: Optional[int]
    avg_vl_a: float
    avg_vl_b: float
    delta_avg_vl: float
    ipc_a: Optional[float]
    ipc_b: Optional[float]
    delta_ipc: Optional[float]
    instr_a: int
    instr_b: int
    delta_instr: int
    flag: str  # REGRESSION / IMPROVEMENT / ""


@dataclass
class CompareReport:
    """Per-phase deltas, and each run's sum of phase spans with its overall IPC
    taken over that sum.  Spans overlap, so the sum is not `simulate`'s total."""
    phases: list[PhaseDelta]
    overall_ipc_a: Optional[float]
    overall_ipc_b: Optional[float]
    phase_span_sum_a: Optional[int]
    phase_span_sum_b: Optional[int]

    def to_text(self) -> str:
        lines = ["phase  cycles_a  cycles_b  d_cycles  avg_vl_a  avg_vl_b  "
                 "ipc_a   ipc_b   d_instr  flag"]
        for d in self.phases:
            lines.append(
                f"{d.phase:<6} {_i(d.cycles_a):>9} {_i(d.cycles_b):>9} "
                f"{_i(d.delta_cycles):>9} {d.avg_vl_a:>9.2f} {d.avg_vl_b:>9.2f} "
                f"{_f(d.ipc_a):>7} {_f(d.ipc_b):>7} {d.delta_instr:>8}  {d.flag}")
        if self.overall_ipc_a is not None:
            lines.append(f"overall ipc: {self.overall_ipc_a:.4f} -> "
                         f"{self.overall_ipc_b:.4f}; sum of phase spans: "
                         f"{self.phase_span_sum_a} -> {self.phase_span_sum_b} cycles")
        return "\n".join(lines) + "\n"

    def to_csv(self) -> str:
        lines = ["phase,cycles_a,cycles_b,delta_cycles,avg_vl_a,avg_vl_b,"
                 "delta_avg_vl,ipc_a,ipc_b,delta_ipc,instr_a,instr_b,delta_instr,flag"]
        for d in self.phases:
            lines.append(
                f"{d.phase},{_i(d.cycles_a)},{_i(d.cycles_b)},{_i(d.delta_cycles)},"
                f"{d.avg_vl_a:.6g},{d.avg_vl_b:.6g},{d.delta_avg_vl:.6g},"
                f"{_f(d.ipc_a)},{_f(d.ipc_b)},"
                f"{_f(d.delta_ipc)},"
                f"{d.instr_a},{d.instr_b},{d.delta_instr},{d.flag}")
        return "\n".join(lines) + "\n"


def _i(value) -> str:
    return "-" if value is None else str(value)


def _f(value) -> str:
    return "-" if value is None else f"{value:.4f}"


def compare(metrics_a: Sequence[PhaseMetrics],
            metrics_b: Sequence[PhaseMetrics]) -> CompareReport:
    """Per-phase deltas of two analyzed runs; phases must match exactly.
    A phase is flagged by the sign of its modeled-cycles delta."""
    by_phase_a = {m.phase: m for m in metrics_a}
    by_phase_b = {m.phase: m for m in metrics_b}
    if set(by_phase_a) != set(by_phase_b):
        raise PhaseSetMismatch(by_phase_a.keys(), by_phase_b.keys())

    deltas = []
    for m_a in metrics_a:
        m_b = by_phase_b[m_a.phase]
        have_cycles = m_a.modeled_cycles is not None and m_b.modeled_cycles is not None
        delta_cycles = m_b.modeled_cycles - m_a.modeled_cycles if have_cycles else None
        flag = "" if not delta_cycles else "REGRESSION" if delta_cycles > 0 else "IMPROVEMENT"
        deltas.append(PhaseDelta(
            phase=m_a.phase,
            cycles_a=m_a.modeled_cycles, cycles_b=m_b.modeled_cycles,
            delta_cycles=delta_cycles,
            avg_vl_a=m_a.avg_vl, avg_vl_b=m_b.avg_vl,
            delta_avg_vl=m_b.avg_vl - m_a.avg_vl,
            ipc_a=m_a.ipc, ipc_b=m_b.ipc,
            delta_ipc=(m_b.ipc - m_a.ipc) if m_a.ipc is not None and m_b.ipc is not None else None,
            instr_a=m_a.vector_instr_count, instr_b=m_b.vector_instr_count,
            delta_instr=m_b.vector_instr_count - m_a.vector_instr_count,
            flag=flag))

    span_sum_a, overall_a = _span_sum(metrics_a)
    span_sum_b, overall_b = _span_sum(metrics_b)
    return CompareReport(deltas, overall_a, overall_b, span_sum_a, span_sum_b)


def _span_sum(metrics: Sequence[PhaseMetrics]) -> tuple[Optional[int], Optional[float]]:
    """(sum of the phase spans, IPC over that sum) of a run, or Nones if a
    phase has no modeled cycles."""
    if any(m.modeled_cycles is None for m in metrics):
        return None, None
    cycles = sum(m.modeled_cycles for m in metrics)
    instrs = sum(m.vector_instr_count + m.scalar_instr_sum for m in metrics)
    return cycles, instrs / max(1, cycles)


def metrics_to_text(metrics: Sequence[PhaseMetrics]) -> str:
    lines = ["phase  instrs  scalar   avg_vl  cycles     ipc     mem_inflight  categories"]
    for m in metrics:
        cats = " ".join(f"{k}:{v}" for k, v in m.category_histogram.items())
        lines.append(
            f"{m.phase:<6} {m.vector_instr_count:>6} {m.scalar_instr_sum:>7} "
            f"{m.avg_vl:>8.2f} {_i(m.modeled_cycles):>7} {_f(m.ipc):>7} "
            f"{_f(m.mem_inflight_fraction):>12}  {cats}")
    return "\n".join(lines) + "\n"


def metrics_to_csv(metrics: Sequence[PhaseMetrics]) -> str:
    lines = ["phase,vector_instr_count,scalar_instr_sum,avg_vl,modeled_cycles,"
             "ipc,mem_inflight_fraction,vl_histogram,category_histogram"]
    for m in metrics:
        vl_h = ";".join(f"{k}={v}" for k, v in m.vl_histogram.items())
        cat_h = ";".join(f"{k}={v}" for k, v in m.category_histogram.items())
        lines.append(f"{m.phase},{m.vector_instr_count},{m.scalar_instr_sum},"
                     f"{m.avg_vl:.6g},{_i(m.modeled_cycles)},{_f(m.ipc)},"
                     f"{_f(m.mem_inflight_fraction)},{vl_h},{cat_h}")
    return "\n".join(lines) + "\n"
