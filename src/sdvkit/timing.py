"""Trace-driven cycle model of a decoupled scalar core feeding a two-pipeline
vector unit (memory + arithmetic).

Model rules, all deliberately simple and in-order:

* The scalar core spends ``scalar_before * scalar_cycles_per_instr`` cycles
  before dispatching each vector instruction, runs ahead of the vector unit,
  and stalls when ``vector_queue_depth`` dispatched instructions are still
  incomplete: dispatch waits for the ``vector_queue_depth``-th latest
  completion so far.
* Dispatch is in order, one instruction per cycle at most.
* The vector unit is single-issue and strictly in order: instruction i begins
  execution after instruction i-1 has begun, so a stalled instruction blocks
  every younger one.  Overlap between the memory and arithmetic pipelines
  exists only when adjacent instructions alternate between them, which is
  what makes instruction-order feedback actionable.
* Each pipeline executes its instructions in program order, one in flight at
  a time: an instruction holds its pipeline for occupancy + latency cycles.
* An instruction starts once its pipeline is free and every register hazard
  (RAW/WAW/WAR over vector registers) against earlier instructions has
  resolved.  Without chaining a consumer waits for the producer's completion;
  with chaining it may start as soon as elements stream out fast enough to
  never starve it.
* Occupancy is ceil(vl / rate) with a per-category rate; the indexed rate is
  far below the unit-stride rate, which is the load-bearing ordering for
  gather/scatter-heavy code.

Rates and latencies are configurable defaults, not calibrated hardware data.
"""

from __future__ import annotations

import enum
import heapq
from dataclasses import dataclass
from typing import Iterable, Optional, Sequence

from .isa import Category


class Pipeline(enum.Enum):
    MEM = "MEM"
    ARITH = "ARITH"
    CONFIG = "CONFIG"


_PIPELINE_OF = {
    Category.CONFIG: Pipeline.CONFIG,
    Category.MEM_UNIT: Pipeline.MEM,
    Category.MEM_STRIDED: Pipeline.MEM,
    Category.MEM_INDEXED: Pipeline.MEM,
    Category.ARITH_INT: Pipeline.ARITH,
    Category.ARITH_FP: Pipeline.ARITH,
    Category.PERM: Pipeline.ARITH,
}


def pipeline_of(category: Category) -> Pipeline:
    return _PIPELINE_OF[category]


@dataclass
class TimingParams:
    unit_stride_elems_per_cycle: int = 8
    indexed_elems_per_cycle: int = 1
    strided_elems_per_cycle: int = 1
    arith_elems_per_cycle: int = 8
    mem_latency_cycles: int = 30
    arith_latency_cycles: int = 6
    scalar_cycles_per_instr: int = 1
    vector_queue_depth: int = 16
    chaining: bool = False

    def __post_init__(self):
        for name in ("unit_stride_elems_per_cycle", "indexed_elems_per_cycle",
                     "strided_elems_per_cycle", "arith_elems_per_cycle"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1 element/cycle")
        for name in ("mem_latency_cycles", "arith_latency_cycles"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1")
        if self.vector_queue_depth < 1:
            raise ValueError("vector_queue_depth must be >= 1")
        if self.scalar_cycles_per_instr < 0:
            raise ValueError("scalar_cycles_per_instr must be >= 0")

    def rate_of(self, category: Category) -> int:
        if category == Category.MEM_UNIT:
            return self.unit_stride_elems_per_cycle
        if category == Category.MEM_STRIDED:
            return self.strided_elems_per_cycle
        if category == Category.MEM_INDEXED:
            return self.indexed_elems_per_cycle
        return self.arith_elems_per_cycle

    def latency_of(self, pipeline: Pipeline) -> int:
        if pipeline == Pipeline.MEM:
            return self.mem_latency_cycles
        if pipeline == Pipeline.ARITH:
            return self.arith_latency_cycles
        return 0


@dataclass(frozen=True)
class TimelineEntry:
    seq: int
    pipeline: Pipeline
    issue_cycle: int
    start_cycle: int
    complete_cycle: int
    mnemonic: str = ""


@dataclass
class CounterSet:
    total_cycles: int = 0
    vector_instr_count: int = 0
    scalar_instr_count: int = 0
    mem_busy_cycles: int = 0
    arith_busy_cycles: int = 0
    overlap_cycles: int = 0
    vpu_idle_cycles: int = 0


def occupancy(record, params: TimingParams) -> int:
    """Busy cycles an instruction holds its pipeline before latency is added."""
    category = record.instr.category
    if category == Category.CONFIG:
        return 1
    rate = params.rate_of(category)
    return max(1, -(-record.vl // rate))


@dataclass
class _Producer:
    start: int
    occupancy: int
    latency: int
    complete: int


def simulate(trace: Sequence, params: Optional[TimingParams] = None):
    """Run the cycle model over a trace; returns (timeline entries, counters)."""
    params = params or TimingParams()
    entries: list[TimelineEntry] = []
    scalar_time = 0
    last_issue = -1
    last_start = -1
    pipe_free = {p: 0 for p in Pipeline}
    writers: dict[int, _Producer] = {}
    reader_complete: dict[int, int] = {}
    depth = params.vector_queue_depth
    completes: list[int] = []  # min-heap of the `depth` latest completions

    scalar_total = 0
    for rec in trace:
        instr = rec.instr
        pipe = pipeline_of(instr.category)
        scalar_total += rec.scalar_before
        scalar_time += rec.scalar_before * params.scalar_cycles_per_instr
        issue = max(scalar_time, last_issue + 1)
        if len(completes) == depth:
            # dispatch waits until fewer than depth instructions are in flight
            issue = max(issue, completes[0])

        occ = occupancy(rec, params)
        latency = params.latency_of(pipe)
        start = max(issue, last_start + 1, pipe_free[pipe])
        for reg in instr.vreg_uses:
            producer = writers.get(reg)
            if producer is None:
                continue
            if params.chaining:
                start = max(start, producer.start + producer.latency
                            + max(1, producer.occupancy - occ))
            else:
                start = max(start, producer.complete)
        for reg in instr.vreg_defs:
            producer = writers.get(reg)
            if producer is not None:
                start = max(start, producer.complete)
            start = max(start, reader_complete.get(reg, 0))

        complete = start + occ + latency
        entries.append(TimelineEntry(rec.seq, pipe, issue, start, complete,
                                     instr.mnemonic))
        pipe_free[pipe] = complete
        for reg in instr.vreg_uses:
            reader_complete[reg] = max(reader_complete.get(reg, 0), complete)
        for reg in instr.vreg_defs:
            writers[reg] = _Producer(start, occ, latency, complete)
            reader_complete[reg] = 0
        if len(completes) < depth:
            heapq.heappush(completes, complete)
        elif complete > completes[0]:
            heapq.heapreplace(completes, complete)
        last_issue = issue
        last_start = start
        scalar_time = issue + 1

    counters = _derive_counters(entries, scalar_total)
    return entries, counters


def _intervals(entries: Iterable[TimelineEntry], pipeline: Pipeline):
    ivs = [(e.start_cycle, e.complete_cycle) for e in entries if e.pipeline == pipeline]
    ivs.sort()
    return ivs


def _union_length(ivs: list[tuple[int, int]]) -> int:
    total = 0
    end = None
    for a, b in sorted(ivs):
        if end is None or a > end:
            total += b - a
            end = b
        elif b > end:
            total += b - end
            end = b
    return total


def _intersection_length(a: list[tuple[int, int]], b: list[tuple[int, int]]) -> int:
    total = 0
    i = j = 0
    while i < len(a) and j < len(b):
        lo = max(a[i][0], b[j][0])
        hi = min(a[i][1], b[j][1])
        if lo < hi:
            total += hi - lo
        if a[i][1] <= b[j][1]:
            i += 1
        else:
            j += 1
    return total


def _derive_counters(entries: list[TimelineEntry], scalar_total: int) -> CounterSet:
    counters = CounterSet()
    counters.vector_instr_count = len(entries)
    counters.scalar_instr_count = scalar_total
    if not entries:
        return counters
    counters.total_cycles = max(e.complete_cycle for e in entries)
    mem = _intervals(entries, Pipeline.MEM)
    arith = _intervals(entries, Pipeline.ARITH)
    counters.mem_busy_cycles = sum(b - a for a, b in mem)
    counters.arith_busy_cycles = sum(b - a for a, b in arith)
    counters.overlap_cycles = _intersection_length(mem, arith)
    counters.vpu_idle_cycles = counters.total_cycles - _union_length(mem + arith)
    return counters


_LANE_ORDER = (Pipeline.CONFIG, Pipeline.MEM, Pipeline.ARITH)


def emit_timeline(entries: Sequence[TimelineEntry]) -> str:
    """The timeline as CSV, one row per entry."""
    lines = ["seq,pipeline,issue,start,complete,mnemonic"]
    for e in entries:
        lines.append(f"{e.seq},{e.pipeline.value},{e.issue_cycle},"
                     f"{e.start_cycle},{e.complete_cycle},{e.mnemonic}")
    return "\n".join(lines) + "\n"


_LANE_COLORS = {Pipeline.CONFIG: "#999999", Pipeline.MEM: "#d94801", Pipeline.ARITH: "#2171b5"}


def emit_timeline_svg(entries: Sequence[TimelineEntry]) -> str:
    """The timeline as an SVG chart, one lane per pipeline in use."""
    lane_h, pad, label_w = 28, 8, 70
    lanes = [p for p in _LANE_ORDER if any(e.pipeline == p for e in entries)]
    span = max((e.complete_cycle for e in entries), default=1) or 1
    plot_w = 1000
    width = label_w + plot_w + pad
    height = pad + max(1, len(lanes)) * (lane_h + pad)
    out = [f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}">']
    scale = plot_w / span
    for li, lane in enumerate(lanes):
        y = pad + li * (lane_h + pad)
        out.append(f'<text x="2" y="{y + lane_h - 9}" font-size="12" '
                   f'font-family="monospace">{lane.value}</text>')
        for e in entries:
            if e.pipeline != lane:
                continue
            x = label_w + e.start_cycle * scale
            w = max((e.complete_cycle - e.start_cycle) * scale, 0.5)
            out.append(f'<rect x="{x:.2f}" y="{y}" width="{w:.2f}" height="{lane_h}" '
                       f'fill="{_LANE_COLORS[lane]}" stroke="white" stroke-width="0.3">'
                       f'<title>{e.seq}: {e.mnemonic} [{e.start_cycle},{e.complete_cycle})'
                       f'</title></rect>')
    out.append("</svg>")
    return "\n".join(out) + "\n"
