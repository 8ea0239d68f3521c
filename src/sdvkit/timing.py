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

One table, `CATEGORIES`, maps each category to its pipeline and rate knob,
and `PIPELINES` gives each pipeline its latency knob and the pipeline it
overlaps with; every cost and counter reads them.

The counters (busy, overlap and idle cycles per pipeline) are added up in the
same pass that places each instruction; no second walk over the timeline.

The model is resumable.  A `ModelState` holds all that placing the next record
reads, so `ModelState.place`, the one loop of the model, places records after
those already placed and advances the state past them: a trace placed in
parts gives the entries and counters of one `simulate` call, which places it
all from an empty state.  `copy` forks a state, so the scheduler can try each
candidate record after the same prefix.

Rates and latencies are configurable defaults, not calibrated hardware data.
A `TimelineEntry` is an immutable named tuple with type-sensitive equality.
"""

from __future__ import annotations

import enum
import heapq
from dataclasses import dataclass, fields
from typing import NamedTuple, Optional, Sequence

from .isa import SPEC, Category
from .records import positional, typed_equality


class Pipeline(enum.Enum):
    MEM = "MEM"
    ARITH = "ARITH"
    CONFIG = "CONFIG"


# category -> (the pipeline that runs it, its TimingParams rate knob or None
# for one cycle at any vl)
CATEGORIES: dict[Category, tuple[Pipeline, Optional[str]]] = {
    Category.CONFIG: (Pipeline.CONFIG, None),
    Category.MEM_UNIT: (Pipeline.MEM, "unit_stride_elems_per_cycle"),
    Category.MEM_STRIDED: (Pipeline.MEM, "strided_elems_per_cycle"),
    Category.MEM_INDEXED: (Pipeline.MEM, "indexed_elems_per_cycle"),
    Category.ARITH_INT: (Pipeline.ARITH, "arith_elems_per_cycle"),
    Category.ARITH_FP: (Pipeline.ARITH, "arith_elems_per_cycle"),
    Category.PERM: (Pipeline.ARITH, "arith_elems_per_cycle"),
}
# pipeline -> (its latency knob or None for none, the pipeline it overlaps with)
PIPELINES: dict[Pipeline, tuple[Optional[str], Optional[Pipeline]]] = {
    Pipeline.MEM: ("mem_latency_cycles", Pipeline.ARITH),
    Pipeline.ARITH: ("arith_latency_cycles", Pipeline.MEM),
    Pipeline.CONFIG: (None, None),
}
_RATE_KNOBS = {knob for _, knob in CATEGORIES.values()} - {None}
_LATENCY_KNOBS = {knob for knob, _ in PIPELINES.values()} - {None}
_LANES = {pipe: i for i, pipe in enumerate(PIPELINES)}  # a pipeline's index in per-lane lists


def pipeline_of(category: Category) -> Pipeline:
    return CATEGORIES[category][0]


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
        for name in (f.name for f in fields(self)):  # in field order
            if name in _RATE_KNOBS and getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1 element/cycle")
            if name in _LATENCY_KNOBS and getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1")
        if self.vector_queue_depth < 1:
            raise ValueError("vector_queue_depth must be >= 1")
        if self.scalar_cycles_per_instr < 0:
            raise ValueError("scalar_cycles_per_instr must be >= 0")

    def rate_of(self, category: Category) -> Optional[int]:
        _, knob = CATEGORIES[category]
        return None if knob is None else getattr(self, knob)

    def latency_of(self, pipeline: Pipeline) -> int:
        knob, _ = PIPELINES[pipeline]
        return 0 if knob is None else getattr(self, knob)


@typed_equality
class TimelineEntry(NamedTuple):
    seq: int
    pipeline: Pipeline
    issue_cycle: int
    start_cycle: int
    complete_cycle: int
    mnemonic: str = ""


_new_entry = positional(TimelineEntry)


@dataclass
class CounterSet:
    total_cycles: int = 0
    vector_instr_count: int = 0
    scalar_instr_count: int = 0
    mem_busy_cycles: int = 0
    arith_busy_cycles: int = 0
    overlap_cycles: int = 0
    vpu_idle_cycles: int = 0


def _occupancy(vl: int, rate: Optional[int]) -> int:
    """ceil(vl / rate) cycles, at least one; one cycle for rate None (CONFIG)."""
    cycles = 1 if rate is None else -(-vl // rate)
    return cycles if cycles > 1 else 1


def occupancy(record, params: TimingParams) -> int:
    """Busy cycles an instruction holds its pipeline before latency is added."""
    return _occupancy(record.vl, params.rate_of(record.instr.category))


class ModelState:
    """Where the model stands after the records placed so far: each lane's
    free and busy cycles, each vector register's last writer and the latest
    completion of its readers since, the heap of the latest completions, the
    last issue and start cycles, the scalar core's time, and the running
    counts of overlap cycles, scalar instructions and placed records.  It also
    holds what `place` reads of its `TimingParams`, each mnemonic's row
    included, so placing one record after a saved state costs no table build.

    `place` advances a state past the records it places; `copy` forks one,
    so a caller can try records after the same prefix."""

    __slots__ = ("rows", "cost", "chaining", "depth", "free", "busy", "writers",
                 "reader_complete", "completes", "scalar_time", "last_issue",
                 "last_start", "overlap", "scalar_total", "placed")

    def __init__(self, params: Optional[TimingParams] = None):
        params = params or TimingParams()
        by_category = {category: (pipe, _LANES[pipe], _LANES.get(PIPELINES[pipe][1]),
                                  params.rate_of(category), params.latency_of(pipe))
                       for category, (pipe, _) in CATEGORIES.items()}
        # each mnemonic's row: a str key hashes in C, a Category through Enum.__hash__
        self.rows = {mnemonic: by_category[category]
                     for mnemonic, (category, *_) in SPEC.items()}
        self.cost, self.chaining = params.scalar_cycles_per_instr, params.chaining
        self.depth = params.vector_queue_depth
        self.free = [0] * len(_LANES)  # per lane: the cycle its pipeline is next free
        self.busy = [0] * len(_LANES)
        self.writers: dict[int, tuple] = {}  # reg -> (start + latency, occupancy, complete)
        self.reader_complete: dict[int, int] = {}
        # min-heap of the `depth` latest completions, padded with zeros that
        # never delay dispatch; it grows only as far as records are placed
        self.completes: list[int] = []
        self.scalar_time = self.overlap = self.scalar_total = self.placed = 0
        self.last_issue = self.last_start = -1

    def copy(self) -> ModelState:
        """An independent state at the same point; the rows are shared."""
        other = object.__new__(ModelState)
        other.rows, other.cost, other.chaining, other.depth = (
            self.rows, self.cost, self.chaining, self.depth)
        other.scalar_time, other.last_issue, other.last_start = (
            self.scalar_time, self.last_issue, self.last_start)
        other.overlap, other.scalar_total, other.placed = (
            self.overlap, self.scalar_total, self.placed)
        other.free, other.busy, other.completes = self.free[:], self.busy[:], self.completes[:]
        other.writers, other.reader_complete = self.writers.copy(), self.reader_complete.copy()
        return other

    def earliest_start(self, record) -> int:
        """A lower bound on the start cycle of `record` placed next: the
        vector unit issues in order and its pipeline runs one at a time, so
        it starts after the last start and once its pipeline is free."""
        free = self.free[self.rows[record.instr.mnemonic][1]]
        return free if free > self.last_start else self.last_start + 1

    def place(self, trace: Sequence) -> list[TimelineEntry]:
        """Place `trace` after the records placed so far and advance past
        them; returns their timeline entries.  This loop is the model."""
        rows, cost, chaining = self.rows, self.cost, self.chaining
        free, busy, writers = self.free, self.busy, self.writers
        reader_complete, completes = self.reader_complete, self.completes
        scalar_time, last_issue, last_start = self.scalar_time, self.last_issue, self.last_start
        overlap, scalar_total = self.overlap, self.scalar_total
        if len(completes) < self.depth:  # pad only as far as records are placed
            completes += [0] * (min(self.depth, self.placed + len(trace)) - len(completes))
            heapq.heapify(completes)
        entries: list[TimelineEntry] = []

        for rec in trace:
            instr = rec.instr
            pipe, lane, other, rate, latency = rows[instr.mnemonic]
            scalar_total += rec.scalar_before
            scalar_time += rec.scalar_before * cost
            issue = scalar_time if scalar_time > last_issue else last_issue + 1
            if completes[0] > issue:  # dispatch waits for a free queue slot
                issue = completes[0]

            occ = _occupancy(rec.vl, rate)
            start = issue if issue > last_start else last_start + 1
            if free[lane] > start:
                start = free[lane]
            for reg in instr.vreg_uses:
                producer = writers.get(reg)
                if producer is not None:
                    lag = producer[1] - occ
                    bound = producer[0] + (lag if lag > 1 else 1) if chaining else producer[2]
                    if bound > start:
                        start = bound
            for reg in instr.vreg_defs:
                producer = writers.get(reg)
                if producer is not None and producer[2] > start:
                    start = producer[2]
                if reader_complete.get(reg, 0) > start:
                    start = reader_complete[reg]

            complete = start + occ + latency
            entries.append(_new_entry((rec.seq, pipe, issue, start, complete, instr.mnemonic)))
            # Starts only grow and a pipeline runs one instruction at a time,
            # so of the other pipeline's busy intervals only its latest can
            # still be running at `start`.
            busy[lane] += complete - start
            if other is not None:
                end = free[other] if free[other] < complete else complete
                if end > start:
                    overlap += end - start
            free[lane] = complete
            for reg in instr.vreg_uses:
                if complete > reader_complete.get(reg, 0):
                    reader_complete[reg] = complete
            for reg in instr.vreg_defs:
                writers[reg] = (start + latency, occ, complete)
                reader_complete[reg] = 0
            if complete > completes[0]:
                heapq.heapreplace(completes, complete)
            last_issue = issue
            last_start = start
            scalar_time = issue + 1

        self.scalar_time, self.last_issue, self.last_start = scalar_time, last_issue, last_start
        self.overlap, self.scalar_total = overlap, scalar_total
        self.placed += len(entries)
        return entries

    def counters(self) -> CounterSet:
        """The counters of every record placed so far."""
        total = max(self.free)  # each pipeline completes its instructions in order
        mem_busy = self.busy[_LANES[Pipeline.MEM]]
        arith_busy = self.busy[_LANES[Pipeline.ARITH]]
        return CounterSet(total, self.placed, self.scalar_total, mem_busy, arith_busy,
                          self.overlap, total - (mem_busy + arith_busy - self.overlap))


def simulate(trace: Sequence, params: Optional[TimingParams] = None):
    """Run the cycle model over a trace from an empty machine; returns
    (timeline entries, counters)."""
    state = ModelState(params)
    return state.place(trace), state.counters()


def emit_timeline(entries: Sequence[TimelineEntry]) -> str:
    """The timeline as CSV, one row per entry."""
    lines = ["seq,pipeline,issue,start,complete,mnemonic"]
    for e in entries:
        lines.append(f"{e.seq},{e.pipeline._value_},{e.issue_cycle},"
                     f"{e.start_cycle},{e.complete_cycle},{e.mnemonic}")
    return "\n".join(lines) + "\n"


_LANE_COLORS = {Pipeline.CONFIG: "#999999", Pipeline.MEM: "#d94801", Pipeline.ARITH: "#2171b5"}


def emit_timeline_svg(entries: Sequence[TimelineEntry]) -> str:
    """The timeline as an SVG chart, one lane per pipeline in use."""
    lane_h, pad, label_w = 28, 8, 70
    lanes = [p for p in _LANE_COLORS if any(e.pipeline == p for e in entries)]
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
