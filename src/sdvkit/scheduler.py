"""Dependence-aware list scheduling of instructions inside explicit windows.

Legality comes from a dependence graph built over the *dynamic* trace: register
hazards, with vl/vtype as one more register that configuration instructions
write and all others read, and exact memory disambiguation using the concrete
byte ranges each instruction touched, so disjointness needs no conservative
may-alias reasoning.

Memory dependences come from one sweep over the window's ranges.  Each
record's ranges are first merged into disjoint intervals; all intervals are
then visited in order of base address, with two min-heaps of the ends of
those still open, one for loads and one for stores.  An interval overlaps
exactly the open ones, and since two loads never conflict, a load is compared
only with the open stores and a store with both.  Each record has at most one
open interval, so a window with R ranges costs O(R log R + E) for E conflicts,
not the O(ra·rb) per record pair of comparing range lists.

The scheduling heuristic is list scheduling with the cycle model as its
oracle: each step places the ready record that `timing` starts earliest after
the order so far.  `reschedule_order` states which records a step tries, how
ties break and which trials a lower bound skips; with one heap of ready
records per pipeline, R records and E edges cost O(R log R + E).

`schedule_stream` places the stream on one `ModelState` as it goes, each unit
in the order chosen for it, so a unit is ordered after the state of what
really runs before it, and its new order is kept only if the unit ends
sooner there than in its original order.  A unit that ends sooner can still
leave the model worse off for the next one, and a reused order runs in
another unit's place, so `schedule_stream` keeps its input when the whole
stream got slower.
"""

from __future__ import annotations

from heapq import heappop, heappush
from itertools import groupby
from struct import pack
from typing import Collection, Optional, Sequence, Union

from .config import MachineConfig
from .emulator import MachineState, run
from .errors import NotEquivalent, SdvError
from .isa import Category
from .timing import _LANES, ModelState, TimingParams, occupancy, pipeline_of, simulate
from .tracefile import TraceRecord
from .vstream import _INSTRUCTION, StreamItem

RAW, WAR, WAW, MEM_ORDER = "RAW", "WAR", "WAW", "MEM_ORDER"

# a stream as text or items, or the final state of one already emulated
_StreamOrState = Union[str, Sequence[StreamItem], MachineState]

# (uses, defs) of the one register in the vl/vtype file: a configuration
# instruction writes it, every other instruction reads it
_VL = frozenset((0,))
_VL_READ, _VL_WRITE = (_VL, frozenset()), (frozenset(), _VL)


def _disjoint_intervals(ranges) -> list[tuple[int, int]]:
    """``(base, end)`` intervals covering the same bytes as ``(base, length)``
    ranges, sorted, with no two overlapping or touching."""
    intervals = sorted((base, base + length) for base, length in ranges if length)
    merged = intervals[:1]
    for base, end in intervals[1:]:
        if base <= merged[-1][1]:
            if end > merged[-1][1]:
                merged[-1] = (merged[-1][0], end)
        else:
            merged.append((base, end))
    return merged


def _memory_conflicts(window: Sequence[TraceRecord]) -> set[tuple[int, int]]:
    """Record pairs ``(i, j)``, ``i < j``, whose byte ranges overlap and at
    least one of which is a store."""
    intervals = sorted((base, end, i) for i, record in enumerate(window)
                       for base, end in _disjoint_intervals(record.addresses))
    stores = [record.instr.is_store for record in window]
    conflicts: set[tuple[int, int]] = set()
    opened = ([], [])  # min-heaps of (end, record): open loads, open stores
    for base, end, i in intervals:
        for heap in opened:
            while heap and heap[0][0] <= base:
                heappop(heap)
        for heap in opened[not stores[i]:]:  # a load meets only the open stores
            for _, k in heap:  # all of them overlap [base, end)
                conflicts.add((k, i) if k < i else (i, k))
        heappush(opened[stores[i]], (end, i))
    return conflicts


def build_dependences(window: Sequence[TraceRecord],
                      conflicts: Optional[Collection[tuple[int, int]]] = None
                      ) -> dict[tuple[int, int], set[str]]:
    """Dependence edges over one contiguous window of trace records: each
    ``(src, dst)`` pair, ``src != dst``, with its set of labels.

    ``conflicts`` is the window's set of memory-conflicting record pairs when
    the caller has already swept it; by default the window is swept here."""
    graph: dict[tuple[int, int], set[str]] = {}

    def add(src: int, dst: int, label: str):
        if src != dst:
            graph.setdefault((src, dst), set()).add(label)

    # per register file (vector, scalar, vl/vtype): reg -> its last writer,
    # reg -> its readers since then
    vregs, xregs, vl = ({}, {}), ({}, {}), ({}, {})
    for i, record in enumerate(window):
        instr = record.instr
        for (writer, readers), (uses, defs) in (
                (vregs, (instr.vreg_uses, instr.vreg_defs)),
                (xregs, (instr.xreg_uses, instr.xreg_defs)),
                (vl, _VL_WRITE if instr.category == Category.CONFIG else _VL_READ)):
            for reg in uses:
                if reg in writer:
                    add(writer[reg], i, RAW)
                readers.setdefault(reg, []).append(i)
            for reg in defs:
                if reg in writer:
                    add(writer[reg], i, WAW)
                for reader in readers.get(reg, ()):
                    add(reader, i, WAR)
                writer[reg] = i
                readers[reg] = []

    for i, j in _memory_conflicts(window) if conflicts is None else conflicts:
        add(i, j, MEM_ORDER)
    return graph


# ready records tried per pipeline and step, the best (-critical path, index) first
_CANDIDATES = 2


def reschedule_order(window: Sequence[TraceRecord],
                     params: Optional[TimingParams] = None, *,
                     conflicts: Optional[Collection[tuple[int, int]]] = None,
                     context: Optional[ModelState] = None) -> list[int]:
    """Topological order chosen by list scheduling with the cycle model;
    returns indices into the window.  ``conflicts`` is passed on to
    `build_dependences`.

    ``context`` is the model's state after what runs before the window,
    placed under the same ``params``; it is left as it was.  By default the
    window is ordered after an empty model.

    A record's critical path is its occupancy plus its pipeline's latency,
    plus the longest critical path of its successors.  Each step tries, of
    each pipeline's ready records, the `_CANDIDATES` best by (-critical path,
    index), each placed on a copy of the state after the order so far, and
    places the one the model starts earliest; ties go to the longer critical
    path, then the lower index.  A candidate whose lower bound
    (`ModelState.earliest_start`) is later than the best start found cannot
    win and is not placed.  The order is kept only if it ends sooner after
    ``context`` than the original order does."""
    n = len(window)
    if n <= 1:
        return list(range(n))
    params = params or TimingParams()
    succs: list[list[int]] = [[] for _ in range(n)]
    indegree = [0] * n
    for src, dst in build_dependences(window, conflicts):
        succs[src].append(dst)
        indegree[dst] += 1
    pipes = [pipeline_of(r.instr.category) for r in window]
    lanes = [_LANES[pipe] for pipe in pipes]
    critical = [0] * n
    for i in range(n - 1, -1, -1):
        critical[i] = occupancy(window[i], params) + params.latency_of(pipes[i]) + max(
            (critical[j] for j in succs[i]), default=0)

    state = context = ModelState(params) if context is None else context
    # per pipeline, its ready records' (-critical, index) in a min-heap (sorted at first)
    ready = [sorted((-critical[i], i) for i in range(n)
                    if indegree[i] == 0 and lanes[i] == lane) for lane in range(len(_LANES))]
    order = []
    while tried := [heappop(heap) for heap in ready for _ in range(min(_CANDIDATES, len(heap)))]:
        # those with the lowest bounds are tried first, so the first bound
        # later than the best start ends the step
        best = None  # ((start, -critical, index), the state after placing it)
        for bound, key, i in sorted((state.earliest_start(window[i]), key, i)
                                    for key, i in tried):
            if best is not None and (bound, key, i) >= best[0]:
                break
            trial = state.copy()
            start = trial.place((window[i],))[0].start_cycle
            if best is None or (start, key, i) < best[0]:
                best = (start, key, i), trial
        (_, _, pick), state = best
        for entry in tried:
            if entry[1] != pick:
                heappush(ready[lanes[entry[1]]], entry)
        order.append(pick)
        for succ in succs[pick]:
            indegree[succ] -= 1
            if indegree[succ] == 0:
                heappush(ready[lanes[succ]], (-critical[succ], succ))
    if len(order) != n:  # pragma: no cover - graph is acyclic by construction
        raise SdvError("dependence graph is not acyclic")
    original = context.copy()
    original.place(window)
    if state.counters().total_cycles < original.counters().total_cycles:
        return order
    return list(range(n))


def schedule_stream(items: Sequence[StreamItem],
                    params: Optional[TimingParams] = None,
                    config: Optional[MachineConfig] = None
                    ) -> tuple[list[StreamItem], int, int]:
    """Reorder instructions window-by-window inside a stream.

    The stream is first executed to recover concrete addresses and vector
    lengths.  A unit is a run of adjacent instructions that share window and
    phase, with no register or memory directive between them; only units are
    reordered, and directives stay in place as barriers.

    Returns ``(items, cycles_before, cycles_after)``: the scheduled stream and
    the modeled total cycles of the input and of that stream.  The second is
    the total of the model walked over the units, each placed in its order:
    the model reads only the ``instr``, ``vl`` and ``scalar_before`` that a
    legal reorder keeps with each record.  When nothing moved, or the whole
    stream got slower and the input is returned, ``cycles_after ==
    cycles_before``.

    Each unit is keyed by the ``(instr, vl, scalar_before)`` of its records and
    the set of its record pairs whose byte ranges conflict, and
    `reschedule_order` runs only for a key not seen before in this call,
    after the walk's state at that unit, so repeated loop bodies reuse the
    first one's order.  The key holds all that the order reads of the unit
    itself; ``seq``, ``pc``, ``phase``, ``sew_bits`` and the raw addresses
    never change it.  A unit's memory conflicts are swept once, for its key,
    and handed to `reschedule_order` with it.

    Each stream is emulated once.  When anything moved, the final state of the
    scheduled stream is compared with the input's by `verify_equivalence`, and
    `NotEquivalent` is raised if they differ, even if the input would have been
    returned for being faster."""
    items = list(items)
    config = config or MachineConfig()
    params = params or TimingParams()
    state, records = run(config, items)
    before = simulate(records, params)[1].total_cycles

    positions = [i for i, item in enumerate(items) if item.kind is _INSTRUCTION]
    units = [list(unit) for _, unit in groupby(range(len(records)), lambda k: (
        positions[k] - k, records[k].window_id, records[k].phase))]

    new_items = list(items)
    changed = False
    orders: dict[tuple, list[int]] = {}  # unit key -> its order, for this call
    walk = ModelState(params)  # the scheduled stream, placed up to the next unit
    for unit in units:
        window = [records[k] for k in unit]
        if len(unit) > 1:
            conflicts = frozenset(_memory_conflicts(window))
            key = tuple((r.instr, r.vl, r.scalar_before) for r in window), conflicts
            order = orders.get(key)
            if order is None:
                order = orders[key] = reschedule_order(window, params, conflicts=conflicts,
                                                       context=walk)
            if order != sorted(order):
                changed = True
                base = positions[unit[0]]
                for slot, source in enumerate(order):
                    new_items[base + slot] = items[base + source]
                window = [window[i] for i in order]
        walk.place(window)
    if not changed:
        return new_items, before, before
    scheduled_state = run(config, new_items)[0]
    if not verify_equivalence(config, state, scheduled_state):
        raise NotEquivalent("rescheduled stream is not equivalent to the input")
    # a reused order, or a unit that ends sooner but leaves the model worse
    # off, can slow the stream down; keep the input if the whole got slower
    after = walk.counters().total_cycles
    if after > before:
        return list(items), before, before
    return new_items, before, after


def _snapshot(config: Optional[MachineConfig], stream: _StreamOrState) -> tuple:
    """The architectural state `verify_equivalence` compares, bit-exact."""
    state = stream if isinstance(stream, MachineState) else run(config, stream)[0]
    return (state.xregs, pack(f"<{len(state.fregs)}d", *state.fregs),
            state.vl, state.vtype, state.vregs.shape, state.vregs.tobytes(),
            {index: page for index, page in state.memory.touched_pages().items()
             if any(page)})


def verify_equivalence(config: Optional[MachineConfig], stream_a: _StreamOrState,
                       stream_b: _StreamOrState) -> bool:
    """True iff both streams leave bit-identical architectural state, compared
    as one snapshot each: the xregs, the fregs' bits, vl and vtype, the vregs'
    shape and bytes, and the touched pages that are not all zero, so a page
    written with zeros equals an untouched one.

    Each argument is a stream, as text or items, which is emulated here under
    ``config``, or the final `MachineState` of a stream already emulated."""
    return _snapshot(config, stream_a) == _snapshot(config, stream_b)

