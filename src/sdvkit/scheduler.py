"""Dependence-aware list scheduling of instructions inside explicit windows.

Legality comes from a dependence graph built over the *dynamic* trace: register
hazards (vector and scalar), vl/vtype configuration ordering, and exact memory
disambiguation using the concrete byte ranges each instruction touched, so
disjointness needs no conservative may-alias reasoning.  Configuration
instructions are scheduling barriers for everything that depends on vl.

The scheduling heuristic alternates pipelines when it can, then prefers the
longest critical path, then original order.  If the heuristic ever produces a
slower schedule under the cycle model, the original order is returned instead,
so rescheduling never loses cycles.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from struct import pack
from typing import Optional, Sequence, Union

import numpy as np

from .config import MachineConfig
from .emulator import run
from .errors import SdvError
from .isa import Category
from .timing import Pipeline, TimingParams, occupancy, pipeline_of, simulate
from .tracefile import TraceRecord
from .vstream import ItemKind, StreamItem

RAW, WAR, WAW, MEM_ORDER = "RAW", "WAR", "WAW", "MEM_ORDER"


@dataclass
class DependenceGraph:
    count: int
    labels: dict = field(default_factory=dict)   # (src, dst) -> set of labels
    succs: dict = field(default_factory=dict)    # src -> set of dst
    preds: dict = field(default_factory=dict)    # dst -> set of src

    def add(self, src: int, dst: int, label: str):
        if src == dst:
            return
        self.labels.setdefault((src, dst), set()).add(label)
        self.succs.setdefault(src, set()).add(dst)
        self.preds.setdefault(dst, set()).add(src)

    def edge_labels(self, src: int, dst: int) -> set:
        return self.labels.get((src, dst), set())


def _ranges_overlap(ranges_a, ranges_b) -> bool:
    for base_a, len_a in ranges_a:
        for base_b, len_b in ranges_b:
            if max(base_a, base_b) < min(base_a + len_a, base_b + len_b):
                return True
    return False


def build_dependences(window: Sequence[TraceRecord]) -> DependenceGraph:
    """Dependence graph over one contiguous window of trace records."""
    graph = DependenceGraph(count=len(window))
    instrs = [r.instr for r in window]

    # per register file: reg -> its last writer, reg -> its readers since then
    vregs: tuple[dict[int, int], dict[int, list[int]]] = ({}, {})
    xregs: tuple[dict[int, int], dict[int, list[int]]] = ({}, {})
    last_config: Optional[int] = None
    vl_readers: list[int] = []

    for i, instr in enumerate(instrs):
        if instr.category == Category.CONFIG:
            # orders after every vl consumer so far, before every one to come
            for reader in vl_readers:
                graph.add(reader, i, WAR)
            if last_config is not None:
                graph.add(last_config, i, WAW)
            last_config = i
            vl_readers = []
        else:
            if last_config is not None:
                graph.add(last_config, i, RAW)
            vl_readers.append(i)

        for (writer, readers), uses, defs in ((vregs, instr.vreg_uses, instr.vreg_defs),
                                             (xregs, instr.xreg_uses, instr.xreg_defs)):
            for reg in uses:
                if reg in writer:
                    graph.add(writer[reg], i, RAW)
                readers.setdefault(reg, []).append(i)
            for reg in defs:
                if reg in writer:
                    graph.add(writer[reg], i, WAW)
                for reader in readers.get(reg, ()):
                    graph.add(reader, i, WAR)
                writer[reg] = i
                readers[reg] = []

    for j in range(len(window)):
        if not window[j].addresses:
            continue
        j_store = instrs[j].is_store
        for i in range(j):
            if not window[i].addresses:
                continue
            if not (j_store or instrs[i].is_store):
                continue
            if _ranges_overlap(window[i].addresses, window[j].addresses):
                graph.add(i, j, MEM_ORDER)
    return graph


def reschedule_order(window: Sequence[TraceRecord],
                     params: Optional[TimingParams] = None) -> list[int]:
    """Topological order chosen by list scheduling; returns indices into the
    window.  Falls back to original order if the model says it would be slower."""
    n = len(window)
    if n <= 1:
        return list(range(n))
    params = params or TimingParams()
    graph = build_dependences(window)
    pipes = [pipeline_of(r.instr.category) for r in window]

    weight = [occupancy(window[i], params) + params.latency_of(pipes[i]) for i in range(n)]
    critical = [0] * n
    for i in range(n - 1, -1, -1):
        below = max((critical[j] for j in graph.succs.get(i, ())), default=0)
        critical[i] = weight[i] + below

    indegree = [len(graph.preds.get(i, ())) for i in range(n)]
    ready = [i for i in range(n) if indegree[i] == 0]
    order: list[int] = []
    last_pipe: Optional[Pipeline] = None
    while ready:
        pool = ready
        if last_pipe == Pipeline.MEM:
            preferred = [i for i in ready if pipes[i] == Pipeline.ARITH]
            pool = preferred or ready
        elif last_pipe == Pipeline.ARITH:
            preferred = [i for i in ready if pipes[i] == Pipeline.MEM]
            pool = preferred or ready
        pick = max(pool, key=lambda i: (critical[i], -i))
        ready.remove(pick)
        order.append(pick)
        last_pipe = pipes[pick]
        for succ in sorted(graph.succs.get(pick, ())):
            indegree[succ] -= 1
            if indegree[succ] == 0:
                ready.append(succ)
    if len(order) != n:  # pragma: no cover - graph is acyclic by construction
        raise SdvError("dependence graph is not acyclic")

    identity = list(range(n))
    if order == identity:
        return identity
    base = simulate(window, params)[1].total_cycles
    new = simulate([window[i] for i in order], params)[1].total_cycles
    if new > base:
        return identity
    return order


def reschedule(window: Sequence[TraceRecord],
               params: Optional[TimingParams] = None) -> list[TraceRecord]:
    return [window[i] for i in reschedule_order(window, params)]


def schedule_stream(items: Sequence[StreamItem],
                    params: Optional[TimingParams] = None,
                    config: Optional[MachineConfig] = None
                    ) -> tuple[list[StreamItem], int, int]:
    """Reorder instructions window-by-window inside a stream.

    The stream is first executed to recover concrete addresses and vector
    lengths.  Only contiguous instruction runs that share a window id and are
    not interrupted by directives are reordered; directives stay in place and
    act as barriers.

    Returns ``(items, cycles_before, cycles_after)``: the scheduled stream and
    the modeled total cycles of the input and of that stream.  The counts come
    from the emulations made here; when nothing moved, or the whole stream got
    slower and the input is returned, ``cycles_after == cycles_before``."""
    items = list(items)
    config = config or MachineConfig()
    params = params or TimingParams()
    _, records = run(config, items)
    before = simulate(records, params)[1].total_cycles

    positions = [i for i, item in enumerate(items) if item.kind == ItemKind.INSTRUCTION]
    units: list[list[int]] = []
    current: list[int] = []
    for k, pos in enumerate(positions):
        if current and pos == positions[current[-1]] + 1 \
                and records[k].window_id == records[current[0]].window_id:
            current.append(k)
        else:
            if current:
                units.append(current)
            current = [k]
    if current:
        units.append(current)

    new_items = list(items)
    changed = False
    for unit in units:
        if len(unit) < 2:
            continue
        order = reschedule_order([records[k] for k in unit], params)
        if order == sorted(order):
            continue
        changed = True
        base = positions[unit[0]]
        for slot, source in enumerate(order):
            new_items[base + slot] = items[base + source]
    if not changed:
        return new_items, before, before
    # window-local gains may not compose across window boundaries; keep the
    # original stream if the model says the whole thing got slower
    _, scheduled_records = run(config, new_items)
    after = simulate(scheduled_records, params)[1].total_cycles
    if after > before:
        return list(items), before, before
    return new_items, before, after


def _same_float(a: float, b: float) -> bool:
    return pack("<d", a) == pack("<d", b)


def verify_equivalence(config: Optional[MachineConfig],
                       stream_a: Union[str, Sequence[StreamItem]],
                       stream_b: Union[str, Sequence[StreamItem]]) -> bool:
    """True iff both streams leave bit-identical architectural state: every
    register file, vl/vtype, and all touched memory."""
    state_a, _ = run(config, stream_a)
    state_b, _ = run(config, stream_b)
    if state_a.xregs != state_b.xregs:
        return False
    if not all(_same_float(a, b) for a, b in zip(state_a.fregs, state_b.fregs)):
        return False
    if state_a.vl != state_b.vl or state_a.vtype != state_b.vtype:
        return False
    if not np.array_equal(state_a.vregs, state_b.vregs):
        return False
    pages_a = state_a.memory.touched_pages()
    pages_b = state_b.memory.touched_pages()
    zero = bytes(4096)
    for index in set(pages_a) | set(pages_b):
        if pages_a.get(index, zero) != pages_b.get(index, zero):
            return False
    return True


def trace_windows(records: Sequence[TraceRecord]) -> list[list[TraceRecord]]:
    """Split a trace into its contiguous same-window slices."""
    windows: list[list[TraceRecord]] = []
    for record in records:
        if windows and windows[-1][0].window_id == record.window_id:
            windows[-1].append(record)
        else:
            windows.append([record])
    return windows
