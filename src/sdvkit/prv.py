"""Paraver text-format export (.prv trace + .pcf config) and its parser.

The trace topology is fixed to one node / one application / one task / one
thread, matching single-core runs.  Event-type numbering is a documented
contract of this toolkit:

    1000  phase id          2000  program counter
    3000  vector length     4000  instruction category
    5000  mnemonic id

Without a timeline the time axis is the instruction sequence index (one unit
per record); with a timeline it is the modeled issue cycle.  The header
carries a fixed epoch string so exports are byte-reproducible.  `EventRecord`
and `StateRecord` are immutable named tuples with type-sensitive equality.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from typing import NamedTuple, Optional, Sequence, Union

from .errors import EmptyTrace, PrvFormatError, SdvError
from .isa import MNEMONIC_IDS, Category
from .records import typed_equality
from .tracefile import TraceRecord
from .timing import TimelineEntry

TYPE_PHASE = 1000
TYPE_PC = 2000
TYPE_VL = 3000
TYPE_CATEGORY = 4000
TYPE_MNEMONIC = 5000

EVENT_TYPE_NAMES = {
    TYPE_PHASE: "Phase id",
    TYPE_PC: "Program counter",
    TYPE_VL: "Vector length",
    TYPE_CATEGORY: "Instruction category",
    TYPE_MNEMONIC: "Mnemonic id",
}

CATEGORY_IDS = {category: i for i, category in enumerate(Category)}

_HEADER_RE = re.compile(
    r"^#Paraver \([^)]*\):(\d+)_ns:1\(1\):1:1\(1:1\)$")


@typed_equality
class EventRecord(NamedTuple):
    time: int
    etype: int
    value: int


@typed_equality
class StateRecord(NamedTuple):
    begin: int
    end: int
    state: int


@dataclass
class PrvDocument:
    duration: int
    records: list = field(default_factory=list)

    def __post_init__(self):
        last_event_time = 0
        for record in self.records:
            error = _domain_error(record, self.duration, last_event_time)
            if error:
                raise SdvError(error)
            if isinstance(record, EventRecord):
                last_event_time = record.time


def _domain_error(record, duration: int, last_event_time: int) -> Optional[str]:
    """Why `record` cannot follow an event at `last_event_time` in a document
    of this duration, or None when it can."""
    if isinstance(record, EventRecord):
        if not 0 <= record.time <= duration:
            return f"event time {record.time} outside [0, {duration}]"
        if record.time < last_event_time:
            return "event times must be non-decreasing in file order"
        if record.etype < 0 or record.value < 0:
            return f"negative event type or value {record.etype}:{record.value}"
    elif isinstance(record, StateRecord):
        if not 0 <= record.begin <= record.end <= duration:
            return f"state record [{record.begin}, {record.end}] outside [0, {duration}]"
        if record.state < 0:
            return f"negative state {record.state}"
    else:
        return f"unknown record {record!r}"
    return None


def to_prv(trace: Sequence[TraceRecord],
           timeline: Optional[Sequence[TimelineEntry]] = None) -> PrvDocument:
    """Convert a trace to a Paraver document: five events per record."""
    if not trace:
        raise EmptyTrace("cannot export an empty trace")
    if timeline is not None:
        if len(timeline) != len(trace):
            raise SdvError("timeline and trace lengths differ")
        times = [entry.issue_cycle for entry in timeline]
        duration = max(entry.complete_cycle for entry in timeline)
    else:
        times = list(range(len(trace)))
        duration = len(trace)
    records: list[EventRecord] = []
    for rec, time in zip(trace, times):
        records.append(EventRecord(time, TYPE_PHASE, rec.phase))
        records.append(EventRecord(time, TYPE_PC, rec.pc))
        records.append(EventRecord(time, TYPE_VL, rec.vl))
        records.append(EventRecord(time, TYPE_CATEGORY, CATEGORY_IDS[rec.instr.category]))
        records.append(EventRecord(time, TYPE_MNEMONIC, MNEMONIC_IDS[rec.instr.mnemonic]))
    return PrvDocument(duration=duration, records=records)


def emit_prv(doc: PrvDocument) -> tuple[str, str]:
    """Serialize a document; returns (.prv text, .pcf text)."""
    lines = [f"#Paraver (01/01/00 at 00:00):{doc.duration}_ns:1(1):1:1(1:1)"]
    for record in doc.records:
        if isinstance(record, StateRecord):
            lines.append(f"1:1:1:1:1:{record.begin}:{record.end}:{record.state}")
        else:
            lines.append(f"2:1:1:1:1:{record.time}:{record.etype}:{record.value}")
    return "\n".join(lines) + "\n", _emit_pcf(doc)


def parse_prv(text: str) -> PrvDocument:
    lines = text.splitlines()
    if not lines:
        raise PrvFormatError("empty file", 1)
    header = _HEADER_RE.match(lines[0])
    if header is None:
        raise PrvFormatError(f"bad header {lines[0]!r}", 1)
    try:
        duration = int(header.group(1))
    except ValueError as err:
        raise PrvFormatError(str(err), 1) from err
    records: list[Union[EventRecord, StateRecord]] = []
    last_event_time = 0
    for line_no, line in enumerate(lines[1:], start=2):
        if not line.strip() or line.startswith("#"):
            continue
        parts = line.split(":")
        try:
            kind = int(parts[0])
            if kind == 1:
                if len(parts) != 8:
                    raise ValueError("state record needs 8 fields")
                line_records = [StateRecord(int(parts[5]), int(parts[6]), int(parts[7]))]
            elif kind == 2:
                if len(parts) < 8 or len(parts) % 2 != 0:
                    raise ValueError("event record needs time plus type:value pairs")
                time = int(parts[5])
                line_records = [EventRecord(time, int(parts[i]), int(parts[i + 1]))
                                for i in range(6, len(parts), 2)]
            else:
                raise ValueError(f"unsupported record kind {kind}")
        except (ValueError, IndexError) as err:
            raise PrvFormatError(str(err), line_no) from err
        for record in line_records:
            error = _domain_error(record, duration, last_event_time)
            if error:
                raise PrvFormatError(error, line_no)
        if kind == 2:
            last_event_time = time
        records.extend(line_records)
    return PrvDocument(duration=duration, records=records)


def _emit_pcf(doc: PrvDocument) -> str:
    used_types: dict[int, set[int]] = {}
    for record in doc.records:
        if isinstance(record, EventRecord):
            used_types.setdefault(record.etype, set()).add(record.value)

    out = [
        "DEFAULT_OPTIONS", "",
        "LEVEL               THREAD",
        "UNITS               NANOSEC", "",
        "DEFAULT_SEMANTIC", "",
        "THREAD_FUNC          State As Is", "",
    ]
    for etype in sorted(used_types):
        name = EVENT_TYPE_NAMES.get(etype, f"Event type {etype}")
        out.append("EVENT_TYPE")
        out.append(f"9    {etype}    {name}")
        values = _value_labels(etype, used_types[etype])
        if values:
            out.append("VALUES")
            out.extend(f"{value}      {label}" for value, label in values)
        out.append("")
    return "\n".join(out) + "\n"


def _value_labels(etype: int, seen: set[int]):
    if etype == TYPE_CATEGORY:
        return [(i, category.value) for category, i in CATEGORY_IDS.items()]
    if etype == TYPE_MNEMONIC:
        return [(i, m) for m, i in MNEMONIC_IDS.items()]
    if etype == TYPE_PHASE:
        return [(value, f"phase {value}") for value in sorted(seen)]
    if etype in (TYPE_PC, TYPE_VL):
        return []  # numeric timelines, rendered as values
    return [(value, f"value {value}") for value in sorted(seen)]
