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

`to_prv` builds the five ``(type, value)`` pairs once per distinct ``(phase,
pc, vl, mnemonic)`` and keeps one ``(time, pairs)`` row per record; `emit_prv`
formats each distinct ``pairs`` once, as event lines with a time slot, and
labels the `.pcf` from them.  Each record is checked once: where a document
is built by hand, per line in `parse_prv`, and per trace record in `to_prv`.
`parse_prv` reads every number in the decimal form `emit_prv` writes,
``0|[1-9][0-9]*`` with at most 20 digits; any other is a format error.
"""

from __future__ import annotations

import re
from functools import cached_property
from typing import NamedTuple, Optional, Sequence

from .errors import EmptyTrace, PrvFormatError, SdvError
from .isa import MNEMONIC_IDS, Category
from .records import DEC, typed_equality
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

# .pcf value labels that do not depend on the data; PCs and VLs show as numbers
_FIXED_LABELS = {TYPE_PC: [], TYPE_VL: [],
                 TYPE_CATEGORY: [(i, category.value) for category, i in CATEGORY_IDS.items()],
                 TYPE_MNEMONIC: [(i, m) for m, i in MNEMONIC_IDS.items()]}

# Every number in a .prv file has the one form `emit_prv` writes.
_NUMBER = re.compile(DEC)
_HEADER_RE = re.compile(
    rf"^#Paraver \([^)]*\):({_NUMBER.pattern})_ns:1\(1\):1:1\(1:1\)$")
_EVENT_LINE = "2:1:1:1:1:{}:{}:{}"
_STATE_LINE = "1:1:1:1:1:{}:{}:{}"


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


class PrvDocument:
    """A Paraver trace: its duration and its records in file order, held as
    `rows` (a state record, or one time and its event pairs)."""

    def __init__(self, duration: int, records: Sequence = ()):
        self.duration, self.rows = duration, []
        last_event_time = 0
        for record in records:
            error = _domain_error(record, duration, last_event_time)
            if error:
                raise SdvError(error)
            if isinstance(record, EventRecord):
                last_event_time = record.time
                record = (record.time, (record[1:],))
            self.rows.append(record)

    @cached_property
    def records(self) -> list:
        """Every record in file order, built from `rows` when first read."""
        return [record for row in self.rows for record in (
            [row] if isinstance(row, StateRecord) else
            [EventRecord(row[0], etype, value) for etype, value in row[1]])]

    @property
    def record_count(self) -> int:
        """len(records), without building them."""
        return sum(1 if isinstance(row, StateRecord) else len(row[1]) for row in self.rows)

    def __eq__(self, other):
        return (isinstance(other, PrvDocument)
                and (self.duration, self.records) == (other.duration, other.records))

    def __repr__(self):
        return f"PrvDocument(duration={self.duration!r}, records={self.records!r})"


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
        times = range(len(trace))
        duration = len(trace)
    keyed: dict[tuple, tuple] = {}  # (phase, pc, vl, mnemonic) -> its five pairs
    doc = PrvDocument(duration)  # each row below checked once, by time and by key
    last_time = 0
    for rec, time in zip(trace, times):
        if not last_time <= time <= duration:
            raise SdvError(f"record {rec.seq}: time {time} outside [{last_time}, {duration}]")
        last_time = time
        key = (rec.phase, rec.pc, rec.vl, rec.instr.mnemonic)
        pairs = keyed.get(key)
        if pairs is None:
            if min(key[:3]) < 0:
                raise SdvError(f"negative phase, pc or vl in record {rec.seq}")
            pairs = keyed[key] = (
                (TYPE_PHASE, rec.phase), (TYPE_PC, rec.pc), (TYPE_VL, rec.vl),
                (TYPE_CATEGORY, CATEGORY_IDS[rec.instr.category]),
                (TYPE_MNEMONIC, MNEMONIC_IDS[rec.instr.mnemonic]))
        doc.rows.append((time, pairs))
    return doc


def emit_prv(doc: PrvDocument) -> tuple[str, str]:
    """Serialize a document; returns (.prv text, .pcf text)."""
    templates: dict[tuple, list[str]] = {}  # distinct pairs -> event lines split at the time
    lines = [f"#Paraver (01/01/00 at 00:00):{doc.duration}_ns:1(1):1:1(1:1)"]
    for row in doc.rows:
        if isinstance(row, StateRecord):
            lines.append(_STATE_LINE.format(*row))
            continue
        time, pairs = row
        template = templates.get(pairs)
        if template is None:
            template = templates[pairs] = "\n".join(
                _EVENT_LINE.format("{}", etype, value) for etype, value in pairs).split("{}")
        lines.append(str(time).join(template))
    return "\n".join(lines) + "\n", _emit_pcf(templates)


def parse_prv(text: str) -> PrvDocument:
    lines = text.splitlines()
    if not lines:
        raise PrvFormatError("empty file", 1)
    header = _HEADER_RE.match(lines[0])
    if header is None:
        raise PrvFormatError(f"bad header {lines[0]!r}", 1)
    duration = int(header.group(1))
    doc = PrvDocument(duration)
    last_event_time = 0
    for line_no, line in enumerate(lines[1:], start=2):
        if not line.strip() or line.startswith("#"):
            continue
        parts = line.split(":")
        if not all(map(_NUMBER.fullmatch, parts)):
            raise PrvFormatError("field not in canonical decimal form", line_no)
        fields = [int(part) for part in parts]
        kind, count = fields[0], len(fields)
        if kind == 1 and count == 8:
            row = StateRecord(*fields[5:])
            line_records = [row]
        elif kind == 2 and count >= 8 and count % 2 == 0:
            row = (fields[5], tuple(zip(fields[6::2], fields[7::2])))
            line_records = [EventRecord(fields[5], *pair) for pair in row[1]]
        else:
            raise PrvFormatError(f"record kind {kind} cannot have {count} fields", line_no)
        for record in line_records:
            error = _domain_error(record, duration, last_event_time)
            if error:
                raise PrvFormatError(error, line_no)
        if kind == 2:
            last_event_time = fields[5]
        doc.rows.append(row)
    return doc


def _emit_pcf(keys) -> str:
    used_types: dict[int, set[int]] = {}
    for pairs in keys:
        for etype, value in pairs:
            used_types.setdefault(etype, set()).add(value)

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
        values = _FIXED_LABELS.get(etype)
        if values is None:  # labelled by the values used: phases, and unknown types
            word = "phase" if etype == TYPE_PHASE else "value"
            values = [(value, f"{word} {value}") for value in sorted(used_types[etype])]
        if values:
            out.append("VALUES")
            out.extend(f"{value}      {label}" for value, label in values)
        out.append("")
    return "\n".join(out) + "\n"
