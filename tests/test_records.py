"""The contract of the five immutable record types: no attribute can be set,
equal values hash equal, a record never equals a plain tuple or a record of
another type, and repr shows ``Name(field=value, ...)``.  Every record the
hot paths build is well formed: its class's exact type with every field."""

import pytest

from sdvkit.emulator import run
from sdvkit.isa import parse_instruction
from sdvkit.prv import EventRecord, StateRecord
from sdvkit.scheduler import schedule_stream
from sdvkit.timing import Pipeline, TimelineEntry, simulate
from sdvkit.tracefile import TraceRecord, read_trace, write_trace
from sdvkit.vstream import ItemKind, StreamItem, parse_vstream, write_vstream
from sdvkit.workloads import gen_axpy, gen_fft

_INSTR = parse_instruction("vle64.v v1, (x10)")

# type -> field names in order, and a function building an instance afresh
RECORDS = {
    StreamItem: (("kind", "pc", "phase", "window", "scalar_before", "instr", "target",
                  "values"),
                 lambda: StreamItem(ItemKind.INIT_MEM_F64, 0x40, 2, 1,
                                    target=0x1000, values=(0.5, -1.0))),
    TraceRecord: (("seq", "pc", "phase", "scalar_before", "instr", "vl", "sew_bits",
                   "addresses", "window_id"),
                  lambda: TraceRecord(3, 0x1000, 1, 5, _INSTR, 8, 64,
                                      ((0x2000, 64),), 7)),
    TimelineEntry: (("seq", "pipeline", "issue_cycle", "start_cycle",
                     "complete_cycle", "mnemonic"),
                    lambda: TimelineEntry(3, Pipeline.MEM, 10, 12, 50, "vle64.v")),
    EventRecord: (("time", "etype", "value"), lambda: EventRecord(1, 2, 3)),
    StateRecord: (("begin", "end", "state"), lambda: StateRecord(1, 2, 3)),
}


@pytest.mark.parametrize("cls", RECORDS, ids=lambda cls: cls.__name__)
def test_record_contract(cls):
    fields, make = RECORDS[cls]
    record, twin = make(), make()
    assert type(record) is cls and record is not twin
    for name in (fields[0], "not_a_field"):
        with pytest.raises(AttributeError):
            setattr(record, name, 0)
    assert record == twin and not record != twin
    assert hash(record) == hash(twin)
    assert len({record, twin}) == 1
    plain = tuple(record)
    assert record != plain and plain != record
    assert not record == plain and not plain == record
    values = ", ".join(f"{name}={getattr(record, name)!r}" for name in fields)
    assert repr(record) == f"{cls.__name__}({values})"


def test_event_and_state_records_with_equal_values_differ():
    event, state = EventRecord(1, 2, 3), StateRecord(1, 2, 3)
    assert event != state and state != event
    assert not event == state and not state == event
    assert len({event, state}) == 2


def _hot_path_records():
    """(producer, records) for every record the hot paths build: the
    generators through `StreamBuilder`, `parse_vstream`, `run`, `read_trace`,
    `simulate` and `schedule_stream`'s output."""
    streams = {"gen_fft naive": gen_fft(n=64, variant="naive", seed=1)[0],
               "gen_fft wide": gen_fft(n=64, variant="wide", seed=1)[0],
               "gen_axpy": gen_axpy(300, 2.0)[0]}
    for name, items in streams.items():
        yield name, items
        yield f"parse_vstream ({name})", parse_vstream(write_vstream(items))
        records = run(None, items)[1]
        yield f"run ({name})", records
        yield f"read_trace ({name})", read_trace(write_trace(records))
        yield f"simulate ({name})", simulate(records)[0]
        yield f"schedule_stream ({name})", schedule_stream(items)[0]


def test_every_record_the_hot_paths_build_is_well_formed():
    """Each record has its class's exact type and every field, in order: a
    positional build that drops or adds a field fails here."""
    seen = set()
    for producer, records in _hot_path_records():
        assert records, producer
        for record in records:
            cls = type(record)
            assert cls in RECORDS, (producer, cls)
            assert len(record) == len(cls._fields), (producer, record)
            assert record == cls(**record._asdict()), (producer, record)
            seen.add(cls)
    assert seen == {StreamItem, TraceRecord, TimelineEntry}
