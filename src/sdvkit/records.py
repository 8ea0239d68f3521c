"""What the record formats share: type-sensitive equality for the toolkit's
immutable named-tuple records, their positional constructor for hot loops,
and the one written form of an unsigned integer in the trace, VSTREAM and
Paraver files.  A decimal has at most 20 digits, enough for any u64, so no
reader converts a longer one.

A named tuple's own constructor is a generated Python-level ``__new__`` that
fills defaults and checks keywords, about 1.5 times the cost of the C-level
``tuple.__new__`` per record.  The loops that build a record per item,
instruction or entry (`StreamBuilder`, `emulator.step`, `read_trace`,
`simulate`) therefore build through `positional(Cls)`, which takes one tuple
of every field in field order, defaults included, and checks nothing: a tuple
one field short or long makes a malformed record.  Everywhere else records
are built by calling the class."""

from functools import partial

DEC = r"(?:0|[1-9][0-9]{0,19})"
HEX = r"0x(?:0|[1-9a-f][0-9a-f]*)"


def _eq(self, other) -> bool:
    return type(self) is type(other) and tuple.__eq__(self, other)


def _ne(self, other) -> bool:
    return not _eq(self, other)


def typed_equality(cls):
    """Make a NamedTuple class equal only to its own type with equal values."""
    cls.__eq__, cls.__ne__, cls.__hash__ = _eq, _ne, tuple.__hash__
    return cls


def positional(cls):
    """A C-level constructor of the named-tuple class `cls`: called with one
    tuple holding every field in order, it returns that `cls` record."""
    return partial(tuple.__new__, cls)
