"""What the record formats share: type-sensitive equality for the toolkit's
immutable named-tuple records, and the one written form of an unsigned
integer in the trace, VSTREAM and Paraver files.  A decimal has at most 20
digits, enough for any u64, so no reader converts a longer one."""

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
