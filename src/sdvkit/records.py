"""Type-sensitive equality for the toolkit's immutable named-tuple records."""


def _eq(self, other) -> bool:
    return type(self) is type(other) and tuple.__eq__(self, other)


def _ne(self, other) -> bool:
    return not _eq(self, other)


def typed_equality(cls):
    """Make a NamedTuple class equal only to its own type with equal values."""
    cls.__eq__, cls.__ne__, cls.__hash__ = _eq, _ne, tuple.__hash__
    return cls
