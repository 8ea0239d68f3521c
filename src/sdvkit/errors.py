"""Exception hierarchy shared by every sdvkit module."""

from __future__ import annotations


class SdvError(Exception):
    """Base class for all toolkit errors."""


class AsmSyntaxError(SdvError):
    """Malformed assembly text; `column` is the 0-based offset of the bad token."""

    def __init__(self, message: str, column: int = 0):
        super().__init__(f"{message} (column {column})")
        self.column = column


class UnsupportedMnemonic(SdvError):
    def __init__(self, token: str):
        super().__init__(f"unsupported mnemonic {token!r}")
        self.token = token


class UnsupportedInstruction(SdvError):
    """A 32-bit word outside the supported encoding subset."""

    def __init__(self, word: int, reason: str = ""):
        detail = f": {reason}" if reason else ""
        super().__init__(f"unsupported instruction word 0x{word:08x}{detail}")
        self.word = word


class LineError(SdvError):
    """Malformed input file; `line` is the 1-based number of the bad line."""

    def __init__(self, message: str, line: int):
        super().__init__(f"line {line}: {message}")
        self.line = line


class StreamSyntaxError(LineError):
    pass


class UnknownDirective(StreamSyntaxError):
    pass


class MalformedNumber(StreamSyntaxError):
    pass


class TraceFormatError(LineError):
    pass


class PrvFormatError(LineError):
    pass


class UnsupportedVtype(SdvError):
    pass


class OutOfBoundsAccess(SdvError):
    def __init__(self, address: int, element: int):
        super().__init__(
            f"memory access at 0x{address:x} (element {element}) outside addressable range"
        )
        self.address = address
        self.element = element


class EmulationError(SdvError):
    """Wraps the first error raised while executing a stream; `seq` is the
    index of the next trace record at the point of failure."""

    def __init__(self, seq: int, cause: Exception):
        super().__init__(f"execution aborted at record {seq}: {cause}")
        self.seq = seq
        self.cause = cause


class EmptyTrace(SdvError):
    pass


class PhaseSetMismatch(SdvError):
    def __init__(self, phases_a, phases_b):
        super().__init__(
            f"phase sets differ: {sorted(phases_a)} vs {sorted(phases_b)}"
        )
        self.phases_a = set(phases_a)
        self.phases_b = set(phases_b)


class InvalidSize(SdvError):
    pass


class InvalidSeed(SdvError):
    pass


class NotEquivalent(SdvError):
    """A rescheduled stream leaves different architectural state than its input."""
