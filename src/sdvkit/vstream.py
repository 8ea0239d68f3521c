"""VSTREAM: the line-oriented dynamic-instruction-stream format.

A stream is the sequence of vector instructions one execution of a program
would trap into an instruction-level emulator, made explicit as a text file.
Scalar execution appears only as ``.scalar`` counts; register and memory
initialization appear as directives because the scalar code that would have
produced them is outside the model.

Directives::

    .pc <addr>          program counter of the next instruction (+4 mod 2^64 after each)
    .phase <u32>        phase id, persists until the next .phase
    .window <u32>       scheduling-window id, persists until the next .window
    .scalar <u32>       scalar instructions retired before the next instruction
    .xreg x<n> <u64>    set a scalar register
    .freg f<n> <f64>    set an FP scalar register
    .memf64 <addr> <f64>...   store doubles at addr, addr+8, ...
    .memu64 <addr> <u64>...   store 64-bit words at addr, addr+8, ...

Integers (``<addr>``, ``<u32>``, ``<u64>``) are decimal ``0|[1-9][0-9]*``
of at most 20 digits, or ``0x`` and lowercase hex digits without leading
zeros; an ``<f64>`` is ASCII text without ``_`` that `float` reads
(``-0.0``, ``inf``, ``nan``, ``-nan``).  Any other number raises
`MalformedNumber`.

``#`` starts a comment; every other non-blank line is one instruction in
standard vector assembly.  A `StreamItem` is an immutable named tuple with
type-sensitive equality.  A register or memory directive's item holds the
register or address as `target` and the value(s) as `values`; a phase or
window mark has no payload, its id being the item's own `phase`/`window`.
`StreamBuilder` applies the state rules for the parser and the generators.
"""

from __future__ import annotations

import enum
import functools
import math
import re
from typing import Callable, NamedTuple, Optional, Union

from .errors import (AsmSyntaxError, MalformedNumber, SdvError,
                     StreamSyntaxError, UnknownDirective)
from .isa import Instruction, disassemble, parse_instruction, parse_register
from .records import DEC, HEX, typed_equality


class ItemKind(enum.Enum):
    INSTRUCTION = "INSTRUCTION"
    SET_XREG = "SET_XREG"
    SET_FREG = "SET_FREG"
    INIT_MEM_F64 = "INIT_MEM_F64"
    INIT_MEM_U64 = "INIT_MEM_U64"
    PHASE_MARK = "PHASE_MARK"
    WINDOW_MARK = "WINDOW_MARK"


@typed_equality
class StreamItem(NamedTuple):
    """One resolved stream element.  pc/phase/window reflect the directive
    state at the item's position; scalar_before and instr are only
    meaningful on INSTRUCTION items, target and values only on register and
    memory directives."""

    kind: ItemKind
    pc: int
    phase: int = 0
    window: int = 0
    scalar_before: int = 0
    instr: Optional[Instruction] = None
    target: Optional[int] = None
    values: tuple[Union[int, float], ...] = ()


_U64_MASK = (1 << 64) - 1
_is_uint = re.compile(f"{DEC}|{HEX}").fullmatch


class StreamBuilder:
    """Appends items under the format's state rules: the pc advances 4 mod
    2^64 after each instruction, phase and window persist until a mark
    changes them, and a `.scalar` count belongs to the next instruction.
    Setting `pc` or `scalar` is what the `.pc` or `.scalar` directive does."""

    def __init__(self):
        self.items: list[StreamItem] = []
        self.pc = self.phase = self.window = self.scalar = 0

    def add(self, kind: ItemKind, target: Optional[int], *values) -> None:
        """Append one directive item; a mark's one value becomes the phase or
        window that it and the items after it carry."""
        if kind is ItemKind.PHASE_MARK:
            self.phase, values = values[0], ()
        elif kind is ItemKind.WINDOW_MARK:
            self.window, values = values[0], ()
        self.items.append(StreamItem(kind, self.pc, self.phase, self.window,
                                     0, None, target, values))

    def instruction(self, instr: Instruction) -> None:
        self.items.append(StreamItem(ItemKind.INSTRUCTION, self.pc, self.phase,
                                     self.window, self.scalar, instr))
        self.scalar = 0
        self.pc = (self.pc + 4) & _U64_MASK


class _Operand(NamedTuple):
    """How one kind of directive operand is read from and written to text."""
    read: Callable[[str, int], Union[int, float]]
    write: Callable[[Union[int, float]], str]


def _uint(bits: int, write: Callable[[int], str]) -> _Operand:
    def read(token: str, line_no: int) -> int:
        if not _is_uint(token):
            raise MalformedNumber(f"bad integer {token!r}", line_no)
        if (value := int(token, 0)) >> bits:
            raise MalformedNumber(f"{token!r} outside [0, 2^{bits})", line_no)
        return value
    return _Operand(read, write)


def _read_f64(token: str, line_no: int) -> float:
    if token.isascii() and "_" not in token:
        try:
            return float(token)
        except ValueError:
            pass
    raise MalformedNumber(f"bad float {token!r}", line_no)


def _register(prefix: str) -> _Operand:
    def read(token: str, line_no: int) -> int:
        try:
            return parse_register(token, prefix)
        except AsmSyntaxError:
            raise StreamSyntaxError(f"bad register {token!r}", line_no) from None
    return _Operand(read, lambda reg: f"{prefix}{reg}")


def _write_f64(value: float) -> str:
    return "-nan" if value != value and math.copysign(1.0, value) < 0 else repr(value)


_U32, _U64 = _uint(32, str), _uint(64, "0x{:x}".format)
_F64 = _Operand(_read_f64, _write_f64)

# directive -> (item kind, target operand, value operand, several values);
# .pc and .scalar make no item, they set the builder's state
_DIRECTIVES = {
    ".pc": (None, None, _U64, False),
    ".phase": (ItemKind.PHASE_MARK, None, _U32, False),
    ".window": (ItemKind.WINDOW_MARK, None, _U32, False),
    ".scalar": (None, None, _U32, False),
    ".xreg": (ItemKind.SET_XREG, _register("x"), _U64, False),
    ".freg": (ItemKind.SET_FREG, _register("f"), _F64, False),
    ".memf64": (ItemKind.INIT_MEM_F64, _U64, _F64, True),
    ".memu64": (ItemKind.INIT_MEM_U64, _U64, _U64, True),
}
# the kinds whose items carry a payload, and the directive that writes each
_PAYLOAD_DIRECTIVE = {kind: name for name, (kind, target, _, _) in _DIRECTIVES.items()
                      if target}


def parse_vstream(text: str) -> list[StreamItem]:
    builder = StreamBuilder()
    parse = functools.cache(parse_instruction)  # each distinct instruction text parsed once
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if not line.startswith("."):
            try:
                builder.instruction(parse(line))
            except SdvError as err:
                raise StreamSyntaxError(str(err), line_no) from err
            continue
        directive, *args = line.split()
        spec = _DIRECTIVES.get(directive)
        if spec is None:
            raise UnknownDirective(f"unknown directive {directive!r}", line_no)
        kind, target_operand, value_operand, several = spec
        first = 1 if target_operand else 0
        if len(args) <= first or (len(args) > first + 1 and not several):
            raise StreamSyntaxError(f"wrong operand count for {directive}", line_no)
        target = target_operand.read(args[0], line_no) if target_operand else None
        values = [value_operand.read(token, line_no) for token in args[first:]]
        if directive == ".pc":
            builder.pc = values[0]
        elif directive == ".scalar":
            builder.scalar = values[0]
        else:
            builder.add(kind, target, *values)
    return builder.items


def _line(directive: str, target: Optional[int], values) -> str:
    _, target_operand, value_operand, _ = _DIRECTIVES[directive]
    words = [directive, target_operand.write(target)] if target_operand else [directive]
    words.extend(map(value_operand.write, values))
    return " ".join(words)


def write_vstream(items: list[StreamItem]) -> str:
    """Render items back to canonical VSTREAM text.

    Emits `.pc`, `.phase`, and `.window` directives exactly where needed so
    that parse_vstream(write_vstream(items)) reproduces the items, including
    after instruction reordering has made pcs non-consecutive.
    """
    lines: list[str] = []
    pc = phase = window = 0
    text_of = functools.cache(disassemble)  # each distinct instruction disassembled once
    for item in items:
        kind = item.kind
        if item.pc != pc:
            pc = item.pc
            lines.append(_line(".pc", None, (pc,)))
        if item.phase != phase or kind is ItemKind.PHASE_MARK:
            phase = item.phase
            lines.append(_line(".phase", None, (phase,)))
        if item.window != window or kind is ItemKind.WINDOW_MARK:
            window = item.window
            lines.append(_line(".window", None, (window,)))
        if kind is ItemKind.INSTRUCTION:
            if item.scalar_before:
                lines.append(_line(".scalar", None, (item.scalar_before,)))
            lines.append(text_of(item.instr))
            pc = (item.pc + 4) & _U64_MASK
        elif kind in _PAYLOAD_DIRECTIVE:
            lines.append(_line(_PAYLOAD_DIRECTIVE[kind], item.target, item.values))
    return "\n".join(lines) + ("\n" if lines else "")
