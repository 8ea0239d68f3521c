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
register or address as `target` and the value(s) as `values`.  The four state
directives, ``.pc``, ``.phase``, ``.window`` and ``.scalar``, make no item:
each sets the `StreamBuilder` attribute of its name, which the items after it
carry.  `StreamBuilder` applies the state rules for the parser and generators.
"""

from __future__ import annotations

import enum
import functools
import math
import re
from typing import Callable, NamedTuple, Optional, Sequence, Union

from .errors import (AsmSyntaxError, MalformedNumber, SdvError,
                     StreamSyntaxError, UnknownDirective)
from .isa import Instruction, disassemble, parse_instruction, parse_register
from .records import DEC, HEX, positional, typed_equality


class ItemKind(enum.Enum):
    INSTRUCTION = "INSTRUCTION"
    SET_XREG = "SET_XREG"
    SET_FREG = "SET_FREG"
    INIT_MEM_F64 = "INIT_MEM_F64"
    INIT_MEM_U64 = "INIT_MEM_U64"


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


_new_item = positional(StreamItem)
# the kinds as module globals for the loops that test an item's kind: reading
# a member off an Enum class goes through EnumType's `__getattr__` hook
_INSTRUCTION, _SET_XREG, _SET_FREG, _MEM_F64, _MEM_U64 = (
    ItemKind.INSTRUCTION, ItemKind.SET_XREG, ItemKind.SET_FREG,
    ItemKind.INIT_MEM_F64, ItemKind.INIT_MEM_U64)
_U64_MASK = (1 << 64) - 1
_is_uint = re.compile(f"{DEC}|{HEX}").fullmatch
_is_uint_run = re.compile(f"(?:{HEX}|{DEC})(?: (?:{HEX}|{DEC}))*").fullmatch


class StreamBuilder:
    """Appends items under the format's state rules: the pc advances 4 mod
    2^64 after each instruction, phase and window persist until set again,
    and a `.scalar` count belongs to the next instruction.  Setting `pc`,
    `phase`, `window` or `scalar` is what the directive of that name does."""

    def __init__(self):
        self.items: list[StreamItem] = []
        self.pc = self.phase = self.window = self.scalar = 0

    def add(self, kind: ItemKind, target: Optional[int], *values) -> None:
        """Append one register or memory directive item."""
        self.items.append(_new_item((kind, self.pc, self.phase, self.window,
                                     0, None, target, values)))

    def instruction(self, instr: Instruction) -> None:
        self.items.append(_new_item((_INSTRUCTION, self.pc, self.phase,
                                     self.window, self.scalar, instr, None, ())))
        self.scalar = 0
        self.pc = (self.pc + 4) & _U64_MASK


class _Operand(NamedTuple):
    """How a run of one kind of directive operand is read from and written to
    text, a whole run at a time.  `read` takes a line's tokens of that kind
    and returns their values: one canonical-form check over the run, then one
    conversion pass, and only when either fails a scan that names the first
    bad token.  `write` renders a run of values as one space-separated text;
    `form`, for an integer operand, is the %-format of one value."""
    read: Callable[[list[str], int], list]
    write: Callable[[Sequence], str]
    form: Optional[str] = None


def _formatted(form: str) -> Callable[[Sequence], str]:
    """Write a run of values with one %-format of `form` per value."""
    return lambda values: " ".join([form] * len(values)) % tuple(values)


def _uint(bits: int, form: str) -> _Operand:
    # no canonical token of at most this many characters reaches 2^bits, so a
    # run no longer than it needs no range check
    short = min(len(str(1 << bits)) - 1, 2 + bits // 4)

    def read(tokens: list[str], line_no: int) -> list[int]:
        text = " ".join(tokens)
        if _is_uint_run(text):
            values = []
            for token in tokens:
                values.append(int(token, 0))
            if len(text) <= short or not max(values) >> bits:
                return values
        bad = next(t for t in tokens if not _is_uint(t) or int(t, 0) >> bits)
        raise MalformedNumber(f"{bad!r} outside [0, 2^{bits})" if _is_uint(bad)
                              else f"bad integer {bad!r}", line_no)
    return _Operand(read, _formatted(form), form)


def _is_f64(text: str) -> bool:
    """Whether `text`, a token or a run of them, is in the form an <f64> may
    take: ASCII without ``_``."""
    return text.isascii() and "_" not in text


def _bad_f64(token: str) -> bool:
    try:
        float(token)
    except ValueError:
        return True
    return not _is_f64(token)


def _read_f64(tokens: list[str], line_no: int) -> list[float]:
    if _is_f64(" ".join(tokens)):
        try:
            return [*map(float, tokens)]
        except ValueError:
            pass
    raise MalformedNumber(f"bad float {next(filter(_bad_f64, tokens))!r}", line_no)


def _write_f64(values: Sequence[float]) -> str:
    text = " ".join(map(repr, values))
    if "nan" not in text:
        return text
    return " ".join("-nan" if v != v and math.copysign(1.0, v) < 0 else repr(v) for v in values)


def _register(prefix: str) -> _Operand:
    def read(tokens: list[str], line_no: int) -> list[int]:
        values = []
        for token in tokens:
            try:
                values.append(parse_register(token, prefix))
            except AsmSyntaxError:
                raise StreamSyntaxError(f"bad register {token!r}", line_no) from None
        return values
    form = f"{prefix}%d"
    return _Operand(read, _formatted(form), form)


_U32, _U64 = _uint(32, "%d"), _uint(64, "%#x")
_F64 = _Operand(_read_f64, _write_f64)

# directive -> (item kind, target operand, value operand, several values);
# a directive without a kind sets the builder's attribute of its name
_DIRECTIVES = {
    ".pc": (None, None, _U64, False),
    ".phase": (None, None, _U32, False),
    ".window": (None, None, _U32, False),
    ".scalar": (None, None, _U32, False),
    ".xreg": (ItemKind.SET_XREG, _register("x"), _U64, False),
    ".freg": (ItemKind.SET_FREG, _register("f"), _F64, False),
    ".memf64": (ItemKind.INIT_MEM_F64, _U64, _F64, True),
    ".memu64": (ItemKind.INIT_MEM_U64, _U64, _U64, True),
}
# the directive that writes each directive item's kind, by the kind's value:
# a str hashes in C, an enum member through `Enum.__hash__`
_PAYLOAD_DIRECTIVE = {kind._value_: name for name, (kind, *_) in _DIRECTIVES.items() if kind}


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
        target = target_operand.read(args[:1], line_no)[0] if target_operand else None
        values = value_operand.read(args[first:], line_no)
        if kind is None:
            setattr(builder, directive[1:], values[0])
        else:
            builder.add(kind, target, *values)
    return builder.items


def _writer(directive: str) -> Callable[..., str]:
    """The function that writes one `directive` line: from its one value for
    a directive without a kind, else from its target and values.  That value
    and a target are one integer each, written with their operand's `form`."""
    kind, target_operand, value_operand, _ = _DIRECTIVES[directive]
    if kind is None:
        return f"{directive} {value_operand.form}".__mod__
    head, write = f"{directive} {target_operand.form} ", value_operand.write
    return lambda target, values: head % target + write(values)


_WRITERS = {directive: _writer(directive) for directive in _DIRECTIVES}


def write_vstream(items: list[StreamItem]) -> str:
    """Render items back to canonical VSTREAM text.

    Emits `.pc`, `.phase`, and `.window` directives exactly where the value
    changes, so that parse_vstream(write_vstream(items)) reproduces the items,
    including after instruction reordering has made pcs non-consecutive.
    """
    lines: list[str] = []
    pc = phase = window = 0
    text_of = functools.cache(disassemble)  # each distinct instruction disassembled once
    for item in items:
        if item.pc != pc:
            pc = item.pc
            lines.append(_WRITERS[".pc"](pc))
        if item.phase != phase:
            phase = item.phase
            lines.append(_WRITERS[".phase"](phase))
        if item.window != window:
            window = item.window
            lines.append(_WRITERS[".window"](window))
        if item.kind is _INSTRUCTION:
            if item.scalar_before:
                lines.append(_WRITERS[".scalar"](item.scalar_before))
            lines.append(text_of(item.instr))
            pc = (item.pc + 4) & _U64_MASK
        else:
            directive = _PAYLOAD_DIRECTIVE[item.kind._value_]
            lines.append(_WRITERS[directive](item.target, item.values))
    return "\n".join(lines) + ("\n" if lines else "")
