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

``#`` starts a comment; every other non-blank line is one instruction in
standard vector assembly.  A `StreamItem` is an immutable named tuple with
type-sensitive equality.
"""

from __future__ import annotations

import enum
from typing import NamedTuple, Optional

from .errors import (AsmSyntaxError, MalformedNumber, SdvError,
                     StreamSyntaxError, UnknownDirective)
from .isa import Instruction, disassemble, parse_instruction, parse_register
from .records import typed_equality


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
    state at the item's position; scalar_before is only meaningful on
    INSTRUCTION items."""

    kind: ItemKind
    pc: int
    phase: int = 0
    window: int = 0
    scalar_before: int = 0
    instr: Optional[Instruction] = None
    reg: Optional[int] = None
    ivalue: Optional[int] = None
    fvalue: Optional[float] = None
    address: Optional[int] = None
    fvalues: tuple[float, ...] = ()
    uvalues: tuple[int, ...] = ()


_U64_MASK = (1 << 64) - 1


def _uint_token(token: str, bits: int, line_no: int) -> int:
    try:
        value = int(token, 0)
    except ValueError:
        raise MalformedNumber(f"bad integer {token!r}", line_no) from None
    if not 0 <= value < 1 << bits:
        raise MalformedNumber(f"{token!r} outside [0, 2^{bits})", line_no)
    return value


def _float_token(token: str, line_no: int) -> float:
    try:
        return float(token)
    except ValueError:
        raise MalformedNumber(f"bad float {token!r}", line_no) from None


def _reg_token(token: str, prefix: str, line_no: int) -> int:
    try:
        return parse_register(token, prefix)
    except AsmSyntaxError:
        raise StreamSyntaxError(f"bad register {token!r}", line_no) from None


def parse_vstream(text: str) -> list[StreamItem]:
    items: list[StreamItem] = []
    pc = 0
    phase = 0
    window = 0
    pending_scalar = 0
    instrs: dict[str, Instruction] = {}  # each distinct instruction text parsed once

    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("."):
            tokens = line.split()
            directive, args = tokens[0], tokens[1:]
            if directive == ".pc":
                if len(args) != 1:
                    raise StreamSyntaxError(".pc takes one address", line_no)
                pc = _uint_token(args[0], 64, line_no)
            elif directive == ".phase":
                if len(args) != 1:
                    raise StreamSyntaxError(".phase takes one id", line_no)
                phase = _uint_token(args[0], 32, line_no)
                items.append(StreamItem(ItemKind.PHASE_MARK, pc, phase, window,
                                        ivalue=phase))
            elif directive == ".window":
                if len(args) != 1:
                    raise StreamSyntaxError(".window takes one id", line_no)
                window = _uint_token(args[0], 32, line_no)
                items.append(StreamItem(ItemKind.WINDOW_MARK, pc, phase, window,
                                        ivalue=window))
            elif directive == ".scalar":
                if len(args) != 1:
                    raise StreamSyntaxError(".scalar takes one count", line_no)
                pending_scalar = _uint_token(args[0], 32, line_no)
            elif directive == ".xreg":
                if len(args) != 2:
                    raise StreamSyntaxError(".xreg takes register and value", line_no)
                reg = _reg_token(args[0], "x", line_no)
                value = _uint_token(args[1], 64, line_no)
                items.append(StreamItem(ItemKind.SET_XREG, pc, phase, window,
                                        reg=reg, ivalue=value))
            elif directive == ".freg":
                if len(args) != 2:
                    raise StreamSyntaxError(".freg takes register and value", line_no)
                reg = _reg_token(args[0], "f", line_no)
                items.append(StreamItem(ItemKind.SET_FREG, pc, phase, window,
                                        reg=reg, fvalue=_float_token(args[1], line_no)))
            elif directive == ".memf64":
                if len(args) < 2:
                    raise StreamSyntaxError(".memf64 takes address and values", line_no)
                addr = _uint_token(args[0], 64, line_no)
                values = tuple(_float_token(a, line_no) for a in args[1:])
                items.append(StreamItem(ItemKind.INIT_MEM_F64, pc, phase, window,
                                        address=addr, fvalues=values))
            elif directive == ".memu64":
                if len(args) < 2:
                    raise StreamSyntaxError(".memu64 takes address and values", line_no)
                addr = _uint_token(args[0], 64, line_no)
                values = tuple(_uint_token(a, 64, line_no) for a in args[1:])
                items.append(StreamItem(ItemKind.INIT_MEM_U64, pc, phase, window,
                                        address=addr, uvalues=values))
            else:
                raise UnknownDirective(f"unknown directive {directive!r}", line_no)
            continue

        instr = instrs.get(line)
        if instr is None:
            try:
                instr = instrs[line] = parse_instruction(line)
            except SdvError as err:
                raise StreamSyntaxError(str(err), line_no) from err
        items.append(StreamItem(ItemKind.INSTRUCTION, pc, phase, window,
                                scalar_before=pending_scalar, instr=instr))
        pending_scalar = 0
        pc = (pc + 4) & _U64_MASK
    return items


def _fmt_float(value: float) -> str:
    return repr(value)


def write_vstream(items: list[StreamItem]) -> str:
    """Render items back to canonical VSTREAM text.

    Emits `.pc`, `.phase`, and `.window` directives exactly where needed so
    that parse_vstream(write_vstream(items)) reproduces the items, including
    after instruction reordering has made pcs non-consecutive.
    """
    lines: list[str] = []
    pc = 0
    phase = 0
    window = 0
    texts: dict[Instruction, str] = {}  # each distinct instruction disassembled once
    for item in items:
        if item.pc != pc:
            lines.append(f".pc 0x{item.pc:x}")
            pc = item.pc
        if item.kind == ItemKind.PHASE_MARK:
            lines.append(f".phase {item.ivalue}")
            phase = item.ivalue
            continue
        if item.kind == ItemKind.WINDOW_MARK:
            lines.append(f".window {item.ivalue}")
            window = item.ivalue
            continue
        if item.phase != phase:
            lines.append(f".phase {item.phase}")
            phase = item.phase
        if item.window != window:
            lines.append(f".window {item.window}")
            window = item.window
        if item.kind == ItemKind.SET_XREG:
            lines.append(f".xreg x{item.reg} 0x{item.ivalue:x}")
        elif item.kind == ItemKind.SET_FREG:
            lines.append(f".freg f{item.reg} {_fmt_float(item.fvalue)}")
        elif item.kind == ItemKind.INIT_MEM_F64:
            values = " ".join(_fmt_float(v) for v in item.fvalues)
            lines.append(f".memf64 0x{item.address:x} {values}")
        elif item.kind == ItemKind.INIT_MEM_U64:
            values = " ".join(f"0x{v:x}" for v in item.uvalues)
            lines.append(f".memu64 0x{item.address:x} {values}")
        elif item.kind == ItemKind.INSTRUCTION:
            if item.scalar_before:
                lines.append(f".scalar {item.scalar_before}")
            text = texts.get(item.instr)
            if text is None:
                text = texts[item.instr] = disassemble(item.instr)
            lines.append(text)
            pc = (item.pc + 4) & _U64_MASK
        else:  # pragma: no cover
            raise AssertionError(item.kind)
    return "\n".join(lines) + ("\n" if lines else "")
