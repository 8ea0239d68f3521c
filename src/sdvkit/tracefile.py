"""Plain-text trace format: one colon-separated line per executed instruction.

Header line ``#sdvkit-trace v1``, then::

    seq:pc:phase:scalar_before:vl:sew:category:mnemonic_text:addr_ranges:window

with pc in hex (a u64) and addr_ranges as comma-separated ``base+length`` hex
pairs, each with base in [0, 2^64) and base + length <= 2^64; the field is
empty for non-memory instructions.  Every number has the one form
`write_trace` gives it: decimal ``0|[1-9][0-9]*`` of at most 20 digits, or
hex ``0x`` followed by lowercase digits without leading zeros.  The mnemonic
field is the instruction's canonical ``disassemble`` text; the category
column is derived from its mnemonic, and reading checks both, so a record
carries one instruction and nothing that can contradict it.  Single-line
records keep downstream tools line-parallel; writing is deterministic so
identical runs produce byte-identical files.  Reading skips blank lines, so
a trace that reads is written back byte for byte but for them and its line
ends.  A `TraceRecord` is an immutable named tuple with type-sensitive
equality.
"""

from __future__ import annotations

import re
from typing import NamedTuple, Sequence

from .errors import SdvError, TraceFormatError
from .isa import Category, Instruction, disassemble, parse_instruction
from .records import DEC, HEX, positional, typed_equality

HEADER = "#sdvkit-trace v1"

# One record line, each number exactly as `write_trace` writes it.
_RANGE = rf"{HEX}\+{HEX}"
_LINE = re.compile(rf"({DEC}):({HEX}):({DEC}:{DEC}:{DEC}:{DEC}:[^:]*:[^:]*):"
                   rf"((?:{_RANGE}(?:,{_RANGE})*)?):({DEC})")


@typed_equality
class TraceRecord(NamedTuple):
    seq: int
    pc: int
    phase: int
    scalar_before: int
    instr: Instruction
    vl: int
    sew_bits: int
    addresses: tuple[tuple[int, int], ...] = ()
    window_id: int = 0

    @property
    def mnemonic_text(self) -> str:
        return disassemble(self.instr)

    @property
    def category(self) -> Category:
        return self.instr.category


_new_record = positional(TraceRecord)


def write_trace(records: Sequence[TraceRecord]) -> str:
    lines = [HEADER]
    # each distinct phase:scalar_before:vl:sew:category:mnemonic run formatted once
    middles: dict[tuple, str] = {}
    for r in records:
        key = (r.phase, r.scalar_before, r.vl, r.sew_bits, r.instr)
        middle = middles.get(key)
        if middle is None:
            middle = middles[key] = (f"{r.phase}:{r.scalar_before}:{r.vl}:{r.sew_bits}:"
                                     f"{r.instr.category.value}:{disassemble(r.instr)}")
        ranges = ",".join(map("%#x+%#x".__mod__, r.addresses))
        lines.append(f"{r.seq}:0x{r.pc:x}:{middle}:{ranges}:{r.window_id}")
    return "\n".join(lines) + "\n"


def read_trace(text: str) -> list[TraceRecord]:
    lines = text.splitlines()
    if not lines or lines[0] != HEADER:
        raise TraceFormatError(f"missing header {HEADER!r}", 1)
    # each distinct phase:scalar_before:vl:sew:category:mnemonic run parsed
    # once, and each distinct mnemonic text within them once
    middles: dict[str, tuple[int, int, Instruction, int, int]] = {}
    instrs: dict[str, Instruction] = {}
    records: list[TraceRecord] = []
    for line_no, line in enumerate(lines[1:], start=2):
        m = _LINE.fullmatch(line)
        if m is None:
            if not line.strip():
                continue
            fields = line.count(":") + 1
            raise TraceFormatError(f"expected 10 fields, got {fields}" if fields != 10 else
                                   "numeric field not in canonical decimal or 0x-hex form",
                                   line_no)
        seq, pc, middle, ranges, window = m.groups()
        parsed = middles.get(middle)
        if parsed is None:
            phase, scalar_before, vl, sew, category, asm = middle.split(":")
            instr = instrs.get(asm)
            if instr is None:
                try:
                    instr = parse_instruction(asm)
                except SdvError as err:
                    raise TraceFormatError(str(err), line_no) from err
                if disassemble(instr) != asm:
                    raise TraceFormatError(f"mnemonic field {asm!r} is not canonical "
                                           f"(expected {disassemble(instr)!r})", line_no)
                instrs[asm] = instr
            if category != instr.category.value:
                raise TraceFormatError(
                    f"category {category!r} contradicts {instr.mnemonic} "
                    f"({instr.category.value})", line_no)
            parsed = middles[middle] = (int(phase), int(scalar_before), instr, int(vl), int(sew))
        instr = parsed[2]
        pc = int(pc, 16)
        if pc >= 1 << 64:
            raise TraceFormatError(f"pc 0x{pc:x} outside [0, 2^64)", line_no)
        addresses = []
        if ranges:
            if not (instr.is_load or instr.is_store):
                raise TraceFormatError(
                    f"address ranges on non-memory instruction {instr.mnemonic}", line_no)
            for chunk in ranges.split(","):
                base, length = chunk.split("+")
                base, length = int(base, 16), int(length, 16)
                if not (base < 1 << 64 and length <= (1 << 64) - base):
                    raise TraceFormatError(f"address range {chunk!r} outside [0, 2^64)", line_no)
                addresses.append((base, length))
        records.append(_new_record((int(seq), pc, *parsed, tuple(addresses), int(window))))
    return records
