"""Plain-text trace format: one colon-separated line per executed instruction.

Header line ``#sdvkit-trace v1``, then::

    seq:pc:phase:scalar_before:vl:sew:category:mnemonic_text:addr_ranges:window

with pc in hex (a u64) and addr_ranges as comma-separated ``base+length`` hex
pairs, each with base in [0, 2^64) and base + length <= 2^64; the field is
empty for non-memory instructions.  The mnemonic field is the instruction's
canonical ``disassemble`` text; the category column is derived from its
mnemonic, and reading checks both, so a record carries one instruction and
nothing that can contradict it.  Single-line records keep downstream tools
line-parallel; writing is deterministic so identical runs produce
byte-identical files.  A `TraceRecord` is an immutable named tuple with
type-sensitive equality.
"""

from __future__ import annotations

from typing import NamedTuple, Sequence

from .errors import SdvError, TraceFormatError
from .isa import Category, Instruction, disassemble, parse_instruction
from .records import typed_equality

HEADER = "#sdvkit-trace v1"


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


def write_trace(records: Sequence[TraceRecord]) -> str:
    lines = [HEADER]
    for r in records:
        ranges = ",".join(f"0x{base:x}+0x{length:x}" for base, length in r.addresses)
        lines.append(
            f"{r.seq}:0x{r.pc:x}:{r.phase}:{r.scalar_before}:{r.vl}:{r.sew_bits}:"
            f"{r.instr.category.value}:{disassemble(r.instr)}:{ranges}:{r.window_id}"
        )
    return "\n".join(lines) + "\n"


def read_trace(text: str) -> list[TraceRecord]:
    lines = text.splitlines()
    if not lines or lines[0] != HEADER:
        raise TraceFormatError(f"missing header {HEADER!r}", 1)
    instrs: dict[str, Instruction] = {}  # each distinct mnemonic field parsed once
    records: list[TraceRecord] = []
    for line_no, line in enumerate(lines[1:], start=2):
        if not line.strip():
            continue
        parts = line.split(":")
        if len(parts) != 10:
            raise TraceFormatError(f"expected 10 fields, got {len(parts)}", line_no)
        instr = instrs.get(parts[7])
        if instr is None:
            try:
                instr = parse_instruction(parts[7])
            except SdvError as err:
                raise TraceFormatError(str(err), line_no) from err
            if disassemble(instr) != parts[7]:
                raise TraceFormatError(f"mnemonic field {parts[7]!r} is not canonical "
                                       f"(expected {disassemble(instr)!r})", line_no)
            instrs[parts[7]] = instr
        if parts[6] != instr.category.value:
            raise TraceFormatError(
                f"category {parts[6]!r} contradicts {instr.mnemonic} "
                f"({instr.category.value})", line_no)
        try:
            seq = int(parts[0])
            pc = int(parts[1], 16)
            phase = int(parts[2])
            scalar_before = int(parts[3])
            vl = int(parts[4])
            sew = int(parts[5])
            addresses = []
            if parts[8]:
                if not (instr.is_load or instr.is_store):
                    raise TraceFormatError(
                        f"address ranges on non-memory instruction {instr.mnemonic}",
                        line_no)
                for chunk in parts[8].split(","):
                    base, length = chunk.split("+")
                    base, length = int(base, 16), int(length, 16)
                    if not (0 <= base < 1 << 64 and 0 <= length <= (1 << 64) - base):
                        raise TraceFormatError(
                            f"address range {chunk!r} outside [0, 2^64)", line_no)
                    addresses.append((base, length))
            window = int(parts[9])
        except ValueError as err:
            raise TraceFormatError(str(err), line_no) from err
        if min(seq, pc, phase, scalar_before, vl, sew, window) < 0:
            raise TraceFormatError("negative numeric field", line_no)
        if pc >= 1 << 64:
            raise TraceFormatError(f"pc 0x{pc:x} outside [0, 2^64)", line_no)
        records.append(TraceRecord(seq, pc, phase, scalar_before, instr, vl, sew,
                                   tuple(addresses), window))
    return records
