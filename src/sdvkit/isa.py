"""Supported vector-instruction subset: categories, textual syntax, canonical forms.

The subset is a fixed contract of 20 mnemonics: enough to express strip-mined
axpy and both FFT vectorization styles (unit-stride, strided, and gather/scatter
memory ops, integer index arithmetic, FP butterflies, register gather).
Masked forms (vm=0) are rejected.
"""

from __future__ import annotations

import enum
import re
from dataclasses import dataclass, field
from typing import Optional

from .errors import AsmSyntaxError, UnsupportedMnemonic


class Category(enum.Enum):
    CONFIG = "CONFIG"
    MEM_UNIT = "MEM_UNIT"
    MEM_STRIDED = "MEM_STRIDED"
    MEM_INDEXED = "MEM_INDEXED"
    ARITH_INT = "ARITH_INT"
    ARITH_FP = "ARITH_FP"
    PERM = "PERM"


# Major opcodes and the OP-V funct3 operand classes (RISC-V "V" extension v1.0).
OP_V, LOAD_FP, STORE_FP = 0b1010111, 0b0000111, 0b0100111
OPIVV, OPFVV, OPMVV, OPIVI, OPIVX, OPFVF, OPMVX, OPCFG = range(8)
E64 = 0b111  # memory-op width field: 64-bit elements

# The subset, one entry per mnemonic: (category, operand roles in assembly
# order, binary encoding).  Every other per-mnemonic fact, the binary decoder
# included, is derived from this table.  Roles:
#   vd/vs1/vs2/vs3 - vector registers;  rd/rs1/rs2 - scalar registers;
#   mem - parenthesized base register (populates rs1);  fs1 - FP scalar;
#   uimm - unsigned 5-bit immediate;  vtype - "e<sew>, m<lmul>" token pair.
# A memory op with vd is a load and one with vs3 is a store.
# Note the multiply-accumulate family orders sources vs1, vs2 while other
# .vv forms order vs2, vs1; both follow standard vector assembly.
# The encoding is (major opcode, funct3, funct6); for memory ops funct3 is the
# width and funct6 is nf|mew|mop (mop: unit 00, strided 10, indexed-unordered
# 01).  Operand slots no role uses must hold 0, or the optional fourth value's
# bits.  vsetvli's vtype immediate overlaps funct6, so it has none.
SPEC: dict[str, tuple[Category, tuple[str, ...], tuple[Optional[int], ...]]] = {
    "vsetvli": (Category.CONFIG, ("rd", "rs1", "vtype"), (OP_V, OPCFG, None)),
    "vsetvl": (Category.CONFIG, ("rd", "rs1", "rs2"), (OP_V, OPCFG, 0b100000)),
    "vle64.v": (Category.MEM_UNIT, ("vd", "mem"), (LOAD_FP, E64, 0b000000)),
    "vse64.v": (Category.MEM_UNIT, ("vs3", "mem"), (STORE_FP, E64, 0b000000)),
    "vlse64.v": (Category.MEM_STRIDED, ("vd", "mem", "rs2"), (LOAD_FP, E64, 0b000010)),
    "vsse64.v": (Category.MEM_STRIDED, ("vs3", "mem", "rs2"), (STORE_FP, E64, 0b000010)),
    "vluxei64.v": (Category.MEM_INDEXED, ("vd", "mem", "vs2"), (LOAD_FP, E64, 0b000001)),
    "vsuxei64.v": (Category.MEM_INDEXED, ("vs3", "mem", "vs2"), (STORE_FP, E64, 0b000001)),
    "vadd.vv": (Category.ARITH_INT, ("vd", "vs2", "vs1"), (OP_V, OPIVV, 0b000000)),
    "vadd.vx": (Category.ARITH_INT, ("vd", "vs2", "rs1"), (OP_V, OPIVX, 0b000000)),
    "vmul.vx": (Category.ARITH_INT, ("vd", "vs2", "rs1"), (OP_V, OPMVX, 0b100101)),
    "vsll.vi": (Category.ARITH_INT, ("vd", "vs2", "uimm"), (OP_V, OPIVI, 0b100101)),
    "vand.vx": (Category.ARITH_INT, ("vd", "vs2", "rs1"), (OP_V, OPIVX, 0b001001)),
    # vid.v is the VMUNARY0 form with 0b10001 in its vs1 slot (bits 19-15)
    "vid.v": (Category.ARITH_INT, ("vd",), (OP_V, OPMVV, 0b010100, 0b10001 << 15)),
    "vfadd.vv": (Category.ARITH_FP, ("vd", "vs2", "vs1"), (OP_V, OPFVV, 0b000000)),
    "vfsub.vv": (Category.ARITH_FP, ("vd", "vs2", "vs1"), (OP_V, OPFVV, 0b000010)),
    "vfmul.vv": (Category.ARITH_FP, ("vd", "vs2", "vs1"), (OP_V, OPFVV, 0b100100)),
    "vfmacc.vv": (Category.ARITH_FP, ("vd", "vs1", "vs2"), (OP_V, OPFVV, 0b101100)),
    "vfmv.v.f": (Category.ARITH_FP, ("vd", "fs1"), (OP_V, OPFVF, 0b010111)),
    "vrgather.vv": (Category.PERM, ("vd", "vs2", "vs1"), (OP_V, OPIVV, 0b001100)),
}

MNEMONICS: tuple[str, ...] = tuple(SPEC)

# Stable numeric ids, used by the Paraver exporter's value tables.
MNEMONIC_IDS: dict[str, int] = {m: i for i, m in enumerate(MNEMONICS)}

# Instruction fields a role populates, where they are not the role's own name.
ROLE_FIELDS = {"mem": ("rs1",), "uimm": ("imm",), "vtype": ("sew", "lmul")}

# vtype vsew/vlmul field encodings; the e<sew>/m<lmul> assembly tokens, the
# binary decoder and the emulator's vsetvl all take the legal values from here.
SEW_CODES = {0b000: 8, 0b001: 16, 0b010: 32, 0b011: 64}
LMUL_CODES = {0b000: 1, 0b001: 2, 0b010: 4, 0b011: 8}


def _derived():
    return field(init=False, compare=False, repr=False)


@dataclass(frozen=True)
class Instruction:
    """One decoded instruction in normalized form.

    Only the fields declared by the mnemonic's roles are populated; all
    others stay None.  Register ids are 0-31.  Construction derives, once,
    the category, the load/store flags and the register def/use sets that
    hazard tracking and dependence edges read; they take no part in
    equality, hashing or repr.
    """

    mnemonic: str
    vd: Optional[int] = None
    vs1: Optional[int] = None
    vs2: Optional[int] = None
    vs3: Optional[int] = None
    rd: Optional[int] = None
    rs1: Optional[int] = None
    rs2: Optional[int] = None
    fs1: Optional[int] = None
    imm: Optional[int] = None
    sew: Optional[int] = None
    lmul: Optional[int] = None
    category: Category = _derived()
    is_load: bool = _derived()
    is_store: bool = _derived()
    vreg_defs: frozenset[int] = _derived()
    vreg_uses: frozenset[int] = _derived()
    xreg_defs: frozenset[int] = _derived()
    xreg_uses: frozenset[int] = _derived()

    def __post_init__(self):
        try:
            category, roles, _encoding = SPEC[self.mnemonic]
        except KeyError:
            raise UnsupportedMnemonic(self.mnemonic) from None
        expected = {name for role in roles for name in ROLE_FIELDS.get(role, (role,))}
        for name in ("vd", "vs1", "vs2", "vs3", "rd", "rs1", "rs2", "fs1", "imm", "sew", "lmul"):
            value = getattr(self, name)
            if name in expected:
                if value is None:
                    raise ValueError(f"{self.mnemonic}: missing operand field {name}")
                if name not in ("imm", "sew", "lmul") and not 0 <= value < 32:
                    raise ValueError(f"{self.mnemonic}: register id {name}={value} out of range")
            elif value is not None:
                raise ValueError(f"{self.mnemonic}: unexpected operand field {name}={value}")

        def regs(*names):
            return frozenset(getattr(self, n) for n in names if n in expected)

        derived = {
            "category": category,
            "is_load": "mem" in roles and "vd" in roles,
            "is_store": "mem" in roles and "vs3" in roles,
            "vreg_defs": regs("vd"),
            # the multiply-accumulate destination is also its accumulator input
            "vreg_uses": regs("vs1", "vs2", "vs3", "vd") if self.mnemonic == "vfmacc.vv"
            else regs("vs1", "vs2", "vs3"),
            "xreg_defs": regs("rd"),
            "xreg_uses": regs("rs1", "rs2"),
        }
        for name, value in derived.items():
            object.__setattr__(self, name, value)


_TOKEN_RE = re.compile(r"\S+")


def parse_register(token: str, prefix: str, column: int = 0) -> int:
    """Register id of a ``<prefix><n>`` token: n in ASCII digits, below 32."""
    t = token.strip().lower()
    digits = t[len(prefix):]
    if not t.startswith(prefix) or not (digits.isascii() and digits.isdigit()):
        raise AsmSyntaxError(f"expected {prefix}-register, got {token!r}", column)
    num = int(digits)
    if num >= 32:
        raise AsmSyntaxError(f"register id out of range: {token!r}", column)
    return num


_SEW_TOKENS = {f"e{sew}": sew for sew in SEW_CODES.values()}
_LMUL_TOKENS = {f"m{lmul}": lmul for lmul in LMUL_CODES.values()}
_POLICY_TOKENS = {"ta", "tu", "ma", "mu"}


def parse_instruction(text: str) -> Instruction:
    """Parse one assembly line into an Instruction.

    Mnemonics are case-insensitive; whitespace is free-form.  Tail/mask policy
    tokens (ta/tu/ma/mu) on vsetvli are accepted and dropped: they are not part
    of the normalized representation.
    """
    line = text.strip()
    if not line:
        raise AsmSyntaxError("empty instruction", 0)
    m = _TOKEN_RE.match(line)
    mnemonic = m.group(0).lower()
    if mnemonic not in SPEC:
        raise UnsupportedMnemonic(m.group(0))
    rest = line[m.end():].strip()
    operands = [op.strip() for op in rest.split(",")] if rest else []
    if operands == [""]:
        operands = []

    roles = SPEC[mnemonic][1]
    fields: dict[str, int] = {}
    idx = 0
    for role in roles:
        if role == "vtype":
            # consumes "e<sew>, m<lmul>" plus optional policy tokens
            if idx >= len(operands):
                raise AsmSyntaxError(f"{mnemonic}: missing element-width token", len(line))
            sew_tok = operands[idx].lower()
            if sew_tok not in _SEW_TOKENS:
                raise AsmSyntaxError(f"bad element width {operands[idx]!r}", line.find(operands[idx]))
            fields["sew"] = _SEW_TOKENS[sew_tok]
            idx += 1
            if idx >= len(operands):
                raise AsmSyntaxError(f"{mnemonic}: missing group-multiplier token", len(line))
            lmul_tok = operands[idx].lower()
            if lmul_tok not in _LMUL_TOKENS:
                raise AsmSyntaxError(f"bad group multiplier {operands[idx]!r}", line.find(operands[idx]))
            fields["lmul"] = _LMUL_TOKENS[lmul_tok]
            idx += 1
            while idx < len(operands) and operands[idx].lower() in _POLICY_TOKENS:
                idx += 1
            continue
        if idx >= len(operands):
            raise AsmSyntaxError(f"{mnemonic}: missing operand #{idx + 1}", len(line))
        token = operands[idx]
        idx += 1
        if role == "mem":
            mt = token.strip()
            if not (mt.startswith("(") and mt.endswith(")")):
                raise AsmSyntaxError(f"expected (x<base>), got {token!r}", line.find(token))
            fields["rs1"] = parse_register(mt[1:-1], "x", line.find(mt[1:-1]))
        elif role in ("vd", "vs1", "vs2", "vs3"):
            fields[role] = parse_register(token, "v", line.find(token))
        elif role in ("rd", "rs1", "rs2"):
            fields[role] = parse_register(token, "x", line.find(token))
        elif role == "fs1":
            fields["fs1"] = parse_register(token, "f", line.find(token))
        elif role == "uimm":
            t = token.strip().lower()
            try:
                value = int(t, 0)
            except ValueError:
                raise AsmSyntaxError(f"bad immediate {token!r}", line.find(token)) from None
            if not 0 <= value < 32:
                raise AsmSyntaxError(f"immediate {value} outside 0..31", line.find(token))
            fields["imm"] = value
        else:  # pragma: no cover - table and roles stay in sync
            raise AssertionError(role)
    if idx != len(operands):
        raise AsmSyntaxError(f"{mnemonic}: unexpected operand {operands[idx]!r}",
                             line.find(operands[idx]))
    return Instruction(mnemonic=mnemonic, **fields)


def disassemble(instr: Instruction) -> str:
    """Canonical one-line text; parse_instruction(disassemble(i)) == i."""
    parts: list[str] = []
    for role in SPEC[instr.mnemonic][1]:
        if role == "vtype":
            parts.append(f"e{instr.sew}")
            parts.append(f"m{instr.lmul}")
        elif role == "mem":
            parts.append(f"(x{instr.rs1})")
        elif role in ("vd", "vs1", "vs2", "vs3"):
            parts.append(f"v{getattr(instr, role)}")
        elif role in ("rd", "rs1", "rs2"):
            parts.append(f"x{getattr(instr, role)}")
        elif role == "fs1":
            parts.append(f"f{instr.fs1}")
        elif role == "uimm":
            parts.append(str(instr.imm))
    if not parts:
        return instr.mnemonic
    return f"{instr.mnemonic} " + ", ".join(parts)
