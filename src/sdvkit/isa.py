"""Supported vector-instruction subset: categories, textual syntax, canonical forms.

The subset is a fixed contract of 20 mnemonics: enough to express strip-mined
axpy and both FFT vectorization styles (unit-stride, strided, and gather/scatter
memory ops, integer index arithmetic, FP butterflies, register gather).
Masked forms (vm=0) are rejected.
"""

from __future__ import annotations

import enum
import re
from dataclasses import dataclass
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


# Operand signature per mnemonic, in assembly order.  Roles:
#   vd/vs1/vs2/vs3 - vector registers;  rd/rs1/rs2 - scalar registers;
#   mem - parenthesized base register (populates rs1);  fs1 - FP scalar;
#   uimm - unsigned 5-bit immediate;  vtype - "e<sew>, m<lmul>" token pair.
# Note the multiply-accumulate family orders sources vs1, vs2 while other
# .vv forms order vs2, vs1; both follow standard vector assembly.
_SIGNATURES: dict[str, tuple[str, ...]] = {
    "vsetvli": ("rd", "rs1", "vtype"),
    "vsetvl": ("rd", "rs1", "rs2"),
    "vle64.v": ("vd", "mem"),
    "vse64.v": ("vs3", "mem"),
    "vlse64.v": ("vd", "mem", "rs2"),
    "vsse64.v": ("vs3", "mem", "rs2"),
    "vluxei64.v": ("vd", "mem", "vs2"),
    "vsuxei64.v": ("vs3", "mem", "vs2"),
    "vadd.vv": ("vd", "vs2", "vs1"),
    "vadd.vx": ("vd", "vs2", "rs1"),
    "vmul.vx": ("vd", "vs2", "rs1"),
    "vsll.vi": ("vd", "vs2", "uimm"),
    "vand.vx": ("vd", "vs2", "rs1"),
    "vid.v": ("vd",),
    "vfadd.vv": ("vd", "vs2", "vs1"),
    "vfsub.vv": ("vd", "vs2", "vs1"),
    "vfmul.vv": ("vd", "vs2", "vs1"),
    "vfmacc.vv": ("vd", "vs1", "vs2"),
    "vfmv.v.f": ("vd", "fs1"),
    "vrgather.vv": ("vd", "vs2", "vs1"),
}

_CATEGORIES: dict[str, Category] = {
    "vsetvli": Category.CONFIG,
    "vsetvl": Category.CONFIG,
    "vle64.v": Category.MEM_UNIT,
    "vse64.v": Category.MEM_UNIT,
    "vlse64.v": Category.MEM_STRIDED,
    "vsse64.v": Category.MEM_STRIDED,
    "vluxei64.v": Category.MEM_INDEXED,
    "vsuxei64.v": Category.MEM_INDEXED,
    "vadd.vv": Category.ARITH_INT,
    "vadd.vx": Category.ARITH_INT,
    "vmul.vx": Category.ARITH_INT,
    "vsll.vi": Category.ARITH_INT,
    "vand.vx": Category.ARITH_INT,
    "vid.v": Category.ARITH_INT,
    "vfadd.vv": Category.ARITH_FP,
    "vfsub.vv": Category.ARITH_FP,
    "vfmul.vv": Category.ARITH_FP,
    "vfmacc.vv": Category.ARITH_FP,
    "vfmv.v.f": Category.ARITH_FP,
    "vrgather.vv": Category.PERM,
}

MNEMONICS: tuple[str, ...] = tuple(_SIGNATURES)

# Stable numeric ids, used by the Paraver exporter's value tables.
MNEMONIC_IDS: dict[str, int] = {m: i for i, m in enumerate(MNEMONICS)}

_LOADS = {"vle64.v", "vlse64.v", "vluxei64.v"}
_STORES = {"vse64.v", "vsse64.v", "vsuxei64.v"}

_ROLE_FIELDS = {
    "vd": ("vd",),
    "vs1": ("vs1",),
    "vs2": ("vs2",),
    "vs3": ("vs3",),
    "rd": ("rd",),
    "rs1": ("rs1",),
    "rs2": ("rs2",),
    "mem": ("rs1",),
    "fs1": ("fs1",),
    "uimm": ("imm",),
    "vtype": ("sew", "lmul"),
}


def category_of(mnemonic: str) -> Category:
    try:
        return _CATEGORIES[mnemonic]
    except KeyError:
        raise UnsupportedMnemonic(mnemonic) from None


def signature_of(mnemonic: str) -> tuple[str, ...]:
    try:
        return _SIGNATURES[mnemonic]
    except KeyError:
        raise UnsupportedMnemonic(mnemonic) from None


def fields_of(mnemonic: str) -> frozenset[str]:
    """Names of the Instruction fields a mnemonic populates."""
    roles = signature_of(mnemonic)
    names: list[str] = []
    for role in roles:
        names.extend(_ROLE_FIELDS[role])
    return frozenset(names)


@dataclass(frozen=True)
class Instruction:
    """One decoded instruction in normalized form.

    Only the fields declared by the mnemonic's signature are populated; all
    others stay None.  Register ids are 0-31.
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

    def __post_init__(self):
        expected = fields_of(self.mnemonic)
        for name in ("vd", "vs1", "vs2", "vs3", "rd", "rs1", "rs2", "fs1", "imm", "sew", "lmul"):
            value = getattr(self, name)
            if name in expected:
                if value is None:
                    raise ValueError(f"{self.mnemonic}: missing operand field {name}")
                if name != "imm" and name != "sew" and name != "lmul" and not 0 <= value < 32:
                    raise ValueError(f"{self.mnemonic}: register id {name}={value} out of range")
            elif value is not None:
                raise ValueError(f"{self.mnemonic}: unexpected operand field {name}={value}")

    @property
    def category(self) -> Category:
        return _CATEGORIES[self.mnemonic]

    @property
    def is_load(self) -> bool:
        return self.mnemonic in _LOADS

    @property
    def is_store(self) -> bool:
        return self.mnemonic in _STORES

    # Register def/use sets drive both hazard tracking and dependence edges.

    def vreg_defs(self) -> frozenset[int]:
        return frozenset() if self.vd is None else frozenset({self.vd})

    def vreg_uses(self) -> frozenset[int]:
        uses = set()
        for reg in (self.vs1, self.vs2, self.vs3):
            if reg is not None:
                uses.add(reg)
        if self.mnemonic == "vfmacc.vv":
            uses.add(self.vd)  # accumulator is read-modify-write
        return frozenset(uses)

    def xreg_defs(self) -> frozenset[int]:
        return frozenset() if self.rd is None else frozenset({self.rd})

    def xreg_uses(self) -> frozenset[int]:
        return frozenset(r for r in (self.rs1, self.rs2) if r is not None)


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


_SEW_TOKENS = {"e8": 8, "e16": 16, "e32": 32, "e64": 64}
_LMUL_TOKENS = {"m1": 1, "m2": 2, "m4": 4, "m8": 8}
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
    if mnemonic not in _SIGNATURES:
        raise UnsupportedMnemonic(m.group(0))
    rest = line[m.end():].strip()
    operands = [op.strip() for op in rest.split(",")] if rest else []
    if operands == [""]:
        operands = []

    roles = _SIGNATURES[mnemonic]
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
    for role in _SIGNATURES[instr.mnemonic]:
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
