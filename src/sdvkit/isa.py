"""Supported vector-instruction subset: categories, textual syntax, canonical forms.

The subset is a fixed contract of 20 mnemonics: enough to express strip-mined
axpy and both FFT vectorization styles (unit-stride, strided, and gather/scatter
memory ops, integer index arithmetic, FP butterflies, register gather).
Masked forms (vm=0) are rejected.
"""

from __future__ import annotations

import enum
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


# Every operand role, in Instruction field order: role -> (the Instruction
# field(s) it fills, its register prefix or None, the bit offset of its 5-bit
# slot in an encoding or None).  mem is the parenthesized base register of a
# memory op, uimm an unsigned 5-bit immediate, vtype the "e<sew>, m<lmul>"
# token pair, which the decoder reads in a branch of its own.
ROLES: dict[str, tuple[tuple[str, ...], Optional[str], Optional[int]]] = {
    "vd": (("vd",), "v", 7),
    "vs1": (("vs1",), "v", 15),
    "vs2": (("vs2",), "v", 20),
    "vs3": (("vs3",), "v", 7),
    "rd": (("rd",), "x", 7),
    "rs1": (("rs1",), "x", 15),
    "rs2": (("rs2",), "x", 20),
    "mem": (("rs1",), "x", 15),
    "fs1": (("fs1",), "f", 15),
    "uimm": (("imm",), None, 15),
    "vtype": (("sew", "lmul"), None, None),
}

# The subset, one entry per mnemonic: (category, operand roles in assembly
# order, binary encoding, element operation or None); every other per-mnemonic
# fact, emulation included, comes from it and `ROLES`.  A memory op with vd is
# a load, one with vs3 a store.  A compute op's operation reads the roles after
# vd in assembly order (vs1, vs2 for the multiply-accumulate family, vs2, vs1
# for other .vv forms), then vd for "macc", its accumulator, and writes vd.
# The encoding is (major opcode, funct3, funct6); for memory ops funct3 is the
# width and funct6 is nf|mew|mop (mop: unit 00, strided 10, indexed-unordered
# 01).  Operand slots no role uses must hold 0, or the optional fourth value's
# bits.  vsetvli's vtype immediate overlaps funct6, so it has none.
SPEC: dict[str, tuple[Category, tuple[str, ...], tuple[Optional[int], ...], Optional[str]]] = {
    "vsetvli": (Category.CONFIG, ("rd", "rs1", "vtype"), (OP_V, OPCFG, None), None),
    "vsetvl": (Category.CONFIG, ("rd", "rs1", "rs2"), (OP_V, OPCFG, 0b100000), None),
    "vle64.v": (Category.MEM_UNIT, ("vd", "mem"), (LOAD_FP, E64, 0b000000), None),
    "vse64.v": (Category.MEM_UNIT, ("vs3", "mem"), (STORE_FP, E64, 0b000000), None),
    "vlse64.v": (Category.MEM_STRIDED, ("vd", "mem", "rs2"), (LOAD_FP, E64, 0b000010), None),
    "vsse64.v": (Category.MEM_STRIDED, ("vs3", "mem", "rs2"), (STORE_FP, E64, 0b000010), None),
    "vluxei64.v": (Category.MEM_INDEXED, ("vd", "mem", "vs2"), (LOAD_FP, E64, 0b000001), None),
    "vsuxei64.v": (Category.MEM_INDEXED, ("vs3", "mem", "vs2"), (STORE_FP, E64, 0b000001), None),
    "vadd.vv": (Category.ARITH_INT, ("vd", "vs2", "vs1"), (OP_V, OPIVV, 0b000000), "add"),
    "vadd.vx": (Category.ARITH_INT, ("vd", "vs2", "rs1"), (OP_V, OPIVX, 0b000000), "add"),
    "vmul.vx": (Category.ARITH_INT, ("vd", "vs2", "rs1"), (OP_V, OPMVX, 0b100101), "mul"),
    "vsll.vi": (Category.ARITH_INT, ("vd", "vs2", "uimm"), (OP_V, OPIVI, 0b100101), "sll"),
    "vand.vx": (Category.ARITH_INT, ("vd", "vs2", "rs1"), (OP_V, OPIVX, 0b001001), "and"),
    # vid.v is the VMUNARY0 form with 0b10001 in its vs1 slot (bits 19-15)
    "vid.v": (Category.ARITH_INT, ("vd",), (OP_V, OPMVV, 0b010100, 0b10001 << 15), "index"),
    "vfadd.vv": (Category.ARITH_FP, ("vd", "vs2", "vs1"), (OP_V, OPFVV, 0b000000), "add"),
    "vfsub.vv": (Category.ARITH_FP, ("vd", "vs2", "vs1"), (OP_V, OPFVV, 0b000010), "sub"),
    "vfmul.vv": (Category.ARITH_FP, ("vd", "vs2", "vs1"), (OP_V, OPFVV, 0b100100), "mul"),
    "vfmacc.vv": (Category.ARITH_FP, ("vd", "vs1", "vs2"), (OP_V, OPFVV, 0b101100), "macc"),
    "vfmv.v.f": (Category.ARITH_FP, ("vd", "fs1"), (OP_V, OPFVF, 0b010111), "splat"),
    "vrgather.vv": (Category.PERM, ("vd", "vs2", "vs1"), (OP_V, OPIVV, 0b001100), "gather"),
}

MNEMONICS: tuple[str, ...] = tuple(SPEC)

# Stable numeric ids, used by the Paraver exporter's value tables.
MNEMONIC_IDS: dict[str, int] = {m: i for i, m in enumerate(MNEMONICS)}

# Instruction operand field -> whether it holds a register id, in field order
_REGISTER_FIELD = {name: prefix is not None
                   for names, prefix, _ in ROLES.values() for name in names}

# vtype vsew/vlmul field encodings; the e<sew>/m<lmul> assembly tokens take
# the legal values from here, the binary decoder and the emulator's vsetvl
# through `vtype_fields`.
SEW_CODES = {0b000: 8, 0b001: 16, 0b010: 32, 0b011: 64}
LMUL_CODES = {0b000: 1, 0b001: 2, 0b010: 4, 0b011: 8}


def vtype_fields(vtype: int) -> tuple[Optional[int], Optional[int], Optional[str]]:
    """``(sew, lmul, why)`` of the vsew and vlmul fields of a vtype value: a
    reserved code decodes to None, and ``why`` names the first field refused
    (vsew before vlmul), or is None when both are legal.  The bits above
    vlmul and vsew are the caller's to check."""
    sew = SEW_CODES.get((vtype >> 3) & 0x7)
    lmul = LMUL_CODES.get(vtype & 0x7)
    why = "reserved element width" if sew is None else \
        "fractional or reserved group multiplier" if lmul is None else None
    return sew, lmul, why


def _derived():
    return field(init=False, compare=False, repr=False)


@dataclass(frozen=True)
class Instruction:
    """One decoded instruction in normalized form.

    Only the fields declared by the mnemonic's roles are populated; all
    others stay None.  Register ids are 0-31.  Construction derives, once,
    the category, the load/store flags and the register def/use sets that
    hazard tracking and dependence edges read; they take no part in
    equality, hashing or repr.  It also computes the hash once: the hash of
    the tuple of the compared fields, which is the value a dataclass hash
    gives, so dictionaries keyed by instructions do not hash 12 fields again
    on every lookup.
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
    _hash: int = _derived()

    def __post_init__(self):
        try:
            category, roles, _encoding, operation = SPEC[self.mnemonic]
        except KeyError:
            raise UnsupportedMnemonic(self.mnemonic) from None
        expected = {name for role in roles for name in ROLES[role][0]}
        for name, is_register in _REGISTER_FIELD.items():
            value = getattr(self, name)
            if name in expected:
                if value is None:
                    raise ValueError(f"{self.mnemonic}: missing operand field {name}")
                if is_register and not 0 <= value < 32:
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
            # "macc" also reads its destination, the accumulator
            "vreg_uses": regs("vs1", "vs2", "vs3", "vd") if operation == "macc"
            else regs("vs1", "vs2", "vs3"),
            "xreg_defs": regs("rd"),
            "xreg_uses": regs("rs1", "rs2"),
            "_hash": hash((self.mnemonic, self.vd, self.vs1, self.vs2, self.vs3, self.rd,
                           self.rs1, self.rs2, self.fs1, self.imm, self.sew, self.lmul)),
        }
        for name, value in derived.items():
            object.__setattr__(self, name, value)

    def __hash__(self) -> int:
        return self._hash


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
    word, *rest = line.split(None, 1)
    mnemonic = word.lower()
    if mnemonic not in SPEC:
        raise UnsupportedMnemonic(word)
    operands = [op.strip() for op in rest[0].split(",")] if rest else []

    roles = SPEC[mnemonic][1]
    fields: dict[str, int] = {}
    idx = 0
    for role in roles:
        if role == "vtype":
            # consumes "e<sew>, m<lmul>" plus optional policy tokens
            for name, legal, what in (("sew", _SEW_TOKENS, "element width"),
                                      ("lmul", _LMUL_TOKENS, "group multiplier")):
                if idx >= len(operands):
                    raise AsmSyntaxError(f"{mnemonic}: missing {what.replace(' ', '-')} token",
                                         len(line))
                if operands[idx].lower() not in legal:
                    raise AsmSyntaxError(f"bad {what} {operands[idx]!r}", line.find(operands[idx]))
                fields[name] = legal[operands[idx].lower()]
                idx += 1
            while idx < len(operands) and operands[idx].lower() in _POLICY_TOKENS:
                idx += 1
            continue
        if idx >= len(operands):
            raise AsmSyntaxError(f"{mnemonic}: missing operand #{idx + 1}", len(line))
        token = operands[idx]
        idx += 1
        (name,), prefix, _ = ROLES[role]
        if prefix:
            if role == "mem":
                if not (token.startswith("(") and token.endswith(")")):
                    raise AsmSyntaxError(f"expected ({prefix}<base>), got {token!r}",
                                         line.find(token))
                token = token[1:-1]
            fields[name] = parse_register(token, prefix, line.find(token))
        else:  # uimm
            try:
                value = int(token.lower(), 0)
            except ValueError:
                raise AsmSyntaxError(f"bad immediate {token!r}", line.find(token)) from None
            if not 0 <= value < 32:
                raise AsmSyntaxError(f"immediate {value} outside 0..31", line.find(token))
            fields[name] = value
    if idx != len(operands):
        raise AsmSyntaxError(f"{mnemonic}: unexpected operand {operands[idx]!r}",
                             line.find(operands[idx]))
    return Instruction(mnemonic=mnemonic, **fields)


def _operand_text(role: str) -> str:
    """A role's canonical text, as a format string over Instruction fields."""
    if role == "vtype":
        return "e{sew}, m{lmul}"
    (name,), prefix, _ = ROLES[role]
    text = f"{prefix or ''}{{{name}}}"
    return f"({text})" if role == "mem" else text


# mnemonic -> its canonical text, as a format string over Instruction fields
_ASM = {mnemonic: " ".join([mnemonic, ", ".join(map(_operand_text, roles))]) if roles
        else mnemonic for mnemonic, (_, roles, *_) in SPEC.items()}


def disassemble(instr: Instruction) -> str:
    """Canonical one-line text; parse_instruction(disassemble(i)) == i."""
    return _ASM[instr.mnemonic].format_map(vars(instr))
