"""Binary decoder for the supported subset (32-bit little-endian words).

Every 32-bit word either decodes to an Instruction or raises
UnsupportedInstruction; there is no best-effort decoding of words outside
the subset, mirroring how an emulator driven by illegal-instruction traps
propagates unknown encodings back as errors.
"""

from __future__ import annotations

from .errors import UnsupportedInstruction
from .isa import LMUL_CODES, SEW_CODES, Instruction

_OPCODE_VEC = 0b1010111
_OPCODE_LOAD_FP = 0b0000111
_OPCODE_STORE_FP = 0b0100111

# (funct6, funct3) -> mnemonic for the arithmetic/permutation forms.
_F3_IVV, _F3_FVV, _F3_MVV, _F3_IVI, _F3_IVX, _F3_FVF, _F3_MVX = range(7)

_ALU_TABLE = {
    (0b000000, _F3_IVV): "vadd.vv",
    (0b000000, _F3_IVX): "vadd.vx",
    (0b100101, _F3_MVX): "vmul.vx",
    (0b100101, _F3_IVI): "vsll.vi",
    (0b001001, _F3_IVX): "vand.vx",
    (0b000000, _F3_FVV): "vfadd.vv",
    (0b000010, _F3_FVV): "vfsub.vv",
    (0b100100, _F3_FVV): "vfmul.vv",
    (0b101100, _F3_FVV): "vfmacc.vv",
    (0b001100, _F3_IVV): "vrgather.vv",
}


def _fields(word: int):
    return (
        (word >> 26) & 0x3F,  # funct6
        (word >> 25) & 0x1,   # vm
        (word >> 20) & 0x1F,  # vs2 / rs2 / lumop
        (word >> 15) & 0x1F,  # vs1 / rs1 / imm
        (word >> 12) & 0x7,   # funct3 / width
        (word >> 7) & 0x1F,   # vd / rd / vs3
    )


def _decode_vtype(word: int, zimm: int, rd: int, rs1: int) -> Instruction:
    if zimm >> 8:
        raise UnsupportedInstruction(word, "reserved vtype bits set")
    sew = SEW_CODES.get((zimm >> 3) & 0x7)
    lmul = LMUL_CODES.get(zimm & 0x7)
    if sew is None:
        raise UnsupportedInstruction(word, "reserved element width")
    if lmul is None:
        raise UnsupportedInstruction(word, "fractional or reserved group multiplier")
    return Instruction("vsetvli", rd=rd, rs1=rs1, sew=sew, lmul=lmul)


def _decode_vector_op(word: int) -> Instruction:
    funct6, vm, vs2, vs1, funct3, vd = _fields(word)
    if funct3 == 0b111:  # configuration forms
        if word >> 31 == 0:
            return _decode_vtype(word, (word >> 20) & 0x7FF, vd, vs1)
        if (word >> 25) & 0x3F == 0 and word >> 31 == 1:
            return Instruction("vsetvl", rd=vd, rs1=vs1, rs2=vs2)
        raise UnsupportedInstruction(word, "immediate-avl configuration form")
    if vm == 0:
        raise UnsupportedInstruction(word, "masked forms not supported")
    if funct6 == 0b010100 and funct3 == _F3_MVV:
        if vs1 == 0b10001 and vs2 == 0:
            return Instruction("vid.v", vd=vd)
        raise UnsupportedInstruction(word, "unsupported unary form")
    if funct6 == 0b010111 and funct3 == _F3_FVF:
        if vs2 == 0:
            return Instruction("vfmv.v.f", vd=vd, fs1=vs1)
        raise UnsupportedInstruction(word, "nonzero vs2 in scalar-move form")
    mnemonic = _ALU_TABLE.get((funct6, funct3))
    if mnemonic is None:
        raise UnsupportedInstruction(word)
    if mnemonic == "vsll.vi":
        return Instruction(mnemonic, vd=vd, vs2=vs2, imm=vs1)
    if mnemonic.endswith(".vx"):
        return Instruction(mnemonic, vd=vd, vs2=vs2, rs1=vs1)
    return Instruction(mnemonic, vd=vd, vs2=vs2, vs1=vs1)


def _decode_memory(word: int, is_store: bool) -> Instruction:
    nf = (word >> 29) & 0x7
    mew = (word >> 28) & 0x1
    mop = (word >> 26) & 0x3
    vm = (word >> 25) & 0x1
    rs2 = (word >> 20) & 0x1F
    rs1 = (word >> 15) & 0x1F
    width = (word >> 12) & 0x7
    vreg = (word >> 7) & 0x1F
    if nf != 0:
        raise UnsupportedInstruction(word, "segment forms not supported")
    if mew != 0 or width != 0b111:
        raise UnsupportedInstruction(word, "only 64-bit element accesses supported")
    if vm == 0:
        raise UnsupportedInstruction(word, "masked forms not supported")
    if mop == 0b00:
        if rs2 != 0:
            raise UnsupportedInstruction(word, "special unit-stride forms not supported")
        if is_store:
            return Instruction("vse64.v", vs3=vreg, rs1=rs1)
        return Instruction("vle64.v", vd=vreg, rs1=rs1)
    if mop == 0b10:
        if is_store:
            return Instruction("vsse64.v", vs3=vreg, rs1=rs1, rs2=rs2)
        return Instruction("vlse64.v", vd=vreg, rs1=rs1, rs2=rs2)
    if mop == 0b01:
        if is_store:
            return Instruction("vsuxei64.v", vs3=vreg, rs1=rs1, vs2=rs2)
        return Instruction("vluxei64.v", vd=vreg, rs1=rs1, vs2=rs2)
    raise UnsupportedInstruction(word, "ordered-indexed forms not supported")


def decode_word(word: int) -> Instruction:
    """Decode a 32-bit word; raises UnsupportedInstruction for anything
    outside the subset (including the all-zero word, which the base ISA
    defines as illegal)."""
    if not 0 <= word < 1 << 32:
        raise UnsupportedInstruction(word & 0xFFFFFFFF, "not a 32-bit word")
    opcode = word & 0x7F
    if opcode == _OPCODE_VEC:
        return _decode_vector_op(word)
    if opcode == _OPCODE_LOAD_FP:
        return _decode_memory(word, is_store=False)
    if opcode == _OPCODE_STORE_FP:
        return _decode_memory(word, is_store=True)
    raise UnsupportedInstruction(word)
