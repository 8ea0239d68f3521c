"""Binary decoder for the supported subset (32-bit little-endian words).

Every 32-bit word either decodes to an Instruction or raises
UnsupportedInstruction; there is no best-effort decoding of words outside
the subset, mirroring how an emulator driven by illegal-instruction traps
propagates unknown encodings back as errors.  The decoder is derived from
`isa.SPEC`: a row's encoding picks the mnemonic and its operand roles pick
the register fields, so only the configuration forms get a branch of their own.
"""

from __future__ import annotations

from .errors import UnsupportedInstruction
from .isa import OP_V, OPCFG, ROLES, SPEC, Instruction, vtype_fields

# Bit offsets of the 5-bit operand slots.
_SLOTS = {slot for _, _, slot in ROLES.values()} - {None}


def _row(mnemonic: str, roles: tuple[str, ...], fixed: int = 0):
    """(mnemonic, (field, offset) per role with a slot, mask of the slots no
    role uses, the bits those slots must hold)."""
    fields = tuple((names[0], slot) for names, _, slot in map(ROLES.get, roles)
                   if slot is not None)
    unused = sum(0x1F << offset for offset in _SLOTS - {o for _, o in fields})
    return mnemonic, fields, unused, fixed


# (opcode, funct3, funct6) -> _row
_BY_ENCODING = {encoding[:3]: _row(mnemonic, roles, *encoding[3:])
                for mnemonic, (_, roles, encoding, _) in SPEC.items()}
_VSETVLI_FIELDS = _BY_ENCODING[OP_V, OPCFG, None][1]


def _decode_vtype(word: int) -> Instruction:
    zimm = (word >> 20) & 0x7FF
    if zimm >> 8:
        raise UnsupportedInstruction(word, "reserved vtype bits set")
    sew, lmul, why = vtype_fields(zimm)
    if why:
        raise UnsupportedInstruction(word, why)
    return Instruction("vsetvli", sew=sew, lmul=lmul,
                       **{name: (word >> offset) & 0x1F for name, offset in _VSETVLI_FIELDS})


def decode_word(word: int) -> Instruction:
    """Decode a 32-bit word; raises UnsupportedInstruction for anything
    outside the subset (including the all-zero word, which the base ISA
    defines as illegal)."""
    if not 0 <= word < 1 << 32:
        raise UnsupportedInstruction(word & 0xFFFFFFFF, "not a 32-bit word")
    key = (word & 0x7F, (word >> 12) & 0x7, word >> 26)
    if key[:2] == (OP_V, OPCFG):
        # vsetvli's vtype immediate overlaps funct6, and vsetvl has vm=0
        if word >> 31 == 0:
            return _decode_vtype(word)
        if (word >> 25) & 0x3F:
            raise UnsupportedInstruction(word, "immediate-avl configuration form")
    elif (word >> 25) & 0x1 == 0:
        raise UnsupportedInstruction(word, "masked forms not supported")
    row = _BY_ENCODING.get(key)
    if row is None:
        raise UnsupportedInstruction(word)
    mnemonic, fields, unused, fixed = row
    if word & unused != fixed:
        raise UnsupportedInstruction(word, "operand field outside the subset")
    return Instruction(mnemonic, **{name: (word >> offset) & 0x1F for name, offset in fields})
