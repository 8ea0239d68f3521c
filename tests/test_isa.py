import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sdvkit.decoding import decode_word
from sdvkit.errors import AsmSyntaxError, SdvError, UnsupportedMnemonic
from sdvkit.isa import (MNEMONICS, SPEC, Category, Instruction, disassemble,
                        parse_instruction)

from test_decoding import _load as load_decode_fixture

reg = st.integers(0, 31)


@st.composite
def instructions(draw):
    mnemonic = draw(st.sampled_from(MNEMONICS))
    fields = {}
    for role in SPEC[mnemonic][1]:
        if role == "vtype":
            fields["sew"] = draw(st.sampled_from([8, 16, 32, 64]))
            fields["lmul"] = draw(st.sampled_from([1, 2, 4, 8]))
        elif role == "uimm":
            fields["imm"] = draw(st.integers(0, 31))
        elif role == "mem":
            fields["rs1"] = draw(reg)
        else:
            fields[{"vd": "vd", "vs1": "vs1", "vs2": "vs2", "vs3": "vs3",
                    "rd": "rd", "rs1": "rs1", "rs2": "rs2", "fs1": "fs1"}[role]] = draw(reg)
    return Instruction(mnemonic, **fields)


def test_parse_fp_add():
    instr = parse_instruction("vfadd.vv v1, v2, v3")
    assert instr == Instruction("vfadd.vv", vd=1, vs2=2, vs1=3)
    assert instr.category == Category.ARITH_FP


def test_parse_vsetvli():
    instr = parse_instruction("vsetvli x1, x2, e64, m1")
    assert instr == Instruction("vsetvli", rd=1, rs1=2, sew=64, lmul=1)
    assert instr.category == Category.CONFIG


def test_parse_vsetvli_accepts_policy_tokens():
    assert parse_instruction("vsetvli x1, x2, e64, m1, ta, ma") == \
        parse_instruction("vsetvli x1, x2, e64, m1")


def test_parse_unit_load():
    instr = parse_instruction("vle64.v v4, (x10)")
    assert instr == Instruction("vle64.v", vd=4, rs1=10)
    assert instr.category == Category.MEM_UNIT


def test_parse_unknown_mnemonic():
    with pytest.raises(UnsupportedMnemonic):
        parse_instruction("vadd.qq v1, v2")


@pytest.mark.parametrize("text", [
    "vfadd.vv v1, v2",            # missing operand
    "vfadd.vv v1, v2, v3, v4",    # extra operand
    "vfadd.vv v1, x2, v3",        # wrong register class
    "vle64.v v1, x10",            # missing parentheses
    "vsll.vi v1, v2, 32",         # immediate out of range
    "vsll.vi v1, v2, banana",
    "vadd.vv v1, v2, v99",        # register id out of range
    "vsetvli x1, x2, e63, m1",    # bad width token
    "vid.v v\u00b2",               # superscript two is a digit, but not ASCII
    "vle64.v v1, (x\u0661)",       # so is ARABIC-INDIC DIGIT ONE
])
def test_parse_errors(text):
    with pytest.raises(AsmSyntaxError):
        parse_instruction(text)


@settings(max_examples=1000, deadline=None)
@given(st.text())
def test_arbitrary_text_parses_or_raises_sdv_error(text):
    try:
        parse_instruction(text)
    except SdvError:
        pass


# Register-like operands whose digits may come from any script.
operand = st.tuples(st.sampled_from(["v", "x", "f", "e", "m", ""]),
                    st.text(st.characters(categories=["Nd", "No"]), max_size=2)).map("".join)


@settings(max_examples=500, deadline=None)
@given(st.sampled_from(MNEMONICS), st.lists(operand, max_size=4))
def test_arbitrary_operands_parse_or_raise_sdv_error(mnemonic, operands):
    try:
        parse_instruction(f"{mnemonic} {', '.join(operands)}")
    except SdvError:
        pass


def test_syntax_error_carries_column():
    with pytest.raises(AsmSyntaxError) as excinfo:
        parse_instruction("vfadd.vv v1, x2, v3")
    assert excinfo.value.column == len("vfadd.vv v1, ")


def test_case_and_whitespace_insensitive():
    a = parse_instruction("  VFADD.VV   V1 ,V2,  v3  ")
    assert a == parse_instruction("vfadd.vv v1, v2, v3")


def test_disassemble_canonical():
    assert disassemble(Instruction("vfadd.vv", vd=1, vs2=2, vs1=3)) == "vfadd.vv v1, v2, v3"
    assert disassemble(Instruction("vsetvli", rd=0, rs1=5, sew=64, lmul=1)) == \
        "vsetvli x0, x5, e64, m1"
    assert disassemble(Instruction("vle64.v", vd=4, rs1=10)) == "vle64.v v4, (x10)"
    assert disassemble(Instruction("vid.v", vd=7)) == "vid.v v7"
    assert disassemble(Instruction("vsuxei64.v", vs3=8, rs1=16, vs2=9)) == \
        "vsuxei64.v v8, (x16), v9"


def test_macc_operand_order():
    # multiply-accumulate orders sources (vs1, vs2), unlike the other .vv ops
    instr = parse_instruction("vfmacc.vv v1, v2, v3")
    assert (instr.vd, instr.vs1, instr.vs2) == (1, 2, 3)
    assert instr.vreg_uses == frozenset({1, 2, 3})  # accumulator is read


def _def_use(instr):
    return instr.vreg_defs, instr.vreg_uses, instr.xreg_defs, instr.xreg_uses


def _facts(instr):
    return (instr.category, instr.is_load, instr.is_store) + _def_use(instr)


def _reference_def_use(i):
    """The register def/use sets spelled out field by field, independently
    of the roles table."""
    vreg_uses = {r for r in (i.vs1, i.vs2, i.vs3) if r is not None}
    if i.mnemonic == "vfmacc.vv":
        vreg_uses.add(i.vd)  # the accumulator is read
    return (frozenset() if i.vd is None else frozenset({i.vd}), frozenset(vreg_uses),
            frozenset() if i.rd is None else frozenset({i.rd}),
            frozenset(r for r in (i.rs1, i.rs2) if r is not None))


@settings(max_examples=1000, deadline=None)
@given(instructions())
def test_parse_disassemble_roundtrip(instr):
    parsed = parse_instruction(disassemble(instr))
    assert parsed == instr
    assert _facts(parsed) == _facts(instr)
    assert _def_use(parsed) == _reference_def_use(instr)


@settings(max_examples=300, deadline=None)
@given(instructions())
def test_hash_is_the_value_hash_of_the_fields(instr):
    """An instruction hashes as the tuple of its compared fields, and two
    separately parsed equal instructions hash equal."""
    assert hash(instr) == hash((instr.mnemonic, instr.vd, instr.vs1, instr.vs2, instr.vs3,
                                instr.rd, instr.rs1, instr.rs2, instr.fs1, instr.imm,
                                instr.sew, instr.lmul))
    a, b = (parse_instruction(disassemble(instr)) for _ in range(2))
    assert a is not b and a == b and hash(a) == hash(b) == hash(instr)


# The subset in MNEMONICS order (the Paraver mnemonic ids): one sample text,
# the category, and whether it loads or stores.
_SUBSET = [
    ("vsetvli x1, x2, e64, m1", Category.CONFIG, False, False),
    ("vsetvl x1, x2, x3", Category.CONFIG, False, False),
    ("vle64.v v1, (x2)", Category.MEM_UNIT, True, False),
    ("vse64.v v1, (x2)", Category.MEM_UNIT, False, True),
    ("vlse64.v v1, (x2), x3", Category.MEM_STRIDED, True, False),
    ("vsse64.v v1, (x2), x3", Category.MEM_STRIDED, False, True),
    ("vluxei64.v v1, (x2), v3", Category.MEM_INDEXED, True, False),
    ("vsuxei64.v v1, (x2), v3", Category.MEM_INDEXED, False, True),
    ("vadd.vv v1, v2, v3", Category.ARITH_INT, False, False),
    ("vadd.vx v1, v2, x3", Category.ARITH_INT, False, False),
    ("vmul.vx v1, v2, x3", Category.ARITH_INT, False, False),
    ("vsll.vi v1, v2, 3", Category.ARITH_INT, False, False),
    ("vand.vx v1, v2, x3", Category.ARITH_INT, False, False),
    ("vid.v v1", Category.ARITH_INT, False, False),
    ("vfadd.vv v1, v2, v3", Category.ARITH_FP, False, False),
    ("vfsub.vv v1, v2, v3", Category.ARITH_FP, False, False),
    ("vfmul.vv v1, v2, v3", Category.ARITH_FP, False, False),
    ("vfmacc.vv v1, v2, v3", Category.ARITH_FP, False, False),
    ("vfmv.v.f v1, f2", Category.ARITH_FP, False, False),
    ("vrgather.vv v1, v2, v3", Category.PERM, False, False),
]


def test_category_stable_over_subset():
    assert MNEMONICS == tuple(text.split()[0] for text, *_ in _SUBSET)
    for text, category, is_load, is_store in _SUBSET:
        instr = parse_instruction(text)
        assert SPEC[instr.mnemonic][0] is category, text
        assert (instr.category, instr.is_load, instr.is_store) == \
            (category, is_load, is_store), text
        assert "category" not in repr(instr)


def test_decoded_words_carry_the_parsed_facts():
    # criterion 9 compares with ==, which skips the derived fields
    for word, text in load_decode_fixture("decode_corpus.txt"):
        assert _facts(decode_word(word)) == _facts(parse_instruction(text)), text


def test_instruction_field_validation():
    with pytest.raises(ValueError):
        Instruction("vid.v", vd=1, vs1=2)       # unexpected field
    with pytest.raises(ValueError):
        Instruction("vfadd.vv", vd=1, vs2=2)    # missing vs1
    with pytest.raises(ValueError):
        Instruction("vfadd.vv", vd=1, vs2=2, vs1=32)  # out of range


def test_encodings_are_distinct():
    # the decoder looks rows up by (opcode, funct3, funct6)
    keys = [encoding[:3] for _, _, encoding, _ in SPEC.values()]
    assert len(set(keys)) == len(keys)


def test_an_instruction_of_an_unknown_mnemonic_is_refused():
    with pytest.raises(UnsupportedMnemonic):
        Instruction("vfoo")


def test_a_vtype_without_its_group_multiplier_is_refused():
    with pytest.raises(AsmSyntaxError, match="missing group-multiplier token"):
        parse_instruction("vsetvli x1, x2, e64")
