import importlib.util
import random
from pathlib import Path

import pytest

from sdvkit.decoding import decode_word
from sdvkit.errors import SdvError, UnsupportedInstruction
from sdvkit.isa import MNEMONICS, Instruction, parse_instruction

FIXTURES = Path(__file__).parent / "fixtures"


def _load(name):
    rows = []
    for line in (FIXTURES / name).read_text().splitlines():
        if not line or line.startswith("#"):
            continue
        word, text = line.split("\t", 1)
        rows.append((int(word, 16), text))
    return rows


def test_corpus_agreement():
    """Every word assembled by the reference assembler must decode to exactly
    the instruction parsed from its assembly text."""
    corpus = _load("decode_corpus.txt")
    assert len(corpus) == 1000
    mismatches = []
    for word, text in corpus:
        decoded = decode_word(word)
        parsed = parse_instruction(text)
        if decoded != parsed:
            mismatches.append((hex(word), text, decoded, parsed))
    assert not mismatches, mismatches[:5]


def test_negative_corpus_rejected():
    for word, text in _load("decode_negatives.txt"):
        with pytest.raises(UnsupportedInstruction):
            decode_word(word), text


def test_all_zero_word_is_illegal():
    with pytest.raises(UnsupportedInstruction) as excinfo:
        decode_word(0)
    assert excinfo.value.word == 0


def test_decode_is_total():
    rng = random.Random(7)
    for _ in range(20000):
        word = rng.getrandbits(32)
        try:
            result = decode_word(word)
        except UnsupportedInstruction:
            continue
        except SdvError as err:  # any other toolkit error is a totality bug
            raise AssertionError(f"0x{word:08x} raised {err!r}")
        assert isinstance(result, Instruction)


def test_masked_forms_rejected():
    # vadd.vv v1, v2, v3 with vm=0
    word = (0b000000 << 26) | (0 << 25) | (2 << 20) | (3 << 15) | (0 << 12) | (1 << 7) | 0b1010111
    with pytest.raises(UnsupportedInstruction):
        decode_word(word)


def test_reserved_vtype_bits_rejected():
    # vsetvli with reserved zimm bits set
    word = (1 << 28) | (0b011000 << 20) | (2 << 15) | (0b111 << 12) | (1 << 7) | 0b1010111
    with pytest.raises(UnsupportedInstruction):
        decode_word(word)


def _corpus_word(mnemonic):
    return next(w for w, text in _load("decode_corpus.txt") if text.split()[0] == mnemonic)


# A corpus word with one field (bit offset, width) set to a value that leaves
# the subset: each case pins one of the decoder's reject rules.
REJECT_CASES = [
    ("vle64.v", 20, 5, 0b00001, "unit-stride lumop must be 0"),
    ("vse64.v", 20, 5, 0b01000, "unit-stride sumop must be 0"),
    ("vid.v", 15, 5, 0b10000, "vid.v vs1 slot must be 0b10001 (0b10000 is viota.m)"),
    ("vid.v", 20, 5, 0b00011, "vid.v vs2 slot must be 0"),
    ("vfmv.v.f", 20, 5, 0b00001, "vfmv.v.f vs2 slot must be 0"),
    ("vle64.v", 29, 3, 0b001, "nf != 0 (segment load)"),
    ("vsse64.v", 29, 3, 0b111, "nf != 0 (segment store)"),
    ("vlse64.v", 28, 1, 0b1, "mew = 1"),
    ("vle64.v", 12, 3, 0b110, "32-bit elements"),
    ("vsuxei64.v", 12, 3, 0b000, "8-bit elements"),
    ("vsetvl", 25, 1, 0b1, "vsetvl with bit 25 set"),
    ("vsetvl", 30, 1, 0b1, "vsetvl with bit 30 set (vsetivli)"),
    ("vadd.vv", 26, 6, 0b000010, "OPIVV vsub.vv"),
    ("vfadd.vv", 26, 6, 0b000001, "OPFVV vfredusum.vs"),
    ("vid.v", 26, 6, 0b000000, "OPMVV vredsum.vs"),
    ("vsll.vi", 26, 6, 0b000000, "OPIVI vadd.vi"),
    ("vadd.vx", 26, 6, 0b000010, "OPIVX vsub.vx"),
    ("vfmv.v.f", 26, 6, 0b000000, "OPFVF vfadd.vf"),
    ("vmul.vx", 26, 6, 0b100100, "OPMVX vmulhu.vx"),
    ("vluxei64.v", 26, 2, 0b11, "ordered-indexed load"),
    ("vsetvli", 23, 3, 0b100, "reserved element width"),
    ("vsetvli", 20, 3, 0b100, "reserved group multiplier"),
    ("vadd.vv", 32, 1, 0b1, "not a 32-bit word"),
]


@pytest.mark.parametrize("mnemonic,offset,width,value,why", REJECT_CASES,
                         ids=[case[-1] for case in REJECT_CASES])
def test_single_field_change_is_rejected(mnemonic, offset, width, value, why):
    word = _corpus_word(mnemonic)
    assert decode_word(word).mnemonic == mnemonic
    mask = ((1 << width) - 1) << offset
    changed = (word & ~mask) | (value << offset)
    assert changed != word, why
    with pytest.raises(UnsupportedInstruction):
        decode_word(changed)


def test_corpus_generator_renders_the_subset():
    """The fixture generator needs a RISC-V assembler to run, so check here
    that its `render` still produces each mnemonic of the subset."""
    path = Path(__file__).parent.parent / "tools" / "gen_decode_corpus.py"
    spec = importlib.util.spec_from_file_location("gen_decode_corpus", path)
    tool = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tool)
    rng = random.Random(tool.SEED)
    for mnemonic in MNEMONICS:
        for _ in range(tool.PER_MNEMONIC):
            line = tool.render(rng, mnemonic)
            assert parse_instruction(line).mnemonic == mnemonic, line
