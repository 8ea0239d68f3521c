"""Functional (value-accurate, untimed) execution of a VSTREAM.

Element semantics follow the vector ISA: unit-stride accesses touch
[base, base+8*vl); strided accesses use the rs2 byte stride (signed); indexed
accesses treat vs2 elements as unsigned *byte* offsets from the base, so index
vectors for 64-bit data must be pre-scaled by 8.  Strided and indexed element
addresses wrap modulo 2^64.  Destination tail elements (index >= vl) are always
left undisturbed, which keeps runs deterministic and bit-comparable.

Each instruction works on whole vectors.  A compute instruction applies the
element operation of its `isa.SPEC` row to the operands its roles name, bound
once per distinct instruction.  All FP arithmetic is IEEE-754 double,
round-to-nearest-even.  The multiply-accumulate op is a true fused
multiply-add (single rounding): `fused_madd` computes it lane-wise with
error-free transformations and one round-to-odd addition (Boldo & Melquiond,
"Emulation of FMA and correctly rounded sums: proved algorithms using rounding
to odd", IEEE TC 2008), and hands the few lanes outside that algorithm's range
(a non-finite operand, a zero factor, split overflow, product underflow or
overflow) to an exact rational routine.  Overflow, underflow, inexact and
invalid results are the IEEE results, which are the RVV results; the accrued
exception flags (`fflags`) are not modeled, so no FP operation warns.
"""

from __future__ import annotations

import math
from contextlib import nullcontext
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Optional, Sequence, Union

import numpy as np

from .config import MachineConfig, Vtype
from .errors import EmulationError, OutOfBoundsAccess, SdvError, UnsupportedVtype
from .isa import LMUL_CODES, ROLES, SEW_CODES, SPEC, Category, Instruction
from .tracefile import TraceRecord
from .vstream import _U64_MASK, ItemKind, StreamItem, parse_vstream

_U64 = np.uint64
_PAGE_BITS = 12
_PAGE_SIZE = 1 << _PAGE_BITS
_WORD_BYTES = np.arange(8, dtype=_U64)

# Veltkamp's constant 2^27 + 1 splits a double into two 26-bit halves.
_SPLITTER = float((1 << 27) + 1)
# Per operand row (a, b, a*b, c): the magnitudes inside which the error-free
# path is exact.  a and b must be small enough that the split does not
# overflow; the rounded product must stay clear of underflow (so its error
# term is exact, and a zero factor is caught) and of overflow, and c of
# overflow.  A NaN fails every bound.
_EFT_LOW = np.array([0.0, 0.0, 2.0 ** -960, 0.0])[:, None]
_EFT_HIGH = np.array([2.0 ** 995, 2.0 ** 995, 2.0 ** 1021, 2.0 ** 1021])[:, None]


def _exact_fused_madd(a: float, b: float, c: float) -> float:
    """a*b + c with a single rounding, by exact rational arithmetic."""
    if not (math.isfinite(a) and math.isfinite(b)):
        return a * b + c
    if not math.isfinite(c):
        return c  # the exact product is finite, however large its rounding
    exact = Fraction(a) * Fraction(b) + Fraction(c)
    if exact == 0:
        product = a * b
        if product == 0.0:
            return product + c  # preserves IEEE signed-zero addition rules
        return 0.0
    try:
        return float(exact)
    except OverflowError:
        return math.inf if exact > 0 else -math.inf


def _two_sum(x: np.ndarray, y: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(s, e) with s = RN(x + y) and s + e == x + y exactly (Knuth)."""
    s = x + y
    yv = s - x
    return s, (x - (s - yv)) + (y - yv)


def fused_madd(a, b, c):
    """a*b + c with a single rounding, lane-wise over equal-shape float64
    arrays; scalars give a float."""
    shape = np.shape(a)
    a, b, c = (np.asarray(x, dtype=np.float64).reshape(-1) for x in (a, b, c))
    with np.errstate(all="ignore"):
        p = a * b
        rows = np.array((a, b, p, c))
        mags = np.abs(rows)
        ok = ((mags >= _EFT_LOW) & (mags < _EFT_HIGH)).all(axis=0)
        # Dekker's TwoProduct: a*b == p + pl exactly
        factors = rows[:2]
        t = factors * _SPLITTER
        hi = t - (t - factors)
        (ah, bh), (al, bl) = hi, factors - hi
        pl = ((ah * bh - p) + ah * bl + al * bh) + al * bl
        s, sl = _two_sum(c, p)
        # round-to-odd sl + pl: an inexact sum with an even mantissa steps one
        # ulp toward its error, so the final rounding cannot round twice
        v, ve = _two_sum(sl, pl)
        step = (ve != 0) & ((v.view(_U64) & _U64(1)) == 0)
        v = np.where(step, np.nextafter(v, np.copysign(np.inf, ve)), v)
        result = s + v
    for i in np.flatnonzero(~ok):
        result[i] = _exact_fused_madd(float(a[i]), float(b[i]), float(c[i]))
    return float(result[0]) if shape == () else result.reshape(shape)


def _page_runs(where: np.ndarray):
    """(page index, slice, in-page offsets) of each page's run in sorted
    byte addresses."""
    pages = where >> _U64(_PAGE_BITS)
    offsets = (where & _U64(_PAGE_SIZE - 1)).astype(np.intp)
    cuts = [0, *(np.flatnonzero(pages[1:] != pages[:-1]) + 1).tolist(), len(where)]
    for lo, hi in zip(cuts, cuts[1:]):
        yield int(pages[lo]), slice(lo, hi), offsets[lo:hi]


def _page_walk(addr: int, nbytes: int):
    """(page index, in-page offset, position, length) of each page's part of
    the byte range [addr, addr+nbytes)."""
    pos = 0
    while pos < nbytes:
        offset = (addr + pos) & (_PAGE_SIZE - 1)
        take = min(nbytes - pos, _PAGE_SIZE - offset)
        yield (addr + pos) >> _PAGE_BITS, offset, pos, take
        pos += take


class Memory:
    """Sparse byte-addressable memory, zero-initialized, bounds-checked.

    `read_u64` and `write_u64` take one address or a uint64 array of them.
    Every word of an array access is checked before any byte moves; a fault
    names the first word that does not fit and its index.  The bytes of each
    page are then moved with numpy indexing, and where words overlap the
    later one wins.
    """

    def __init__(self, limit: int):
        self.limit = limit
        self._pages: dict[int, bytearray] = {}

    def check(self, addr: int, nbytes: int) -> None:
        if addr < 0 or addr + nbytes > self.limit:
            raise OutOfBoundsAccess(addr, 0)

    def _page(self, index: int) -> bytearray:
        page = self._pages.get(index)
        if page is None:
            page = self._pages[index] = bytearray(_PAGE_SIZE)
        return page

    def read_bytes(self, addr: int, nbytes: int) -> bytes:
        self.check(addr, nbytes)
        out = bytearray(nbytes)
        for index, offset, pos, take in _page_walk(addr, nbytes):
            page = self._pages.get(index)
            if page is not None:
                out[pos:pos + take] = page[offset:offset + take]
        return bytes(out)

    def write_bytes(self, addr: int, data: bytes) -> None:
        self.check(addr, len(data))
        for index, offset, pos, take in _page_walk(addr, len(data)):
            self._page(index)[offset:offset + take] = data[pos:pos + take]

    def _word_bytes(self, addr) -> np.ndarray:
        """The byte addresses of the 8-byte words at `addr`, word by word,
        once every word is known to fit."""
        if np.ndim(addr) == 0:
            self.check(addr, 8)
        addrs = np.asarray(addr, dtype=_U64).reshape(-1)
        # no word fits at or past this address
        bad = addrs >= _U64(max(0, self.limit - 7))
        if bad.any():
            first = int(np.argmax(bad))
            raise OutOfBoundsAccess(int(addrs[first]), first)
        return (addrs[:, None] + _WORD_BYTES).reshape(-1)

    def read_u64(self, addr):
        """The little-endian word at `addr`: an int for an int address, a
        uint64 array for an address array."""
        where, back = np.unique(self._word_bytes(addr), return_inverse=True)
        data = np.zeros(len(where), dtype=np.uint8)
        for index, run, offsets in _page_runs(where):
            page = self._pages.get(index)
            if page is not None:
                data[run] = np.frombuffer(page, dtype=np.uint8)[offsets]
        words = data[back].view("<u8")
        return int(words[0]) if np.ndim(addr) == 0 else words

    def write_u64(self, addr, value) -> None:
        """Store `value` (an int, or a uint64 array for an address array) as
        little-endian words."""
        where = self._word_bytes(addr)
        if np.ndim(value) == 0:
            value = int(value) & _U64_MASK
        data = np.ascontiguousarray(value, dtype="<u8").reshape(-1).view(np.uint8)
        # the last word written to a byte wins: keep each byte's last writer
        where, last = np.unique(where[::-1], return_index=True)
        data = data[::-1][last]
        for index, run, offsets in _page_runs(where):
            np.frombuffer(self._page(index), dtype=np.uint8)[offsets] = data[run]

    def touched_pages(self) -> dict[int, bytes]:
        """Snapshot of every page ever written (page index -> contents)."""
        return {index: bytes(page) for index, page in self._pages.items()}


@dataclass
class MachineState:
    config: MachineConfig
    xregs: list[int]
    fregs: list[float]
    vregs: np.ndarray  # (32, VLMAX) uint64 element payloads
    vl: int
    vtype: Vtype
    memory: Memory
    instret: int = 0  # trace records emitted so far
    # compute instruction -> its `_bind` result, one per distinct instruction run
    bindings: dict = field(default_factory=dict, init=False, compare=False, repr=False)

    @classmethod
    def create(cls, config: Optional[MachineConfig] = None) -> "MachineState":
        config = config or MachineConfig()
        return cls(config=config, xregs=[0] * 32, fregs=[0.0] * 32,
                   vregs=np.zeros((32, config.vlmax(64)), dtype=_U64), vl=0,
                   vtype=Vtype(), memory=Memory(config.memory_bytes))

    def read_xreg(self, reg: int) -> int:
        return 0 if reg == 0 else self.xregs[reg]

    def write_xreg(self, reg: int, value: int) -> None:
        if reg != 0:
            self.xregs[reg] = value & _U64_MASK


def apply_vsetvli(state: MachineState, avl: int, req: Vtype) -> int:
    """Set vl = min(avl, VLMAX) for the requested type; only e64/m1 is
    accepted here, anything else marks the type ill-formed and raises."""
    if req.vill or req.sew_bits != 64 or req.lmul != 1:
        state.vtype = Vtype(sew_bits=req.sew_bits, lmul=req.lmul, vill=True)
        raise UnsupportedVtype(f"unsupported vector type e{req.sew_bits}/m{req.lmul}")
    vlmax = state.config.vlmax(req.sew_bits, req.lmul)
    state.vtype = Vtype(sew_bits=req.sew_bits, lmul=req.lmul, vill=False)
    state.vl = min(avl, vlmax)
    return state.vl


def _vsetvl_request(state: MachineState, bits: int) -> Vtype:
    """The type a vsetvl rs2 value requests.  Any value but e64/m1 marks the
    type ill-formed and raises, naming the raw value and why it was refused."""
    sew = SEW_CODES.get((bits >> 3) & 0x7)
    lmul = LMUL_CODES.get(bits & 0x7)
    reserved = (bits >> 8) & 0x7FFFFFFFFFFFFF
    if bits >> 63:
        why = "vill bit set"
    elif reserved:
        why = "reserved bits 8-62 set"
    elif sew is None:
        why = "reserved element width"
    elif lmul is None:
        why = "fractional or reserved group multiplier"
    elif (sew, lmul) != (64, 1):
        why = f"unsupported type e{sew}/m{lmul}"
    else:
        return Vtype(sew_bits=sew, lmul=lmul)
    state.vtype = Vtype(sew_bits=0, lmul=0, vill=True) \
        if sew is None or lmul is None or reserved \
        else Vtype(sew_bits=sew, lmul=lmul, vill=True)
    raise UnsupportedVtype(f"vsetvl rs2 value 0x{bits:x} rejected: {why}")


def _coalesce(addrs: np.ndarray, width: int) -> tuple[tuple[int, int], ...]:
    """Merge per-element (addr, width) accesses into maximal contiguous runs,
    preserving element order."""
    step = _U64(width)
    # an address below `width` that follows on modulo 2^64 starts a new run
    joined = (addrs[1:] == addrs[:-1] + step) & (addrs[1:] >= step)
    starts = [0, *(np.flatnonzero(~joined) + 1).tolist()]
    lengths = np.diff([*starts, len(addrs)]) * width
    return tuple(zip(addrs[starts].tolist(), lengths.tolist()))


def _config_avl(state: MachineState, instr: Instruction) -> int:
    if instr.rs1 != 0:
        return state.read_xreg(instr.rs1)
    if instr.rd != 0:
        return state.config.vlmax(64)  # keep-all request
    return state.vl  # type change only, vl retained


# element operation (SPEC's last column) -> its numpy expression over vl and
# the sources in SPEC order; integers wrap mod 2^64, a gather index >= vl gives 0
_OPERATIONS = {
    "add": lambda vl, a, b: a + b,
    "sub": lambda vl, a, b: a - b,
    "mul": lambda vl, a, b: a * b,
    "and": lambda vl, a, b: a & b,
    "sll": lambda vl, a, b: a << b,
    "index": lambda vl: np.arange(vl, dtype=_U64),
    "splat": lambda vl, value: value,
    "macc": lambda vl, a, b, acc: fused_madd(a, b, acc),
    "gather": lambda vl, src, index: np.where(index < vl, src[np.minimum(index, vl - 1)], 0),
}

# a source role's register prefix (None: the immediate) -> (state, vector
# register lanes, vl, its register or immediate) -> the operand
_READERS = {
    "v": lambda state, lanes, vl, reg: lanes[reg, :vl],
    "x": lambda state, lanes, vl, reg: _U64(state.read_xreg(reg)),
    "f": lambda state, lanes, vl, reg: np.float64(state.fregs[reg]),
    None: lambda state, lanes, vl, imm: _U64(imm),
}


def _bind(state: MachineState, instr: Instruction) -> tuple:
    """A compute instruction's operation, a (reader, register) pair per
    source operand and whether its lanes are float64, kept in `state`."""
    category, (dest, *sources), _, operation = SPEC[instr.mnemonic]
    if operation == "macc":
        sources.append(dest)  # the accumulator
    readers = [(_READERS[ROLES[role][1]], getattr(instr, ROLES[role][0][0])) for role in sources]
    bound = _OPERATIONS[operation], readers, category is Category.ARITH_FP
    state.bindings[instr] = bound
    return bound


def _execute(state: MachineState, instr: Instruction) -> tuple[tuple[int, int], ...]:
    """Apply one instruction to the state; returns the touched address ranges."""
    mem = state.memory
    vl = state.vl
    category = instr.category

    if category == Category.CONFIG:
        avl = _config_avl(state, instr)
        req = Vtype(sew_bits=instr.sew, lmul=instr.lmul) if instr.rs2 is None \
            else _vsetvl_request(state, state.read_xreg(instr.rs2))  # vsetvl: type in rs2
        state.write_xreg(instr.rd, apply_vsetvli(state, avl, req))
        return ()

    if category == Category.MEM_UNIT:
        base = state.read_xreg(instr.rs1)
        nbytes = 8 * vl
        if instr.is_load:
            state.vregs[instr.vd, :vl] = np.frombuffer(mem.read_bytes(base, nbytes), dtype="<u8")
        else:
            mem.write_bytes(base, state.vregs[instr.vs3, :vl].astype("<u8").tobytes())
        return ((base, nbytes),)

    if category == Category.MEM_STRIDED or category == Category.MEM_INDEXED:
        base = state.read_xreg(instr.rs1)
        if vl == 0:
            return ((base, 0),)
        if category == Category.MEM_STRIDED:
            # uint64 arithmetic: a negative stride is its two's complement
            offsets = np.arange(vl, dtype=_U64) * _U64(state.read_xreg(instr.rs2))
        else:
            offsets = state.vregs[instr.vs2, :vl]
        addrs = _U64(base) + offsets  # wraps modulo 2^64
        if instr.is_load:
            state.vregs[instr.vd, :vl] = mem.read_u64(addrs)
        else:
            mem.write_u64(addrs, state.vregs[instr.vs3, :vl])
        return _coalesce(addrs, 8)

    if vl == 0:
        return ()

    operation, readers, fp = state.bindings.get(instr) or _bind(state, instr)
    lanes = state.vregs.view(np.float64) if fp else state.vregs  # FP works on float64 lanes
    # overflow and NaN results are the RVV results
    with np.errstate(all="ignore") if fp else nullcontext():
        lanes[instr.vd, :vl] = operation(vl, *[read(state, lanes, vl, reg) for read, reg in readers])
    return ()


_INIT_DTYPES = {ItemKind.INIT_MEM_F64: "<f8", ItemKind.INIT_MEM_U64: "<u8"}


def step(state: MachineState, item: StreamItem) -> Optional[TraceRecord]:
    """Apply one stream item.  Directives mutate state silently; instructions
    return the trace record captured at execution time."""
    kind = item.kind
    if kind is not ItemKind.INSTRUCTION:
        if kind is ItemKind.SET_XREG:
            state.write_xreg(item.target, item.values[0])
        elif kind is ItemKind.SET_FREG:
            state.fregs[item.target] = item.values[0]
        elif kind in _INIT_DTYPES:
            # one write per directive; a fault names the first word that does
            # not fit, and nothing is written
            fits = max(0, (state.memory.limit - item.target) // 8)
            if fits < len(item.values):
                raise OutOfBoundsAccess(item.target + 8 * fits, fits)
            words = np.array(item.values, dtype=_INIT_DTYPES[kind])
            state.memory.write_bytes(item.target, words.tobytes())
        return None

    addresses = _execute(state, item.instr)  # before vl is read: a config op sets it
    record = TraceRecord(seq=state.instret, pc=item.pc, phase=item.phase,
                         scalar_before=item.scalar_before, instr=item.instr, vl=state.vl,
                         sew_bits=state.vtype.sew_bits, addresses=addresses,
                         window_id=item.window)
    state.instret += 1
    return record


def run(config: Optional[MachineConfig],
        stream: Union[str, Sequence[StreamItem]]):
    """Execute a whole stream; returns (final state, trace records).

    The first error aborts execution and reports the record index reached.
    """
    items = parse_vstream(stream) if isinstance(stream, str) else stream
    state = MachineState.create(config)
    records: list[TraceRecord] = []
    for item in items:
        try:
            record = step(state, item)
        except SdvError as err:
            raise EmulationError(state.instret, err) from err
        if record is not None:
            records.append(record)
    return state, records
