"""Functional (value-accurate, untimed) execution of a VSTREAM.

Element semantics follow the vector ISA: unit-stride accesses touch
[base, base+8*vl); strided accesses use the rs2 byte stride (signed); indexed
accesses treat vs2 elements as unsigned *byte* offsets from the base, so index
vectors for 64-bit data must be pre-scaled by 8.  Destination tail elements
(index >= vl) are always left undisturbed, which keeps runs deterministic and
bit-comparable.

All FP arithmetic is IEEE-754 double, round-to-nearest-even.  The multiply-
accumulate op is a true fused multiply-add (single rounding), computed per
element with exact rational arithmetic.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Optional, Sequence, Union

import numpy as np

from .config import MachineConfig, Vtype
from .errors import (EmulationError, OutOfBoundsAccess, SdvError,
                     UnsupportedVtype)
from .decoding import LMUL_CODES, SEW_CODES
from .isa import Category, Instruction
from .tracefile import TraceRecord
from .vstream import ItemKind, StreamItem, parse_vstream

_U64 = np.uint64
_PAGE_BITS = 12
_PAGE_SIZE = 1 << _PAGE_BITS
_INT_VX_OPS = {"vadd.vx": np.add, "vmul.vx": np.multiply, "vand.vx": np.bitwise_and}
_FP_VV_OPS = {"vfadd.vv": np.add, "vfsub.vv": np.subtract, "vfmul.vv": np.multiply}


def fused_madd(a: float, b: float, c: float) -> float:
    """a*b + c with a single rounding."""
    if not (math.isfinite(a) and math.isfinite(b) and math.isfinite(c)):
        return a * b + c
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


class Memory:
    """Sparse byte-addressable memory, zero-initialized, bounds-checked."""

    def __init__(self, limit: int):
        self.limit = limit
        self._pages: dict[int, bytearray] = {}

    def check(self, addr: int, nbytes: int, element: int = 0) -> None:
        if addr < 0 or addr + nbytes > self.limit:
            raise OutOfBoundsAccess(addr, element)

    def _page(self, index: int) -> bytearray:
        page = self._pages.get(index)
        if page is None:
            page = bytearray(_PAGE_SIZE)
            self._pages[index] = page
        return page

    def read_bytes(self, addr: int, nbytes: int, element: int = 0) -> bytes:
        self.check(addr, nbytes, element)
        out = bytearray(nbytes)
        pos = 0
        while pos < nbytes:
            index, offset = (addr + pos) >> _PAGE_BITS, (addr + pos) & (_PAGE_SIZE - 1)
            take = min(nbytes - pos, _PAGE_SIZE - offset)
            page = self._pages.get(index)
            if page is not None:
                out[pos:pos + take] = page[offset:offset + take]
            pos += take
        return bytes(out)

    def write_bytes(self, addr: int, data: bytes, element: int = 0) -> None:
        self.check(addr, len(data), element)
        pos = 0
        while pos < len(data):
            index, offset = (addr + pos) >> _PAGE_BITS, (addr + pos) & (_PAGE_SIZE - 1)
            take = min(len(data) - pos, _PAGE_SIZE - offset)
            self._page(index)[offset:offset + take] = data[pos:pos + take]
            pos += take

    def read_u64(self, addr: int, element: int = 0) -> int:
        self.check(addr, 8, element)
        offset = addr & (_PAGE_SIZE - 1)
        if offset <= _PAGE_SIZE - 8:
            page = self._pages.get(addr >> _PAGE_BITS)
            if page is None:
                return 0
            return int.from_bytes(page[offset:offset + 8], "little")
        return int.from_bytes(self.read_bytes(addr, 8, element), "little")

    def write_u64(self, addr: int, value: int, element: int = 0) -> None:
        self.check(addr, 8, element)
        offset = addr & (_PAGE_SIZE - 1)
        data = (value & 0xFFFFFFFFFFFFFFFF).to_bytes(8, "little")
        if offset <= _PAGE_SIZE - 8:
            self._page(addr >> _PAGE_BITS)[offset:offset + 8] = data
        else:
            self.write_bytes(addr, data, element)

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

    @classmethod
    def create(cls, config: Optional[MachineConfig] = None) -> "MachineState":
        config = config or MachineConfig()
        vlmax = config.vlmax(64)
        return cls(config=config, xregs=[0] * 32, fregs=[0.0] * 32,
                   vregs=np.zeros((32, vlmax), dtype=_U64), vl=0,
                   vtype=Vtype(), memory=Memory(config.memory_bytes))

    def read_xreg(self, reg: int) -> int:
        return 0 if reg == 0 else self.xregs[reg]

    def write_xreg(self, reg: int, value: int) -> None:
        if reg != 0:
            self.xregs[reg] = value & 0xFFFFFFFFFFFFFFFF

    def velems(self, reg: int, vl: int) -> np.ndarray:
        return self.vregs[reg, :vl]

    def vfloats(self, reg: int, vl: int) -> np.ndarray:
        return self.vregs[reg, :vl].view(np.float64)


def apply_vsetvli(state: MachineState, avl: int, req: Vtype) -> int:
    """Set vl = min(avl, VLMAX) for the requested type; only e64/m1 is
    accepted here, anything else marks the type ill-formed and raises."""
    if req.vill or req.sew_bits != 64 or req.lmul != 1:
        state.vtype = Vtype(sew_bits=req.sew_bits, lmul=req.lmul, vill=True)
        raise UnsupportedVtype(
            f"unsupported vector type e{req.sew_bits}/m{req.lmul}")
    vlmax = state.config.vlmax(req.sew_bits, req.lmul)
    state.vtype = Vtype(sew_bits=req.sew_bits, lmul=req.lmul, vill=False)
    state.vl = min(avl, vlmax)
    return state.vl


def _vtype_from_bits(bits: int) -> Vtype:
    sew = SEW_CODES.get((bits >> 3) & 0x7)
    lmul = LMUL_CODES.get(bits & 0x7)
    if sew is None or lmul is None or (bits >> 8) & 0x7FFFFFFFFFFFFF:
        return Vtype(sew_bits=0, lmul=0, vill=True)
    return Vtype(sew_bits=sew, lmul=lmul, vill=bool(bits >> 63))


def _coalesce(addrs: Iterable[int], width: int) -> tuple[tuple[int, int], ...]:
    """Merge per-element (addr, width) accesses into maximal contiguous runs,
    preserving element order."""
    ranges: list[list[int]] = []
    for addr in addrs:
        if ranges and addr == ranges[-1][0] + ranges[-1][1]:
            ranges[-1][1] += width
        else:
            ranges.append([addr, width])
    return tuple((base, length) for base, length in ranges)


def _config_avl(state: MachineState, instr: Instruction) -> int:
    if instr.rs1 != 0:
        return state.read_xreg(instr.rs1)
    if instr.rd != 0:
        return state.config.vlmax(64)  # keep-all request
    return state.vl  # type change only, vl retained


def _execute(state: MachineState, instr: Instruction) -> tuple[tuple[int, int], ...]:
    """Apply one instruction to the state; returns the touched address ranges."""
    mem = state.memory
    vl = state.vl
    m = instr.mnemonic

    if m == "vsetvli" or m == "vsetvl":
        avl = _config_avl(state, instr)
        req = Vtype(sew_bits=instr.sew, lmul=instr.lmul) if m == "vsetvli" \
            else _vtype_from_bits(state.read_xreg(instr.rs2))
        state.write_xreg(instr.rd, apply_vsetvli(state, avl, req))
        return ()

    if m == "vle64.v" or m == "vse64.v":
        base = state.read_xreg(instr.rs1)
        nbytes = 8 * vl
        if m == "vle64.v":
            data = np.frombuffer(mem.read_bytes(base, nbytes), dtype="<u8")
            state.vregs[instr.vd, :vl] = data
        else:
            mem.write_bytes(base, state.velems(instr.vs3, vl).astype("<u8").tobytes())
        return ((base, nbytes),)

    category = instr.category
    if category == Category.MEM_STRIDED or category == Category.MEM_INDEXED:
        base = state.read_xreg(instr.rs1)
        if category == Category.MEM_STRIDED:
            stride = state.read_xreg(instr.rs2)
            if stride >= 1 << 63:
                stride -= 1 << 64  # stride register is signed
            addrs = [base + i * stride for i in range(vl)]
        else:
            addrs = [base + int(off) for off in state.velems(instr.vs2, vl)]
        for i, addr in enumerate(addrs):
            mem.check(addr, 8, i)
        if instr.is_load:
            values = [mem.read_u64(addr, i) for i, addr in enumerate(addrs)]
            state.vregs[instr.vd, :vl] = np.array(values, dtype=_U64).reshape(vl)
        else:
            src = state.velems(instr.vs3, vl)
            for i, addr in enumerate(addrs):
                mem.write_u64(addr, int(src[i]), i)
        return _coalesce(addrs, 8) if vl else ((base, 0),)

    if vl == 0:
        return ()

    if m == "vadd.vv":
        state.vregs[instr.vd, :vl] = state.velems(instr.vs2, vl) + state.velems(instr.vs1, vl)
    elif m in _INT_VX_OPS:
        state.vregs[instr.vd, :vl] = _INT_VX_OPS[m](state.velems(instr.vs2, vl),
                                                    _U64(state.read_xreg(instr.rs1)))
    elif m == "vsll.vi":
        state.vregs[instr.vd, :vl] = state.velems(instr.vs2, vl) << _U64(instr.imm)
    elif m == "vid.v":
        state.vregs[instr.vd, :vl] = np.arange(vl, dtype=_U64)
    elif m in _FP_VV_OPS:
        result = _FP_VV_OPS[m](state.vfloats(instr.vs2, vl), state.vfloats(instr.vs1, vl))
        state.vregs[instr.vd, :vl] = result.view(_U64)
    elif m == "vfmacc.vv":
        acc = state.vfloats(instr.vd, vl)
        s1 = state.vfloats(instr.vs1, vl)
        s2 = state.vfloats(instr.vs2, vl)
        result = np.array([fused_madd(float(s1[i]), float(s2[i]), float(acc[i]))
                           for i in range(vl)], dtype=np.float64)
        state.vregs[instr.vd, :vl] = result.view(_U64)
    elif m == "vfmv.v.f":
        value = np.float64(state.fregs[instr.fs1])
        state.vregs[instr.vd, :vl] = np.full(vl, value, dtype=np.float64).view(_U64)
    elif m == "vrgather.vv":
        indices = state.velems(instr.vs1, vl)
        source = state.velems(instr.vs2, vl).copy()  # vd may alias a source
        safe = np.minimum(indices, _U64(vl - 1)).astype(np.int64)
        state.vregs[instr.vd, :vl] = np.where(indices < _U64(vl), source[safe], _U64(0))
    else:  # pragma: no cover - subset table keeps this unreachable
        raise SdvError(f"no semantics for {m}")
    return ()


def step(state: MachineState, item: StreamItem) -> Optional[TraceRecord]:
    """Apply one stream item.  Directives mutate state silently; instructions
    return the trace record captured at execution time."""
    kind = item.kind
    if kind == ItemKind.SET_XREG:
        state.write_xreg(item.reg, item.ivalue)
        return None
    if kind == ItemKind.SET_FREG:
        state.fregs[item.reg] = item.fvalue
        return None
    if kind == ItemKind.INIT_MEM_F64:
        for i, value in enumerate(item.fvalues):
            state.memory.write_bytes(item.address + 8 * i,
                                     np.float64(value).astype("<f8").tobytes(), i)
        return None
    if kind == ItemKind.INIT_MEM_U64:
        for i, value in enumerate(item.uvalues):
            state.memory.write_u64(item.address + 8 * i, value, i)
        return None
    if kind in (ItemKind.PHASE_MARK, ItemKind.WINDOW_MARK):
        return None

    instr = item.instr
    addresses = _execute(state, instr)
    record = TraceRecord(
        seq=state.instret,
        pc=item.pc,
        phase=item.phase,
        scalar_before=item.scalar_before,
        instr=instr,
        vl=state.vl,
        sew_bits=state.vtype.sew_bits,
        addresses=addresses,
        window_id=item.window,
    )
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
