"""Functional (value-accurate, untimed) execution of a VSTREAM.

Element semantics follow the vector ISA: unit-stride accesses touch
[base, base+8*vl); strided accesses use the rs2 byte stride (signed); indexed
accesses treat vs2 elements as unsigned *byte* offsets from the base, so index
vectors for 64-bit data must be pre-scaled by 8.  Strided and indexed element
addresses wrap modulo 2^64.  Destination tail elements (index >= vl) are always
left undisturbed, which keeps runs deterministic and bit-comparable.

Every memory access follows one fault rule, kept by `Memory`: at vl=0 it
touches nothing and never faults; otherwise a fault names the first 8-byte
word that does not fit and its element index, and nothing is read into a
register or written.  A `.memf64`/`.memu64` directive is one write of its
packed words, checked like a unit-stride store.  Strided and indexed accesses
move whole words when every address is 8-aligned, and bytes otherwise.

Each instruction works on whole vectors.  Its semantics, whatever its
category, are bound once per distinct instruction: `_handler` resolves them
into one function, kept in `MachineState.bindings`, that `step` calls for each
record.  All FP arithmetic is IEEE-754 double, round-to-nearest-even.  The
multiply-accumulate op is a true fused multiply-add (single rounding), which an
exact routine computes in integers (a finite double is n / 2^k, and int / int
division rounds correctly).  `fused_madd` hands it whole vectors of up to
`_SHORT_LANES` = 16 lanes, which cost less there than numpy's fixed overhead;
longer vectors use error-free transformations and one round-to-odd addition
(Boldo & Melquiond, "Emulation of FMA and correctly rounded sums: proved
algorithms using rounding to odd", IEEE TC 2008), and hand it only the lanes
outside that algorithm's range (a non-finite operand, a zero factor, split
overflow, product underflow or overflow).  Every FP result is the IEEE result,
which is the RVV result; the accrued flags (`fflags`) are not modeled.  `run`
keeps FP exceptions quiet; `step` alone follows the caller's numpy error state.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from itertools import repeat
from struct import pack
from typing import Callable, Optional, Sequence, Union

import numpy as np

from .config import MachineConfig, Vtype
from .errors import EmulationError, OutOfBoundsAccess, SdvError, UnsupportedVtype
from .isa import ROLES, SPEC, Category, Instruction, vtype_fields
from .records import positional
from .tracefile import TraceRecord
from .vstream import (_INSTRUCTION, _MEM_F64, _MEM_U64, _SET_FREG, _SET_XREG, _U64_MASK,
                      StreamItem, parse_vstream)

_U64 = np.uint64
_PAGE_BITS = 12
_PAGE_SIZE = 1 << _PAGE_BITS
_WORD_BYTES = np.arange(8, dtype=_U64)
# the cells a word access moves: whole little-endian words, or bytes
_WORD, _BYTE = np.dtype("<u8"), np.dtype(np.uint8)
_F64 = np.dtype("<f8")  # a register's lanes, viewed as doubles
_new_record = positional(TraceRecord)

# Veltkamp's constant 2^27 + 1 splits a double into two 26-bit halves.
_SPLITTER = float((1 << 27) + 1)
# Per operand row (a, b, a*b, c): the magnitudes inside which the error-free
# path is exact.  a and b must be small enough that the split does not
# overflow; the rounded product must stay clear of underflow (so its error
# term is exact, and a zero factor is caught) and of overflow, and c of
# overflow.  A NaN fails every bound.
_EFT_LOW = np.array([0.0, 0.0, 2.0 ** -960, 0.0])[:, None]
_EFT_HIGH = np.array([2.0 ** 995, 2.0 ** 995, 2.0 ** 1021, 2.0 ** 1021])[:, None]
# the exact routine's 2-3 us a lane beats the error-free path's 50-60 us a call
# up to 16 lanes, not at 20 (Python 3.11, numpy 2.4, a shared 2-vCPU x86 host)
_SHORT_LANES = 16


def _exact_fused_madd(a: float, b: float, c: float) -> float:
    """a*b + c with a single rounding, exactly in integers; int / int true
    division rounds correctly, subnormals included."""
    if not (math.isfinite(a) and math.isfinite(b)):
        return a * b + c
    if not math.isfinite(c):
        return c  # the exact product is finite, however large its rounding
    (na, da), (nb, db), (nc, dc) = a.as_integer_ratio(), b.as_integer_ratio(), c.as_integer_ratio()
    den = da * db  # the sum's denominator is the larger of two powers of two
    if den >= dc:
        num = na * nb + nc * (den // dc)
    else:
        num, den = na * nb * (dc // den) + nc, dc
    if num == 0:
        product = a * b
        if product == 0.0:
            return product + c  # preserves IEEE signed-zero addition rules
        return 0.0
    try:
        return num / den
    except OverflowError:
        return math.inf if num > 0 else -math.inf


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
    if len(a) <= _SHORT_LANES:
        result, exact = np.empty(len(a)), slice(None)  # every lane
    else:
        with np.errstate(all="ignore"):
            p = a * b
            rows = np.array((a, b, p, c))
            mags = np.abs(rows)
            exact = ~((mags >= _EFT_LOW) & (mags < _EFT_HIGH)).all(axis=0)
            # Dekker's TwoProduct: a*b == p + pl exactly
            factors = rows[:2]
            t = factors * _SPLITTER
            hi = t - (t - factors)
            (ah, bh), (al, bl) = hi, factors - hi
            pl = ((ah * bh - p) + ah * bl + al * bh) + al * bl
            s, sl = _two_sum(c, p)
            # round-to-odd sl + pl: an inexact sum with an even mantissa steps
            # one ulp toward its error, so the final rounding cannot round twice
            v, ve = _two_sum(sl, pl)
            step = (ve != 0) & ((v.view(_U64) & _U64(1)) == 0)
            v = np.where(step, np.nextafter(v, np.copysign(np.inf, ve)), v)
            result = s + v
    result[exact] = [*map(_exact_fused_madd, *(x[exact].tolist() for x in (a, b, c)))]
    return float(result[0]) if shape == () else result.reshape(shape)


def _page_runs(where: np.ndarray, unit: np.dtype):
    """(page index, slice, in-page offsets) of each page's run in rising
    addresses of `unit`-sized cells, the offsets counted in cells.  Cells
    whose first and last share a page, as those of any one-page access do,
    are one run, found without a page or cut per cell; no cells, no run."""
    if not len(where):
        return ()
    offsets = (where & _U64(_PAGE_SIZE - 1)).astype(np.intp) // unit.itemsize
    first = int(where[0]) >> _PAGE_BITS
    if first == int(where[-1]) >> _PAGE_BITS:
        return ((first, slice(None), offsets),)
    pages = where >> _U64(_PAGE_BITS)
    cuts = [0, *(np.flatnonzero(pages[1:] != pages[:-1]) + 1).tolist(), len(where)]
    return [(int(pages[lo]), slice(lo, hi), offsets[lo:hi]) for lo, hi in zip(cuts, cuts[1:])]


def _page_walk(addr: int, nbytes: int):
    """(page index, in-page offset, position, length) of each page's part of
    [addr, addr+nbytes), without a walk when the range fits in one page."""
    offset = addr & (_PAGE_SIZE - 1)
    if 0 < nbytes <= _PAGE_SIZE - offset:
        return ((addr >> _PAGE_BITS, offset, 0, nbytes),)
    parts, pos = [], 0
    while pos < nbytes:
        offset = (addr + pos) & (_PAGE_SIZE - 1)
        take = min(nbytes - pos, _PAGE_SIZE - offset)
        parts.append(((addr + pos) >> _PAGE_BITS, offset, pos, take))
        pos += take
    return parts


class Memory:
    """Sparse byte-addressable memory, zero-initialized, bounds-checked.

    Every access is checked whole before anything moves, so one that faults
    has no effect.  A fault names the first 8-byte word that does not fit and
    its index: word i of a range of bytes (`read_bytes`, `write_bytes`, which
    serve unit-stride accesses and `.mem*` directives) starts at addr + 8*i,
    word i of an address array (`read_u64`, `write_u64`) at its i-th address.
    An empty range touches nothing and never faults.

    `read_u64` and `write_u64` take a uint64 array of addresses.
    When every address is 8-aligned, whole words move through a uint64 view
    of each page; otherwise each word's bytes move through a byte view.
    Cells are moved in address order, one page's run at a time; an access
    that stays in one page is one run, with no per-cell page cut.  A write
    whose cells strictly rise is in that order already and is not sorted;
    any other write is, and where its words overlap, the later one wins.
    """

    def __init__(self, limit: int):
        self.limit = limit
        self._pages: dict[int, bytearray] = {}

    def check(self, addr: int, nbytes: int) -> None:
        """Raise unless [addr, addr+nbytes) fits, naming the first word that
        does not."""
        if nbytes and (addr < 0 or addr + nbytes > self.limit):
            fits = 0 if addr < 0 else max(0, self.limit - addr) // 8
            raise OutOfBoundsAccess(addr + 8 * fits, fits)

    def _page(self, index: int) -> bytearray:
        page = self._pages.get(index)
        if page is None:
            page = self._pages[index] = bytearray(_PAGE_SIZE)
        return page

    def read_bytes(self, addr: int, nbytes: int) -> bytes:
        self.check(addr, nbytes)
        parts = []  # each page's part, copied once: into the joined bytes
        for index, offset, _, take in _page_walk(addr, nbytes):
            page = self._pages.get(index)
            parts.append(bytes(take) if page is None else memoryview(page)[offset:offset + take])
        return b"".join(parts)

    def write_bytes(self, addr: int, data: bytes) -> None:
        self.check(addr, len(data))
        for index, offset, pos, take in _page_walk(addr, len(data)):
            self._page(index)[offset:offset + take] = data[pos:pos + take]

    def _cells(self, addrs: np.ndarray) -> tuple[np.ndarray, np.dtype]:
        """The cells an access to the 8-byte words at `addrs` moves, once
        every word is known to fit: the words themselves when all are
        8-aligned, else each word's bytes, word by word; and the cell type."""
        # no word fits at or past this address
        bound = _U64(max(0, self.limit - 7))
        if addrs.size and addrs.max() >= bound:
            first = int(np.argmax(addrs >= bound))
            raise OutOfBoundsAccess(int(addrs[first]), first)
        if (addrs & _U64(7)).any():
            return (addrs[:, None] + _WORD_BYTES).reshape(-1), _BYTE
        return addrs, _WORD

    def read_u64(self, addrs: np.ndarray) -> np.ndarray:
        """The little-endian words at `addrs`, as a uint64 array."""
        where, unit = self._cells(addrs)
        where, back = np.unique(where, return_inverse=True)
        data = np.zeros(len(where), dtype=unit)
        for index, run, offsets in _page_runs(where, unit):
            page = self._pages.get(index)
            if page is not None:
                data[run] = np.frombuffer(page, dtype=unit)[offsets]
        return data[back].view(_WORD)

    def write_u64(self, addrs: np.ndarray, values: np.ndarray) -> None:
        """Store the uint64 `values` as little-endian words at `addrs`."""
        where, unit = self._cells(addrs)
        data = np.ascontiguousarray(values, dtype=_WORD).view(unit)
        if not (where[1:] > where[:-1]).all():
            # cells that do not strictly rise are sorted, and the last word
            # written to a cell wins: keep each cell's last writer
            where, last = np.unique(where[::-1], return_index=True)
            data = data[::-1][last]
        for index, run, offsets in _page_runs(where, unit):
            np.frombuffer(self._page(index), dtype=unit)[offsets] = data[run]

    def touched_pages(self) -> dict[int, bytes]:
        """Snapshot of every page ever written (page index -> contents)."""
        return {index: bytes(page) for index, page in self._pages.items()}


@dataclass(eq=False)  # compared by identity, as Memory is; see scheduler.verify_equivalence
class MachineState:
    config: MachineConfig
    xregs: list[int]
    fregs: list[float]
    vregs: np.ndarray  # (32, VLMAX) little-endian uint64 element payloads
    vl: int
    vtype: Vtype
    memory: Memory
    instret: int = 0  # trace records emitted so far
    # instruction -> its `_handler`, one per distinct instruction run
    bindings: dict = field(default_factory=dict, init=False, repr=False)
    # vregs viewed as float64 lanes, taken once: FP instructions work through it
    fp_vregs: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        self.fp_vregs = self.vregs.view(_F64)

    @classmethod
    def create(cls, config: Optional[MachineConfig] = None) -> "MachineState":
        config = config or MachineConfig()
        return cls(config=config, xregs=[0] * 32, fregs=[0.0] * 32,
                   vregs=np.zeros((32, config.vlmax(64)), dtype=_WORD), vl=0,
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
    sew, lmul, why = vtype_fields(bits)
    reserved = (bits >> 8) & 0x7FFFFFFFFFFFFF
    if bits >> 63:
        why = "vill bit set"
    elif reserved:
        why = "reserved bits 8-62 set"
    elif why is None:
        if (sew, lmul) == (64, 1):
            return Vtype(sew_bits=sew, lmul=lmul)
        why = f"unsupported type e{sew}/m{lmul}"
    state.vtype = Vtype(sew_bits=0, lmul=0, vill=True) \
        if sew is None or lmul is None or reserved \
        else Vtype(sew_bits=sew, lmul=lmul, vill=True)
    raise UnsupportedVtype(f"vsetvl rs2 value 0x{bits:x} rejected: {why}")


def _coalesce(addrs: np.ndarray, width: int) -> tuple[tuple[int, int], ...]:
    """Merge per-element (addr, width) accesses into maximal contiguous runs,
    preserving element order."""
    step = _U64(width)
    # a lane starts a run unless it follows on from the lane before; an
    # address below `width` that follows on modulo 2^64 starts one too
    new_run = np.empty(len(addrs), dtype=bool)
    new_run[0] = True
    rest = new_run[1:]
    np.not_equal(addrs[1:], addrs[:-1] + step, out=rest)
    rest |= addrs[1:] < step
    if new_run.all():
        return tuple(zip(addrs.tolist(), repeat(width)))
    starts = np.flatnonzero(new_run)
    ends = np.empty_like(starts)
    ends[:-1], ends[-1] = starts[1:], len(addrs)
    return tuple(zip(addrs[starts].tolist(), ((ends - starts) * width).tolist()))


# element operation (SPEC's last column) -> its numpy expression over vl and
# the sources in SPEC order; integers wrap mod 2^64.  A gather's source is the
# whole register: an index below VLMAX reads it, any other index gives 0.
_OPERATIONS = {
    "add": lambda vl, a, b: a + b,
    "sub": lambda vl, a, b: a - b,
    "mul": lambda vl, a, b: a * b,
    "and": lambda vl, a, b: a & b,
    "sll": lambda vl, a, b: a << b,
    "index": lambda vl: np.arange(vl, dtype=_U64),
    "splat": lambda vl, value: value,
    "macc": lambda vl, a, b, acc: fused_madd(a, b, acc),
    "gather": lambda vl, src, index: np.where(index < len(src), src.take(index, mode="clip"), 0),
}

# a source role's register prefix (None: the immediate) -> (state, vector
# register lanes, vl, its register or immediate) -> the operand
_READERS = {
    "v": lambda state, lanes, vl, reg: lanes[reg, :vl],
    "x": lambda state, lanes, vl, reg: _U64(state.read_xreg(reg)),
    "f": lambda state, lanes, vl, reg: np.float64(state.fregs[reg]),
    None: lambda state, lanes, vl, imm: _U64(imm),
}


def _handler(instr: Instruction) -> Callable[[MachineState], tuple]:
    """The function that applies `instr` to a state and returns the address
    ranges it touched, with its operands resolved once."""
    category, (dest, *sources), _, operation = SPEC[instr.mnemonic]

    if category is Category.CONFIG:
        rd, rs1, rs2 = instr.rd, instr.rs1, instr.rs2
        requested = Vtype(sew_bits=instr.sew, lmul=instr.lmul) if rs2 is None else None
        def configure(state: MachineState):
            # rs1=x0 asks for VLMAX with rd!=x0, and keeps vl with rd=x0
            avl = state.read_xreg(rs1) if rs1 else state.config.vlmax(64) if rd else state.vl
            req = requested or _vsetvl_request(state, state.read_xreg(rs2))  # vsetvl: type in rs2
            state.write_xreg(rd, apply_vsetvli(state, avl, req))
            return ()
        return configure

    load, base_reg, reg = instr.is_load, instr.rs1, instr.vd if instr.is_load else instr.vs3
    if category is Category.MEM_UNIT:
        def unit_stride(state: MachineState):
            vl, base = state.vl, state.read_xreg(base_reg)
            if load:
                state.vregs[reg, :vl] = np.frombuffer(state.memory.read_bytes(base, 8 * vl), _WORD)
            else:
                state.memory.write_bytes(base, state.vregs[reg, :vl].tobytes())
            return ((base, 8 * vl),)
        return unit_stride

    if category is Category.MEM_STRIDED or category is Category.MEM_INDEXED:
        stride_reg, index_reg = instr.rs2, instr.vs2
        def element_wise(state: MachineState):
            vl, base = state.vl, state.read_xreg(base_reg)
            if vl == 0:
                return ((base, 0),)
            if stride_reg is not None:
                # uint64 arithmetic: a negative stride is its two's complement
                offsets = np.arange(vl, dtype=_U64) * _U64(state.read_xreg(stride_reg))
            else:
                offsets = state.vregs[index_reg, :vl]
            addrs = _U64(base) + offsets  # wraps modulo 2^64
            if load:
                state.vregs[reg, :vl] = state.memory.read_u64(addrs)
            else:
                state.memory.write_u64(addrs, state.vregs[reg, :vl])
            return _coalesce(addrs, 8)
        return element_wise

    evaluate = _OPERATIONS[operation]
    if operation == "macc":
        sources.append(dest)  # the accumulator
    readers = [(_READERS[ROLES[role][1]], getattr(instr, ROLES[role][0][0])) for role in sources]
    if operation == "gather":
        readers[0] = (lambda state, lanes, vl, reg: lanes[reg], readers[0][1])  # whole source
    fp, vd = category is Category.ARITH_FP, getattr(instr, ROLES[dest][0][0])
    count = len(readers)  # 0 to 3; the operands are read by direct calls, no list per record
    (read_a, a), (read_b, b), (read_c, c) = readers + [(None, None)] * (3 - count)
    def compute(state: MachineState):
        vl = state.vl
        if vl:
            lanes = state.fp_vregs if fp else state.vregs
            if count == 2:
                result = evaluate(vl, read_a(state, lanes, vl, a), read_b(state, lanes, vl, b))
            elif count == 3:
                result = evaluate(vl, read_a(state, lanes, vl, a), read_b(state, lanes, vl, b),
                                  read_c(state, lanes, vl, c))
            elif count == 1:
                result = evaluate(vl, read_a(state, lanes, vl, a))
            else:
                result = evaluate(vl)
            lanes[vd, :vl] = result
        return ()
    return compute


def step(state: MachineState, item: StreamItem) -> Optional[TraceRecord]:
    """Apply one stream item.  Directives mutate state silently; instructions
    return the trace record captured at execution time.  FP exceptions follow
    the caller's numpy error state."""
    kind = item.kind
    if kind is not _INSTRUCTION:
        if kind is _SET_XREG:
            state.write_xreg(item.target, item.values[0])
        elif kind is _SET_FREG:
            state.fregs[item.target] = item.values[0]
        elif kind is _MEM_F64 or kind is _MEM_U64:
            # a memory image: its words packed at once, then written and
            # checked whole, as a unit-stride store is
            values = item.values
            words = ("<%dd" if kind is _MEM_F64 else "<%dQ") % len(values)
            state.memory.write_bytes(item.target, pack(words, *values))
        return None

    handler = state.bindings.get(item.instr)
    if handler is None:
        handler = state.bindings[item.instr] = _handler(item.instr)
    addresses = handler(state)  # before vl is read: a config op sets it
    # every field in order: seq, pc, phase, scalar_before, instr, vl, sew_bits,
    # addresses, window_id
    record = _new_record((state.instret, item.pc, item.phase, item.scalar_before, item.instr,
                          state.vl, state.vtype.sew_bits, addresses, item.window))
    state.instret += 1
    return record


def run(config: Optional[MachineConfig],
        stream: Union[str, Sequence[StreamItem]]):
    """Execute a whole stream with FP exceptions quiet; returns (final state,
    trace records).  The first error aborts execution and reports the record
    index reached.
    """
    items = parse_vstream(stream) if isinstance(stream, str) else stream
    state = MachineState.create(config)
    records: list[TraceRecord] = []
    with np.errstate(all="ignore"):
        for item in items:
            try:
                record = step(state, item)
            except SdvError as err:
                raise EmulationError(state.instret, err) from err
            if record is not None:
                records.append(record)
    return state, records
