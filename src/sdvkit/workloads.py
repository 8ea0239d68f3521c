"""Workload generators and their independent numerical oracles.

Two vectorizations of the same radix-2 ping-pong FFT are generated as
VSTREAMs, instrumented with four phases:

  phase 0  input copy into the working buffer
  phase 1  first butterfly stage group (spans 1, 2, 4)
  phase 2  middle stage group (spans 8..32)
  phase 3  final stage group (spans >= 64) plus the output pass

Every butterfly stage reads its two inputs from the contiguous halves of the
source buffer and writes results interleaved by the stage span, so:

* The NAIVE variant vectorizes along the interleave runs with unit-stride
  accesses only.  Run length limits the vector length: natural (= span) in
  phase 1, and the historical fixed tile widths 8 (phase 2) and 64 (phase 3)
  carried over from a port of 8-wide SIMD code.  Loads are grouped at the
  start and stores at the end of each unrolled-by-two loop body, with the two
  iterations on disjoint register banks.
* The WIDE variant runs one generic kernel for every stage at the machine's
  full vector length: unit-stride loads of the contiguous halves, twiddles
  replicated in-register from a compact slab, and scattered stores through
  precomputed index tables.  Raising the vector length is bought with indexed
  memory traffic.

Both variants execute identical element arithmetic, so they agree bitwise
with each other and match the brute-force DFT oracle to rounding error.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import InvalidSize
from .vstream import ItemKind, StreamItem
from .isa import Instruction, parse_instruction


@dataclass(frozen=True)
class FftLayout:
    """Base addresses of every buffer; all regions are disjoint by spacing."""
    in_re: int = 0x0100_0000
    in_im: int = 0x0120_0000
    ping_re: int = 0x0140_0000
    ping_im: int = 0x0160_0000
    pong_re: int = 0x0180_0000
    pong_im: int = 0x01A0_0000
    out_re: int = 0x01C0_0000
    out_im: int = 0x01E0_0000
    w_re: int = 0x0200_0000
    w_im: int = 0x0220_0000
    scatter_idx: int = 0x0240_0000   # per-stage even-output byte offsets
    rep_idx: int = 0x0300_0000       # per-stage twiddle replication patterns
    ident_idx: int = 0x0320_0000     # identity byte offsets for the output pass


@dataclass
class FftPlan:
    n: int
    variant: str = "naive"
    seed: int = 0
    input_re: Optional[np.ndarray] = None
    input_im: Optional[np.ndarray] = None

    def __post_init__(self):
        if self.n < 64 or self.n > 1 << 16 or self.n & (self.n - 1):
            raise InvalidSize(f"n must be a power of two in [64, 65536], got {self.n}")
        if self.variant not in ("naive", "wide"):
            raise InvalidSize(f"unknown variant {self.variant!r}")


# Phase code regions: a prologue range and a loop-body range per phase, so
# iteration re-entry produces the characteristic program-counter sawtooth.
def _pro_pc(phase: int) -> int:
    return 0x40_0000 + phase * 0x1000


def _body_pc(phase: int) -> int:
    return _pro_pc(phase) + 0x100


_MEM_CHUNK = 8  # values per .memf64/.memu64 item


class _Emitter:
    """Builds a consistent StreamItem list: pc/phase/window state tracking."""

    def __init__(self):
        self.items: list[StreamItem] = []
        self.pc = 0
        self.phase = 0
        self.window = 0
        self._scalar = 0
        self._instrs: dict[str, Instruction] = {}  # each distinct text parsed once

    def phase_mark(self, phase: int):
        self.phase = phase
        self.items.append(StreamItem(ItemKind.PHASE_MARK, self.pc, phase,
                                     self.window, ivalue=phase))

    def window_mark(self):
        self.window += 1
        self.items.append(StreamItem(ItemKind.WINDOW_MARK, self.pc, self.phase,
                                     self.window, ivalue=self.window))

    def set_pc(self, pc: int):
        self.pc = pc

    def scalar(self, count: int):
        self._scalar = count

    def xreg(self, reg: int, value: int):
        self.items.append(StreamItem(ItemKind.SET_XREG, self.pc, self.phase,
                                     self.window, reg=reg, ivalue=value))

    def freg(self, reg: int, value: float):
        self.items.append(StreamItem(ItemKind.SET_FREG, self.pc, self.phase,
                                     self.window, reg=reg, fvalue=float(value)))

    def memf64(self, address: int, values):
        for i in range(0, len(values), _MEM_CHUNK):
            part = tuple(float(v) for v in values[i:i + _MEM_CHUNK])
            self.items.append(StreamItem(ItemKind.INIT_MEM_F64, self.pc, self.phase,
                                         self.window, address=address + 8 * i,
                                         fvalues=part))

    def memu64(self, address: int, values):
        for i in range(0, len(values), _MEM_CHUNK):
            part = tuple(int(v) for v in values[i:i + _MEM_CHUNK])
            self.items.append(StreamItem(ItemKind.INIT_MEM_U64, self.pc, self.phase,
                                         self.window, address=address + 8 * i,
                                         uvalues=part))

    def instr(self, text: str):
        instr = self._instrs.get(text)
        if instr is None:
            instr = self._instrs[text] = parse_instruction(text)
        self.items.append(StreamItem(ItemKind.INSTRUCTION, self.pc, self.phase,
                                     self.window, scalar_before=self._scalar,
                                     instr=instr))
        self._scalar = 0
        self.pc += 4


def _stage_phase(span: int) -> int:
    if span < 8:
        return 1
    if span < 64:
        return 2
    return 3


def _naive_stage_vl(span: int, phase: int) -> int:
    if phase == 1:
        return span       # natural run length
    if phase == 2:
        return 8          # legacy 8-wide tiles
    return 64             # legacy 64-wide tiles


def _twiddles(n: int):
    """Per-stage twiddle tables w_p = exp(-2*pi*i * p * span / n)."""
    tables = []
    t = n.bit_length() - 1
    for q in range(t):
        span = 1 << q
        m = n // (2 * span)
        p = np.arange(m)
        angle = 2.0 * np.pi * p * span / n
        tables.append((np.cos(angle), -np.sin(angle)))
    return tables


def _vsetvli_window(e: _Emitter, vl: int, phase: int):
    e.window_mark()
    e.xreg(28, vl)
    e.set_pc(_pro_pc(phase))
    e.scalar(2)
    e.instr("vsetvli x29, x28, e64, m1")


def _copy_pass(e: _Emitter, pairs, vl: int, phase: int, scalar: int = 4):
    """Unit-stride copy of (src, dst, elems) buffer pairs in vl-wide strips."""
    for src, dst, elems in pairs:
        for off in range(0, elems, vl):
            e.window_mark()
            e.xreg(10, src + 8 * off)
            e.xreg(11, dst + 8 * off)
            e.set_pc(_body_pc(phase))
            e.scalar(scalar)
            e.instr("vle64.v v1, (x10)")
            e.instr("vse64.v v1, (x11)")


def _naive_butterfly_window(e: _Emitter, units, src_re, src_im, dst_re, dst_im,
                            span, m, wre, wim, phase):
    """One unrolled loop body: 1-2 butterfly strips on disjoint register banks,
    loads grouped first, stores grouped last."""
    e.window_mark()
    for k, (p, j0) in enumerate(units):
        x = 2 + 8 * k
        a_off = 8 * (span * p + j0)
        b_off = 8 * (span * (p + m) + j0)
        even_off = 8 * (2 * span * p + j0)
        e.xreg(x + 0, src_re + a_off)
        e.xreg(x + 1, src_im + a_off)
        e.xreg(x + 2, src_re + b_off)
        e.xreg(x + 3, src_im + b_off)
        e.xreg(x + 4, dst_re + even_off)
        e.xreg(x + 5, dst_im + even_off)
        e.xreg(x + 6, dst_re + even_off + 8 * span)
        e.xreg(x + 7, dst_im + even_off + 8 * span)
        e.freg(1 + 2 * k, wre[p])
        e.freg(2 + 2 * k, wim[p])
    e.set_pc(_body_pc(phase))
    e.scalar(8 * len(units))
    banks = [(1 + 13 * k, 2 + 8 * k, 1 + 2 * k) for k in range(len(units))]
    for v, x, _ in banks:
        e.instr(f"vle64.v v{v + 0}, (x{x + 0})")
        e.instr(f"vle64.v v{v + 1}, (x{x + 1})")
        e.instr(f"vle64.v v{v + 2}, (x{x + 2})")
        e.instr(f"vle64.v v{v + 3}, (x{x + 3})")
    for v, _, f in banks:
        e.instr(f"vfmv.v.f v{v + 4}, f{f}")
        e.instr(f"vfmv.v.f v{v + 5}, f{f + 1}")
    for v, _, _ in banks:
        e.instr(f"vfadd.vv v{v + 6}, v{v + 0}, v{v + 2}")
        e.instr(f"vfadd.vv v{v + 7}, v{v + 1}, v{v + 3}")
        e.instr(f"vfsub.vv v{v + 8}, v{v + 0}, v{v + 2}")
        e.instr(f"vfsub.vv v{v + 9}, v{v + 1}, v{v + 3}")
        e.instr(f"vfmul.vv v{v + 10}, v{v + 8}, v{v + 4}")
        e.instr(f"vfmul.vv v{v + 11}, v{v + 9}, v{v + 5}")
        e.instr(f"vfsub.vv v{v + 10}, v{v + 10}, v{v + 11}")
        e.instr(f"vfmul.vv v{v + 12}, v{v + 8}, v{v + 5}")
        e.instr(f"vfmacc.vv v{v + 12}, v{v + 9}, v{v + 4}")
    for v, x, _ in banks:
        e.instr(f"vse64.v v{v + 6}, (x{x + 4})")
        e.instr(f"vse64.v v{v + 7}, (x{x + 5})")
        e.instr(f"vse64.v v{v + 10}, (x{x + 6})")
        e.instr(f"vse64.v v{v + 12}, (x{x + 7})")


def _wide_stage(e: _Emitter, q, span, m, n, wvl, layout, src_re, src_im,
                dst_re, dst_im, w_off, phase):
    """Generic full-length kernel: contiguous loads, in-register twiddle
    replication, scattered stores through the stage's index table."""
    _vsetvli_window(e, wvl, phase)
    e.xreg(3, layout.rep_idx + q * 256 * 8)
    e.instr("vle64.v v3, (x3)")
    half = n // 2
    for off in range(0, half, wvl):
        e.window_mark()
        e.xreg(4, src_re + 8 * off)
        e.xreg(5, src_im + 8 * off)
        e.xreg(6, src_re + 8 * (half + off))
        e.xreg(7, src_im + 8 * (half + off))
        e.xreg(8, layout.w_re + 8 * (w_off + off // span))
        e.xreg(9, layout.w_im + 8 * (w_off + off // span))
        e.xreg(10, layout.scatter_idx + 8 * (q * half + off))
        e.xreg(11, dst_re)
        e.xreg(12, dst_im)
        e.xreg(13, 8 * span)
        e.set_pc(_body_pc(phase))
        e.scalar(12)
        e.instr("vle64.v v1, (x10)")        # even-output byte offsets
        e.instr("vadd.vx v2, v1, x13")      # odd outputs sit one span later
        e.instr("vle64.v v4, (x4)")
        e.instr("vle64.v v5, (x5)")
        e.instr("vle64.v v6, (x6)")
        e.instr("vle64.v v7, (x7)")
        e.instr("vle64.v v8, (x8)")
        e.instr("vle64.v v9, (x9)")
        e.instr("vrgather.vv v10, v8, v3")
        e.instr("vrgather.vv v11, v9, v3")
        e.instr("vfadd.vv v12, v4, v6")
        e.instr("vfadd.vv v13, v5, v7")
        e.instr("vfsub.vv v14, v4, v6")
        e.instr("vfsub.vv v15, v5, v7")
        e.instr("vfmul.vv v16, v14, v10")
        e.instr("vfmul.vv v17, v15, v11")
        e.instr("vfsub.vv v16, v16, v17")
        e.instr("vfmul.vv v18, v14, v11")
        e.instr("vfmacc.vv v18, v15, v10")
        e.instr("vsuxei64.v v12, (x11), v1")
        e.instr("vsuxei64.v v13, (x12), v1")
        e.instr("vsuxei64.v v16, (x11), v2")
        e.instr("vsuxei64.v v18, (x12), v2")


def gen_fft(plan: FftPlan):
    """Generate one FFT VSTREAM; returns (items, manifest).

    The manifest records buffer addresses, the engineered per-phase vector
    lengths, and per-phase loop-body (window) counts, including the phase-2
    trip count that the program-counter sawtooth reproduces.
    """
    n = plan.n
    t = n.bit_length() - 1
    layout = FftLayout()
    rng = np.random.default_rng(plan.seed)
    re = plan.input_re if plan.input_re is not None else rng.uniform(-1.0, 1.0, n)
    im = plan.input_im if plan.input_im is not None else rng.uniform(-1.0, 1.0, n)
    re = np.asarray(re, dtype=np.float64)
    im = np.asarray(im, dtype=np.float64)
    if len(re) != n or len(im) != n:
        raise InvalidSize("input arrays must have length n")
    twiddles = _twiddles(n)
    wvl = min(256, n // 2)

    e = _Emitter()
    e.phase_mark(0)
    e.memf64(layout.in_re, re)
    e.memf64(layout.in_im, im)
    w_offsets = []
    off = 0
    for wre, wim in twiddles:
        w_offsets.append(off)
        e.memf64(layout.w_re + 8 * off, wre)
        e.memf64(layout.w_im + 8 * off, wim)
        off += len(wre)
    if plan.variant == "wide":
        half = n // 2
        for q in range(t):
            span = 1 << q
            j = np.arange(half)
            even = 8 * (j + span * (j // span))
            e.memu64(layout.scatter_idx + 8 * q * half, even)
            e.memu64(layout.rep_idx + 8 * q * 256, np.arange(wvl) // span)
        e.memu64(layout.ident_idx, 8 * np.arange(n))

    # phase 0: copy input into the ping buffer
    vl0 = wvl if plan.variant == "wide" else min(256, n)
    _vsetvli_window(e, vl0, 0)
    _copy_pass(e, [(layout.in_re, layout.ping_re, n), (layout.in_im, layout.ping_im, n)],
               vl0, 0)

    # butterfly stages, ping-pong between working buffers
    buffers = [(layout.ping_re, layout.ping_im), (layout.pong_re, layout.pong_im)]
    cur = 0
    window_counts = {0: 2 * n // vl0, 1: 0, 2: 0, 3: 0}
    for q in range(t):
        span = 1 << q
        m = n // (2 * span)
        phase = _stage_phase(span)
        if phase != e.phase:
            e.phase_mark(phase)
        src_re, src_im = buffers[cur]
        dst_re, dst_im = buffers[1 - cur]
        if plan.variant == "naive":
            vl = _naive_stage_vl(span, phase)
            wre, wim = twiddles[q]
            _vsetvli_window(e, vl, phase)
            units = [(p, j0) for p in range(m) for j0 in range(0, span, vl)]
            for i in range(0, len(units), 2):
                pair = units[i:i + 2]
                _naive_butterfly_window(e, pair, src_re, src_im, dst_re, dst_im,
                                        span, m, wre, wim, phase)
                window_counts[phase] += 1
        else:
            _wide_stage(e, q, span, m, n, wvl, layout, src_re, src_im,
                        dst_re, dst_im, w_offsets[q], phase)
            window_counts[phase] += n // 2 // wvl
        cur = 1 - cur

    # phase 3 always ends with the output pass
    if e.phase != 3:
        e.phase_mark(3)
    src_re, src_im = buffers[cur]
    if plan.variant == "naive":
        _vsetvli_window(e, 64, 3)
        _copy_pass(e, [(src_re, layout.out_re, n), (src_im, layout.out_im, n)], 64, 3)
        window_counts[3] += 2 * n // 64
    else:
        _vsetvli_window(e, wvl, 3)
        for off in range(0, n, wvl):
            e.window_mark()
            e.xreg(10, layout.ident_idx + 8 * off)
            e.xreg(11, src_re + 8 * off)
            e.xreg(12, src_im + 8 * off)
            e.xreg(13, layout.out_re)
            e.xreg(14, layout.out_im)
            e.set_pc(_body_pc(3))
            e.scalar(6)
            e.instr("vle64.v v1, (x10)")
            e.instr("vle64.v v2, (x11)")
            e.instr("vle64.v v3, (x12)")
            e.instr("vsuxei64.v v2, (x13), v1")
            e.instr("vsuxei64.v v3, (x14), v1")
            window_counts[3] += 1

    manifest = {
        "kind": "fft",
        "n": n,
        "variant": plan.variant,
        "seed": plan.seed,
        "in_re": layout.in_re, "in_im": layout.in_im,
        "out_re": layout.out_re, "out_im": layout.out_im,
        "w_re": layout.w_re, "w_im": layout.w_im,
        "stages": t,
        "vl_phase0": vl0,
        "vl_phase2": 8 if plan.variant == "naive" else wvl,
        "vl_phase3": 64 if plan.variant == "naive" else wvl,
        "phase1_loop_trips": window_counts[1],
        "phase2_loop_trips": window_counts[2],
        "phase3_loop_trips": window_counts[3],
        "instructions": sum(1 for item in e.items if item.kind == ItemKind.INSTRUCTION),
    }
    return e.items, manifest


def gen_axpy(n: int, a: float, x: Optional[np.ndarray] = None,
             y: Optional[np.ndarray] = None, seed: int = 0):
    """y <- a*x + y in maximal-length strips with a short tail strip; returns
    (items, manifest)."""
    if n < 1:
        raise InvalidSize("n must be >= 1")
    rng = np.random.default_rng(seed)
    x = np.asarray(x if x is not None else rng.uniform(-1.0, 1.0, n), dtype=np.float64)
    y = np.asarray(y if y is not None else rng.uniform(-1.0, 1.0, n), dtype=np.float64)
    if len(x) != n or len(y) != n:
        raise InvalidSize("input arrays must have length n")
    x_base, y_base = 0x0100_0000, 0x0120_0000

    e = _Emitter()
    e.phase_mark(0)
    e.memf64(x_base, x)
    e.memf64(y_base, y)
    e.freg(1, a)
    remaining, offset = n, 0
    strips = []
    while remaining:
        vl = min(256, remaining)
        strips.append(vl)
        e.window_mark()
        e.xreg(1, remaining)
        e.xreg(10, x_base + 8 * offset)
        e.xreg(11, y_base + 8 * offset)
        e.set_pc(_body_pc(0))
        e.scalar(5)
        e.instr("vsetvli x2, x1, e64, m1")
        e.instr("vle64.v v1, (x10)")
        e.instr("vle64.v v2, (x11)")
        e.instr("vfmv.v.f v3, f1")
        e.instr("vfmacc.vv v2, v3, v1")
        e.instr("vse64.v v2, (x11)")
        remaining -= vl
        offset += vl
    manifest = {
        "kind": "axpy", "n": n, "a": a, "seed": seed,
        "x": x_base, "y": y_base, "strips": strips,
        "instructions": sum(1 for item in e.items if item.kind == ItemKind.INSTRUCTION),
    }
    return e.items, manifest


def oracle_dft(re: np.ndarray, im: np.ndarray, block: int = 64):
    """Brute-force O(N^2) DFT straight from the definition, row-blocked to
    bound memory; independent of the generated instruction streams."""
    re = np.asarray(re, dtype=np.float64)
    im = np.asarray(im, dtype=np.float64)
    n = len(re)
    x = re + 1j * im
    out = np.empty(n, dtype=np.complex128)
    j = np.arange(n)
    for k0 in range(0, n, block):
        k = np.arange(k0, min(k0 + block, n))
        w = np.exp(-2j * np.pi * np.outer(k, j) / n)
        out[k0:k0 + len(k)] = w @ x
    return out.real.copy(), out.imag.copy()


def oracle_axpy(a: float, x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Plain scalar-semantics reference: separate multiply and add."""
    return np.asarray([a * float(xv) + float(yv) for xv, yv in zip(x, y)])


def read_f64_array(memory, base: int, count: int) -> np.ndarray:
    """Fetch a double array from emulated memory (helper for result checks)."""
    return np.frombuffer(memory.read_bytes(base, 8 * count), dtype="<f8").copy()
