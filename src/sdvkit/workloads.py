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

A generator takes a size and parameters, optional given inputs, then a seed,
and returns ``(items, manifest)``; `_integers` checks the size and the seed,
and `_inputs` the inputs.
`workload_kinds` is the table of kinds: each one's generator, help line and
``gen`` options, built per call so that ``gen`` runs the generator held here.

Every stream is sized from one VLMAX, `MachineConfig().vlmax(64)`.  Buffer
addresses are module constants; `_stage_rule` gives a stage's phase and naive
tile width, `_wide_tables` a wide stage's table addresses.  A manifest's counts
are those the emitter kept while writing the stream: its instructions, each
phase's loop-body windows and each phase's `vsetvli` vl.
"""

from __future__ import annotations

import functools
import numbers
from collections import Counter
from typing import Optional

import numpy as np

from .config import MachineConfig
from .errors import InvalidSeed, InvalidSize
from .vstream import ItemKind, StreamBuilder
from .isa import parse_instruction


# FFT buffer base addresses; all regions are disjoint by spacing.
_IN_RE, _IN_IM = 0x0100_0000, 0x0120_0000
_PING_RE, _PING_IM = 0x0140_0000, 0x0160_0000
_PONG_RE, _PONG_IM = 0x0180_0000, 0x01A0_0000
_OUT_RE, _OUT_IM = 0x01C0_0000, 0x01E0_0000
_W_RE, _W_IM = 0x0200_0000, 0x0220_0000  # per-stage twiddles, one table after another
_SCATTER_IDX = 0x0240_0000  # per-stage even-output byte offsets
_REP_IDX = 0x0300_0000      # per-stage twiddle replication patterns
_IDENT_IDX = 0x0320_0000    # identity byte offsets for the output pass


def _integers(n, seed) -> tuple[int, int]:
    """`n` and `seed` as ints; a size that is not an integer (a bool or a
    float included) is refused, as is a seed that is not one >= 0."""
    for value, error, name in ((n, InvalidSize, "n"), (seed, InvalidSeed, "seed")):
        if isinstance(value, bool) or not isinstance(value, numbers.Integral):
            raise error(f"{name} must be an integer, got {value!r}")
    if seed < 0:
        raise InvalidSeed(f"seed must be >= 0, got {seed}")
    return int(n), int(seed)


def _inputs(n: int, seed: int, *given) -> list[np.ndarray]:
    """`given` as float64, each None drawn in turn from `seed` as n values in
    [-1, 1); an input that is not n values in one dimension is refused."""
    rng = np.random.default_rng(seed)
    arrays = [np.asarray(rng.uniform(-1.0, 1.0, n) if a is None else a, dtype=np.float64)
              for a in given]
    if any(a.shape != (n,) for a in arrays):
        raise InvalidSize("input arrays must have length n")
    return arrays


_FFT_MIN_N, _FFT_MAX_N = 64, 1 << 16
_VARIANTS = ("naive", "wide")  # the first is the default


# Phase code regions: a prologue range and a loop-body range per phase, so
# iteration re-entry produces the characteristic program-counter sawtooth.
def _pro_pc(phase: int) -> int:
    return 0x40_0000 + phase * 0x1000


_VLMAX = MachineConfig().vlmax(64)


class _Emitter(StreamBuilder):
    """A StreamBuilder fed instruction text that numbers windows from 1, writes
    each memory image as one directive and counts what it emits."""

    def __init__(self):
        super().__init__()
        self._parse = functools.cache(parse_instruction)  # each distinct text parsed once
        self.instructions, self.trips, self.vls = 0, Counter(), {}  # the last two by phase

    def mem(self, kind: ItemKind, address: int, values: np.ndarray):
        self.add(kind, address, *values.tolist())  # Python floats or ints, by dtype

    def instr(self, text: str):
        self.instruction(self._parse(text))
        self.instructions += 1

    def loop_body(self, scalar: int):
        """Start one trip of the phase's loop body, `scalar` instructions in."""
        self.pc = _pro_pc(self.phase) + 0x100  # the loop-body range
        self.scalar = scalar
        self.trips[self.phase] += 1


def _stage_rule(span: int) -> tuple[int, int]:
    """The phase of a stage of this span, or of a pass over this many
    elements, and its naive tile width: the natural run length in phase 1,
    then the legacy 8-wide (phase 2) and 64-wide (phase 3) tiles."""
    if span < 8:
        return 1, span
    if span < 64:
        return 2, 8
    return 3, 64


def _wide_tables(q: int, half: int) -> tuple[int, int]:
    """Wide stage q's scatter-index table and twiddle replication slab."""
    return _SCATTER_IDX + 8 * q * half, _REP_IDX + 8 * q * _VLMAX


def _twiddles(n: int):
    """Per-stage twiddle tables w_p = exp(-2*pi*i * p * span / n)."""
    spans = [1 << q for q in range(n.bit_length() - 1)]
    angles = [2.0 * np.pi * np.arange(n // (2 * span)) * span / n for span in spans]
    return [(np.cos(angle), -np.sin(angle)) for angle in angles]


def _vsetvli_window(e: _Emitter, vl: int):
    e.window += 1
    e.add(ItemKind.SET_XREG, 28, vl)
    e.pc = _pro_pc(e.phase)
    e.scalar = 2
    e.instr("vsetvli x29, x28, e64, m1")
    e.vls[e.phase] = vl


def _copy_pass(e: _Emitter, pairs, vl: int):
    """Unit-stride copy of (src, dst, elems) buffer pairs in vl-wide strips."""
    for src, dst, elems in pairs:
        for off in range(0, elems, vl):
            e.window += 1
            e.add(ItemKind.SET_XREG, 10, src + 8 * off)
            e.add(ItemKind.SET_XREG, 11, dst + 8 * off)
            e.loop_body(4)
            e.instr("vle64.v v1, (x10)")
            e.instr("vse64.v v1, (x11)")


def _naive_butterfly_window(e: _Emitter, units, src_re, src_im, dst_re, dst_im,
                            span, m, wre, wim):
    """One unrolled loop body: 1-2 butterfly strips on disjoint register banks,
    loads grouped first, stores grouped last."""
    e.window += 1
    for k, (p, j0) in enumerate(units):
        x = 2 + 8 * k
        a_off = 8 * (span * p + j0)
        b_off = 8 * (span * (p + m) + j0)
        even_off = 8 * (2 * span * p + j0)
        e.add(ItemKind.SET_XREG, x + 0, src_re + a_off)
        e.add(ItemKind.SET_XREG, x + 1, src_im + a_off)
        e.add(ItemKind.SET_XREG, x + 2, src_re + b_off)
        e.add(ItemKind.SET_XREG, x + 3, src_im + b_off)
        e.add(ItemKind.SET_XREG, x + 4, dst_re + even_off)
        e.add(ItemKind.SET_XREG, x + 5, dst_im + even_off)
        e.add(ItemKind.SET_XREG, x + 6, dst_re + even_off + 8 * span)
        e.add(ItemKind.SET_XREG, x + 7, dst_im + even_off + 8 * span)
        e.add(ItemKind.SET_FREG, 1 + 2 * k, float(wre[p]))
        e.add(ItemKind.SET_FREG, 2 + 2 * k, float(wim[p]))
    e.loop_body(8 * len(units))
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


def _wide_stage(e: _Emitter, q, span, n, wvl, src_re, src_im, dst_re, dst_im, w_off):
    """Generic full-length kernel: contiguous loads, in-register twiddle
    replication, scattered stores through the stage's index table."""
    half = n // 2
    scatter, rep = _wide_tables(q, half)
    _vsetvli_window(e, wvl)
    e.add(ItemKind.SET_XREG, 3, rep)
    e.instr("vle64.v v3, (x3)")
    for off in range(0, half, wvl):
        e.window += 1
        e.add(ItemKind.SET_XREG, 4, src_re + 8 * off)
        e.add(ItemKind.SET_XREG, 5, src_im + 8 * off)
        e.add(ItemKind.SET_XREG, 6, src_re + 8 * (half + off))
        e.add(ItemKind.SET_XREG, 7, src_im + 8 * (half + off))
        e.add(ItemKind.SET_XREG, 8, _W_RE + 8 * (w_off + off // span))
        e.add(ItemKind.SET_XREG, 9, _W_IM + 8 * (w_off + off // span))
        e.add(ItemKind.SET_XREG, 10, scatter + 8 * off)
        e.add(ItemKind.SET_XREG, 11, dst_re)
        e.add(ItemKind.SET_XREG, 12, dst_im)
        e.add(ItemKind.SET_XREG, 13, 8 * span)
        e.loop_body(12)
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


def gen_fft(n: int, variant: str = _VARIANTS[0], re: Optional[np.ndarray] = None,
            im: Optional[np.ndarray] = None, seed: int = 0):
    """Generate one FFT VSTREAM of the input re + i*im; returns (items, manifest).

    The manifest records buffer addresses, the engineered per-phase vector
    lengths, and per-phase loop-body (window) counts, including the phase-2
    trip count that the program-counter sawtooth reproduces.
    """
    n, seed = _integers(n, seed)
    if not _FFT_MIN_N <= n <= _FFT_MAX_N or n & (n - 1):
        raise InvalidSize(f"n must be a power of two in [{_FFT_MIN_N}, {_FFT_MAX_N}], got {n}")
    if variant not in _VARIANTS:
        raise InvalidSize(f"unknown variant {variant!r}")
    t = n.bit_length() - 1
    re, im = _inputs(n, seed, re, im)
    twiddles = _twiddles(n)
    wvl = min(_VLMAX, n // 2)

    e = _Emitter()
    e.mem(ItemKind.INIT_MEM_F64, _IN_RE, re)
    e.mem(ItemKind.INIT_MEM_F64, _IN_IM, im)
    w_offsets = []
    off = 0
    for wre, wim in twiddles:
        w_offsets.append(off)
        e.mem(ItemKind.INIT_MEM_F64, _W_RE + 8 * off, wre)
        e.mem(ItemKind.INIT_MEM_F64, _W_IM + 8 * off, wim)
        off += len(wre)
    if variant == "wide":
        half = n // 2
        j = np.arange(half)
        for q in range(t):
            span = 1 << q
            scatter, rep = _wide_tables(q, half)
            e.mem(ItemKind.INIT_MEM_U64, scatter, 8 * (j + span * (j // span)))
            e.mem(ItemKind.INIT_MEM_U64, rep, np.arange(wvl) // span)
        e.mem(ItemKind.INIT_MEM_U64, _IDENT_IDX, 8 * np.arange(n))

    # phase 0: copy input into the ping buffer
    vl0 = wvl if variant == "wide" else min(_VLMAX, n)
    _vsetvli_window(e, vl0)
    _copy_pass(e, [(_IN_RE, _PING_RE, n), (_IN_IM, _PING_IM, n)], vl0)

    # butterfly stages, ping-pong between working buffers
    buffers = [(_PING_RE, _PING_IM), (_PONG_RE, _PONG_IM)]
    cur = 0
    for q in range(t):
        span = 1 << q
        m = n // (2 * span)
        e.phase, vl = _stage_rule(span)
        src_re, src_im = buffers[cur]
        dst_re, dst_im = buffers[1 - cur]
        if variant == "naive":
            _vsetvli_window(e, vl)
            units = [(p, j0) for p in range(m) for j0 in range(0, span, vl)]
            for i in range(0, len(units), 2):
                _naive_butterfly_window(e, units[i:i + 2], src_re, src_im, dst_re, dst_im,
                                        span, m, *twiddles[q])
        else:
            _wide_stage(e, q, span, n, wvl, src_re, src_im, dst_re, dst_im, w_offsets[q])
        cur = 1 - cur

    e.phase, vl = _stage_rule(n)  # n >= 64: phase 3 always ends with the output pass
    src_re, src_im = buffers[cur]
    if variant == "naive":
        _vsetvli_window(e, vl)
        _copy_pass(e, [(src_re, _OUT_RE, n), (src_im, _OUT_IM, n)], vl)
    else:
        _vsetvli_window(e, wvl)
        for off in range(0, n, wvl):
            e.window += 1
            e.add(ItemKind.SET_XREG, 10, _IDENT_IDX + 8 * off)
            e.add(ItemKind.SET_XREG, 11, src_re + 8 * off)
            e.add(ItemKind.SET_XREG, 12, src_im + 8 * off)
            e.add(ItemKind.SET_XREG, 13, _OUT_RE)
            e.add(ItemKind.SET_XREG, 14, _OUT_IM)
            e.loop_body(6)
            e.instr("vle64.v v1, (x10)")
            e.instr("vle64.v v2, (x11)")
            e.instr("vle64.v v3, (x12)")
            e.instr("vsuxei64.v v2, (x13), v1")
            e.instr("vsuxei64.v v3, (x14), v1")

    manifest = {
        "kind": "fft", "n": n, "variant": variant, "seed": seed,
        "in_re": _IN_RE, "in_im": _IN_IM,
        "out_re": _OUT_RE, "out_im": _OUT_IM,
        "w_re": _W_RE, "w_im": _W_IM,
        "stages": t,
        **{f"vl_phase{phase}": e.vls[phase] for phase in (0, 2, 3)},
        **{f"phase{phase}_loop_trips": e.trips[phase] for phase in (1, 2, 3)},
        "instructions": e.instructions,
    }
    return e.items, manifest


_AXPY_X, _AXPY_Y = 0x0100_0000, 0x0120_0000
_AXPY_MAX_N = (_AXPY_Y - _AXPY_X) // 8  # x must end where y begins


def gen_axpy(n: int, a: float, x: Optional[np.ndarray] = None,
             y: Optional[np.ndarray] = None, seed: int = 0):
    """y <- a*x + y in maximal-length strips with a short tail strip; returns
    (items, manifest)."""
    n, seed = _integers(n, seed)
    if not 1 <= n <= _AXPY_MAX_N:
        raise InvalidSize(f"n must be in [1, {_AXPY_MAX_N}], got {n}")
    x, y = _inputs(n, seed, x, y)

    e = _Emitter()
    e.mem(ItemKind.INIT_MEM_F64, _AXPY_X, x)
    e.mem(ItemKind.INIT_MEM_F64, _AXPY_Y, y)
    e.add(ItemKind.SET_FREG, 1, float(a))
    strips = [min(_VLMAX, n - offset) for offset in range(0, n, _VLMAX)]
    for offset in range(0, n, _VLMAX):
        e.window += 1
        e.add(ItemKind.SET_XREG, 1, n - offset)  # the elements that remain
        e.add(ItemKind.SET_XREG, 10, _AXPY_X + 8 * offset)
        e.add(ItemKind.SET_XREG, 11, _AXPY_Y + 8 * offset)
        e.loop_body(5)
        e.instr("vsetvli x2, x1, e64, m1")
        e.instr("vle64.v v1, (x10)")
        e.instr("vle64.v v2, (x11)")
        e.instr("vfmv.v.f v3, f1")
        e.instr("vfmacc.vv v2, v3, v1")
        e.instr("vse64.v v2, (x11)")
    manifest = {
        "kind": "axpy", "n": n, "a": a, "seed": seed,
        "x": _AXPY_X, "y": _AXPY_Y, "strips": strips,
        "instructions": e.instructions,
    }
    return e.items, manifest


def workload_kinds() -> dict[str, tuple]:
    """Each kind -> (its generator, its help line, its options): each option's
    name is a keyword of the generator, mapped to the `add_argument` keywords
    of ``--<name>``."""
    seed = {"seed": dict(type=int, default=0, help="input data seed (>= 0)")}
    return {
        "fft": (gen_fft, "radix-2 FFT workload", {
            "n": dict(type=int, required=True,
                      help=f"transform size (power of two, {_FFT_MIN_N}..{_FFT_MAX_N})"),
            "variant": dict(choices=_VARIANTS, default=_VARIANTS[0],
                            help="vectorization variant (default: %(default)s)"),
            **seed}),
        "axpy": (gen_axpy, "strip-mined y = a*x + y", {
            "n": dict(type=int, required=True, help=f"vector length (1..{_AXPY_MAX_N})"),
            "a": dict(type=float, default=2.0, help="scale factor"),
            **seed}),
    }


def oracle_dft(re: np.ndarray, im: np.ndarray):
    """Brute-force O(N^2) DFT straight from the definition, 64 rows at a time
    to bound memory; independent of the generated instruction streams."""
    re = np.asarray(re, dtype=np.float64)
    im = np.asarray(im, dtype=np.float64)
    n = len(re)
    x = re + 1j * im
    out = np.empty(n, dtype=np.complex128)
    j = np.arange(n)
    for k in np.split(j, range(64, n, 64)):
        out[k] = np.exp(-2j * np.pi * np.outer(k, j) / n) @ x
    return out.real.copy(), out.imag.copy()


def oracle_axpy(a: float, x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Plain scalar-semantics reference: separate multiply and add."""
    return np.asarray([a * float(xv) + float(yv) for xv, yv in zip(x, y)])


def read_f64_array(memory, base: int, count: int) -> np.ndarray:
    """Fetch a double array from emulated memory (helper for result checks)."""
    return np.frombuffer(memory.read_bytes(base, 8 * count), dtype="<f8").copy()
