import numpy as np
import pytest

from sdvkit.emulator import run
from sdvkit.workloads import gen_fft

REFERENCE_N = 1024
REFERENCE_SEED = 1


@pytest.fixture(scope="session")
def reference_runs():
    """The documented reference configuration: n=1024, seed=1, both variants.
    Emulated once per session; several test modules read from it."""
    runs = {}
    for variant in ("naive", "wide"):
        items, manifest = gen_fft(n=REFERENCE_N, variant=variant, seed=REFERENCE_SEED)
        state, records = run(None, items)
        runs[variant] = {
            "manifest": manifest,
            "state": state,
            "records": records,
        }
    return runs


def random_window_stream(rng: np.random.Generator, ops_low: int = 6,
                         ops_high: int = 20) -> str:
    """A random but well-formed single-window stream: random vector ops over
    registers v1..v7 and four disjoint 16-element buffers, with v8 reserved
    as a valid pre-scaled index vector for gather/scatter ops."""
    bufs = [0x10000, 0x20000, 0x30000, 0x40000]
    vl = 12
    lines = [".phase 0"]
    for buf in bufs:
        values = " ".join(repr(float(v)) for v in rng.uniform(-4.0, 4.0, 16))
        lines.append(f".memf64 0x{buf:x} {values}")
    for i, buf in enumerate(bufs):
        lines.append(f".xreg x{10 + i} 0x{buf:x}")
    lines.append(f".xreg x20 8")       # unit stride in bytes for strided ops
    lines.append(f".xreg x1 {vl}")
    lines.append("vsetvli x2, x1, e64, m1")
    lines.append("vid.v v8")
    lines.append("vsll.vi v8, v8, 3")  # element indices -> byte offsets
    lines.append(".window 1")
    for _ in range(int(rng.integers(ops_low, ops_high))):
        kind = rng.integers(0, 8)
        d = int(rng.integers(1, 8))
        s1 = int(rng.integers(1, 9))
        s2 = int(rng.integers(1, 9))
        base = 10 + int(rng.integers(0, 4))
        if kind == 0:
            lines.append(f"vle64.v v{d}, (x{base})")
        elif kind == 1:
            lines.append(f"vse64.v v{s1}, (x{base})")
        elif kind == 2:
            lines.append(f"vlse64.v v{d}, (x{base}), x20")
        elif kind == 3:
            lines.append(f"vluxei64.v v{d}, (x{base}), v8")
        elif kind == 4:
            lines.append(f"vsuxei64.v v{s1}, (x{base}), v8")
        elif kind == 5:
            lines.append(f"vfadd.vv v{d}, v{s1}, v{s2}")
        elif kind == 6:
            lines.append(f"vfmul.vv v{d}, v{s1}, v{s2}")
        else:
            lines.append(f"vfmacc.vv v{d}, v{s1}, v{s2}")
    return "\n".join(lines) + "\n"
