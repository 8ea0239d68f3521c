"""Locate the sdvkit sources of the checkout the benchmark runs in.

The benchmark measures the package under ``<checkout>/src``, never an
installed copy, and generates its load from one thread: the BLAS thread
count is capped before numpy is first imported.
"""

from __future__ import annotations

import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SOURCE = ROOT / "src"

THREAD_CAPS = {name: "1" for name in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
                                      "MKL_NUM_THREADS")}


class MissingSource(RuntimeError):
    pass


def use_checkout_source() -> None:
    """Put the checkout's ``src`` first on the import path; raise
    MissingSource when the checkout holds no sdvkit package."""
    if not (SOURCE / "sdvkit" / "cli.py").is_file():
        raise MissingSource(f"no sdvkit sources under {SOURCE}")
    os.environ.update(THREAD_CAPS)  # read by numpy's BLAS when first imported
    if str(SOURCE) not in sys.path:
        sys.path.insert(0, str(SOURCE))
    import sdvkit
    if Path(sdvkit.__file__).resolve().parent != SOURCE / "sdvkit":
        raise MissingSource(f"sdvkit was imported from {sdvkit.__file__}, "
                            f"not from {SOURCE}")
