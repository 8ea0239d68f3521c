"""Machine configuration and the strict key = value config-file loader.

Both file kinds share one syntax (``key = value`` lines, ``#`` comments,
ignored ``[section]`` headers) and take only the fields of their dataclass;
unset keys keep their defaults.  A machine file (``--config``) takes the
`MachineConfig` keys ``vlen_bits`` (a power of two in [128, 65536], the
RVV 1.0 limit on VLEN) and ``memory_bytes`` (in [1, 2^64], so every byte has
a u64 address).  A timing file (``--timing``) takes the `TimingParams` keys:
the four ``*_elems_per_cycle`` rates, ``mem_latency_cycles``,
``arith_latency_cycles``, ``scalar_cycles_per_instr``, ``vector_queue_depth``
and ``chaining``.  An unknown or repeated key, a value that is not of its
field's type (integer; boolean for ``chaining``) or outside its field's
domain raises an `SdvError`.

Every input file a command reads, config or not, is read by `read_input` as
UTF-8 text; a file that does not decode raises an `SdvError` naming it.
"""

from __future__ import annotations

import typing
from dataclasses import dataclass
from pathlib import Path

from .errors import SdvError
from .timing import TimingParams


@dataclass
class Vtype:
    """Active element width / register grouping; vill marks an unusable state."""
    sew_bits: int = 64
    lmul: int = 1
    vill: bool = False


@dataclass
class MachineConfig:
    vlen_bits: int = 16384
    memory_bytes: int = 2 ** 28

    def __post_init__(self):
        if not 128 <= self.vlen_bits <= 1 << 16 or self.vlen_bits & (self.vlen_bits - 1):
            raise ValueError("vlen_bits must be a power of two in [128, 65536]")
        if not 1 <= self.memory_bytes <= 1 << 64:
            raise ValueError("memory_bytes must be in [1, 2**64]")

    def vlmax(self, sew_bits: int = 64, lmul: int = 1) -> int:
        return (self.vlen_bits // sew_bits) * lmul


def read_input(path: str | Path) -> str:
    """The text of input file `path`, decoded as UTF-8."""
    try:
        return Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as err:
        raise SdvError(f"{path}: not UTF-8 text (byte 0x{err.object[err.start]:02x} "
                       f"at offset {err.start})") from None


def _parse_kv(text: str) -> dict[str, str]:
    values: dict[str, str] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line or line.startswith("[") and line.endswith("]"):
            continue
        if "=" not in line:
            raise SdvError(f"config line {lineno}: expected key = value, got {raw!r}")
        key, value = (part.strip() for part in line.split("=", 1))
        if key in values:
            raise SdvError(f"config line {lineno}: key {key!r} set twice")
        values[key] = value
    return values


_BOOLEANS = {"true": True, "1": True, "yes": True, "on": True,
             "false": False, "0": False, "no": False, "off": False}


def _coerce(key: str, value: str, kind: type):
    try:
        return _BOOLEANS[value.lower()] if kind is bool else int(value, 0)
    except (KeyError, ValueError):
        expected = "boolean" if kind is bool else "integer"
        raise SdvError(f"config key {key}: expected {expected}, got {value!r}") from None


def _load(path: str | Path | None, cls: type, kind: str):
    """Build `cls` from the file's keys, each coerced by its field's type;
    no file gives the defaults."""
    if not path:
        return cls()
    types = typing.get_type_hints(cls)
    kwargs = {}
    for key, value in _parse_kv(read_input(path)).items():
        if key not in types:
            raise SdvError(f"unknown {kind} parameter {key!r}")
        kwargs[key] = _coerce(key, value, types[key])
    try:
        return cls(**kwargs)
    except ValueError as err:
        raise SdvError(f"{path}: {err}") from None


def load_timing_params(path: str | Path | None) -> TimingParams:
    """Load timing parameters from a key = value file."""
    return _load(path, TimingParams, "timing")


def load_machine_config(path: str | Path | None) -> MachineConfig:
    """Load a machine configuration from a key = value file."""
    return _load(path, MachineConfig, "machine")
