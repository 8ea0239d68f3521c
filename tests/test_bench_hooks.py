"""The benchmark's per-layer metrics name sdvkit functions that its tracer
wraps by module attribute.  A metric such as ``isa.parse_instruction.calls``
silently reads 0 once its function is inlined, renamed or wrapped in
something that is not a plain function (``functools.lru_cache`` is not), so
every such name must resolve to a plain function or method defined in that
layer's module.  It reads 0 as well when a caller keeps a reference to the
original instead of looking the hook up at call time, so the emulator's
counted hooks are also patched and counted per instruction."""

import importlib
import importlib.util
import inspect
import json
from collections import Counter
from pathlib import Path

import pytest

from sdvkit import emulator
from sdvkit.isa import Category
from sdvkit.vstream import ItemKind
from sdvkit.workloads import gen_axpy, gen_fft

BENCHMARK = Path(__file__).resolve().parents[1] / "BENCHMARK.json"


def _hooked_names() -> list[list[str]]:
    """``<layer>.<name...>`` of every per-layer metric ``<layer>.<name...>.<stat>``
    whose layer is an sdvkit module.  The ``cli`` metrics are named after
    subcommands, not functions."""
    names = []
    for metric in json.loads(BENCHMARK.read_text())["per_layer"]:
        layer, *name, _stat = metric["name"].split(".")
        if name and layer != "cli" and importlib.util.find_spec(f"sdvkit.{layer}"):
            names.append([layer, *name])
    return names


def test_per_layer_metrics_name_plain_functions():
    names = _hooked_names()
    assert len(names) >= 40
    for layer, *path in names:
        owner = importlib.import_module(f"sdvkit.{layer}")
        for attr in path[:-1]:
            owner = getattr(owner, attr)
        hook = vars(owner).get(path[-1])
        where = ".".join([layer, *path])
        assert inspect.isfunction(hook), f"{where} is {hook!r}"
        assert hook.__module__ == f"sdvkit.{layer}", f"{where} is defined elsewhere"


_MEMORY_HOOKS = ("read_bytes", "write_bytes", "read_u64", "write_u64")


def _hook_counts(items) -> Counter:
    """Calls of each counted emulator hook in one `run` of ``items``, taken
    after a warm run so that anything bound once per distinct instruction is
    already bound."""
    emulator.run(None, items)
    calls = Counter()
    patches = [(emulator, "fused_madd"), (emulator, "apply_vsetvli"),
               *((emulator.Memory, name) for name in _MEMORY_HOOKS)]
    with pytest.MonkeyPatch.context() as mp:
        for owner, name in patches:
            original = getattr(owner, name)

            def counted(*args, _original=original, _name=name, **kwargs):
                calls[_name] += 1
                return _original(*args, **kwargs)
            mp.setattr(owner, name, counted)
        emulator.run(None, items)
    return calls


@pytest.mark.parametrize("stream", ["naive", "wide", "axpy"])
def test_emulator_hooks_are_called_once_per_instruction(stream):
    items = gen_axpy(300, 2.0)[0] if stream == "axpy" \
        else gen_fft(n=64, variant=stream, seed=1)[0]
    _, records = emulator.run(None, items)
    want = Counter(write_bytes=sum(item.kind in (ItemKind.INIT_MEM_F64, ItemKind.INIT_MEM_U64)
                                   for item in items))
    for record in records:
        instr = record.instr
        if instr.category is Category.CONFIG:
            want["apply_vsetvli"] += 1
        elif instr.category is Category.MEM_UNIT:
            want["read_bytes" if instr.is_load else "write_bytes"] += 1
        elif instr.category in (Category.MEM_STRIDED, Category.MEM_INDEXED) and record.vl:
            want["read_u64" if instr.is_load else "write_u64"] += 1
        elif instr.mnemonic == "vfmacc.vv" and record.vl:
            want["fused_madd"] += 1
    assert want["fused_madd"] and want["apply_vsetvli"]
    assert _hook_counts(items) == want
