"""The benchmark's per-layer metrics name sdvkit functions that its tracer
wraps by module attribute.  A metric such as ``isa.parse_instruction.calls``
silently reads 0 once its function is inlined, renamed or wrapped in
something that is not a plain function (``functools.lru_cache`` is not), so
every such name must resolve to a plain function or method defined in that
layer's module."""

import importlib
import importlib.util
import inspect
import json
from pathlib import Path

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
