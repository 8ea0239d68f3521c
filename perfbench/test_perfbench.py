"""Self-test of the benchmark's own code, on every workload at n=64.

    python3 -m pytest perfbench
"""

from __future__ import annotations

import dataclasses
import json
import shutil
import subprocess
import sys

import pytest

from checkout import ROOT, use_checkout_source

use_checkout_source()

import cases  # noqa: E402  (needs the checkout's sources on the path)
import reference  # noqa: E402
import run  # noqa: E402
import sdvkit  # noqa: E402
import sdvkit.cli  # noqa: E402

SMALL = 64
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
# Declared, but no workload calls it: none issues a strided or indexed load.
NEVER_CALLED = {"emulator.Memory.read_u64.calls"}


def small(name: str) -> cases.Workload:
    return dataclasses.replace(cases.WORKLOADS[name], n=SMALL)


@pytest.fixture(scope="module")
def traced(tmp_path_factory):
    """One traced run of every workload: an untraced pass, then a traced one."""
    return {name: run.bench(small(name), 1, 0, True, tmp_path_factory.mktemp(name))
            for name in cases.WORKLOADS}


@pytest.mark.parametrize("name", list(cases.WORKLOADS))
def test_untraced_run_is_clean(name, tmp_path):
    result, details, _ = run.bench(small(name), 1, 0, False, tmp_path)
    assert (result["correct"], result["attempted"], result["failed"]) == (True, 1, 0)
    assert details["error_rate"] == 0
    assert set(result["metrics"]) == {m["name"] for m in SPEC["end_to_end"]}
    assert all(m["value"] > 0 for m in result["metrics"].values())
    references = details["reference_call_s"]["pipeline"]
    assert len(references) == details["pipeline_s"]["samples"]
    commands = len(cases.WORKLOADS[name].commands(tmp_path, SMALL, 1))
    assert all(len(per_command) == commands and all(len(calls) >= 2 for calls in per_command)
               for per_command in references)
    assert len(details["reference_call_s"]["setup"]) == run.SETUP_SAMPLES


def test_times_are_rescaled_to_the_reference_speed():
    call = reference.REFERENCE_CALL_S
    assert run.at_reference_speed([1.0, 3.0], [call, 2 * call]) == pytest.approx([1.0, 1.5])
    assert reference.call_seconds(0.0) > 0


@pytest.mark.parametrize("name", list(cases.WORKLOADS))
def test_spans_nest_and_self_times_are_not_negative(traced, name):
    result, _, tracer = traced[name]
    assert (result["correct"], result["attempted"], result["failed"]) == (True, 2, 0)
    assert tracer.spans
    for span_name, start, end, parent in tracer.spans:
        assert start <= end
        if parent < 0:
            assert span_name.startswith("cli.")
        else:
            _, parent_start, parent_end, _ = tracer.spans[parent]
            assert parent_start <= start and end <= parent_end
    for entry in tracer.aggregate().values():
        # a sum of float differences: allow rounding, nothing more
        assert entry.get("self_s", 0.0) >= -1e-9


def test_every_per_layer_metric_is_measured_somewhere(traced):
    declared = {m["name"] for m in SPEC["per_layer"]}
    for result, _, _ in traced.values():
        assert set(result["metrics"]) == declared
    measured = {name for result, _, _ in traced.values()
                for name, metric in result["metrics"].items() if metric["value"]}
    assert declared - measured == NEVER_CALLED


def test_tracer_puts_every_original_back(traced):
    assert sdvkit.cli.run is sdvkit.emulator.run is sdvkit.run
    assert not hasattr(sdvkit.cli.simulate, "__wrapped__")
    assert not hasattr(sdvkit.emulator.Memory.write_u64, "__wrapped__")


def test_corrupted_output_counts_as_a_failed_pass(tmp_path, monkeypatch):
    write_file = sdvkit.cli._write_file
    prv_writes = []

    def corrupt_second_prv(path, text):
        if path.endswith(".prv"):
            prv_writes.append(path)
            if len(prv_writes) == 2:
                text += "1:1:1:1:1:0:60000001:1\n"
        write_file(path, text)

    monkeypatch.setattr(sdvkit.cli, "_write_file", corrupt_second_prv)
    result, details, _ = run.bench(small("fft-naive-model"), 1, 0, True, tmp_path)
    assert (result["correct"], result["attempted"], result["failed"]) == (False, 2, 1)
    assert details["error_rate"] == 0.5


def test_exits_nonzero_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "fft-naive-model",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert done.returncode != 0
    assert done.stdout == ""
