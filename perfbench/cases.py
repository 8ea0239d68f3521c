"""Workloads of the sdvkit benchmark and the checks made on each pass.

A pass drives the user-facing CLI in-process, one ``sdvkit.cli.main([...])``
call per command, in the order a user would type them.  Every output a pass
writes is checked: its sha256 and the numeric manifest fields must match the
recorded values in ``golden.json`` where those do not depend on the seed, and
the first successful pass of the run (the reference) everywhere else.  The
reference itself is verified once per run, after the timed passes, against
``workloads.oracle_dft`` or ``scheduler.verify_equivalence``.

README.md says why each workload exists and which layers it stresses.
"""

from __future__ import annotations

import contextlib
import gc
import hashlib
import io
import json
import re
import traceback
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter
from typing import Callable, Optional

import numpy as np

from sdvkit import cli
from sdvkit.config import load_timing_params
from sdvkit.emulator import run
from sdvkit.isa import Category
from sdvkit.scheduler import verify_equivalence
from sdvkit.timing import simulate
from sdvkit.workloads import oracle_dft, read_f64_array

GOLDEN = Path(__file__).with_name("golden.json")
TIMING = "timing.cfg"
# The timing inputs are pinned here rather than taken from TimingParams'
# defaults, so that a change of defaults cannot change the benchmark's inputs.
TIMING_PARAMS = """\
unit_stride_elems_per_cycle = 8
indexed_elems_per_cycle = 1
strided_elems_per_cycle = 1
arith_elems_per_cycle = 8
mem_latency_cycles = 30
arith_latency_cycles = 6
scalar_cycles_per_instr = 1
vector_queue_depth = 16
chaining = false
"""
FFT_TOLERANCE = 1e-9


def _gen(variant: str, n: int, seed: int, out: Path) -> list[str]:
    return ["gen", "fft", "--variant", variant, "--n", str(n),
            "--seed", str(seed), "-o", str(out)]


def _model_commands(d: Path, n: int, seed: int) -> list[list[str]]:
    timing = str(d / TIMING)
    return [_gen("naive", n, seed, d / "stream.vs"),
            ["emulate", str(d / "stream.vs"), "-o", str(d / "run.trace")],
            ["simulate", str(d / "run.trace"), "--timing", timing,
             "-o", str(d / "timeline.csv")],
            ["analyze", str(d / "run.trace"), "--timing", timing, "--csv",
             "-o", str(d / "report.csv")],
            ["to-prv", str(d / "run.trace"), "--timing", timing, "-o", str(d / "run.prv")]]


def _trace_commands(d: Path, n: int, seed: int) -> list[list[str]]:
    return [_gen("wide", n, seed, d / "stream.vs"),
            ["emulate", str(d / "stream.vs"), "-o", str(d / "run.trace")],
            ["analyze", str(d / "run.trace"), "--csv", "-o", str(d / "report.csv")],
            ["to-prv", str(d / "run.trace"), "-o", str(d / "run.prv")]]


def _schedule_setup(d: Path, n: int, seed: int) -> list[list[str]]:
    return [_gen("naive", n, seed, d / "input.vs")]


def _schedule_commands(d: Path, n: int, seed: int) -> list[list[str]]:
    return [["schedule", str(d / "input.vs"), "--timing", str(d / TIMING),
             "-o", str(d / "scheduled.vs")]]


def _no_setup(d: Path, n: int, seed: int) -> list[list[str]]:
    return []


def sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def manifest_numbers(path: Path) -> dict[str, int]:
    """The integer fields of a ``key = value`` manifest.  The others name
    paths and the tool version, which differ between checkouts."""
    numbers = {}
    for line in path.read_text().splitlines():
        key, _, value = line.partition(" = ")
        try:
            numbers[key] = int(value, 0)
        except ValueError:
            continue
    return numbers


@dataclass(frozen=True)
class Workload:
    name: str
    n: int
    setup: Callable[[Path, int, int], list[list[str]]]     # (dir, n, seed) -> argvs
    commands: Callable[[Path, int, int], list[list[str]]]  # one timed pass
    outputs: dict[str, tuple[str, ...]]  # command -> files it writes, manifests aside
    stream: str                          # the output stream the reference keeps
    verify: Callable[["Runner"], tuple[list[str], dict]]   # see verify_reference
    cycles_key: Optional[str]  # check key of the modeled cycles; None: simulate them


_COUNTER = re.compile(r"(\w+)=(-?\d+)")
# `sdvkit simulate` prints these counters; the values are CounterSet fields.
SIMULATE_COUNTERS = {"total_cycles": "total_cycles", "mem_busy": "mem_busy_cycles",
                     "arith_busy": "arith_busy_cycles", "overlap": "overlap_cycles",
                     "vpu_idle": "vpu_idle_cycles"}


@dataclass
class Pass:
    command_s: list[float]  # wall seconds of each command run, in order
    problems: list[str]

    @property
    def wall_s(self) -> float:
        return sum(self.command_s)


class CommandFailed(RuntimeError):
    pass


class Runner:
    """Runs one workload's passes in a work directory and checks each pass."""

    def __init__(self, workload: Workload, seed: int, workdir: Path):
        self.workload = workload
        self.seed = seed
        self.workdir = workdir
        golden = json.loads(GOLDEN.read_text()).get(workload.name, {})
        self.golden = golden.get("values", {}) if golden.get("n") == workload.n else {}
        self.golden_cycles = golden.get("modeled_cycles") if self.golden else None
        self.commands = workload.commands(workdir, workload.n, seed)
        self.reference: dict = {}
        self.reference_stream: Optional[str] = None
        self.attempted = 0
        self.failed = 0

    def prepare(self) -> None:
        """Untimed input preparation: the timing file and any setup commands."""
        self.workdir.mkdir(parents=True, exist_ok=True)
        (self.workdir / TIMING).write_text(TIMING_PARAMS)
        for argv in self.workload.setup(self.workdir, self.workload.n, self.seed):
            code, _, err = self._cli(argv, None)
            if code != 0:
                raise RuntimeError(f"setup command {argv} exited {code}: {err}")

    @staticmethod
    def _cli(argv: list[str], tracer):
        out, err = io.StringIO(), io.StringIO()
        span = tracer.span(f"cli.{argv[0]}") if tracer else contextlib.nullcontext()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err), span:
            try:
                code = cli.main(argv)
            except SystemExit as stop:  # argparse rejected the arguments
                code = stop.code
        return code, out.getvalue(), err.getvalue()

    def run_pass(self, tracer=None, between: Optional[Callable[[], None]] = None) -> Pass:
        """One timed pass of the workload's CLI sequence, then its checks.
        `between`, when given, is called untimed before the first command,
        between commands and after the last."""
        gc.collect()
        command_s: list[float] = []
        try:
            stdout = {}
            for argv in self.commands:
                if between is not None:
                    between()
                start = perf_counter()
                try:
                    code, stdout[argv[0]], err = self._cli(argv, tracer)
                finally:
                    command_s.append(perf_counter() - start)
                if code != 0:
                    raise CommandFailed(f"{argv[0]} exited {code}: {err.strip()}")
            if between is not None:
                between()
            values = self._values(stdout)
            problems = self._check(values)
        except CommandFailed as err:
            problems = [str(err)]
        except Exception:  # a crash fails this pass; the run goes on
            problems = [traceback.format_exc()]
        self.attempted += 1
        if problems:
            self.failed += 1
        elif not self.reference:
            self.reference = values
            self.reference_stream = (self.workdir / self.workload.stream).read_text()
        return Pass(command_s, problems)

    def _values(self, stdout: dict[str, str]) -> dict:
        """Everything a pass is checked on, flattened to ``kind/name[/field]``."""
        values: dict = {}
        for files in self.workload.outputs.values():
            for name in files:
                values[f"files/{name}"] = sha256(self.workdir / name)
        for argv in self.commands:
            out = Path(argv[argv.index("-o") + 1])
            manifest = out.with_name(out.name + ".manifest")
            for key, number in manifest_numbers(manifest).items():
                values[f"manifests/{manifest.name}/{key}"] = number
        for command, text in stdout.items():
            for key, number in _COUNTER.findall(text):
                values[f"stdout/{command}/{key}"] = int(number)
        return values

    def _check(self, values: dict) -> list[str]:
        problems = []
        expected = {**self.reference, **self.golden}
        for key, want in expected.items():
            got = values.get(key)
            if got != want:
                problems.append(f"{key}: got {got!r}, recorded {want!r}")
        seed_key = "manifests/stream.vs.manifest/seed"
        if seed_key in values and values[seed_key] != self.seed:
            problems.append(f"{seed_key}: got {values[seed_key]}, asked for {self.seed}")
        before = values.get("manifests/scheduled.vs.manifest/cycles_before")
        after = values.get("manifests/scheduled.vs.manifest/cycles_after")
        if before is not None and after is not None and after > before:
            problems.append(f"schedule made the stream slower: {before} -> {after}")
        return problems

    def verify_reference(self) -> tuple[list[str], dict]:
        """Untimed, once per run: check the reference pass against an
        independent oracle.  Returns (problems, facts) where the facts are
        the modeled cycles, simulated counters and input properties."""
        if not self.reference:
            return ["no pass succeeded"], {}
        problems, facts = self.workload.verify(self)
        records = facts.pop("records")
        if self.workload.cycles_key is not None:
            facts["modeled_cycles"] = self.reference[self.workload.cycles_key]
            facts["counters"] = {name: self.reference[f"stdout/simulate/{key}"]
                                 for key, name in SIMULATE_COUNTERS.items()
                                 if f"stdout/simulate/{key}" in self.reference}
        else:
            params = load_timing_params(self.workdir / TIMING)
            counters = simulate(records, params)[1]
            facts["modeled_cycles"] = counters.total_cycles
            facts["counters"] = {name: getattr(counters, name)
                                 for name in SIMULATE_COUNTERS.values()}
        if self.golden_cycles is not None and facts["modeled_cycles"] != self.golden_cycles:
            problems.append(f"modeled cycles {facts['modeled_cycles']}, "
                            f"recorded {self.golden_cycles}")
        return problems, facts


def _verify_fft(runner: Runner) -> tuple[list[str], dict]:
    """The reference stream, emulated, computes the DFT of the seed's input."""
    n = runner.workload.n
    state, records = run(None, runner.reference_stream)
    rng = np.random.default_rng(runner.seed)
    exp_re, exp_im = oracle_dft(rng.uniform(-1.0, 1.0, n), rng.uniform(-1.0, 1.0, n))
    out = {part: read_f64_array(
        state.memory, runner.reference[f"manifests/stream.vs.manifest/out_{part}"], n)
        for part in ("re", "im")}
    scale = max(np.max(np.abs(exp_re)), np.max(np.abs(exp_im)))
    error = max(np.max(np.abs(out["re"] - exp_re)),
                np.max(np.abs(out["im"] - exp_im))) / scale
    problems = [] if error <= FFT_TOLERANCE else \
        [f"FFT relative error {error:.3g} exceeds {FFT_TOLERANCE:g}"]
    return problems, {"records": records, "fft_relative_error": float(error),
                      "properties": stream_properties(runner.reference_stream, records)}


def _verify_schedule(runner: Runner) -> tuple[list[str], dict]:
    """The rescheduled stream leaves the same architectural state as its input."""
    original = (runner.workdir / "input.vs").read_text()
    _, records = run(None, original)
    problems = [] if verify_equivalence(None, original, runner.reference_stream) \
        else ["scheduled stream is not equivalent to its input"]
    return problems, {"records": records,
                      "properties": stream_properties(original, records)}


def stream_properties(text: str, records) -> dict:
    """Input properties that the layers' costs depend on."""
    lines = [line.split("#", 1)[0].strip() for line in text.splitlines()]
    lines = [line for line in lines if line]
    count = len(records)
    return {
        "records": count,
        "distinct_texts": len({r.mnemonic_text for r in records}),
        "mean_vl": sum(r.vl for r in records) / count,
        "indexed_share": sum(r.category == Category.MEM_INDEXED for r in records) / count,
        "stream_bytes": len(text.encode()),
        "directive_share": sum(line.startswith(".") for line in lines) / len(lines),
    }


_TRACE_OUTPUTS = {"gen": ("stream.vs",), "emulate": ("run.trace",),
                  "analyze": ("report.csv",), "to-prv": ("run.prv", "run.pcf")}
_MODEL_OUTPUTS = {**_TRACE_OUTPUTS, "simulate": ("timeline.csv",)}


WORKLOADS = {w.name: w for w in (
    # Many short records (mean VL about 4, 41 distinct texts): the per-record
    # isa, timing, tracefile and prv layers, with three whole-trace simulates.
    Workload("fft-naive-model", 256, _no_setup, _model_commands, _MODEL_OUTPUTS,
             "stream.vs", _verify_fft, "stdout/simulate/total_cycles"),
    # Few long records (VL 256) and a directive-heavy 1.5 MB stream: the
    # emulator and vstream's directive path.  Never simulates: the control
    # workload for a timing change.
    Workload("fft-wide-trace", 8192, _no_setup, _trace_commands, _TRACE_OUTPUTS,
             "stream.vs", _verify_fft, None),
    # The shared layers used differently: simulate on ~140 small windows,
    # six emulations of one stream, and a stream written back out.
    Workload("fft-naive-schedule", 128, _schedule_setup, _schedule_commands,
             {"schedule": ("scheduled.vs",)}, "scheduled.vs", _verify_schedule,
             "manifests/scheduled.vs.manifest/cycles_after"),
)}
