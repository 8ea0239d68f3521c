"""Command-line entry point wiring the toolkit into a three-step workflow:
generate (or port) a vector instruction stream, emulate it into a trace, then
analyze/visualize/reschedule with the modeled timing.

Streams and traces are ordinary files so every step can be re-run and
inspected on its own.  Each output file gets a sidecar ``<output>.manifest``
recording exactly how it was produced; re-running a manifest's command line
reproduces the output byte for byte.  A manifest lists ``key = value`` lines:
the tool, the command, every argument in the order the parser defines it (a
flag only when set, ``true``; an absent ``--timing`` or ``--config`` by the
label of what runs instead, ``<defaults>`` or ``<none>``), then what the run
found, such as record counts.  When an output path names no file, or a
command's outputs and manifest share a path with each other or with its
inputs, it exits 2 and writes nothing.

Exit codes: 0 success, 1 domain error (bad input data, failed equivalence),
2 usage or I/O error.

Python's cyclic garbage collector is paused for the whole of a `main` call,
argument parsing included, and switched back on afterwards only if it was on
before, on every way out.  What a command builds (records, stream items,
address-range tuples) holds no reference cycles and is freed by reference
counting, so collections during a command would only rescan it.  The one
cyclic garbage of a call is the fixed set of about 431 objects argparse's
parser leaves, whatever the input size; it is collected by the caller's first
collection after the call.  If a command starts building cycles that grow
with its input, ``tests/test_cli.py::test_no_command_leaves_more_cyclic_garbage_on_a_larger_input``
fails.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import errno
import gc
import itertools
import os
import sys
from pathlib import Path

from . import __version__
from .analysis import compare, metrics_to_csv, metrics_to_text, phase_metrics
from .config import MachineConfig, load_machine_config, load_timing_params, read_input
from .emulator import run
from .errors import SdvError
from .prv import emit_prv, to_prv
from .scheduler import schedule_stream
from .timing import TimingParams, emit_timeline, emit_timeline_svg, simulate
from .tracefile import read_trace, write_trace
from .vstream import parse_vstream, write_vstream
from .workloads import workload_kinds


def _write_file(path: str, text: str) -> None:
    """Write-then-rename: never leaves a partial output file behind.  The text
    goes first to a file created anew beside the output, under the first of
    ``<output>.tmp``, ``<output>.1.tmp``, ... that does not exist, so no file
    but the output is ever replaced."""
    target = Path(path)
    try:
        for k in itertools.count():
            tmp = target.with_name(f"{target.name}.{k}.tmp" if k else f"{target.name}.tmp")
            with contextlib.suppress(FileExistsError):
                handle = open(tmp, "x", encoding="utf-8")
                break
        try:
            with handle:
                handle.write(text)
            os.replace(tmp, target)
        except BaseException:
            with contextlib.suppress(OSError):
                tmp.unlink()
            raise
    except OSError as err:
        err.filename, err.filename2 = path, None  # name the output, not the temp file
        raise


class _Absent(str):
    """An input file not given: false, so nothing is read; manifests name it by its label."""

    def __bool__(self):
        return False


def _write_outputs(args, texts: list[tuple[str, str]], said: str, **results) -> int:
    """Write each (path, text) and ``<args.output>.manifest``, whose entries
    end with `results` (a result takes the place of an argument it restates),
    then print `said`; or exit 2, writing nothing, if a path names no file, is
    another's or an input's (``args.reads``), is a directory or has no
    directory to go in.
    The old manifest goes first, so a write that fails part way leaves none
    that describes another run.  Without ``-o``, only the report is printed."""
    if args.output is None:
        sys.stdout.write(texts[0][1])
        return 0
    paths = [path for path, _ in texts] + [f"{args.output}.manifest"]
    taken = {Path(p).resolve(): "an input" for p in map(vars(args).get, args.reads) if p}
    for path in paths:
        if not Path(path).name:
            print(f"error: the output path {path!r} names no file", file=sys.stderr)
            return 2
        if other := taken.get(where := Path(path).resolve()):
            print(f"error: an output and {other} share the path {path}", file=sys.stderr)
            return 2
        taken[where] = "another output"
        parent = Path(path).parent
        if code := (errno.EISDIR if os.path.isdir(path) else 0 if parent.is_dir()
                    else errno.ENOTDIR if parent.exists() else errno.ENOENT):
            raise OSError(code, os.strerror(code), path)
    entries = {"tool": f"sdvkit {__version__}", "command": args.command}
    skip = (*entries, *results, "func", "reads")
    for key, value in vars(args).items():
        if key not in skip and value is not None and value is not False:
            entries[key] = "true" if value is True else value
    entries.update(results)
    manifest = "".join(f"{key} = {value}\n" for key, value in entries.items())
    Path(paths[-1]).unlink(missing_ok=True)
    for path, text in [*texts, (paths[-1], manifest)]:
        _write_file(path, text)
    print(said)
    return 0


def _trace(path: str) -> list:
    return read_trace(read_input(path))


def _timeline(trace, timing):
    """`trace`'s modeled timeline, or None when no timing file is given."""
    return simulate(trace, load_timing_params(timing))[0] if timing else None


def _cmd_gen(args) -> int:
    generate, _, options = workload_kinds()[args.kind]
    items, manifest = generate(**{name: getattr(args, name) for name in options})
    return _write_outputs(args, [(args.output, write_vstream(items))],
                          f"wrote {args.output} ({manifest['instructions']} instructions)",
                          **manifest)


def _cmd_emulate(args) -> int:
    _, records = run(load_machine_config(args.config), parse_vstream(read_input(args.input)))
    return _write_outputs(args, [(args.output, write_trace(records))],
                          f"wrote {args.output} ({len(records)} records)", records=len(records))


def _cmd_analyze(args) -> int:
    trace = _trace(args.input)
    metrics = phase_metrics(trace, _timeline(trace, args.timing))
    text = metrics_to_csv(metrics) if args.csv else metrics_to_text(metrics)
    return _write_outputs(args, [(args.output, text)], f"wrote {args.output}")


def _cmd_to_prv(args) -> int:
    trace = _trace(args.input)
    doc = to_prv(trace, _timeline(trace, args.timing))
    prv_text, pcf_text = emit_prv(doc)
    prv = Path(args.output)
    pcf_path = str(prv.with_suffix(".pcf") if prv.name else prv)  # no name: refused below
    return _write_outputs(args, [(args.output, prv_text), (pcf_path, pcf_text)],
                          f"wrote {args.output} and {pcf_path}",
                          pcf=pcf_path, events=doc.record_count)


def _cmd_simulate(args) -> int:
    entries, counters = simulate(_trace(args.input), load_timing_params(args.timing))
    texts = [(args.output, emit_timeline(entries))]
    if args.svg is not None:
        texts.append((args.svg, emit_timeline_svg(entries)))
    return _write_outputs(args, texts, f"total_cycles={counters.total_cycles} "
                          f"vector_instrs={counters.vector_instr_count} "
                          f"scalar_instrs={counters.scalar_instr_count} "
                          f"mem_busy={counters.mem_busy_cycles} "
                          f"arith_busy={counters.arith_busy_cycles} "
                          f"overlap={counters.overlap_cycles} "
                          f"vpu_idle={counters.vpu_idle_cycles}")


def _cmd_schedule(args) -> int:
    items = parse_vstream(read_input(args.input))
    scheduled, before, after = schedule_stream(
        items, load_timing_params(args.timing), load_machine_config(args.config))
    return _write_outputs(args, [(args.output, write_vstream(scheduled))],
                          f"equivalence: ok; cycles {before} -> {after} "
                          f"(delta {after - before})",
                          cycles_before=before, cycles_after=after)


def _cmd_compare(args) -> int:
    params = load_timing_params(args.timing)
    trace_a, trace_b = _trace(args.input_a), _trace(args.input_b)
    report = compare(phase_metrics(trace_a, simulate(trace_a, params)[0]),
                     phase_metrics(trace_b, simulate(trace_b, params)[0]))
    text = report.to_csv() if args.csv else report.to_text()
    return _write_outputs(args, [(args.output, text)], f"wrote {args.output}")


def _keys_help(what: str, cls) -> str:
    return f"{what} file (keys: {', '.join(f.name for f in dataclasses.fields(cls))})"


def _command(sub, name: str, func, help: str, inputs: dict[str, str], output: str,
             *shared: str, timing: str = "<defaults>", required: bool = True):
    """Add subcommand `name`: its `inputs` (name -> help), the `shared`
    options ("timing", "config", "csv") it takes, then ``-o``, in the order
    manifests list them.  An absent ``--timing`` means `timing`."""
    p = sub.add_parser(name, help=help)
    p.set_defaults(func=func, reads=[*inputs, *(s for s in shared if s in ("timing", "config"))])
    for dest, what in inputs.items():
        p.add_argument(dest, help=what)
    if "timing" in shared:
        p.add_argument("--timing", default=_Absent(timing),
                       help=_keys_help("timing params", TimingParams))
    if "config" in shared:
        p.add_argument("--config", default=_Absent("<defaults>"),
                       help=_keys_help("machine config", MachineConfig))
    if "csv" in shared:
        p.add_argument("--csv", action="store_true", help="CSV report (default: plain text)")
    p.add_argument("-o", "--output", required=required, help=output)
    return p


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sdvkit", description="long-vector RISC-V stream emulation and analysis toolkit")
    parser.add_argument("--version", action="version", version=f"sdvkit {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)
    gen = sub.add_parser("gen", help="generate a workload stream").add_subparsers(
        dest="kind", required=True)
    for kind, (_, what, options) in workload_kinds().items():
        kind_p = _command(gen, kind, _cmd_gen, what, {}, "output .vs path")
        for name, keywords in options.items():
            kind_p.add_argument(f"--{name}", **keywords)
    _command(sub, "emulate", _cmd_emulate, "run a stream, write the trace",
             {"input": "input .vs stream"}, "output .trace path", "config")
    _command(sub, "analyze", _cmd_analyze, "per-phase metrics report",
             {"input": "input .trace file"}, "write the report to a file",
             "timing", "csv", timing="<none>", required=False)
    _command(sub, "to-prv", _cmd_to_prv, "export Paraver .prv/.pcf",
             {"input": "input .trace file"}, "output .prv path", "timing", timing="<none>")
    sim = _command(sub, "simulate", _cmd_simulate, "cycle model: counters + timeline",
                   {"input": "input .trace file"}, "timeline CSV path", "timing")
    sim.add_argument("--svg", help="also write an SVG timeline")
    _command(sub, "schedule", _cmd_schedule, "reschedule windows to overlap pipelines",
             {"input": "input .vs stream"}, "output .vs path", "timing", "config")
    _command(sub, "compare", _cmd_compare, "A/B report between two traces",
             {"input_a": "baseline .trace", "input_b": "candidate .trace"},
             "write the report to a file", "timing", "csv", required=False)
    return parser


def main(argv=None) -> int:
    collecting = gc.isenabled()
    gc.disable()  # see the module docstring
    try:
        args = build_parser().parse_args(argv)
        try:
            return args.func(args)
        except OSError as err:
            reason = (err.strerror or "I/O error").lower()
            print(f"error: {reason}: {err.filename}", file=sys.stderr)
            return 2
        except SdvError as err:
            print(f"error: {err}", file=sys.stderr)
            return 1
    finally:
        if collecting:
            gc.enable()


if __name__ == "__main__":
    sys.exit(main())
