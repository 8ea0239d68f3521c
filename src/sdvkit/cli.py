"""Command-line entry point wiring the toolkit into a three-step workflow:
generate (or port) a vector instruction stream, emulate it into a trace, then
analyze/visualize/reschedule with the modeled timing.

Streams and traces are ordinary files so every step can be re-run and
inspected on its own.  Each output file gets a sidecar ``<output>.manifest``
recording exactly how it was produced; re-running a manifest's command line
reproduces the output byte for byte.

Exit codes: 0 success, 1 domain error (bad input data, failed equivalence),
2 usage or I/O error.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import os
import sys
from pathlib import Path

from . import __version__
from .analysis import compare, metrics_to_csv, metrics_to_text, phase_metrics
from .config import MachineConfig, load_machine_config, load_timing_params
from .emulator import run
from .errors import SdvError
from .prv import emit_prv, to_prv
from .scheduler import schedule_stream
from .timing import TimingParams, emit_timeline, emit_timeline_svg, simulate
from .tracefile import read_trace, write_trace
from .vstream import parse_vstream, write_vstream
from .workloads import FftPlan, gen_axpy, gen_fft


def _write_file(path: str, text: str) -> None:
    """Write-then-rename: never leaves a partial output file behind."""
    target = Path(path)
    tmp = target.with_name(target.name + ".tmp")
    try:
        tmp.write_text(text)
        os.replace(tmp, target)
    except OSError as err:
        err.filename, err.filename2 = path, None  # name the output, not the temp file
        raise
    finally:
        with contextlib.suppress(OSError):  # absent, or its parent is not a directory
            tmp.unlink()


def _write_manifest(output: str, entries: dict) -> None:
    lines = [f"{key} = {value}" for key, value in entries.items()]
    _write_file(str(output) + ".manifest", "\n".join(lines) + "\n")


def _base_manifest(args, **extra) -> dict:
    entries = {"tool": f"sdvkit {__version__}", "command": args.command}
    entries.update(extra)
    return entries


def _cmd_gen(args) -> int:
    if args.workload == "fft":
        plan = FftPlan(n=args.n, variant=args.variant, seed=args.seed)
        items, manifest = gen_fft(plan)
    else:
        items, manifest = gen_axpy(args.n, args.a, seed=args.seed)
    _write_file(args.output, write_vstream(items))
    entries = _base_manifest(args, output=args.output)
    entries.update(manifest)
    _write_manifest(args.output, entries)
    print(f"wrote {args.output} ({manifest['instructions']} instructions)")
    return 0


def _cmd_emulate(args) -> int:
    config = load_machine_config(args.config)
    _, records = run(config, parse_vstream(Path(args.input).read_text()))
    _write_file(args.output, write_trace(records))
    _write_manifest(args.output, _base_manifest(
        args, input=args.input, config=args.config or "<defaults>",
        output=args.output, records=len(records)))
    print(f"wrote {args.output} ({len(records)} records)")
    return 0


def _cmd_analyze(args) -> int:
    trace = read_trace(Path(args.input).read_text())
    timeline = simulate(trace, load_timing_params(args.timing))[0] if args.timing else None
    metrics = phase_metrics(trace, timeline)
    text = metrics_to_csv(metrics) if args.csv else metrics_to_text(metrics)
    if args.output:
        _write_file(args.output, text)
        _write_manifest(args.output, _base_manifest(
            args, input=args.input, timing=args.timing or "<none>",
            output=args.output))
        print(f"wrote {args.output}")
    else:
        sys.stdout.write(text)
    return 0


def _cmd_to_prv(args) -> int:
    pcf_path = str(Path(args.output).with_suffix(".pcf"))
    if pcf_path == str(Path(args.output)):
        print(f"error: {args.output} is also the .pcf output", file=sys.stderr)
        return 2
    trace = read_trace(Path(args.input).read_text())
    timeline = simulate(trace, load_timing_params(args.timing))[0] if args.timing else None
    doc = to_prv(trace, timeline)
    prv_text, pcf_text = emit_prv(doc)
    _write_file(args.output, prv_text)
    _write_file(pcf_path, pcf_text)
    _write_manifest(args.output, _base_manifest(
        args, input=args.input, timing=args.timing or "<none>",
        output=args.output, pcf=pcf_path, events=doc.record_count))
    print(f"wrote {args.output} and {pcf_path}")
    return 0


def _cmd_simulate(args) -> int:
    trace = read_trace(Path(args.input).read_text())
    params = load_timing_params(args.timing)
    entries, counters = simulate(trace, params)
    _write_file(args.output, emit_timeline(entries))
    outputs = {"output": args.output}
    if args.svg:
        _write_file(args.svg, emit_timeline_svg(entries))
        outputs["svg"] = args.svg
    _write_manifest(args.output, _base_manifest(
        args, input=args.input, timing=args.timing or "<defaults>", **outputs))
    print(f"total_cycles={counters.total_cycles} "
          f"vector_instrs={counters.vector_instr_count} "
          f"scalar_instrs={counters.scalar_instr_count} "
          f"mem_busy={counters.mem_busy_cycles} "
          f"arith_busy={counters.arith_busy_cycles} "
          f"overlap={counters.overlap_cycles} "
          f"vpu_idle={counters.vpu_idle_cycles}")
    return 0


def _cmd_schedule(args) -> int:
    config = load_machine_config(args.config)
    params = load_timing_params(args.timing)
    items = parse_vstream(Path(args.input).read_text())
    scheduled, cycles_before, cycles_after = schedule_stream(items, params, config)
    _write_file(args.output, write_vstream(scheduled))
    _write_manifest(args.output, _base_manifest(
        args, input=args.input, timing=args.timing or "<defaults>",
        output=args.output, cycles_before=cycles_before,
        cycles_after=cycles_after))
    print(f"equivalence: ok; cycles {cycles_before} -> {cycles_after} "
          f"(delta {cycles_after - cycles_before})")
    return 0


def _cmd_compare(args) -> int:
    params = load_timing_params(args.timing)
    trace_a = read_trace(Path(args.input_a).read_text())
    trace_b = read_trace(Path(args.input_b).read_text())
    report = compare(phase_metrics(trace_a, simulate(trace_a, params)[0]),
                     phase_metrics(trace_b, simulate(trace_b, params)[0]))
    text = report.to_csv() if args.csv else report.to_text()
    if args.output:
        _write_file(args.output, text)
        _write_manifest(args.output, _base_manifest(
            args, input_a=args.input_a, input_b=args.input_b,
            timing=args.timing or "<defaults>", output=args.output))
        print(f"wrote {args.output}")
    else:
        sys.stdout.write(text)
    return 0


def _keys_help(what: str, cls) -> str:
    return f"{what} file (keys: {', '.join(f.name for f in dataclasses.fields(cls))})"


_MACHINE_HELP = _keys_help("machine config", MachineConfig)
_TIMING_HELP = _keys_help("timing params", TimingParams)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sdvkit",
        description="long-vector RISC-V stream emulation and analysis toolkit")
    parser.add_argument("--version", action="version", version=f"sdvkit {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("gen", help="generate a workload stream")
    gen_sub = gen.add_subparsers(dest="workload", required=True)
    gen_fft_p = gen_sub.add_parser("fft", help="radix-2 FFT workload")
    gen_fft_p.add_argument("--n", type=int, required=True,
                           help="transform size (power of two, 64..65536)")
    gen_fft_p.add_argument("--variant", choices=("naive", "wide"), default="naive",
                           help="vectorization variant (default: naive)")
    gen_fft_p.add_argument("--seed", type=int, default=0, help="input data seed")
    gen_fft_p.add_argument("-o", "--output", required=True, help="output .vs path")
    gen_fft_p.set_defaults(func=_cmd_gen)
    gen_axpy_p = gen_sub.add_parser("axpy", help="strip-mined y = a*x + y")
    gen_axpy_p.add_argument("--n", type=int, required=True, help="vector length")
    gen_axpy_p.add_argument("--a", type=float, default=2.0, help="scale factor")
    gen_axpy_p.add_argument("--seed", type=int, default=0, help="input data seed")
    gen_axpy_p.add_argument("-o", "--output", required=True, help="output .vs path")
    gen_axpy_p.set_defaults(func=_cmd_gen)

    emu = sub.add_parser("emulate", help="run a stream, write the trace")
    emu.add_argument("input", help="input .vs stream")
    emu.add_argument("-o", "--output", required=True, help="output .trace path")
    emu.add_argument("--config", help=_MACHINE_HELP)
    emu.set_defaults(func=_cmd_emulate)

    ana = sub.add_parser("analyze", help="per-phase metrics report")
    ana.add_argument("input", help="input .trace file")
    ana.add_argument("--timing", help=_TIMING_HELP + "; adds cycles/IPC")
    ana.add_argument("--csv", action="store_true",
                     help="CSV report (default: plain text)")
    ana.add_argument("-o", "--output", help="write report to a file")
    ana.set_defaults(func=_cmd_analyze)

    prv = sub.add_parser("to-prv", help="export Paraver .prv/.pcf")
    prv.add_argument("input", help="input .trace file")
    prv.add_argument("--timing", help=_TIMING_HELP + "; modeled cycles become time")
    prv.add_argument("-o", "--output", required=True, help="output .prv path")
    prv.set_defaults(func=_cmd_to_prv)

    sim = sub.add_parser("simulate", help="cycle model: counters + timeline")
    sim.add_argument("input", help="input .trace file")
    sim.add_argument("--timing", help=_TIMING_HELP)
    sim.add_argument("-o", "--output", required=True, help="timeline CSV path")
    sim.add_argument("--svg", help="also write an SVG timeline")
    sim.set_defaults(func=_cmd_simulate)

    sch = sub.add_parser("schedule", help="reschedule windows to overlap pipelines")
    sch.add_argument("input", help="input .vs stream")
    sch.add_argument("-o", "--output", required=True, help="output .vs path")
    sch.add_argument("--timing", help=_TIMING_HELP)
    sch.add_argument("--config", help=_MACHINE_HELP)
    sch.set_defaults(func=_cmd_schedule)

    cmp_p = sub.add_parser("compare", help="A/B report between two traces")
    cmp_p.add_argument("input_a", help="baseline .trace")
    cmp_p.add_argument("input_b", help="candidate .trace")
    cmp_p.add_argument("--timing", help=_TIMING_HELP)
    cmp_p.add_argument("--csv", action="store_true", help="CSV report")
    cmp_p.add_argument("-o", "--output", help="write report to a file")
    cmp_p.set_defaults(func=_cmd_compare)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except OSError as err:
        reason = (err.strerror or "I/O error").lower()
        print(f"error: {reason}: {err.filename}", file=sys.stderr)
        return 2
    except SdvError as err:
        print(f"error: {err}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
