"""The sdvkit benchmark: one workload, one process, one thread.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  The process imports the checkout's
``src/sdvkit``, times several fresh-interpreter set-ups, prepares the
workload's inputs from ``--seed``, then runs passes of the workload's CLI
sequence until the next pass would end after ``--seconds``.  Every pass is
checked (see cases.py).  Every set-up sample and every command of an
untraced pass lies between two samples of reference.py's fixed work, which is
also sampled every INTERVAL_S while a command runs.  Its time is reported at
the host's reference speed: the wall time times REFERENCE_CALL_S divided by
the seconds per reference call measured around and during it.

With ``--trace 0`` the passes run untraced and the last line of standard
output is a JSON object holding the end-to-end metrics of BENCHMARK.json.
With ``--trace 1`` untraced and traced passes alternate, starting untraced,
and the metrics are the per-layer ones: per traced pass, from the spans
spans.py records.  The line before the last holds the details: pass times
at reference speed and as measured, the reference samples, their quartiles,
error rate, input properties and simulated counters.

Exit code 2, with no result line, when the checkout holds no sdvkit sources.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path
from time import perf_counter

import reference
from checkout import ROOT, MissingSource, use_checkout_source

SETUP_SAMPLES = 7
# A reference sample lasts at least MIN_REFERENCE_S and about REFERENCE_SHARE
# of the mean command of the previous pass, so that it sees the host's speed
# over a like span.
MIN_REFERENCE_S = 0.05
REFERENCE_SHARE = 0.1
SETUP_REFERENCE_S = 0.1  # a set-up sample takes 0.1 to 0.3 s
SETUP_TIMEOUT_S = 60
WORK = ROOT / ".perfbench_work"
PROBE = Path(__file__).with_name("setup_probe.py")


def quartiles(values: list[float]) -> dict:
    if len(values) < 2:
        q1 = q3 = values[0]
    else:
        q1, _, q3 = statistics.quantiles(values, n=4)
    return {"median": statistics.median(values), "q1": q1, "q3": q3,
            "samples": len(values), "values": values}


def at_reference_speed(walls: list[float], per_call: list[float]) -> list[float]:
    """Each wall time rescaled from the measured seconds per reference call
    around it to REFERENCE_CALL_S."""
    return [wall * reference.REFERENCE_CALL_S / call for wall, call in zip(walls, per_call)]


def time_setup(workload, seed: int, workdir: Path) -> tuple[list[float], list[float]]:
    """Seconds from starting each of SETUP_SAMPLES fresh setup_probe.py
    processes to the end of its set-up.  Returns (the walls, the mean seconds
    per reference call of the samples before and after each)."""
    walls, per_call = [], []
    before = reference.call_seconds(SETUP_REFERENCE_S)
    for index in range(SETUP_SAMPLES):
        probe_dir = workdir / f"probe{index}"
        start = time.clock_gettime(time.CLOCK_MONOTONIC)
        done = subprocess.run([sys.executable, str(PROBE), workload.name, str(workload.n),
                               str(seed), str(probe_dir)],
                              check=True, timeout=SETUP_TIMEOUT_S, capture_output=True,
                              text=True)
        walls.append(float(done.stdout) - start)
        shutil.rmtree(probe_dir)
        after = reference.call_seconds(SETUP_REFERENCE_S)
        per_call.append((before + after) / 2)
        before = after
    return walls, per_call


def referenced_pass(runner, sample_s: float):
    """An untraced pass with a reference sample of `sample_s` seconds before,
    between and after its commands, and a Sampler running during each.
    Returns (the pass, its wall time without the Sampler's, the same at
    reference speed, the seconds per reference call of each command's
    samples, its end samples first)."""
    sampler = reference.Sampler()
    ends: list[float] = []
    during: list[tuple[list[float], float]] = []

    def between():
        if ends:
            during.append(sampler.stop())
        ends.append(reference.call_seconds(sample_s))
        sampler.start()

    try:
        result = runner.run_pass(between=between)
    finally:
        if ends:
            sampler.stop()
    net = scaled = 0.0
    samples = []
    for index, wall in enumerate(result.command_s):
        calls, spent_s = during[index] if index < len(during) else ([], 0.0)
        per_call = ends[index:index + 2] + calls
        speed = statistics.mean(reference.REFERENCE_CALL_S / call for call in per_call)
        net += wall - spent_s
        scaled += (wall - spent_s) * speed
        samples.append(per_call)
    return result, net, scaled, samples


def measure(runner, seconds: float, trace: bool, tracer):
    """Run passes until the next one, if as long as the longest so far,
    would end after `seconds`.  Returns (untraced walls, the same at
    reference speed, the reference samples of each, traced walls)."""
    plain: list[float] = []
    pipeline: list[float] = []
    samples: list[list[float]] = []
    traced: list[float] = []
    sample_s = MIN_REFERENCE_S
    start = perf_counter()
    while True:
        if trace and len(traced) < len(plain):
            tracer.install()
            try:
                result = runner.run_pass(tracer)
            finally:
                tracer.uninstall()
            traced.append(result.wall_s)
        else:
            result, wall, scaled, per_call = referenced_pass(runner, sample_s)
            plain.append(wall)
            pipeline.append(scaled)
            samples.append(per_call)
            sample_s = max(MIN_REFERENCE_S,
                           REFERENCE_SHARE * result.wall_s / len(runner.commands))
        for problem in result.problems:
            print(f"pass failed: {problem}", file=sys.stderr)
        if trace and not traced:
            continue
        longest = max(plain + traced)
        if perf_counter() - start + (1 + 2 * REFERENCE_SHARE) * longest > seconds:
            return plain, pipeline, samples, traced


def layer_values(tracer, traced: list[float], plain: list[float], runner) -> dict:
    """Per-layer metrics, each per traced pass."""
    passes = len(traced)
    values = {}
    cli_s = 0.0
    for name, entry in tracer.aggregate().items():
        if name.startswith("cli."):
            values[f"{name}.s"] = entry["total_s"] / passes
            cli_s += entry["total_s"]
            continue
        for stat in ("calls", "self_s", "records", "items"):
            if stat in entry:
                values[f"{name}.{stat}"] = entry[stat] / passes
        if entry.get("records"):
            values[f"{name}.us_per_record"] = 1e6 * entry["self_s"] / entry["records"]
        if entry.get("items"):
            values[f"{name}.us_per_item"] = 1e6 * entry["self_s"] / entry["items"]
    for command, files in runner.workload.outputs.items():
        values[f"cli.{command}.bytes_out"] = sum(
            (runner.workdir / name).stat().st_size for name in files)
    values["trace.cli_coverage"] = cli_s / sum(traced)
    values["trace.overhead_s"] = statistics.median(traced) - statistics.median(plain)
    return values


def bench(workload, seed: int, seconds: float, trace: bool, workdir: Path):
    """Set up, measure and check one workload.
    Returns (result line, details line, the tracer with its spans)."""
    import cases
    import spans

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    setup_walls, setup_per_call = time_setup(workload, seed, workdir)
    setup = at_reference_speed(setup_walls, setup_per_call)
    runner = cases.Runner(workload, seed, workdir / "run")
    runner.prepare()
    tracer = spans.Tracer()
    plain, pipeline, samples, traced = measure(runner, seconds, trace, tracer)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    problems, facts = runner.verify_reference()
    for problem in problems:
        print(f"check failed: {problem}", file=sys.stderr)
    failed = runner.attempted if problems else runner.failed
    values = {"pipeline_s": statistics.median(pipeline),
              "setup_s": statistics.median(setup),
              "peak_rss_mb": peak_rss_mb,
              "modeled_cycles": facts.get("modeled_cycles", 0)}
    if trace:
        values = layer_values(tracer, traced, plain, runner)
        values.update({f"timing.{name}": count
                       for name, count in facts.get("counters", {}).items()})
    declared = spec["per_layer" if trace else "end_to_end"]
    result = {"correct": failed == 0, "attempted": runner.attempted, "failed": failed,
              "metrics": {m["name"]: {"value": values.get(m["name"], 0), "unit": m["unit"]}
                          for m in declared}}
    details = {"workload": workload.name, "n": workload.n, "seed": seed,
               "pipeline_s": quartiles(pipeline), "setup_s": quartiles(setup),
               "wall_pipeline_s": quartiles(plain), "wall_setup_s": quartiles(setup_walls),
               "reference_call_s": {"pipeline": samples, "setup": setup_per_call},
               "error_rate": failed / runner.attempted, **facts}
    if trace:
        details["traced_pipeline_s"] = quartiles(traced)
        details["spans"] = len(tracer.spans)
    return result, details, tracer


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        use_checkout_source()
    except MissingSource as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    import cases

    if args.workload not in cases.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; "
                     f"choose from {', '.join(cases.WORKLOADS)}")
    # One CPU for the process and the set-up probes it starts, so that the
    # reference samples see the same core as the work measured between them.
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    workdir = WORK / f"{args.workload}-{os.getpid()}"
    try:
        result, details, _ = bench(cases.WORKLOADS[args.workload], args.seed,
                                   args.seconds, bool(args.trace), workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            WORK.rmdir()
        except OSError:  # another run still uses it
            pass
    print(json.dumps(details))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
