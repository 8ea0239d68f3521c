import os
import re
from pathlib import Path

import pytest

from sdvkit import scheduler
from sdvkit.cli import build_parser, main
from sdvkit.emulator import run
from sdvkit.tracefile import HEADER
from sdvkit.vstream import parse_vstream
from test_tracefile import BAD_MNEMONIC_LINES


def run_cli(*args):
    return main([str(a) for a in args])


def test_gen_emulate_analyze_pipeline(tmp_path, capsys):
    vs = tmp_path / "fft.vs"
    trace = tmp_path / "fft.trace"
    assert run_cli("gen", "fft", "--n", 64, "--variant", "wide", "-o", vs) == 0
    assert vs.exists() and (tmp_path / "fft.vs.manifest").exists()
    assert run_cli("emulate", vs, "-o", trace) == 0
    assert trace.exists()
    capsys.readouterr()
    assert run_cli("analyze", trace) == 0
    out = capsys.readouterr().out
    assert out.startswith("phase")
    assert len(out.splitlines()) == 5  # header + 4 phases


def test_analyze_with_timing_csv(tmp_path):
    vs, trace, report = tmp_path / "a.vs", tmp_path / "a.trace", tmp_path / "a.csv"
    run_cli("gen", "axpy", "--n", 300, "--a", "2.0", "-o", vs)
    run_cli("emulate", vs, "-o", trace)
    timing = tmp_path / "t.ini"
    timing.write_text("mem_latency_cycles = 20\nchaining = false\n")
    assert run_cli("analyze", trace, "--timing", timing, "--csv", "-o", report) == 0
    body = report.read_text()
    assert body.startswith("phase,")
    assert ",-," not in body.splitlines()[1]  # cycles/ipc filled in


def test_to_prv_outputs(tmp_path):
    vs, trace, prv = tmp_path / "a.vs", tmp_path / "a.trace", tmp_path / "a.prv"
    run_cli("gen", "axpy", "--n", 64, "-o", vs)
    run_cli("emulate", vs, "-o", trace)
    assert run_cli("to-prv", trace, "-o", prv) == 0
    assert prv.read_text().startswith("#Paraver (01/01/00 at 00:00):")
    assert (tmp_path / "a.pcf").exists()


def test_to_prv_refuses_output_that_is_its_own_pcf(tmp_path, capsys):
    vs, trace, out = tmp_path / "a.vs", tmp_path / "a.trace", tmp_path / "x.pcf"
    run_cli("gen", "axpy", "--n", 64, "-o", vs)
    run_cli("emulate", vs, "-o", trace)
    capsys.readouterr()
    assert run_cli("to-prv", trace, "-o", out) == 2
    assert "error:" in capsys.readouterr().err
    assert not out.exists()


def test_simulate_outputs(tmp_path, capsys):
    vs, trace = tmp_path / "a.vs", tmp_path / "a.trace"
    csv, svg = tmp_path / "timeline.csv", tmp_path / "timeline.svg"
    run_cli("gen", "axpy", "--n", 300, "-o", vs)
    run_cli("emulate", vs, "-o", trace)
    capsys.readouterr()
    assert run_cli("simulate", trace, "-o", csv, "--svg", svg) == 0
    out = capsys.readouterr().out
    assert "total_cycles=" in out and "overlap=" in out
    assert csv.read_text().startswith("seq,pipeline,")
    assert "<svg" in svg.read_text()


def _count_emulations(monkeypatch) -> list:
    """One entry per stream that `schedule` emulates from here on."""
    calls = []

    def counting_run(*args):
        calls.append(None)
        return run(*args)
    monkeypatch.setattr(scheduler, "run", counting_run)
    return calls


def test_schedule_fft_improves(tmp_path, capsys, monkeypatch):
    vs, out = tmp_path / "fft.vs", tmp_path / "fft_sched.vs"
    run_cli("gen", "fft", "--n", 64, "--variant", "naive", "-o", vs)
    capsys.readouterr()
    emulations = _count_emulations(monkeypatch)
    assert run_cli("schedule", vs, "-o", out) == 0
    msg = capsys.readouterr().out
    assert "equivalence: ok" in msg and "(delta -" in msg
    assert out.exists()
    assert len(emulations) == 2  # the input and the scheduled stream, once each


def test_schedule_dependent_chain_is_identity(tmp_path, capsys, monkeypatch):
    vs, out = tmp_path / "chain.vs", tmp_path / "chain_sched.vs"
    vs.write_text(".xreg x1 4\nvsetvli x2, x1, e64, m1\n.memf64 0x1000 1 2 3 4\n"
                  ".xreg x10 0x1000\n.xreg x11 0x2000\n.window 1\n"
                  "vle64.v v1, (x10)\nvfadd.vv v2, v1, v1\n"
                  "vfmul.vv v3, v2, v2\nvse64.v v3, (x11)\n")
    capsys.readouterr()
    emulations = _count_emulations(monkeypatch)
    assert run_cli("schedule", vs, "-o", out) == 0
    assert "(delta 0)" in capsys.readouterr().out
    assert parse_vstream(out.read_text()) == parse_vstream(vs.read_text())
    assert len(emulations) == 1  # nothing moved, so nothing to compare


def test_compare_self(tmp_path, capsys):
    vs, trace = tmp_path / "a.vs", tmp_path / "a.trace"
    run_cli("gen", "fft", "--n", 64, "--variant", "naive", "-o", vs)
    run_cli("emulate", vs, "-o", trace)
    capsys.readouterr()
    assert run_cli("compare", trace, trace) == 0
    out = capsys.readouterr().out
    assert "REGRESSION" not in out and "IMPROVEMENT" not in out


def test_no_compare_line_named_total_cycles_disagrees_with_simulate(tmp_path, capsys):
    traces, totals = [], []
    for variant in ("naive", "wide"):
        vs, trace = tmp_path / f"{variant}.vs", tmp_path / f"{variant}.trace"
        run_cli("gen", "fft", "--n", 64, "--variant", variant, "-o", vs)
        run_cli("emulate", vs, "-o", trace)
        capsys.readouterr()
        run_cli("simulate", trace, "-o", tmp_path / f"{variant}.csv")
        totals.append(re.search(r"total_cycles=(\d+)", capsys.readouterr().out).group(1))
        traces.append(trace)
    assert run_cli("compare", *traces) == 0
    out = capsys.readouterr().out
    # phase spans overlap, so their sum is labeled as such and is not a total
    assert "sum of phase spans:" in out
    for line in out.splitlines():
        if "total cycles" in line:
            assert re.search(r"total cycles: (\d+) -> (\d+)", line).groups() == tuple(totals)


def test_compare_csv_to_file_writes_report_and_manifest(tmp_path, capsys):
    vs, trace_a, trace_b = tmp_path / "a.vs", tmp_path / "a.trace", tmp_path / "b.trace"
    report = tmp_path / "ab.csv"
    run_cli("gen", "fft", "--n", 64, "--variant", "naive", "-o", vs)
    run_cli("emulate", vs, "-o", trace_a)
    run_cli("emulate", vs, "-o", trace_b)
    capsys.readouterr()
    assert run_cli("compare", trace_a, trace_b, "--csv") == 0
    printed = capsys.readouterr().out
    assert run_cli("compare", trace_a, trace_b, "--csv", "-o", report) == 0
    assert capsys.readouterr().out == f"wrote {report}\n"
    assert report.read_text() == printed
    assert printed.startswith("phase,cycles_a,cycles_b,")
    manifest = dict(line.split(" = ", 1) for line in
                    (tmp_path / "ab.csv.manifest").read_text().splitlines())
    assert manifest["command"] == "compare"
    assert {key: manifest[key] for key in ("input_a", "input_b", "timing", "output")} == {
        "input_a": str(trace_a), "input_b": str(trace_b),
        "timing": "<defaults>", "output": str(report)}


def test_missing_input_is_exit_2(tmp_path, capsys):
    assert run_cli("emulate", tmp_path / "missing.vs", "-o", tmp_path / "x.trace") == 2
    assert "no such file" in capsys.readouterr().err


def test_domain_error_is_exit_1(tmp_path, capsys):
    bad = tmp_path / "bad.vs"
    bad.write_text(".bogus 1\n")
    assert run_cli("emulate", bad, "-o", tmp_path / "x.trace") == 1
    assert "error:" in capsys.readouterr().err


def test_no_partial_output_on_failure(tmp_path):
    bad = tmp_path / "bad.trace"
    bad.write_text("#sdvkit-trace v1\n")  # empty trace: export must fail
    out = tmp_path / "out.prv"
    assert run_cli("to-prv", bad, "-o", out) == 1
    assert not out.exists()
    assert not list(tmp_path.glob("*.tmp"))


def test_failed_write_leaves_no_temp_file(tmp_path):
    vs, out = tmp_path / "a.vs", tmp_path / "out"
    run_cli("gen", "axpy", "--n", 64, "-o", vs)
    out.mkdir()
    assert run_cli("emulate", vs, "-o", out) == 2
    assert not list(tmp_path.glob("*.tmp"))


def test_output_under_a_file_is_exit_2(tmp_path, capsys):
    vs = tmp_path / "a.vs"
    run_cli("gen", "axpy", "--n", 64, "-o", vs)
    out = vs / "x.trace"
    assert run_cli("emulate", vs, "-o", out) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.rstrip().endswith(f": {out}")


def test_output_that_is_a_directory_is_named(tmp_path, capsys):
    vs, out = tmp_path / "a.vs", tmp_path / "out"
    run_cli("gen", "axpy", "--n", 64, "-o", vs)
    out.mkdir()
    capsys.readouterr()
    assert run_cli("emulate", vs, "-o", out) == 2
    err = capsys.readouterr().err
    assert err.rstrip().endswith(f": {out}")
    assert ".tmp" not in err


@pytest.mark.parametrize("args, message", [
    (("fft", "--n", 64, "--seed", -1), "seed must be >= 0"),
    (("axpy", "--n", 10, "--seed", -3), "seed must be >= 0"),
    (("axpy", "--n", 262_145), "n must be in [1, 262144]"),
    (("axpy", "--n", 100_000_000_000), "n must be in [1, 262144]"),
])
def test_bad_gen_argument_is_exit_1(tmp_path, capsys, args, message):
    out = tmp_path / "a.vs"
    assert run_cli("gen", *args, "-o", out) == 1
    assert capsys.readouterr().err.startswith(f"error: {message}")
    assert not out.exists()


@pytest.mark.parametrize("line", ["vid.v v\u00b2", ".xreg x\u00b2 1"])
def test_non_ascii_register_digit_is_exit_1(tmp_path, capsys, line):
    bad = tmp_path / "bad.vs"
    bad.write_text(f"vid.v v1\n{line}\n")
    assert run_cli("emulate", bad, "-o", tmp_path / "x.trace") == 1
    assert capsys.readouterr().err.startswith("error: line 2: ")


@pytest.mark.parametrize("command", ["to-prv", "simulate", "analyze"])
@pytest.mark.parametrize("line", BAD_MNEMONIC_LINES)
def test_bad_mnemonic_field_is_exit_1(tmp_path, capsys, command, line):
    bad = tmp_path / "bad.trace"
    bad.write_text(f"{HEADER}\n{line}\n")
    outputs = [] if command == "analyze" else ["-o", tmp_path / "out"]
    assert run_cli(command, bad, *outputs) == 1
    assert capsys.readouterr().err.startswith("error: line 2: ")


def test_config_file_is_honored(tmp_path):
    vs, trace = tmp_path / "a.vs", tmp_path / "a.trace"
    run_cli("gen", "axpy", "--n", 300, "-o", vs)
    machine = tmp_path / "m.ini"
    machine.write_text("vlen_bits = 1024\n")  # VLMAX = 16
    assert run_cli("emulate", vs, "-o", trace, "--config", machine) == 0
    body = trace.read_text()
    assert ":16:64:" in body  # strips clamp to the smaller VLMAX


def test_every_subcommand_has_help():
    parser = build_parser()
    for cmd in ("gen", "emulate", "analyze", "to-prv", "simulate",
                "schedule", "compare"):
        with pytest.raises(SystemExit) as excinfo:
            parser.parse_args([cmd, "--help"])
        assert excinfo.value.code == 0


def test_determinism_of_pipeline(tmp_path):
    files = {}
    for tag in ("one", "two"):
        vs = tmp_path / f"{tag}.vs"
        trace = tmp_path / f"{tag}.trace"
        prv = tmp_path / f"{tag}.prv"
        run_cli("gen", "fft", "--n", 64, "--variant", "wide", "--seed", 7, "-o", vs)
        run_cli("emulate", vs, "-o", trace)
        run_cli("to-prv", trace, "-o", prv)
        files[tag] = (vs.read_bytes(), trace.read_bytes(), prv.read_bytes())
    assert files["one"] == files["two"]
