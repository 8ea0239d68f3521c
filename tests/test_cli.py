import argparse
import errno
import gc
import hashlib
import io
import os
import re
import shlex
import sys
from pathlib import Path

import pytest

from sdvkit import __version__, cli, scheduler, workloads
from sdvkit.cli import build_parser, main
from sdvkit.emulator import run
from sdvkit.errors import SdvError
from sdvkit.tracefile import HEADER
from sdvkit.vstream import parse_vstream
from test_tracefile import BAD_MNEMONIC_LINES


def run_cli(*args):
    return main([str(a) for a in args])


def test_the_readme_walk_through_runs(tmp_path, monkeypatch, capsys):
    readme = (Path(__file__).parents[1] / "README.md").read_text()
    block = re.search(r"```sh\n(.*?)```", readme, re.S)[1]
    commands = [shlex.split(line) for line in block.splitlines()]
    assert {words[1] for words in commands} == \
        {"gen", "emulate", "simulate", "analyze", "to-prv", "compare", "schedule"}
    monkeypatch.chdir(tmp_path)
    for words in commands:
        assert words[0] == "sdvkit" and main(words[1:]) == 0, words
        assert capsys.readouterr().err == "", words


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


def test_every_subcommand_has_help(capsys):
    parser = build_parser()
    for cmd in ("gen", "gen fft", "gen axpy", "emulate", "analyze", "to-prv", "simulate",
                "schedule", "compare"):
        with pytest.raises(SystemExit) as excinfo:
            parser.parse_args([*cmd.split(), "--help"])
        assert excinfo.value.code == 0
    # each size limit, as the generator enforces it
    helps = " ".join(capsys.readouterr().out.split())
    assert "power of two, 64..65536" in helps
    assert "vector length (1..262144)" in helps


def test_gen_looks_up_each_generator_when_it_runs(tmp_path, monkeypatch):
    """A caller that kept the generator it found at import would escape a
    wrapper bound to the module attribute afterwards, as a span tracer does."""
    calls = []
    for name in ("gen_fft", "gen_axpy"):
        original = getattr(workloads, name)
        monkeypatch.setattr(workloads, name, lambda *args, _name=name, _original=original,
                            **kwargs: calls.append(_name) or _original(*args, **kwargs))
    assert run_cli("gen", "fft", "--n", 64, "-o", tmp_path / "f.vs") == 0
    assert run_cli("gen", "axpy", "--n", 8, "-o", tmp_path / "a.vs") == 0
    assert calls == ["gen_fft", "gen_axpy"]


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


@pytest.fixture
def inputs(tmp_path, monkeypatch):
    """An axpy stream and its trace, a timing file and a machine file, in a
    working directory of their own, so manifests name short relative paths."""
    monkeypatch.chdir(tmp_path)
    assert run_cli("gen", "axpy", "--n", 300, "-o", "a.vs") == 0
    assert run_cli("emulate", "a.vs", "-o", "a.trace") == 0
    Path("t.ini").write_text("mem_latency_cycles = 20\n")
    Path("m.ini").write_text("vlen_bits = 1024\n")
    return tmp_path


_FFT_LAYOUT = ("in_re = 16777216\nin_im = 18874368\nout_re = 29360128\nout_im = 31457280\n"
               "w_re = 33554432\nw_im = 35651584\nstages = 6\n")


# command line, its stdout, and its manifest after the tool line
_PINNED = [
    ("gen fft --n 64 --variant wide --seed 2 -o w.vs", "wrote w.vs (170 instructions)",
     "command = gen\noutput = w.vs\nkind = fft\nn = 64\nvariant = wide\nseed = 2\n"
     + _FFT_LAYOUT + "vl_phase0 = 32\nvl_phase2 = 32\nvl_phase3 = 32\n"
     "phase1_loop_trips = 3\nphase2_loop_trips = 3\nphase3_loop_trips = 2\n"
     "instructions = 170\n"),
    ("gen axpy --n 300 --a 1.5 --seed 3 -o x.vs", "wrote x.vs (12 instructions)",
     "command = gen\noutput = x.vs\nkind = axpy\nn = 300\na = 1.5\nseed = 3\n"
     "x = 16777216\ny = 18874368\nstrips = [256, 44]\ninstructions = 12\n"),
    ("emulate a.vs -o e.trace", "wrote e.trace (12 records)",
     "command = emulate\ninput = a.vs\nconfig = <defaults>\noutput = e.trace\nrecords = 12\n"),
    ("emulate a.vs --config m.ini -o f.trace", "wrote f.trace (12 records)",
     "command = emulate\ninput = a.vs\nconfig = m.ini\noutput = f.trace\nrecords = 12\n"),
    ("simulate a.trace -o s.csv",
     "total_cycles=350 vector_instrs=12 scalar_instrs=10 mem_busy=294 arith_busy=100 "
     "overlap=50 vpu_idle=6",
     "command = simulate\ninput = a.trace\ntiming = <defaults>\noutput = s.csv\n"),
    ("simulate a.trace --timing t.ini -o u.csv --svg u.svg",
     "total_cycles=290 vector_instrs=12 scalar_instrs=10 mem_busy=234 arith_busy=100 "
     "overlap=50 vpu_idle=6",
     "command = simulate\ninput = a.trace\ntiming = t.ini\noutput = u.csv\nsvg = u.svg\n"),
    ("to-prv a.trace -o p.prv", "wrote p.prv and p.pcf",
     "command = to-prv\ninput = a.trace\ntiming = <none>\noutput = p.prv\npcf = p.pcf\n"
     "events = 60\n"),
    ("to-prv a.trace --timing t.ini -o q.prv", "wrote q.prv and q.pcf",
     "command = to-prv\ninput = a.trace\ntiming = t.ini\noutput = q.prv\npcf = q.pcf\n"
     "events = 60\n"),
    ("analyze a.trace -o r.txt", "wrote r.txt",
     "command = analyze\ninput = a.trace\ntiming = <none>\noutput = r.txt\n"),
    ("analyze a.trace --timing t.ini -o r.txt", "wrote r.txt",
     "command = analyze\ninput = a.trace\ntiming = t.ini\noutput = r.txt\n"),
    ("compare a.trace a.trace -o c.txt", "wrote c.txt",
     "command = compare\ninput_a = a.trace\ninput_b = a.trace\ntiming = <defaults>\n"
     "output = c.txt\n"),
    ("compare a.trace a.trace --timing t.ini -o c.txt", "wrote c.txt",
     "command = compare\ninput_a = a.trace\ninput_b = a.trace\ntiming = t.ini\n"
     "output = c.txt\n"),
]


@pytest.mark.parametrize("argv, said, manifest", _PINNED, ids=[argv for argv, _, _ in _PINNED])
def test_manifest_and_stdout_are_pinned(inputs, capsys, argv, said, manifest):
    argv = argv.split()
    capsys.readouterr()
    assert run_cli(*argv) == 0
    assert capsys.readouterr() == (said + "\n", "")
    output = argv[argv.index("-o") + 1]
    assert Path(output + ".manifest").read_text() == f"tool = sdvkit {__version__}\n" + manifest


def _subcommand_parser(names):
    parser = build_parser()
    for name in names:
        sub = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
        parser = sub.choices[name]
    return parser


def _argv_from_manifest(text: str) -> list[str]:
    """The command line a manifest records, rebuilt from the subcommand's
    options: a label such as ``<defaults>`` stands for an option not given."""
    entries = dict(line.split(" = ", 1) for line in text.splitlines())
    names = [entries["command"]] + ([entries["kind"]] if entries["command"] == "gen" else [])
    argv = list(names)
    for action in _subcommand_parser(names)._actions:
        value = entries.get(action.dest)
        if value is None or value.startswith("<"):
            continue
        if not action.option_strings:
            argv.append(value)
        elif action.nargs == 0:
            assert value == "true"
            argv.append(action.option_strings[0])
        else:
            argv += [action.option_strings[0], value]
    return argv


# each subcommand with every option given, writing into one/
_EVERY_OPTION = [
    "gen fft --n 64 --variant wide --seed 2 -o one/w.vs",
    "gen axpy --n 300 --a 1.5 --seed 3 -o one/x.vs",
    "emulate a.vs --config m.ini -o one/e.trace",
    "analyze a.trace --timing t.ini --csv -o one/r.csv",
    "to-prv a.trace --timing t.ini -o one/p.prv",
    "simulate a.trace --timing t.ini -o one/s.csv --svg one/s.svg",
    "schedule f.vs --timing t.ini --config m.ini -o one/s.vs",
    "compare f.trace g.trace --timing t.ini --csv -o one/c.csv",
]


@pytest.mark.parametrize("argv", _EVERY_OPTION, ids=[a.split(" -o")[0] for a in _EVERY_OPTION])
def test_rerunning_a_manifest_reproduces_its_outputs(inputs, argv):
    for name, variant in (("f", "naive"), ("g", "wide")):
        assert run_cli("gen", "fft", "--n", 64, "--variant", variant, "-o", f"{name}.vs") == 0
        assert run_cli("emulate", f"{name}.vs", "-o", f"{name}.trace") == 0
    argv = argv.split()
    manifest = Path(argv[argv.index("-o") + 1] + ".manifest")
    os.mkdir("one")
    os.mkdir("two")
    assert run_cli(*argv) == 0
    rebuilt = [arg.replace("one/", "two/") for arg in _argv_from_manifest(manifest.read_text())]
    assert run_cli(*rebuilt) == 0
    names = sorted(os.listdir("one"))
    assert names == sorted(os.listdir("two"))
    for name in names:
        first, second = Path("one", name).read_bytes(), Path("two", name).read_bytes()
        if name.endswith(".manifest"):  # path values name their own directory
            second = second.replace(b"two/", b"one/")
        assert first == second, name


@pytest.mark.parametrize("svg", ["x.csv", "x.csv.manifest"])
def test_outputs_that_share_a_path_are_exit_2(inputs, capsys, svg):
    before = sorted(os.listdir())
    capsys.readouterr()
    assert run_cli("simulate", "a.trace", "-o", "x.csv", "--svg", svg) == 2
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("error: ")
    assert svg in err.replace(":", " ").split()
    assert sorted(os.listdir()) == before


# a command line whose output, SVG or manifest is a file it reads; the last
# reads its timing from the path its manifest would take
_OVER_AN_INPUT = [
    "schedule a.vs -o a.vs",
    "emulate a.vs -o a.vs",
    "emulate a.vs --config m.ini -o m.ini",
    "to-prv a.trace -o a.trace",
    "simulate a.trace -o a.trace",
    "simulate a.trace -o out.csv --svg a.trace",
    "simulate a.trace --timing t.ini -o t.ini",
    "analyze a.trace -o a.trace",
    "compare a.trace a.trace -o a.trace",
    "simulate a.trace --timing s.csv.manifest -o s.csv",
]


@pytest.mark.parametrize("argv", _OVER_AN_INPUT)
def test_an_output_over_an_input_is_exit_2(inputs, capsys, argv):
    Path("s.csv.manifest").write_text(Path("t.ini").read_text())
    before = {name: Path(name).read_bytes() for name in os.listdir()}
    capsys.readouterr()
    assert run_cli(*argv.split()) == 2
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("error: an output and an input share the path ")
    assert {name: Path(name).read_bytes() for name in os.listdir()} == before


# gen's stream text (seed 1) -> its sha256, with each memory image written as
# one .memf64/.memu64 directive and no restated default `.phase 0`; a change
# to the stream text must be declared
_PINNED_STREAMS = {
    "fft --n 256 --variant naive":
        "b7dc2afdf6af354667f14b8b4f76acd5a7bcdacc1a0cca3d608f66057c5f3238",
    "fft --n 256 --variant wide":
        "4bfb40d2ebf1195a3ebfb3e353400a8bf0e03ff74fc87caeaa2addf7e0f79f86",
    "axpy --n 1000":
        "8226f0151818112eaef41d007f61ad5c93d77a8fe4f7c36bed3016bdd633f72e",
    # no stage reaches phase 3: the output pass is the only phase-3 code
    "fft --n 64 --variant naive":
        "877c194eb5f2c37b9b9ca2f993e29fac8dd19264e62c124967d5b6a88d4f6efb",
    # the benchmark's stream, with every wide table
    "fft --n 8192 --variant wide":
        "e03e9fe56b579eba18b3ab3fabf9339ecff05dadba4bc9285eac9ef23884fece",
    "axpy --n 256":  # no tail strip
        "1ee944ea57d569c38fa6fe5e3303dfa833f33c80faaf24b35213cc01221c7413",
    "axpy --n 1":  # a tail strip only
        "0f57c8d232c118abc9d3c168341d4ec143d40b866af38e5a2a4de67167e56e38",
}


@pytest.mark.parametrize("workload", _PINNED_STREAMS)
def test_generated_stream_text_is_pinned(tmp_path, workload):
    vs = tmp_path / "g.vs"
    assert run_cli("gen", *workload.split(), "--seed", 1, "-o", vs) == 0
    assert hashlib.sha256(vs.read_bytes()).hexdigest() == _PINNED_STREAMS[workload]


def _files():
    """Every file under the working directory and its bytes; a directory as None."""
    return {str(p): None if p.is_dir() else p.read_bytes() for p in Path().rglob("*")}


@pytest.mark.parametrize("argv, bystanders", [
    ("schedule x.vs.tmp -o x.vs", []),
    ("emulate x.vs.tmp -o y.trace", ["y.trace.tmp", "y.trace.1.tmp"]),
])
def test_the_temp_file_replaces_no_input_or_bystander(inputs, argv, bystanders):
    assert run_cli("gen", "fft", "--n", 64, "-o", "x.vs.tmp") == 0
    for name in bystanders:
        Path(name).write_text(f"not {name}\n")
    kept = {name: Path(name).read_bytes() for name in ["x.vs.tmp", *bystanders]}
    assert run_cli(*argv.split()) == 0
    assert {name: Path(name).read_bytes() for name in kept} == kept
    assert sorted(map(str, Path().glob("*.tmp"))) == sorted(kept)
    output = argv.split()[-1]
    umask = os.umask(0)
    os.umask(umask)
    assert os.stat(output).st_mode & 0o777 == 0o666 & ~umask


# a command line reading the file ``bad``, which holds one 0xff byte
_READS_BAD = [
    "emulate bad -o out",
    "emulate a.vs --config bad -o out",
    "schedule bad -o out",
    "schedule a.vs --config bad -o out",
    "schedule a.vs --timing bad -o out",
    "analyze bad",
    "analyze a.trace --timing bad",
    "simulate bad -o out",
    "simulate a.trace --timing bad -o out",
    "to-prv bad -o out",
    "to-prv a.trace --timing bad -o out",
    "compare bad a.trace",
    "compare a.trace bad",
    "compare a.trace a.trace --timing bad",
]


@pytest.mark.parametrize("argv", _READS_BAD)
def test_an_input_that_is_not_utf8_is_exit_1(inputs, capsys, argv):
    Path("bad").write_bytes(b"#sdvkit-trace v1\n\xff\n")
    before = _files()
    capsys.readouterr()
    assert run_cli(*argv.split()) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err == "error: bad: not UTF-8 text (byte 0xff at offset 17)\n"
    assert _files() == before


@pytest.mark.parametrize("command", ["emulate", "schedule"])
def test_vlen_above_65536_bits_is_exit_1(inputs, capsys, command):
    Path("big.ini").write_text("vlen_bits = 131072\n")
    before = _files()
    capsys.readouterr()
    assert run_cli(command, "a.vs", "--config", "big.ini", "-o", "out") == 1
    out, err = capsys.readouterr()
    assert out == "" and len(err.splitlines()) == 1
    assert err.startswith("error: big.ini: vlen_bits must be a power of two in [128, 65536]")
    assert _files() == before


def test_vlen_of_65536_bits_emulates(inputs):
    Path("max.ini").write_text("vlen_bits = 65536\n")
    assert run_cli("gen", "axpy", "--n", 100, "-o", "s.vs") == 0
    assert run_cli("emulate", "s.vs", "--config", "max.ini", "-o", "s.trace") == 0
    assert ":100:64:" in Path("s.trace").read_text()


# a first command line that succeeds, the directory made after it (if any),
# then a command line that must exit 2 before writing anything, naming `path`
_UNWRITABLE = [
    ("simulate a.trace --timing t.ini -o out.csv", None,
     "simulate a.trace --timing u.ini -o out.csv --svg missing/x.svg", "missing/x.svg"),
    ("simulate a.trace --timing t.ini -o out.csv", "d",
     "simulate a.trace --timing u.ini -o out.csv --svg d", "d"),
    ("to-prv a.trace -o p.prv", "p.pcf", "to-prv a.trace --timing t.ini -o p.prv", "p.pcf"),
]


@pytest.mark.parametrize("first, directory, second, path", _UNWRITABLE,
                         ids=[second for _, _, second, _ in _UNWRITABLE])
def test_an_output_that_cannot_be_written_changes_no_file(inputs, capsys, first, directory,
                                                          second, path):
    Path("u.ini").write_text("mem_latency_cycles = 90\n")
    assert run_cli(*first.split()) == 0
    if directory:
        Path(directory).unlink(missing_ok=True)
        Path(directory).mkdir()
    before = _files()
    capsys.readouterr()
    assert run_cli(*second.split()) == 2
    out, err = capsys.readouterr()
    assert out == "" and re.fullmatch(rf"error: [a-z ]+: {re.escape(path)}\n", err)
    assert _files() == before


def test_a_write_that_fails_part_way_leaves_no_stale_manifest(inputs, monkeypatch, capsys):
    assert run_cli("simulate", "a.trace", "-o", "out.csv", "--svg", "out.svg") == 0
    assert Path("out.csv.manifest").exists()
    write_file, written = cli._write_file, []

    def fail_on_second(path, text):
        written.append(path)
        if len(written) == 2:
            raise OSError(errno.EIO, os.strerror(errno.EIO), path)
        write_file(path, text)

    monkeypatch.setattr(cli, "_write_file", fail_on_second)
    assert run_cli("simulate", "a.trace", "--timing", "t.ini", "-o", "out.csv",
                   "--svg", "out.svg") == 2
    assert written == ["out.csv", "out.svg"]
    assert capsys.readouterr().err.endswith(": out.svg\n")
    assert not Path("out.csv.manifest").exists()


# command lines with an output path that names no file, and that path
_NAMELESS = [
    (["gen", "fft", "--n", "64", "-o", ""], ""),
    (["emulate", "a.vs", "-o", ""], ""),
    (["analyze", "a.trace", "-o", ""], ""),
    (["compare", "a.trace", "a.trace", "-o", ""], ""),
    (["to-prv", "a.trace", "-o", ""], ""),
    (["to-prv", "a.trace", "-o", "."], "."),
    (["to-prv", "a.trace", "-o", "/"], "/"),
    (["simulate", "a.trace", "-o", "t.csv", "--svg", ""], ""),
]


@pytest.mark.parametrize("argv, path", _NAMELESS,
                         ids=[" ".join(a or "''" for a in argv) for argv, _ in _NAMELESS])
def test_an_output_path_that_names_no_file_is_exit_2(inputs, capsys, argv, path):
    assert run_cli("simulate", "a.trace", "-o", "t.csv") == 0  # an old manifest to keep
    Path(".manifest").write_text("a bystander\n")
    before = _files()
    capsys.readouterr()
    assert run_cli(*argv) == 2
    out, err = capsys.readouterr()
    assert out == "" and err == f"error: the output path {path!r} names no file\n"
    assert _files() == before
    assert Path(".manifest").read_text() == "a bystander\n"


def test_to_prv_puts_the_pcf_where_with_suffix_does(inputs):
    assert run_cli("to-prv", "a.trace", "-o", "a.") == 0
    assert Path("a..pcf").read_text().startswith("DEFAULT_OPTIONS")
    assert "pcf = a..pcf\n" in Path("a..manifest").read_text()


def test_a_failed_rename_names_the_output_and_leaves_no_temp_file(inputs, monkeypatch, capsys):
    def fail(src, dst):
        raise OSError(errno.EIO, os.strerror(errno.EIO), src, dst)

    monkeypatch.setattr(cli.os, "replace", fail)
    capsys.readouterr()
    assert run_cli("emulate", "a.vs", "-o", "b.trace") == 2
    assert capsys.readouterr().err == f"error: {os.strerror(errno.EIO).lower()}: b.trace\n"
    assert not Path("b.trace").exists() and not list(Path().glob("*.tmp"))


def test_a_negative_scalar_cost_in_a_timing_file_is_exit_1(inputs, capsys):
    Path("neg.ini").write_text("scalar_cycles_per_instr = -1\n")
    before = _files()
    capsys.readouterr()
    assert run_cli("simulate", "a.trace", "--timing", "neg.ini", "-o", "x.csv") == 1
    out, err = capsys.readouterr()
    assert out == "" and err == "error: neg.ini: scalar_cycles_per_instr must be >= 0\n"
    assert _files() == before


@pytest.fixture(params=[True, False], ids=["caller collects", "caller paused"])
def caller_collecting(request):
    """The cyclic collector switched on or off for the test, as its caller had it."""
    was = gc.isenabled()
    (gc.enable if request.param else gc.disable)()
    yield request.param
    (gc.enable if was else gc.disable)()


_EMULATE = ["emulate", "a.vs", "-o", "a.trace"]
# how a call ends: its command line, what the command returns or raises if it
# runs, and what main returns or raises
_WAYS_OUT = {
    "exit 0": (_EMULATE, 0, 0),
    "exit 1": (_EMULATE, SdvError("bad"), 1),
    "exit 2": (_EMULATE, OSError(errno.EIO, "I/O error", "a.trace"), 2),
    "--help": (["emulate", "--help"], None, SystemExit(0)),
    "unknown option": (["emulate", "a.vs", "--bogus"], None, SystemExit(2)),
    "escaping exception": (_EMULATE, RuntimeError("escapes"), RuntimeError("escapes")),
}


@pytest.mark.parametrize("argv, does, ends", _WAYS_OUT.values(), ids=_WAYS_OUT)
def test_the_collector_is_paused_for_a_call_and_restored_on_every_way_out(
        monkeypatch, caller_collecting, argv, does, ends):
    """Both the command and argparse's own output (help, usage errors) run
    with the collector off; afterwards it is on exactly when it was before."""
    seen = []

    class Noting(io.StringIO):
        def write(self, text):
            seen.append(gc.isenabled())
            return super().write(text)

    def command(args):
        seen.append(gc.isenabled())
        if isinstance(does, Exception):
            raise does
        return does

    monkeypatch.setattr(cli, "_cmd_emulate", command)
    monkeypatch.setattr(sys, "stdout", Noting())
    monkeypatch.setattr(sys, "stderr", Noting())
    if isinstance(ends, int):
        assert main(argv) == ends
    else:
        with pytest.raises(type(ends)) as caught:
            main(argv)
        assert caught.value.args == ends.args
    assert seen and not any(seen)
    assert gc.isenabled() is caller_collecting


# every subcommand once, on FFT streams of sizes `naive` and `wide` and an
# axpy stream of `axpy` elements
_EVERY_COMMAND = ["gen fft --variant naive --n {naive} -o n.vs",
                  "gen fft --variant wide --n {wide} -o w.vs",
                  "gen axpy --n {axpy} -o a.vs",
                  "emulate n.vs -o n.trace", "emulate w.vs -o w.trace", "emulate a.vs -o a.trace",
                  "simulate n.trace --svg n.svg -o n.csv",
                  "analyze n.trace --timing t.ini -o n.report",
                  "to-prv w.trace --timing t.ini -o w.prv",
                  "compare n.trace w.trace -o compare.txt",
                  "schedule n.vs -o s.vs"]


def test_no_command_leaves_more_cyclic_garbage_on_a_larger_input(tmp_path, monkeypatch):
    """`main` pauses the collector, which is sound while what a command
    leaves for it is a fixed set (argparse's parser), not something that
    grows with the input, as cycles built per record or item would."""
    found = {}
    was = gc.isenabled()
    gc.disable()
    try:
        gc.collect()
        for sizes in ({"naive": 64, "wide": 256, "axpy": 1000},
                      {"naive": 512, "wide": 2048, "axpy": 8000}):
            directory = tmp_path / str(sizes["naive"])
            directory.mkdir()
            monkeypatch.chdir(directory)
            Path("t.ini").write_text("mem_latency_cycles = 20\n")
            for line in _EVERY_COMMAND:
                assert main(line.format(**sizes).split()) == 0, line
                found.setdefault(line, []).append(gc.collect())
    finally:
        if was:
            gc.enable()
    assert {line: counts for line, counts in found.items() if counts[0] != counts[1]} == {}
