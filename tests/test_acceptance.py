"""Acceptance suite: every criterion at its stated tolerance, one PASS/FAIL
line per criterion (run with `pytest -s tests/test_acceptance.py` to see them).
"""

import itertools
import random
import time

import numpy as np
import pytest

from conftest import random_window_stream
from sdvkit.analysis import compare, pc_profile, phase_metrics
from sdvkit.cli import main as cli_main
from sdvkit.config import Vtype
from sdvkit.decoding import decode_word
from sdvkit.emulator import MachineState, apply_vsetvli, run
from sdvkit.errors import UnsupportedInstruction
from sdvkit.isa import parse_instruction
from sdvkit.prv import EventRecord, emit_prv, parse_prv, to_prv
from sdvkit.scheduler import reschedule_order, schedule_stream, verify_equivalence
from sdvkit.timing import TimingParams, occupancy, simulate
from sdvkit.tracefile import TraceRecord, read_trace, write_trace
from sdvkit.vstream import parse_vstream
from sdvkit.workloads import gen_fft, oracle_dft, read_f64_array

from test_decoding import _load as load_decode_fixture
from test_prv import _random_doc
from test_timing import _RATE_FIELDS, _random_trace


def _report(criterion: str, ok: bool) -> None:
    print(f"ACCEPTANCE {criterion}: {'PASS' if ok else 'FAIL'}")
    assert ok, criterion


def test_criterion_1_fft_correctness():
    start = time.monotonic()
    worst = 0.0
    for n in (64, 256, 1024):
        for seed in (1, 2, 3):
            rng = np.random.default_rng(seed)
            re, im = rng.uniform(-1, 1, n), rng.uniform(-1, 1, n)
            exp_re, exp_im = oracle_dft(re, im)
            scale = max(np.max(np.abs(exp_re)), np.max(np.abs(exp_im)))
            for variant in ("naive", "wide"):
                items, man = gen_fft(n=n, variant=variant, seed=seed)
                state, _ = run(None, items)
                got_re = read_f64_array(state.memory, man["out_re"], n)
                got_im = read_f64_array(state.memory, man["out_im"], n)
                err = max(np.max(np.abs(got_re - exp_re)),
                          np.max(np.abs(got_im - exp_im))) / scale
                worst = max(worst, err)
    elapsed = time.monotonic() - start
    _report("1 FFT correctness (max rel err <= 1e-9, < 30 s)",
            worst <= 1e-9 and elapsed < 30.0)


def test_criterion_2_vl_signature(reference_runs):
    naive = {m.phase: m.avg_vl for m in phase_metrics(reference_runs["naive"]["records"])}
    wide = {m.phase: m.avg_vl for m in phase_metrics(reference_runs["wide"]["records"])}
    ok = naive[2] == 8.0 and naive[3] == 64.0 and \
        all(wide[p] == 256.0 for p in (0, 1, 2, 3))
    _report("2 VL signature (naive ph2=8, ph3=64; wide=256 everywhere)", ok)


def test_criterion_3_vsetvli_law():
    state = MachineState.create()
    vlmax = state.config.vlmax(64)
    rng = random.Random(2024)
    ok = vlmax == 256
    for _ in range(10_000):
        avl = rng.randrange(0, 1 << 20)
        ok = ok and apply_vsetvli(state, avl, Vtype(64, 1)) == min(avl, 256)
    _report("3 vsetvli law (vl = min(AVL, 256) over 10k samples)", ok)


def test_criterion_4_determinism(tmp_path):
    outputs = []
    for tag in ("a", "b"):
        base = tmp_path / tag
        base.mkdir()
        vs, trace = base / "w.vs", base / "w.trace"
        prv, report = base / "w.prv", base / "report.csv"
        assert cli_main(["gen", "fft", "--n", "256", "--variant", "wide",
                         "--seed", "5", "-o", str(vs)]) == 0
        assert cli_main(["emulate", str(vs), "-o", str(trace)]) == 0
        assert cli_main(["analyze", str(trace), "--csv", "-o", str(report)]) == 0
        assert cli_main(["to-prv", str(trace), "-o", str(prv)]) == 0
        outputs.append(tuple(p.read_bytes() for p in
                             (vs, trace, prv, base / "w.pcf", report)))
    _report("4 determinism (byte-identical .trace/.prv/.pcf/report)",
            outputs[0] == outputs[1])


def test_criterion_5_roundtrips():
    ok = True
    rng = random.Random(77)
    for _ in range(100):
        records = _random_trace(rng)
        ok = ok and read_trace(write_trace(records)) == records
    for _ in range(100):
        doc = _random_doc(rng)
        prv, _ = emit_prv(doc)
        parsed = parse_prv(prv)
        ok = ok and parsed.duration == doc.duration and parsed.records == doc.records
    trace = _random_trace(rng)
    doc = to_prv(trace)
    ok = ok and len([r for r in doc.records if isinstance(r, EventRecord)]) == 5 * len(trace)
    _report("5 round-trips (100 traces, 100 prv docs, events = 5x records)", ok)


def test_criterion_6_timing_sanity():
    params = TimingParams()
    unit = TraceRecord(0, 0, 0, 0, parse_instruction("vle64.v v1, (x10)"), 256, 64)
    indexed = TraceRecord(0, 0, 0, 0, parse_instruction("vluxei64.v v1, (x10), v2"),
                          256, 64)
    ok = occupancy(unit, params) == 32 and occupancy(indexed, params) == 256
    rng = random.Random(31337)
    for _ in range(100):
        trace = _random_trace(rng)
        kwargs = {f: rng.choice([2, 4, 8, 16]) for f in _RATE_FIELDS}
        base = simulate(trace, TimingParams(**kwargs))[1].total_cycles
        field = rng.choice(_RATE_FIELDS)
        slower = dict(kwargs)
        slower[field] = rng.randrange(1, kwargs[field])
        ok = ok and simulate(trace, TimingParams(**slower))[1].total_cycles >= base
    _report("6 timing sanity (unit=32, indexed=256 cycles; monotone on 100 pairs)", ok)


def test_criterion_7_phase_regression(reference_runs):
    params = TimingParams()
    metrics = {}
    for variant in ("naive", "wide"):
        records = reference_runs[variant]["records"]
        timeline, _ = simulate(records, params)
        metrics[variant] = phase_metrics(records, timeline=timeline)
    report = compare(metrics["naive"], metrics["wide"])
    flags = {d.phase: d.flag for d in report.phases}
    ok = flags[2] == "IMPROVEMENT" and flags[3] == "REGRESSION" and \
        report.overall_ipc_b < report.overall_ipc_a
    _report("7 phase-3 regression + lower overall IPC for the wide variant", ok)


def test_criterion_8_scheduler(reference_runs):
    start = time.monotonic()
    params = TimingParams()
    ok = True
    rng = np.random.default_rng(4242)
    for _ in range(100):
        text = random_window_stream(rng)
        items = parse_vstream(text)
        scheduled, _, _ = schedule_stream(items, params)
        ok = ok and verify_equivalence(None, items, scheduled)
        _, before = run(None, items)
        _, after = run(None, scheduled)
        ok = ok and simulate(after, params)[1].total_cycles <= \
            simulate(before, params)[1].total_cycles

    records = reference_runs["naive"]["records"]
    windows = (list(w) for _, w in itertools.groupby(records, lambda r: r.window_id))
    window = next(w for w in windows if w[0].phase == 2 and len(w) == 38)
    _, base = simulate(window, params)
    _, tuned = simulate([window[i] for i in reschedule_order(window, params)], params)
    ok = ok and tuned.overlap_cycles > base.overlap_cycles
    ok = ok and tuned.total_cycles < base.total_cycles
    elapsed = time.monotonic() - start
    _report("8 scheduler soundness and gain (< 60 s)", ok and elapsed < 60.0)


def test_criterion_9_decoder_fidelity():
    corpus = load_decode_fixture("decode_corpus.txt")
    ok = len(corpus) == 20 * 50
    for word, text in corpus:
        ok = ok and decode_word(word) == parse_instruction(text)
    for word, _ in load_decode_fixture("decode_negatives.txt"):
        try:
            decode_word(word)
            ok = False
        except UnsupportedInstruction:
            pass
    _report("9 decoder fidelity (1000-word reference corpus, 100% agreement)", ok)


def test_criterion_10_pc_sawtooth(reference_runs):
    records = reference_runs["naive"]["records"]
    manifest = reference_runs["naive"]["manifest"]
    phase2 = [r for r in records if r.phase == 2]
    ramps = pc_profile(phase2).ramp_count
    _report("10 PC sawtooth (phase-2 ramps == generator loop trips)",
            ramps == manifest["phase2_loop_trips"])
