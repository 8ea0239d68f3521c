import hashlib

import numpy as np
import pytest

from sdvkit.analysis import phase_metrics
from sdvkit.emulator import run
from sdvkit.errors import InvalidSeed, InvalidSize
from sdvkit.isa import Category
from sdvkit.vstream import write_vstream
from sdvkit.workloads import (gen_axpy, gen_fft, oracle_axpy,
                              oracle_dft, read_f64_array)


def _spectrum(items, manifest):
    state, records = run(None, items)
    n = manifest["n"]
    got_re = read_f64_array(state.memory, manifest["out_re"], n)
    got_im = read_f64_array(state.memory, manifest["out_im"], n)
    return got_re, got_im, records


def test_axpy_strip_lengths():
    _, manifest = gen_axpy(300, 2.0)
    assert manifest["strips"] == [256, 44]


@pytest.mark.parametrize("n", [1, 300, 1000])
def test_axpy_strips_are_the_vls_its_vsetvlis_return(n):
    items, manifest = gen_axpy(n, 2.0)
    _, records = run(None, items)
    assert manifest["strips"] == [r.vl for r in records if r.category == Category.CONFIG]
    assert manifest["instructions"] == len(records)


def test_axpy_ones():
    items, manifest = gen_axpy(256, 2.0, x=np.ones(256), y=np.zeros(256))
    state, _ = run(None, items)
    assert np.all(read_f64_array(state.memory, manifest["y"], 256) == 2.0)


def test_axpy_n1_a0():
    items, manifest = gen_axpy(1, 0.0, x=np.array([5.0]), y=np.array([7.0]))
    state, _ = run(None, items)
    assert read_f64_array(state.memory, manifest["y"], 1).tolist() == [7.0]


def test_axpy_invalid_size():
    with pytest.raises(InvalidSize):
        gen_axpy(0, 1.0)
    # one more element and x's tail would be overwritten by y's directive
    with pytest.raises(InvalidSize):
        gen_axpy(262_145, 1.0)
    _, manifest = gen_axpy(1, 1.0)
    assert manifest["x"] + 8 * 262_144 == manifest["y"]


def test_negative_seed_is_rejected():
    with pytest.raises(InvalidSeed):
        gen_axpy(10, 1.0, seed=-3)
    with pytest.raises(InvalidSeed):
        gen_fft(n=64, seed=-1)


@pytest.mark.parametrize("variant", ["naive", "wide"])
def test_fft_impulse(variant):
    n = 64
    impulse = np.zeros(n)
    impulse[0] = 1.0
    got_re, got_im, _ = _spectrum(*gen_fft(n=n, variant=variant, re=impulse, im=np.zeros(n)))
    assert np.allclose(got_re, 1.0, atol=1e-12)
    assert np.allclose(got_im, 0.0, atol=1e-12)


@pytest.mark.parametrize("variant", ["naive", "wide"])
def test_fft_random_against_oracle(variant):
    n = 256
    items, manifest = gen_fft(n=n, variant=variant, seed=42)
    got_re, got_im, _ = _spectrum(items, manifest)
    rng = np.random.default_rng(42)
    exp_re, exp_im = oracle_dft(rng.uniform(-1, 1, n), rng.uniform(-1, 1, n))
    scale = max(np.max(np.abs(exp_re)), np.max(np.abs(exp_im)))
    err = max(np.max(np.abs(got_re - exp_re)), np.max(np.abs(got_im - exp_im)))
    assert err / scale <= 1e-9


def _first_records(records):
    """The first record of each window, in window order."""
    first = {}
    for record in records:
        first.setdefault(record.window_id, record)
    return list(first.values())


@pytest.mark.parametrize("n", [64, 256, 1024])
@pytest.mark.parametrize("variant", ["naive", "wide"])
def test_manifest_counts_are_what_the_stream_runs(variant, n):
    items, manifest = gen_fft(n=n, variant=variant, seed=0)
    _, records = run(None, items)
    assert manifest["instructions"] == len(records)
    starts = [r.pc for r in _first_records(records)]
    for phase in (1, 2, 3):
        body = 0x40_0000 + phase * 0x1000 + 0x100
        assert manifest[f"phase{phase}_loop_trips"] == starts.count(body), phase
    for phase in (0, 2, 3):
        vls = {r.vl for r in records if r.phase == phase and r.category != Category.CONFIG}
        assert vls == {manifest[f"vl_phase{phase}"]}, phase


def test_variants_structural_contrast():
    for variant, expect_indexed in (("naive", False), ("wide", True)):
        items, _ = gen_fft(n=64, variant=variant, seed=0)
        _, records = run(None, items)
        indexed = sum(1 for r in records if r.category == Category.MEM_INDEXED)
        strided = sum(1 for r in records if r.category == Category.MEM_STRIDED)
        assert (indexed >= 1) == expect_indexed
        assert strided == 0
        assert all(r.phase in (0, 1, 2, 3) for r in records)


def test_wide_uses_register_gather():
    items, _ = gen_fft(n=64, variant="wide", seed=0)
    _, records = run(None, items)
    assert any(r.category == Category.PERM for r in records)


def test_small_size_vl_signature():
    # same engineered tiling as the reference size, visible at n=64
    items, _ = gen_fft(n=64, variant="naive", seed=0)
    _, records = run(None, items)
    metrics = {m.phase: m for m in phase_metrics(records)}
    assert metrics[2].avg_vl == 8.0
    assert metrics[3].avg_vl == 64.0
    items, _ = gen_fft(n=64, variant="wide", seed=0)
    _, records = run(None, items)
    for m in phase_metrics(records):
        assert m.avg_vl == 32.0  # min(256, n/2)


def test_four_phases_always_present():
    for variant in ("naive", "wide"):
        items, _ = gen_fft(n=64, variant=variant, seed=0)
        _, records = run(None, items)
        assert sorted({r.phase for r in records}) == [0, 1, 2, 3]


def test_generation_is_deterministic():
    a, _ = gen_fft(n=128, variant="wide", seed=9)
    b, _ = gen_fft(n=128, variant="wide", seed=9)
    assert a == b


def test_invalid_plans():
    with pytest.raises(InvalidSize):
        gen_fft(n=100)
    with pytest.raises(InvalidSize):
        gen_fft(n=32)
    with pytest.raises(InvalidSize):
        gen_fft(n=1 << 17)
    with pytest.raises(InvalidSize):
        gen_fft(n=64, variant="fancy")


@pytest.mark.parametrize("generate, error", [
    (lambda: gen_axpy(2.5, 1.0), InvalidSize), (lambda: gen_axpy(True, 1.0), InvalidSize),
    (lambda: gen_fft(64.0), InvalidSize), (lambda: gen_fft(64, seed=1.5), InvalidSeed)],
    ids=["axpy-float-n", "axpy-bool-n", "fft-float-n", "fft-float-seed"])
def test_a_size_or_seed_that_is_not_an_integer_is_refused(generate, error):
    with pytest.raises(error, match="must be an integer"):
        generate()


def test_oracle_axpy_matches_definition():
    x = np.array([1.0, 2.0, 3.0])
    y = np.array([10.0, 20.0, 30.0])
    assert oracle_axpy(2.0, x, y).tolist() == [12.0, 24.0, 36.0]


def test_oracle_dft_parseval():
    rng = np.random.default_rng(0)
    re, im = rng.uniform(-1, 1, 128), rng.uniform(-1, 1, 128)
    out_re, out_im = oracle_dft(re, im)
    energy_in = np.sum(re ** 2 + im ** 2)
    energy_out = np.sum(out_re ** 2 + out_im ** 2) / 128
    assert abs(energy_in - energy_out) / energy_in < 1e-12


_RAMP = np.arange(64) / 64


@pytest.mark.parametrize("generate, digest", [
    (lambda: gen_fft(n=64, variant="wide", re=_RAMP, im=-_RAMP),
     "f2d3cfdd6d19997bc40d9d0b19b19a8371f374f31f3388f42299d55b4099c62b"),
    # im is the first draw from the seed
    (lambda: gen_fft(n=64, variant="naive", seed=1, re=_RAMP),
     "14ad2045e6c087b338e8e9bd14abc7d096114c2fe21b3e55fe9c380475acb2ba"),
    (lambda: gen_axpy(300, 2.0, x=np.arange(300) / 4, y=np.ones(300)),
     "d246964b789c896977d8f647b143134cc87cee3c7f9c8ecd1a94ad0ae84c3e1c"),
    # x is the first draw from the seed
    (lambda: gen_axpy(300, 2.0, y=np.ones(300), seed=1),
     "8f5fb41d066ab5e7ddeaf25d1630864a816e120fca880d9f3a95c11d09715d28"),
], ids=["fft-re-im", "fft-re", "axpy-x-y", "axpy-y"])
def test_given_input_stream_text_is_pinned(generate, digest):
    items, _ = generate()
    assert hashlib.sha256(write_vstream(items).encode()).hexdigest() == digest


@pytest.mark.parametrize("generate", [
    lambda: gen_fft(n=64, re=np.zeros(63)),
    lambda: gen_fft(n=64, im=np.zeros(65)),
    lambda: gen_fft(n=64, re=np.zeros((64, 3))),
    lambda: gen_fft(n=64, im=np.zeros((64, 1))),
    lambda: gen_fft(n=64, re=np.float64(1.0)),
    lambda: gen_axpy(10, 1.0, x=np.zeros(9)),
    lambda: gen_axpy(10, 1.0, y=np.zeros(11)),
    lambda: gen_axpy(2, 1.0, x=np.zeros((2, 3))),
    lambda: gen_axpy(2, 1.0, y=np.zeros((2, 1))),
    lambda: gen_axpy(2, 1.0, x=np.float64(1.0)),
], ids=["fft-re", "fft-im", "fft-re-2d", "fft-im-column", "fft-re-scalar",
        "axpy-x", "axpy-y", "axpy-x-2d", "axpy-y-column", "axpy-x-scalar"])
def test_an_input_array_of_the_wrong_length_is_refused(generate):
    with pytest.raises(InvalidSize, match="input arrays must have length n"):
        generate()
