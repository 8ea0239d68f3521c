import numpy as np
import pytest

from sdvkit.analysis import phase_metrics
from sdvkit.emulator import run
from sdvkit.errors import InvalidSize
from sdvkit.isa import Category
from sdvkit.workloads import (FftPlan, gen_axpy, gen_fft, oracle_axpy,
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


@pytest.mark.parametrize("variant", ["naive", "wide"])
def test_fft_impulse(variant):
    n = 64
    impulse = np.zeros(n)
    impulse[0] = 1.0
    plan = FftPlan(n=n, variant=variant, input_re=impulse, input_im=np.zeros(n))
    got_re, got_im, _ = _spectrum(*gen_fft(plan))
    assert np.allclose(got_re, 1.0, atol=1e-12)
    assert np.allclose(got_im, 0.0, atol=1e-12)


@pytest.mark.parametrize("variant", ["naive", "wide"])
def test_fft_random_against_oracle(variant):
    n = 256
    items, manifest = gen_fft(FftPlan(n=n, variant=variant, seed=42))
    got_re, got_im, _ = _spectrum(items, manifest)
    rng = np.random.default_rng(42)
    exp_re, exp_im = oracle_dft(rng.uniform(-1, 1, n), rng.uniform(-1, 1, n))
    scale = max(np.max(np.abs(exp_re)), np.max(np.abs(exp_im)))
    err = max(np.max(np.abs(got_re - exp_re)), np.max(np.abs(got_im - exp_im)))
    assert err / scale <= 1e-9


def test_variants_structural_contrast():
    for variant, expect_indexed in (("naive", False), ("wide", True)):
        items, _ = gen_fft(FftPlan(n=64, variant=variant, seed=0))
        _, records = run(None, items)
        indexed = sum(1 for r in records if r.category == Category.MEM_INDEXED)
        strided = sum(1 for r in records if r.category == Category.MEM_STRIDED)
        assert (indexed >= 1) == expect_indexed
        assert strided == 0
        assert all(r.phase in (0, 1, 2, 3) for r in records)


def test_wide_uses_register_gather():
    items, _ = gen_fft(FftPlan(n=64, variant="wide", seed=0))
    _, records = run(None, items)
    assert any(r.category == Category.PERM for r in records)


def test_small_size_vl_signature():
    # same engineered tiling as the reference size, visible at n=64
    items, _ = gen_fft(FftPlan(n=64, variant="naive", seed=0))
    _, records = run(None, items)
    metrics = {m.phase: m for m in phase_metrics(records)}
    assert metrics[2].avg_vl == 8.0
    assert metrics[3].avg_vl == 64.0
    items, _ = gen_fft(FftPlan(n=64, variant="wide", seed=0))
    _, records = run(None, items)
    for m in phase_metrics(records):
        assert m.avg_vl == 32.0  # min(256, n/2)


def test_four_phases_always_present():
    for variant in ("naive", "wide"):
        items, _ = gen_fft(FftPlan(n=64, variant=variant, seed=0))
        _, records = run(None, items)
        assert sorted({r.phase for r in records}) == [0, 1, 2, 3]


def test_generation_is_deterministic():
    a, _ = gen_fft(FftPlan(n=128, variant="wide", seed=9))
    b, _ = gen_fft(FftPlan(n=128, variant="wide", seed=9))
    assert a == b


def test_invalid_plans():
    with pytest.raises(InvalidSize):
        FftPlan(n=100)
    with pytest.raises(InvalidSize):
        FftPlan(n=32)
    with pytest.raises(InvalidSize):
        FftPlan(n=1 << 17)
    with pytest.raises(InvalidSize):
        FftPlan(n=64, variant="fancy")


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
