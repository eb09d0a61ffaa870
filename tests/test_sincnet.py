import numpy as np
import pytest

from hymad.errors import ConfigError, LeakageError
from hymad.optim import grad_check
from hymad.sincnet import (MIN_BAND_HZ, bank_kernels, build_filter,
                           constrain_cutoffs, init_filterbank,
                           sinc_conv_forward)
from hymad.tensor import Tensor

from oracles import conv1d_same_naive

FS = 8000.0


def _cutoffs(t1, t2):
    f1, f2 = constrain_cutoffs(Tensor(np.array([t1])), Tensor(np.array([t2])), FS)
    return float(f1.data[0]), float(f2.data[0])


def test_constrain_zero_thetas():
    f1, f2 = _cutoffs(0.0, 0.0)
    assert f1 == 0.0 and f2 == pytest.approx(MIN_BAND_HZ)


def test_constrain_negative_theta_absolute_value():
    f1, _ = _cutoffs(-50.0, 0.0)
    assert f1 == pytest.approx(50.0)


def test_constrain_mapping_example():
    f1, f2 = _cutoffs(100.0, 40.0)
    assert (f1, f2) == (pytest.approx(100.0), pytest.approx(141.0))


def test_constraint_holds_for_arbitrary_thetas():
    rng = np.random.default_rng(0)
    t1 = Tensor(rng.uniform(-1e5, 1e5, 100))
    t2 = Tensor(rng.uniform(-1e5, 1e5, 100))
    f1, f2 = constrain_cutoffs(t1, t2, FS)
    assert np.all(f1.data >= 0.0)
    assert np.all(f1.data < f2.data)
    assert np.all(f2.data <= FS / 2.0)


def test_kernel_center_tap():
    f1, f2 = 50.0, 150.0
    k = build_filter(Tensor(f1), Tensor(f2), 251, FS, window="hamming").data
    # center tap is 2*(g2-g1) times the window value there
    w_center = 0.54 - 0.46 * np.cos(2 * np.pi * 125 / 250)
    assert k[125] == pytest.approx(2.0 * (f2 - f1) / FS * w_center, rel=1e-12)


def test_equal_cutoffs_zero_kernel():
    k = build_filter(Tensor(200.0), Tensor(200.0), 65, FS, window="none").data
    np.testing.assert_allclose(k, np.zeros(65), atol=1e-15)


def test_kernel_even_symmetry():
    k = build_filter(Tensor(50.0), Tensor(150.0), 251, FS, window="hamming").data
    np.testing.assert_allclose(k, k[::-1], atol=1e-12)


def test_fft_passband_vs_stopband_ratio():
    k = build_filter(Tensor(50.0), Tensor(150.0), 251, FS, window="hamming").data
    nfft = 8192
    mag = np.abs(np.fft.rfft(k, nfft))
    freqs = np.fft.rfftfreq(nfft, 1.0 / FS)
    passband = mag[(freqs >= 50.0) & (freqs <= 150.0)].mean()
    stop = mag[((freqs >= 0.0) & (freqs <= 25.0))
               | ((freqs >= 300.0) & (freqs <= 4000.0))].mean()
    assert passband >= 10.0 * stop


def test_build_filter_rejects_bad_cutoffs():
    with pytest.raises(ConfigError):
        build_filter(Tensor(300.0), Tensor(200.0), 65, FS)


def test_conv_forward_matches_naive_oracle():
    rng = np.random.default_rng(1)
    bank = init_filterbank(4, FS, "linear", kernel_len=17)
    x = rng.standard_normal(64)
    got = sinc_conv_forward(Tensor(x), bank).data
    want = conv1d_same_naive(x, bank_kernels(bank).data)
    np.testing.assert_allclose(got, want, atol=1e-10)


def test_conv_forward_zero_input():
    bank = init_filterbank(3, FS, "linear", kernel_len=17)
    out = sinc_conv_forward(Tensor(np.zeros(64)), bank).data
    np.testing.assert_allclose(out, np.zeros((3, 64)), atol=1e-14)


def test_init_linear_bands():
    bank = init_filterbank(4, FS, "linear", kernel_len=65)
    f1, f2 = constrain_cutoffs(bank.theta1, bank.theta2, FS)
    np.testing.assert_allclose(f1.data, [0, 1000, 2000, 3000], atol=1e-9)
    np.testing.assert_allclose(f2.data, [1000, 2000, 3000, 4000], atol=1e-9)


def test_init_single_filter_full_band():
    bank = init_filterbank(1, FS, "linear", kernel_len=65)
    f1, f2 = constrain_cutoffs(bank.theta1, bank.theta2, FS)
    assert float(f1.data[0]) == pytest.approx(0.0, abs=1e-9)
    assert float(f2.data[0]) == pytest.approx(FS / 2.0, abs=1e-9)


def test_init_low_band_roundtrip():
    bank = init_filterbank(8, FS, "low-band", kernel_len=65)
    f1, f2 = constrain_cutoffs(bank.theta1, bank.theta2, FS)
    edges = np.linspace(0.0, FS / 8.0, 9)
    np.testing.assert_allclose(f1.data, edges[:-1], atol=1e-9)
    np.testing.assert_allclose(f2.data, edges[1:], atol=1e-9)


def test_init_rejects_zero_filters():
    with pytest.raises(ConfigError):
        init_filterbank(0, FS)


def test_cutoff_gradients_match_finite_differences():
    rng = np.random.default_rng(2)
    bank = init_filterbank(3, FS, "low-band", kernel_len=17)
    # nudge thetas off the clamp boundaries so central differences are clean
    bank.theta1.data += 5.0
    bank.theta2.data += 5.0
    x = rng.standard_normal(64)
    w = rng.standard_normal((3, 64))
    rep = grad_check(lambda: (sinc_conv_forward(Tensor(x), bank) * w).sum(),
                     [bank.theta1, bank.theta2])
    assert rep["max_rel_err"] <= 1e-4
