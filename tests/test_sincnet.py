import numpy as np
import pytest

from hymad.datagen import FS
from hymad.errors import ConfigError, LeakageError
from hymad.functional import conv1d_strided
from hymad.sincnet import (MIN_BAND_HZ, bank_kernels, build_filter,
                           constrain_cutoffs, init_filterbank)
from hymad.tensor import Tensor

from oracles import (build_filter_composed, constrain_cutoffs_composed,
                     conv1d_same_naive, grad_check)



def _cutoffs(t1, t2):
    f1, f2 = constrain_cutoffs(np.array([t1]), np.array([t2]))
    return float(f1[0]), float(f2[0])


def _init_cutoffs(n_filters):
    theta1, theta2 = init_filterbank(n_filters)
    return constrain_cutoffs(theta1.data, theta2.data)


def _full_band_thetas(n_filters):
    """Raw thetas of contiguous equal-width bands over (0, FS/2]."""
    edges = np.linspace(0.0, FS / 2.0, n_filters + 1)
    return Tensor(edges[:-1]), Tensor(np.diff(edges) - MIN_BAND_HZ)


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
    t1 = rng.uniform(-1e5, 1e5, 100)
    t2 = rng.uniform(-1e5, 1e5, 100)
    f1, f2 = constrain_cutoffs(t1, t2)
    assert np.all(f1 >= 0.0)
    assert np.all(f1 < f2)
    assert np.all(f2 <= FS / 2.0)


def test_kernel_center_tap():
    f1, f2 = 50.0, 150.0
    k = build_filter([f1], [f2], 251)[0]
    # center tap is 2*(g2-g1) times the window value there
    w_center = 0.54 - 0.46 * np.cos(2 * np.pi * 125 / 250)
    assert k[125] == pytest.approx(2.0 * (f2 - f1) / FS * w_center, rel=1e-12)


def test_equal_cutoffs_zero_kernel():
    k = build_filter([200.0], [200.0], 65)
    np.testing.assert_allclose(k, np.zeros((1, 65)), atol=1e-15)


def test_kernel_even_symmetry():
    k = build_filter([50.0], [150.0], 251)
    np.testing.assert_allclose(k, k[:, ::-1], atol=1e-12)


def test_fft_passband_vs_stopband_ratio():
    k = build_filter([50.0], [150.0], 251)[0]
    nfft = 8192
    mag = np.abs(np.fft.rfft(k, nfft))
    freqs = np.fft.rfftfreq(nfft, 1.0 / FS)
    passband = mag[(freqs >= 50.0) & (freqs <= 150.0)].mean()
    stop = mag[((freqs >= 0.0) & (freqs <= 25.0))
               | ((freqs >= 300.0) & (freqs <= 4000.0))].mean()
    assert passband >= 10.0 * stop


def test_build_filter_rejects_bad_cutoffs():
    with pytest.raises(ConfigError):
        build_filter([300.0], [200.0], 65)


def test_conv_forward_matches_naive_oracle():
    rng = np.random.default_rng(1)
    kernels = bank_kernels(*_full_band_thetas(4), 17)
    x = rng.standard_normal(64)
    got = conv1d_strided(Tensor(x[None]), kernels, 1).data[0]
    want = conv1d_same_naive(x, kernels.data)
    np.testing.assert_allclose(got, want, atol=1e-10)


def test_conv_forward_zero_input():
    kernels = bank_kernels(*_full_band_thetas(3), 17)
    out = conv1d_strided(Tensor(np.zeros((1, 64))), kernels, 1).data
    np.testing.assert_allclose(out, np.zeros((1, 3, 64)), atol=1e-14)


def test_init_linear_bands():
    # equal-width bands over (0, FS/8] = (0, 1000] Hz
    f1, f2 = _init_cutoffs(4)
    np.testing.assert_allclose(f1, [0, 250, 500, 750], atol=1e-9)
    np.testing.assert_allclose(f2, [250, 500, 750, 1000], atol=1e-9)


def test_init_single_filter_full_band():
    f1, f2 = _init_cutoffs(1)
    assert float(f1[0]) == pytest.approx(0.0, abs=1e-9)
    assert float(f2[0]) == pytest.approx(FS / 8.0, abs=1e-9)


def test_init_low_band_roundtrip():
    f1, f2 = _init_cutoffs(8)
    edges = np.linspace(0.0, FS / 8.0, 9)
    np.testing.assert_allclose(f1, edges[:-1], atol=1e-9)
    np.testing.assert_allclose(f2, edges[1:], atol=1e-9)


def test_init_rejects_zero_filters():
    with pytest.raises(ConfigError):
        init_filterbank(0)


def test_cutoff_gradients_match_finite_differences():
    rng = np.random.default_rng(2)
    theta1, theta2 = init_filterbank(3)
    # nudge thetas off the clamp boundaries so central differences are clean
    theta1.data += 5.0
    theta2.data += 5.0
    x = Tensor(rng.standard_normal((1, 64)))
    w = rng.standard_normal((1, 3, 64))
    rep = grad_check(
        lambda: (conv1d_strided(x, bank_kernels(theta1, theta2, 17), 1) * w).sum(),
        [theta1, theta2])
    assert rep["max_rel_err"] <= 1e-4


# theta1: 0, negative, f1 exactly at and past its FS/2 - 1 clamp; theta2: 0,
# negative, f2 exactly at and past its FS/2 clamp
EDGE_THETAS = (np.array([0.0, -37.5, 120.0, 3999.0, 5e3, 250.0, 800.0, 1e3]),
               np.array([40.0, 0.0, -15.0, 3.0, 7.0, 3749.0, 9e3, -2.5]))


@pytest.mark.parametrize("l_len", [3, 129, 251])
def test_bank_kernels_bit_identical_to_composed_oracle(l_len):
    fused_leaves = [Tensor(t.copy(), requires_grad=True) for t in EDGE_THETAS]
    comp_leaves = [Tensor(t.copy(), requires_grad=True) for t in EDGE_THETAS]
    fused = bank_kernels(*fused_leaves, l_len)
    composed = build_filter_composed(
        *constrain_cutoffs_composed(*comp_leaves), l_len)
    assert fused._parents == tuple(fused_leaves)
    assert fused.data.tobytes() == composed.data.tobytes()
    w = np.random.default_rng(l_len).standard_normal(fused.shape)
    (fused * w).sum().backward()
    (composed * w).sum().backward()
    for got, want in zip(fused_leaves, comp_leaves):
        assert got.grad.tobytes() == want.grad.tobytes()
    # sign(0) and the strict clamp masks stop the gradient
    assert fused_leaves[0].grad[[0, 3, 4]].tolist() == [0.0, 0.0, 0.0]
    assert fused_leaves[1].grad[[1, 5, 6]].tolist() == [0.0, 0.0, 0.0]
