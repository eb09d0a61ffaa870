import math
import warnings

import numpy as np
import pytest

from hymad.errors import NumericError, ShapeError
from hymad import functional as F
from hymad.optim import grad_check
from hymad.tensor import Tensor

from oracles import (conv1d_same_fft, conv1d_same_naive,
                     rnn_forward_unrolled, softmax_rows_composed)


# -- softmax ------------------------------------------------------------------

def test_softmax_equal_values_uniform():
    out = F.softmax_rows(Tensor(np.full((2, 5), 3.7)))
    np.testing.assert_allclose(out.data, np.full((2, 5), 0.2), atol=1e-12)


def test_softmax_single_column_all_ones():
    out = F.softmax_rows(Tensor(np.array([[1.0], [-4.0], [9.0]])))
    np.testing.assert_allclose(out.data, np.ones((3, 1)), atol=1e-15)


def test_softmax_closed_form():
    out = F.softmax_rows(Tensor(np.array([[0.0, math.log(2.0)]])))
    np.testing.assert_allclose(out.data, [[1 / 3, 2 / 3]], atol=1e-14)


def test_softmax_rows_sum_to_one():
    rng = np.random.default_rng(0)
    for _ in range(20):
        m = rng.standard_normal((4, 7)) * rng.uniform(1, 50)
        s = F.softmax_rows(Tensor(m)).data
        np.testing.assert_allclose(s.sum(axis=-1), np.ones(4), atol=1e-9)
        assert (s >= 0).all()


def test_softmax_nan_raises():
    with pytest.raises(NumericError):
        F.softmax_rows(Tensor(np.array([[0.0, np.nan]])))


def test_softmax_matches_composed_oracle():
    rng = np.random.default_rng(20)
    m1 = Tensor(rng.standard_normal((2, 3, 5)) * 4.0, requires_grad=True)
    m2 = Tensor(m1.data.copy(), requires_grad=True)
    w = rng.standard_normal((2, 3, 5))
    fused, composed = F.softmax_rows(m1), softmax_rows_composed(m2)
    np.testing.assert_allclose(fused.data, composed.data, rtol=0, atol=1e-12)
    (fused * w).sum().backward()
    (composed * w).sum().backward()
    np.testing.assert_allclose(m1.grad, m2.grad, rtol=0, atol=1e-12)


def test_softmax_gradient_check():
    rng = np.random.default_rng(21)
    m = Tensor(rng.standard_normal((3, 4)), requires_grad=True)
    w = rng.standard_normal((3, 4))
    assert grad_check(lambda: (F.softmax_rows(m) * w).sum(), [m])["max_rel_err"] < 1e-6


# -- attention ----------------------------------------------------------------

def test_attention_single_key_returns_value_row():
    rng = np.random.default_rng(1)
    q = rng.standard_normal((5, 3))
    k = rng.standard_normal((1, 3))
    v = rng.standard_normal((1, 4))
    out = F.attention(Tensor(q), Tensor(k), Tensor(v)).data
    np.testing.assert_allclose(out, np.repeat(v, 5, axis=0), atol=1e-12)


def test_attention_zero_query_gives_column_mean():
    rng = np.random.default_rng(2)
    k = rng.standard_normal((6, 3))
    v = rng.standard_normal((6, 4))
    out = F.attention(Tensor(np.zeros((2, 3))), Tensor(k), Tensor(v)).data
    np.testing.assert_allclose(out, np.tile(v.mean(axis=0), (2, 1)), atol=1e-12)


def test_attention_matches_two_step_oracle():
    rng = np.random.default_rng(3)
    q = rng.standard_normal((4, 2))
    k = rng.standard_normal((4, 2))
    v = rng.standard_normal((4, 3))
    scores = q @ k.T / math.sqrt(2)
    e = np.exp(scores - scores.max(axis=1, keepdims=True))
    want = (e / e.sum(axis=1, keepdims=True)) @ v
    got = F.attention(Tensor(q), Tensor(k), Tensor(v)).data
    np.testing.assert_allclose(got, want, atol=1e-12)


def test_attention_permutation_equivariant_in_keys():
    rng = np.random.default_rng(4)
    q = rng.standard_normal((3, 2))
    k = rng.standard_normal((5, 2))
    v = rng.standard_normal((5, 3))
    perm = rng.permutation(5)
    a = F.attention(Tensor(q), Tensor(k), Tensor(v)).data
    b = F.attention(Tensor(q), Tensor(k[perm]), Tensor(v[perm])).data
    np.testing.assert_allclose(a, b, atol=1e-12)


def test_attention_width_mismatch():
    with pytest.raises(ShapeError):
        F.attention(Tensor(np.ones((2, 3))), Tensor(np.ones((2, 4))),
                    Tensor(np.ones((2, 4))))


# -- rnn ----------------------------------------------------------------------

def _rnn_params(w_h, w_x, b):
    return F.RnnParams(Tensor(w_h, requires_grad=True),
                       Tensor(w_x, requires_grad=True),
                       Tensor(b, requires_grad=True))


def test_rnn_all_zero_weights():
    p = _rnn_params(np.zeros((3, 3)), np.zeros((3, 2)), np.zeros(3))
    out = F.rnn_forward(Tensor(np.random.default_rng(0).standard_normal((5, 2))), p)
    np.testing.assert_array_equal(out.data, np.zeros((5, 3)))


def test_rnn_scalar_closed_form():
    p = _rnn_params(np.zeros((1, 1)), np.ones((1, 1)), np.zeros(1))
    out = F.rnn_forward(Tensor(np.array([[1.0], [-1.0]])), p)
    np.testing.assert_allclose(out.data, [[math.tanh(1.0)], [math.tanh(-1.0)]],
                               atol=1e-15)


def test_rnn_matches_scalar_loop_oracle():
    rng = np.random.default_rng(5)
    h_dim, c_in, steps = 3, 2, 6
    w_h = rng.standard_normal((h_dim, h_dim)) * 0.5
    w_x = rng.standard_normal((h_dim, c_in))
    b = rng.standard_normal(h_dim)
    f = rng.standard_normal((steps, c_in))
    # step-by-step scalar-loop reference
    want = np.zeros((steps, h_dim))
    h = np.zeros(h_dim)
    for t in range(steps):
        z = np.zeros(h_dim)
        for i in range(h_dim):
            acc = b[i]
            for j in range(h_dim):
                acc += w_h[i, j] * h[j]
            for j in range(c_in):
                acc += w_x[i, j] * f[t, j]
            z[i] = math.tanh(acc)
        h = z
        want[t] = h
    got = F.rnn_forward(Tensor(f), _rnn_params(w_h, w_x, b)).data
    np.testing.assert_allclose(got, want, atol=1e-12)


def test_rnn_batched_matches_single():
    rng = np.random.default_rng(6)
    p = _rnn_params(rng.standard_normal((3, 3)) * 0.3,
                    rng.standard_normal((3, 2)), rng.standard_normal(3))
    f = rng.standard_normal((4, 5, 2))
    batched = F.rnn_forward(Tensor(f), p).data
    for i in range(4):
        single = F.rnn_forward(Tensor(f[i]), p).data
        np.testing.assert_allclose(batched[i], single, atol=1e-14)


def _rnn_case(seed, bsz, steps=5, c_in=3, h_dim=4):
    rng = np.random.default_rng(seed)
    p = _rnn_params(rng.standard_normal((h_dim, h_dim)) * 0.5,
                    rng.standard_normal((h_dim, c_in)), rng.standard_normal(h_dim))
    shape = (steps, c_in) if bsz is None else (bsz, steps, c_in)
    f = Tensor(rng.standard_normal(shape), requires_grad=True)
    w = rng.standard_normal(shape[:-1] + (h_dim,))
    return p, f, w, rng


@pytest.mark.parametrize("bsz,h0_shape", [
    (None, None), (3, None), (3, "vector"), (3, "batch"), (None, "vector")])
def test_rnn_fused_matches_unrolled_oracle(bsz, h0_shape):
    p, f, w, rng = _rnn_case(30, bsz)
    h_dim = p.hidden
    h0 = None
    if h0_shape is not None:
        shape = (h_dim,) if h0_shape == "vector" else (bsz, h_dim)
        h0 = Tensor(rng.standard_normal(shape), requires_grad=True)
    leaves = [f, p.w_h, p.w_x, p.b] + ([h0] if h0 is not None else [])
    copies = [Tensor(t.data.copy(), requires_grad=True) for t in leaves]
    p2 = F.RnnParams(*copies[1:4])
    h02 = copies[4] if h0 is not None else None

    fused = F.rnn_forward(f, p, h0)
    unrolled = rnn_forward_unrolled(copies[0], p2, h02)
    np.testing.assert_allclose(fused.data, unrolled.data, rtol=0, atol=1e-12)
    (fused * w).sum().backward()
    (unrolled * w).sum().backward()
    for got, want in zip(leaves, copies):
        assert got.grad.shape == got.shape
        np.testing.assert_allclose(got.grad, want.grad, rtol=0, atol=1e-12)


def test_rnn_gradient_check_with_h0_and_input_grad():
    p, f, w, rng = _rnn_case(31, 2, steps=4, c_in=2, h_dim=3)
    h0 = Tensor(rng.standard_normal(3), requires_grad=True)
    rep = grad_check(lambda: (F.rnn_forward(f, p, h0) * w).sum(),
                     [f, p.w_h, p.w_x, p.b, h0])
    assert rep["max_rel_err"] < 1e-6


# -- dense --------------------------------------------------------------------

def test_dense_identity_linear():
    x = np.random.default_rng(7).standard_normal((3, 4))
    out = F.dense(Tensor(x), Tensor(np.eye(4)), Tensor(np.zeros(4)), "linear")
    np.testing.assert_array_equal(out.data, x)


def test_dense_relu_clips_negative():
    out = F.dense(Tensor(np.array([[-1.0]])), Tensor(np.eye(1)),
                  Tensor(np.zeros(1)), "relu")
    assert out.data[0, 0] == 0.0


def test_dense_matches_matmul_plus_bias():
    rng = np.random.default_rng(8)
    x, w, b = rng.standard_normal((2, 3)), rng.standard_normal((3, 4)), rng.standard_normal(4)
    out = F.dense(Tensor(x), Tensor(w), Tensor(b), "linear").data
    np.testing.assert_allclose(out, x @ w + b, atol=1e-14)


# -- bce ----------------------------------------------------------------------

def test_bce_zero_logit_target_one():
    loss = F.bce_with_logits(Tensor(np.array([[0.0]])), np.array([[1.0]]))
    assert loss.item() == pytest.approx(math.log(2.0), abs=1e-12)


def test_bce_large_margin_near_zero():
    loss = F.bce_with_logits(Tensor(np.array([[30.0]])), np.array([[1.0]]))
    assert 0.0 <= loss.item() <= 1e-12


def test_bce_hand_expansion():
    loss = F.bce_with_logits(Tensor(np.array([[0.0, 0.0]])), np.array([[1.0, 0.0]]))
    assert loss.item() == pytest.approx(math.log(2.0), abs=1e-12)


def test_bce_nonnegative_random():
    rng = np.random.default_rng(9)
    for _ in range(50):
        z = rng.standard_normal((3, 4)) * 20
        y = rng.integers(0, 2, (3, 4)).astype(float)
        assert F.bce_with_logits(Tensor(z), y).item() >= 0.0


def test_bce_rejects_non_binary_targets():
    with pytest.raises(ValueError):
        F.bce_with_logits(Tensor(np.zeros((1, 2))), np.array([[0.5, 1.0]]))


def test_bce_no_overflow_at_extreme_logits():
    loss = F.bce_with_logits(Tensor(np.array([[500.0, -500.0]])),
                             np.array([[0.0, 1.0]]))
    assert loss.item() == pytest.approx(500.0, rel=1e-12)


def test_bce_gradient_is_sigmoid_minus_target():
    z = Tensor(np.array([[0.3, -1.2]]), requires_grad=True)
    y = np.array([[1.0, 0.0]])
    F.bce_with_logits(z, y).backward()
    want = (F.sigmoid(z.data) - y) / 2.0
    np.testing.assert_allclose(z.grad, want, atol=1e-14)


def test_sigmoid_and_bce_gradient_warning_free_at_extreme_logits():
    z = np.array([[800.0, -800.0]])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        np.testing.assert_array_equal(F.sigmoid(z), [[1.0, 0.0]])
        t = Tensor(z, requires_grad=True)
        F.bce_with_logits(t, np.array([[0.0, 1.0]])).backward()
    np.testing.assert_array_equal(t.grad, [[0.5, -0.5]])


# -- convolution --------------------------------------------------------------

def test_conv_impulse_reproduces_time_reversed_kernel():
    t_len, l_len = 64, 9
    x = np.zeros(t_len)
    x[32] = 1.0
    rng = np.random.default_rng(10)
    k = rng.standard_normal((1, l_len))
    out = F.conv1d_same(Tensor(x), Tensor(k)).data[0]
    # y[32+n] = k[n]: the centered-lag kernel appears around the impulse
    half = (l_len - 1) // 2
    np.testing.assert_allclose(out[32 - half:32 + half + 1], k[0], atol=1e-12)


def test_conv_zero_input():
    out = F.conv1d_same(Tensor(np.zeros(32)), Tensor(np.ones((2, 5)))).data
    np.testing.assert_allclose(out, np.zeros((2, 32)), atol=1e-14)


def test_conv_matches_double_loop_oracle():
    rng = np.random.default_rng(11)
    x = rng.standard_normal(64)
    k = rng.standard_normal((4, 17))
    got = F.conv1d_same(Tensor(x), Tensor(k)).data
    np.testing.assert_allclose(got, conv1d_same_naive(x, k), atol=1e-10)


def test_conv_linearity():
    rng = np.random.default_rng(12)
    x, y = rng.standard_normal(48), rng.standard_normal(48)
    k = rng.standard_normal((2, 7))
    lhs = F.conv1d_same(Tensor(2.0 * x + 3.0 * y), Tensor(k)).data
    rhs = 2.0 * F.conv1d_same(Tensor(x), Tensor(k)).data \
        + 3.0 * F.conv1d_same(Tensor(y), Tensor(k)).data
    np.testing.assert_allclose(lhs, rhs, atol=1e-10)


def test_conv_signal_shorter_than_kernel_rejected():
    with pytest.raises(ShapeError):
        F.conv1d_same(Tensor(np.zeros(4)), Tensor(np.ones((1, 9))))


def test_conv_gradients_match_finite_differences():
    rng = np.random.default_rng(13)
    x = Tensor(rng.standard_normal(32), requires_grad=True)
    k = Tensor(rng.standard_normal((2, 9)), requires_grad=True)
    w = rng.standard_normal((2, 32))  # fixed mixing so the scalar depends on all cells
    rep = grad_check(lambda: (F.conv1d_same(x, k) * w).sum(), [x, k])
    assert rep["max_rel_err"] < 1e-6


def test_avg_pool():
    x = Tensor(np.arange(8.0).reshape(1, 8))
    out = F.avg_pool1d(x, 4).data
    np.testing.assert_allclose(out, [[1.5, 5.5]])


class TestConvStrided:
    def _pair(self, bsz=3, t_len=128, n_filt=2, l_len=17, stride=8, seed=0):
        rng = np.random.default_rng(seed)
        x1 = Tensor(rng.standard_normal((bsz, t_len)), requires_grad=True)
        k1 = Tensor(rng.standard_normal((n_filt, l_len)), requires_grad=True)
        x2 = Tensor(x1.data.copy(), requires_grad=True)
        k2 = Tensor(k1.data.copy(), requires_grad=True)
        strided = F.conv1d_strided(x1, k1, stride)
        sliced = conv1d_same_fft(x2, k2)[:, :, ::stride]
        return strided, sliced, (x1, k1), (x2, k2)

    def test_matches_sliced_full_conv(self):
        strided, sliced, _, _ = self._pair()
        np.testing.assert_allclose(strided.data, sliced.data, atol=1e-10)

    def test_gradients_match_sliced_path(self):
        strided, sliced, (x1, k1), (x2, k2) = self._pair()
        w = np.random.default_rng(1).standard_normal(strided.shape)
        (strided * Tensor(w)).sum().backward()
        (sliced * Tensor(w)).sum().backward()
        np.testing.assert_allclose(x1.grad, x2.grad, atol=1e-10)
        np.testing.assert_allclose(k1.grad, k2.grad, atol=1e-10)

    def test_chunking_invariant(self):
        rng = np.random.default_rng(2)
        x = Tensor(rng.standard_normal((7, 96)), requires_grad=True)
        k = Tensor(rng.standard_normal((3, 9)), requires_grad=True)
        a = F.conv1d_strided(x, k, 4, chunk=2)
        b = F.conv1d_strided(Tensor(x.data.copy()), k, 4, chunk=100)
        np.testing.assert_array_equal(a.data, b.data)

    def test_stride_one_matches_same_conv(self):
        rng = np.random.default_rng(3)
        x = Tensor(rng.standard_normal((2, 64)))
        k = Tensor(rng.standard_normal((3, 9)))
        np.testing.assert_allclose(F.conv1d_strided(x, k, 1).data,
                                   conv1d_same_fft(x, k).data, atol=1e-10)

    def test_long_kernel_and_long_stride(self):
        for l_len, stride in ((33, 4), (5, 16)):
            strided, sliced, _, _ = self._pair(l_len=l_len, stride=stride,
                                               seed=l_len)
            np.testing.assert_allclose(strided.data, sliced.data, atol=1e-10)

    def test_indivisible_length_rejected(self):
        x = Tensor(np.zeros((1, 100)))
        k = Tensor(np.zeros((1, 9)))
        with pytest.raises(ShapeError):
            F.conv1d_strided(x, k, 7)
