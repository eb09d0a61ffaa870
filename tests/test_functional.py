import math
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from hymad.errors import NumericError, ShapeError
from hymad import functional as F
from hymad.tensor import Tensor

from oracles import (add, attention, avg_pool1d, conv1d_same_fft,
                     conv1d_same_naive, dense_composed, grad_check, index,
                     log_pool_energy_composed, matmul, rnn_forward_unrolled,
                     softmax_rows, softmax_rows_composed, transpose)


# -- softmax ------------------------------------------------------------------

def test_softmax_equal_values_uniform():
    out = softmax_rows(Tensor(np.full((2, 5), 3.7)))
    np.testing.assert_allclose(out.data, np.full((2, 5), 0.2), atol=1e-12)


def test_softmax_single_column_all_ones():
    out = softmax_rows(Tensor(np.array([[1.0], [-4.0], [9.0]])))
    np.testing.assert_allclose(out.data, np.ones((3, 1)), atol=1e-15)


def test_softmax_closed_form():
    out = softmax_rows(Tensor(np.array([[0.0, math.log(2.0)]])))
    np.testing.assert_allclose(out.data, [[1 / 3, 2 / 3]], atol=1e-14)


def test_softmax_rows_sum_to_one():
    rng = np.random.default_rng(0)
    for _ in range(20):
        m = rng.standard_normal((4, 7)) * rng.uniform(1, 50)
        s = softmax_rows(Tensor(m)).data
        np.testing.assert_allclose(s.sum(axis=-1), np.ones(4), atol=1e-9)
        assert (s >= 0).all()


def test_softmax_nan_raises():
    with pytest.raises(NumericError):
        softmax_rows(Tensor(np.array([[0.0, np.nan]])))


def test_softmax_matches_composed_oracle():
    rng = np.random.default_rng(20)
    m1 = Tensor(rng.standard_normal((2, 3, 5)) * 4.0, requires_grad=True)
    m2 = Tensor(m1.data.copy(), requires_grad=True)
    w = rng.standard_normal((2, 3, 5))
    fused, composed = softmax_rows(m1), softmax_rows_composed(m2)
    np.testing.assert_allclose(fused.data, composed.data, rtol=0, atol=1e-12)
    (fused * w).sum().backward()
    (composed * w).sum().backward()
    np.testing.assert_allclose(m1.grad, m2.grad, rtol=0, atol=1e-12)


def test_softmax_gradient_check():
    rng = np.random.default_rng(21)
    m = Tensor(rng.standard_normal((3, 4)), requires_grad=True)
    w = rng.standard_normal((3, 4))
    assert grad_check(lambda: (softmax_rows(m) * w).sum(), [m])["max_rel_err"] < 1e-6


# -- attention ----------------------------------------------------------------

def test_attention_single_key_returns_value_row():
    rng = np.random.default_rng(1)
    q = rng.standard_normal((5, 3))
    k = rng.standard_normal((1, 3))
    v = rng.standard_normal((1, 4))
    out = attention(Tensor(q), Tensor(k), Tensor(v)).data
    np.testing.assert_allclose(out, np.repeat(v, 5, axis=0), atol=1e-12)


def test_attention_zero_query_gives_column_mean():
    rng = np.random.default_rng(2)
    k = rng.standard_normal((6, 3))
    v = rng.standard_normal((6, 4))
    out = attention(Tensor(np.zeros((2, 3))), Tensor(k), Tensor(v)).data
    np.testing.assert_allclose(out, np.tile(v.mean(axis=0), (2, 1)), atol=1e-12)


def test_attention_matches_two_step_oracle():
    rng = np.random.default_rng(3)
    q = rng.standard_normal((4, 2))
    k = rng.standard_normal((4, 2))
    v = rng.standard_normal((4, 3))
    scores = q @ k.T / math.sqrt(2)
    e = np.exp(scores - scores.max(axis=1, keepdims=True))
    want = (e / e.sum(axis=1, keepdims=True)) @ v
    got = attention(Tensor(q), Tensor(k), Tensor(v)).data
    np.testing.assert_allclose(got, want, atol=1e-12)


def test_attention_permutation_equivariant_in_keys():
    rng = np.random.default_rng(4)
    q = rng.standard_normal((3, 2))
    k = rng.standard_normal((5, 2))
    v = rng.standard_normal((5, 3))
    perm = rng.permutation(5)
    a = attention(Tensor(q), Tensor(k), Tensor(v)).data
    b = attention(Tensor(q), Tensor(k[perm]), Tensor(v[perm])).data
    np.testing.assert_allclose(a, b, atol=1e-12)


def test_attention_matches_composed_oracle_with_gradients():
    rng = np.random.default_rng(5)
    for shape_q, shape_kv in (((4, 3), (6, 3)), ((2, 3, 5, 4), (2, 3, 7, 4))):
        leaves = [Tensor(rng.standard_normal(s), requires_grad=True)
                  for s in (shape_q, shape_kv, shape_kv)]
        copies = [Tensor(t.data.copy(), requires_grad=True) for t in leaves]
        q, k, v = copies
        composed = matmul(softmax_rows_composed(
            matmul(q * (1.0 / math.sqrt(shape_q[-1])), transpose(k))), v)
        fused = attention(*leaves)
        np.testing.assert_allclose(fused.data, composed.data, rtol=0, atol=1e-12)
        w = rng.standard_normal(fused.shape)
        (fused * w).sum().backward()
        (composed * w).sum().backward()
        for got, want in zip(leaves, copies):
            np.testing.assert_allclose(got.grad, want.grad, rtol=0, atol=1e-12)


def test_attention_gradient_check():
    rng = np.random.default_rng(6)
    leaves = [Tensor(rng.standard_normal((2, 3, 2)), requires_grad=True)
              for _ in range(3)]
    w = rng.standard_normal((2, 3, 2))
    rep = grad_check(lambda: (attention(*leaves) * w).sum(), leaves)
    assert rep["max_rel_err"] < 1e-6


def test_attention_width_mismatch():
    with pytest.raises(ShapeError):
        attention(Tensor(np.ones((2, 3))), Tensor(np.ones((2, 4))),
                    Tensor(np.ones((2, 4))))


# -- rnn ----------------------------------------------------------------------

def _rnn_params(w_h, w_x, b):
    return tuple(Tensor(a, requires_grad=True) for a in (w_h, w_x, b))


def test_rnn_all_zero_weights():
    p = _rnn_params(np.zeros((3, 3)), np.zeros((3, 2)), np.zeros(3))
    out = F.rnn_forward(Tensor(np.random.default_rng(0).standard_normal((1, 5, 2))), *p)
    np.testing.assert_array_equal(out.data, np.zeros((1, 5, 3)))


def test_rnn_scalar_closed_form():
    p = _rnn_params(np.zeros((1, 1)), np.ones((1, 1)), np.zeros(1))
    out = F.rnn_forward(Tensor(np.array([[[1.0], [-1.0]]])), *p)
    np.testing.assert_allclose(out.data, [[[math.tanh(1.0)], [math.tanh(-1.0)]]],
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
    got = F.rnn_forward(Tensor(f[None]), *_rnn_params(w_h, w_x, b)).data[0]
    np.testing.assert_allclose(got, want, atol=1e-12)


def test_rnn_batched_matches_single():
    rng = np.random.default_rng(6)
    p = _rnn_params(rng.standard_normal((3, 3)) * 0.3,
                    rng.standard_normal((3, 2)), rng.standard_normal(3))
    f = rng.standard_normal((4, 5, 2))
    batched = F.rnn_forward(Tensor(f), *p).data
    for i in range(4):
        single = F.rnn_forward(Tensor(f[i:i + 1]), *p).data[0]
        np.testing.assert_allclose(batched[i], single, atol=1e-14)


def _rnn_case(seed, bsz, steps=5, c_in=3, h_dim=4):
    rng = np.random.default_rng(seed)
    p = _rnn_params(rng.standard_normal((h_dim, h_dim)) * 0.5,
                    rng.standard_normal((h_dim, c_in)), rng.standard_normal(h_dim))
    f = Tensor(rng.standard_normal((bsz, steps, c_in)), requires_grad=True)
    w = rng.standard_normal((bsz, steps, h_dim))
    return p, f, w


@pytest.mark.parametrize("bsz", [1, 3])
def test_rnn_fused_matches_unrolled_oracle(bsz):
    p, f, w = _rnn_case(30, bsz)
    leaves = [f, *p]
    copies = [Tensor(t.data.copy(), requires_grad=True) for t in leaves]

    fused = F.rnn_forward(f, *p)
    unrolled = rnn_forward_unrolled(*copies)
    np.testing.assert_allclose(fused.data, unrolled.data, rtol=0, atol=1e-12)
    (fused * w).sum().backward()
    (unrolled * w).sum().backward()
    for got, want in zip(leaves, copies):
        assert got.grad.shape == got.shape
        np.testing.assert_allclose(got.grad, want.grad, rtol=0, atol=1e-12)


def test_rnn_gradient_check_with_input_grad():
    p, f, w = _rnn_case(31, 2, steps=4, c_in=2, h_dim=3)
    rep = grad_check(lambda: (F.rnn_forward(f, *p) * w).sum(), [f, *p])
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


# x shape and the shape of the term added to the product: a row batch plus
# its [d] bias, and a [B, T, d] batch plus the bias and a [T, d] positional
# table (the stream projections) or plus the bias alone
DENSE_CASES = [((5, 3), (4,)), ((2, 6, 3), (6, 4)), ((2, 6, 3), (4,))]


def _dense_leaves(x_shape, b_shape, seed):
    """x, w and a [4] bias as leaves, and a constant table of shape
    `b_shape` when that has two axes, else None."""
    rng = np.random.default_rng(seed)
    leaves = [Tensor(rng.standard_normal(s), requires_grad=True)
              for s in (x_shape, (x_shape[-1], 4), (4,))]
    return leaves, rng.standard_normal(b_shape) if len(b_shape) == 2 else None


@pytest.mark.parametrize("act", ["relu", "linear"])
@pytest.mark.parametrize("x_shape, b_shape", DENSE_CASES)
def test_dense_matches_composed_oracle(x_shape, b_shape, act):
    # the oracle adds the table to the bias, as the graph did before `dense`
    # took the table, and its two adds sum the bias gradient over the batch,
    # then over time, as `dense` does; its weight gradient sums per-sample
    # products, and without a table its bias gradient sums both axes at once
    fused, pos = _dense_leaves(x_shape, b_shape, 40)
    x, w, b = composed = [Tensor(t.data.copy(), requires_grad=True)
                          for t in fused]
    out = F.dense(*fused, act, pos=pos)
    ref = dense_composed(x, w, b if pos is None else add(b, pos), act)
    assert len(out._parents) == 3 and all(p.grad is None for p in fused)
    assert out.data.tobytes() == ref.data.tobytes()
    if act == "relu":
        assert (out.data == 0.0).any() and (out.data > 0.0).any()
    g = np.random.default_rng(41).standard_normal(out.shape)
    (out * g).sum().backward()
    (ref * g).sum().backward()
    exact = [0, 2] if pos is not None or len(x_shape) == 2 else [0]
    for i in exact:
        assert fused[i].grad.tobytes() == composed[i].grad.tobytes(), i
    for a, b in zip(fused, composed):
        np.testing.assert_allclose(a.grad, b.grad, rtol=0, atol=1e-12)


@pytest.mark.parametrize("act", ["relu", "linear"])
def test_dense_gradients_match_finite_differences(act):
    leaves, pos = _dense_leaves((2, 6, 3), (6, 4), 42)
    w = np.random.default_rng(43).standard_normal((2, 6, 4))
    rep = grad_check(lambda: (F.dense(*leaves, act, pos=pos) * w).sum(),
                     leaves)
    assert rep["max_rel_err"] < 1e-6


@st.composite
def _dense_shapes(draw):
    """x [..., d_in], w [d_in, d_out] and either None or the shape of a
    positional table over the output's last two axes."""
    out = tuple(draw(st.lists(st.integers(1, 3), min_size=2, max_size=3)))
    d_in = draw(st.integers(1, 3))
    return (out[:-1] + (d_in,), (d_in, out[-1]),
            out[-2:] if draw(st.booleans()) else None)


@settings(max_examples=30)
@example(shapes=((2, 4, 3), (3, 2), (4, 2)), seed=0)   # bias plus positions
@given(shapes=_dense_shapes(), seed=st.integers(0, 2 ** 32 - 1))
def test_dense_broadcast_bias_gradient_matches_finite_differences(shapes, seed):
    # the [d_out] bias broadcasts over every leading axis of the output, and
    # the table over all but the last two
    x_shape, w_shape, pos_shape = shapes
    rng = np.random.default_rng(seed)
    x, w, b = (Tensor(rng.standard_normal(s), requires_grad=True)
               for s in (x_shape, w_shape, w_shape[1:]))
    pos = None if pos_shape is None else rng.standard_normal(pos_shape)
    g = rng.standard_normal(x_shape[:-1] + w_shape[1:])
    rep = grad_check(lambda: (F.dense(x, w, b, pos=pos) * g).sum(), [x, w, b])
    assert rep["max_rel_err"] < 1e-6


def test_dense_rejects_bad_shapes_and_activation():
    (x, w, b), _ = _dense_leaves((5, 3), (4,), 44)
    with pytest.raises(ShapeError):
        F.dense(x, Tensor(np.ones((2, 4))), b)
    with pytest.raises(ShapeError):
        F.dense(Tensor(np.ones(3)), w, b)
    # the bias is [d_out]; a per-position term is the constant table
    for bias in (np.ones((5, 4)), np.ones((1, 4)), np.ones(3)):
        with pytest.raises(ShapeError, match="bias"):
            F.dense(x, w, Tensor(bias))
    with pytest.raises(ValueError):
        F.dense(x, w, b, "tanh")


# -- bce ----------------------------------------------------------------------

def test_bce_zero_logit_target_one():
    loss = F.bce_with_logits(Tensor(np.array([[0.0]])), np.array([[1.0]]))
    assert float(loss.data) == pytest.approx(math.log(2.0), abs=1e-12)


def test_bce_large_margin_near_zero():
    loss = F.bce_with_logits(Tensor(np.array([[30.0]])), np.array([[1.0]]))
    assert 0.0 <= float(loss.data) <= 1e-12


def test_bce_hand_expansion():
    loss = F.bce_with_logits(Tensor(np.array([[0.0, 0.0]])), np.array([[1.0, 0.0]]))
    assert float(loss.data) == pytest.approx(math.log(2.0), abs=1e-12)


def test_bce_nonnegative_random():
    rng = np.random.default_rng(9)
    for _ in range(50):
        z = rng.standard_normal((3, 4)) * 20
        y = rng.integers(0, 2, (3, 4)).astype(float)
        assert float(F.bce_with_logits(Tensor(z), y).data) >= 0.0


def test_bce_rejects_non_binary_targets():
    with pytest.raises(ValueError):
        F.bce_with_logits(Tensor(np.zeros((1, 2))), np.array([[0.5, 1.0]]))


def test_bce_no_overflow_at_extreme_logits():
    loss = F.bce_with_logits(Tensor(np.array([[500.0, -500.0]])),
                             np.array([[0.0, 1.0]]))
    assert float(loss.data) == pytest.approx(500.0, rel=1e-12)


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
    out = F.conv1d_strided(Tensor(x[None]), Tensor(k), 1).data[0, 0]
    # y[32+n] = k[n]: the centered-lag kernel appears around the impulse
    half = (l_len - 1) // 2
    np.testing.assert_allclose(out[32 - half:32 + half + 1], k[0], atol=1e-12)


def test_conv_zero_input():
    out = F.conv1d_strided(Tensor(np.zeros((1, 32))), Tensor(np.ones((2, 5))), 1).data
    np.testing.assert_allclose(out, np.zeros((1, 2, 32)), atol=1e-14)


def test_conv_matches_double_loop_oracle():
    rng = np.random.default_rng(11)
    x = rng.standard_normal(64)
    k = rng.standard_normal((4, 17))
    got = F.conv1d_strided(Tensor(x[None]), Tensor(k), 1).data[0]
    np.testing.assert_allclose(got, conv1d_same_naive(x, k), atol=1e-10)


def test_conv_linearity():
    rng = np.random.default_rng(12)
    x, y = rng.standard_normal(48), rng.standard_normal(48)
    k = rng.standard_normal((2, 7))
    lhs = F.conv1d_strided(Tensor((2.0 * x + 3.0 * y)[None]), Tensor(k), 1).data
    rhs = 2.0 * F.conv1d_strided(Tensor(x[None]), Tensor(k), 1).data \
        + 3.0 * F.conv1d_strided(Tensor(y[None]), Tensor(k), 1).data
    np.testing.assert_allclose(lhs, rhs, atol=1e-10)


def test_conv_signal_shorter_than_kernel_matches_oracle():
    rng = np.random.default_rng(14)
    x = rng.standard_normal(4)
    k = rng.standard_normal((2, 9))
    got = F.conv1d_strided(Tensor(x[None]), Tensor(k), 1).data[0]
    np.testing.assert_allclose(got, conv1d_same_naive(x, k), atol=1e-12)


def test_conv_gradients_match_finite_differences():
    rng = np.random.default_rng(13)
    x = Tensor(rng.standard_normal((1, 32)))
    k = Tensor(rng.standard_normal((2, 9)), requires_grad=True)
    w = rng.standard_normal((1, 2, 32))  # fixed mixing so the scalar depends on all cells
    rep = grad_check(lambda: (F.conv1d_strided(x, k, 1) * w).sum(), [k])
    assert rep["max_rel_err"] < 1e-6


def test_avg_pool():
    x = Tensor(np.arange(8.0).reshape(1, 8))
    out = avg_pool1d(x, 4).data
    np.testing.assert_allclose(out, [[1.5, 5.5]])


def test_log_pool_energy_matches_composed_oracle():
    rng = np.random.default_rng(15)
    y1 = Tensor(rng.standard_normal((3, 2, 24)), requires_grad=True)
    y2 = Tensor(y1.data.copy(), requires_grad=True)
    w = rng.standard_normal((3, 6, 2))
    fused = F.log_pool_energy(y1, 4, 1e-6)
    composed = log_pool_energy_composed(y2, 4, 1e-6)
    np.testing.assert_allclose(fused.data, composed.data, rtol=0, atol=1e-12)
    (fused * w).sum().backward()
    (composed * w).sum().backward()
    np.testing.assert_allclose(y1.grad, y2.grad, rtol=0, atol=1e-12)


def test_log_pool_energy_gradient_keeps_input_layout():
    # a channels-last y (the strided conv's output) gives C-contiguous
    # [B, T', C] features and gets a channels-last gradient, with the same
    # values as for a C-ordered copy
    rng = np.random.default_rng(17)
    last = rng.standard_normal((3, 24, 2))
    y1 = Tensor(last.swapaxes(1, 2), requires_grad=True)
    y2 = Tensor(np.ascontiguousarray(y1.data), requires_grad=True)
    w = rng.standard_normal((3, 6, 2))
    out1, out2 = F.log_pool_energy(y1, 4, 1e-6), F.log_pool_energy(y2, 4, 1e-6)
    np.testing.assert_array_equal(out1.data, out2.data)
    assert out1.data.flags.c_contiguous
    (out1 * w).sum().backward()
    (out2 * w).sum().backward()
    np.testing.assert_array_equal(y1.grad, y2.grad)
    assert y1.grad.swapaxes(1, 2).flags.c_contiguous


def test_log_pool_energy_gradient_check():
    rng = np.random.default_rng(16)
    y = Tensor(rng.standard_normal((2, 2, 12)), requires_grad=True)
    w = rng.standard_normal((2, 4, 2))
    rep = grad_check(lambda: (F.log_pool_energy(y, 3, 1e-6) * w).sum(), [y])
    assert rep["max_rel_err"] < 1e-6


class TestConvStrided:
    def _pair(self, bsz=3, t_len=128, n_filt=2, l_len=17, stride=8, seed=0):
        rng = np.random.default_rng(seed)
        x1 = Tensor(rng.standard_normal((bsz, t_len)))
        k1 = Tensor(rng.standard_normal((n_filt, l_len)), requires_grad=True)
        x2 = Tensor(x1.data.copy())
        k2 = Tensor(k1.data.copy(), requires_grad=True)
        strided = F.conv1d_strided(x1, k1, stride)
        sliced = index(conv1d_same_fft(x2, k2), np.s_[:, :, ::stride])
        return strided, sliced, (x1, k1), (x2, k2)

    def test_matches_sliced_full_conv(self):
        strided, sliced, _, _ = self._pair()
        np.testing.assert_allclose(strided.data, sliced.data, atol=1e-10)

    def test_gradients_match_sliced_path(self):
        strided, sliced, (x1, k1), (x2, k2) = self._pair()
        w = np.random.default_rng(1).standard_normal(strided.shape)
        (strided * Tensor(w)).sum().backward()
        (sliced * Tensor(w)).sum().backward()
        np.testing.assert_allclose(k1.grad, k2.grad, atol=1e-10)

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

    def test_input_requiring_grad_rejected(self):
        # the input gradient is not computed; asking for one is an error,
        # not a silently missing gradient
        x = Tensor(np.zeros((1, 32)), requires_grad=True)
        with pytest.raises(ValueError, match="no gradient for its input"):
            F.conv1d_strided(x, Tensor(np.ones((1, 9)), requires_grad=True), 4)

    def test_peak_memory_below_one_patch_matrix(self):
        # the frontend's composition at the default sizes over 16 rows; an
        # im2col patch matrix [B, P, L] alone would take 16.5 MB
        rng = np.random.default_rng(4)
        x = Tensor(rng.standard_normal((16, 8000)))
        k = Tensor(rng.standard_normal((32, 129)), requires_grad=True)
        patch_bytes = 16 * 1000 * 129 * 8
        tracemalloc.start()
        try:
            F.log_pool_energy(F.conv1d_strided(x, k, 8), 8, 1e-6).sum().backward()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert k.grad is not None
        assert peak < patch_bytes

    def test_indivisible_length_rejected(self):
        x = Tensor(np.zeros((1, 100)))
        k = Tensor(np.zeros((1, 9)))
        with pytest.raises(ShapeError):
            F.conv1d_strided(x, k, 7)


# The explicit examples reach the segment edge cases whatever the draws:
# L < stride (one output per segment), T < L, a P that max(1, L // 2S) does
# not divide, so that the segment's output count Q, the largest divisor of P
# up to that bound, drops below it (to 1 for the prime P = 13).
@settings(max_examples=40)
@given(bsz=st.integers(1, 4), n_filt=st.integers(1, 3), half=st.integers(0, 20),
       stride=st.integers(1, 12), n_out=st.integers(1, 24),
       seed=st.integers(0, 2 ** 32 - 1))
@example(bsz=3, n_filt=2, half=2, stride=8, n_out=6, seed=0)
@example(bsz=2, n_filt=3, half=20, stride=2, n_out=6, seed=1)
@example(bsz=4, n_filt=1, half=16, stride=2, n_out=13, seed=2)
@example(bsz=3, n_filt=3, half=20, stride=4, n_out=12, seed=3)
def test_conv_strided_matches_oracles_over_shapes(bsz, n_filt, half, stride,
                                                  n_out, seed):
    rng = np.random.default_rng(seed)
    l_len, t_len = 2 * half + 1, stride * n_out
    x = rng.standard_normal((bsz, t_len))
    k1 = Tensor(rng.standard_normal((n_filt, l_len)), requires_grad=True)
    k2 = Tensor(k1.data.copy(), requires_grad=True)
    w = rng.standard_normal((bsz, n_filt, n_out))

    strided = F.conv1d_strided(Tensor(x), k1, stride)
    naive = np.stack([conv1d_same_naive(row, k1.data)[:, ::stride] for row in x])
    np.testing.assert_allclose(strided.data, naive, rtol=0, atol=1e-10)

    # the FFT oracle needs T >= L: zero-extend the signal by whole strides,
    # which leaves the same-padded outputs at the original positions as they are
    ext = stride * -(-l_len // stride)
    xe = Tensor(np.pad(x, ((0, 0), (ext, ext))))
    sliced = index(conv1d_same_fft(xe, k2), np.s_[:, :, ext:ext + t_len:stride])
    (strided * Tensor(w)).sum().backward()
    (sliced * Tensor(w)).sum().backward()
    np.testing.assert_allclose(k1.grad, k2.grad, rtol=0, atol=1e-10)
