import numpy as np
import pytest

from hymad.errors import ShapeError
from hymad.tensor import Tensor, concat, no_grad


def test_matmul_identity():
    b = Tensor(np.arange(6.0).reshape(2, 3))
    out = Tensor(np.eye(2)) @ b
    np.testing.assert_array_equal(out.data, b.data)


def test_matmul_zeros():
    out = Tensor(np.zeros((2, 3))) @ Tensor(np.ones((3, 4)))
    np.testing.assert_array_equal(out.data, np.zeros((2, 4)))


def test_matmul_against_triple_loop_oracle():
    rng = np.random.default_rng(0)
    a = rng.standard_normal((3, 3))
    b = rng.standard_normal((3, 3))
    want = np.zeros((3, 3))
    for i in range(3):
        for j in range(3):
            for k in range(3):
                want[i, j] += a[i, k] * b[k, j]
    got = (Tensor(a) @ Tensor(b)).data
    np.testing.assert_allclose(got, want, atol=1e-12)


def test_matmul_shape_error():
    with pytest.raises(ShapeError):
        Tensor(np.ones((2, 3))) @ Tensor(np.ones((4, 2)))


def test_matmul_backward():
    rng = np.random.default_rng(1)
    a = Tensor(rng.standard_normal((2, 3)), requires_grad=True)
    b = Tensor(rng.standard_normal((3, 4)), requires_grad=True)
    (a @ b).sum().backward()
    g = np.ones((2, 4))
    np.testing.assert_allclose(a.grad, g @ b.data.T, atol=1e-12)
    np.testing.assert_allclose(b.grad, a.data.T @ g, atol=1e-12)


def test_backward_sum_gives_ones():
    x = Tensor(np.arange(5.0), requires_grad=True)
    x.sum().backward()
    np.testing.assert_array_equal(x.grad, np.ones(5))


def test_backward_square_scalar():
    x = Tensor(3.0, requires_grad=True)
    (x * x).backward()
    assert x.grad == pytest.approx(6.0)


def test_backward_requires_scalar_root():
    x = Tensor(np.ones(3), requires_grad=True)
    with pytest.raises(ShapeError):
        x.backward()


def test_gradients_accumulate_across_uses_and_calls():
    x = Tensor(2.0, requires_grad=True)
    y = x * x + x * x  # x used twice per term
    y.backward()
    assert x.grad == pytest.approx(8.0)
    (x * x).backward()  # second backward accumulates
    assert x.grad == pytest.approx(12.0)


def test_broadcast_add_backward():
    a = Tensor(np.zeros((3, 4)), requires_grad=True)
    b = Tensor(np.zeros(4), requires_grad=True)
    (a + b).sum().backward()
    np.testing.assert_array_equal(a.grad, np.ones((3, 4)))
    np.testing.assert_array_equal(b.grad, np.full(4, 3.0))


def test_concat_backward():
    a = Tensor(np.ones((2, 2)), requires_grad=True)
    b = Tensor(np.ones((2, 3)), requires_grad=True)
    (concat([a, b], axis=1) * np.arange(10.0).reshape(2, 5)).sum().backward()
    np.testing.assert_array_equal(a.grad, [[0, 1], [5, 6]])
    np.testing.assert_array_equal(b.grad, [[2, 3, 4], [7, 8, 9]])


def test_no_grad_skips_graph():
    x = Tensor(1.0, requires_grad=True)
    with no_grad():
        y = x * x
    assert not y.requires_grad and y._parents == ()


def test_clip_gradient_masks_clamped_entries():
    x = Tensor(np.array([-2.0, 0.5, 2.0]), requires_grad=True)
    x.clip(0.0, 1.0).sum().backward()
    np.testing.assert_array_equal(x.grad, [0.0, 1.0, 0.0])


def test_mean_axis_backward():
    x = Tensor(np.arange(12.0).reshape(3, 4), requires_grad=True)
    x.mean(axis=-1).sum().backward()
    np.testing.assert_allclose(x.grad, np.full((3, 4), 0.25))


# -- engine invariants --------------------------------------------------------

def test_shared_gradient_arrays_accumulate_correctly():
    # y = a + b hands one gradient array to both a and b, and concat hands
    # out views of one array; every parent then gets further contributions
    a = Tensor(np.array([1.0, 2.0]), requires_grad=True)
    b = Tensor(np.array([3.0, 5.0]), requires_grad=True)
    y = a + b
    c = concat([a, b], axis=0)
    w = np.array([1.0, -2.0, 0.5, 4.0])
    loss = (y * y).sum() + (c * w).sum() + (a * 3.0).sum() + (b * b).sum()
    loss.backward()
    yd = a.data + b.data
    np.testing.assert_array_equal(a.grad, 2.0 * yd + w[:2] + 3.0)
    np.testing.assert_array_equal(b.grad, 2.0 * yd + w[2:] + 2.0 * b.data)


def test_held_gradient_unchanged_by_later_backward():
    x = Tensor(np.array([1.0, -2.0]), requires_grad=True)
    (x * x).sum().backward()
    first = x.grad
    snapshot = first.copy()
    (x * x + x * 3.0).sum().backward()     # several contributions to x
    np.testing.assert_array_equal(first, snapshot)
    np.testing.assert_array_equal(x.grad, 4.0 * x.data + 3.0)


def test_backward_frees_intermediate_gradients_only():
    x = Tensor(np.arange(3.0), requires_grad=True)
    w = Tensor(np.ones(3), requires_grad=True)
    h = (x * w).tanh()
    loss = h.sum()
    loss.backward()
    assert h.grad is None and loss.grad is None
    np.testing.assert_allclose(x.grad, 1.0 - np.tanh(x.data) ** 2)
    np.testing.assert_allclose(w.grad, x.data * (1.0 - np.tanh(x.data) ** 2))


def test_training_step_rerun_and_checkpoint_bit_identical(tmp_path):
    from hymad import model as M
    from hymad import train as T
    from hymad.functional import bce_with_logits
    from hymad.optim import AdamW

    cfg = M.ModelConfig(n_filters=4, kernel_len=17, pool_stride=16,
                        conv_stride=4, rnn_hidden=8, d_model=8,
                        mlp_hidden=(16,), input_len=256)
    rng = np.random.default_rng(0)
    x = rng.standard_normal((4, cfg.input_len))
    y = rng.integers(0, 2, (4, cfg.n_labels)).astype(np.float64)

    def step():
        params = M.init_params(cfg, seed=0)
        opt = AdamW(list(params.values()), lr=1e-2)
        bce_with_logits(M.forward_batch(x, cfg, params), y).backward()
        grads = {k: p.grad.copy() for k, p in params.items()}
        opt.step()
        return params, grads

    (p1, g1), (p2, g2) = step(), step()
    for k in p1:
        assert g1[k].tobytes() == g2[k].tobytes(), k
        assert p1[k].data.tobytes() == p2[k].data.tobytes(), k
    path = tmp_path / "step.ckpt"
    T.save_checkpoint(path, cfg, p1)
    loaded = T.load_checkpoint(path, cfg)
    for k in p1:
        assert loaded[k].data.tobytes() == p1[k].data.tobytes(), k
