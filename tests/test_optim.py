import math

import numpy as np
import pytest

from hymad.errors import NumericError
from hymad.optim import AdamW
from hymad.tensor import Tensor

from oracles import grad_check, tanh


def test_zero_grad_zero_decay_leaves_parameter():
    p = Tensor(np.array([1.0, -2.0]), requires_grad=True)
    p.grad = np.zeros(2)
    AdamW([p], lr=0.01, weight_decay=0.0).step()
    np.testing.assert_array_equal(p.data, [1.0, -2.0])


def test_one_step_hand_trace():
    p = Tensor(np.array([1.0]), requires_grad=True)
    p.grad = np.array([1.0])
    AdamW([p], lr=0.01, weight_decay=0.0).step()
    # bias-corrected m_hat = v_hat = 1 -> theta = 1 - 0.01/(1 + eps)
    assert p.data[0] == pytest.approx(1.0 - 0.01 / (1.0 + 1e-8), abs=1e-15)


def test_decoupled_decay_definition():
    p = Tensor(np.array([5.0]), requires_grad=True)
    p.grad = np.array([0.0])
    AdamW([p], lr=0.01, weight_decay=0.1).step()
    assert p.data[0] == pytest.approx(5.0 * (1.0 - 0.001), abs=1e-15)


def test_lr_zero_bit_identical():
    rng = np.random.default_rng(0)
    p = Tensor(rng.standard_normal(10), requires_grad=True)
    before = p.data.tobytes()
    opt = AdamW([p], lr=0.0, weight_decay=0.01)
    for _ in range(5):
        p.grad = rng.standard_normal(10)
        opt.step()
    assert p.data.tobytes() == before


def test_nan_gradient_aborts():
    p = Tensor(np.array([1.0]), requires_grad=True)
    p.grad = np.array([np.nan])
    with pytest.raises(NumericError):
        AdamW([p]).step()


def test_grad_check_quadratic_exact():
    x = Tensor(np.array([1.0, -2.0, 3.0]), requires_grad=True)
    rep = grad_check(lambda: (x * x).sum(), [x])
    assert rep["max_rel_err"] <= 1e-8


def test_grad_check_tanh_chain():
    x = Tensor(np.array([0.3, -0.7]), requires_grad=True)
    rep = grad_check(lambda: (tanh(tanh(x)) * np.array([1.0, 2.0])).sum(), [x])
    assert rep["max_rel_err"] <= 1e-6


def test_grad_check_rejects_bad_eps():
    x = Tensor(np.array([1.0]), requires_grad=True)
    with pytest.raises(ValueError):
        grad_check(lambda: (x * x).sum(), [x], eps=0.0)


def test_grad_check_reports_per_param():
    x = Tensor(np.array([1.0]), requires_grad=True)
    y = Tensor(np.array([2.0]), requires_grad=True)
    rep = grad_check(lambda: (x * y).sum(), [x, y])
    assert len(rep["per_param"]) == 2
    assert all(err <= 1e-8 for _, err in rep["per_param"])
