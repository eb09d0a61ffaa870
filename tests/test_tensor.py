import ast
import sys
from pathlib import Path
from types import MemberDescriptorType

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from hypothesis.extra.numpy import mutually_broadcastable_shapes

import hymad
from hymad.errors import ShapeError
from hymad.tensor import Tensor, concat, no_grad

from oracles import add, clip, grad_check, matmul, tanh


def test_matmul_identity():
    b = Tensor(np.arange(6.0).reshape(2, 3))
    out = matmul(Tensor(np.eye(2)), b)
    np.testing.assert_array_equal(out.data, b.data)


def test_matmul_zeros():
    out = matmul(Tensor(np.zeros((2, 3))), Tensor(np.ones((3, 4))))
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
    got = matmul(Tensor(a), Tensor(b)).data
    np.testing.assert_allclose(got, want, atol=1e-12)


def test_matmul_shape_error():
    with pytest.raises(ShapeError):
        matmul(Tensor(np.ones((2, 3))), Tensor(np.ones((4, 2))))


def test_matmul_rejects_1d_operand():
    a = Tensor(np.ones((2, 3)), requires_grad=True)
    v = Tensor(np.ones(3), requires_grad=True)
    with pytest.raises(ShapeError):
        matmul(a, v)
    with pytest.raises(ShapeError):
        matmul(v, Tensor(np.ones((3, 2))))


def test_matmul_backward():
    rng = np.random.default_rng(1)
    a = Tensor(rng.standard_normal((2, 3)), requires_grad=True)
    b = Tensor(rng.standard_normal((3, 4)), requires_grad=True)
    matmul(a, b).sum().backward()
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
    y = add(x * x, x * x)  # x used twice per term
    y.backward()
    assert x.grad == pytest.approx(8.0)
    (x * x).backward()  # second backward accumulates
    assert x.grad == pytest.approx(12.0)


def test_second_backward_through_a_consumed_graph_raises():
    x = Tensor(np.array([1.0, -2.0]), requires_grad=True)
    y = x * x
    loss = y.sum()
    loss.backward()
    with pytest.raises(RuntimeError, match="already consumed by backward"):
        loss.backward()
    with pytest.raises(RuntimeError, match="already consumed by backward"):
        (y * 3.0).sum().backward()        # a new root over a consumed node
    np.testing.assert_array_equal(x.grad, 2.0 * x.data)
    (x * x).sum().backward()              # a fresh graph still accumulates
    np.testing.assert_array_equal(x.grad, 4.0 * x.data)


def test_broadcast_add_backward():
    a = Tensor(np.zeros((3, 4)), requires_grad=True)
    b = Tensor(np.zeros(4), requires_grad=True)
    add(a, b).sum().backward()
    np.testing.assert_array_equal(a.grad, np.ones((3, 4)))
    np.testing.assert_array_equal(b.grad, np.full(4, 3.0))


@settings(max_examples=40)
@example(op="add", shapes=((3,), (4, 3)), seed=0)   # bias plus positions
@given(op=st.sampled_from(["add", "mul"]),
       shapes=mutually_broadcastable_shapes(num_shapes=2, max_dims=3, max_side=3)
       .map(lambda s: s.input_shapes),
       seed=st.integers(0, 2 ** 32 - 1))
def test_broadcast_gradients_match_finite_differences(op, shapes, seed):
    rng = np.random.default_rng(seed)
    a, b = (Tensor(rng.standard_normal(s), requires_grad=True) for s in shapes)
    w = rng.standard_normal(np.broadcast_shapes(*shapes))

    def f():
        return ((add(a, b) if op == "add" else a * b) * w).sum()

    assert grad_check(f, [a, b])["max_rel_err"] < 1e-6


@pytest.mark.parametrize("op", ["add", "mul"])
@pytest.mark.parametrize("const_first", [False, True], ids=["const-right", "const-left"])
def test_constant_operand_gets_no_gradient(op, const_first):
    # the constant side's gradient is None, not a product the engine drops;
    # the other side's is byte for byte the unbroadcast rule's
    rng = np.random.default_rng(9)
    var = Tensor(rng.standard_normal((3, 4)), requires_grad=True)
    const = Tensor(rng.standard_normal(4))
    a, b = (const, var) if const_first else (var, const)
    out = add(a, b) if op == "add" else a * b
    g = rng.standard_normal((3, 4))
    grads = out._backward(g)
    want = g if op == "add" else g * const.data
    assert grads[0 if const_first else 1] is None
    assert grads[1 if const_first else 0].tobytes() == want.tobytes()


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
    clip(x, 0.0, 1.0).sum().backward()
    np.testing.assert_array_equal(x.grad, [0.0, 1.0, 0.0])


def test_mean_axis_backward():
    x = Tensor(np.arange(12.0).reshape(3, 4), requires_grad=True)
    x.mean(axis=-1).sum().backward()
    np.testing.assert_allclose(x.grad, np.full((3, 4), 0.25))


# What src/hymad calls on a Tensor.  `*` and `sum` have no package caller but
# stay: the tests' scalar roots and the benchmark's tracer use them.
PACKAGE_API = {"backward", "mean", "ndim", "shape"}
ROOT_API = {"__mul__", "sum"}
PACKAGE_DIR = Path(hymad.__file__).resolve().parent


def _public_surface() -> set:
    return {name for name, v in vars(Tensor).items()
            if not isinstance(v, MemberDescriptorType)
            and (not name.startswith("_")
                 or (name.startswith("__") and callable(v)
                     and name not in ("__init__", "__repr__")))}


def test_public_api_is_what_the_package_uses(monkeypatch):
    # record each public method or property the package calls during a
    # training step and a prediction; primitives only the test oracles need
    # live in oracles.py, and a method added back without a package caller
    # fails here
    from hymad import model as M
    from hymad import train as T
    from hymad.optim import AdamW

    seen = set()

    def observed(name, fn):
        def wrapper(*args, **kwargs):
            caller = Path(sys._getframe(1).f_code.co_filename).resolve()
            if caller.parent == PACKAGE_DIR:
                seen.add(name)
            return fn(*args, **kwargs)
        return wrapper

    surface = _public_surface()
    for name in surface:
        attr = vars(Tensor)[name]
        monkeypatch.setattr(Tensor, name, property(observed(name, attr.fget))
                            if isinstance(attr, property) else observed(name, attr))
    cfg = M.ModelConfig(n_filters=4, kernel_len=17, pool_stride=16,
                        conv_stride=4, rnn_hidden=8, d_model=8,
                        mlp_hidden=(16,), input_len=256)
    params = M.init_params(cfg, seed=0)
    rng = np.random.default_rng(0)
    x = rng.standard_normal((3, cfg.input_len))
    y = rng.integers(0, 2, (3, cfg.n_labels)).astype(np.float64)
    T.train_step(x, y, np.arange(3), cfg, params,
                 AdamW(list(params.values()), lr=1e-2))
    T.predict_scores(x, cfg, params)
    assert seen == PACKAGE_API
    assert surface == PACKAGE_API | ROOT_API


def _referenced_names(path: Path) -> set:
    """Names a module uses as a Name, an Attribute or an import alias; text in
    docstrings and comments does not count."""
    refs = set()
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Name):
            refs.add(node.id)
        elif isinstance(node, ast.Attribute):
            refs.add(node.attr)
        elif isinstance(node, ast.alias):
            refs.add(node.name.rsplit(".", 1)[-1])
    return refs


def test_every_public_package_name_has_a_caller():
    # a public module-level function or class that neither the package nor
    # the benchmark references is a test oracle and belongs in oracles.py
    sources = sorted(PACKAGE_DIR.glob("*.py"))
    bench = sorted((PACKAGE_DIR.parents[1] / "perfbench").glob("*.py"))
    refs = set().union(*(_referenced_names(p) for p in sources + bench))
    unused = [f"{p.stem}.{node.name}" for p in sources
              for node in ast.parse(p.read_text()).body
              if isinstance(node, (ast.FunctionDef, ast.ClassDef))
              and not node.name.startswith("_") and node.name not in refs]
    assert unused == []


@pytest.mark.parametrize("axis, keepdims", [(None, False), (0, False), (-1, True)])
def test_mean_is_one_node_equal_to_sum_times_inverse_count(axis, keepdims):
    rng = np.random.default_rng(3)
    a = Tensor(rng.standard_normal((3, 7)), requires_grad=True)
    b = Tensor(a.data.copy(), requires_grad=True)
    m = a.mean(axis=axis, keepdims=keepdims)
    n = a.data.size if axis is None else a.data.shape[axis]
    ref = b.sum(axis=axis, keepdims=keepdims) * (1.0 / n)
    assert m._parents == (a,)
    assert m.data.tobytes() == ref.data.tobytes()
    w = rng.standard_normal(m.shape)
    (m * w).sum().backward()
    (ref * w).sum().backward()
    assert a.grad.tobytes() == b.grad.tobytes()


# -- engine invariants --------------------------------------------------------

def test_shared_gradient_arrays_accumulate_correctly():
    # y = add(a, b) hands one gradient array to both a and b, and concat hands
    # out views of one array; every parent then gets further contributions
    a = Tensor(np.array([1.0, 2.0]), requires_grad=True)
    b = Tensor(np.array([3.0, 5.0]), requires_grad=True)
    y = add(a, b)
    c = concat([a, b], axis=0)
    w = np.array([1.0, -2.0, 0.5, 4.0])
    loss = add(add(add((y * y).sum(), (c * w).sum()), (a * 3.0).sum()),
               (b * b).sum())
    loss.backward()
    yd = a.data + b.data
    np.testing.assert_array_equal(a.grad, 2.0 * yd + w[:2] + 3.0)
    np.testing.assert_array_equal(b.grad, 2.0 * yd + w[2:] + 2.0 * b.data)


def test_held_gradient_unchanged_by_later_backward():
    x = Tensor(np.array([1.0, -2.0]), requires_grad=True)
    (x * x).sum().backward()
    first = x.grad
    snapshot = first.copy()
    add(x * x, x * 3.0).sum().backward()     # several contributions to x
    np.testing.assert_array_equal(first, snapshot)
    np.testing.assert_array_equal(x.grad, 4.0 * x.data + 3.0)


def test_backward_frees_intermediate_gradients_only():
    x = Tensor(np.arange(3.0), requires_grad=True)
    w = Tensor(np.ones(3), requires_grad=True)
    h = tanh(x * w)
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
