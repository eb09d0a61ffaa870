import math
import weakref
from dataclasses import fields

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from hymad.datagen import CLASSES
from hymad.errors import ConfigError, NumericError, ShapeError
from hymad import functional as F
from hymad import model as M
from hymad.tensor import Tensor, _consumed, no_grad

from oracles import (add_positional, attention, attention_block_composed,
                     grad_check, standardize_composed)


def tiny_cfg(**kw):
    base = dict(n_filters=4, kernel_len=17, pool_stride=4, conv_stride=4, rnn_hidden=8,
                d_model=8, mlp_hidden=(16, 8), input_len=256)
    base.update(kw)
    return M.ModelConfig(**base).validate()


# -- positional encoding ------------------------------------------------------

def test_posenc_row_zero():
    p = M.positional_encoding(5, 6)
    np.testing.assert_array_equal(p[0, 0::2], np.zeros(3))
    np.testing.assert_array_equal(p[0, 1::2], np.ones(3))


def test_posenc_first_column_is_sin_t():
    p = M.positional_encoding(7, 4)
    np.testing.assert_allclose(p[:, 0], np.sin(np.arange(7.0)), atol=1e-15)


def test_posenc_direct_evaluation():
    p = M.positional_encoding(3, 4)
    assert p[1, 2] == pytest.approx(math.sin(1.0 / 10000.0 ** 0.5), abs=1e-15)


def test_posenc_rejects_odd_width():
    with pytest.raises(ConfigError):
        M.positional_encoding(4, 5)


def test_add_positional_zero_input_gives_p():
    out = add_positional(Tensor(np.zeros((6, 4))))
    np.testing.assert_array_equal(out.data, M.positional_encoding(6, 4))


def test_add_positional_inverse_recovers_input():
    rng = np.random.default_rng(0)
    e = rng.standard_normal((5, 4))
    out = add_positional(Tensor(e)).data - M.positional_encoding(5, 4)
    np.testing.assert_allclose(out, e, atol=1e-15)


def test_add_positional_gradient_is_identity():
    e = Tensor(np.zeros((3, 4)), requires_grad=True)
    add_positional(e).sum().backward()
    np.testing.assert_array_equal(e.grad, np.ones((3, 4)))


# -- standardiser -------------------------------------------------------------

def test_layer_norm_matches_composed_oracle():
    # the frontend's standardiser is a layer norm over each sample's entries
    rng = np.random.default_rng(40)
    y = Tensor(rng.standard_normal((2, 5, 6)) * 3.0 + 1.0, requires_grad=True)
    y2 = Tensor(y.data.copy(), requires_grad=True)
    w = rng.standard_normal(y.shape)
    fused, composed = M.standardize(y, 1e-8), standardize_composed(y2, 1e-8)
    assert fused._parents == (y,)
    np.testing.assert_allclose(fused.data, composed.data, rtol=0, atol=1e-12)
    (fused * w).sum().backward()
    (composed * w).sum().backward()
    np.testing.assert_allclose(y.grad, y2.grad, rtol=0, atol=1e-12)


def test_layer_norm_gradient_check():
    rng = np.random.default_rng(41)
    y = Tensor(rng.standard_normal((3, 2, 4)), requires_grad=True)
    w = rng.standard_normal(y.shape)
    rep = grad_check(lambda: (M.standardize(y, 1e-8) * w).sum(), [y])
    assert rep["max_rel_err"] < 1e-6


# -- attention blocks ---------------------------------------------------------

def _attn_params(d, seed=0, prefix="self_freq"):
    rng = np.random.default_rng(seed)
    p = {}
    for name in ("wq", "wk", "wv", "wo"):
        p[f"{prefix}.{name}"] = Tensor(rng.standard_normal((d, d)) * 0.3,
                                       requires_grad=True)
    p[f"{prefix}.ln_g"] = Tensor(np.ones(d), requires_grad=True)
    p[f"{prefix}.ln_b"] = Tensor(np.zeros(d), requires_grad=True)
    return p


def test_self_attention_single_element():
    d = 4
    p = _attn_params(d)
    x = np.random.default_rng(1).standard_normal((1, d))
    out = M.self_attention_block(Tensor(x[None]), p, "self_freq").data[0]
    attn = x @ p["self_freq.wv"].data @ p["self_freq.wo"].data
    z = x + attn
    mu, sd = z.mean(), z.std()
    np.testing.assert_allclose(out, (z - mu) / math.sqrt(sd ** 2 + 1e-6), atol=1e-10)


def test_self_attention_permutation_equivariant_without_posenc():
    d = 6
    p = _attn_params(d, seed=2)
    rng = np.random.default_rng(3)
    x = rng.standard_normal((5, d))
    perm = rng.permutation(5)
    a = M.self_attention_block(Tensor(x[None]), p, "self_freq").data[0]
    b = M.self_attention_block(Tensor(x[None, perm]), p, "self_freq").data[0]
    np.testing.assert_allclose(a[perm], b, atol=1e-12)


def test_self_attention_matches_composition_oracle():
    d = 4
    p = _attn_params(d, seed=4)
    rng = np.random.default_rng(5)
    x = rng.standard_normal((6, d))
    q = x @ p["self_freq.wq"].data
    k = x @ p["self_freq.wk"].data
    v = x @ p["self_freq.wv"].data
    a = attention(Tensor(q), Tensor(k), Tensor(v)).data @ p["self_freq.wo"].data
    z = x + a
    mu = z.mean(axis=-1, keepdims=True)
    var = ((z - mu) ** 2).mean(axis=-1, keepdims=True)
    want = (z - mu) / np.sqrt(var + 1e-6)
    got = M.self_attention_block(Tensor(x[None]), p, "self_freq").data[0]
    np.testing.assert_allclose(got, want, atol=1e-10)


def test_cross_fuse_width_and_oracle():
    d = 4
    p = {**_attn_params(d, 6, "cross_freq"), **_attn_params(d, 7, "cross_temp")}
    rng = np.random.default_rng(8)
    a_f = rng.standard_normal((5, d))
    a_t = rng.standard_normal((5, d))
    out = M.cross_fuse(Tensor(a_f[None]), Tensor(a_t[None]), p).data
    assert out.shape == (1, 5, 2 * d)

    def block(qsrc, kvsrc, prefix):
        q = qsrc @ p[f"{prefix}.wq"].data
        k = kvsrc @ p[f"{prefix}.wk"].data
        v = kvsrc @ p[f"{prefix}.wv"].data
        a = attention(Tensor(q), Tensor(k), Tensor(v)).data @ p[f"{prefix}.wo"].data
        z = qsrc + a
        mu = z.mean(axis=-1, keepdims=True)
        var = ((z - mu) ** 2).mean(axis=-1, keepdims=True)
        return (z - mu) / np.sqrt(var + 1e-6)

    want = np.concatenate([block(a_f, a_t, "cross_freq"),
                           block(a_t, a_f, "cross_temp")], axis=-1)
    np.testing.assert_allclose(out[0], want, atol=1e-10)


def test_cross_fuse_rejects_length_mismatch():
    d = 4
    p = {**_attn_params(d, 6, "cross_freq"), **_attn_params(d, 7, "cross_temp")}
    with pytest.raises(ShapeError):
        M.cross_fuse(Tensor(np.zeros((1, 4, d))), Tensor(np.zeros((1, 5, d))), p)


def _block_case(rng, bsz, t_len, d, cross, prefix="blk"):
    """Random block parameters with a non-trivial gain and bias, the query
    stream and the key/value stream (the same tensor for self-attention)."""
    p = {f"{prefix}.{n}": Tensor(rng.standard_normal((d, d)) * 0.5, requires_grad=True)
         for n in ("wq", "wk", "wv", "wo")}
    p[f"{prefix}.ln_g"] = Tensor(rng.standard_normal(d), requires_grad=True)
    p[f"{prefix}.ln_b"] = Tensor(rng.standard_normal(d), requires_grad=True)
    x = Tensor(rng.standard_normal((bsz, t_len, d)), requires_grad=True)
    kv = Tensor(rng.standard_normal((bsz, t_len, d)), requires_grad=True) if cross else x
    return p, x, kv


def _assert_block_matches_oracle(rng, bsz, t_len, d, n_heads, cross, scaled=False):
    """Forward and all eight parent gradients within 1e-12; `scaled` takes
    that tolerance relative to the largest entry when it exceeds 1."""
    def close(got, want):
        atol = 1e-12 * (max(1.0, np.abs(want).max()) if scaled else 1.0)
        np.testing.assert_allclose(got, want, rtol=0, atol=atol)

    p, x, kv = _block_case(rng, bsz, t_len, d, cross)
    leaves = [x, kv, *p.values()]
    w = rng.standard_normal((bsz, t_len, d))
    fused = M.attention_block(x, kv, p, "blk", n_heads)
    (fused * w).sum().backward()
    got = [t.grad for t in leaves]
    for t in leaves:
        t.grad = None
    composed = attention_block_composed(x, kv, p, "blk", n_heads)
    (composed * w).sum().backward()
    close(fused.data, composed.data)
    for g, t in zip(got, leaves):
        close(g, t.grad)


@pytest.mark.parametrize("cross", [False, True], ids=["self", "cross"])
@pytest.mark.parametrize("n_heads", [1, 2])
def test_attention_block_matches_composed_oracle(cross, n_heads):
    _assert_block_matches_oracle(np.random.default_rng(30 + n_heads), 17, 5, 8,
                                 n_heads, cross)


@settings(max_examples=15)
@given(st.integers(1, 20), st.integers(1, 6),
       st.sampled_from([(4, 1), (4, 2), (6, 3), (8, 4)]), st.booleans(),
       st.integers(0, 2 ** 32 - 1))
def test_attention_block_matches_oracle_over_shapes(bsz, t_len, d_heads, cross, seed):
    # d >= 4: over d = 2 a layer norm's output is +-1 whatever its input, and
    # its backward is all rounding error; small-variance rows still give
    # gradients in the hundreds, hence the scaled tolerance
    d, n_heads = d_heads
    _assert_block_matches_oracle(np.random.default_rng(seed), bsz, t_len, d,
                                 n_heads, cross, scaled=True)


def _reachable_arrays(fn) -> list:
    """The arrays a closure's cells reach through lists, tuples, tensors' data
    and views' bases."""
    found, stack = [], [c.cell_contents for c in fn.__closure__]
    while stack:
        obj = stack.pop()
        if isinstance(obj, Tensor):
            stack.append(obj.data)
        elif isinstance(obj, (list, tuple)):
            stack.extend(obj)
        elif isinstance(obj, np.ndarray):
            found.append(obj)
            if obj.base is not None:
                stack.append(obj.base)
    return found


@pytest.mark.parametrize("cross", [False, True], ids=["self", "cross"])
def test_attention_closures_hold_one_probability_matrix(cross):
    # the nodes keep the forward's P [B, h, T, T] for the backward, and
    # nothing else of that size
    bsz, t_len, n_heads = 20, 12, 2
    p, x, kv = _block_case(np.random.default_rng(42), bsz, t_len, 4, cross)
    q = Tensor(x.data.reshape(bsz, t_len, n_heads, 2).transpose(0, 2, 1, 3),
               requires_grad=True)
    p_size = bsz * n_heads * t_len * t_len
    for node in (M.attention_block(x, kv, p, "blk", n_heads),
                 attention(q, q, q)):
        arrays = {id(a): a for a in _reachable_arrays(node._backward)}
        sizes = sorted(a.size for a in arrays.values())
        assert sizes[-1] == p_size and sizes[-2] < p_size


@pytest.mark.parametrize("cross", [False, True], ids=["self", "cross"])
def test_attention_block_gradient_check(cross):
    rng = np.random.default_rng(34)
    p, x, kv = _block_case(rng, 2, 3, 4, cross)
    w = rng.standard_normal((2, 3, 4))
    leaves = [x, *p.values()] + ([kv] if cross else [])
    rep = grad_check(lambda: (M.attention_block(x, kv, p, "blk", 2) * w).sum(), leaves)
    assert rep["max_rel_err"] < 1e-6


def test_attention_block_nan_input_raises():
    p, x, kv = _block_case(np.random.default_rng(35), 2, 3, 4, cross=True)
    kv.data[1, 2, 0] = np.nan
    with pytest.raises(NumericError):
        M.attention_block(x, kv, p, "blk", 1)


def _graph_nodes(root) -> list:
    seen, nodes, stack = set(), [], [root]
    while stack:
        node = stack.pop()
        if id(node) not in seen:
            seen.add(id(node))
            nodes.append(node)
            stack.extend(node._parents)
    return nodes


@pytest.mark.parametrize("overrides, limit", [
    ({}, 56), ({"branches": 3}, 67), ({"fusion_mode": "concat"}, 42),
], ids=["default-56", "branches3-67", "concat-42"])
def test_training_graph_size(overrides, limit):
    # each sinc bank, attention block, affine layer (with its bias and
    # positional table), the frontend energy and its standardiser is one
    # node; a change that splits one back into primitives grows the graph
    # past the limit
    cfg = M.ModelConfig(**overrides)
    p = M.init_params(cfg, seed=0)
    x = np.random.default_rng(36).standard_normal((2, cfg.input_len))
    loss = F.bce_with_logits(M.forward_batch(x, cfg, p), np.eye(4)[:2])
    assert len(_graph_nodes(loss)) <= limit


def _captured(fn) -> dict:
    """The variables a closure captured, by name."""
    return dict(zip(fn.__code__.co_freevars,
                    (c.cell_contents for c in fn.__closure__)))


def test_backward_releases_the_graph():
    cfg = tiny_cfg()
    p = M.init_params(cfg, seed=0)
    x = np.random.default_rng(37).standard_normal((2, cfg.input_len))
    loss = F.bce_with_logits(M.forward_batch(x, cfg, p), np.eye(4)[:2])
    interior = [n for n in _graph_nodes(loss) if n._parents]
    blocks = [n._backward for n in interior
              if n._backward.__qualname__.startswith("attention_block.")]
    assert len(blocks) == 4
    saved = [weakref.ref(_captured(fn)[name]) for fn in blocks
             for name in ("proj", "o", "xhat", "p")]
    del blocks
    loss.backward()
    assert all(n._parents == () and n._backward is _consumed for n in interior)
    assert [r() for r in saved] == [None] * len(saved)
    assert all(t.grad is not None for t in p.values())


# -- full forward -------------------------------------------------------------

def test_forward_output_shape():
    cfg = tiny_cfg()
    p = M.init_params(cfg, seed=0)
    x = np.random.default_rng(9).standard_normal(256)
    out = M.forward_batch(Tensor(x[None]), cfg, p)
    assert out.shape == (1, 4)


def test_forward_batch_consistent_with_single():
    cfg = tiny_cfg()
    p = M.init_params(cfg, seed=1)
    rng = np.random.default_rng(10)
    xb = rng.standard_normal((3, 256))
    with no_grad():
        batched = M.forward_batch(xb, cfg, p).data
        for i in range(3):
            single = M.forward_batch(Tensor(xb[i][None]), cfg, p).data
            np.testing.assert_allclose(batched[i], single[0], atol=1e-12)


def test_forward_deterministic():
    cfg = tiny_cfg()
    p = M.init_params(cfg, seed=2)
    x = np.random.default_rng(11).standard_normal(256)
    with no_grad():
        a = M.forward_batch(Tensor(x[None]), cfg, p).data
        b = M.forward_batch(Tensor(x[None]), cfg, p).data
    assert a.tobytes() == b.tobytes()


def test_forward_rejects_wrong_length():
    cfg = tiny_cfg()
    p = M.init_params(cfg, seed=3)
    with pytest.raises(ConfigError):
        M.forward_batch(Tensor(np.zeros((1, 255))), cfg, p)


def test_logits_finite_for_random_draws():
    cfg = tiny_cfg()
    p = M.init_params(cfg, seed=4)
    rng = np.random.default_rng(12)
    with no_grad():
        x = rng.standard_normal((100, 256)) * rng.uniform(0.1, 10, (100, 1))
        out = M.forward_batch(x, cfg, p).data
    assert np.isfinite(out).all()


def test_circular_shift_changes_logits_with_posenc():
    cfg = tiny_cfg()
    p = M.init_params(cfg, seed=5)
    rng = np.random.default_rng(13)
    x = rng.standard_normal(256)
    shifted = np.roll(x, 256 // 2)
    with no_grad():
        a = M.forward_batch(Tensor(x[None]), cfg, p).data
        b = M.forward_batch(Tensor(shifted[None]), cfg, p).data
    assert np.max(np.abs(a - b)) > 1e-6


def test_fusion_mode_widths():
    for mode, width in (("cross_attention", 16), ("concat", 16),
                        ("freq_only", 8), ("temp_only", 8)):
        cfg = tiny_cfg(fusion_mode=mode)
        assert cfg.fused_width == width
        p = M.init_params(cfg, seed=6)
        with no_grad():
            out = M.forward_batch(Tensor(np.zeros((1, 256))), cfg, p)
        assert out.shape == (1, 4)


def test_multihead_runs_and_differs_from_single_head():
    x = np.random.default_rng(14).standard_normal(256)
    with no_grad():
        outs = []
        for heads in (1, 2):
            cfg = tiny_cfg(n_heads=heads)
            p = M.init_params(cfg, seed=7)
            outs.append(M.forward_batch(Tensor(x[None]), cfg, p).data)
    assert np.max(np.abs(outs[0] - outs[1])) > 1e-9


def test_plain_frontend_forward():
    cfg = tiny_cfg(frontend="plain")
    p = M.init_params(cfg, seed=8)
    assert "plain0.kernels" in p
    with no_grad():
        out = M.forward_batch(Tensor(np.zeros((1, 256))), cfg, p)
    assert out.shape == (1, 4)


def test_multiscale_branches():
    cfg = tiny_cfg(branches=2, branch_lens=(9, 17))
    assert cfg.c_total == 8
    p = M.init_params(cfg, seed=9)
    with no_grad():
        out = M.forward_batch(
            Tensor(np.random.default_rng(15).standard_normal((1, 256))), cfg, p)
    assert out.shape == (1, 4)


def test_config_validation_errors():
    with pytest.raises(ConfigError):
        tiny_cfg(d_model=7)
    with pytest.raises(ConfigError):
        tiny_cfg(n_heads=3)
    with pytest.raises(ConfigError):
        tiny_cfg(threshold=1.5)
    with pytest.raises(ConfigError):
        tiny_cfg(pool_stride=7)
    with pytest.raises(ConfigError):
        tiny_cfg(fusion_mode="bogus")


def test_config_requires_one_label_per_class():
    # the label count follows the class list; no config can set it
    cfg = tiny_cfg()
    assert cfg.n_labels == len(CLASSES)
    assert "n_labels" not in {f.name for f in fields(cfg)}
    assert M.init_params(cfg)["mlp.w2"].shape == (8, len(CLASSES))
    with pytest.raises(TypeError):
        tiny_cfg(n_labels=3)


def test_config_checks_sinc_kernel_length():
    with pytest.raises(ConfigError, match=">= 3"):
        tiny_cfg(kernel_len=1)
    with pytest.raises(ConfigError, match=">= 3"):
        tiny_cfg(branches=2, branch_lens=(1, 17))
    assert tiny_cfg(frontend="plain", kernel_len=1).kernel_lens() == (1,)
