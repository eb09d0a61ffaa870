import math

import numpy as np
import pytest

from hymad.errors import ConfigError, ShapeError
from hymad import functional as F
from hymad import model as M
from hymad.optim import grad_check
from hymad.tensor import Tensor, no_grad

from oracles import layer_norm_composed


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
    out = M.add_positional(Tensor(np.zeros((6, 4))))
    np.testing.assert_array_equal(out.data, M.positional_encoding(6, 4))


def test_add_positional_inverse_recovers_input():
    rng = np.random.default_rng(0)
    e = rng.standard_normal((5, 4))
    out = M.add_positional(Tensor(e)).data - M.positional_encoding(5, 4)
    np.testing.assert_allclose(out, e, atol=1e-15)


def test_add_positional_gradient_is_identity():
    e = Tensor(np.zeros((3, 4)), requires_grad=True)
    M.add_positional(e).sum().backward()
    np.testing.assert_array_equal(e.grad, np.ones((3, 4)))


# -- layer norm ---------------------------------------------------------------

def _ln_case(seed, shape):
    rng = np.random.default_rng(seed)
    d = shape[-1]
    leaves = [Tensor(rng.standard_normal(shape) * 3.0 + 1.0, requires_grad=True),
              Tensor(rng.standard_normal(d), requires_grad=True),
              Tensor(rng.standard_normal(d), requires_grad=True)]
    return leaves, rng.standard_normal(shape)


def test_layer_norm_matches_composed_oracle():
    leaves, w = _ln_case(40, (2, 5, 6))
    copies = [Tensor(t.data.copy(), requires_grad=True) for t in leaves]
    fused, composed = M.layer_norm(*leaves), layer_norm_composed(*copies)
    np.testing.assert_allclose(fused.data, composed.data, rtol=0, atol=1e-12)
    (fused * w).sum().backward()
    (composed * w).sum().backward()
    for got, want in zip(leaves, copies):
        np.testing.assert_allclose(got.grad, want.grad, rtol=0, atol=1e-12)


def test_layer_norm_gradient_check():
    leaves, w = _ln_case(41, (3, 4))
    rep = grad_check(lambda: (M.layer_norm(*leaves) * w).sum(), leaves)
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
    out = M.self_attention_block(Tensor(x), p, "self_freq").data
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
    a = M.self_attention_block(Tensor(x), p, "self_freq").data
    b = M.self_attention_block(Tensor(x[perm]), p, "self_freq").data
    np.testing.assert_allclose(a[perm], b, atol=1e-12)


def test_self_attention_matches_composition_oracle():
    d = 4
    p = _attn_params(d, seed=4)
    rng = np.random.default_rng(5)
    x = rng.standard_normal((6, d))
    q = x @ p["self_freq.wq"].data
    k = x @ p["self_freq.wk"].data
    v = x @ p["self_freq.wv"].data
    a = F.attention(Tensor(q), Tensor(k), Tensor(v)).data @ p["self_freq.wo"].data
    z = x + a
    mu = z.mean(axis=-1, keepdims=True)
    var = ((z - mu) ** 2).mean(axis=-1, keepdims=True)
    want = (z - mu) / np.sqrt(var + 1e-6)
    got = M.self_attention_block(Tensor(x), p, "self_freq").data
    np.testing.assert_allclose(got, want, atol=1e-10)


def test_cross_fuse_width_and_oracle():
    d = 4
    p = {**_attn_params(d, 6, "cross_freq"), **_attn_params(d, 7, "cross_temp")}
    rng = np.random.default_rng(8)
    a_f = rng.standard_normal((5, d))
    a_t = rng.standard_normal((5, d))
    out = M.cross_fuse(Tensor(a_f), Tensor(a_t), p).data
    assert out.shape == (5, 2 * d)

    def block(qsrc, kvsrc, prefix):
        q = qsrc @ p[f"{prefix}.wq"].data
        k = kvsrc @ p[f"{prefix}.wk"].data
        v = kvsrc @ p[f"{prefix}.wv"].data
        a = F.attention(Tensor(q), Tensor(k), Tensor(v)).data @ p[f"{prefix}.wo"].data
        z = qsrc + a
        mu = z.mean(axis=-1, keepdims=True)
        var = ((z - mu) ** 2).mean(axis=-1, keepdims=True)
        return (z - mu) / np.sqrt(var + 1e-6)

    want = np.concatenate([block(a_f, a_t, "cross_freq"),
                           block(a_t, a_f, "cross_temp")], axis=-1)
    np.testing.assert_allclose(out, want, atol=1e-10)


def test_cross_fuse_rejects_length_mismatch():
    d = 4
    p = {**_attn_params(d, 6, "cross_freq"), **_attn_params(d, 7, "cross_temp")}
    with pytest.raises(ShapeError):
        M.cross_fuse(Tensor(np.zeros((4, d))), Tensor(np.zeros((5, d))), p)


# -- full forward -------------------------------------------------------------

def test_forward_output_shape():
    cfg = tiny_cfg()
    p = M.init_params(cfg, seed=0)
    x = np.random.default_rng(9).standard_normal(256)
    out = M.forward(Tensor(x), cfg, p)
    assert out.shape == (4,)


def test_forward_batch_consistent_with_single():
    cfg = tiny_cfg()
    p = M.init_params(cfg, seed=1)
    rng = np.random.default_rng(10)
    xb = rng.standard_normal((3, 256))
    with no_grad():
        batched = M.forward_batch(xb, cfg, p).data
        for i in range(3):
            single = M.forward(Tensor(xb[i]), cfg, p).data
            np.testing.assert_allclose(batched[i], single, atol=1e-12)


def test_forward_deterministic():
    cfg = tiny_cfg()
    p = M.init_params(cfg, seed=2)
    x = np.random.default_rng(11).standard_normal(256)
    with no_grad():
        a = M.forward(Tensor(x), cfg, p).data
        b = M.forward(Tensor(x), cfg, p).data
    assert a.tobytes() == b.tobytes()


def test_forward_rejects_wrong_length():
    cfg = tiny_cfg()
    p = M.init_params(cfg, seed=3)
    with pytest.raises(ConfigError):
        M.forward(Tensor(np.zeros(255)), cfg, p)


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
        a = M.forward(Tensor(x), cfg, p).data
        b = M.forward(Tensor(shifted), cfg, p).data
    assert np.max(np.abs(a - b)) > 1e-6


def test_fusion_mode_widths():
    for mode, width in (("cross_attention", 16), ("concat", 16),
                        ("freq_only", 8), ("temp_only", 8)):
        cfg = tiny_cfg(fusion_mode=mode)
        assert cfg.fused_width == width
        p = M.init_params(cfg, seed=6)
        with no_grad():
            out = M.forward(Tensor(np.zeros(256)), cfg, p)
        assert out.shape == (4,)


def test_multihead_runs_and_differs_from_single_head():
    x = np.random.default_rng(14).standard_normal(256)
    with no_grad():
        outs = []
        for heads in (1, 2):
            cfg = tiny_cfg(n_heads=heads)
            p = M.init_params(cfg, seed=7)
            outs.append(M.forward(Tensor(x), cfg, p).data)
    assert np.max(np.abs(outs[0] - outs[1])) > 1e-9


def test_plain_frontend_forward():
    cfg = tiny_cfg(frontend="plain")
    p = M.init_params(cfg, seed=8)
    assert "plain0.kernels" in p
    with no_grad():
        out = M.forward(Tensor(np.zeros(256)), cfg, p)
    assert out.shape == (4,)


def test_multiscale_branches():
    cfg = tiny_cfg(branches=2, branch_lens=(9, 17))
    assert cfg.c_total == 8
    p = M.init_params(cfg, seed=9)
    with no_grad():
        out = M.forward(Tensor(np.random.default_rng(15).standard_normal(256)),
                        cfg, p)
    assert out.shape == (4,)


# -- predict ------------------------------------------------------------------

def test_predict_thresholding():
    got = M.predict(np.array([2.0, -2.0, 0.1, -0.1]), 0.5)
    np.testing.assert_array_equal(got, [1, 0, 1, 0])


def test_predict_all_negative_empty_set():
    got = M.predict(np.array([-5.0, -5.0, -5.0, -5.0]), 0.5)
    assert got.sum() == 0


def test_predict_boundary_is_strict():
    got = M.predict(np.array([0.0]), 0.5)
    assert got[0] == 0


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
