"""Full detector graph: sinc frontend, RNN encoder, attention fusion, MLP head.

The frequency stream projects pooled band-filter outputs to the common model
width; the temporal stream runs an RNN over the same pooled features.  Both
get sinusoidal positional encodings, per-stream self-attention, then either
bidirectional cross-attention or one of the ablation fusion modes, and a
mean-pooled MLP produces one unactivated logit per label.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, asdict

import numpy as np

from hymad.datagen import CLASSES
from hymad.errors import ConfigError, ShapeError
from hymad import functional as F
from hymad.sincnet import bank_kernels, init_filterbank
from hymad.tensor import Tensor, concat

FUSION_MODES = ("cross_attention", "concat", "freq_only", "temp_only")
FRONTENDS = ("sinc", "plain")


@dataclass
class ModelConfig:
    n_filters: int = 32            # filters per frontend branch
    kernel_len: int = 129          # used when branches == 1
    branches: int = 1
    branch_lens: tuple = (65, 129, 251)
    pool_stride: int = 64
    conv_stride: int = 8           # frontend conv evaluation stride
    rnn_hidden: int = 64
    d_model: int = 64
    n_heads: int = 1
    mlp_hidden: tuple = (256, 128)
    fusion_mode: str = "cross_attention"
    threshold: float = 0.5
    input_len: int = 8000
    frontend: str = "sinc"
    n_labels = len(CLASSES)        # one logit per class; not a field

    def validate(self):
        for name in ("n_filters", "branches", "pool_stride", "rnn_hidden",
                     "d_model", "n_heads", "input_len"):
            if getattr(self, name) < 1:
                raise ConfigError(
                    f"model.{name} must be >= 1, got {getattr(self, name)}")
        for name in ("mlp_hidden", "branch_lens"):
            if not all(isinstance(v, int) for v in getattr(self, name)):
                raise ConfigError(f"model.{name} entries must be integers, "
                                  f"got {getattr(self, name)}")
        if any(h < 1 for h in self.mlp_hidden):
            raise ConfigError(
                f"model.mlp_hidden widths must be >= 1, got {self.mlp_hidden}")
        if self.branches > len(self.branch_lens):
            raise ConfigError(
                f"model.branches ({self.branches}) exceeds the "
                f"{len(self.branch_lens)} branch_lens")
        if self.d_model % 2 != 0:
            raise ConfigError(f"model.d_model must be even, got {self.d_model}")
        if self.d_model % self.n_heads != 0:
            raise ConfigError(
                f"model.n_heads ({self.n_heads}) must divide d_model ({self.d_model})")
        if not (0.0 < self.threshold < 1.0):
            raise ConfigError(f"model.threshold must lie in (0, 1), got {self.threshold}")
        for name, allowed in (("fusion_mode", FUSION_MODES),
                              ("frontend", FRONTENDS)):
            if getattr(self, name) not in allowed:
                raise ConfigError(f"model.{name} must be one of {allowed}")
        if self.input_len % self.pool_stride != 0:
            raise ConfigError(
                f"model.pool_stride ({self.pool_stride}) must divide "
                f"input_len ({self.input_len})")
        if self.conv_stride < 1 or self.pool_stride % self.conv_stride != 0:
            raise ConfigError(
                f"model.conv_stride ({self.conv_stride}) must divide "
                f"pool_stride ({self.pool_stride})")
        name = "kernel_len" if self.branches == 1 else "branch_lens"
        for l in self.kernel_lens():
            if l % 2 != 1 or l < 1:
                raise ConfigError(f"model.{name} must be odd and >= 1, got {l}")
            if self.frontend == "sinc" and l < 3:
                raise ConfigError(f"model.{name} must be >= 3 for sinc, got {l}")
        return self

    def kernel_lens(self) -> tuple:
        if self.branches == 1:
            return (self.kernel_len,)
        return tuple(self.branch_lens[:self.branches])

    @property
    def c_total(self) -> int:
        return self.n_filters * len(self.kernel_lens())

    @property
    def fused_width(self) -> int:
        return 2 * self.d_model if self.fusion_mode in ("cross_attention", "concat") \
            else self.d_model

    def canonical(self) -> str:
        return "\n".join(f"{k} = {v}" for k, v in sorted(asdict(self).items()))

    def digest(self) -> str:
        import hashlib
        return hashlib.sha256(self.canonical().encode()).hexdigest()


def positional_encoding(t_len: int, d_model: int) -> np.ndarray:
    """Deterministic sinusoidal positions, [T, d_model]; d_model must be even."""
    if d_model % 2 != 0:
        raise ConfigError(f"d_model must be even for positional encoding, got {d_model}")
    t = np.arange(t_len, dtype=np.float64)[:, None]
    i = np.arange(d_model // 2, dtype=np.float64)[None, :]
    arg = t / np.power(10000.0, 2.0 * i / d_model)
    p = np.empty((t_len, d_model))
    p[:, 0::2] = np.sin(arg)
    p[:, 1::2] = np.cos(arg)
    return p


def _normalize_(z: np.ndarray, eps: float) -> np.ndarray:
    """Centre the last axis of `z` and scale it to unit variance, in place;
    returns 1 / sqrt(var + eps)."""
    z -= z.mean(axis=-1, keepdims=True)
    inv = 1.0 / np.sqrt((z * z).mean(axis=-1, keepdims=True) + eps)
    z *= inv
    return inv


def _layer_norm_back(gg: np.ndarray, xhat: np.ndarray, inv: np.ndarray) -> np.ndarray:
    """The input gradient of layer norm, from gg = g * gain."""
    gx = gg - gg.mean(axis=-1, keepdims=True)
    gx -= xhat * (gg * xhat).mean(axis=-1, keepdims=True)
    gx *= inv
    return gx


def standardize(y: Tensor, eps: float) -> Tensor:
    """Each sample of `y` [B, ...] centred and scaled to unit variance over all
    of its entries, one node."""
    xhat = y.data.reshape(y.shape[0], -1).copy()
    inv = _normalize_(xhat, eps)
    return Tensor._result(
        xhat.reshape(y.shape), (y,),
        lambda g: (_layer_norm_back(g.reshape(xhat.shape), xhat, inv)
                   .reshape(y.shape),))


def attention_block(x: Tensor, kv: Tensor, params: dict, prefix: str,
                    n_heads: int) -> Tensor:
    """layer_norm(x + MHA(x, kv)) over [B, T, d] streams, as one node.

    Queries come from `x`, keys and values from `kv` (self-attention when
    `kv is x`).  The input projection is one [d, 3d] matrix
    [Wq / sqrt(d_k) | Wk | Wv], applied as one GEMM for self-attention and as
    two (queries, keys and values) for cross-attention; heads are strided
    views of its output.  Attention runs over the whole batch at once, with
    the softmax probabilities in one [B, h, T, T] buffer, so the caller
    bounds the rows and with them that buffer.  The node saves the
    projections, the probabilities, the attention output and the normalised
    residual, which are all the backward needs.
    """
    x, kv = Tensor._coerce(x), Tensor._coerce(kv)
    if kv.shape != x.shape:
        raise ShapeError(f"stream shapes differ: {x.shape} vs {kv.shape}")
    wq, wk, wv, wo, gain, bias = (params[f"{prefix}.{n}"] for n in
                                  ("wq", "wk", "wv", "wo", "ln_g", "ln_b"))
    bsz, t_len, d = x.shape
    d_k = d // n_heads
    scale = 1.0 / math.sqrt(d_k)
    w_in = np.concatenate([wq.data * scale, wk.data, wv.data], axis=1)
    # (input, projection columns it feeds): queries, then keys and values
    x2 = x.data.reshape(-1, d)
    spans = [(x2, slice(None))] if kv is x else \
        [(x2, slice(0, d)), (kv.data.reshape(-1, d), slice(d, None))]

    def heads(a, col):
        """Columns col:col+d of [B, T, n*d] `a` as a [B, h, T, d_k] view."""
        return a[..., col:col + d].reshape(bsz, t_len, n_heads, d_k) \
            .transpose(0, 2, 1, 3)

    proj = np.empty((bsz, t_len, 3 * d))
    for src, cols in spans:
        np.matmul(src, w_in[:, cols], out=proj.reshape(-1, 3 * d)[:, cols])
    qkv = [heads(proj, c) for c in (0, d, 2 * d)]
    o = np.empty((bsz, t_len, d))
    o_h = heads(o, 0)
    p = np.empty((bsz, n_heads, t_len, t_len))
    F.sdpa_forward(*qkv, p, o_h)
    xhat = (o.reshape(-1, d) @ wo.data).reshape(x.shape)
    xhat += x.data
    inv = _normalize_(xhat, 1e-6)

    def back(g):
        gz = _layer_norm_back(g * gain.data, xhat, inv)
        gz2 = gz.reshape(-1, d)
        g_gain = (g * xhat).reshape(-1, d).sum(axis=0)
        g_wo = o.reshape(-1, d).T @ gz2
        go_h = heads((gz2 @ wo.data.T).reshape(x.shape), 0)
        gproj = np.empty_like(proj)
        gqkv = [heads(gproj, c) for c in (0, d, 2 * d)]
        F.sdpa_backward(*qkv, p, o_h, go_h, *gqkv)
        gp2 = gproj.reshape(-1, 3 * d)
        g_w = np.empty_like(w_in)
        g_src = []
        for src, cols in spans:
            np.matmul(src.T, gp2[:, cols], out=g_w[:, cols])
            g_src.append((gp2[:, cols] @ w_in[:, cols].T).reshape(x.shape))
        g_src[0] += gz
        g_w[:, :d] *= scale
        return (g_src[0], g_src[1] if len(g_src) > 1 else None,
                g_w[:, :d], g_w[:, d:2 * d], g_w[:, 2 * d:], g_wo, g_gain,
                g.reshape(-1, d).sum(axis=0))

    out = xhat * gain.data
    out += bias.data
    return Tensor._result(out, (x, kv, wq, wk, wv, wo, gain, bias), back)


def self_attention_block(x: Tensor, params: dict, prefix: str,
                         n_heads: int = 1) -> Tensor:
    """Self-attention over [B, T, d] with residual connection and layer norm."""
    x = Tensor._coerce(x)
    return attention_block(x, x, params, prefix, n_heads)


def cross_fuse(a_freq: Tensor, a_temp: Tensor, params: dict,
               n_heads: int = 1) -> Tensor:
    """Bidirectional cross-attention over two [B, T, d] streams; the output
    [B, T, 2d] is the freq-then-temp concatenation."""
    a_freq, a_temp = Tensor._coerce(a_freq), Tensor._coerce(a_temp)
    return concat([attention_block(a_freq, a_temp, params, "cross_freq", n_heads),
                   attention_block(a_temp, a_freq, params, "cross_temp", n_heads)],
                  axis=-1)


def init_params(cfg: ModelConfig, seed: int = 0) -> dict[str, Tensor]:
    """All learnable parameters the configuration needs, keyed by name."""
    cfg.validate()
    rng = np.random.default_rng(seed)

    def mat(fan_in, fan_out):
        scale = math.sqrt(2.0 / (fan_in + fan_out))
        return Tensor(rng.normal(0.0, scale, (fan_in, fan_out)), requires_grad=True)

    def vec(n, value=0.0):
        return Tensor(np.full(n, float(value)), requires_grad=True)

    p: dict[str, Tensor] = {}
    for b, l_len in enumerate(cfg.kernel_lens()):
        if cfg.frontend == "sinc":
            p[f"sinc{b}.theta1"], p[f"sinc{b}.theta2"] = init_filterbank(
                cfg.n_filters)
        else:
            scale = 1.0 / math.sqrt(l_len)
            p[f"plain{b}.kernels"] = Tensor(
                rng.normal(0.0, scale, (cfg.n_filters, l_len)), requires_grad=True)

    d = cfg.d_model
    use_freq = cfg.fusion_mode != "temp_only"
    use_temp = cfg.fusion_mode != "freq_only"

    if use_freq:
        p["proj_freq.w"] = mat(cfg.c_total, d)
        p["proj_freq.b"] = vec(d)
    if use_temp:
        p["rnn.w_h"] = mat(cfg.rnn_hidden, cfg.rnn_hidden)
        p["rnn.w_x"] = mat(cfg.rnn_hidden, cfg.c_total)
        p["rnn.b"] = vec(cfg.rnn_hidden)
        p["proj_temp.w"] = mat(cfg.rnn_hidden, d)
        p["proj_temp.b"] = vec(d)

    def attn_block(prefix):
        p[f"{prefix}.wq"] = mat(d, d)
        p[f"{prefix}.wk"] = mat(d, d)
        p[f"{prefix}.wv"] = mat(d, d)
        p[f"{prefix}.wo"] = mat(d, d)
        p[f"{prefix}.ln_g"] = vec(d, 1.0)
        p[f"{prefix}.ln_b"] = vec(d)

    if use_freq:
        attn_block("self_freq")
    if use_temp:
        attn_block("self_temp")
    if cfg.fusion_mode == "cross_attention":
        attn_block("cross_freq")
        attn_block("cross_temp")

    widths = (cfg.fused_width,) + tuple(cfg.mlp_hidden) + (cfg.n_labels,)
    for i in range(len(widths) - 1):
        p[f"mlp.w{i}"] = mat(widths[i], widths[i + 1])
        p[f"mlp.b{i}"] = vec(widths[i + 1])
    return p


LOG_ENERGY_EPS = 1e-6


def frontend_features(x: Tensor, cfg: ModelConfig, params: dict) -> Tensor:
    """Pooled log-energy features [B, T', C_total] for a [B, T] batch.

    Band-pass outputs are squared before pooling: the filters are zero-mean,
    so a plain average over a pool window would cancel the oscillation and
    discard the spectral content.  Log compression evens out the dynamic
    range across bands.
    """
    outs = []
    for b, l_len in enumerate(cfg.kernel_lens()):
        if cfg.frontend == "sinc":
            kernels = bank_kernels(params[f"sinc{b}.theta1"], params[f"sinc{b}.theta2"],
                                   l_len)
        else:
            kernels = params[f"plain{b}.kernels"]
        y = F.conv1d_strided(x, kernels, cfg.conv_stride)
        outs.append(F.log_pool_energy(y, cfg.pool_stride // cfg.conv_stride,
                                      LOG_ENERGY_EPS))
    y = concat(outs, axis=-1) if len(outs) > 1 else outs[0]
    # standardize per sample: silent bands sit near log(eps) and would
    # otherwise saturate the tanh recurrence and dwarf the projections
    return standardize(y, 1e-8)


def forward_batch(x, cfg: ModelConfig, params: dict) -> Tensor:
    """Logits [B, n_labels] for a batch of waveforms [B, input_len]."""
    x = Tensor._coerce(x)
    if x.ndim != 2 or x.shape[1] != cfg.input_len:
        raise ConfigError(
            f"input must be [B, {cfg.input_len}], got {tuple(x.shape)}")
    feats = frontend_features(x, cfg, params)
    # each stream's projection adds the positional encoding with its bias
    positions = positional_encoding(feats.shape[1], cfg.d_model)

    streams = []
    if cfg.fusion_mode != "temp_only":
        e_freq = F.dense(feats, params["proj_freq.w"], params["proj_freq.b"],
                         pos=positions)
        a_freq = self_attention_block(e_freq, params, "self_freq", cfg.n_heads)
        streams.append(a_freq)
    if cfg.fusion_mode != "freq_only":
        h_seq = F.rnn_forward(feats, params["rnn.w_h"], params["rnn.w_x"],
                              params["rnn.b"])
        e_temp = F.dense(h_seq, params["proj_temp.w"], params["proj_temp.b"],
                         pos=positions)
        a_temp = self_attention_block(e_temp, params, "self_temp", cfg.n_heads)
        streams.append(a_temp)

    if cfg.fusion_mode == "cross_attention":
        fused = cross_fuse(streams[0], streams[1], params, cfg.n_heads)
    elif cfg.fusion_mode == "concat":
        fused = concat(streams, axis=-1)
    else:
        fused = streams[0]

    h = fused.mean(axis=-2)
    n_hidden = len(cfg.mlp_hidden)
    for i in range(n_hidden):
        h = F.dense(h, params[f"mlp.w{i}"], params[f"mlp.b{i}"], "relu")
    return F.dense(h, params[f"mlp.w{n_hidden}"], params[f"mlp.b{n_hidden}"], "linear")

