"""Full detector graph: sinc frontend, RNN encoder, attention fusion, MLP head.

The frequency stream projects pooled band-filter outputs to the common model
width; the temporal stream runs an RNN over the same pooled features.  Both
get sinusoidal positional encodings, per-stream self-attention, then either
bidirectional cross-attention or one of the ablation fusion modes, and a
mean-pooled MLP produces one unactivated logit per label.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, asdict

import numpy as np

from hymad.errors import ConfigError, ShapeError
from hymad import functional as F
from hymad.sincnet import SincFilterBank, bank_kernels, init_filterbank
from hymad.functional import RnnParams
from hymad.tensor import Tensor, _unbroadcast, concat

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
    n_labels: int = 4
    fusion_mode: str = "cross_attention"
    threshold: float = 0.5
    input_len: int = 8000
    fs: float = 8000.0
    frontend: str = "sinc"
    window: str = "hamming"
    init_strategy: str = "low-band"

    def validate(self):
        if self.d_model % 2 != 0:
            raise ConfigError(f"model.d_model must be even, got {self.d_model}")
        if self.d_model % self.n_heads != 0:
            raise ConfigError(
                f"model.n_heads ({self.n_heads}) must divide d_model ({self.d_model})")
        if self.n_labels < 1:
            raise ConfigError(f"model.n_labels must be >= 1, got {self.n_labels}")
        if not (0.0 < self.threshold < 1.0):
            raise ConfigError(f"model.threshold must lie in (0, 1), got {self.threshold}")
        if self.fusion_mode not in FUSION_MODES:
            raise ConfigError(f"model.fusion_mode must be one of {FUSION_MODES}")
        if self.frontend not in FRONTENDS:
            raise ConfigError(f"model.frontend must be one of {FRONTENDS}")
        if self.input_len % self.pool_stride != 0:
            raise ConfigError(
                f"model.pool_stride ({self.pool_stride}) must divide "
                f"input_len ({self.input_len})")
        if self.conv_stride < 1 or self.pool_stride % self.conv_stride != 0:
            raise ConfigError(
                f"model.conv_stride ({self.conv_stride}) must divide "
                f"pool_stride ({self.pool_stride})")
        for l in self.kernel_lens():
            if l % 2 != 1:
                raise ConfigError(f"model.kernel_len must be odd, got {l}")
        return self

    def kernel_lens(self) -> tuple:
        if self.branches == 1:
            return (self.kernel_len,)
        return tuple(self.branch_lens[:self.branches])

    @property
    def c_total(self) -> int:
        return self.n_filters * len(self.kernel_lens())

    @property
    def seq_len(self) -> int:
        return self.input_len // self.pool_stride

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


def add_positional(e: Tensor) -> Tensor:
    """E + P over the two trailing axes [T, d_model]."""
    e = Tensor._coerce(e)
    return e + positional_encoding(e.shape[-2], e.shape[-1])


def _split_heads(x: Tensor, n_heads: int) -> Tensor:
    b, t, d = x.shape
    return x.reshape(b, t, n_heads, d // n_heads).swapaxes(1, 2)


def _merge_heads(x: Tensor) -> Tensor:
    b, h, t, dk = x.shape
    return x.swapaxes(1, 2).reshape(b, t, h * dk)


def _multihead(q_src: Tensor, kv_src: Tensor, p: dict, prefix: str,
               n_heads: int) -> Tensor:
    q = _split_heads(q_src @ p[f"{prefix}.wq"], n_heads)
    k = _split_heads(kv_src @ p[f"{prefix}.wk"], n_heads)
    v = _split_heads(kv_src @ p[f"{prefix}.wv"], n_heads)
    return _merge_heads(F.attention(q, k, v)) @ p[f"{prefix}.wo"]


def layer_norm(x: Tensor, gain: Tensor, bias: Tensor, eps: float = 1e-6) -> Tensor:
    """(x - mean) / sqrt(var + eps) * gain + bias over the last axis, one node."""
    x, gain, bias = (Tensor._coerce(t) for t in (x, gain, bias))
    xc = x.data - x.data.mean(axis=-1, keepdims=True)
    inv = 1.0 / np.sqrt((xc * xc).mean(axis=-1, keepdims=True) + eps)
    xhat = xc * inv

    def back(g):
        gg = g * gain.data
        gx = gg - gg.mean(axis=-1, keepdims=True)
        gx -= xhat * (gg * xhat).mean(axis=-1, keepdims=True)
        gx *= inv
        return (gx, _unbroadcast(g * xhat, gain.shape), _unbroadcast(g, bias.shape))

    out = xhat * gain.data
    out += bias.data
    return Tensor._result(out, (x, gain, bias), back)


def self_attention_block(x: Tensor, params: dict, prefix: str,
                         n_heads: int = 1) -> Tensor:
    """Self-attention with residual connection and layer normalization."""
    x = Tensor._coerce(x)
    single = x.ndim == 2
    if single:
        x = x.reshape(1, *x.shape)
    a = _multihead(x, x, params, prefix, n_heads)
    out = layer_norm(x + a, params[f"{prefix}.ln_g"], params[f"{prefix}.ln_b"])
    return out.reshape(*out.shape[1:]) if single else out


def cross_fuse(a_freq: Tensor, a_temp: Tensor, params: dict,
               n_heads: int = 1) -> Tensor:
    """Bidirectional cross-attention; output is freq-then-temp concatenation."""
    a_freq, a_temp = Tensor._coerce(a_freq), Tensor._coerce(a_temp)
    if a_freq.shape[-2] != a_temp.shape[-2]:
        raise ShapeError(
            f"stream lengths differ: {a_freq.shape[-2]} vs {a_temp.shape[-2]}")
    single = a_freq.ndim == 2
    if single:
        a_freq = a_freq.reshape(1, *a_freq.shape)
        a_temp = a_temp.reshape(1, *a_temp.shape)
    c_freq = _multihead(a_freq, a_temp, params, "cross_freq", n_heads)
    c_freq = layer_norm(a_freq + c_freq, params["cross_freq.ln_g"],
                        params["cross_freq.ln_b"])
    c_temp = _multihead(a_temp, a_freq, params, "cross_temp", n_heads)
    c_temp = layer_norm(a_temp + c_temp, params["cross_temp.ln_g"],
                        params["cross_temp.ln_b"])
    fused = concat([c_freq, c_temp], axis=-1)
    return fused.reshape(*fused.shape[1:]) if single else fused


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
            bank = init_filterbank(cfg.n_filters, cfg.fs, cfg.init_strategy,
                                   l_len, cfg.window)
            p[f"sinc{b}.theta1"] = bank.theta1
            p[f"sinc{b}.theta2"] = bank.theta2
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
            bank = SincFilterBank(params[f"sinc{b}.theta1"], params[f"sinc{b}.theta2"],
                                  l_len, cfg.fs, cfg.window)
            kernels = bank_kernels(bank)
        else:
            kernels = params[f"plain{b}.kernels"]
        y = F.conv1d_strided(x, kernels, cfg.conv_stride)
        energy = F.avg_pool1d(y * y, cfg.pool_stride // cfg.conv_stride)
        outs.append((energy + LOG_ENERGY_EPS).log())
    y = concat(outs, axis=-2) if len(outs) > 1 else outs[0]
    # standardize per sample: silent bands sit near log(eps) and would
    # otherwise saturate the tanh recurrence and dwarf the projections
    m = y.mean(axis=-1, keepdims=True).mean(axis=-2, keepdims=True)
    centered = y - m
    var = (centered * centered).mean(axis=-1, keepdims=True) \
        .mean(axis=-2, keepdims=True)
    y = centered / (var + 1e-8).sqrt()
    return y.swapaxes(-1, -2)


def forward_batch(x, cfg: ModelConfig, params: dict) -> Tensor:
    """Logits [B, n_labels] for a batch of waveforms [B, input_len]."""
    x = Tensor._coerce(x)
    if x.ndim != 2 or x.shape[1] != cfg.input_len:
        raise ConfigError(
            f"input must be [B, {cfg.input_len}], got {tuple(x.shape)}")
    feats = frontend_features(x, cfg, params)

    streams = []
    if cfg.fusion_mode != "temp_only":
        e_freq = add_positional(feats @ params["proj_freq.w"] + params["proj_freq.b"])
        a_freq = self_attention_block(e_freq, params, "self_freq", cfg.n_heads)
        streams.append(a_freq)
    if cfg.fusion_mode != "freq_only":
        rnn = RnnParams(params["rnn.w_h"], params["rnn.w_x"], params["rnn.b"])
        h_seq = F.rnn_forward(feats, rnn)
        e_temp = add_positional(h_seq @ params["proj_temp.w"] + params["proj_temp.b"])
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


def forward(x, cfg: ModelConfig, params: dict) -> Tensor:
    """Logits [n_labels] for a single waveform [input_len]."""
    x = Tensor._coerce(x)
    if x.ndim != 1:
        raise ConfigError(f"forward expects a 1-d waveform, got shape {tuple(x.shape)}")
    return forward_batch(x.reshape(1, -1), cfg, params).reshape(cfg.n_labels)


def predict(logits, threshold: float = 0.5) -> np.ndarray:
    """Multi-hot prediction: label j iff sigmoid(logit_j) > threshold (strict)."""
    if not (0.0 < threshold < 1.0):
        raise ConfigError(f"threshold must lie in (0, 1), got {threshold}")
    z = logits.data if isinstance(logits, Tensor) else np.asarray(logits)
    return (F.sigmoid(z) > threshold).astype(np.int64)
