"""Differentiable building blocks composed from the tensor primitives.

Everything here works on trailing axes so the same code serves single
sequences ([T, d]) and batches ([B, T, d]).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from hymad.errors import NumericError, ShapeError
from hymad.tensor import Tensor, _unbroadcast


def softmax_rows(m: Tensor) -> Tensor:
    """Row-wise softmax over the last axis, stabilized by max subtraction.

    One graph node; the backward is the closed form p * (g - sum(g * p)).
    """
    m = Tensor._coerce(m)
    if np.isnan(m.data).any():
        raise NumericError("softmax input contains NaN")
    p = m.data - m.data.max(axis=-1, keepdims=True)
    np.exp(p, out=p)
    p /= p.sum(axis=-1, keepdims=True)

    def back(g):
        gp = g * p
        gp -= p * gp.sum(axis=-1, keepdims=True)
        return (gp,)

    return Tensor._result(p, (m,), back)


def attention(q: Tensor, k: Tensor, v: Tensor) -> Tensor:
    """Scaled dot-product attention: softmax(Q K^T / sqrt(d_k)) V."""
    q, k, v = Tensor._coerce(q), Tensor._coerce(k), Tensor._coerce(v)
    d_k = q.shape[-1]
    if k.shape[-1] != d_k:
        raise ShapeError(f"query width {d_k} != key width {k.shape[-1]}")
    if k.shape[-2] != v.shape[-2]:
        raise ShapeError(f"key rows {k.shape[-2]} != value rows {v.shape[-2]}")
    scores = (q @ k.T) * (1.0 / math.sqrt(d_k))
    return softmax_rows(scores) @ v


@dataclass
class RnnParams:
    """Elman recurrence weights: h_t = tanh(W_h h_{t-1} + W_x f_t + b)."""

    w_h: Tensor  # [H, H]
    w_x: Tensor  # [H, C_in]
    b: Tensor    # [H]

    def __post_init__(self):
        h1, h2 = self.w_h.shape
        if h1 != h2:
            raise ShapeError(f"W_h must be square, got {self.w_h.shape}")
        if self.w_x.shape[0] != h1 or self.b.shape != (h1,):
            raise ShapeError("RNN parameter shapes disagree")

    @property
    def hidden(self) -> int:
        return self.b.shape[0]


def rnn_forward(f: Tensor, p: RnnParams, h0: Tensor | None = None) -> Tensor:
    """Run the recurrence over a [T, C] or [B, T, C] feature sequence.

    Returns the full hidden-state sequence ([T, H] or [B, T, H]) as one graph
    node.  W_x f_t + b is one GEMM over all steps, so only the tanh recurrence
    loops; the backward (backpropagation through time) loops only for dL/dz_t
    and forms the weight, bias and input gradients as whole-sequence GEMMs.
    """
    f = Tensor._coerce(f)
    seq = f.data if f.ndim == 3 else f.data[None]
    bsz, steps, c_in = seq.shape
    hid = p.hidden
    if p.w_x.shape[1] != c_in:
        raise ShapeError(f"W_x expects {p.w_x.shape[1]} features, got {c_in}")
    parents = (f, p.w_h, p.w_x, p.b)
    if h0 is None:
        h_init = np.zeros((1, hid))
    else:
        h0 = Tensor._coerce(h0)
        if h0.shape[-1] != hid:
            raise ShapeError(f"h0 width {h0.shape[-1]} != hidden {hid}")
        h_init = h0.data.reshape(-1, hid)
        parents += (h0,)
    w_h, w_x = p.w_h.data, p.w_x.data
    flat = seq.reshape(-1, c_in)

    pre = (flat @ w_x.T + p.b.data).reshape(bsz, steps, hid)
    hs = np.empty((bsz, steps, hid))
    h = h_init
    for t in range(steps):
        h = np.tanh(h @ w_h.T + pre[:, t], out=hs[:, t])

    def back(g):
        dz = 1.0 - hs * hs                  # tanh' at every step
        g = g.reshape(hs.shape)
        carry = 0.0                         # dL/dh_t through h_{t+1}
        for t in range(steps - 1, -1, -1):
            dz[:, t] *= g[:, t] + carry
            carry = dz[:, t] @ w_h
        dz_flat = dz.reshape(-1, hid)
        gf = gwh = gwx = gb = None
        if f.requires_grad:
            gf = (dz_flat @ w_x).reshape(f.shape)
        if p.w_h.requires_grad:
            h_prev = np.empty_like(hs)
            h_prev[:, 0] = h_init
            h_prev[:, 1:] = hs[:, :-1]
            gwh = dz_flat.T @ h_prev.reshape(-1, hid)
        if p.w_x.requires_grad:
            gwx = dz_flat.T @ flat
        if p.b.requires_grad:
            gb = dz_flat.sum(axis=0)
        if h0 is None:
            return (gf, gwh, gwx, gb)
        gh0 = _unbroadcast(carry, (h_init.shape[0], hid)).reshape(h0.shape) \
            if h0.requires_grad else None
        return (gf, gwh, gwx, gb, gh0)

    return Tensor._result(hs if f.ndim == 3 else hs[0], parents, back)


def dense(x: Tensor, w: Tensor, b: Tensor, act: str = "linear") -> Tensor:
    """Affine layer act(x W + b) with act in {relu, linear}."""
    z = Tensor._coerce(x) @ w + b
    if act == "relu":
        return z.relu()
    if act == "linear":
        return z
    raise ValueError(f"unknown activation {act!r}")


def bce_with_logits(logits: Tensor, targets) -> Tensor:
    """Mean binary cross-entropy from raw logits, in stable log-sum-exp form.

    Per cell: softplus(z) - z*y, with softplus(z) = max(z,0) + log1p(e^-|z|).
    """
    logits = Tensor._coerce(logits)
    y = targets.data if isinstance(targets, Tensor) else np.asarray(targets, dtype=np.float64)
    if y.shape != logits.shape:
        raise ShapeError(f"targets shape {y.shape} != logits shape {logits.shape}")
    if not np.all((y == 0.0) | (y == 1.0)):
        raise ValueError("targets must be binary (0/1)")

    z = logits.data
    val = (np.maximum(z, 0.0) + np.log1p(np.exp(-np.abs(z))) - z * y).mean()
    return Tensor._result(val, (logits,),
                          lambda g: (g * (sigmoid(z) - y) / z.size,))


def sigmoid(z: np.ndarray) -> np.ndarray:
    """Logistic function; exp only ever sees -|z|, so it never overflows."""
    e = np.exp(-np.abs(z))
    return np.where(z >= 0, 1.0 / (1.0 + e), e / (1.0 + e))


def conv1d_same(x: Tensor, kernels: Tensor) -> Tensor:
    """Same-padded 1-d convolution of signals with a filter bank.

    x: [T] or [B, T]; kernels: [C, L] with odd L, stored over centered lags
    -(L-1)/2 .. (L-1)/2.  Output [B, C, T] (or [C, T] for a single signal):
    y[b, c, m] = sum_n x[b, m-n] k[c, n], zero-padded at the edges.
    This is conv1d_strided at stride 1.
    """
    x, kernels = Tensor._coerce(x), Tensor._coerce(kernels)
    if x.shape[-1] < kernels.shape[-1]:
        raise ShapeError(
            f"signal length {x.shape[-1]} < kernel length {kernels.shape[-1]}")
    if x.ndim == 1:
        out = conv1d_strided(x.reshape(1, -1), kernels, 1)
        return out.reshape(*out.shape[1:])
    return conv1d_strided(x, kernels, 1)


def conv1d_strided(x: Tensor, kernels: Tensor, stride: int,
                   chunk: int = 16) -> Tensor:
    """Same-padded convolution (see conv1d_same) at every `stride`-th lag.

    Equals conv1d_same(x, kernels)[..., ::stride] but never materialises the
    full-resolution convolution; the batch is processed in chunks so the
    patch matrices stay small.
    x: [B, T]; kernels: [C, L] odd-length centered lags; returns [B, C, T/stride].
    """
    x, kernels = Tensor._coerce(x), Tensor._coerce(kernels)
    xd, kd = x.data, kernels.data
    if xd.ndim != 2:
        raise ShapeError(f"x must be [B, T], got {x.shape}")
    if kd.ndim != 2 or kd.shape[1] % 2 != 1:
        raise ShapeError(f"kernels must be [C, odd L], got {kernels.shape}")
    bsz, t_len = xd.shape
    n_filt, l_len = kd.shape
    if t_len % stride != 0:
        raise ShapeError(f"length {t_len} not divisible by conv stride {stride}")
    half = (l_len - 1) // 2
    n_out = t_len // stride
    krev = np.ascontiguousarray(kd[:, ::-1])

    # out[b, c, p] = sum_w xpad[b, pS + w] k[c, L-1-w]
    xpad = np.pad(xd, ((0, 0), (half, half)))

    def _patches(rows):
        view = np.lib.stride_tricks.sliding_window_view(rows, l_len, axis=1)
        return np.ascontiguousarray(view[:, ::stride, :])   # [b, P, L]

    out = np.empty((bsz, n_filt, n_out))
    for i in range(0, bsz, chunk):
        pc = _patches(xpad[i:i + chunk])
        b = pc.shape[0]
        out[i:i + chunk] = (pc.reshape(b * n_out, l_len) @ krev.T) \
            .reshape(b, n_out, n_filt).swapaxes(1, 2)

    def back(g):
        gx = gk = None
        need_k = kernels.requires_grad
        gkrev = np.zeros_like(krev) if need_k else None
        if x.requires_grad:
            gxpad = np.zeros_like(xpad)
        for i in range(0, bsz, chunk):
            gt = np.ascontiguousarray(g[i:i + chunk].swapaxes(1, 2))
            b = gt.shape[0]
            flat = gt.reshape(b * n_out, n_filt)
            if need_k:
                pc = _patches(xpad[i:i + chunk])
                gkrev += flat.T @ pc.reshape(b * n_out, l_len)
            if x.requires_grad:
                gp = (flat @ krev).reshape(b, n_out, l_len)
                for p in range(n_out):
                    gxpad[i:i + chunk, p * stride:p * stride + l_len] += \
                        gp[:, p, :]
        if x.requires_grad:
            gx = gxpad[:, half:half + t_len]
        if need_k:
            gk = gkrev[:, ::-1]
        return (gx, gk)

    return Tensor._result(out, (x, kernels), back)


def avg_pool1d(x: Tensor, stride: int) -> Tensor:
    """Non-overlapping average pooling over the last axis."""
    x = Tensor._coerce(x)
    t_len = x.shape[-1]
    if t_len % stride != 0:
        raise ShapeError(f"length {t_len} not divisible by pool stride {stride}")
    pooled_shape = x.shape[:-1] + (t_len // stride, stride)
    return x.reshape(*pooled_shape).mean(axis=-1)
