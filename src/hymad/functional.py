"""Differentiable layers, each one graph node with a closed-form backward.

The layers take batches: waveforms [B, T] and sequences [B, T, d].  The
strided frontend convolution is one banded GEMM over contiguous input
segments (see `conv1d_strided`); its [B, C, P] output is a view of
channels-last [B, P, C] memory.
"""

from __future__ import annotations

import numpy as np

from hymad.errors import NumericError, ShapeError
from hymad.tensor import Tensor, _unbroadcast


def _softmax_(p: np.ndarray) -> np.ndarray:
    """Row-wise softmax over the last axis of `p`, in place, stabilized by max
    subtraction; NaN input raises NumericError (the row max propagates it)."""
    m = np.max(p, axis=-1, keepdims=True)
    if np.isnan(m).any():
        raise NumericError("softmax input contains NaN")
    p -= m
    np.exp(p, out=p)
    p /= np.sum(p, axis=-1, keepdims=True)
    return p


def sdpa_forward(q, k, v, p, o):
    """Attention over [..., T, d] arrays with `q` already scaled by 1/sqrt(d_k):
    writes p = softmax(q k^T) and o = p v into the given buffers; `p` is what
    `sdpa_backward` needs of the softmax."""
    np.matmul(q, np.swapaxes(k, -1, -2), out=p)
    _softmax_(p)
    np.matmul(p, v, out=o)


def sdpa_backward(q, k, v, p, o, go, gq, gk, gv):
    """The gradients of `sdpa_forward` for output gradient `go`, written into
    `gq`, `gk` and `gv`, from the forward's probabilities `p`; sum_s gP ⊙ P
    over a row is the cheaper go·o."""
    np.matmul(np.swapaxes(p, -1, -2), go, out=gv)
    gs = go @ np.swapaxes(v, -1, -2)
    gs -= (go * o).sum(axis=-1, keepdims=True)
    gs *= p
    np.matmul(gs, k, out=gq)
    np.matmul(np.swapaxes(gs, -1, -2), q, out=gk)


def rnn_forward(f: Tensor, w_h: Tensor, w_x: Tensor, b: Tensor) -> Tensor:
    """Run the Elman recurrence h_t = tanh(W_h h_{t-1} + W_x f_t + b) from a
    zero state over a [B, T, C] feature batch, with W_h [H, H], W_x [H, C]
    and b [H].

    Returns the hidden-state sequence [B, T, H] as one graph node.
    W_x f_t + b is one GEMM over all steps, so only the tanh recurrence
    loops; the backward (backpropagation through time) loops only for dL/dz_t
    and forms the weight, bias and input gradients as whole-sequence GEMMs.
    """
    f = Tensor._coerce(f)
    if f.ndim != 3:
        raise ShapeError(f"RNN input must be [B, T, C], got {f.shape}")
    bsz, steps, c_in = f.shape
    hid = b.shape[0]
    if w_x.shape[1] != c_in:
        raise ShapeError(f"W_x expects {w_x.shape[1]} features, got {c_in}")
    whd, wxd = w_h.data, w_x.data
    flat = f.data.reshape(-1, c_in)

    pre = (flat @ wxd.T + b.data).reshape(bsz, steps, hid)
    hs = np.empty((bsz, steps, hid))
    h = np.zeros((1, hid))
    for t in range(steps):
        h = np.tanh(h @ whd.T + pre[:, t], out=hs[:, t])

    def back(g):
        dz = 1.0 - hs * hs                  # tanh' at every step
        carry = 0.0                         # dL/dh_t through h_{t+1}
        for t in range(steps - 1, -1, -1):
            dz[:, t] *= g[:, t] + carry
            carry = dz[:, t] @ whd
        dz_flat = dz.reshape(-1, hid)
        gf = gwh = gwx = gb = None
        if f.requires_grad:
            gf = (dz_flat @ wxd).reshape(f.shape)
        if w_h.requires_grad:
            h_prev = np.zeros_like(hs)
            h_prev[:, 1:] = hs[:, :-1]
            gwh = dz_flat.T @ h_prev.reshape(-1, hid)
        if w_x.requires_grad:
            gwx = dz_flat.T @ flat
        if b.requires_grad:
            gb = dz_flat.sum(axis=0)
        return (gf, gwh, gwx, gb)

    return Tensor._result(hs, (f, w_h, w_x, b), back)


def dense(x: Tensor, w: Tensor, b: Tensor, act: str = "linear") -> Tensor:
    """Affine layer act(x W + b) with act in {relu, linear}, one node over
    x [..., d_in] and w [d_in, d_out]; `b` broadcasts against the output, so a
    [T, d_out] bias adds per position.  The product is one 2-D GEMM, and the
    relu backward takes its mask from the node's output."""
    if act not in ("relu", "linear"):
        raise ValueError(f"unknown activation {act!r}")
    x, w, b = Tensor._coerce(x), Tensor._coerce(w), Tensor._coerce(b)
    if x.ndim < 2 or w.ndim != 2 or x.shape[-1] != w.shape[0]:
        raise ShapeError(
            f"dense needs [..., d] @ [d, n], got {x.shape} @ {w.shape}")
    x2 = x.data.reshape(-1, x.shape[-1])
    out = (x2 @ w.data).reshape(*x.shape[:-1], w.shape[1])
    out += b.data
    if act == "relu":
        np.maximum(out, 0.0, out=out)

    def back(g):
        if act == "relu":
            g = g * (out > 0.0)
        g2 = g.reshape(-1, w.shape[1])
        gx = (g2 @ w.data.T).reshape(x.shape) if x.requires_grad else None
        gw = x2.T @ g2 if w.requires_grad else None
        gb = _unbroadcast(g, b.shape) if b.requires_grad else None
        return (gx, gw, gb)

    return Tensor._result(out, (x, w, b), back)


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


def conv1d_strided(x: Tensor, kernels: Tensor, stride: int) -> Tensor:
    """Same-padded 1-d convolution of signals with a filter bank, evaluated at
    every `stride`-th lag.

    x: [B, T]; kernels: [C, L] with odd L, stored over centered lags
    -(L-1)/2 .. (L-1)/2.  Output [B, C, P], P = T/stride:
    y[b, c, p] = sum_n x[b, pS-n] k[c, n], zero-padded at the edges.

    The convolution is one banded GEMM.  Each run of Q consecutive outputs
    reads one contiguous segment of G = (Q-1)S + L padded samples, so the
    segments [b * P/Q, G] times a band [G, Q C] that holds the reversed
    kernels at row offsets 0, S, .., (Q-1)S give every output at once.  Q is
    the largest divisor of P that is at most max(1, L // 2S), so the segments
    tile the outputs exactly; at Q = L // 2S the band is about 2/3 nonzero,
    and the segments copy each sample about 3 times instead of the L/S times
    of a per-output patch matrix.  The result is written channels-last,
    [B, P, C], and returned as its [B, C, P] view.  The whole batch is one
    GEMM, so the caller bounds the rows and with them the [B P/Q, G] segment
    copy; the backward takes the segments again from `x` and folds the band
    gradient's Q diagonal blocks into the kernel gradient.
    Only the kernels get a gradient: the waveforms are data, so an `x` that
    requires one is rejected.
    """
    x, kernels = Tensor._coerce(x), Tensor._coerce(kernels)
    if x.requires_grad:
        raise ValueError("conv1d_strided has no gradient for its input x")
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
    q = max(d for d in range(1, max(1, l_len // (2 * stride)) + 1)
            if n_out % d == 0)               # outputs per segment
    n_seg = n_out // q
    seg_len = (q - 1) * stride + l_len
    blocks = [np.s_[i * stride:i * stride + l_len, i * n_filt:(i + 1) * n_filt]
              for i in range(q)]

    # out[b, jQ + i, c] = sum_w xpad[b, (jQ + i)S + w] k[c, L-1-w]
    band = np.zeros((seg_len, q * n_filt))
    for blk in blocks:
        band[blk] = kd[:, ::-1].T

    def _segments():
        xpad = np.zeros((bsz, t_len + l_len - 1))
        xpad[:, half:half + t_len] = xd
        view = np.lib.stride_tricks.sliding_window_view(xpad, seg_len, axis=1)
        return view[:, ::q * stride].reshape(-1, seg_len)

    out = np.empty((bsz, n_out, n_filt))
    np.matmul(_segments(), band, out=out.reshape(bsz * n_seg, q * n_filt))

    def back(g):
        gt = g.swapaxes(1, 2).reshape(bsz * n_seg, q * n_filt)
        gband = _segments().T @ gt
        gk = sum(gband[blk] for blk in blocks)
        return (gk.T[:, ::-1],)

    return Tensor._result(out.swapaxes(1, 2), (kernels,), back)


def log_pool_energy(y: Tensor, pool: int, eps: float) -> Tensor:
    """log(mean(y^2) + eps) over non-overlapping windows of `pool` samples on
    the last axis, one node, returned with its last two axes swapped: [B, C, T]
    in, [B, T / pool, C] out.  The backward is 2 y g / (pool (mean + eps)).
    The arrays follow the memory order of `y`: the channels-last `y` of
    `conv1d_strided` gives C-contiguous features and gets a channels-last
    gradient, which the convolution's backward reads without a copy."""
    y = Tensor._coerce(y)
    t_len = y.shape[-1]
    if t_len % pool != 0:
        raise ShapeError(f"length {t_len} not divisible by pool stride {pool}")
    windows = y.data.reshape(*y.shape[:-1], t_len // pool, pool)
    e = (windows * windows).sum(axis=-1) * (1.0 / pool)
    e += eps

    def back(g):
        s = np.divide(g.swapaxes(-1, -2), e, out=np.empty_like(e))
        s *= 2.0 / pool
        gy = np.multiply(windows, s[..., None], out=np.empty_like(windows))
        return (gy.reshape(y.shape),)

    return Tensor._result(np.log(e).swapaxes(-1, -2), (y,), back)
