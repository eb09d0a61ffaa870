"""Reference implementations the tests compare the package's fast ops against.

Each oracle is the plain composition (or loop) that a fused op replaced, or an
independent algorithm for the same result (the FFT convolution), kept here so
that the fast forward and closed-form backward are checked against a separate
derivation.
"""

from __future__ import annotations

import numpy as np

from hymad.errors import ShapeError
from hymad.functional import RnnParams
from hymad.tensor import Tensor, concat


def conv1d_same_naive(x: np.ndarray, kernels: np.ndarray) -> np.ndarray:
    """Double-loop reference for conv1d_same; used by tests as the oracle."""
    x = np.asarray(x, dtype=np.float64)
    kernels = np.asarray(kernels, dtype=np.float64)
    n_filt, l_len = kernels.shape
    half = (l_len - 1) // 2
    t_len = x.shape[0]
    out = np.zeros((n_filt, t_len))
    for c in range(n_filt):
        for m in range(t_len):
            acc = 0.0
            for n in range(-half, half + 1):
                idx = m - n
                if 0 <= idx < t_len:
                    acc += x[idx] * kernels[c, n + half]
            out[c, m] = acc
    return out


def conv1d_same_fft(x: Tensor, kernels: Tensor) -> Tensor:
    """Same-padded 1-d convolution of signals with a filter bank, via FFT.

    An autodiff node independent of the im2col path in conv1d_strided; the
    strided convolution's forward and backward are checked against it.

    x: [T] or [B, T]; kernels: [C, L] with odd L, stored over centered lags
    -(L-1)/2 .. (L-1)/2.  Output [B, C, T] (or [C, T] for a single signal):
    y[b, c, m] = sum_n x[b, m-n] k[c, n], zero-padded at the edges.
    """
    x, kernels = Tensor._coerce(x), Tensor._coerce(kernels)
    single = x.ndim == 1
    xd = x.data[None, :] if single else x.data
    kd = kernels.data
    if kd.ndim != 2:
        raise ShapeError(f"kernels must be [C, L], got {kernels.shape}")
    bsz, t_len = xd.shape
    n_filt, l_len = kd.shape
    if l_len % 2 != 1:
        raise ShapeError(f"kernel length must be odd, got {l_len}")
    if t_len < l_len:
        raise ShapeError(f"signal length {t_len} < kernel length {l_len}")
    half = (l_len - 1) // 2

    nfft = 1 << (t_len + l_len - 1).bit_length()
    xf = np.fft.rfft(xd, nfft)                      # [B, F]
    kf = np.fft.rfft(kd, nfft)                      # [C, F]
    full = np.fft.irfft(xf[:, None, :] * kf[None, :, :], nfft)
    out = full[:, :, half:half + t_len]             # 'same' window of full conv

    def back(g):
        gx = gk = None
        gf = np.fft.rfft(g, nfft)                   # [B, C, F]
        if x.requires_grad:
            # dL/dx = same-conv of grad with the reversed kernel
            krev_f = np.fft.rfft(kd[:, ::-1], nfft)
            gx_full = np.fft.irfft((gf * krev_f[None, :, :]).sum(axis=1), nfft)
            gx = gx_full[:, half:half + t_len]
            if single:
                gx = gx[0]
        if kernels.requires_grad:
            # dL/dk[c, n] = sum_{b,m} g[b,c,m] x[b, m-n], n in [-half, half]
            xrev_f = np.fft.rfft(xd[:, ::-1], nfft)
            corr = np.fft.irfft(gf * xrev_f[:, None, :], nfft).sum(axis=0)
            # corr[k] = sum_m g[m] x[T-1-k+m]; lag n sits at k = T-1+n
            gk = corr[:, t_len - 1 - half:t_len + half]
        return (gx, gk)

    out_t = Tensor._result(out, (x, kernels), back)
    return out_t.reshape(n_filt, t_len) if single else out_t


def softmax_rows_composed(m: Tensor) -> Tensor:
    """Row-wise softmax built from primitive nodes (shift, exp, sum, divide)."""
    shifted = m - m.data.max(axis=-1, keepdims=True)
    e = shifted.exp()
    return e / e.sum(axis=-1, keepdims=True)


def layer_norm_composed(x: Tensor, gain: Tensor, bias: Tensor,
                        eps: float = 1e-6) -> Tensor:
    """Layer normalization over the last axis, built from primitive nodes."""
    mu = x.mean(axis=-1, keepdims=True)
    var = ((x - mu) ** 2).mean(axis=-1, keepdims=True)
    return (x - mu) / (var + eps).sqrt() * gain + bias


def rnn_forward_unrolled(f: Tensor, p: RnnParams,
                         h0: Tensor | None = None) -> Tensor:
    """The Elman recurrence unrolled into per-step slice, matmul and tanh nodes."""
    batched = f.ndim == 3
    seq = f if batched else f.reshape(1, *f.shape)
    bsz, steps, c_in = seq.shape
    if p.w_x.shape[1] != c_in:
        raise ShapeError(f"W_x expects {p.w_x.shape[1]} features, got {c_in}")
    if h0 is None:
        h = Tensor(np.zeros((bsz, p.hidden)))
    else:
        h = h0 if h0.ndim == 2 else h0.reshape(1, -1)
    wht, wxt = p.w_h.T, p.w_x.T
    states = []
    for t in range(steps):
        h = (h @ wht + seq[:, t, :] @ wxt + p.b).tanh()
        states.append(h.reshape(bsz, 1, p.hidden))
    out = concat(states, axis=1)
    return out if batched else out.reshape(steps, p.hidden)
