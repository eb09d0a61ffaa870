"""Reference implementations the tests compare the package's fast ops against.

Each oracle is the plain composition (or loop) that a fused op replaced, or an
independent algorithm for the same result (the FFT convolution), kept here so
that the fast forward and closed-form backward are checked against a separate
derivation.  The elementwise, slicing, reshaping and transposing primitives
those compositions need, and that the package itself no longer calls, are
free functions here.  `grad_check` compares any analytic gradient with central
finite differences.
"""

from __future__ import annotations

import math
from typing import Callable

import numpy as np

from hymad.errors import NumericError, ShapeError
from hymad.functional import (_softmax_, bce_with_logits, sdpa_backward,
                              sdpa_forward)
from hymad.metrics import _check_pair, _confusions, _macro
from hymad.datagen import FS
from hymad.model import forward_batch, positional_encoding
from hymad.sincnet import MIN_BAND_HZ, hamming_window
from hymad.tensor import Tensor, _unbroadcast, concat, no_grad


# -- primitives ----------------------------------------------------------------

def _unary(a, out, back) -> Tensor:
    """A node with the one parent `a`, output `out` and input gradient back(g)."""
    return Tensor._result(out, (a,), lambda g: (back(g),))


def neg(a: Tensor) -> Tensor:
    return _unary(a, -a.data, lambda g: -g)


def sub(a, b) -> Tensor:
    return Tensor._coerce(a) + neg(Tensor._coerce(b))


def div(a, b) -> Tensor:
    a, b = Tensor._coerce(a), Tensor._coerce(b)
    return Tensor._result(
        a.data / b.data, (a, b),
        lambda g: (_unbroadcast(g / b.data, a.shape),
                   _unbroadcast(-g * a.data / (b.data * b.data), b.shape)))


def power(a: Tensor, p: float) -> Tensor:
    return _unary(a, a.data ** p, lambda g: g * p * a.data ** (p - 1))


def absolute(a: Tensor) -> Tensor:
    return _unary(a, np.abs(a.data), lambda g: g * np.sign(a.data))


def exp(a: Tensor) -> Tensor:
    out = np.exp(a.data)
    return _unary(a, out, lambda g: g * out)


def log(a: Tensor) -> Tensor:
    return _unary(a, np.log(a.data), lambda g: g / a.data)


def sqrt(a: Tensor) -> Tensor:
    out = np.sqrt(a.data)
    return _unary(a, out, lambda g: g * 0.5 / out)


def tanh(a: Tensor) -> Tensor:
    out = np.tanh(a.data)
    return _unary(a, out, lambda g: g * (1.0 - out * out))


def clip(a: Tensor, lo: float | None, hi: float | None) -> Tensor:
    """Clamp to [lo, hi]; gradient passes only through unclamped entries."""
    inside = np.ones_like(a.data)
    if lo is not None:
        inside = inside * (a.data > lo)
    if hi is not None:
        inside = inside * (a.data < hi)
    return _unary(a, np.clip(a.data, lo, hi), lambda g: g * inside)


def reshape(a: Tensor, *shape) -> Tensor:
    return _unary(a, a.data.reshape(*shape), lambda g: g.reshape(a.shape))


def swapaxes(a: Tensor, ax1: int, ax2: int) -> Tensor:
    return _unary(a, np.swapaxes(a.data, ax1, ax2),
                  lambda g: np.swapaxes(g, ax1, ax2))


def relu(a: Tensor) -> Tensor:
    return _unary(a, np.maximum(a.data, 0.0), lambda g: g * (a.data > 0.0))


def matmul(a, b) -> Tensor:
    """a @ b over operands of at least two axes, broadcasting leading axes."""
    a, b = Tensor._coerce(a), Tensor._coerce(b)
    if a.ndim < 2 or b.ndim < 2:
        raise ShapeError(f"matmul needs 2-d operands, got {a.shape} @ {b.shape}")
    if a.shape[-1] != b.shape[-2]:
        raise ShapeError(f"matmul inner dimensions disagree: {a.shape} @ {b.shape}")
    return Tensor._result(
        a.data @ b.data, (a, b),
        lambda g: (_unbroadcast(g @ np.swapaxes(b.data, -1, -2), a.shape),
                   _unbroadcast(np.swapaxes(a.data, -1, -2) @ g, b.shape)))


def add_positional(e: Tensor) -> Tensor:
    """E + P over the two trailing axes [T, d_model]."""
    return e + positional_encoding(e.shape[-2], e.shape[-1])


def transpose(a: Tensor) -> Tensor:
    """Swap the two trailing axes."""
    return swapaxes(a, -1, -2)


def index(a: Tensor, idx) -> Tensor:
    """a[idx]; the backward scatters the gradient into zeros of a's shape."""
    def back(g):
        full = np.zeros_like(a.data)
        full[idx] += g
        return full

    return _unary(a, a.data[idx], back)


# -- composed oracles ---------------------------------------------------------

def conv1d_same_naive(x: np.ndarray, kernels: np.ndarray) -> np.ndarray:
    """Double-loop same-padded convolution of one signal [T] with kernels [C, L];
    the reference for conv1d_strided at stride 1."""
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

    An autodiff node independent of the banded GEMM in conv1d_strided; the
    strided convolution's forward and backward are checked against it.

    x: [B, T]; kernels: [C, L] with odd L, stored over centered lags
    -(L-1)/2 .. (L-1)/2.  Output [B, C, T]:
    y[b, c, m] = sum_n x[b, m-n] k[c, n], zero-padded at the edges.
    """
    x, kernels = Tensor._coerce(x), Tensor._coerce(kernels)
    xd, kd = x.data, kernels.data
    if kd.ndim != 2:
        raise ShapeError(f"kernels must be [C, L], got {kernels.shape}")
    bsz, t_len = xd.shape
    l_len = kd.shape[1]
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
        if kernels.requires_grad:
            # dL/dk[c, n] = sum_{b,m} g[b,c,m] x[b, m-n], n in [-half, half]
            xrev_f = np.fft.rfft(xd[:, ::-1], nfft)
            corr = np.fft.irfft(gf * xrev_f[:, None, :], nfft).sum(axis=0)
            # corr[k] = sum_m g[m] x[T-1-k+m]; lag n sits at k = T-1+n
            gk = corr[:, t_len - 1 - half:t_len + half]
        return (gx, gk)

    return Tensor._result(out, (x, kernels), back)


def softmax_rows(m: Tensor) -> Tensor:
    """Row-wise softmax over the last axis as one node: the package's
    `_softmax_` forward and the closed-form backward p * (g - sum(g * p))."""
    p = _softmax_(m.data.copy())

    def back(g):
        gp = g * p
        gp -= p * gp.sum(axis=-1, keepdims=True)
        return gp

    return _unary(m, p, back)


def softmax_rows_composed(m: Tensor) -> Tensor:
    """Row-wise softmax built from primitive nodes (shift, exp, sum, divide)."""
    e = exp(sub(m, m.data.max(axis=-1, keepdims=True)))
    return div(e, e.sum(axis=-1, keepdims=True))


def layer_norm_composed(x: Tensor, gain: Tensor, bias: Tensor,
                        eps: float = 1e-6) -> Tensor:
    """Layer normalization over the last axis, built from primitive nodes."""
    mu = x.mean(axis=-1, keepdims=True)
    var = power(sub(x, mu), 2).mean(axis=-1, keepdims=True)
    return div(sub(x, mu), sqrt(var + eps)) * gain + bias


def standardize_composed(y: Tensor, eps: float) -> Tensor:
    """The frontend's per-sample standardiser as reshape and composed
    layer-norm nodes."""
    return reshape(layer_norm_composed(reshape(y, y.shape[0], -1), 1.0, 0.0, eps),
                   *y.shape)


def avg_pool1d(x: Tensor, stride: int) -> Tensor:
    """Non-overlapping average pooling over the last axis."""
    t_len = x.shape[-1]
    if t_len % stride != 0:
        raise ShapeError(f"length {t_len} not divisible by pool stride {stride}")
    return reshape(x, *x.shape[:-1], t_len // stride, stride).mean(axis=-1)


def log_pool_energy_composed(y: Tensor, pool: int, eps: float) -> Tensor:
    """The frontend's pooled log energy as product, pool, shift, log and
    axis-swap nodes."""
    return transpose(log(avg_pool1d(y * y, pool) + eps))


def dense_composed(x: Tensor, w: Tensor, b: Tensor, act: str) -> Tensor:
    """The affine layer as product, bias-add and (for relu) relu nodes."""
    z = matmul(x, w) + b
    return relu(z) if act == "relu" else z


def _split_heads(x: Tensor, n_heads: int) -> Tensor:
    b, t, d = x.shape
    return swapaxes(reshape(x, b, t, n_heads, d // n_heads), 1, 2)


def _merge_heads(x: Tensor) -> Tensor:
    b, h, t, dk = x.shape
    return reshape(swapaxes(x, 1, 2), b, t, h * dk)


def attention_block_composed(x: Tensor, kv: Tensor, p: dict, prefix: str,
                             n_heads: int) -> Tensor:
    """layer_norm(x + MHA(x, kv)) from primitive nodes: per-weight
    projections, head reshapes, the composed softmax, and composed layer norm."""
    q = _split_heads(matmul(x, p[f"{prefix}.wq"]), n_heads)
    k = _split_heads(matmul(kv, p[f"{prefix}.wk"]), n_heads)
    v = _split_heads(matmul(kv, p[f"{prefix}.wv"]), n_heads)
    scores = matmul(q * (1.0 / np.sqrt(q.shape[-1])), transpose(k))
    a = matmul(_merge_heads(matmul(softmax_rows_composed(scores), v)),
               p[f"{prefix}.wo"])
    return layer_norm_composed(x + a, p[f"{prefix}.ln_g"], p[f"{prefix}.ln_b"])


def attention(q: Tensor, k: Tensor, v: Tensor) -> Tensor:
    """Scaled dot-product attention softmax(Q K^T / sqrt(d_k)) V over
    [..., T, d] inputs, one node over the attention block's kernels: it
    saves the output and the softmax probabilities."""
    q, k, v = Tensor._coerce(q), Tensor._coerce(k), Tensor._coerce(v)
    d_k = q.shape[-1]
    if k.shape[-1] != d_k:
        raise ShapeError(f"query width {d_k} != key width {k.shape[-1]}")
    if k.shape[-2] != v.shape[-2]:
        raise ShapeError(f"key rows {k.shape[-2]} != value rows {v.shape[-2]}")
    scale = 1.0 / math.sqrt(d_k)
    qs = q.data * scale
    p = np.empty(q.shape[:-1] + k.shape[-2:-1])
    o = np.empty(q.shape[:-1] + v.shape[-1:])
    sdpa_forward(qs, k.data, v.data, p, o)

    def back(g):
        gq, gk, gv = np.empty_like(qs), np.empty_like(k.data), np.empty_like(v.data)
        sdpa_backward(qs, k.data, v.data, p, o, g, gq, gk, gv)
        gq *= scale
        return (gq, gk, gv)

    return Tensor._result(o, (q, k, v), back)


def rnn_forward_unrolled(f: Tensor, w_h: Tensor, w_x: Tensor,
                         b: Tensor) -> Tensor:
    """The Elman recurrence over [B, T, C], unrolled into per-step slice,
    matmul and tanh nodes from a zero state."""
    bsz, steps, c_in = f.shape
    if w_x.shape[1] != c_in:
        raise ShapeError(f"W_x expects {w_x.shape[1]} features, got {c_in}")
    hid = b.shape[0]
    h = Tensor(np.zeros((bsz, hid)))
    wht, wxt = transpose(w_h), transpose(w_x)
    states = []
    for t in range(steps):
        h = tanh(matmul(h, wht) + matmul(index(f, np.s_[:, t, :]), wxt) + b)
        states.append(reshape(h, bsz, 1, hid))
    return concat(states, axis=1)


def lowpass_rows(g: Tensor, l_len: int) -> Tensor:
    """Rows of low-pass sinc kernels 2g*sinc(2*pi*g*n) for normalized cutoffs
    g, one node whose backward is d/dg = 2*cos(2*pi*g*n)."""
    half = (l_len - 1) // 2
    n = np.arange(-half, half + 1, dtype=np.float64)
    gd = g.data[:, None]
    arg = 2.0 * np.pi * gd * n
    with np.errstate(divide="ignore", invalid="ignore"):
        rows = np.where(n == 0.0, 2.0 * gd, np.sin(arg) / (np.pi * n))
    return _unary(g, rows, lambda grad: (grad * 2.0 * np.cos(arg)).sum(axis=1))


def constrain_cutoffs_composed(theta1: Tensor,
                               theta2: Tensor) -> tuple[Tensor, Tensor]:
    """f1 = |theta1| and f2 = f1 + MIN_BAND_HZ + |theta2|, clamped into
    [0, FS/2], from abs, clip and add nodes."""
    f1 = clip(absolute(theta1), 0.0, FS / 2.0 - MIN_BAND_HZ)
    f2 = clip(f1 + MIN_BAND_HZ + absolute(theta2), None, FS / 2.0)
    return f1, f2


def build_filter_composed(f1: Tensor, f2: Tensor, l_len: int) -> Tensor:
    """Band-pass kernels as the difference of two lowpass-row nodes of the
    normalized cutoffs, times the Hamming window."""
    kernels = sub(lowpass_rows(f2 * (1.0 / FS), l_len),
                  lowpass_rows(f1 * (1.0 / FS), l_len))
    return kernels * hamming_window(l_len)


def macro_prf1(pred, truth) -> tuple[float, float, float]:
    """Macro-averaged precision/recall/F1 through the package's confusion
    counts and averaging; zero-division yields 0 per label."""
    return _macro(_confusions(*_check_pair(pred, truth)))


def trapezoid_area(points: list[tuple[float, float, float]]) -> float:
    """Trapezoidal area under (x, y, threshold) curve points."""
    xs = np.array([p[0] for p in points])
    ys = np.array([p[1] for p in points])
    return float(np.trapezoid(ys, xs))


def rankdata_loop(a: np.ndarray) -> np.ndarray:
    """Average ranks (1-based), ties sharing their mean rank, by walking the
    stably sorted values one tie run at a time."""
    order = np.argsort(a, kind="mergesort")
    ranks = np.empty(a.size)
    sorted_a = a[order]
    i = 0
    while i < a.size:
        j = i
        while j + 1 < a.size and sorted_a[j + 1] == sorted_a[i]:
            j += 1
        ranks[order[i:j + 1]] = 0.5 * (i + j) + 1.0
        i = j + 1
    return ranks


def curve_points_loop(scores: np.ndarray, truth: np.ndarray,
                      kind: str) -> list[tuple[float, float, float]]:
    """ROC or PR (x, y, threshold) points of one non-degenerate label column,
    one step per run of equal scores in descending order, by a loop over the
    samples that counts true and false positives as it goes."""
    truth = np.asarray(truth).astype(bool)
    scores = np.asarray(scores, dtype=np.float64)
    n_pos = int(truth.sum())
    n_neg = truth.size - n_pos
    order = np.argsort(-scores, kind="mergesort")
    s_sorted = scores[order]
    y_sorted = truth[order]
    points = [(0.0, 0.0, float("inf"))] if kind == "roc" else []
    tp = fp = 0
    i = 0
    n = truth.size
    while i < n:
        j = i
        while j + 1 < n and s_sorted[j + 1] == s_sorted[i]:
            j += 1
        tp += int(y_sorted[i:j + 1].sum())
        fp += (j - i + 1) - int(y_sorted[i:j + 1].sum())
        thr = float(s_sorted[i])
        if kind == "roc":
            points.append((fp / n_neg, tp / n_pos, thr))
        else:
            points.append((tp / n_pos, tp / (tp + fp), thr))
        i = j + 1
    return points


def grad_check(f: Callable[[], Tensor], params: list[Tensor],
               eps: float = 1e-5) -> dict:
    """Compare analytic gradients of a scalar function against central differences.

    `f` must rebuild its graph from the current contents of `params` on every
    call.  Returns {"max_rel_err": float, "per_param": [(index, rel_err), ...]}.
    """
    if eps <= 0:
        raise ValueError("eps must be positive")
    for p in params:
        p.grad = None
    out = f()
    if not np.isfinite(out.data).all():
        raise NumericError("function value is not finite")
    out.backward()
    analytic = [np.zeros_like(p.data) if p.grad is None else p.grad.copy()
                for p in params]

    max_rel = 0.0
    table = []
    with no_grad():
        for i, p in enumerate(params):
            worst = 0.0
            flat = p.data.reshape(-1)
            for j in range(flat.size):
                orig = flat[j]
                flat[j] = orig + eps
                hi = float(f().data)
                flat[j] = orig - eps
                lo = float(f().data)
                flat[j] = orig
                numeric = (hi - lo) / (2.0 * eps)
                a = analytic[i].reshape(-1)[j]
                rel = abs(a - numeric) / max(abs(a), abs(numeric), 1e-8)
                worst = max(worst, rel)
            table.append((i, worst))
            max_rel = max(max_rel, worst)
    return {"max_rel_err": max_rel, "per_param": table}


def train_step_one_graph(x: np.ndarray, y: np.ndarray, cfg, params: dict):
    """The training step's loss and gradients from one graph over every row
    of the batch, the step before it ran as microbatches; returns the loss
    and name -> gradient, and leaves the parameters' values unchanged."""
    for p in params.values():
        p.grad = None
    loss = bce_with_logits(forward_batch(x, cfg, params), y)
    loss.backward()
    return float(loss.data), {k: p.grad for k, p in params.items()}


def train_step_sequential(x: np.ndarray, y: np.ndarray, cfg, params: dict,
                          rows: int):
    """The training step's loss and gradients from consecutive microbatches
    of `rows` rows, each run on the parameters themselves, the step before
    its microbatches ran on fresh leaves; returns the loss and name ->
    gradient, and leaves the parameters' values unchanged."""
    n, total, acc = len(x), 0.0, None
    for i in range(0, n, rows):
        for p in params.values():
            p.grad = None
        loss = bce_with_logits(forward_batch(x[i:i + rows], cfg, params),
                               y[i:i + rows])
        loss.backward()
        w = len(x[i:i + rows]) / n
        total += w * float(loss.data)
        grads = [w * p.grad for p in params.values()]
        acc = grads if acc is None else [a + g for a, g in zip(acc, grads)]
    return total, dict(zip(params, acc))
