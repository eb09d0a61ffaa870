"""Learnable sinc band-pass frontend.

Each filter is the difference of two low-pass sinc kernels whose cutoff
frequencies are reparameterized from unconstrained learnable scalars, so any
optimizer step keeps 0 <= f1 < f2 <= fs/2.  Kernels use a centered symmetric
index range -(L-1)/2 .. (L-1)/2, giving zero-phase band-pass responses.
"""

from __future__ import annotations

import numpy as np

from hymad.errors import ConfigError
from hymad.tensor import Tensor

MIN_BAND_HZ = 1.0


def constrain_cutoffs(theta1, theta2, fs: float,
                      min_band: float = MIN_BAND_HZ) -> tuple[Tensor, Tensor]:
    """Map raw parameters to ordered cutoffs in Hz.

    f1 = |theta1| and f2 = f1 + min_band + |theta2|, clamped into [0, fs/2]
    so that f1 < f2 always holds.  Total and differentiable.
    """
    t1, t2 = Tensor._coerce(theta1), Tensor._coerce(theta2)
    f1 = t1.abs().clip(0.0, fs / 2.0 - min_band)
    f2 = (f1 + min_band + t2.abs()).clip(None, fs / 2.0)
    return f1, f2


def hamming_window(l_len: int) -> np.ndarray:
    m = np.arange(l_len)
    return 0.54 - 0.46 * np.cos(2.0 * np.pi * m / (l_len - 1))


def _lowpass_rows(g: Tensor, l_len: int) -> Tensor:
    """Rows of low-pass sinc kernels 2g*sinc(2*pi*g*n) for normalized cutoffs g.

    With sinc(x) = sin(x)/x this is sin(2*pi*g*n)/(pi*n) off-center and 2g at
    n = 0; d/dg is 2*cos(2*pi*g*n) everywhere, which the backward uses.
    """
    half = (l_len - 1) // 2
    n = np.arange(-half, half + 1, dtype=np.float64)
    gd = g.data[:, None]
    arg = 2.0 * np.pi * gd * n
    with np.errstate(divide="ignore", invalid="ignore"):
        rows = np.where(n == 0.0, 2.0 * gd, np.sin(arg) / (np.pi * n))

    def back(grad):
        return ((grad * 2.0 * np.cos(arg)).sum(axis=1),)

    return Tensor._result(rows, (g,), back)


def build_filter(f1, f2, l_len: int, fs: float = 8000.0,
                 window: str = "hamming") -> Tensor:
    """Band-pass kernels [C, L] for [C] cutoff vectors; differentiable w.r.t. f1, f2."""
    f1, f2 = Tensor._coerce(f1), Tensor._coerce(f2)
    if l_len % 2 != 1:
        raise ConfigError(f"kernel length must be odd, got {l_len}")
    if np.any(f1.data < 0) or np.any(f1.data > f2.data) or np.any(f2.data > fs / 2.0):
        raise ConfigError("cutoffs must satisfy 0 <= f1 <= f2 <= fs/2")
    kernels = _lowpass_rows(f2 * (1.0 / fs), l_len) - _lowpass_rows(f1 * (1.0 / fs), l_len)
    if window == "hamming":
        kernels = kernels * hamming_window(l_len)
    elif window != "none":
        raise ConfigError(f"unknown window {window!r}")
    return kernels


def bank_kernels(theta1, theta2, l_len: int, fs: float = 8000.0,
                 window: str = "hamming") -> Tensor:
    """All C kernels [C, L] of a bank's raw [C] thetas, differentiable back to them."""
    f1, f2 = constrain_cutoffs(theta1, theta2, fs)
    return build_filter(f1, f2, l_len, fs, window)


def init_filterbank(n_filters: int, fs: float = 8000.0,
                    strategy: str = "linear") -> tuple[Tensor, Tensor]:
    """Raw (theta1, theta2) of a bank of contiguous equal-width bands.

    'linear' spans (0, fs/2]; 'low-band' spans (0, fs/8] to bias toward
    low-frequency seismic energy.  Raw thetas are set so constrain_cutoffs
    reproduces the intended band edges exactly.
    """
    if n_filters < 1:
        raise ConfigError(f"n_filters must be >= 1, got {n_filters}")
    if strategy == "linear":
        top = fs / 2.0
    elif strategy == "low-band":
        top = fs / 8.0
    else:
        raise ConfigError(f"unknown init strategy {strategy!r}")
    edges = np.linspace(0.0, top, n_filters + 1)
    f1 = edges[:-1]
    f2 = edges[1:]
    return (Tensor(f1.copy(), requires_grad=True),
            Tensor(f2 - f1 - MIN_BAND_HZ, requires_grad=True))
