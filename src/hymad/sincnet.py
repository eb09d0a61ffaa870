"""Learnable sinc band-pass frontend.

Each filter is the difference of two low-pass sinc kernels whose cutoff
frequencies are reparameterized from unconstrained learnable scalars, so any
optimizer step keeps 0 <= f1 < f2 <= FS/2, FS being the data's sample rate.
Hamming-windowed kernels over a centered index range -(L-1)/2 .. (L-1)/2 give
zero-phase band-pass responses.
A bank's kernels are one graph node over its two theta vectors.
"""

from __future__ import annotations

import numpy as np

from hymad.datagen import FS
from hymad.errors import ConfigError
from hymad.tensor import Tensor

MIN_BAND_HZ = 1.0
INIT_SPAN = 8.0     # the initial bank spans the seismic low band (0, FS/8]


def constrain_cutoffs(theta1, theta2) -> tuple[np.ndarray, np.ndarray]:
    """Map raw parameters to ordered cutoffs in Hz.

    f1 = |theta1| and f2 = f1 + MIN_BAND_HZ + |theta2|, clamped into
    [0, FS/2] so that f1 < f2 always holds.  Total for any real thetas.
    """
    f1 = np.clip(np.abs(theta1), 0.0, FS / 2.0 - MIN_BAND_HZ)
    f2 = np.clip(f1 + MIN_BAND_HZ + np.abs(theta2), None, FS / 2.0)
    return f1, f2


def hamming_window(l_len: int) -> np.ndarray:
    m = np.arange(l_len)
    return 0.54 - 0.46 * np.cos(2.0 * np.pi * m / (l_len - 1))


def _phase(f: np.ndarray, l_len: int) -> tuple:
    """Normalized cutoffs g = f/FS as a column, the centered lags n, and the
    phases 2*pi*g*n, one row per cutoff."""
    half = (l_len - 1) // 2
    n = np.arange(-half, half + 1, dtype=np.float64)
    g = (f * (1.0 / FS))[:, None]
    return g, n, 2.0 * np.pi * g * n


def _lowpass_rows(f: np.ndarray, l_len: int) -> np.ndarray:
    """Rows of low-pass sinc kernels 2g*sinc(2*pi*g*n) for cutoffs f in Hz.

    With sinc(x) = sin(x)/x this is sin(2*pi*g*n)/(pi*n) off-center and 2g at
    n = 0; d/dg is 2*cos(2*pi*g*n) everywhere.
    """
    g, n, arg = _phase(f, l_len)
    with np.errstate(divide="ignore", invalid="ignore"):
        return np.where(n == 0.0, 2.0 * g, np.sin(arg) / (np.pi * n))


def build_filter(f1, f2, l_len: int) -> np.ndarray:
    """Hamming-windowed band-pass kernels [C, L] for [C] cutoff vectors in Hz."""
    f1, f2 = np.asarray(f1, dtype=np.float64), np.asarray(f2, dtype=np.float64)
    if l_len % 2 != 1:
        raise ConfigError(f"kernel length must be odd, got {l_len}")
    if np.any(f1 < 0) or np.any(f1 > f2) or np.any(f2 > FS / 2.0):
        raise ConfigError("cutoffs must satisfy 0 <= f1 <= f2 <= FS/2")
    kernels = _lowpass_rows(f2, l_len) - _lowpass_rows(f1, l_len)
    kernels *= hamming_window(l_len)
    return kernels


def bank_kernels(theta1: Tensor, theta2: Tensor, l_len: int) -> Tensor:
    """All C kernels [C, L] of a bank's raw [C] thetas, as one node.

    The backward is closed-form: each lowpass row has d/dg = 2*cos(2*pi*g*n)
    with g = f/FS, f2 depends on f1 through f2 = f1 + MIN_BAND_HZ + |theta2|,
    each clamp of `constrain_cutoffs` passes gradient only strictly inside
    its bounds, and |theta| contributes sign(theta), which is 0 at 0.
    """
    theta1, theta2 = Tensor._coerce(theta1), Tensor._coerce(theta2)
    f1, f2 = constrain_cutoffs(theta1.data, theta2.data)
    kernels = build_filter(f1, f2, l_len)

    def back(g):
        g = g * hamming_window(l_len)

        def d_cutoff(g_rows, f):
            arg = _phase(f, l_len)[2]
            return (g_rows * 2.0 * np.cos(arg)).sum(axis=1) * (1.0 / FS)

        g2 = d_cutoff(g, f2)
        g2 *= f2 < FS / 2.0
        g1 = d_cutoff(-g, f1)
        g1 += g2
        g1 *= (f1 > 0.0) & (f1 < FS / 2.0 - MIN_BAND_HZ)
        return (g1 * np.sign(theta1.data), g2 * np.sign(theta2.data))

    return Tensor._result(kernels, (theta1, theta2), back)


def init_filterbank(n_filters: int) -> tuple[Tensor, Tensor]:
    """Raw (theta1, theta2) of a bank of contiguous equal-width bands over
    (0, FS/INIT_SPAN].  Raw thetas are set so constrain_cutoffs reproduces
    the intended band edges exactly.
    """
    if n_filters < 1:
        raise ConfigError(f"n_filters must be >= 1, got {n_filters}")
    edges = np.linspace(0.0, FS / INIT_SPAN, n_filters + 1)
    f1 = edges[:-1]
    f2 = edges[1:]
    return (Tensor(f1.copy(), requires_grad=True),
            Tensor(f2 - f1 - MIN_BAND_HZ, requires_grad=True))
