"""AdamW with decoupled weight decay."""

from __future__ import annotations

from typing import Iterable

import numpy as np

from hymad.errors import NumericError
from hymad.tensor import Tensor


class AdamW:
    """Bias-corrected Adam moments with weight decay applied separately.

    The decay term theta <- theta - lr*wd*theta never touches the moment
    estimates, so lr = 0 leaves parameters bit-identical.
    """

    beta1, beta2, eps = 0.9, 0.999, 1e-8      # Adam's usual constants

    def __init__(self, params: Iterable[Tensor], lr: float = 1e-2,
                 weight_decay: float = 0.01):
        self.params = list(params)
        self.lr = lr
        self.weight_decay = weight_decay
        self.t = 0
        self.m = [np.zeros_like(p.data) for p in self.params]
        self.v = [np.zeros_like(p.data) for p in self.params]

    def zero_grad(self):
        for p in self.params:
            p.grad = None

    def step(self):
        for i, p in enumerate(self.params):
            g = p.grad
            if g is not None and not np.all(np.isfinite(g)):
                raise NumericError(f"non-finite gradient in parameter {i}")
        self.t += 1
        bc1 = 1.0 - self.beta1 ** self.t
        bc2 = 1.0 - self.beta2 ** self.t
        for i, p in enumerate(self.params):
            g = p.grad if p.grad is not None else np.zeros_like(p.data)
            self.m[i] = self.beta1 * self.m[i] + (1.0 - self.beta1) * g
            self.v[i] = self.beta2 * self.v[i] + (1.0 - self.beta2) * g * g
            if self.weight_decay:
                p.data = p.data - self.lr * self.weight_decay * p.data
            m_hat = self.m[i] / bc1
            v_hat = self.v[i] / bc2
            p.data = p.data - self.lr * m_hat / (np.sqrt(v_hat) + self.eps)

