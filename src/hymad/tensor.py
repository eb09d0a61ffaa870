"""Minimal reverse-mode autodiff engine over float64 numpy arrays.

Tensors form an acyclic computation graph; calling `backward()` on a scalar
root accumulates gradients additively into every ancestor that requires
them.  Only leaves (tensors without parents, such as parameters) keep their
`.grad` after `backward()`; an intermediate node's gradient is freed as soon
as it has been propagated to the node's parents.  Leaf gradients persist
across backward calls until explicitly zeroed, which is what the optimizer
relies on.  A gradient array handed out by `backward()` is never written to
afterwards, so a caller may hold on to it.
"""

from __future__ import annotations

import numpy as np

from hymad.errors import ShapeError

_grad_enabled = True


class no_grad:
    """Context manager that disables graph construction (eval / finite diffs)."""

    def __enter__(self):
        global _grad_enabled
        self._prev = _grad_enabled
        _grad_enabled = False
        return self

    def __exit__(self, *exc):
        global _grad_enabled
        _grad_enabled = self._prev
        return False


def grad_enabled() -> bool:
    return _grad_enabled


def _unbroadcast(grad: np.ndarray, shape: tuple) -> np.ndarray:
    """Sum `grad` down to `shape`, undoing numpy broadcasting."""
    if grad.shape == shape:
        return grad
    ndiff = grad.ndim - len(shape)
    if ndiff > 0:
        grad = grad.sum(axis=tuple(range(ndiff)))
    axes = tuple(i for i, s in enumerate(shape) if s == 1 and grad.shape[i] != 1)
    if axes:
        grad = grad.sum(axis=axes, keepdims=True)
    return grad.reshape(shape)


class Tensor:
    __slots__ = ("data", "grad", "requires_grad", "_parents", "_backward")

    def __init__(self, data, requires_grad: bool = False):
        self.data = np.asarray(data, dtype=np.float64)
        self.grad: np.ndarray | None = None
        self.requires_grad = requires_grad
        self._parents: tuple = ()
        self._backward = None

    # -- construction helpers -------------------------------------------------

    @staticmethod
    def _result(data, parents, backward_fn) -> "Tensor":
        out = Tensor(data)
        if _grad_enabled and any(p.requires_grad for p in parents):
            out.requires_grad = True
            out._parents = tuple(parents)
            out._backward = backward_fn
        return out

    @property
    def shape(self):
        return self.data.shape

    @property
    def size(self):
        return self.data.size

    @property
    def ndim(self):
        return self.data.ndim

    def item(self) -> float:
        return float(self.data)

    def __repr__(self):
        return f"Tensor(shape={self.shape}, requires_grad={self.requires_grad})"

    # -- autodiff engine ------------------------------------------------------

    def backward(self):
        """Backpropagate from a scalar root, accumulating into `.grad`."""
        if self.data.size != 1:
            raise ShapeError(f"backward() needs a scalar root, got shape {self.shape}")
        topo: list[Tensor] = []
        seen: set[int] = set()
        stack: list[tuple[Tensor, bool]] = [(self, False)]
        while stack:
            node, processed = stack.pop()
            if processed:
                topo.append(node)
                continue
            if id(node) in seen:
                continue
            seen.add(id(node))
            stack.append((node, True))
            for p in node._parents:
                if id(p) not in seen:
                    stack.append((p, False))

        self.grad = np.ones_like(self.data) if self.grad is None \
            else self.grad + 1.0
        # Gradient arrays may be shared: `_unbroadcast` returns its input,
        # `__add__` hands one array to both parents, and reshape/split hand
        # out views.  So the first contribution is adopted by reference and
        # only a sum allocated here is ever updated in place.
        owned: set[int] = set()
        for node in reversed(topo):
            if node._backward is None or node.grad is None:
                continue
            for parent, pgrad in zip(node._parents, node._backward(node.grad)):
                if pgrad is None or not parent.requires_grad:
                    continue
                if parent.grad is None:
                    parent.grad = pgrad
                elif id(parent) in owned:
                    parent.grad += pgrad
                else:
                    parent.grad = parent.grad + pgrad
                    owned.add(id(parent))
            node.grad = None

    # -- elementwise arithmetic ----------------------------------------------

    @staticmethod
    def _coerce(other) -> "Tensor":
        return other if isinstance(other, Tensor) else Tensor(other)

    def __add__(self, other):
        a, b = self, Tensor._coerce(other)
        return Tensor._result(
            a.data + b.data, (a, b),
            lambda g: (_unbroadcast(g, a.shape), _unbroadcast(g, b.shape)))

    __radd__ = __add__

    def __neg__(self):
        return Tensor._result(-self.data, (self,), lambda g: (-g,))

    def __sub__(self, other):
        return self + (-Tensor._coerce(other))

    def __rsub__(self, other):
        return Tensor._coerce(other) + (-self)

    def __mul__(self, other):
        a, b = self, Tensor._coerce(other)
        return Tensor._result(
            a.data * b.data, (a, b),
            lambda g: (_unbroadcast(g * b.data, a.shape),
                       _unbroadcast(g * a.data, b.shape)))

    __rmul__ = __mul__

    def __truediv__(self, other):
        a, b = self, Tensor._coerce(other)
        return Tensor._result(
            a.data / b.data, (a, b),
            lambda g: (_unbroadcast(g / b.data, a.shape),
                       _unbroadcast(-g * a.data / (b.data * b.data), b.shape)))

    def __rtruediv__(self, other):
        return Tensor._coerce(other) / self

    def __pow__(self, p):
        if not isinstance(p, (int, float)):
            raise TypeError("only constant exponents are supported")
        a = self
        return Tensor._result(
            a.data ** p, (a,),
            lambda g: (g * p * a.data ** (p - 1),))

    def abs(self):
        a = self
        return Tensor._result(np.abs(a.data), (a,), lambda g: (g * np.sign(a.data),))

    def exp(self):
        a = self
        out_data = np.exp(a.data)
        return Tensor._result(out_data, (a,), lambda g: (g * out_data,))

    def log(self):
        a = self
        return Tensor._result(np.log(a.data), (a,), lambda g: (g / a.data,))

    def sqrt(self):
        a = self
        out_data = np.sqrt(a.data)
        return Tensor._result(out_data, (a,), lambda g: (g * 0.5 / out_data,))

    def tanh(self):
        a = self
        out_data = np.tanh(a.data)
        return Tensor._result(out_data, (a,), lambda g: (g * (1.0 - out_data * out_data),))

    def relu(self):
        a = self
        return Tensor._result(
            np.maximum(a.data, 0.0), (a,),
            lambda g: (g * (a.data > 0.0),))

    def clip(self, lo: float | None, hi: float | None):
        """Clamp to [lo, hi]; gradient passes only through unclamped entries."""
        a = self
        out_data = np.clip(a.data, lo, hi)
        inside = np.ones_like(a.data)
        if lo is not None:
            inside = inside * (a.data > lo)
        if hi is not None:
            inside = inside * (a.data < hi)
        return Tensor._result(out_data, (a,), lambda g: (g * inside,))

    # -- reductions -----------------------------------------------------------

    def sum(self, axis=None, keepdims: bool = False):
        a = self

        def back(g):
            if axis is None:
                return (np.broadcast_to(g, a.shape).copy(),)
            gg = g if keepdims else np.expand_dims(g, axis)
            return (np.broadcast_to(gg, a.shape).copy(),)

        return Tensor._result(a.data.sum(axis=axis, keepdims=keepdims), (a,), back)

    def mean(self, axis=None, keepdims: bool = False):
        if axis is None:
            n = self.data.size
        else:
            n = self.data.shape[axis]
        return self.sum(axis=axis, keepdims=keepdims) * (1.0 / n)

    # -- shape manipulation ---------------------------------------------------

    def reshape(self, *shape):
        a = self
        return Tensor._result(
            a.data.reshape(*shape), (a,), lambda g: (g.reshape(a.shape),))

    def swapaxes(self, ax1: int, ax2: int):
        a = self
        return Tensor._result(
            np.swapaxes(a.data, ax1, ax2), (a,),
            lambda g: (np.swapaxes(g, ax1, ax2),))

    @property
    def T(self):
        return self.swapaxes(-1, -2)

    def __getitem__(self, idx):
        a = self

        def back(g):
            full = np.zeros_like(a.data)
            full[idx] += g
            return (full,)

        return Tensor._result(a.data[idx], (a,), back)

    # -- matrix product -------------------------------------------------------

    def __matmul__(self, other):
        a, b = self, Tensor._coerce(other)
        if a.ndim == 0 or b.ndim == 0:
            raise ShapeError("matmul needs at least 1-d operands")
        if a.data.shape[-1] != b.data.shape[-2 if b.ndim > 1 else 0]:
            raise ShapeError(
                f"matmul inner dimensions disagree: {a.shape} @ {b.shape}")

        # a weight shared by all rows: 2-D GEMMs, its gradient in one product
        rows = b.ndim == 2 and a.ndim > 2

        def back(g):
            ga = gb = None
            if a.requires_grad:
                ga = _unbroadcast(g @ np.swapaxes(b.data, -1, -2), a.shape)
            if b.requires_grad and rows:
                gb = a.data.reshape(-1, a.shape[-1]).T @ g.reshape(-1, b.shape[1])
            elif b.requires_grad:
                gb = _unbroadcast(np.swapaxes(a.data, -1, -2) @ g, b.shape)
            return (ga, gb)

        if rows:
            out = (a.data.reshape(-1, a.shape[-1]) @ b.data) \
                .reshape(*a.shape[:-1], b.shape[1])
        else:
            out = a.data @ b.data
        return Tensor._result(out, (a, b), back)


def concat(tensors: list[Tensor], axis: int = -1) -> Tensor:
    tensors = [Tensor._coerce(t) for t in tensors]
    sizes = [t.data.shape[axis] for t in tensors]
    splits = np.cumsum(sizes)[:-1]

    def back(g):
        return tuple(np.split(g, splits, axis=axis))

    return Tensor._result(
        np.concatenate([t.data for t in tensors], axis=axis), tensors, back)
