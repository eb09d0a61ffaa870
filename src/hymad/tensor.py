"""Minimal reverse-mode autodiff engine over float64 numpy arrays.

Tensors form an acyclic computation graph; calling `backward()` on a scalar
root accumulates gradients additively into every ancestor that requires
them.  Backward consumes the graph: each interior node drops its closure
and its parents as it is reached, so the arrays the closure saved are freed
once its gradient has passed on, and its own gradient is freed too.  Only
leaves (tensors without parents, such as parameters) keep `.grad`, which
accumulates across graphs until zeroed, as the optimizer relies on; a second
backward through a consumed graph raises `RuntimeError`.  A gradient array
handed out by `backward()` is never written to afterwards, so a caller may
hold on to it.

The primitives are the ones the detector's graph needs between its fused
nodes: `+`, `mean` and `concat`, plus `*` and `sum` for building scalar
roots.  Each fused layer makes its own node with `Tensor._result` and a
closed-form backward; the primitives only the test oracles compose
(negation, division, powers, exp, log, tanh, clamps, slicing, reshapes,
axis swaps, relu, matrix products) live with those oracles.
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


def _consumed(grad):
    """The backward of an interior node a previous `backward()` released."""
    raise RuntimeError("this graph was already consumed by backward(); "
                       "build it again to backpropagate a second time")


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
    def ndim(self):
        return self.data.ndim

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
        # `__add__` hands one array to both parents, and splits and reshapes
        # hand out views.  So the first contribution is adopted by reference and
        # only a sum allocated here is ever updated in place.
        owned: set[int] = set()
        while topo:
            node = topo.pop()
            back, parents, grad = node._backward, node._parents, node.grad
            if back is None:
                continue
            node._backward, node._parents, node.grad = _consumed, (), None
            if grad is None:
                continue
            for parent, pgrad in zip(parents, back(grad)):
                if pgrad is None or not parent.requires_grad:
                    continue
                if parent.grad is None:
                    parent.grad = pgrad
                elif id(parent) in owned:
                    parent.grad += pgrad
                else:
                    parent.grad = parent.grad + pgrad
                    owned.add(id(parent))

    # -- elementwise arithmetic ----------------------------------------------

    @staticmethod
    def _coerce(other) -> "Tensor":
        return other if isinstance(other, Tensor) else Tensor(other)

    # an operand that does not require grad gets None, not a dropped gradient
    def __add__(self, other):
        a, b = self, Tensor._coerce(other)
        return Tensor._result(
            a.data + b.data, (a, b),
            lambda g: (_unbroadcast(g, a.shape) if a.requires_grad else None,
                       _unbroadcast(g, b.shape) if b.requires_grad else None))

    def __mul__(self, other):
        a, b = self, Tensor._coerce(other)
        return Tensor._result(
            a.data * b.data, (a, b),
            lambda g: (_unbroadcast(g * b.data, a.shape) if a.requires_grad else None,
                       _unbroadcast(g * a.data, b.shape) if b.requires_grad else None))

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
        a = self
        scale = 1.0 / (a.data.size if axis is None else a.data.shape[axis])

        def back(g):
            gg = g if keepdims or axis is None else np.expand_dims(g, axis)
            return (np.broadcast_to(gg * scale, a.shape).copy(),)

        return Tensor._result(a.data.sum(axis=axis, keepdims=keepdims) * scale,
                              (a,), back)


def concat(tensors: list[Tensor], axis: int = -1) -> Tensor:
    tensors = [Tensor._coerce(t) for t in tensors]
    sizes = [t.data.shape[axis] for t in tensors]
    splits = np.cumsum(sizes)[:-1]

    def back(g):
        return tuple(np.split(g, splits, axis=axis))

    return Tensor._result(
        np.concatenate([t.data for t in tensors], axis=axis), tensors, back)
