"""Reverse-mode automatic differentiation over numpy arrays.

The :class:`Tensor` class wraps a numpy array, records the operations applied
to it, and back-propagates gradients through the recorded graph when
``backward`` is called on a scalar result.  Only the operations required by
the GNN models are implemented:

* element-wise add / sub / mul / div and scalar variants (with broadcasting),
* matrix multiplication,
* ReLU, absolute value, power,
* reductions (sum / mean),
* row gather (``x[index]``) and segment-sum (scatter-add), the two primitives
  of message passing and graph pooling,
* concatenation along the feature axis,
* dropout, and
* the fused forward kernels ``linear`` (affine) and ``add_relu``.

A module-level ``no_grad`` context manager disables graph recording during
inference.

Forward-path data kernels (matmul, add/mul, ReLU and the fused ops, gather,
scatter-add) route through the kernel set of :mod:`repro.backend`
(:func:`repro.backend.active_backend`), whose forward scopes tally them.
The backward closures stay plain numpy: gradients are a training-only path.
"""

from __future__ import annotations

import contextlib
from typing import Callable, Iterable

import numpy as np

from repro.backend import active_backend

_GRAD_ENABLED = True


@contextlib.contextmanager
def no_grad():
    """Context manager that disables gradient tracking (inference mode)."""
    global _GRAD_ENABLED
    previous = _GRAD_ENABLED
    _GRAD_ENABLED = False
    try:
        yield
    finally:
        _GRAD_ENABLED = previous


def scatter_add_rows(
    values: np.ndarray, index: np.ndarray, num_segments: int
) -> np.ndarray:
    """Sum rows of ``values`` into ``num_segments`` buckets given by ``index``.

    Delegates to the ``scatter_add`` kernel of :mod:`repro.backend`; its
    semantics (``np.bincount``-based, bitwise-equal to
    ``np.add.at`` because both add contributions in row order) are defined in
    :class:`repro.backend.base.ArrayBackend`.
    """
    return active_backend().scatter_add(values, index, num_segments)


def _unbroadcast(gradient: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """Reduce ``gradient`` back to ``shape`` after numpy broadcasting."""
    if gradient.shape == shape:
        return gradient
    # Sum over prepended axes.
    while gradient.ndim > len(shape):
        gradient = gradient.sum(axis=0)
    # Sum over axes that were broadcast from size 1.
    for axis, dim in enumerate(shape):
        if dim == 1 and gradient.shape[axis] != 1:
            gradient = gradient.sum(axis=axis, keepdims=True)
    return gradient.reshape(shape)


class Tensor:
    """A numpy array with an autograd tape."""

    __slots__ = ("data", "grad", "requires_grad", "_backward", "_parents", "name")

    def __init__(
        self,
        data,
        requires_grad: bool = False,
        _parents: tuple["Tensor", ...] = (),
        _backward: Callable[[np.ndarray], None] | None = None,
        name: str = "",
    ) -> None:
        # float64 is the one dtype: inputs of any other dtype are cast.
        self.data = np.asarray(data, dtype=np.float64)
        self.grad: np.ndarray | None = None
        self.requires_grad = bool(requires_grad) and _GRAD_ENABLED
        self._parents = _parents if self.requires_grad or _parents else ()
        self._backward = _backward
        self.name = name

    # ------------------------------------------------------------------ basics

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    @property
    def size(self) -> int:
        return self.data.size

    def item(self) -> float:
        return float(self.data)

    def numpy(self) -> np.ndarray:
        return self.data

    def detach(self) -> "Tensor":
        return Tensor(self.data.copy())

    def zero_grad(self) -> None:
        self.grad = None

    def __repr__(self) -> str:
        flag = ", grad" if self.requires_grad else ""
        return f"Tensor(shape={self.shape}{flag})"

    # -------------------------------------------------------------- graph glue

    @staticmethod
    def _as_tensor(value) -> "Tensor":
        return value if isinstance(value, Tensor) else Tensor(value)

    def _make(self, data: np.ndarray, parents: Iterable["Tensor"], backward) -> "Tensor":
        parents = tuple(parents)
        requires = _GRAD_ENABLED and any(p.requires_grad for p in parents)
        if not requires:
            return Tensor(data)
        return Tensor(data, requires_grad=True, _parents=parents, _backward=backward)

    def _accumulate(self, gradient: np.ndarray) -> None:
        if self.grad is None:
            self.grad = gradient.astype(np.float64, copy=True)
        else:
            self.grad = self.grad + gradient

    def backward(self, gradient: np.ndarray | None = None) -> None:
        """Back-propagate from this tensor (must be scalar unless ``gradient`` given)."""
        if gradient is None:
            if self.size != 1:
                raise ValueError("backward() without a gradient requires a scalar tensor")
            gradient = np.ones_like(self.data)
        gradient = np.asarray(gradient, dtype=np.float64)

        topo: list[Tensor] = []
        visited: set[int] = set()

        def build(node: "Tensor") -> None:
            if id(node) in visited or not node.requires_grad:
                return
            visited.add(id(node))
            for parent in node._parents:
                build(parent)
            topo.append(node)

        build(self)
        # ``build`` refers to itself through its closure; unbinding it breaks
        # that cycle, which would otherwise keep ``topo`` — the whole graph,
        # activations and gradients — alive until the cyclic collector runs.
        del build
        self._accumulate(gradient)
        for node in reversed(topo):
            if node._backward is not None and node.grad is not None:
                node._backward(node.grad)

    # -------------------------------------------------------------- arithmetic

    def __add__(self, other) -> "Tensor":
        other = self._as_tensor(other)
        out_data = active_backend().add(self.data, other.data)

        def backward(gradient: np.ndarray) -> None:
            if self.requires_grad:
                self._accumulate(_unbroadcast(gradient, self.shape))
            if other.requires_grad:
                other._accumulate(_unbroadcast(gradient, other.shape))

        return self._make(out_data, (self, other), backward)

    __radd__ = __add__

    def __neg__(self) -> "Tensor":
        return self * -1.0

    def __sub__(self, other) -> "Tensor":
        return self + (-self._as_tensor(other))

    def __rsub__(self, other) -> "Tensor":
        return self._as_tensor(other) + (-self)

    def __mul__(self, other) -> "Tensor":
        other = self._as_tensor(other)
        out_data = active_backend().mul(self.data, other.data)

        def backward(gradient: np.ndarray) -> None:
            if self.requires_grad:
                self._accumulate(_unbroadcast(gradient * other.data, self.shape))
            if other.requires_grad:
                other._accumulate(_unbroadcast(gradient * self.data, other.shape))

        return self._make(out_data, (self, other), backward)

    __rmul__ = __mul__

    def __truediv__(self, other) -> "Tensor":
        other = self._as_tensor(other)
        out_data = self.data / other.data

        def backward(gradient: np.ndarray) -> None:
            if self.requires_grad:
                self._accumulate(_unbroadcast(gradient / other.data, self.shape))
            if other.requires_grad:
                other._accumulate(
                    _unbroadcast(-gradient * self.data / (other.data**2), other.shape)
                )

        return self._make(out_data, (self, other), backward)

    def __rtruediv__(self, other) -> "Tensor":
        return self._as_tensor(other) / self

    def __pow__(self, exponent: float) -> "Tensor":
        out_data = self.data**exponent

        def backward(gradient: np.ndarray) -> None:
            if self.requires_grad:
                self._accumulate(gradient * exponent * self.data ** (exponent - 1))

        return self._make(out_data, (self,), backward)

    def __matmul__(self, other) -> "Tensor":
        other = self._as_tensor(other)
        out_data = active_backend().matmul(self.data, other.data)

        def backward(gradient: np.ndarray) -> None:
            if self.requires_grad:
                self._accumulate(gradient @ other.data.T)
            if other.requires_grad:
                other._accumulate(self.data.T @ gradient)

        return self._make(out_data, (self, other), backward)

    # -------------------------------------------------------------- activations

    def relu(self) -> "Tensor":
        if not _GRAD_ENABLED:
            return Tensor(active_backend().relu(self.data))
        mask = self.data > 0
        out_data = self.data * mask

        def backward(gradient: np.ndarray) -> None:
            if self.requires_grad:
                self._accumulate(gradient * mask)

        return self._make(out_data, (self,), backward)

    def add_relu(self, other) -> "Tensor":
        """Fused ``relu(self + other)`` — one backend kernel at inference.

        Bitwise-identical to the composed ``(self + other).relu()`` on both
        paths: the forward arithmetic is the same mask multiplication, and
        the single backward closure propagates exactly the gradients the two
        composed closures would.
        """
        other = self._as_tensor(other)
        if not _GRAD_ENABLED:
            return Tensor(active_backend().add_relu(self.data, other.data))
        out_data = self.data + other.data
        mask = out_data > 0
        out_data = out_data * mask

        def backward(gradient: np.ndarray) -> None:
            masked = gradient * mask
            if self.requires_grad:
                self._accumulate(_unbroadcast(masked, self.shape))
            if other.requires_grad:
                other._accumulate(_unbroadcast(masked, other.shape))

        return self._make(out_data, (self, other), backward)

    def linear(self, weight: "Tensor", bias: "Tensor | None" = None) -> "Tensor":
        """Fused affine ``self @ weight + bias`` (backend kernel at inference).

        Under autograd this composes the recorded ``@`` and ``+`` ops, so the
        tape (and therefore training) is unchanged; without gradients it runs
        the backend's fused kernel, which computes the same expression.
        """
        if not _GRAD_ENABLED:
            return Tensor(
                active_backend().linear(
                    self.data, weight.data, None if bias is None else bias.data
                )
            )
        out = self @ weight
        return out if bias is None else out + bias

    def abs(self) -> "Tensor":
        sign = np.sign(self.data)
        out_data = np.abs(self.data)

        def backward(gradient: np.ndarray) -> None:
            if self.requires_grad:
                self._accumulate(gradient * sign)

        return self._make(out_data, (self,), backward)

    # --------------------------------------------------------------- reductions

    def sum(self, axis: int | None = None, keepdims: bool = False) -> "Tensor":
        out_data = self.data.sum(axis=axis, keepdims=keepdims)

        def backward(gradient: np.ndarray) -> None:
            if not self.requires_grad:
                return
            grad = np.asarray(gradient)
            if axis is not None and not keepdims:
                grad = np.expand_dims(grad, axis=axis)
            self._accumulate(np.broadcast_to(grad, self.shape).copy())

        return self._make(out_data, (self,), backward)

    def mean(self, axis: int | None = None, keepdims: bool = False) -> "Tensor":
        count = self.size if axis is None else self.shape[axis]
        return self.sum(axis=axis, keepdims=keepdims) / float(count)

    # ----------------------------------------------------------- graph primitives

    def gather_rows(self, index: np.ndarray) -> "Tensor":
        """Select rows ``self[index]`` (message gathering along edges)."""
        index = np.asarray(index, dtype=np.int64)
        out_data = active_backend().gather_rows(self.data, index)

        def backward(gradient: np.ndarray) -> None:
            if not self.requires_grad:
                return
            self._accumulate(scatter_add_rows(gradient, index, self.data.shape[0]))

        return self._make(out_data, (self,), backward)

    def segment_sum(self, index: np.ndarray, num_segments: int) -> "Tensor":
        """Scatter-add rows into ``num_segments`` buckets (neighbourhood aggregation)."""
        index = np.asarray(index, dtype=np.int64)
        if index.shape[0] != self.shape[0]:
            raise ValueError("segment index length must match the number of rows")
        out_data = scatter_add_rows(self.data, index, num_segments)

        def backward(gradient: np.ndarray) -> None:
            if self.requires_grad:
                self._accumulate(gradient[index])

        return self._make(out_data, (self,), backward)

    def concat(self, other: "Tensor", axis: int = 1) -> "Tensor":
        other = self._as_tensor(other)
        out_data = np.concatenate([self.data, other.data], axis=axis)
        split = self.data.shape[axis]

        def backward(gradient: np.ndarray) -> None:
            left, right = np.split(gradient, [split], axis=axis)
            if self.requires_grad:
                self._accumulate(left)
            if other.requires_grad:
                other._accumulate(right)

        return self._make(out_data, (self, other), backward)

    def reshape(self, *shape: int) -> "Tensor":
        out_data = self.data.reshape(*shape)
        original = self.shape

        def backward(gradient: np.ndarray) -> None:
            if self.requires_grad:
                self._accumulate(gradient.reshape(original))

        return self._make(out_data, (self,), backward)

    def dropout(self, rate: float, rng: np.random.Generator, training: bool) -> "Tensor":
        """Inverted dropout; identity when not training or rate is 0."""
        if not training or rate <= 0.0:
            return self
        if not 0.0 <= rate < 1.0:
            raise ValueError("dropout rate must be in [0, 1)")
        mask = (rng.random(self.shape) >= rate) / (1.0 - rate)
        out_data = self.data * mask

        def backward(gradient: np.ndarray) -> None:
            if self.requires_grad:
                self._accumulate(gradient * mask)

        return self._make(out_data, (self,), backward)


def stack_rows(tensors: list[Tensor]) -> Tensor:
    """Stack 1-D tensors into a matrix, preserving gradients."""
    if not tensors:
        raise ValueError("cannot stack an empty list")
    data = np.stack([t.data for t in tensors], axis=0)
    parents = tuple(tensors)

    def backward(gradient: np.ndarray) -> None:
        for row, tensor in enumerate(parents):
            if tensor.requires_grad:
                tensor._accumulate(gradient[row])

    requires = _GRAD_ENABLED and any(t.requires_grad for t in parents)
    if not requires:
        return Tensor(data)
    return Tensor(data, requires_grad=True, _parents=parents, _backward=backward)
