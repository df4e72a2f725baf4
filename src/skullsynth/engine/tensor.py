"""Reverse-mode automatic differentiation over numpy arrays.

Tensors carry no batch axis; activations are (C, D, H, W) volumes, embeddings
are (S, E) matrices, losses are scalars.  Batching happens through gradient
accumulation: ``backward`` adds into ``.grad`` without zeroing, so several
backward passes before an optimizer step average over a micro-batch.

A Tensor keeps the dtype of its data, and every operation and gradient
follows its operands' dtype.  The networks compute in DTYPE: their
parameters are created in it and `as_tensor` hands them their inputs in it.
Tensors built from float64 data, as the finite-difference tests build them,
compute in float64.  A Python number in arithmetic takes the Tensor's dtype,
as it does in numpy.

Arithmetic broadcasts over leading axes only, as Linear's bias and scalar
constants do; the gradient of any other broadcast fails in `_unbroadcast`'s
reshape.

The graph is built eagerly; ``backward`` walks it once in reverse
topological order (iteratively, so deep residual stacks cannot hit the
recursion limit).
"""

import numpy as np

DTYPE = np.float32  # the networks' compute dtype


def _unbroadcast(grad, shape):
    """Sum a gradient broadcast over leading axes back to its operand's shape."""
    if grad.ndim > len(shape):
        grad = grad.sum(axis=tuple(range(grad.ndim - len(shape))))
    return grad.reshape(shape)


class Tensor:
    __slots__ = ("data", "grad", "requires_grad", "_parents", "_backward")

    def __init__(self, data, requires_grad=False):
        data = np.asarray(data)
        self.data = data if data.dtype.kind == "f" else data.astype(np.float64)
        self.grad = None
        self.requires_grad = bool(requires_grad)
        self._parents = ()
        self._backward = None

    # -- graph construction ------------------------------------------------

    @staticmethod
    def _make(data, parents, backward):
        out = Tensor(data)
        if any(p.requires_grad for p in parents):
            out.requires_grad = True
            out._parents = tuple(parents)
            out._backward = backward
        return out

    @staticmethod
    def _accum(t, g):
        if t.requires_grad:
            g = g.astype(t.data.dtype, copy=False)  # a gradient has its tensor's dtype
            t.grad = g if t.grad is None else t.grad + g

    # -- bookkeeping ---------------------------------------------------------

    def item(self):
        return float(self.data)

    def detach(self):
        return Tensor(self.data)

    # -- backward pass -------------------------------------------------------

    def backward(self):
        if self.data.size != 1:
            raise ValueError("backward() needs a scalar loss")
        topo = []
        seen = set()
        stack = [(self, False)]
        while stack:
            node, expanded = stack.pop()
            if expanded:
                topo.append(node)
                continue
            if id(node) in seen:
                continue
            seen.add(id(node))
            stack.append((node, True))
            for p in node._parents:
                if id(p) not in seen and p.requires_grad:
                    stack.append((p, False))
        self.grad = np.ones_like(self.data) if self.grad is None else self.grad + np.ones_like(self.data)
        for node in reversed(topo):
            if node._backward is not None and node.grad is not None:
                node._backward(node.grad)
                if node is not self:
                    node.grad = None  # free intermediate grads immediately

    # -- arithmetic ------------------------------------------------------

    def _coerce(self, other):
        if isinstance(other, Tensor):
            return other
        if isinstance(other, (int, float)):
            return Tensor(np.asarray(other, dtype=self.data.dtype))
        return Tensor(other)

    def __add__(self, other):
        other = self._coerce(other)
        out_data = self.data + other.data
        a_req, b_req = self.requires_grad, other.requires_grad

        def backward(g):
            if a_req:
                Tensor._accum(self, _unbroadcast(g, self.data.shape))
            if b_req:
                Tensor._accum(other, _unbroadcast(g, other.data.shape))

        return Tensor._make(out_data, (self, other), backward)

    def __mul__(self, other):
        other = self._coerce(other)
        out_data = self.data * other.data
        a_req, b_req = self.requires_grad, other.requires_grad

        def backward(g):
            if a_req:
                Tensor._accum(self, _unbroadcast(g * other.data, self.data.shape))
            if b_req:
                Tensor._accum(other, _unbroadcast(g * self.data, other.data.shape))

        return Tensor._make(out_data, (self, other), backward)

    __rmul__ = __mul__

    def __neg__(self):
        def backward(g):
            Tensor._accum(self, -g)

        return Tensor._make(-self.data, (self,), backward)

    def __sub__(self, other):
        return self + (-self._coerce(other))

    def __pow__(self, exponent):
        if not isinstance(exponent, (int, float)):
            raise TypeError("only scalar exponents are supported")
        out_data = self.data**exponent

        def backward(g):
            Tensor._accum(self, g * exponent * self.data ** (exponent - 1))

        return Tensor._make(out_data, (self,), backward)

    def __matmul__(self, other):
        other = self._coerce(other)
        out_data = self.data @ other.data
        a_req, b_req = self.requires_grad, other.requires_grad

        def backward(g):
            if a_req:
                Tensor._accum(self, g @ other.data.T)
            if b_req:
                Tensor._accum(other, self.data.T @ g)

        return Tensor._make(out_data, (self, other), backward)

    # -- reductions ---------------------------------------------------------

    def mean(self):
        n = self.data.size

        def backward(g):
            Tensor._accum(self, np.full(self.data.shape, float(g) / n, dtype=self.data.dtype))

        return Tensor._make(self.data.mean(), (self,), backward)


def as_tensor(x):
    """A network input: a Tensor as it is, a Volume or array as a DTYPE Tensor
    with a leading channel axis added to 3-D data, (D, H, W) -> (1, D, H, W)."""
    if isinstance(x, Tensor):
        return x
    data = np.asarray(getattr(x, "data", x), dtype=DTYPE)
    return Tensor(data[None] if data.ndim == 3 else data)
