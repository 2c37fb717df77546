"""Fine-grained autodiff ops that only the tests compose.

The library runs fused nodes (`loss.bce`, `loss.bpr_max`, `loss.ssm`,
`tensor.layer_norm`) in place of graphs built from these ops. The tests keep
the composed graphs as references, so the ops live here, built on the
engine's `_wire` with the arithmetic they had in `sessrec.tensor`: the
references stay bit-identical to the forms the fused nodes replaced.
"""

from __future__ import annotations

import numpy as np

from sessrec import tensor as T
from sessrec.tensor import Tensor, as_tensor


def sub(a, b) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)
    out = a.data - b.data

    def backward(g):
        return (
            T._unbroadcast(g, a.shape) if a.requires_grad else None,
            T._unbroadcast(-g, b.shape) if b.requires_grad else None,
        )

    return T._wire(out, (a, b), backward)


def power(a, exponent: float) -> Tensor:
    """Elementwise a**exponent for a constant exponent."""
    a = as_tensor(a)
    out = a.data**exponent

    def backward(g):
        return (g * exponent * a.data ** (exponent - 1.0),)

    return T._wire(out, (a,), backward)


def exp(a) -> Tensor:
    a = as_tensor(a)
    out = np.exp(a.data)

    def backward(g):
        return (g * out,)

    return T._wire(out, (a,), backward)


def log(a) -> Tensor:
    a = as_tensor(a)
    out = np.log(a.data)

    def backward(g):
        return (g / a.data,)

    return T._wire(out, (a,), backward)


def sigmoid(a) -> Tensor:
    a = as_tensor(a)
    out = T._sigmoid(a.data)

    def backward(g):
        return (g * out * (1.0 - out),)

    return T._wire(out, (a,), backward)


def softplus(a) -> Tensor:
    """log(1 + e^x), computed as max(x, 0) + log1p(e^-|x|)."""
    a = as_tensor(a)
    x = a.data
    out = np.maximum(x, 0.0) + np.log1p(np.exp(-np.abs(x)))

    def backward(g):
        return (g * T._sigmoid(x),)

    return T._wire(out, (a,), backward)


def mean(a, axis=None, keepdims: bool = False) -> Tensor:
    a = as_tensor(a)
    n = a.data.size if axis is None else np.prod([a.shape[ax] for ax in np.atleast_1d(axis)])
    return T.mul(T.tsum(a, axis=axis, keepdims=keepdims), 1.0 / float(n))


def where_mask(mask, a, fill: float = 0.0) -> Tensor:
    """Keep `a` where mask is true, else `fill`; masked-out grads are exactly 0."""
    a = as_tensor(a)
    mask = np.asarray(mask, dtype=bool)
    out = np.where(mask, a.data, fill)

    def backward(g):
        return (T._unbroadcast(g * mask, a.shape),)

    return T._wire(out, (a,), backward)
