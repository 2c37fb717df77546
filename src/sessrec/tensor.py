"""Dense float64 tensors with reverse-mode automatic differentiation.

Deliberately small: only the operations needed by a causal self-attention
recommender are provided (matrix multiply, elementwise arithmetic with NumPy
broadcasting, softmax, layer norm, embedding gather, concatenation, masked
dropout, pointwise nonlinearities, reductions). The reference numeric type is
float64 so that finite-difference gradient checks are meaningful.

`layer_norm` is one node with an analytic backward; its forward repeats the
composed graph's arithmetic, so its outputs are bit-identical to it. A
matmul whose right operand is a 2-d weight shared across a batched left
operand gets the weight's gradient from one product over all rows. The
ranking losses are fused nodes too, built in `loss.py` on `_wire`.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Callable, Iterable, Sequence

import numpy as np

from .errors import ItemIdError, NumericError, ShapeError

_grad_enabled = True


@contextmanager
def no_grad():
    """Disable graph recording inside the block (evaluation mode)."""
    global _grad_enabled
    prev = _grad_enabled
    _grad_enabled = False
    try:
        yield
    finally:
        _grad_enabled = prev


class Tensor:
    """A dense float64 array plus optional gradient bookkeeping.

    Values are immutable once constructed; only ``grad`` mutates, and only
    during a single-threaded backward pass.
    """

    __slots__ = ("data", "requires_grad", "grad", "_parents", "_backward")

    def __init__(self, data, requires_grad: bool = False):
        self.data = np.asarray(data, dtype=np.float64)
        self.requires_grad = requires_grad
        self.grad: np.ndarray | None = None
        self._parents: tuple[Tensor, ...] = ()
        self._backward: Callable[[np.ndarray], Sequence[np.ndarray | None]] | None = None

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    def item(self) -> float:
        return float(self.data)

    def zero_grad(self) -> None:
        self.grad = None

    def __repr__(self) -> str:
        grad = ", requires_grad=True" if self.requires_grad else ""
        return f"Tensor(shape={self.shape}{grad})"

    def backward(self, seed: np.ndarray | None = None) -> None:
        """Reverse-mode accumulation from this tensor.

        Visits each graph node exactly once in reverse topological order, so a
        value consumed twice receives the sum of both path contributions.
        """
        if not self.requires_grad:
            raise ValueError("backward() on a tensor that does not require grad")
        if seed is None:
            seed = np.ones_like(self.data)

        order = _toposort(self)
        grads: dict[int, np.ndarray] = {id(self): np.asarray(seed, dtype=np.float64)}
        for node in order:
            g = grads.pop(id(node), None)
            if g is None:
                continue
            if node.requires_grad:
                node.grad = g if node.grad is None else node.grad + g
            if node._backward is None:
                continue
            parent_grads = node._backward(g)
            for parent, pg in zip(node._parents, parent_grads):
                if pg is None or not parent.requires_grad:
                    continue
                key = id(parent)
                if key in grads:
                    grads[key] = grads[key] + pg
                else:
                    grads[key] = pg


def _toposort(root: Tensor) -> list[Tensor]:
    """Iterative DFS post-order, reversed; each node appears once."""
    order: list[Tensor] = []
    seen: set[int] = set()
    stack: list[tuple[Tensor, bool]] = [(root, False)]
    while stack:
        node, expanded = stack.pop()
        if expanded:
            order.append(node)
            continue
        if id(node) in seen:
            continue
        seen.add(id(node))
        stack.append((node, True))
        for parent in node._parents:
            if id(parent) not in seen:
                stack.append((parent, False))
    return list(reversed(order))


def as_tensor(x) -> Tensor:
    return x if isinstance(x, Tensor) else Tensor(x)


def _wire(out_data: np.ndarray, parents: tuple[Tensor, ...], backward) -> Tensor:
    """Create the output tensor, recording the graph edge if grads are live."""
    if _grad_enabled and any(p.requires_grad for p in parents):
        out = Tensor(out_data, requires_grad=True)
        out._parents = parents
        out._backward = backward
        return out
    return Tensor(out_data)


def _unbroadcast(grad: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """Sum `grad` down to `shape`, undoing NumPy broadcasting."""
    while grad.ndim > len(shape):
        grad = grad.sum(axis=0)
    for axis, dim in enumerate(shape):
        if dim == 1 and grad.shape[axis] != 1:
            grad = grad.sum(axis=axis, keepdims=True)
    return grad


# ---------------------------------------------------------------------------
# arithmetic


# The binary ops compute no gradient for a side that does not require one
# (a constant scale, a dropout or causal mask, a detached shift).


def add(a, b) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)
    out = a.data + b.data

    def backward(g):
        return (
            _unbroadcast(g, a.shape) if a.requires_grad else None,
            _unbroadcast(g, b.shape) if b.requires_grad else None,
        )

    return _wire(out, (a, b), backward)


def sub(a, b) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)
    out = a.data - b.data

    def backward(g):
        return (
            _unbroadcast(g, a.shape) if a.requires_grad else None,
            _unbroadcast(-g, b.shape) if b.requires_grad else None,
        )

    return _wire(out, (a, b), backward)


def mul(a, b) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)
    out = a.data * b.data

    def backward(g):
        return (
            _unbroadcast(g * b.data, a.shape) if a.requires_grad else None,
            _unbroadcast(g * a.data, b.shape) if b.requires_grad else None,
        )

    return _wire(out, (a, b), backward)


def matmul(a, b) -> Tensor:
    """Matrix product with NumPy batch-dim broadcasting.

    Gradients: da = g @ b^T, db = a^T @ g (batch dims summed back down). A
    2-d `b` gets its gradient from `a` and `g` flattened to rows.
    """
    a, b = as_tensor(a), as_tensor(b)
    if a.ndim < 2 or b.ndim < 2:
        raise ShapeError(f"matmul needs 2-d+ operands, got {a.shape} and {b.shape}")
    if a.shape[-1] != b.shape[-2]:
        raise ShapeError(f"matmul inner dimensions differ: {a.shape} vs {b.shape}")
    out = a.data @ b.data

    def backward(g):
        ga = _unbroadcast(g @ np.swapaxes(b.data, -1, -2), a.shape) if a.requires_grad else None
        if not b.requires_grad:
            gb = None
        elif b.ndim == 2:
            # a weight shared by every row of a batched operand: one
            # [n, rows] x [rows, m] product instead of one per batch and a sum
            gb = a.data.reshape(-1, a.shape[-1]).T @ g.reshape(-1, g.shape[-1])
        else:
            gb = _unbroadcast(np.swapaxes(a.data, -1, -2) @ g, b.shape)
        return ga, gb

    return _wire(out, (a, b), backward)


def power(a, exponent: float) -> Tensor:
    """Elementwise a**exponent for a constant exponent."""
    a = as_tensor(a)
    out = a.data**exponent

    def backward(g):
        return (g * exponent * a.data ** (exponent - 1.0),)

    return _wire(out, (a,), backward)


# ---------------------------------------------------------------------------
# pointwise nonlinearities


def exp(a) -> Tensor:
    a = as_tensor(a)
    out = np.exp(a.data)

    def backward(g):
        return (g * out,)

    return _wire(out, (a,), backward)


def log(a) -> Tensor:
    a = as_tensor(a)
    out = np.log(a.data)

    def backward(g):
        return (g / a.data,)

    return _wire(out, (a,), backward)


def sigmoid(a) -> Tensor:
    a = as_tensor(a)
    out = _sigmoid(a.data)

    def backward(g):
        return (g * out * (1.0 - out),)

    return _wire(out, (a,), backward)


def _sigmoid(x: np.ndarray) -> np.ndarray:
    # 1 / (1 + e^-x) for x >= 0 and e^x / (1 + e^x) below, without branching;
    # the exponent is never positive, and e <= 1 makes max(e, x >= 0) the
    # numerator (faster than np.where over mixed signs)
    e = np.exp(-np.abs(x))
    return np.maximum(e, x >= 0) / (1.0 + e)


def softplus(a) -> Tensor:
    """log(1 + e^x), computed as max(x, 0) + log1p(e^-|x|)."""
    a = as_tensor(a)
    x = a.data
    out = np.maximum(x, 0.0) + np.log1p(np.exp(-np.abs(x)))

    def backward(g):
        return (g * _sigmoid(x),)

    return _wire(out, (a,), backward)


def relu(a) -> Tensor:
    a = as_tensor(a)
    out = np.maximum(a.data, 0.0)

    def backward(g):
        return (g * (a.data > 0.0),)

    return _wire(out, (a,), backward)


# ---------------------------------------------------------------------------
# reductions and shape ops


def tsum(a, axis=None, keepdims: bool = False) -> Tensor:
    a = as_tensor(a)
    out = a.data.sum(axis=axis, keepdims=keepdims)

    def backward(g):
        g = np.asarray(g)
        if not keepdims and axis is not None:
            g = np.expand_dims(g, axis)
        return (np.broadcast_to(g, a.shape).copy(),)

    return _wire(out, (a,), backward)


def mean(a, axis=None, keepdims: bool = False) -> Tensor:
    a = as_tensor(a)
    n = a.data.size if axis is None else np.prod([a.shape[ax] for ax in np.atleast_1d(axis)])
    return mul(tsum(a, axis=axis, keepdims=keepdims), 1.0 / float(n))


def reshape(a, shape) -> Tensor:
    a = as_tensor(a)
    out = a.data.reshape(shape)

    def backward(g):
        return (g.reshape(a.shape),)

    return _wire(out, (a,), backward)


def transpose(a, axes: Sequence[int]) -> Tensor:
    a = as_tensor(a)
    axes = tuple(axes)
    out = a.data.transpose(axes)
    inverse = tuple(np.argsort(axes))

    def backward(g):
        return (g.transpose(inverse),)

    return _wire(out, (a,), backward)


# ---------------------------------------------------------------------------
# structured ops


def softmax(a, axis: int = -1) -> Tensor:
    """Stable softmax along `axis`; outputs sum to one there."""
    a = as_tensor(a)
    if not np.isfinite(a.data).all():
        bad = a.data[~np.isfinite(a.data)][0]
        raise NumericError(f"softmax input contains non-finite value {bad!r}")
    shifted = a.data - a.data.max(axis=axis, keepdims=True)
    e = np.exp(shifted)
    out = e / e.sum(axis=axis, keepdims=True)

    def backward(g):
        inner = (g * out).sum(axis=axis, keepdims=True)
        return (out * (g - inner),)

    return _wire(out, (a,), backward)


def layer_norm(a, gain, bias, eps: float = 1e-8) -> Tensor:
    """Normalize the last axis to zero mean / unit variance, then affine.

    One node. The forward repeats the arithmetic of the composed graph
    (mean, centre, mean square, `(var + eps) ** -0.5`, scale, affine) in its
    order, so outputs are bit-identical to it. The backward is analytic: with
    x^ the normalized input and dx^ = g * gain,
    dx = inv * (dx^ - x^ * mean(dx^ * x^)), less its mean over the axis.
    """
    a, gain, bias = as_tensor(a), as_tensor(gain), as_tensor(bias)
    scale = 1.0 / float(a.shape[-1])
    centered = a.data - a.data.sum(axis=-1, keepdims=True) * scale
    var = (centered * centered).sum(axis=-1, keepdims=True) * scale
    inv = (var + eps) ** -0.5
    normalized = np.multiply(centered, inv, out=centered)
    out = normalized * gain.data
    out += bias.data

    def backward(g):
        ga = None
        if a.requires_grad:
            ga = g * gain.data
            inner = (ga * normalized).sum(axis=-1, keepdims=True) * scale
            ga -= normalized * inner
            ga *= inv
            ga -= ga.sum(axis=-1, keepdims=True) * scale
        return (
            ga,
            _unbroadcast(g * normalized, gain.shape) if gain.requires_grad else None,
            _unbroadcast(g, bias.shape) if bias.requires_grad else None,
        )

    return _wire(out, (a, gain, bias), backward)


SCATTER_BLOCK = 16
"""Columns summed per `np.bincount` call in `gather_rows` backward."""


def gather_rows(table, ids) -> Tensor:
    """Row lookup `table[ids]`; backward scatter-adds into the table rows."""
    table = as_tensor(table)
    if table.ndim != 2:
        raise ShapeError(f"gather_rows needs a 2-d table, got shape {table.shape}")
    ids = np.asarray(ids, dtype=np.int64)
    n_rows = table.shape[0]
    if ids.size and (ids.min() < 0 or ids.max() >= n_rows):
        bad = ids[(ids < 0) | (ids >= n_rows)].flat[0]
        raise ItemIdError(f"id {int(bad)} out of range [0, {n_rows})")
    out = table.data[ids]

    def backward(g):
        return (_scatter_rows(ids, g.reshape(-1, table.shape[1]), n_rows),)

    return _wire(out, (table,), backward)


def _scatter_rows(ids: np.ndarray, rows: np.ndarray, n_rows: int) -> np.ndarray:
    """Sum `rows[i]` into row `ids[i]` of an `[n_rows, d]` zero table.

    One `np.bincount` over flat (row, column) bins per block of
    `SCATTER_BLOCK` columns. Each bin adds its values in id order starting
    from zero, exactly as `np.add.at` does, so the result is bit-identical.
    """
    ids = ids.reshape(-1)
    d = rows.shape[1]
    out = np.empty((n_rows, d))
    bins = None
    for lo in range(0, d, SCATTER_BLOCK):
        width = min(SCATTER_BLOCK, d - lo)
        if bins is None or bins.shape[1] != width:
            bins = ids[:, None] * width + np.arange(width)
        weights = rows[:, lo : lo + width].reshape(-1)
        out[:, lo : lo + width] = np.bincount(
            bins.reshape(-1), weights, minlength=n_rows * width
        ).reshape(n_rows, width)
    return out


def take_rows(a, rows) -> Tensor:
    """Rows of `a` over its flattened leading axes: `[..., n] -> [len(rows), n]`.

    The rows must be distinct (as a batch's valid positions are): backward
    writes each gradient row into its slot of a zero block instead of
    accumulating.
    """
    a = as_tensor(a)
    index = np.unravel_index(np.asarray(rows, dtype=np.int64), a.shape[:-1])
    out = a.data[index]

    def backward(g):
        # np.zeros, not zeros_like: a large calloc'd block is mapped lazily,
        # so pages no row is written to (a batch's padding) take no memory
        ga = np.zeros(a.shape)
        ga[index] = g
        return (ga,)

    return _wire(out, (a,), backward)


def take_along_last(a, indices) -> Tensor:
    """Gather along the last axis; non-selected positions get zero gradient.

    The indices within each row must be distinct (as top-k selections are):
    backward writes each gradient into its slot instead of accumulating.
    """
    a = as_tensor(a)
    idx = np.asarray(indices, dtype=np.int64)
    out = np.take_along_axis(a.data, idx, axis=-1)

    def backward(g):
        ga = np.zeros_like(a.data)
        np.put_along_axis(ga, idx, g, axis=-1)
        return (ga,)

    return _wire(out, (a,), backward)


def concat(tensors: Sequence[Tensor], axis: int = -1) -> Tensor:
    """Join tensors along `axis`; backward splits the gradient back apart."""
    tensors = tuple(as_tensor(t) for t in tensors)
    out = np.concatenate([t.data for t in tensors], axis=axis)
    bounds = np.cumsum([t.shape[axis] for t in tensors])[:-1]

    def backward(g):
        return np.split(g, bounds, axis=axis)

    return _wire(out, tensors, backward)


def where_mask(mask, a, fill: float = 0.0) -> Tensor:
    """Keep `a` where mask is true, else `fill`; masked-out grads are exactly 0."""
    a = as_tensor(a)
    mask = np.asarray(mask, dtype=bool)
    out = np.where(mask, a.data, fill)

    def backward(g):
        return (_unbroadcast(g * mask, a.shape),)

    return _wire(out, (a,), backward)


def dropout(a, rate: float, rng: np.random.Generator, training: bool = True) -> Tensor:
    """Seeded Bernoulli mask with inverted scaling; identity when not training."""
    a = as_tensor(a)
    if not training or rate <= 0.0:
        return a
    mask = (rng.random(a.shape) >= rate) / (1.0 - rate)
    return mul(a, Tensor(mask))


# ---------------------------------------------------------------------------
# gradient checking


def finite_difference_grad(f: Callable[[], Tensor], params: Iterable[Tensor], step: float = 1e-3):
    """Central-difference gradients of scalar f() w.r.t. each param, elementwise."""
    grads = []
    for p in params:
        g = np.zeros_like(p.data)
        flat = p.data.reshape(-1)
        gflat = g.reshape(-1)
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + step
            hi = f().item()
            flat[i] = orig - step
            lo = f().item()
            flat[i] = orig
            gflat[i] = (hi - lo) / (2.0 * step)
        grads.append(g)
    return grads


def gradcheck(f: Callable[[], Tensor], params: Sequence[Tensor], step: float = 1e-3) -> float:
    """Max elementwise relative error between analytic and numeric gradients.

    Error metric: |a - n| / max(1, |a|, |n|), so absolute error is used near
    zero and relative error where gradients are large.
    """
    for p in params:
        p.zero_grad()
    loss = f()
    loss.backward()
    analytic = [p.grad if p.grad is not None else np.zeros_like(p.data) for p in params]
    numeric = finite_difference_grad(f, params, step=step)
    worst = 0.0
    for a, n in zip(analytic, numeric):
        denom = np.maximum(1.0, np.maximum(np.abs(a), np.abs(n)))
        worst = max(worst, float(np.max(np.abs(a - n) / denom)) if a.size else 0.0)
    return worst
