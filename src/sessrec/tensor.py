"""Dense float64 tensors with reverse-mode automatic differentiation.

Deliberately small: only the operations the library runs are provided
(the affine map of rows, addition and multiplication with NumPy
broadcasting, ReLU, sum, reshape, layer norm, embedding gather, row picks
and their zero-filled scatter, top-k picks). The finer ops that only the
tests compose into reference graphs, the broadcasting matrix product and
concatenation among them, live in `tests/composed.py`. The reference
numeric type is float64 so that finite-difference gradient checks are
meaningful.

`linear` (`x @ w + b`) and `layer_norm` are one node each; their forwards
repeat the composed graphs' arithmetic, so their outputs are bit-identical
to them. The ranking losses, causal attention and the negative-scoring node
are fused nodes too, built in `loss.py` and `model.py` on `_wire`. Each
table gradient is one feature-major `[d, n_rows]` accumulator per node or
part, into which `scatter_features` adds a feature-major row gradient, one
`np.add.at` per feature; any split of the rows into consecutive blocks is
bit-identical to one `np.add.at` over all of them.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Callable, Iterable, Sequence

import numpy as np

from .errors import ItemIdError, ShapeError

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


def mul(a, b) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)
    out = a.data * b.data

    def backward(g):
        return (
            _unbroadcast(g * b.data, a.shape) if a.requires_grad else None,
            _unbroadcast(g * a.data, b.shape) if b.requires_grad else None,
        )

    return _wire(out, (a, b), backward)


def linear(x, w, b) -> Tensor:
    """The affine map `x @ w + b` of [n, d] rows, a [d, m] weight and an [m]
    bias, as one node. It runs the products of a 2-d matmul node and a bias
    add node (dx = g @ w^T, dw = x^T @ g, db = g summed over rows), so its
    output and gradients are bit-identical to theirs."""
    x, w, b = as_tensor(x), as_tensor(w), as_tensor(b)
    if x.ndim != 2 or w.ndim != 2 or x.shape[1] != w.shape[0] or b.shape != w.shape[1:]:
        raise ShapeError(f"linear needs [n, d], [d, m] and [m] operands, "
                         f"got {x.shape}, {w.shape} and {b.shape}")
    out = x.data @ w.data
    out += b.data

    def backward(g):
        return (
            g @ w.data.T if x.requires_grad else None,
            x.data.T @ g if w.requires_grad else None,
            g.sum(axis=0) if b.requires_grad else None,
        )

    return _wire(out, (x, w, b), backward)


# ---------------------------------------------------------------------------
# pointwise nonlinearities


def _sigmoid(x: np.ndarray) -> np.ndarray:
    # 1 / (1 + e^-x) for x >= 0 and e^x / (1 + e^x) below, without branching;
    # the exponent is never positive, and e <= 1 makes max(e, x >= 0) the
    # numerator (faster than np.where over mixed signs)
    e = np.exp(-np.abs(x))
    return np.maximum(e, x >= 0) / (1.0 + e)


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


def reshape(a, shape) -> Tensor:
    a = as_tensor(a)
    out = a.data.reshape(shape)

    def backward(g):
        return (g.reshape(a.shape),)

    return _wire(out, (a,), backward)


# ---------------------------------------------------------------------------
# structured ops


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


def row_ids(ids, n_rows: int) -> np.ndarray:
    """`ids` as int64; ItemIdError names the first outside `[0, n_rows)`."""
    ids = np.asarray(ids, dtype=np.int64)
    if ids.size and (ids.min() < 0 or ids.max() >= n_rows):
        bad = ids[(ids < 0) | (ids >= n_rows)].flat[0]
        raise ItemIdError(f"id {int(bad)} out of range [0, {n_rows})")
    return ids


def gather_rows(table, ids) -> Tensor:
    """Row lookup `table[ids]`; backward scatter-adds into the table rows."""
    table = as_tensor(table)
    if table.ndim != 2:
        raise ShapeError(f"gather_rows needs a 2-d table, got shape {table.shape}")
    n_rows, d = table.shape
    ids = row_ids(ids, n_rows)
    out = table.data[ids]

    def backward(g):
        # the transposed view of g: np.add.at reads each feature's strided
        # row in place, faster than a feature-major copy
        acc = np.zeros((d, n_rows))
        scatter_features(ids, g.reshape(-1, d).T, acc)
        return (acc.T,)

    return _wire(out, (table,), backward)


def scatter_features(ids: np.ndarray, cols: np.ndarray, acc: np.ndarray) -> None:
    """Add row gradient `i` into column `ids.flat[i]` of the `[d, n_rows]`
    accumulator `acc`.

    `cols` holds the rows feature-major, `[d, *ids.shape]`, so each feature
    is one `np.add.at` of its rows flattened to one axis (a copy only where
    they are not one strided run) into a contiguous row of `acc`.
    `np.add.at` adds in id-occurrence order, so calls over consecutive
    blocks of rows into a zeroed `acc` are bit-identical to one `np.add.at`
    over all of them, and to the `np.bincount` per feature (which also adds
    in that order from zero) that this replaced.
    """
    ids = ids.reshape(-1)
    for f in range(cols.shape[0]):
        np.add.at(acc[f], ids, cols[f].reshape(-1))


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


def scatter_rows(a, rows, lead: tuple[int, ...]) -> Tensor:
    """The transpose of `take_rows`: a zero `[*lead, n]` block whose rows
    `rows` (over the flattened leading axes) hold the rows of `[len(rows), n]`
    `a`. The rows must be distinct; backward takes them back out."""
    a = as_tensor(a)
    lead = tuple(lead)
    index = np.unravel_index(np.asarray(rows, dtype=np.int64), lead)
    out = np.zeros(lead + a.shape[-1:])
    out[index] = a.data

    def backward(g):
        return (g[index],)

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
