"""Fine-grained autodiff ops that only the tests compose, and the per-row
batch fill that the columnar one replaced.

The library runs fused nodes (`loss.bce`, `loss.bpr_max`, `loss.ssm`,
`tensor.layer_norm`, the negative-scoring node of `model.score`) in place of
graphs built from these ops. The tests keep the composed graphs as
references, so the ops live here, built on the engine's `_wire` with the
arithmetic they had in `sessrec.tensor`: the references stay bit-identical
to the forms the fused nodes replaced. `make_batches` is the list-of-`Session`
batcher that `data.make_batches` replaced, kept as its reference.
"""

from __future__ import annotations

import numpy as np

from sessrec import tensor as T
from sessrec.data import SessionBatch
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


def score_negatives(state, packed, ids) -> Tensor:
    """[P, k] scores of one negative part as the composed graph that
    `model._score_negatives` fuses: `gather_rows` + `matmul` per granularity,
    then `take_rows` for a sessionwise part."""
    emb = state.params["item_emb"]
    b, width, d = packed.grid.shape
    gb, gt, k = ids.shape
    if gb == 1 and gt == 1:
        rows = T.gather_rows(emb, ids[0, 0])  # [k, d]
        return T.matmul(packed.hidden, T.transpose(rows, (1, 0)))
    if gt == 1:
        rows = T.gather_rows(emb, ids[:, 0])  # [b, k, d]
        out = T.matmul(packed.grid, T.transpose(rows, (0, 2, 1)))  # [b, W, k]
        return T.take_rows(out, packed.rows)
    positions = packed.rows.size
    rows = T.gather_rows(emb, ids.reshape(b * width, k)[packed.rows])  # [P, k, d]
    out = T.matmul(rows, T.reshape(packed.hidden, (positions, d, 1)))  # [P, k, 1]
    return T.reshape(out, (positions, k))


def make_batches(sessions, batch_size=128, max_len=50, pad_id=None, shuffle_rng=None, trim=False):
    """Batches of a list of `Session`, each row filled by its own slice
    assignments. It cannot fill a session of no events into a row wider than
    one: `targets[i, :-1] = []` does not broadcast."""
    if max_len < 2:
        raise ValueError("max_len must be at least 2")
    if not sessions:
        return
    if pad_id is None:
        pad_id = max(max(s.items) for s in sessions) + 1

    order = np.arange(len(sessions))
    if shuffle_rng is not None:
        order = shuffle_rng.permutation(len(sessions))

    for start in range(0, len(sessions), batch_size):
        members = [sessions[i] for i in order[start : start + batch_size]]
        truncated = [s.items[-max_len:] for s in members]
        width = max(len(t) for t in truncated) if trim else max_len
        b = len(members)
        ids = np.full((b, width), pad_id, dtype=np.int64)
        targets = np.full((b, width), pad_id, dtype=np.int64)
        mask = np.zeros((b, width), dtype=bool)
        for i, items in enumerate(truncated):
            n = len(items)
            ids[i, :n] = items
            targets[i, : n - 1] = items[1:]
            mask[i, : n - 1] = True
        yield SessionBatch(ids, targets, mask, pad_id, members)
