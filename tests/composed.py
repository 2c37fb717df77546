"""Fine-grained autodiff ops that only the tests compose, the grid encoder
and the per-row batch fill that the packed and columnar ones replaced.

The library runs fused nodes (`loss.bce`, `loss.bpr_max`, `loss.ssm`,
`tensor.linear`, `tensor.layer_norm`, `model.causal_attention`, the
negative-scoring node of `model.score`) in place of graphs built from these
ops. The tests keep the composed graphs as references, so the ops live
here, built on the engine's `_wire` with the arithmetic they had in
`sessrec.tensor`: the references stay bit-identical to the forms the fused
nodes replaced. `matmul` is the broadcasting matrix product that each
affine map (with a bias `add`) and the attention products were built from
before `tensor.linear` took the affine maps. `forward` is the encoder that
ran every layer over the whole padded [b, W, d] block before
`model.forward` packed the real items, kept with its ops moved here.
`score_negatives` scores one part of a negative set, and `concat` joins
the parts as the library did before one node scored the whole set.
`score_sessionwise_on_grid` is the [b, W, d] grid form that sessionwise
negatives had before the node scored each session's packed rows.
`make_batches` is the list-of-`Session` batcher that `data.make_batches`
replaced, kept as its reference. `scatter_features` is the one-`np.bincount`-
per-feature table scatter that built each table gradient whole before
`tensor.scatter_features` added blocks of rows into an accumulator.
`rank_rows` is the eval ranker that counted each [width, TILE_ROWS,
TILE_COLS] score block with one 3-d reduction before `evaluate._rank_rows`
wrote the same products row-major into one reused buffer.
"""

from __future__ import annotations

import numpy as np

from sessrec import model as M
from sessrec import tensor as T
from sessrec.data import SessionBatch
from sessrec.errors import ConfigError, NumericError, ShapeError
from sessrec.evaluate import TILE_COLS, TILE_ROWS
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
        ga = T._unbroadcast(g @ np.swapaxes(b.data, -1, -2), a.shape) if a.requires_grad else None
        if not b.requires_grad:
            gb = None
        elif b.ndim == 2:
            # a weight shared by every row of a batched operand: one
            # [n, rows] x [rows, m] product instead of one per batch and a sum
            gb = a.data.reshape(-1, a.shape[-1]).T @ g.reshape(-1, g.shape[-1])
        else:
            gb = T._unbroadcast(np.swapaxes(a.data, -1, -2) @ g, b.shape)
        return ga, gb

    return T._wire(out, (a, b), backward)


def transpose(a, axes) -> Tensor:
    a = as_tensor(a)
    axes = tuple(axes)
    out = a.data.transpose(axes)
    inverse = tuple(np.argsort(axes))

    def backward(g):
        return (g.transpose(inverse),)

    return T._wire(out, (a,), backward)


def concat(tensors, axis: int = -1) -> Tensor:
    """Join tensors along `axis`; backward splits the gradient back apart."""
    tensors = tuple(as_tensor(t) for t in tensors)
    out = np.concatenate([t.data for t in tensors], axis=axis)
    bounds = np.cumsum([t.shape[axis] for t in tensors])[:-1]

    def backward(g):
        return np.split(g, bounds, axis=axis)

    return T._wire(out, tensors, backward)


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

    return T._wire(out, (a,), backward)


def dropout(a, rate: float, rng: np.random.Generator, training: bool = True) -> Tensor:
    """Seeded Bernoulli mask with inverted scaling; identity when not training."""
    a = as_tensor(a)
    if not training or rate <= 0.0:
        return a
    mask = (rng.random(a.shape) >= rate) / (1.0 - rate)
    return T.mul(a, Tensor(mask))


def causal_attention(q, k, v, rows, lead, heads, rate=0.0, rng=None) -> Tensor:
    """Packed causal attention as the composed graph that
    `model.causal_attention` fuses: scatter the [N, d] rows onto the grid,
    split the heads, then scale, causal add, softmax, dropout, `weights @
    v`, and take the mixed rows back."""
    b, width = lead
    d = q.shape[-1]
    dh = d // heads

    def split(x):
        return transpose(T.reshape(T.scatter_rows(x, rows, lead), (b, width, heads, dh)),
                         (0, 2, 1, 3))

    q, k, v = split(q), split(k), split(v)
    causal = np.triu(np.full((width, width), M._NEG_INF), k=1)[None, None]
    logits = T.add(T.mul(matmul(q, transpose(k, (0, 1, 3, 2))), 1.0 / np.sqrt(dh)),
                   Tensor(causal))
    weights = dropout(softmax(logits, axis=-1), rate, rng, rate > 0.0)
    mixed = T.reshape(transpose(matmul(weights, v), (0, 2, 1, 3)), (b, width, d))
    return T.take_rows(mixed, rows)


def forward(
    state,
    batch,
    mode: str = "eval",
    rng: np.random.Generator | None = None,
) -> Tensor:
    """The grid encoder that `model.forward` packs: every layer runs on the
    whole padded [b, W, d] block. Position t attends only to positions <= t.

    Returns hidden states of shape [b, W, d]. Outputs at padded positions are
    computed but carry no loss contribution (the batch mask gates them).
    """
    cfg = state.config
    if mode not in ("train", "eval"):
        raise ConfigError(f"mode must be 'train' or 'eval', got {mode!r}")
    training = mode == "train" and cfg.dropout > 0.0
    if training and rng is None:
        raise ConfigError("training-mode forward needs an rng for dropout")
    ids = batch.item_ids
    b, width = ids.shape
    if width > cfg.max_len:
        raise ShapeError(f"batch width {width} exceeds model max_len {cfg.max_len}")

    p = state.params
    d, heads = cfg.hidden_dim, cfg.num_heads
    dh = d // heads

    x = T.mul(T.gather_rows(p["item_emb"], ids), np.sqrt(d))
    x = T.add(x, T.gather_rows(p["pos_emb"], np.arange(width)))
    x = dropout(x, cfg.dropout, rng, training)

    causal = np.triu(np.full((width, width), M._NEG_INF), k=1)[None, None]

    def attention(h: Tensor, prefix: str) -> Tensor:
        def split(name):  # [b, W, d] projection -> [b, heads, W, dh]
            proj = T.add(matmul(h, p[f"{prefix}.w{name}"]), p[f"{prefix}.b{name}"])
            return transpose(T.reshape(proj, (b, width, heads, dh)), (0, 2, 1, 3))

        q, k, v = split("q"), split("k"), split("v")
        logits = T.add(T.mul(matmul(q, transpose(k, (0, 1, 3, 2))), 1.0 / np.sqrt(dh)), Tensor(causal))
        weights = dropout(softmax(logits, axis=-1), cfg.dropout, rng, training)
        mixed = matmul(weights, v)
        mixed = T.reshape(transpose(mixed, (0, 2, 1, 3)), (b, width, d))
        out = T.add(matmul(mixed, p[f"{prefix}.wo"]), p[f"{prefix}.bo"])
        return dropout(out, cfg.dropout, rng, training)

    def feed_forward(h: Tensor, prefix: str) -> Tensor:
        inner = T.relu(T.add(matmul(h, p[f"{prefix}.w1"]), p[f"{prefix}.b1"]))
        inner = dropout(inner, cfg.dropout, rng, training)
        out = T.add(matmul(inner, p[f"{prefix}.w2"]), p[f"{prefix}.b2"])
        return dropout(out, cfg.dropout, rng, training)

    for layer in range(cfg.num_layers):
        lp = f"layers.{layer}"
        if cfg.prenorm:
            normed = T.layer_norm(x, p[f"{lp}.ln1.gain"], p[f"{lp}.ln1.bias"])
            x = T.add(x, attention(normed, f"{lp}.attn"))
            normed = T.layer_norm(x, p[f"{lp}.ln2.gain"], p[f"{lp}.ln2.bias"])
            x = T.add(x, feed_forward(normed, f"{lp}.ffn"))
        else:
            x = T.layer_norm(
                T.add(x, attention(x, f"{lp}.attn")), p[f"{lp}.ln1.gain"], p[f"{lp}.ln1.bias"]
            )
            x = T.layer_norm(
                T.add(x, feed_forward(x, f"{lp}.ffn")), p[f"{lp}.ln2.gain"], p[f"{lp}.ln2.bias"]
            )
    if cfg.prenorm:
        x = T.layer_norm(x, p["final.gain"], p["final.bias"])
    return x


def score_negatives(state, packed, ids) -> Tensor:
    """[P, k] scores of one negative part as the composed graph that
    `model._score_negatives` fuses for it. A pooled part, [g, 1, k], gathers
    its [g, k, d] rows once, so the table gradient is one scatter in id order
    as the node's is; then, per run of packed rows that shares a pool (all P
    rows for a batchwise pool, a session's valid rows for a sessionwise
    one), it takes the run's rows and its pool's [k, d] block with
    `take_rows`, multiplies them, and joins the runs with `concat`. An
    elementwise part is `gather_rows` + a batched `matmul`."""
    emb = state.params["item_emb"]
    b, width = packed.lead
    positions, d = packed.hidden.shape
    gb, gt, k = ids.shape
    if gt == 1:
        bounds = np.searchsorted(packed.rows, np.arange(gb + 1) * (b * width // gb))
        rows = T.gather_rows(emb, ids[:, 0])  # [g, k, d]
        runs = []
        for i, (lo, hi) in enumerate(zip(bounds[:-1], bounds[1:])):
            pool = T.take_rows(rows, np.arange(i * k, (i + 1) * k))  # [k, d]
            run = T.take_rows(packed.hidden, np.arange(lo, hi))  # [hi - lo, d]
            runs.append(matmul(run, transpose(pool, (1, 0))))
        return concat(runs, axis=0)
    rows = T.gather_rows(emb, ids.reshape(b * width, k)[packed.rows])  # [P, k, d]
    out = matmul(rows, T.reshape(packed.hidden, (positions, d, 1)))  # [P, k, 1]
    return T.reshape(out, (positions, k))


def score_sessionwise_on_grid(state, grid, mask, ids) -> Tensor:
    """[P, k] scores of a sessionwise part in the grid form the packed runs
    replaced: every session's pool scored at all W slots of the [b, W, d]
    `grid` (`matmul(grid, rows^T)`, a [b, W, k] block), then the valid
    positions picked out with `take_rows`. BLAS sums these products over
    other row counts, so it agrees with the node to rounding, not in bits."""
    rows = T.gather_rows(state.params["item_emb"], ids[:, 0])  # [b, k, d]
    out = matmul(grid, transpose(rows, (0, 2, 1)))  # [b, W, k]
    return T.take_rows(out, np.flatnonzero(mask))


def scatter_features(ids: np.ndarray, cols: np.ndarray, n_rows: int) -> np.ndarray:
    """Sum `cols[:, i]` into row `ids[i]` of an `[n_rows, d]` zero table.

    `cols` is the `[d, N]` row gradient held feature-major, so each feature
    is one `np.bincount` over a contiguous column, into its row of a
    `[d, n_rows]` table; the result is that table's transposed view. Each
    bin adds its values in id order starting from zero, exactly as
    `np.add.at` does, so the result is bit-identical to it.
    """
    ids = ids.reshape(-1)
    out = np.empty((cols.shape[0], n_rows))
    for f, col in enumerate(cols):
        out[f] = np.bincount(ids, col, minlength=n_rows)
    return out.T


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


def rank_rows(hidden: np.ndarray, targets: np.ndarray, emb: np.ndarray,
              chunk_size: int | None) -> np.ndarray:
    """Rank of `targets[i]` among the scores `emb @ hidden[i]`, ties counted.

    Every score comes from a BLAS product of the one shape
    [TILE_ROWS, d] x [d, TILE_COLS], so an item's score for a transition
    does not depend on which other transitions or items share its tile; the
    last row tile and the catalog are zero-padded to whole tiles and padded
    columns are left out of the count. Each target's score is read from its
    own column of the same product, so the count includes the target.
    """
    n, d = emb.shape
    n_pad, row_pad = -n % TILE_COLS, -len(targets) % TILE_ROWS
    n_tiles = (n + n_pad) // TILE_COLS
    tiles = np.pad(emb, ((0, n_pad), (0, 0))).reshape(n_tiles, TILE_COLS, d)
    tiles = np.ascontiguousarray(tiles.transpose(0, 2, 1))  # [n_tiles, d, TILE_COLS]
    width = n_tiles  # column tiles per score block
    if chunk_size is not None and chunk_size > 0:
        width = min(n_tiles, -(-chunk_size // TILE_COLS))
    rows = np.pad(hidden, ((0, row_pad), (0, 0)))
    padded_targets = np.pad(targets, (0, row_pad))
    ranks = np.empty(len(rows), dtype=np.int64)
    at = np.arange(TILE_ROWS)
    for lo in range(0, len(rows), TILE_ROWS):
        h = rows[lo : lo + TILE_ROWS]
        tile, col = np.divmod(padded_targets[lo : lo + TILE_ROWS], TILE_COLS)
        # the blocks holding this row tile's targets fix the target scores ...
        score = np.empty(TILE_ROWS)
        for start in np.unique(tile // width) * width:
            block = h @ tiles[start : start + width]  # [width, TILE_ROWS, TILE_COLS]
            here = (tile >= start) & (tile < start + width)
            score[here] = block[tile[here] - start, at[here], col[here]]
        # ... then every block is counted; the last one computed is reused
        kept_start, kept = start, block
        count = np.zeros(TILE_ROWS, dtype=np.int64)
        for start in range(0, n_tiles, width):
            block = kept if start == kept_start else h @ tiles[start : start + width]
            count += np.count_nonzero(block >= score[None, :, None], axis=(0, 2))
        count -= np.count_nonzero(block[-1, :, TILE_COLS - n_pad :] >= score[:, None], axis=1)
        ranks[lo : lo + TILE_ROWS] = count
    return ranks[: len(targets)]

