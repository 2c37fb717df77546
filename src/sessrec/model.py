"""Causal self-attention encoder over sessions with tied item embeddings.

The encoder follows the original self-attentive sequential-recommendation
recipe: learned additive positional embeddings, post-norm residual blocks
(pre-norm available behind a flag), single attention head by default, and a
two-layer pointwise feed-forward with ReLU. The representation at position t
predicts the item at t+1; scores are dot products against the shared item
embedding table, whose last row is reserved for padding.

The encoder runs on the N real items of a batch only, packed as [N, d]
rows: no embedding lookup, projection, feed-forward, layer norm, residual
add or dropout sees a padded slot. Causal attention is one graph node
(`causal_attention`) that scatters the packed q, k and v onto the
[b, heads, W, dh] grid and returns the mixed rows packed again.

Training scores only the P valid positions of a batch (`pack`), so padding
is never scored, filtered or back-propagated. A `NegativeSet` is one graph
node over the packed [P, d] rows, each part scored at its sampling
granularity into its own columns: a batchwise pool is one [P, d] x [d, n]
product shared by the whole batch, and a sessionwise pool one product over
its session's valid rows, so no pool is expanded per session or scored at
a padded slot. The node's backward hands `item_emb` its gradient directly:
each part adds its feature-major row gradient into one `[d, n_rows]`
accumulator a bounded block at a time (whole runs of rows, or groups of
elementwise positions), so no part's whole row gradient is ever built.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass

import numpy as np

from . import tensor as T
from .data import SessionBatch, atomic_write, load_arrays
from .errors import CacheError, ConfigError, NumericError, ShapeError
from .sampler import NegativeSet, rng_stream
from .tensor import Tensor

CHECKPOINT_FORMAT = 1
_NEG_INF = -1e9
# float64 elements (4 MB) in one block of a negative part's row gradient or
# gathered rows: whole runs of rows, or elementwise positions, at least one;
# no result depends on it
SCATTER_BLOCK = 1 << 19


@dataclass
class ModelConfig:
    n_items: int
    hidden_dim: int = 200
    num_layers: int = 2
    num_heads: int = 1
    max_len: int = 50
    dropout: float = 0.1
    prenorm: bool = False

    def __post_init__(self):
        for name in ("n_items", "hidden_dim", "num_heads", "num_layers", "max_len"):
            value = getattr(self, name)
            if not isinstance(value, (int, np.integer)):
                raise ConfigError(f"{name} must be an integer, got {value!r}")
            if value < 1:
                raise ConfigError(f"{name} must be positive")
        if self.hidden_dim % self.num_heads != 0:
            raise ConfigError(
                f"hidden_dim {self.hidden_dim} not divisible by num_heads {self.num_heads}"
            )
        if self.max_len < 2:
            raise ConfigError("max_len must be at least 2")
        if not 0.0 <= self.dropout < 1.0:
            raise ConfigError("dropout must be in [0, 1)")

    @property
    def pad_id(self) -> int:
        return self.n_items


class ModelState:
    """Named parameter table; exclusively owned by the trainer during a step."""

    def __init__(self, config: ModelConfig, params: dict[str, Tensor]):
        self.config = config
        self.params = params

    @classmethod
    def initialize(cls, config: ModelConfig, seed: int = 0) -> "ModelState":
        rng = rng_stream(seed, "init")
        d = config.hidden_dim
        params: dict[str, Tensor] = {}

        def normal(name, shape, std=0.02):
            params[name] = Tensor(rng.normal(0.0, std, size=shape), requires_grad=True)

        def xavier(name, fan_in, fan_out):
            limit = np.sqrt(6.0 / (fan_in + fan_out))
            params[name] = Tensor(
                rng.uniform(-limit, limit, size=(fan_in, fan_out)), requires_grad=True
            )

        def zeros(name, shape):
            params[name] = Tensor(np.zeros(shape), requires_grad=True)

        def ones(name, shape):
            params[name] = Tensor(np.ones(shape), requires_grad=True)

        normal("item_emb", (config.n_items + 1, d))
        params["item_emb"].data[config.pad_id] = 0.0  # pad row starts silent
        normal("pos_emb", (config.max_len, d))
        for layer in range(config.num_layers):
            p = f"layers.{layer}"
            for proj in ("wq", "wk", "wv", "wo"):
                xavier(f"{p}.attn.{proj}", d, d)
                zeros(f"{p}.attn.b{proj[1]}", (d,))
            ones(f"{p}.ln1.gain", (d,))
            zeros(f"{p}.ln1.bias", (d,))
            xavier(f"{p}.ffn.w1", d, d)
            zeros(f"{p}.ffn.b1", (d,))
            xavier(f"{p}.ffn.w2", d, d)
            zeros(f"{p}.ffn.b2", (d,))
            ones(f"{p}.ln2.gain", (d,))
            zeros(f"{p}.ln2.bias", (d,))
        if config.prenorm:
            ones("final.gain", (d,))
            zeros("final.bias", (d,))
        return cls(config, params)

    def zero_grad(self) -> None:
        for p in self.params.values():
            p.zero_grad()


def forward(
    state: ModelState,
    batch: SessionBatch,
    mode: str = "eval",
    rng: np.random.Generator | None = None,
) -> Tensor:
    """Encode a batch; position t attends only to positions <= t.

    Returns hidden states of shape [b, W, d]. Every layer runs on the N real
    items of the batch only (the slots whose id is not the pad row), packed
    as [N, d] rows; padded slots of the result are exactly 0. Padding must
    trail each row's items, as `make_batches` lays it out.
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
    is_real = ids != cfg.pad_id
    after_pad = (is_real[:, 1:] > is_real[:, :-1]).any(axis=1)
    if after_pad.any():
        raise ShapeError(f"batch row {int(np.argmax(after_pad))} has an item after padding")
    real = np.flatnonzero(is_real)  # flat [b, W] indices of the N real items

    p = state.params
    d = cfg.hidden_dim

    def dropout(x: Tensor) -> Tensor:
        # the mask is drawn over the whole [b, W, d] grid, so the dropout
        # stream does not depend on where the padding is
        if not training:
            return x
        drawn = rng.random((b * width, d))[real]
        return T.mul(x, (drawn >= cfg.dropout) / (1.0 - cfg.dropout))

    def linear(h: Tensor, prefix: str, name: str) -> Tensor:
        return T.linear(h, p[f"{prefix}.w{name}"], p[f"{prefix}.b{name}"])

    x = T.mul(T.gather_rows(p["item_emb"], ids.reshape(-1)[real]), np.sqrt(d))
    x = T.add(x, T.gather_rows(p["pos_emb"], real % width))
    x = dropout(x)

    def attention(h: Tensor, prefix: str) -> Tensor:
        q, k, v = (linear(h, prefix, name) for name in "qkv")
        mixed = causal_attention(q, k, v, real, (b, width), cfg.num_heads,
                                 cfg.dropout if training else 0.0, rng)
        return dropout(linear(mixed, prefix, "o"))

    def feed_forward(h: Tensor, prefix: str) -> Tensor:
        inner = dropout(T.relu(linear(h, prefix, "1")))
        return dropout(linear(inner, prefix, "2"))

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
    return T.scatter_rows(x, real, (b, width))


def causal_attention(q: Tensor, k: Tensor, v: Tensor, rows: np.ndarray, lead: tuple[int, int],
                     heads: int, rate: float = 0.0, rng=None) -> Tensor:
    """Causal multi-head attention over packed rows, as one node.

    `q`, `k` and `v` are [N, d] rows at the flat indices `rows` of a [b, W]
    grid. The forward scatters them onto a zero-filled [b, heads, W, dh]
    grid and repeats the composed graph's arithmetic in order: scale, the
    causal -1e9 add, the max-shifted softmax, dropout at `rate` (its mask
    drawn from `rng` over the whole [b, heads, W, W] block) and `weights @
    v`; it returns the mixed [N, d] rows. The backward runs the composed
    graph's products on operands of the same layout, so scores and
    gradients are bit-identical to that graph's. A non-finite logit raises
    NumericError, as the softmax did.
    """
    b, width = lead
    d = q.shape[-1]
    dh = d // heads
    scale = 1.0 / np.sqrt(dh)

    def grid(x: np.ndarray) -> np.ndarray:  # [N, d] -> [b, heads, W, dh] view
        full = np.zeros((b, width, d))
        full.reshape(-1, d)[rows] = x
        return full.reshape(b, width, heads, dh).transpose(0, 2, 1, 3)

    def rows_of(x: np.ndarray) -> np.ndarray:  # [b, heads, W, dh] -> [N, d] rows
        return x.transpose(0, 2, 1, 3).reshape(b * width, d)[rows]

    qg, kg, vg = grid(q.data), grid(k.data), grid(v.data)
    logits = (qg @ kg.transpose(0, 1, 3, 2)) * scale
    logits = logits + np.triu(np.full((width, width), _NEG_INF), k=1)[None, None]
    if not np.isfinite(logits).all():
        bad = logits[~np.isfinite(logits)][0]
        raise NumericError(f"softmax input contains non-finite value {bad!r}")
    e = np.exp(logits - logits.max(axis=-1, keepdims=True))
    weights = e / e.sum(axis=-1, keepdims=True)
    mask = None
    if rate > 0.0:
        mask = (rng.random(weights.shape) >= rate) / (1.0 - rate)
    kept = weights if mask is None else weights * mask

    def backward(g):
        gg = grid(g)
        gkept = gg @ np.swapaxes(vg, -1, -2)
        gv = np.swapaxes(kept, -1, -2) @ gg
        if mask is not None:
            gkept = gkept * mask
        glogits = weights * (gkept - (gkept * weights).sum(axis=-1, keepdims=True))
        glogits = glogits * scale
        gq = glogits @ kg
        gk = np.swapaxes(qg, -1, -2) @ glogits
        return rows_of(gq), rows_of(gk.transpose(0, 1, 3, 2)), rows_of(gv)

    return T._wire(rows_of(kept @ vg), (q, k, v), backward)


@dataclass
class Packed:
    """Encoder output with the valid positions of its batch picked out.

    `lead` is the batch's (b, W) shape, `rows` the ascending flat indices of
    the valid positions in [b, W], and `hidden` the [P, d] states there.
    """

    lead: tuple[int, int]
    rows: np.ndarray
    hidden: Tensor


def pack(hidden: Tensor, mask=None) -> Packed:
    """Pick the positions where `mask` is true (every position if None)."""
    b, width, d = hidden.shape
    if mask is None:
        return Packed((b, width), np.arange(b * width), T.reshape(hidden, (b * width, d)))
    mask = np.asarray(mask, dtype=bool)
    if mask.shape != (b, width):
        raise ShapeError(f"mask {mask.shape} does not match hidden {hidden.shape}")
    rows = np.flatnonzero(mask)
    return Packed((b, width), rows, T.take_rows(hidden, rows))


def score(state: ModelState, hidden, item_ids) -> Tensor:
    """Dot-product scores against tied embedding rows.

    Over a [b, W, d] hidden tensor, a [b, W] id array (targets) yields [b, W]
    scores, and a NegativeSet or 3-d id array yields [b, W, K]. Over a
    `Packed` batch the same ids yield [P] and [P, K] scores at its valid
    positions only. All negatives are one node, each part scored at its own
    granularity into its columns of the sample axis.
    """
    packed = hidden if isinstance(hidden, Packed) else pack(hidden)
    lead = packed.lead
    if isinstance(item_ids, NegativeSet) or np.ndim(item_ids) != 2:
        if not isinstance(item_ids, NegativeSet):
            item_ids = NegativeSet(np.asarray(item_ids))
        out = _score_negatives(state, packed, item_ids)
    else:
        ids = np.asarray(item_ids)
        if ids.shape != lead:
            raise ShapeError(f"target ids {ids.shape} do not match batch {lead}")
        rows = T.gather_rows(state.params["item_emb"], ids.reshape(-1)[packed.rows])
        out = T.tsum(T.mul(packed.hidden, rows), axis=-1)
    if isinstance(hidden, Packed):
        return out
    return T.reshape(out, lead + out.shape[1:])


def _score_negatives(state: ModelState, packed: Packed, negatives: NegativeSet) -> Tensor:
    """[P, K] scores of a whole negative set, as one node over the packed rows.

    Each part writes its products into its own column block of the output,
    and backward hands each part that block of the incoming gradient. A
    pooled [g, 1, k] part is one product per run of rows that shares a pool:
    all P rows (g = 1), or each session's contiguous valid rows (g = b);
    backward has BLAS write each run's row gradient feature-major, a
    contiguous [d, k] slot of its group's block, and `T.scatter_features`
    adds each group into the part's accumulator. An elementwise part
    gathers, scores and scatters groups of positions. The products are the
    composed graph's, operands in its order, and the parents (the packed
    rows, `item_emb`) repeat once per part in part order, so the engine sums
    gradients in that graph's order: scores and gradients are bit-identical
    to it.
    """
    emb, hidden = state.params["item_emb"], packed.hidden
    out = np.empty((hidden.shape[0], negatives.count))
    blocks, start = [], 0
    for ids in negatives.parts:
        cols = slice(start, start + ids.shape[-1])
        blocks.append((cols, _score_part(emb.data, packed, ids, out[:, cols])))
        start = cols.stop

    def backward(g):
        return [grad for cols, part_backward in blocks for grad in part_backward(g[:, cols])]

    return T._wire(out, (hidden, emb) * len(blocks), backward)


def _score_part(table: np.ndarray, packed: Packed, ids: np.ndarray, out: np.ndarray):
    """Write one part's [P, k] scores into `out` and return the part's
    backward, from that block's gradient to (hidden, `item_emb`) grads.
    Each block of row gradient holds about `SCATTER_BLOCK` elements."""
    h, n_rows = packed.hidden.data, table.shape[0]
    (b, width), (positions, d) = packed.lead, h.shape
    gb, gt, k = ids.shape
    step = max(1, SCATTER_BLOCK // max(d * k, 1))  # runs or positions per block
    if gt == 1:
        if gb not in (1, b):
            raise ShapeError(f"sessionwise ids {ids.shape} do not match batch of {b}")
        # run i: the valid rows among the flat slots [i n, (i + 1) n), n = bW/g;
        # each run's [k, d] rows are gathered again in backward, not held
        bounds = np.searchsorted(packed.rows, np.arange(gb + 1) * (b * width // gb))
        pool = T.row_ids(ids[:, 0], n_rows)  # [g, k]
        runs = list(zip(pool, bounds[:-1], bounds[1:]))
        for run_ids, lo, hi in runs:
            np.matmul(h[lo:hi], table[run_ids].T, out=out[lo:hi])

        def backward(g):
            ghidden, acc = np.empty((positions, d)), np.zeros((d, n_rows))
            for first in range(0, gb, step):
                group = runs[first:first + step]
                block = np.empty((len(group), d, k))  # each run's [d, k] slot contiguous
                for i, (run_ids, lo, hi) in enumerate(group):
                    np.matmul(g[lo:hi], table[run_ids], out=ghidden[lo:hi])
                    np.matmul(h[lo:hi].T, g[lo:hi], out=block[i])
                T.scatter_features(pool[first:first + step], block.transpose(1, 0, 2), acc)
            return ghidden, acc.T

        return backward
    if (gb, gt) != (b, width):
        raise ShapeError(f"elementwise ids {ids.shape} do not match batch {packed.lead}")
    # the valid positions' ids only
    picked = T.row_ids(ids.reshape(b * width, k)[packed.rows], n_rows)  # [P, k]
    # each group's [m, k, d] rows are gathered in both passes, never held
    groups = [slice(lo, lo + step) for lo in range(0, positions, step)]

    def backward(g):
        ghidden, acc = np.empty((positions, d)), np.zeros((d, n_rows))
        for rows in groups:
            ghidden[rows] = (np.swapaxes(table[picked[rows]], 1, 2) @ g[rows, :, None])[..., 0]
            cols = np.multiply(h[rows].T[:, :, None], g[rows], order="C")  # [d, m, k]
            T.scatter_features(picked[rows], cols, acc)
        return ghidden, acc.T

    for rows in groups:
        out[rows] = (table[picked[rows]] @ h[rows, :, None])[..., 0]
    return backward


# ---------------------------------------------------------------------------
# checkpointing


def save_checkpoint(state: ModelState, path, extra: dict[str, np.ndarray] | None = None) -> None:
    """Versioned binary blob: config header plus named parameter table, written
    atomically so a failed save leaves the previous file intact."""
    payload = {name: p.data for name, p in state.params.items()}
    if extra:
        overlap = set(payload) & set(extra)
        if overlap:
            raise ValueError(f"extra arrays collide with parameter names: {sorted(overlap)}")
        payload.update(extra)
    header = json.dumps(
        {"format": CHECKPOINT_FORMAT, "config": asdict(state.config),
         "params": sorted(p for p in state.params)}
    )
    with atomic_write(path) as fh:
        np.savez(fh, __header__=np.frombuffer(header.encode("utf-8"), dtype=np.uint8), **payload)


def checkpoint_record(path, extra: dict[str, np.ndarray], key: str) -> dict:
    """The JSON object stored as UTF-8 bytes under `key`; CacheError names a
    record that is not one."""
    try:
        record = json.loads(bytes(extra[key]).decode("utf-8"))
    except ValueError as exc:  # UnicodeDecodeError is a ValueError too
        raise CacheError(f"checkpoint {path} record {key!r} is not UTF-8 JSON ({exc})") from None
    if not isinstance(record, dict):
        raise CacheError(f"checkpoint {path} record {key!r} is not a JSON object")
    return record


def check_floats(stored: np.ndarray, shape: tuple, what: str, layout: str) -> None:
    """CacheError, naming `what` and the fault, unless `stored` is a real
    floating array of `shape` with every value finite; `layout` names where
    `shape` comes from."""
    if stored.shape != shape:
        raise CacheError(f"{what} has shape {stored.shape}, but {layout} {shape}")
    if stored.dtype.kind != "f":
        raise CacheError(f"{what} has dtype {stored.dtype}, not a real floating type")
    if not np.isfinite(stored).all():
        raise CacheError(f"{what} holds a value that is not finite")


def load_checkpoint(path) -> tuple[ModelState, dict[str, np.ndarray]]:
    """The state and extra arrays of a `save_checkpoint` file. CacheError names
    the key of a missing header or parameter, a config that ModelConfig
    refuses, or a parameter that is not a finite real floating array of the
    shape that config lays out."""
    extra = load_arrays(path)
    if "__header__" not in extra:
        raise CacheError(f"checkpoint {path} holds no '__header__'")
    header = checkpoint_record(path, extra, "__header__")
    del extra["__header__"]
    for key in ("format", "config"):
        if key not in header:
            raise CacheError(f"checkpoint {path} header holds no {key!r}")
    if header["format"] != CHECKPOINT_FORMAT:
        raise ConfigError(f"unsupported checkpoint format {header['format']}")
    try:
        config = ModelConfig(**header["config"])
    except (TypeError, ConfigError) as exc:
        raise CacheError(f"checkpoint {path} header 'config' does not fit ModelConfig "
                         f"({exc})") from None
    state = ModelState.initialize(config)
    for name, param in state.params.items():
        stored = extra.pop(name, None)
        if stored is None:
            raise CacheError(f"checkpoint {path} holds no parameter {name!r}")
        check_floats(stored, param.shape, f"checkpoint {path} parameter {name!r}",
                     "its config lays out")
        state.params[name] = Tensor(stored, requires_grad=True)
    return state, extra
