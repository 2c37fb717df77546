"""Causal self-attention encoder over sessions with tied item embeddings.

The encoder follows the original self-attentive sequential-recommendation
recipe: learned additive positional embeddings, post-norm residual blocks
(pre-norm available behind a flag), single attention head by default, and a
two-layer pointwise feed-forward with ReLU. The representation at position t
predicts the item at t+1; scores are dot products against the shared item
embedding table, whose last row is reserved for padding.

Training scores only the P valid positions of a batch (`pack`), so padding
is never scored, filtered or back-propagated. Negatives are scored at their
sampling granularity, one part of the `NegativeSet` at a time: a batchwise
pool is one [P, d] x [d, n] product shared by the whole batch, so the pool
is never expanded per session.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass

import numpy as np

from . import tensor as T
from .data import SessionBatch, atomic_write, load_arrays
from .errors import CacheError, ConfigError, ShapeError
from .sampler import NegativeSet, rng_stream
from .tensor import Tensor

CHECKPOINT_FORMAT = 1
_NEG_INF = -1e9


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
        if self.n_items < 1:
            raise ConfigError("n_items must be positive")
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
    x = T.dropout(x, cfg.dropout, rng, training)

    causal = np.triu(np.full((width, width), _NEG_INF), k=1)[None, None]

    def attention(h: Tensor, prefix: str) -> Tensor:
        def split(name):  # [b, W, d] projection -> [b, heads, W, dh]
            proj = T.add(T.matmul(h, p[f"{prefix}.w{name}"]), p[f"{prefix}.b{name}"])
            return T.transpose(T.reshape(proj, (b, width, heads, dh)), (0, 2, 1, 3))

        q, k, v = split("q"), split("k"), split("v")
        logits = T.add(T.mul(T.matmul(q, T.transpose(k, (0, 1, 3, 2))), 1.0 / np.sqrt(dh)), Tensor(causal))
        weights = T.dropout(T.softmax(logits, axis=-1), cfg.dropout, rng, training)
        mixed = T.matmul(weights, v)
        mixed = T.reshape(T.transpose(mixed, (0, 2, 1, 3)), (b, width, d))
        out = T.add(T.matmul(mixed, p[f"{prefix}.wo"]), p[f"{prefix}.bo"])
        return T.dropout(out, cfg.dropout, rng, training)

    def feed_forward(h: Tensor, prefix: str) -> Tensor:
        inner = T.relu(T.add(T.matmul(h, p[f"{prefix}.w1"]), p[f"{prefix}.b1"]))
        inner = T.dropout(inner, cfg.dropout, rng, training)
        out = T.add(T.matmul(inner, p[f"{prefix}.w2"]), p[f"{prefix}.b2"])
        return T.dropout(out, cfg.dropout, rng, training)

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


@dataclass
class Packed:
    """Encoder output with the valid positions of its batch picked out.

    `grid` is the [b, W, d] hidden block, `rows` the ascending flat indices
    of the valid positions in [b, W], and `hidden` the [P, d] states there.
    """

    grid: Tensor
    rows: np.ndarray
    hidden: Tensor


def pack(hidden: Tensor, mask=None) -> Packed:
    """Pick the positions where `mask` is true (every position if None)."""
    b, width, d = hidden.shape
    if mask is None:
        return Packed(hidden, np.arange(b * width), T.reshape(hidden, (b * width, d)))
    mask = np.asarray(mask, dtype=bool)
    if mask.shape != (b, width):
        raise ShapeError(f"mask {mask.shape} does not match hidden {hidden.shape}")
    rows = np.flatnonzero(mask)
    return Packed(hidden, rows, T.take_rows(hidden, rows))


def score(state: ModelState, hidden, item_ids) -> Tensor:
    """Dot-product scores against tied embedding rows.

    Over a [b, W, d] hidden tensor, a [b, W] id array (targets) yields [b, W]
    scores, and a NegativeSet or 3-d id array yields [b, W, K]. Over a
    `Packed` batch the same ids yield [P] and [P, K] scores at its valid
    positions only. Negatives are scored part by part, each at its own
    granularity, and the scores are joined along the sample axis.
    """
    packed = hidden if isinstance(hidden, Packed) else pack(hidden)
    lead = packed.grid.shape[:2]
    if isinstance(item_ids, NegativeSet) or np.ndim(item_ids) != 2:
        if not isinstance(item_ids, NegativeSet):
            item_ids = NegativeSet(np.asarray(item_ids))
        scores = [_score_negatives(state, packed, ids) for ids in item_ids.parts]
        out = scores[0] if len(scores) == 1 else T.concat(scores)
    else:
        ids = np.asarray(item_ids)
        if ids.shape != lead:
            raise ShapeError(f"target ids {ids.shape} do not match hidden {packed.grid.shape}")
        rows = T.gather_rows(state.params["item_emb"], ids.reshape(-1)[packed.rows])
        out = T.tsum(T.mul(packed.hidden, rows), axis=-1)
    if isinstance(hidden, Packed):
        return out
    return T.reshape(out, lead + out.shape[1:])


def _score_negatives(state: ModelState, packed: Packed, ids: np.ndarray) -> Tensor:
    """[P, k] scores of one part's 3-d ids, one contraction per granularity."""
    emb = state.params["item_emb"]
    b, width, d = packed.grid.shape
    gb, gt, k = ids.shape
    if gb == 1 and gt == 1:
        # one [P, d] x [d, k] product: its backward needs no [b, d, k] temporary
        rows = T.gather_rows(emb, ids[0, 0])  # [k, d]
        return T.matmul(packed.hidden, T.transpose(rows, (1, 0)))
    # The gathered rows are the left operand below, so their gradient
    # g @ hidden comes out of BLAS contiguous, ready for the scatter-add.
    if gt == 1:
        if gb != b:
            raise ShapeError(f"sessionwise ids {ids.shape} do not match batch of {b}")
        rows = T.gather_rows(emb, ids[:, 0])  # [b, k, d]
        out = T.matmul(rows, T.transpose(packed.grid, (0, 2, 1)))  # [b, k, W]
        # every session's scores over all W positions, then its valid ones
        return T.take_rows(T.transpose(out, (0, 2, 1)), packed.rows)
    if (gb, gt) != (b, width):
        raise ShapeError(f"elementwise ids {ids.shape} do not match hidden {packed.grid.shape}")
    positions = packed.rows.size
    picked = ids.reshape(b * width, k)[packed.rows]  # only the valid positions' ids
    rows = T.gather_rows(emb, picked)  # [P, k, d]
    out = T.matmul(rows, T.reshape(packed.hidden, (positions, d, 1)))  # [P, k, 1]
    return T.reshape(out, (positions, k))


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


def load_checkpoint(path) -> tuple[ModelState, dict[str, np.ndarray]]:
    """The state and extra arrays of a `save_checkpoint` file. CacheError names
    the key of a missing header or parameter, or of a parameter whose shape is
    not the one `ModelState.initialize` lays out for the header's config."""
    extra = load_arrays(path)
    if "__header__" not in extra:
        raise CacheError(f"checkpoint {path} holds no '__header__'")
    header = json.loads(bytes(extra.pop("__header__")).decode("utf-8"))
    if header["format"] != CHECKPOINT_FORMAT:
        raise ConfigError(f"unsupported checkpoint format {header['format']}")
    state = ModelState.initialize(ModelConfig(**header["config"]))
    for name, param in state.params.items():
        stored = extra.pop(name, None)
        if stored is None:
            raise CacheError(f"checkpoint {path} holds no parameter {name!r}")
        if stored.shape != param.shape:
            raise CacheError(f"checkpoint {path} parameter {name!r} has shape {stored.shape}, "
                             f"but its config lays out {param.shape}")
        state.params[name] = Tensor(stored, requires_grad=True)
    return state, extra
