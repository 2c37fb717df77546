"""Training orchestration: batches, sampling, top-k filtering, Adam steps.

One optimizer step per batch. Every random decision (shuffling, dropout,
each negative source) draws from its own counter-based stream keyed by
(seed, purpose, epoch, batch index), so a run is fully determined by
(seed, config, dataset) and resume-from-checkpoint is bit-exact.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np

from . import config as C
from . import model as M
from .data import PreparedDataset, atomic_write, make_batches
from .errors import CacheError, ConfigError, DivergenceError, PoolExhaustedError
from .loss import get_loss
from .model import ModelConfig, ModelState
from .sampler import (
    AliasTable,
    CountingGenerator,
    concat_negatives,
    inbatch_capacity,
    rng_stream,
    sample_frequency,
    sample_inbatch,
    sample_uniform,
    topk_filter,
)
from .tensor import Tensor


def clip_gradient_norm(params: dict[str, Tensor], max_norm: float) -> float:
    """Scale all gradients so their global L2 norm is at most `max_norm`."""
    total = 0.0
    for p in params.values():
        if p.grad is not None:
            total += float(np.sum(p.grad * p.grad))
    norm = float(np.sqrt(total))
    if max_norm > 0.0 and norm > max_norm:
        scale = max_norm / norm
        for p in params.values():
            if p.grad is not None:
                p.grad = p.grad * scale
    return norm


class Adam:
    """Adam with bias correction over a named parameter table.

    The moments are updated in place, and the step is formed in two scratch
    arrays with the operations of `m = b1 m + (1 - b1) g`, `v = b2 v +
    (1 - b2) g g` and `p - lr m^ / (sqrt(v^) + eps)` in their written order,
    so it is bit-identical to that formula. The parameter gets a new array,
    so nothing that holds the old one sees it change.
    """

    def __init__(
        self,
        params: dict[str, Tensor],
        lr: float = 1e-3,
        beta1: float = 0.9,
        beta2: float = 0.98,
        eps: float = 1e-8,
    ):
        self.params = params
        self.lr, self.beta1, self.beta2, self.eps = lr, beta1, beta2, eps
        self.step_count = 0
        self.m = {name: np.zeros_like(p.data) for name, p in params.items()}
        self.v = {name: np.zeros_like(p.data) for name, p in params.items()}

    def step(self) -> None:
        """One update; a non-finite gradient raises before any state changes."""
        grads = [(name, p, p.grad) for name, p in self.params.items() if p.grad is not None]
        for name, _, g in grads:
            if not np.isfinite(g).all():
                raise DivergenceError(f"non-finite gradient in {name}", {"parameter": name})
        self.step_count += 1
        t = self.step_count
        for name, p, g in grads:
            m, v = self.m[name], self.v[name]
            first, second = np.empty_like(m), np.empty_like(v)
            m *= self.beta1
            m += np.multiply(1.0 - self.beta1, g, out=first)
            v *= self.beta2
            np.multiply(1.0 - self.beta2, g, out=second)
            v += np.multiply(second, g, out=second)
            np.divide(m, 1.0 - self.beta1**t, out=first)  # m^
            np.divide(v, 1.0 - self.beta2**t, out=second)  # v^
            np.multiply(self.lr, first, out=first)
            np.sqrt(second, out=second)
            second += self.eps
            p.data = p.data - np.divide(first, second, out=first)

    def state_arrays(self) -> dict[str, np.ndarray]:
        """Copies of the step count and moments, for a checkpoint."""
        out = {"opt.step": np.array([self.step_count], dtype=np.int64)}
        for name in self.params:
            out[f"opt.m.{name}"] = self.m[name].copy()
            out[f"opt.v.{name}"] = self.v[name].copy()
        return out

    def load_state_arrays(self, arrays: dict[str, np.ndarray]) -> None:
        """Restore `state_arrays`; CacheError names a missing array, a bad step,
        a moment that is not a finite real floating array of its parameter's
        shape, or a negative second moment, before any state changes."""
        step = _stored_count(arrays, "opt.step", "optimizer state")
        for name, p in self.params.items():
            for key in (f"opt.m.{name}", f"opt.v.{name}"):
                if key not in arrays:
                    raise CacheError(f"optimizer state has no {key!r}")
                M.check_floats(arrays[key], p.shape, f"optimizer state {key!r}",
                               "its parameter has")
            if (arrays[f"opt.v.{name}"] < 0).any():  # the step takes sqrt(v)
                raise CacheError(f"optimizer state 'opt.v.{name}' holds a negative value")
        self.step_count = step
        for name in self.params:
            self.m[name] = arrays[f"opt.m.{name}"].astype(np.float64)
            self.v[name] = arrays[f"opt.v.{name}"].astype(np.float64)


@dataclass
class EpochStats:
    epoch: int
    loss_mean: float
    wall_seconds: float
    draws: dict
    eval: dict | None = None

    @property
    def epochs_per_hour(self) -> float:
        return 3600.0 / self.wall_seconds if self.wall_seconds > 0 else float("inf")

    def to_dict(self) -> dict:
        out = {
            "epoch": self.epoch,
            "loss_mean": self.loss_mean,
            "wall_seconds": self.wall_seconds,
            "epochs_per_hour": self.epochs_per_hour,
            "draws": self.draws,
        }
        if self.eval is not None:
            out["eval"] = self.eval
        return out


@dataclass
class TrainReport:
    epochs: list[EpochStats] = field(default_factory=list)

    def to_dict(self) -> dict:
        return {"epochs": [e.to_dict() for e in self.epochs]}

    def save(self, path) -> None:
        with atomic_write(path, "w") as fh:
            json.dump(self.to_dict(), fh, indent=2)
            fh.write("\n")


def model_config_from(config: dict, n_items: int) -> ModelConfig:
    return ModelConfig(
        n_items=n_items,
        hidden_dim=config["model.hidden_dim"],
        num_layers=config["model.num_layers"],
        num_heads=config["model.num_heads"],
        max_len=config["data.max_len"],
        dropout=config["model.dropout"],
        prenorm=config["model.prenorm"],
    )


def train_step(
    state: ModelState,
    batch,
    config: dict,
    optimizer: Adam,
    seed: int,
    epoch: int,
    index: int,
    draw_totals: dict,
    frequency_table: AliasTable | None = None,
) -> tuple[float, int]:
    """One forward/sample/score/filter/loss/update cycle; returns (loss, positions).

    Everything after the encoder runs on the P valid positions only: [P]
    positive and [P, K] negative scores, top-k and the loss without a mask.
    """
    dropout_rng = rng_stream(seed, "dropout", epoch, index)
    hidden = M.pack(M.forward(state, batch, mode="train", rng=dropout_rng), batch.mask)
    pos_scores = M.score(state, hidden, batch.targets)

    parts = []

    def draw(purpose, sampler, *args, **kwargs):
        # the samplers stay module globals read at each call: benchmark/tracer.py patches them
        rng = CountingGenerator(rng_stream(seed, purpose, epoch, index))
        parts.append(sampler(*args, rng, **kwargs))
        draw_totals[purpose] += rng.draws

    shape = {"batch_size": batch.size, "seq_len": batch.width}
    if config["negs.frequency.count"] > 0:
        draw("frequency", sample_frequency, frequency_table,
             config["negs.frequency.granularity"], config["negs.frequency.count"], **shape)
    if config["negs.inbatch.count"] > 0:
        want = min(config["negs.inbatch.count"], inbatch_capacity(batch))
        if want > 0:
            draw("inbatch", sample_inbatch, batch, want, pool=config["negs.inbatch.pool"])
    if config["negs.uniform.count"] > 0:
        draw("uniform", sample_uniform, state.config.n_items,
             config["negs.uniform.granularity"], config["negs.uniform.count"], **shape)
    if not parts:
        # in-batch is the only source and this batch has room for none: the
        # sampler raises, naming the session, before it draws
        try:
            sample_inbatch(batch, config["negs.inbatch.count"], None)
        except PoolExhaustedError as err:
            message = f"epoch {epoch + 1}, batch {index} has no negatives to score: {err}"
            raise PoolExhaustedError(message, err.session_id) from None

    negatives = parts[0]
    for extra in parts[1:]:
        negatives = concat_negatives(negatives, extra)
    neg_scores = M.score(state, hidden, negatives)

    k = config["negs.topk"]
    if 0 < k < negatives.count:
        neg_scores = topk_filter(neg_scores, k).scores

    loss_name = config["loss"]
    loss_args = (config["loss.bpr_max.lambda"],) if loss_name == "bpr-max" else ()
    loss = get_loss(loss_name)(pos_scores, neg_scores, *loss_args)
    value = loss.item()
    if not np.isfinite(value):
        raise DivergenceError(
            f"loss diverged at epoch {epoch + 1}, batch {index}",
            snapshot={"epoch": epoch + 1, "batch": index, "loss": value},
        )

    state.zero_grad()
    loss.backward()
    if config["train.clip_norm"] > 0.0:
        clip_gradient_norm(state.params, config["train.clip_norm"])
    try:
        optimizer.step()
    except DivergenceError as err:
        snapshot = {"epoch": epoch + 1, "batch": index, **err.snapshot}
        raise DivergenceError(f"{err} at epoch {epoch + 1}, batch {index}", snapshot) from None
    return value, hidden.rows.size


def _json_array(value: dict) -> np.ndarray:
    return np.frombuffer(json.dumps(value, sort_keys=True).encode("utf-8"), dtype=np.uint8)


def check_checkpoint(path, extra: dict[str, np.ndarray], **records: dict) -> None:
    """Refuse a checkpoint whose run records differ from this run's.

    Each keyword names a record (`config`, `manifest`) that must be stored as
    `trainer.<name>` in `extra` and equal `records[name]` key by key,
    `train.epochs` aside. The first key that differs, in sorted order, is
    named with both values.
    """
    for name, current in records.items():
        if f"trainer.{name}" not in extra:
            raise ConfigError(f"checkpoint {path} holds no trainer.{name} to check this run against")
        saved = M.checkpoint_record(path, extra, f"trainer.{name}")
        current = json.loads(json.dumps(current))  # compare JSON to JSON
        for key in sorted(saved.keys() | current.keys()):
            if key != "train.epochs" and saved.get(key) != current.get(key):
                raise ConfigError(
                    f"checkpoint {path} does not fit this run: {name} key {key!r} is "
                    f"{saved.get(key)!r} in the checkpoint but {current.get(key)!r} in this run"
                )


def _stored_count(arrays: dict[str, np.ndarray], key: str, where: str) -> int:
    """The count stored under `key` as a one-element integer array; CacheError
    names a missing key, or a value that is not one integer or is negative."""
    if key not in arrays:
        raise CacheError(f"{where} holds no {key!r}")
    stored = arrays[key]
    if stored.shape != (1,) or stored.dtype.kind not in "iu" or stored[0] < 0:
        raise CacheError(f"{where} {key!r} is a {stored.dtype} array of shape {stored.shape}, "
                         "not one integer >= 0")
    return int(stored[0])


def train(
    config: dict,
    dataset: PreparedDataset,
    eval_hook: Callable[[ModelState, int], dict] | None = None,
    out_dir=None,
    resume_from=None,
) -> tuple[ModelState, TrainReport]:
    """Run the configured number of epochs; deterministic for a fixed seed."""
    config = C.validate(config)
    seed = config["train.seed"]
    n_items = dataset.catalog.n_items
    manifest = dataset.manifest()

    start_epoch = 0
    if resume_from is not None:
        state, extra = M.load_checkpoint(resume_from)
        check_checkpoint(resume_from, extra, config=config, manifest=manifest)
        start_epoch = _stored_count(extra, "trainer.epoch", f"checkpoint {resume_from}")
    else:
        state = ModelState.initialize(model_config_from(config, n_items), seed=seed)
    optimizer = Adam(
        state.params, config["train.lr"], config["train.beta1"],
        config["train.beta2"], config["train.eps"],
    )
    if resume_from is not None:
        try:
            optimizer.load_state_arrays(extra)
        except CacheError as err:
            raise CacheError(f"checkpoint {resume_from}: {err}") from None

    frequency_table = None
    if config["negs.frequency.count"] > 0:
        frequency_table = AliasTable(dataset.catalog.frequencies)

    out = Path(out_dir) if out_dir is not None else None
    if out is not None:
        (out / "ckpt").mkdir(parents=True, exist_ok=True)

    report = TrainReport()
    for epoch in range(start_epoch, config["train.epochs"]):
        draw_totals = {"uniform": 0, "frequency": 0, "inbatch": 0}
        loss_sum = 0.0
        position_count = 0
        started = time.perf_counter()
        batches = make_batches(
            dataset.train,
            batch_size=config["train.batch_size"],
            max_len=config["data.max_len"],
            pad_id=n_items,
            shuffle_rng=rng_stream(seed, "shuffle", epoch),
            trim=config["train.trim_batches"],
        )
        for index, batch in enumerate(batches):
            try:
                value, positions = train_step(
                    state, batch, config, optimizer, seed, epoch, index, draw_totals,
                    frequency_table=frequency_table,
                )
            except DivergenceError as err:
                if out is not None:
                    with atomic_write(out / "divergence.json", "w") as fh:
                        json.dump(err.snapshot, fh, indent=2)
                raise
            loss_sum += value * positions
            position_count += positions
        wall = time.perf_counter() - started

        stats = EpochStats(
            epoch=epoch + 1,
            loss_mean=loss_sum / max(position_count, 1),
            wall_seconds=wall,
            draws=dict(draw_totals),
        )
        if eval_hook is not None:
            stats.eval = eval_hook(state, epoch + 1)
        report.epochs.append(stats)

        if out is not None:
            extra = optimizer.state_arrays()
            extra["trainer.epoch"] = np.array([epoch + 1], dtype=np.int64)
            extra["trainer.config"] = _json_array(config)
            extra["trainer.manifest"] = _json_array(manifest)
            M.save_checkpoint(state, out / "ckpt" / f"epoch-{epoch + 1}.bin", extra)
            report.save(out / "report.json")

    return state, report
