"""Negative sampling at elementwise/sessionwise/batchwise granularity.

Granularity decides how often a fresh negative set is drawn and therefore the
tensor shape carrying it:

    elementwise   one set per (session, position)   ids shaped [b, T, n]
    sessionwise   one set per session               ids shaped [b, 1, n]
    batchwise     one set per batch                 ids shaped [1, 1, n]

A `NegativeSet` holds its sources as parts in sample-axis order, each at
its own shape, and merges adjacent parts of one shape. A mix of shapes (say
in-batch [b, 1, m] plus a batchwise pool [1, 1, n]) stays two parts, and the
model scores each at its own granularity, so the pool is one matrix multiply
shared by the whole batch and never a per-session copy.

Uniform and frequency samplers deliberately do NOT exclude a session's own
items (false negatives are rare on large catalogs and exclusion is what makes
sampling expensive); only in-batch sampling excludes, since its candidates are
batch items and collisions would be common. Top-k filtering keeps the highest
scored negatives for the backward pass and guarantees exactly-zero gradient
for the rest.

All samplers draw from counter-based streams (`rng_stream`) so results depend
only on (seed, purpose, epoch, batch index), never on worker scheduling. The
``CountingGenerator`` wrapper makes draw volumes observable: batchwise
sampling of n negatives costs n draws per batch where elementwise costs
b*T*n, which is the entire speed case for coarse granularities.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from enum import Enum

import numpy as np

from . import tensor as T
from .data import SessionBatch
from .errors import ConfigError, PoolExhaustedError, ShapeError
from .tensor import Tensor

MAX_SAMPLE_COUNT = 1 << 20

STREAM_PURPOSES = {
    "init": 0,
    "shuffle": 1,
    "dropout": 2,
    "uniform": 3,
    "frequency": 4,
    "inbatch": 5,
}


class Granularity(str, Enum):
    ELEMENTWISE = "elementwise"
    SESSIONWISE = "sessionwise"
    BATCHWISE = "batchwise"


def rng_stream(seed: int, purpose: str, epoch: int = 0, index: int = 0) -> np.random.Generator:
    """Counter-based Philox stream keyed by (seed, purpose, epoch, index)."""
    key = [np.uint64(seed), np.uint64(STREAM_PURPOSES[purpose])]
    counter = [0, 0, np.uint64(epoch), np.uint64(index)]
    return np.random.Generator(np.random.Philox(key=key, counter=counter))


class CountingGenerator:
    """RNG wrapper counting how many random variates were requested."""

    def __init__(self, generator: np.random.Generator):
        self.generator = generator
        self.draws = 0

    @staticmethod
    def _count(size) -> int:
        if size is None:
            return 1
        if isinstance(size, int):
            return size
        return int(np.prod(size))

    def integers(self, low, high=None, size=None):
        self.draws += self._count(size)
        return self.generator.integers(low, high, size=size)

    def random(self, size=None):
        self.draws += self._count(size)
        return self.generator.random(size=size)


class NegativeSet:
    """Sampled negative ids, held as parts in sample-axis order.

    A part is a 3-d id array whose shape is its granularity: [1, 1, n],
    [b, 1, n] or [b, T, n]. Adjacent parts of one shape are merged, and the
    leading shapes of all parts must broadcast together.
    """

    def __init__(self, *parts: np.ndarray):
        if not parts:
            raise ShapeError("a negative set needs at least one part")
        merged: list[np.ndarray] = []
        for ids in parts:
            if ids.ndim != 3:
                raise ShapeError(f"negative ids must be 3-d, got shape {ids.shape}")
            if merged and merged[-1].shape[:2] == ids.shape[:2]:
                merged[-1] = np.concatenate([merged[-1], ids], axis=-1)
            else:
                merged.append(ids)
        self.parts = tuple(merged)
        self._lead()  # raises if the leading shapes do not broadcast

    def _lead(self) -> tuple[int, ...]:
        try:
            return np.broadcast_shapes(*(ids.shape[:2] for ids in self.parts))
        except ValueError:
            shapes = ", ".join(str(ids.shape) for ids in self.parts)
            raise ShapeError(f"negative parts do not broadcast: {shapes}") from None

    @property
    def count(self) -> int:
        return sum(ids.shape[-1] for ids in self.parts)

    @property
    def ids(self) -> np.ndarray:
        """The parts joined along the sample axis, broadcast to the finest shape."""
        lead = self._lead()
        return np.concatenate(
            [np.broadcast_to(ids, (*lead, ids.shape[-1])) for ids in self.parts], axis=-1
        )


@dataclass
class TopKSelection:
    """Indices (ascending per row) and gathered scores of the K best negatives."""

    indices: np.ndarray
    scores: Tensor


def _shape_for(granularity: Granularity, count: int, batch_size, seq_len) -> tuple[int, int, int]:
    granularity = Granularity(granularity)
    if granularity is Granularity.BATCHWISE:
        return (1, 1, count)
    if batch_size is None:
        raise ConfigError(f"{granularity.value} sampling requires batch_size")
    if granularity is Granularity.SESSIONWISE:
        return (int(batch_size), 1, count)
    if seq_len is None:
        raise ConfigError("elementwise sampling requires seq_len")
    return (int(batch_size), int(seq_len), count)


def _check_count(count: int) -> None:
    if count < 0:
        raise ConfigError(f"negative sample count must be >= 0, got {count}")
    if count > MAX_SAMPLE_COUNT:
        raise ConfigError(f"sample count {count} exceeds hard cap {MAX_SAMPLE_COUNT}")


def sample_uniform(
    catalog, granularity, count: int, rng, *, batch_size=None, seq_len=None
) -> NegativeSet:
    """IID uniform draws over the whole catalog; positives are not excluded."""
    _check_count(count)
    n_items = int(catalog)
    if n_items < 1:
        raise ConfigError("cannot sample from an empty catalog")
    shape = _shape_for(granularity, count, batch_size, seq_len)
    return NegativeSet(rng.integers(0, n_items, size=shape).astype(np.int64, copy=False))


class AliasTable:
    """Vose alias method: O(n) build, O(1) weighted draws (2 variates each)."""

    def __init__(self, weights):
        w = np.asarray(weights, dtype=np.float64)
        if w.ndim != 1 or w.size == 0:
            raise ConfigError("alias table needs a nonempty 1-d weight vector")
        if (w < 0).any():
            raise ConfigError("alias table weights must be nonnegative")
        total = w.sum()
        if total <= 0:
            raise ConfigError("alias table weights sum to zero")
        n = w.size
        scaled = w * (n / total)
        self.prob = np.ones(n, dtype=np.float64)
        self.alias = np.arange(n, dtype=np.int64)
        small = [i for i in range(n) if scaled[i] < 1.0]
        large = [i for i in range(n) if scaled[i] >= 1.0]
        while small and large:
            s, l = small.pop(), large.pop()
            self.prob[s] = scaled[s]
            self.alias[s] = l
            scaled[l] = (scaled[l] + scaled[s]) - 1.0
            (small if scaled[l] < 1.0 else large).append(l)

    @property
    def n(self) -> int:
        return self.prob.size

    def sample(self, rng, size) -> np.ndarray:
        idx = rng.integers(0, self.n, size=size)
        coin = rng.random(size=size)
        return np.where(coin < self.prob[idx], idx, self.alias[idx]).astype(np.int64)


def sample_frequency(
    catalog, granularity, count: int, rng, *, batch_size=None, seq_len=None
) -> NegativeSet:
    """IID draws proportional to empirical interaction frequency."""
    _check_count(count)
    table = catalog if isinstance(catalog, AliasTable) else AliasTable(catalog)
    return NegativeSet(table.sample(rng, _shape_for(granularity, count, batch_size, seq_len)))


def _inbatch_pool(batch: SessionBatch, pool: str):
    """Each session's in-batch pool on one candidate axis for the batch: the
    candidate ids (valid occurrences row-major, or the `U` distinct items),
    `eligible[i, j]` (candidate `j` is not an item of row `i`), and each row's
    count of distinct batch items outside it."""
    valid = np.arange(batch.width) < batch.mask.sum(axis=1, keepdims=True) + 1
    items, inverse = np.unique(batch.item_ids[valid], return_inverse=True)
    member = np.zeros((batch.size, items.size), dtype=bool)
    member[np.nonzero(valid)[0], inverse] = True
    candidates = inverse if pool == "multiset" else np.arange(items.size)
    return items[candidates], ~member[:, candidates], items.size - member.sum(axis=1)


def inbatch_capacity(batch: SessionBatch) -> int:
    """In-batch negatives every session can be given: the batch's distinct
    items minus the distinct items of its largest session."""
    return int(_inbatch_pool(batch, "distinct")[2].min())


def sample_inbatch(
    batch: SessionBatch, count: int, rng, pool: str = "multiset"
) -> NegativeSet:
    """Draw negatives for each session from the other sessions in its batch.

    Candidates are the item occurrences of every other session (set
    ``pool="distinct"`` to deduplicate); ids present in the owning session are
    excluded, and the draw is without replacement, so with single-item
    disjoint sessions each session receives a permutation of all other items.
    Within-batch occurrence counts make this frequency-proportional sampling.

    One batch-level draw: each session keeps the candidates of its `count`
    smallest uniform keys, one key per eligible candidate. That is the law and
    the variate count (the sum of pool sizes) of permuting each pool apart.
    """
    _check_count(count)
    if pool not in ("multiset", "distinct"):
        raise ConfigError(f"inbatch pool must be 'multiset' or 'distinct', got {pool!r}")
    if count == 0:
        return NegativeSet(np.empty((batch.size, 1, 0), dtype=np.int64))

    ids, eligible, outside = _inbatch_pool(batch, pool)
    guaranteed = int(outside.min())
    if count > guaranteed:
        largest = batch.session_refs[int(np.argmin(outside))].session_id
        raise PoolExhaustedError(
            f"session {largest!r}: need {count} in-batch negatives but only {guaranteed} "
            f"distinct batch items are guaranteed outside the session",
            session_id=largest,
        )

    # each row now has at least `guaranteed` >= count eligible candidates
    keys = np.full(eligible.shape, np.inf)
    keys[eligible] = rng.random(int(eligible.sum()))
    ids = ids[np.argsort(keys, axis=1)[:, :count]]
    return NegativeSet(ids[:, None, :])


def concat_negatives(first: NegativeSet, second: NegativeSet) -> NegativeSet:
    """Join two negative sets along the sample axis, each part at its own shape."""
    return NegativeSet(*first.parts, *second.parts)


def topk_filter(neg_scores: Tensor, k: int) -> TopKSelection:
    """Select the K largest scores along the last axis, ties to lower index.

    The gathered scores stay on the autodiff graph; negatives that were not
    selected receive exactly zero gradient.

    `np.argpartition` picks some k entries at or above each row's k-th
    largest value. The pick is exact unless the row holds that value outside
    the pick too (a pool that repeats an id scores it alike); only such tied
    rows are repaired, by giving the value's slots to its lowest-index
    occurrences. The indices are then sorted.
    """
    neg_scores = T.as_tensor(neg_scores)
    n = neg_scores.shape[-1]
    if not 1 <= k <= n:
        raise ConfigError(f"top-k needs 1 <= k <= {n}, got {k}")
    x = neg_scores.data.reshape(-1, n)
    picked = np.argpartition(x, n - k, axis=1)[:, n - k :]
    values = np.take_along_axis(x, picked, axis=1)
    kth = values[:, :1]  # argpartition puts the k-th largest first
    at_kth = values == kth
    slots = np.count_nonzero(at_kth, axis=1)
    occurs = x == kth
    count = np.count_nonzero(occurs, axis=1)
    tied = np.flatnonzero(count > slots)
    if tied.size:
        # a tied row's slots at the k-th value go, in row-major order, to that
        # many of the value's lowest-index occurrences in the row
        rows, cols = np.nonzero(occurs[tied])
        first = np.cumsum(count[tied]) - count[tied]
        lowest = cols[np.arange(cols.size) - first[rows] < slots[tied][rows]]
        repaired = picked[tied]
        repaired[at_kth[tied]] = lowest
        picked[tied] = repaired
    indices = np.sort(picked, axis=1).reshape(*neg_scores.shape[:-1], k)
    return TopKSelection(indices, T.take_along_last(neg_scores, indices))


def throughput_benchmark(
    n_items: int,
    count: int,
    granularity,
    batch_size: int,
    seq_len: int,
    seed: int = 0,
    repeats: int = 5,
) -> dict:
    """Time the uniform sampler at one granularity; serves b*T*count slots/batch."""
    granularity = Granularity(granularity)
    counting = CountingGenerator(rng_stream(seed, "uniform"))
    start = time.perf_counter()
    for rep in range(repeats):
        sample_uniform(
            n_items, granularity, count, counting, batch_size=batch_size, seq_len=seq_len
        )
    elapsed = time.perf_counter() - start
    slots = batch_size * seq_len * count * repeats
    return {
        "granularity": granularity.value,
        "count": count,
        "draws_per_batch": counting.draws // repeats,
        "seconds": elapsed,
        "samples_per_sec": slots / elapsed if elapsed > 0 else float("inf"),
    }
