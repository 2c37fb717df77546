"""Span tracer that wraps the public functions of each sessrec layer.

The wrappers live here, in the benchmark, so the library is measured as it
ships. Each wrapped call records a span ``[name, start, end, parent]`` in
memory; a layer's self time is its span's duration minus the time its child
spans cover. Counts are recorded at the same boundaries, so ratios are
measured where the work happens. ``install`` swaps the wrappers in and
``uninstall`` puts every original object back.
"""

from __future__ import annotations

import time
from collections import defaultdict
from contextlib import contextmanager

import numpy as np

from sessrec import data as D
from sessrec import evaluate as E
from sessrec import model as M
from sessrec import train as TR
from sessrec.tensor import Tensor

# (owner, attribute, span name); the loss returned by train.get_loss is
# wrapped separately because it is chosen at call time.
_PLAIN = [
    (D, "prepare_dataset", "data.prepare"),
    (D, "save_prepared", "data.save"),
    (D, "load_prepared", "data.load"),
    (TR, "sample_uniform", "sampler.uniform"),
    (TR, "sample_frequency", "sampler.frequency"),
    (TR, "concat_negatives", "sampler.concat"),
    (TR.Adam, "step", "train.adam"),
    (Tensor, "backward", "tensor.backward"),
]


class Patches:
    """Attribute replacements that can all be undone and verified."""

    def __init__(self):
        self._saved = []

    def set(self, owner, attr: str, value) -> None:
        self._saved.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def restore(self) -> list[str]:
        """Put every original back; returns the names that did not come back."""
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        left = [f"{owner.__name__}.{attr}" for owner, attr, original in self._saved
                if getattr(owner, attr) is not original]
        self._saved = []
        return left


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []
        self.counts: dict[str, float] = defaultdict(float)
        self.maxima: dict[str, float] = defaultdict(float)
        self._patches = Patches()

    @contextmanager
    def span(self, name: str):
        index = len(self.spans)
        self.spans.append([name, time.perf_counter(), None, self._stack[-1] if self._stack else -1])
        self._stack.append(index)
        try:
            yield
        finally:
            self._stack.pop()
            self.spans[index][2] = time.perf_counter()

    def _timed(self, original, name: str):
        def wrapper(*args, **kwargs):
            with self.span(name):
                return original(*args, **kwargs)

        return wrapper

    def install(self) -> None:
        for owner, attr, name in _PLAIN:
            self._patches.set(owner, attr, self._timed(getattr(owner, attr), name))
        self._patches.set(D, "parse_events", self._parse_events(D.parse_events))
        batches = self._make_batches(D.make_batches)
        self._patches.set(TR, "make_batches", batches)
        self._patches.set(E, "make_batches", batches)
        self._patches.set(TR, "sample_inbatch", self._sample_inbatch(TR.sample_inbatch))
        self._patches.set(TR, "topk_filter", self._topk_filter(TR.topk_filter))
        self._patches.set(M, "forward", self._forward(M.forward))
        self._patches.set(M, "score", self._score(M.score))
        self._patches.set(TR, "get_loss", self._get_loss(TR.get_loss))
        self._patches.set(TR, "train_step", self._train_step(TR.train_step))
        self._patches.set(E, "batch_target_ranks", self._batch_target_ranks(E.batch_target_ranks))

    def uninstall(self) -> list[str]:
        return self._patches.restore()

    # -- wrappers that also count ------------------------------------------

    def _parse_events(self, original):
        # Materialised inside the span: the caller consumes the whole stream
        # before doing anything else, so no other span can interleave.
        def parse_events(*args, **kwargs):
            with self.span("data.parse"):
                events = list(original(*args, **kwargs))
            self.counts["data.events"] += len(events)
            return iter(events)

        return parse_events

    def _make_batches(self, original):
        def make_batches(*args, **kwargs):
            inner = original(*args, **kwargs)
            while True:
                with self.span("data.batch"):
                    batch = next(inner, None)
                if batch is None:
                    return
                yield batch

        return make_batches

    def _sample_inbatch(self, original):
        def sample_inbatch(batch, count, *args, **kwargs):
            with self.span("sampler.inbatch"):
                out = original(batch, count, *args, **kwargs)
            self.counts["sampler.inbatch_delivered"] += out.count
            return out

        return sample_inbatch

    def _topk_filter(self, original):
        def topk_filter(neg_scores, k):
            with self.span("sampler.topk"):
                out = original(neg_scores, k)
            self.counts["sampler.topk_dropped"] += neg_scores.data.size - out.scores.data.size
            return out

        return topk_filter

    def _forward(self, original):
        def forward(state, batch, mode="eval", rng=None):
            with self.span(f"model.forward_{mode}"):
                return original(state, batch, mode=mode, rng=rng)

        return forward

    def _score(self, original):
        def score(state, hidden, item_ids):
            ids = getattr(item_ids, "ids", item_ids)
            if np.ndim(ids) == 2:
                with self.span("model.score_pos"):
                    return original(state, hidden, item_ids)
            with self.span("model.score_neg"):
                out = original(state, hidden, item_ids)
            self.counts["sampler.negatives_scored"] += out.data.size
            block = int(np.prod(np.shape(ids))) * state.config.hidden_dim * 8
            self.maxima["model.neg_block_bytes"] = max(self.maxima["model.neg_block_bytes"], block)
            return out

        return score

    def _get_loss(self, original):
        def get_loss(name):
            return self._timed(original(name), "loss.forward")

        return get_loss

    def _train_step(self, original):
        def train_step(state, batch, *args, **kwargs):
            with self.span("train.step"):
                value, positions = original(state, batch, *args, **kwargs)
            self.counts["train.steps"] += 1
            self.counts["train.positions"] += positions
            self.counts["train.slots"] += batch.mask.size
            return value, positions

        return train_step

    def _batch_target_ranks(self, original):
        def batch_target_ranks(state, batch, chunk_size=None):
            with self.span("evaluate.rank"):
                out = original(state, batch, chunk_size)
            self.counts["evaluate.transitions"] += int(batch.mask.sum())
            self.counts["evaluate.slots"] += batch.mask.size
            self.counts["evaluate.scores"] += batch.mask.size * state.config.n_items
            return out

        return batch_target_ranks

    # -- results -------------------------------------------------------------

    def self_times(self) -> dict[str, float]:
        """Seconds per span name, each span minus the time its children cover."""
        totals: dict[str, float] = defaultdict(float)
        for name, start, end, parent in self.spans:
            totals[name] += end - start
            if parent >= 0:
                totals[self.spans[parent][0]] -= end - start
        return dict(totals)
