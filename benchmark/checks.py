"""Output checks for the benchmark.

Each check either recomputes a result apart from the program (the filtering
fixpoint, catalog frequencies, ranks) or tests a property the method must
have (draw-count laws, top-k keeps the k largest scores, in-batch negatives
come from other sessions, the loss falls). Every function returns a list of
failure messages; an empty list means the check passed.
"""

from __future__ import annotations

import numpy as np

from sessrec import data as D
from sessrec import evaluate as E
from sessrec import model as M
from sessrec.tensor import no_grad

# Events of session s are at s * spacing_ms + j, as written by gen.py.


def prepared(dataset, lengths, raw_items, spacing_ms: int, holdout_ms: int,
             min_support: int, min_len: int) -> list[str]:
    """Compare the prepared dataset with a NumPy recomputation from the raw arrays."""
    failures = []
    session = np.repeat(np.arange(len(lengths)), lengths)
    offsets = np.concatenate([[0], np.cumsum(lengths)])
    ts = session * spacing_ms + (np.arange(len(session)) - offsets[session])
    keys, item = np.unique(raw_items, return_inverse=True)
    alive = np.ones(len(session), dtype=bool)
    while True:
        support = np.bincount(item[alive], minlength=len(keys))
        keep = alive & (support[item] >= min_support)
        keep &= np.bincount(session[keep], minlength=len(lengths))[session] >= min_len
        if np.array_equal(keep, alive):
            break
        alive = keep
    last_ts = np.full(len(lengths), -1)
    np.maximum.at(last_ts, session[alive], ts[alive])
    cutoff = ts[alive].max() - holdout_ms
    in_train = alive & (last_ts[session] <= cutoff)

    raw_catalog = np.array(sorted(int(k) for k in dataset.catalog.id_map))
    if not np.array_equal(raw_catalog, np.unique(raw_items[in_train])):
        failures.append("catalog items differ from the recomputed train items")
    elif (support[np.searchsorted(keys, raw_catalog)] < min_support).any():
        failures.append(f"a catalog item has support below min_support={min_support}")
    n_train = len(np.unique(session[in_train]))
    if len(dataset.train) != n_train:
        failures.append(f"{len(dataset.train)} train sessions, recomputed {n_train}")
    short = [s.session_id for s in dataset.train + dataset.test if len(s) < min_len]
    if short:
        failures.append(f"session {short[0]!r} is shorter than min_len={min_len}")
    train_items = np.concatenate([np.asarray(s.items) for s in dataset.train])
    counts = np.bincount(train_items, minlength=dataset.catalog.n_items)
    if not np.array_equal(dataset.catalog.frequencies, counts):
        failures.append("catalog frequencies differ from np.bincount of the train items")
    if max(s.last_timestamp for s in dataset.train) > cutoff:
        failures.append(f"a train session ends after the cutoff {cutoff}")
    if min(s.last_timestamp for s in dataset.test) <= cutoff:
        failures.append(f"a test session ends at or before the cutoff {cutoff}")
    return failures


def ranks(state, sessions, max_len: int) -> list[str]:
    """Batched ranks against one forward per prefix and a full-catalog count."""
    failures = []
    n = state.config.n_items
    emb = state.params["item_emb"].data[:n]
    batch = next(D.make_batches(sessions, batch_size=len(sessions), max_len=max_len,
                                pad_id=state.config.pad_id, trim=True))
    got = E.batch_target_ranks(state, batch)
    with no_grad():
        for row, session in enumerate(sessions):
            items = session.items[-max_len:]
            for t in range(len(items) - 1):
                prefix = np.array([items[: t + 1]], dtype=np.int64)
                alone = D.SessionBatch(prefix, prefix, np.ones_like(prefix, dtype=bool),
                                       state.config.pad_id, [session])
                h = M.forward(state, alone, mode="eval").data[0, t]
                scores = emb @ h
                want = int((scores >= scores[items[t + 1]]).sum())
                if got[row, t] != want:
                    failures.append(f"session {session.session_id!r} position {t}: "
                                    f"rank {got[row, t]}, oracle {want}")
    return failures


def draws(config: dict, shapes: list[tuple[int, int]], counted: dict) -> list[str]:
    """Uniform draws are n per batchwise set, b*n sessionwise, b*W*n elementwise;
    an alias-table frequency draw takes two variates."""
    failures = []
    for source, variates in (("uniform", 1), ("frequency", 2)):
        n = config[f"negs.{source}.count"]
        granularity = config[f"negs.{source}.granularity"]
        per_set = {"batchwise": lambda b, w: 1, "sessionwise": lambda b, w: b,
                   "elementwise": lambda b, w: b * w}[granularity]
        want = sum(variates * n * per_set(b, w) for b, w in shapes)
        if counted[source] != want:
            failures.append(f"{source} draws {counted[source]}, expected {want}")
    return failures


def loss(losses: list[float], tail: int = 3) -> list[str]:
    if not np.isfinite(losses).all():
        return ["loss is not finite"]
    if not np.mean(losses[-tail:]) < losses[0]:
        return [f"mean of the last {tail} losses {np.mean(losses[-tail:])} "
                f"is not below the first {losses[0]}"]
    return []


def topk(neg_scores: np.ndarray, kept: np.ndarray, k: int) -> list[str]:
    """The kept scores are the k largest of each row."""
    largest = np.sort(neg_scores, axis=-1)[..., -k:]
    if not np.array_equal(np.sort(kept, axis=-1), largest):
        return [f"top-{k} kept scores differ from the {k} largest by np.sort"]
    return []


def inbatch(batch, negatives: np.ndarray) -> list[str]:
    """No in-batch negative is an item of its own session."""
    for i in range(batch.size):
        own = np.isin(negatives[i].ravel(), batch.row_items(i))
        if own.any():
            return [f"session {batch.session_refs[i].session_id!r} drew its own item "
                    f"{int(negatives[i].ravel()[own][0])} as an in-batch negative"]
    return []
