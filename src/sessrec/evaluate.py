"""Exhaustive full-catalog next-item evaluation (Recall@k and MRR@k).

Every position of every test session is an evaluation point: the prefix up to
position t must rank the item at t+1 against the entire catalog. Candidate
sampling is never used. Ties are resolved pessimistically: items scoring
exactly the target's score are ranked ahead of it, so a constant-score model
earns zero recall rather than an inflated one. Scores come from BLAS products
of one fixed tile shape, so no rank depends on the chunk size. Each ranking
call writes them into one reused row-major score block and counts each
transition's row of it on its own; the products are the plain tile
products, bit for bit. The hidden
states they score are not batch-invariant: an eval batch is trimmed to its
longest session and the encoder packs its real items, and BLAS may sum a
product's rows differently at another width or row count, so a near-tied
rank can depend on which sessions share a batch.

One loop batches the test sessions and ranks each batch; `evaluate` sums
the recall and reciprocal-rank contributions of its ranks, and
`iter_transition_ranks` yields them one transition at a time. The
transition average divides the sums by the transition count; the session
average takes each session's mean over its own transitions and then the
mean over the sessions that have one.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from . import model as M
from .data import Session, as_sessions, atomic_write, make_batches
from .errors import EmptyDatasetError
from .model import ModelState
from .tensor import no_grad


@dataclass
class EvalResult:
    recall_at_k: float
    mrr_at_k: float
    k: int
    n_transitions: int

    def to_dict(self) -> dict:
        return {
            "recall_at_k": self.recall_at_k,
            "mrr_at_k": self.mrr_at_k,
            "k": self.k,
            "n_transitions": self.n_transitions,
        }


# transitions and catalog items per BLAS call; fixed, so that no rank depends
# on the eval batch size or `chunk_size`
TILE_ROWS = 64
TILE_COLS = 256


def rank_contributions(rank: np.ndarray, k: int) -> tuple[np.ndarray, np.ndarray]:
    """Recall and reciprocal-rank contributions of 1-based ranks at cutoff k."""
    hit = rank <= k
    rr = np.where(hit, 1.0 / np.maximum(rank, 1), 0.0)
    return hit.astype(np.float64), rr


def batch_target_ranks(state: ModelState, batch, chunk_size: int | None = None) -> np.ndarray:
    """Pessimistic 1-based rank of each target over the full catalog, [b, W].

    Only mask-true positions are ranked; mask-false entries are 0. The
    target loses ties: its rank counts every item scoring greater than or
    equal to it. `chunk_size` bounds the score block's width, rounded up to
    whole column tiles, without changing any rank.
    """
    n = state.config.n_items
    emb = state.params["item_emb"].data[:n]  # pad row is never a candidate
    with no_grad():
        hidden = M.forward(state, batch, mode="eval").data
    ranks = np.zeros(batch.mask.shape, dtype=np.int64)
    ranks[batch.mask] = _rank_rows(hidden[batch.mask], batch.targets[batch.mask], emb, chunk_size)
    return ranks


def _rank_rows(hidden: np.ndarray, targets: np.ndarray, emb: np.ndarray,
               chunk_size: int | None) -> np.ndarray:
    """Rank of `targets[i]` among the scores `emb @ hidden[i]`, ties counted.

    Every score comes from a BLAS product of the one shape
    [TILE_ROWS, d] x [d, TILE_COLS], so an item's score for a transition
    does not depend on which other transitions or items share its tile; the
    last row tile and the catalog are zero-padded to whole tiles and padded
    columns are left out of the count. Each target's score is read from its
    own column of the same product, so the count includes the target.

    The products of a score block are written into one row-major
    [TILE_ROWS, width, TILE_COLS] buffer, allocated once per call, so each
    transition's scores over the block are one contiguous run: a row tile
    compares into one reused boolean buffer and counts each row with a 1-d
    `np.count_nonzero`. The last block read for target scores is still in
    the buffer, so it is counted first and not computed again.
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
    buf = np.empty((TILE_ROWS, width, TILE_COLS))
    scores = buf.reshape(TILE_ROWS, width * TILE_COLS)  # row i: its scores over the block
    ge = np.empty(scores.shape, dtype=bool)
    at = np.arange(TILE_ROWS)
    for lo in range(0, len(rows), TILE_ROWS):
        h = rows[lo : lo + TILE_ROWS]
        tile, col = np.divmod(padded_targets[lo : lo + TILE_ROWS], TILE_COLS)
        # the blocks holding this row tile's targets fix the target scores ...
        score = np.empty(TILE_ROWS)
        for start in np.unique(tile // width) * width:
            w = _tile_products(h, tiles, start, buf)
            here = (tile >= start) & (tile < start + width)
            score[here] = buf[at[here], tile[here] - start, col[here]]
        # ... then every block is counted, the one still in `buf` first
        kept = start
        count = np.zeros(TILE_ROWS, dtype=np.int64)
        for start in [kept, *range(0, kept, width), *range(kept + width, n_tiles, width)]:
            if start != kept:
                w = _tile_products(h, tiles, start, buf)
            cols = w * TILE_COLS - (n_pad if start + w == n_tiles else 0)  # real columns
            np.greater_equal(scores[:, :cols], score[:, None], out=ge[:, :cols])
            count += [np.count_nonzero(row) for row in ge[:, :cols]]
        ranks[lo : lo + TILE_ROWS] = count
    return ranks[: len(targets)]


def _tile_products(h: np.ndarray, tiles: np.ndarray, start: int, buf: np.ndarray) -> int:
    """Write `h @ tiles[start : start + w]` row-major into `buf[:, :w]` and
    return w, the column tiles that fit in `buf` from `start`. Each tile is
    the BLAS call `h @ tiles[t]`, written through a strided view, bit for bit."""
    w = min(buf.shape[1], len(tiles) - start)
    np.matmul(h, tiles[start : start + w], out=buf[:, :w].transpose(1, 0, 2))
    return w


def _ranked_batches(state: ModelState, sessions: Sequence[Session], batch_size: int,
                    chunk_size: int | None):
    """Yield (batch, ranks) for the eval batches of `sessions`: the one eval loop.

    `make_batches` and `batch_target_ranks` stay module globals read at each
    call: benchmark/tracer.py patches both.
    """
    cfg = state.config
    batches = make_batches(
        sessions, batch_size=batch_size, max_len=cfg.max_len, pad_id=cfg.pad_id, trim=True
    )
    for batch in batches:
        yield batch, batch_target_ranks(state, batch, chunk_size)


def iter_transition_ranks(
    state: ModelState,
    sessions: Sequence[Session],
    batch_size: int = 256,
    chunk_size: int | None = None,
):
    """Yield (session_id, position, rank) for every evaluation transition."""
    for batch, ranks in _ranked_batches(state, sessions, batch_size, chunk_size):
        for i, t in zip(*np.nonzero(batch.mask)):
            yield batch.session_refs.session_ids[i], int(t), int(ranks[i, t])


def evaluate(
    state: ModelState,
    sessions: Sequence[Session],
    k: int = 20,
    batch_size: int = 256,
    chunk_size: int | None = None,
    average: str = "transition",
) -> EvalResult:
    """Rank the full catalog at every session position; no sampling.

    `chunk_size` bounds the width of the materialized score block (rounded
    up to whole tiles of `TILE_COLS` items) without changing any result
    bit. `average="session"` averages per session first instead of over all
    transitions.
    """
    if average not in ("transition", "session"):
        raise ValueError(f"average must be 'transition' or 'session', got {average!r}")
    sessions = as_sessions(sessions)
    if not sessions:
        raise EmptyDatasetError("cannot evaluate an empty test set")

    hit_sum = 0.0
    rr_sum = 0.0
    n_transitions = 0
    rows = []  # per session with a transition: hit sum, rr sum, transitions
    for batch, ranks in _ranked_batches(state, sessions, batch_size, chunk_size):
        hit, rr = rank_contributions(ranks, k)
        hits = np.where(batch.mask, hit, 0.0)
        rr = np.where(batch.mask, rr, 0.0)
        hit_sum += float(hits.sum())
        rr_sum += float(rr.sum())
        n_transitions += int(batch.mask.sum())
        ranked = batch.mask.any(axis=1)
        rows.append((hits[ranked].sum(axis=1), rr[ranked].sum(axis=1),
                     batch.mask[ranked].sum(axis=1)))

    if n_transitions == 0:
        raise EmptyDatasetError(f"no transition to rank in the {len(sessions)} test sessions")
    if average == "session":
        row_hits, row_rr, counts = (np.concatenate(column) for column in zip(*rows))
        return EvalResult(float(np.mean(row_hits / counts)), float(np.mean(row_rr / counts)),
                          k, n_transitions)
    return EvalResult(hit_sum / n_transitions, rr_sum / n_transitions, k, n_transitions)


# ---------------------------------------------------------------------------
# metric-curve export

METRIC_COLUMNS = ("epoch", "recall_at_{k}", "mrr_at_{k}", "wall_seconds")


def export_metrics(series: Sequence[dict], path, k: int = 20) -> None:
    """Write per-epoch metrics as CSV: epoch, recall@k, mrr@k, wall seconds.

    Floats are written with full round-trip precision so parsing the file
    back reproduces the in-memory series exactly. The file is written
    atomically.
    """
    if not series:
        raise ValueError("metric series is empty")
    columns = [c.format(k=k) for c in METRIC_COLUMNS]
    with atomic_write(path, "w") as fh:
        writer = csv.writer(fh)
        writer.writerow(columns)
        for entry in series:
            writer.writerow(
                [
                    int(entry["epoch"]),
                    repr(float(entry[columns[1]])),
                    repr(float(entry[columns[2]])),
                    repr(float(entry["wall_seconds"])),
                ]
            )
