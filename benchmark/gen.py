"""Seeded, vectorised clickstream generator for the benchmark.

It draws the same kind of data as ``synthetic_clickstream`` in
``tests/test_acceptance.py``: a popularity-skewed catalog (Zipf-like weights
``(rank + 10) ** -0.8``) with a hidden successor structure, where each next
click follows one of the current item's four successors with probability
0.65 and is a fresh popularity draw otherwise. Session lengths are uniform in
[3, 12]. The Markov chain advances one position for all sessions at once, so
300k events take well under a second instead of minutes.

Sessions start ``spacing_ms`` apart and clicks within a session 1 ms apart,
so a trailing holdout of ``test_share * n_sessions * spacing_ms`` puts about
that share of sessions into the test split. Raw item ids are a seeded sample
of a sparse id space, so the program's dense re-indexing is exercised.

The result is written as session JSON lines, the format ``sessrec prep``
reads by default.
"""

from __future__ import annotations

import numpy as np

MIN_LEN, MAX_LEN = 3, 12
FOLLOW_SUCCESSOR = 0.65
N_SUCCESSORS = 4
RAW_ID_SPACE = 10_000_000


def generate(n_items: int, n_sessions: int, seed: int, catalog_seed: int = 0):
    """Return (session_lengths, raw_item_ids) with the items of all sessions concatenated.

    ``catalog_seed`` fixes the catalog (successor graph and raw ids); ``seed``
    draws the sessions.
    """
    catalog_rng = np.random.default_rng(catalog_seed)
    rng = np.random.default_rng(seed)
    popularity = (np.arange(n_items) + 10.0) ** -0.8
    popularity /= popularity.sum()
    cdf = np.cumsum(popularity)
    cdf[-1] = 1.0

    def popular(size, source=rng):
        return np.searchsorted(cdf, source.random(size), side="right")

    successors = popular((n_items, N_SUCCESSORS), catalog_rng)
    raw_ids = catalog_rng.choice(RAW_ID_SPACE, size=n_items, replace=False)
    lengths = rng.integers(MIN_LEN, MAX_LEN + 1, size=n_sessions)
    chain = np.empty((n_sessions, MAX_LEN), dtype=np.int64)
    chain[:, 0] = popular(n_sessions)
    for t in range(1, MAX_LEN):
        follow = rng.random(n_sessions) < FOLLOW_SUCCESSOR
        pick = rng.integers(0, N_SUCCESSORS, size=n_sessions)
        chain[:, t] = np.where(follow, successors[chain[:, t - 1], pick], popular(n_sessions))
    items = chain[np.arange(MAX_LEN)[None, :] < lengths[:, None]]
    return lengths, raw_ids[items]


def write_session_jsonl(path, lengths, items, spacing_ms: int) -> int:
    """Write sessions as JSON lines; returns the number of events written."""
    offsets = np.concatenate([[0], np.cumsum(lengths)])
    with open(path, "w", encoding="utf-8") as fh:
        for sid in range(len(lengths)):
            start = sid * spacing_ms
            events = ",".join(
                f'{{"aid":{aid},"ts":{start + j},"type":"clicks"}}'
                for j, aid in enumerate(items[offsets[sid] : offsets[sid + 1]].tolist())
            )
            fh.write(f'{{"session":{sid},"events":[{events}]}}\n')
    return int(offsets[-1])
