"""From raw event logs to padded training batches.

Writes a small JSON-lines clickstream, then runs the full pipeline: parse ->
one columnar preparation pass (support/length fixpoint filter, temporal
split, train-only catalog) -> cache (checked on load) -> batches.
"""

import json
import tempfile
from pathlib import Path

import numpy as np

from sessrec import data as D

with tempfile.TemporaryDirectory(prefix="sessrec-demo-") as tmp:
    workdir = Path(tmp)
    raw = workdir / "clicks.jsonl"

    rng = np.random.default_rng(1)
    with open(raw, "w") as fh:
        ts = 0
        for sid in range(200):
            events = [
                {"aid": int(a), "ts": ts + j, "type": "clicks"}
                for j, a in enumerate(rng.integers(0, 40, rng.integers(2, 8)))
            ]
            fh.write(json.dumps({"session": sid, "events": events}) + "\n")
            ts += 500

    # Lenient parsing counts malformed lines instead of failing.
    stats = D.ParseStats()
    events = list(D.parse_events(raw, strict=False, stats=stats))
    print(f"parsed {stats.events} events, skipped {stats.skipped}")

    # Items below the support floor and sessions below the length floor are
    # removed alternately until nothing changes; then the trailing window
    # becomes the test split and the catalog is built from train only.
    dataset = D.prepare_dataset(events, min_support=5, min_len=2, holdout=20_000)
    print("manifest:", dataset.manifest())

    D.save_prepared(dataset, workdir / "prepared")
    # One archive holds the columns and the catalog; loading checks offsets,
    # id range and catalog keys, and counts the frequencies from train.
    reloaded = D.load_prepared(workdir / "prepared")
    print("cache round-trip OK:", reloaded.manifest() == dataset.manifest())

    # Batches carry whole sessions: ids, next-item targets, and a validity mask.
    batch = next(D.make_batches(reloaded.train, batch_size=4, max_len=6,
                                pad_id=reloaded.catalog.n_items))
    print("ids:     ", batch.item_ids[0])
    print("targets: ", batch.targets[0])
    print("mask:    ", batch.mask[0].astype(int))
