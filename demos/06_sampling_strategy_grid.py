"""Compare loss functions and top-k filtering at matched sampling budgets.

A miniature experiment grid on a synthetic clickstream with
popularity skew and hidden successor structure. Expect the listwise loss to
beat pointwise BCE decisively, and top-k filtering to hold or improve recall
while shrinking the backward pass. Runs in about 50 s on one CPU core
with one OpenBLAS thread.

The bce row reads below chance (a random ranking of the 1387 items gives
recall@20 of about 0.014), while its mean loss falls 285 -> 106 -> 43 -> 22
over the four epochs. bce adds one term per negative, so with 576 negatives
a position's gradient is nearly all push-down, and in-batch negatives are
other sessions' items, drawn in proportion to popularity like the targets.
bce alone on this grid, other settings as in the budget, one OpenBLAS thread:

    negatives                          recall@20   mrr@20
    512 uniform + 64 in-batch (row)       0.0040   0.0007
    512 uniform, no in-batch              0.0832   0.0237
    64 in-batch only                      0.0078   0.0018
    1 elementwise uniform                 0.1658   0.0369
"""

import time

import numpy as np

from sessrec import config as C
from sessrec import data as D
from sessrec import evaluate as E
from sessrec import train as TR


def synthetic_clickstream(n_items=1500, n_sessions=6000, seed=11):
    rng = np.random.default_rng(seed)
    popularity = (np.arange(n_items) + 10.0) ** -0.8
    popularity /= popularity.sum()
    successors = rng.choice(n_items, size=(n_items, 4), p=popularity)
    events, ts = [], 0
    for sid in range(n_sessions):
        item = int(rng.choice(n_items, p=popularity))
        items = [item]
        for _ in range(int(rng.integers(3, 13)) - 1):
            if rng.random() < 0.65:
                item = int(successors[item, rng.integers(0, 4)])
            else:
                item = int(rng.choice(n_items, p=popularity))
            items.append(item)
        events.extend(D.Event(sid, it, ts + j) for j, it in enumerate(items))
        ts += 1000
    return events


dataset = D.prepare_dataset(synthetic_clickstream(), min_support=5, min_len=2,
                            holdout=500 * 1000)
print("manifest:", dataset.manifest())

budget = {
    "model.hidden_dim": 48, "model.num_layers": 2, "model.dropout": 0.1,
    "data.max_len": 12, "train.epochs": 4, "train.batch_size": 128,
    "train.lr": 1e-3, "train.seed": 0,
    "negs.uniform.count": 512, "negs.uniform.granularity": "batchwise",
    "negs.inbatch.count": 64,
}

print(f"{'variant':<24} {'recall@20':>10} {'mrr@20':>8} {'epochs/h':>9}")
for label, loss, topk in [
    ("pointwise bce", "bce", 0),
    ("pairwise bpr-max", "bpr-max", 0),
    ("listwise ssm", "ssm", 0),
    ("listwise ssm + top-64", "ssm", 64),
]:
    config = C.resolve({**budget, "loss": loss, "negs.topk": topk})
    started = time.perf_counter()
    state, report = TR.train(config, dataset)
    result = E.evaluate(state, dataset.test, k=20)
    print(f"{label:<24} {result.recall_at_k:>10.4f} {result.mrr_at_k:>8.4f} "
          f"{report.epochs[-1].epochs_per_hour:>9.1f}")
