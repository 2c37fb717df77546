"""Negative sampling granularities, in-batch exclusion, and top-k filtering.

The whole point of coarse granularities: a batchwise draw produces one shared
negative set (n draws) where elementwise would draw per position (b*T*n).
"""

import numpy as np

from sessrec import sampler as S
from sessrec.data import Session, make_batches
from sessrec.tensor import Tensor

rng = S.rng_stream(seed=0, purpose="uniform")

# Same request at the three granularities; note the shapes and draw counts.
for gran in ("elementwise", "sessionwise", "batchwise"):
    counting = S.CountingGenerator(S.rng_stream(0, "uniform"))
    out = S.sample_uniform(10_000, gran, 64, counting, batch_size=8, seq_len=5)
    print(f"{gran:>12}: shape {out.ids.shape}, {counting.draws} draws")

# Frequency-proportional sampling via a Vose alias table (2 variates/draw).
weights = np.array([8.0, 4.0, 2.0, 1.0, 1.0])
freq = S.sample_frequency(weights, "batchwise", 50_000, S.rng_stream(1, "frequency"))
hist = np.bincount(freq.ids.ravel(), minlength=5) / freq.ids.size
print("frequency sampler histogram:", np.round(hist, 3), "target:", weights / weights.sum())

# In-batch negatives come from other sessions and exclude the session's own
# items; with disjoint single-item sessions each gets all the others.
sessions = [Session(i, [10 + i], [0]) for i in range(6)]
batch = next(make_batches(sessions, batch_size=6, max_len=4, pad_id=99))
inb = S.sample_inbatch(batch, 5, S.rng_stream(2, "inbatch"))
print("in-batch ids for session 0:", sorted(inb.ids[0, 0].tolist()))

# Batchwise uniform + sessionwise in-batch join along the sample axis; each
# source stays a part at its own shape, and `ids` broadcasts them on demand.
uni = S.sample_uniform(100, "batchwise", 8, S.rng_stream(3, "uniform"))
combined = S.concat_negatives(inb, uni)
print("concat [6,1,5] + [1,1,8] -> parts", [p.shape for p in combined.parts],
      "joined", combined.ids.shape)

# Top-k keeps the highest-scored (hardest) negatives; the rest get exactly
# zero gradient in the backward pass.
scores = Tensor(np.random.default_rng(4).normal(size=(1, 13)), requires_grad=True)
selection = S.topk_filter(scores, 4)
from sessrec.tensor import tsum

tsum(selection.scores).backward()
print("selected indices:", selection.indices[0])
print("gradient mask:   ", (scores.grad[0] != 0).astype(int))

# The speed case for coarse granularity, measured.
fast = S.throughput_benchmark(100_000, 8192, "batchwise", 128, 50, repeats=3)
slow = S.throughput_benchmark(100_000, 8192, "elementwise", 128, 50, repeats=1)
print(f"batchwise {fast['samples_per_sec']:.2e} samples/s "
      f"vs elementwise {slow['samples_per_sec']:.2e} samples/s")
