"""The batch-level in-batch sampler against the per-session one it replaced.

`reference_inbatch_capacity` and `reference_sample_inbatch` are the sampler
as it was when every session built its own candidate pool and permuted it.
The batch-level draw must give the same capacity, the same pools, the same
errors and the same variate count, and follow the same law.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats

from sessrec import sampler as S
from sessrec.data import Session, make_batches
from sessrec.errors import PoolExhaustedError

POOLS = ["multiset", "distinct"]

# ---------------------------------------------------------------------------
# the per-session reference


class PermutingGenerator(S.CountingGenerator):
    """A counting generator that can also permute; a permutation of n
    candidates takes n variates."""

    def permutation(self, x):
        self.draws += len(x)
        return self.generator.permutation(x)


def reference_inbatch_capacity(batch):
    rows = [set(batch.row_items(i).tolist()) for i in range(batch.size)]
    return len(set().union(*rows)) - max(len(r) for r in rows)


def reference_candidates(batch, i, pool):
    rows = [batch.row_items(j) for j in range(batch.size)]
    others = np.concatenate([np.empty(0, dtype=np.int64), *rows[:i], *rows[i + 1:]])
    if pool == "distinct":
        others = np.unique(others)
    return others[~np.isin(others, rows[i])]


def reference_sample_inbatch(batch, count, rng, pool="multiset"):
    b = batch.size
    rows = [batch.row_items(i) for i in range(b)]
    guaranteed = reference_inbatch_capacity(batch)
    if count > guaranteed:
        largest = max(range(b), key=lambda i: len(set(rows[i].tolist())))
        raise PoolExhaustedError(
            f"session {batch.session_refs[largest].session_id!r}: "
            f"need {count} in-batch negatives but only {guaranteed} distinct "
            f"batch items are guaranteed outside the session",
            session_id=batch.session_refs[largest].session_id,
        )
    out = np.empty((b, 1, count), dtype=np.int64)
    for i in range(b):
        candidates = reference_candidates(batch, i, pool)
        if len(candidates) < count:
            raise PoolExhaustedError(
                f"session {batch.session_refs[i].session_id!r}: pool has "
                f"{len(candidates)} candidates, need {count}",
                session_id=batch.session_refs[i].session_id,
            )
        out[i, 0] = rng.permutation(candidates)[:count]
    return out


# ---------------------------------------------------------------------------
# hypothesis batches


def batch_of(session_items, max_len=16, trim=False):
    sessions = [
        Session(f"s{i}", list(items), list(range(len(items))))
        for i, items in enumerate(session_items)
    ]
    pad = max(max(items) for items in session_items) + 1
    return next(make_batches(sessions, batch_size=len(sessions), max_len=max_len,
                             pad_id=pad, trim=trim))


@st.composite
def batches(draw):
    session_items = draw(st.lists(
        st.lists(st.integers(0, 25), min_size=1, max_size=9), min_size=1, max_size=8))
    return batch_of(session_items, max_len=draw(st.integers(2, 10)), trim=draw(st.booleans()))


@settings(max_examples=300, deadline=None)
@given(batches(), st.sampled_from(POOLS), st.integers(1, 6), st.integers(0, 2**32 - 1))
def test_matches_the_per_session_reference(batch, pool, count, seed):
    capacity = S.inbatch_capacity(batch)
    assert capacity == reference_inbatch_capacity(batch)

    ids, eligible, outside = S._inbatch_pool(batch, pool)
    assert int(outside.min()) == capacity
    for i in range(batch.size):
        np.testing.assert_array_equal(
            np.sort(ids[eligible[i]]), np.sort(reference_candidates(batch, i, pool)))

    rng = S.CountingGenerator(S.rng_stream(seed, "inbatch"))
    reference_rng = PermutingGenerator(S.rng_stream(seed, "inbatch"))
    if count > capacity:
        with pytest.raises(PoolExhaustedError) as reference_err:
            reference_sample_inbatch(batch, count, reference_rng, pool)
        with pytest.raises(PoolExhaustedError) as err:
            S.sample_inbatch(batch, count, rng, pool)
        assert err.value.session_id == reference_err.value.session_id
        assert str(err.value) == str(reference_err.value)
        assert rng.draws == reference_rng.draws == 0
        return

    out = S.sample_inbatch(batch, count, rng, pool)
    reference_sample_inbatch(batch, count, reference_rng, pool)
    assert out.ids.shape == (batch.size, 1, count)
    assert rng.draws == reference_rng.draws
    for i in range(batch.size):
        drawn = out.ids[i, 0]
        assert not np.isin(drawn, batch.row_items(i)).any()
        if pool == "distinct":
            assert np.unique(drawn).size == count
        # a draw without replacement takes no candidate more often than it occurs
        values, taken = np.unique(drawn, return_counts=True)
        pooled = reference_candidates(batch, i, pool)
        assert (taken <= (pooled[:, None] == values).sum(axis=0)).all()


@settings(max_examples=200, deadline=None)
@given(batches(), st.sampled_from(POOLS), st.integers(0, 2**32 - 1))
def test_partial_selection_equals_the_full_argsort(batch, pool, seed):
    # the kept keys' columns, in key order, are the first `count` columns of
    # each row's full argsort, at the largest count the batch allows
    count = S.inbatch_capacity(batch)
    if count == 0:
        return
    ids, eligible, _ = S._inbatch_pool(batch, pool)
    keys = np.full(eligible.shape, np.inf)
    keys[eligible] = S.rng_stream(seed, "inbatch").random(int(eligible.sum()))
    expected = ids[np.argsort(keys, axis=1)[:, :count]]
    out = S.sample_inbatch(batch, count, S.rng_stream(seed, "inbatch"), pool)
    np.testing.assert_array_equal(out.ids[:, 0], expected)


@pytest.mark.parametrize("pool", POOLS)
def test_first_draw_follows_the_exact_law(pool):
    session_items = [[0, 1], [2, 2, 3], [1, 4, 4, 5], [3, 6]]
    batch = batch_of(session_items)
    capacity = S.inbatch_capacity(batch)
    trials = 3000
    firsts = np.stack([
        S.sample_inbatch(batch, capacity, S.rng_stream(trial, "inbatch"), pool).ids[:, 0, 0]
        for trial in range(trials)
    ])
    for i, own in enumerate(session_items):
        others = [x for j, items in enumerate(session_items) if j != i for x in items]
        pooled = [x for x in others if x not in own]
        if pool == "distinct":
            pooled = sorted(set(pooled))
        support = sorted(set(pooled))
        exact = np.array([pooled.count(x) for x in support]) / len(pooled)
        observed = np.array([(firsts[:, i] == x).sum() for x in support])
        assert observed.sum() == trials  # nothing outside the pool
        assert stats.chisquare(observed, exact * trials).pvalue > 1e-3
