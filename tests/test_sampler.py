"""Shape, exclusion, statistical, and top-k contracts of the samplers."""

import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats

from sessrec import loss as L
from sessrec import sampler as S
from sessrec import tensor as T
from sessrec.data import Session, make_batches
from sessrec.errors import ConfigError, PoolExhaustedError, ShapeError
from sessrec.sampler import Granularity
from sessrec.tensor import Tensor

GRANULARITIES = [Granularity.ELEMENTWISE, Granularity.SESSIONWISE, Granularity.BATCHWISE]


def expected_shape(granularity, count, b, t):
    return {
        Granularity.ELEMENTWISE: (b, t, count),
        Granularity.SESSIONWISE: (b, 1, count),
        Granularity.BATCHWISE: (1, 1, count),
    }[granularity]


def batch_of(session_items, max_len=16):
    sessions = [
        Session(f"s{i}", list(items), list(range(len(items))))
        for i, items in enumerate(session_items)
    ]
    pad = max(max(items) for items in session_items) + 1
    return next(make_batches(sessions, batch_size=len(sessions), max_len=max_len, pad_id=pad))


class TestUniform:
    def test_singleton_catalog(self):
        rng = S.rng_stream(0, "uniform")
        out = S.sample_uniform(1, Granularity.BATCHWISE, 8, rng)
        np.testing.assert_array_equal(out.ids, 0)

    def test_batchwise_paper_scale_shape(self):
        rng = S.rng_stream(0, "uniform")
        out = S.sample_uniform(1000, Granularity.BATCHWISE, 16384, rng)
        assert out.ids.shape == (1, 1, 16384)

    def test_count_cap(self):
        with pytest.raises(ConfigError):
            S.sample_uniform(10, Granularity.BATCHWISE, (1 << 20) + 1, S.rng_stream(0, "uniform"))

    def test_chi_square_uniformity(self):
        n_items, draws = 50, 100_000
        rng = S.rng_stream(7, "uniform")
        out = S.sample_uniform(n_items, Granularity.BATCHWISE, draws, rng)
        counts = np.bincount(out.ids.ravel(), minlength=n_items)
        assert stats.chisquare(counts).pvalue > 0.01

    def test_positives_are_not_excluded(self):
        # deliberate: collisions with a session's own items are tolerated
        rng = S.rng_stream(1, "uniform")
        out = S.sample_uniform(2, Granularity.BATCHWISE, 1000, rng)
        assert set(np.unique(out.ids)) == {0, 1}


class TestFrequency:
    def test_three_to_one_ratio(self):
        rng = S.rng_stream(2, "frequency")
        out = S.sample_frequency(np.array([3, 1]), Granularity.BATCHWISE, 40_000, rng)
        frac_a = float(np.mean(out.ids == 0))
        assert abs(frac_a - 0.75) < 0.01

    def test_single_item_degenerate(self):
        rng = S.rng_stream(3, "frequency")
        out = S.sample_frequency(np.array([9]), Granularity.SESSIONWISE, 5, rng, batch_size=4)
        np.testing.assert_array_equal(out.ids, 0)

    def test_zero_count_is_empty(self):
        out = S.sample_frequency(np.array([1, 2]), Granularity.BATCHWISE, 0, S.rng_stream(0, "frequency"))
        assert out.ids.shape == (1, 1, 0)

    def test_all_zero_frequencies_rejected(self):
        with pytest.raises(ConfigError):
            S.sample_frequency(np.zeros(4), Granularity.BATCHWISE, 2, S.rng_stream(0, "frequency"))

    def test_total_variation_distance(self):
        rng_w = np.random.default_rng(4)
        weights = rng_w.zipf(1.5, size=60).astype(float)
        target = weights / weights.sum()
        out = S.sample_frequency(weights, Granularity.BATCHWISE, 100_000, S.rng_stream(5, "frequency"))
        empirical = np.bincount(out.ids.ravel(), minlength=60) / out.ids.size
        assert 0.5 * np.abs(empirical - target).sum() < 0.02

    def test_alias_table_matches_exact_cdf_probabilities(self):
        # alias construction must preserve the distribution exactly
        weights = np.array([5.0, 0.0, 1.0, 4.0])
        table = S.AliasTable(weights)
        mass = table.prob / table.n
        np.testing.assert_allclose(
            np.bincount(table.alias, weights=(1.0 - table.prob) / table.n, minlength=4)
            + np.bincount(np.arange(4), weights=mass, minlength=4),
            weights / weights.sum(),
            atol=1e-12,
        )


class TestInBatch:
    def test_exclusion_forces_complement(self):
        batch = batch_of([[0, 1], [2, 3]])
        out = S.sample_inbatch(batch, 2, S.rng_stream(0, "inbatch"))
        assert set(out.ids[0].ravel()) <= {2, 3}
        assert set(out.ids[1].ravel()) <= {0, 1}

    def test_single_item_sessions_get_permutation_of_others(self):
        b = 128
        batch = batch_of([[i] for i in range(b)])
        out = S.sample_inbatch(batch, b - 1, S.rng_stream(1, "inbatch"))
        assert out.ids.shape == (b, 1, b - 1)
        for i in range(b):
            assert set(out.ids[i, 0].tolist()) == set(range(b)) - {i}

    def test_shared_items_exhaust_pool(self):
        batch = batch_of([[0, 1], [1, 0]])
        with pytest.raises(PoolExhaustedError, match="s0|s1"):
            S.sample_inbatch(batch, 1, S.rng_stream(2, "inbatch"))

    def test_multiset_pool_weights_repeats(self):
        # item 2 occurs three times in the partner session; expect ~3x item 3
        batch = batch_of([[0, 1], [2, 2, 2, 3]])
        counts = np.zeros(4)
        for i in range(2000):
            out = S.sample_inbatch(batch, 1, S.rng_stream(i, "inbatch"))
            counts[out.ids[0, 0, 0]] += 1
        ratio = counts[2] / counts[3]
        assert 2.4 < ratio < 3.6

    def test_distinct_pool_flag(self):
        batch = batch_of([[0, 1], [2, 2, 2, 3]])
        counts = np.zeros(4)
        for i in range(2000):
            out = S.sample_inbatch(batch, 1, S.rng_stream(i, "inbatch"), pool="distinct")
            counts[out.ids[0, 0, 0]] += 1
        ratio = counts[2] / counts[3]
        assert 0.8 < ratio < 1.25

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.lists(st.integers(0, 30), min_size=1, max_size=8), min_size=2, max_size=6), st.randoms())
    def test_exclusion_law(self, session_items, pyrandom):
        batch = batch_of(session_items)
        distinct = set()
        for items in session_items:
            distinct.update(items)
        guaranteed = len(distinct) - max(len(set(items)) for items in session_items)
        assert S.inbatch_capacity(batch) == guaranteed
        m = pyrandom.randint(1, 4)
        if m > guaranteed:
            with pytest.raises(PoolExhaustedError):
                S.sample_inbatch(batch, m, S.rng_stream(9, "inbatch"))
            return
        out = S.sample_inbatch(batch, m, S.rng_stream(9, "inbatch"))
        for i, items in enumerate(session_items):
            assert not (set(out.ids[i].ravel().tolist()) & set(items))


class TestShapeLaw:
    def test_all_granularity_and_source_combinations(self):
        # 12 = 3 granularities x {uniform, frequency} x {solo, + in-batch}
        rng_cfg = np.random.default_rng(11)
        cases = 0
        for _ in range(90):
            b = int(rng_cfg.integers(2, 6))
            t = int(rng_cfg.integers(2, 7))
            k = int(rng_cfg.integers(1, 9))
            m = int(rng_cfg.integers(1, min(b, 5)))
            batch = batch_of([[100 + i, 200 + i] for i in range(b)], max_len=t)
            inb = S.sample_inbatch(batch, m, S.rng_stream(cases, "inbatch"))
            assert inb.ids.shape == (b, 1, m)
            for gran in GRANULARITIES:
                for source in (S.sample_uniform, S.sample_frequency):
                    catalog = 300 if source is S.sample_uniform else np.arange(1, 301)
                    base = source(
                        catalog, gran, k, S.rng_stream(cases, "uniform"),
                        batch_size=b, seq_len=t,
                    )
                    assert base.ids.shape == expected_shape(gran, k, b, t)
                    cases += 1
                    combined = S.concat_negatives(inb, base)
                    lead = (b, t) if gran is Granularity.ELEMENTWISE else (b, 1)
                    assert combined.ids.shape == (*lead, k + m)
                    assert combined.count == k + m
                    cases += 1
        assert cases >= 1000


def negative_set(shape, value):
    return S.NegativeSet(np.full(shape, value, dtype=np.int64))


def stack_reference(parts):
    """The joined block a negative set stored next to its parts until it kept
    only the parts: a left fold that broadcasts two id arrays to a common lead
    shape and joins their sample axes."""
    joined = parts[0]
    for ids in parts[1:]:
        lead = []
        for axis in (0, 1):
            a, b = joined.shape[axis], ids.shape[axis]
            if a != b and 1 not in (a, b):
                raise ShapeError(f"negative sets do not broadcast: {joined.shape} vs {ids.shape}")
            lead.append(max(a, b))
        joined = np.concatenate(
            [np.broadcast_to(joined, (*lead, joined.shape[-1])),
             np.broadcast_to(ids, (*lead, ids.shape[-1]))],
            axis=-1,
        )
    return joined


class TestConcat:
    def test_broadcast_concat(self):
        out = S.concat_negatives(negative_set((3, 1, 2), 1), negative_set((1, 1, 2), 0))
        assert out.ids.shape == (3, 1, 4)
        assert [p.shape for p in out.parts] == [(3, 1, 2), (1, 1, 2)]
        np.testing.assert_array_equal(out.ids[:, :, :2], 1)
        np.testing.assert_array_equal(out.ids[:, :, 2:], 0)

    def test_parts_follow_source_shapes(self):
        inbatch, pool = negative_set((3, 1, 2), 1), negative_set((1, 1, 4), 2)
        other = negative_set((3, 1, 1), 3)
        assert [p.shape for p in S.concat_negatives(inbatch, other).parts] == [(3, 1, 3)]
        mixed = S.concat_negatives(S.concat_negatives(inbatch, pool), other)
        assert [p.shape for p in mixed.parts] == [(3, 1, 2), (1, 1, 4), (3, 1, 1)]
        merged = S.concat_negatives(S.concat_negatives(pool, inbatch), other)
        assert [p.shape for p in merged.parts] == [(1, 1, 4), (3, 1, 3)]
        np.testing.assert_array_equal(
            np.concatenate([np.broadcast_to(p, (3, 1, p.shape[-1])) for p in merged.parts], -1),
            merged.ids,
        )

    def test_empty_is_identity(self):
        empty = negative_set((1, 1, 0), 0)
        full = negative_set((2, 1, 3), 1)
        for joined in (S.concat_negatives(empty, full), S.concat_negatives(full, empty)):
            assert joined.count == 3
            np.testing.assert_array_equal(joined.ids, full.ids)

    def test_largest_preset_shape(self):
        uniform = negative_set((1, 1, 16384), 0)
        inbatch = negative_set((128, 1, 127), 0)
        out = S.concat_negatives(inbatch, uniform)
        assert out.ids.shape == (128, 1, 16511)
        assert out.count == 16511
        assert [p.shape[-1] for p in out.parts] == [127, 16384]

    def test_incompatible_shapes(self):
        with pytest.raises(ShapeError):
            S.concat_negatives(negative_set((2, 1, 2), 0), negative_set((3, 1, 2), 0))

    def test_parts_must_be_3d(self):
        with pytest.raises(ShapeError):
            S.NegativeSet(np.zeros((2, 3), dtype=np.int64))
        with pytest.raises(ShapeError):
            S.NegativeSet()

    @settings(max_examples=300, deadline=None)
    @given(data=st.data(), split=st.integers(0, 5), seed=st.integers(0, 2**16))
    def test_parts_match_the_stacked_reference(self, data, split, seed):
        # lead shapes for b=3, T=4, plus two that broadcast with only some
        leads = [(1, 1), (3, 1), (3, 4), (2, 1), (1, 4)]
        specs = data.draw(st.lists(st.tuples(st.sampled_from(leads), st.integers(0, 4)),
                                   min_size=1, max_size=6))
        rng = np.random.default_rng(seed)
        parts = [rng.integers(0, 50, size=(*lead, n)) for lead, n in specs]
        try:
            want = stack_reference(parts)
        except ShapeError:
            with pytest.raises(ShapeError):
                S.NegativeSet(*parts)
            return
        got = S.NegativeSet(*parts)
        assert got.ids.shape == want.shape
        np.testing.assert_array_equal(got.ids, want)
        assert got.count == want.shape[-1]
        # adjacent parts of one lead shape are merged, and only those
        runs = [np.concatenate(list(run), axis=-1)
                for _, run in itertools.groupby(parts, key=lambda p: p.shape[:2])]
        assert len(got.parts) == len(runs)
        for part, run in zip(got.parts, runs):
            assert part.shape == run.shape
            np.testing.assert_array_equal(part, run)
        # joining two sets gives the same parts as one set of all of them
        split = min(split, len(parts) - 1)
        if split > 0:
            joined = S.concat_negatives(S.NegativeSet(*parts[:split]),
                                        S.NegativeSet(*parts[split:]))
            assert [p.shape for p in joined.parts] == [p.shape for p in got.parts]
            for a, b in zip(joined.parts, got.parts):
                np.testing.assert_array_equal(a, b)


class TestTopK:
    def test_order_statistics(self):
        sel = S.topk_filter(Tensor([0.1, 0.9, 0.4, 0.7]), 2)
        assert set(sel.indices.tolist()) == {1, 3}

    def test_identity_when_k_equals_n(self):
        sel = S.topk_filter(Tensor([3.0, 1.0, 2.0]), 3)
        assert sorted(sel.indices.tolist()) == [0, 1, 2]

    def test_k_larger_than_n_rejected(self):
        with pytest.raises(ConfigError):
            S.topk_filter(Tensor([1.0, 2.0]), 3)

    def test_ties_break_to_lower_index(self):
        sel = S.topk_filter(Tensor([5.0, 7.0, 7.0, 7.0, 1.0]), 2)
        assert sel.indices.tolist() == [1, 2]

    def test_matches_full_sort_oracle(self):
        rng = np.random.default_rng(12)
        for _ in range(300):
            n = int(rng.integers(2, 200))
            k = int(rng.integers(1, n + 1))
            # integer-ish values force plenty of ties
            x = rng.integers(0, max(2, n // 3), size=(4, n)).astype(float)
            sel = S.topk_filter(Tensor(x), k)
            oracle = np.argsort(-x, axis=-1, kind="stable")[:, :k]
            np.testing.assert_array_equal(np.sort(sel.indices, axis=-1), np.sort(oracle, axis=-1))

    def test_non_selected_scores_get_exactly_zero_gradient(self):
        rng = np.random.default_rng(13)
        scores = Tensor(rng.normal(size=(3, 10)), requires_grad=True)
        pos = Tensor(rng.normal(size=(3,)))
        sel = S.topk_filter(scores, 4)
        L.ssm(pos, sel.scores).backward()
        chosen = np.zeros((3, 10), dtype=bool)
        np.put_along_axis(chosen, sel.indices, True, axis=-1)
        assert np.all(scores.grad[~chosen] == 0.0)
        assert np.all(scores.grad[chosen] != 0.0)

    def test_selected_gradients_match_subset_only_run(self):
        rng = np.random.default_rng(14)
        scores = Tensor(rng.normal(size=(2, 8)), requires_grad=True)
        pos = Tensor(rng.normal(size=(2,)))
        sel = S.topk_filter(scores, 3)
        L.ssm(pos, sel.scores).backward()

        subset = Tensor(np.take_along_axis(scores.data, sel.indices, axis=-1), requires_grad=True)
        L.ssm(pos, subset).backward()
        np.testing.assert_allclose(
            np.take_along_axis(scores.grad, sel.indices, axis=-1), subset.grad, rtol=1e-12
        )


class TestDrawAccounting:
    def test_batchwise_versus_elementwise_draw_counts(self):
        b, t, n = 8, 5, 32
        for gran, expected in [
            (Granularity.BATCHWISE, n),
            (Granularity.SESSIONWISE, b * n),
            (Granularity.ELEMENTWISE, b * t * n),
        ]:
            counting = S.CountingGenerator(S.rng_stream(0, "uniform"))
            S.sample_uniform(100, gran, n, counting, batch_size=b, seq_len=t)
            assert counting.draws == expected

    def test_streams_are_reproducible_and_independent(self):
        a = S.rng_stream(5, "uniform", epoch=2, index=7).integers(0, 1000, 10)
        b = S.rng_stream(5, "uniform", epoch=2, index=7).integers(0, 1000, 10)
        c = S.rng_stream(5, "uniform", epoch=2, index=8).integers(0, 1000, 10)
        np.testing.assert_array_equal(a, b)
        assert not np.array_equal(a, c)
