"""Shape, exclusion, statistical, and top-k contracts of the samplers."""

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


class TestConcat:
    def test_broadcast_concat(self):
        a = S.NegativeSet(np.zeros((1, 1, 2), dtype=np.int64), Granularity.BATCHWISE, n_uniform=2)
        b = S.NegativeSet(np.ones((3, 1, 2), dtype=np.int64), Granularity.SESSIONWISE, n_inbatch=2)
        out = S.concat_negatives(b, a)
        assert out.ids.shape == (3, 1, 4)
        assert out.granularity is Granularity.SESSIONWISE
        np.testing.assert_array_equal(out.ids[:, :, :2], 1)
        np.testing.assert_array_equal(out.ids[:, :, 2:], 0)

    def test_parts_follow_source_shapes(self):
        def ids(shape, value):
            return S.NegativeSet(np.full(shape, value, dtype=np.int64), Granularity.SESSIONWISE)

        inbatch, pool, other = ids((3, 1, 2), 1), ids((1, 1, 4), 2), ids((3, 1, 1), 3)
        assert S.concat_negatives(inbatch, other).parts == ()
        mixed = S.concat_negatives(S.concat_negatives(inbatch, pool), other)
        assert [p.ids.shape for p in mixed.parts] == [(3, 1, 2), (1, 1, 4), (3, 1, 1)]
        merged = S.concat_negatives(S.concat_negatives(pool, inbatch), other)
        assert [p.ids.shape for p in merged.parts] == [(1, 1, 4), (3, 1, 3)]
        np.testing.assert_array_equal(
            np.concatenate([np.broadcast_to(p.ids, (3, 1, p.count)) for p in merged.parts], -1),
            merged.ids,
        )

    def test_empty_is_identity(self):
        empty = S.NegativeSet(np.empty((1, 1, 0), dtype=np.int64), Granularity.BATCHWISE)
        full = S.NegativeSet(np.ones((2, 1, 3), dtype=np.int64), Granularity.SESSIONWISE, n_uniform=3)
        assert S.concat_negatives(empty, full) is full
        assert S.concat_negatives(full, empty) is full

    def test_largest_preset_shape(self):
        uniform = S.NegativeSet(
            np.zeros((1, 1, 16384), dtype=np.int64), Granularity.BATCHWISE, n_uniform=16384
        )
        inbatch = S.NegativeSet(
            np.zeros((128, 1, 127), dtype=np.int64), Granularity.SESSIONWISE, n_inbatch=127
        )
        out = S.concat_negatives(inbatch, uniform)
        assert out.ids.shape == (128, 1, 16511)
        assert (out.n_uniform, out.n_inbatch) == (16384, 127)

    def test_incompatible_shapes(self):
        a = S.NegativeSet(np.zeros((2, 1, 2), dtype=np.int64), Granularity.SESSIONWISE)
        b = S.NegativeSet(np.zeros((3, 1, 2), dtype=np.int64), Granularity.SESSIONWISE)
        with pytest.raises(ShapeError):
            S.concat_negatives(a, b)


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
