"""Exhaustive-ranking metrics against an independent brute-force oracle."""

import csv
import os
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import composed
from test_negative_scoring import MB, traced_peak
from sessrec import evaluate as E
from sessrec import model as M
from sessrec.data import Session, make_batches
from sessrec.errors import EmptyDatasetError
from sessrec.model import ModelConfig, ModelState
from sessrec.tensor import no_grad


def toy_state(n_items, d=8, layers=1, max_len=10, seed=0):
    cfg = ModelConfig(n_items=n_items, hidden_dim=d, num_layers=layers,
                      max_len=max_len, dropout=0.0)
    return ModelState.initialize(cfg, seed=seed)


def toy_sessions(n_items, n_sessions, seed, length=(2, 8)):
    rng = np.random.default_rng(seed)
    out = []
    for i in range(n_sessions):
        n = int(rng.integers(*length))
        out.append(Session(i, rng.integers(0, n_items, n).tolist(), list(range(n))))
    return out


def brute_force_eval(state, sessions, k):
    """Reference: score each prefix separately, sort the full vector, average."""
    cfg = state.config
    emb = state.params["item_emb"].data[: cfg.n_items]
    hits, rrs, count = 0.0, 0.0, 0
    for s in sessions:
        items = s.items[-cfg.max_len :]
        for t in range(len(items) - 1):
            prefix = items[: t + 1]
            target = items[t + 1]
            batch = next(
                make_batches(
                    [Session(s.session_id, prefix, list(range(len(prefix))))],
                    batch_size=1, max_len=cfg.max_len, pad_id=cfg.pad_id, trim=True,
                )
            )
            with no_grad():
                h = M.forward(state, batch, mode="eval").data[0, len(prefix) - 1]
            scores = emb @ h
            rank = 1 + int(np.sum(scores >= scores[target])) - 1  # target loses ties
            count += 1
            if rank <= k:
                hits += 1.0
                rrs += 1.0 / rank
    return hits / count, rrs / count, count


def einsum_reference_ranks(state, batch, chunk_size=None):
    """The former non-BLAS ranker: every [b, W] slot against every catalog chunk."""
    n = state.config.n_items
    emb = state.params["item_emb"].data[:n]
    if chunk_size is None or chunk_size <= 0 or chunk_size > n:
        chunk_size = n
    with no_grad():
        hidden = M.forward(state, batch, mode="eval").data
    safe_targets = np.where(batch.mask, batch.targets, 0)
    target_scores = np.einsum("bwd,bwd->bw", hidden, emb[safe_targets], optimize=False)
    count_ge = np.zeros(target_scores.shape, dtype=np.int64)
    for lo in range(0, n, chunk_size):
        block = np.einsum("bwd,vd->bwv", hidden, emb[lo : lo + chunk_size], optimize=False)
        count_ge += (block >= target_scores[..., None]).sum(axis=-1)
    return count_ge


def transition_ranks(state, sessions, batch_size=256, chunk_size=None):
    return {(sid, t): rank for sid, t, rank in
            E.iter_transition_ranks(state, sessions, batch_size, chunk_size)}


R, C = E.TILE_ROWS, E.TILE_COLS
CHUNKS = (None, 1, C + 1, 2 * C - 1, 10**6)


class TestTiledRanks:
    """The fixed-tile BLAS ranker against brute force and the einsum reference."""

    @settings(max_examples=50, deadline=None)
    @given(st.integers(1, 3 * C), st.integers(1, 40), st.integers(0, 2**16))
    def test_invariant_to_batch_size_chunk_size_and_order(self, n_items, n_sessions, seed):
        state = toy_state(n_items, d=6, seed=seed)
        sessions = toy_sessions(n_items, n_sessions, seed=seed, length=(2, 11))
        base = transition_ranks(state, sessions)
        shuffled = [sessions[i] for i in np.random.default_rng(seed).permutation(n_sessions)]
        for batch_size in (1, 7, 256):
            assert transition_ranks(state, shuffled, batch_size) == base
        for chunk in CHUNKS:
            assert transition_ranks(state, sessions, 9, chunk) == base

    @settings(max_examples=100, deadline=None)
    @given(
        st.integers(1, 3 * C),
        st.sampled_from([1, R, R + 1, 2 * R + 5]),
        st.integers(1, 9),
        st.sampled_from(["random", "constant", "zero-hidden", "duplicates"]),
        st.sampled_from(CHUNKS),
        st.integers(0, 2**16),
    )
    def test_rows_match_brute_force_count(self, n, m, d, kind, chunk, seed):
        # small-integer embeddings and states: every score is exact in any
        # summation order, so ties are real ties for both sides
        rng = np.random.default_rng(seed)
        emb = rng.integers(-3, 4, (n, d)).astype(np.float64)
        hidden = rng.integers(-3, 4, (m, d)).astype(np.float64)
        if kind == "constant":
            emb[:] = emb[0]
        elif kind == "zero-hidden":
            hidden[:] = 0.0
        elif kind == "duplicates":
            emb = emb[rng.integers(0, max(1, n // 4), n)]
        targets = rng.integers(0, n, m)
        last_tile = np.arange((n - 1) // C * C, n)
        targets[::3] = rng.choice(last_tile, len(targets[::3]))
        got = E._rank_rows(hidden, targets, emb, chunk)
        want = [int(np.sum(emb @ h >= (emb @ h)[t])) for h, t in zip(hidden, targets)]
        assert got.tolist() == want
        if kind in ("constant", "zero-hidden"):
            assert got.tolist() == [n] * m  # every item ties and ranks ahead

    @settings(max_examples=50, deadline=None)
    @given(st.integers(1, 2 * C + 9), st.integers(1, 30), st.integers(1, 2),
           st.sampled_from(CHUNKS), st.integers(0, 2**16))
    def test_matches_einsum_reference(self, n_items, n_sessions, layers, chunk, seed):
        state = toy_state(n_items, d=8, layers=layers, seed=seed)
        sessions = toy_sessions(n_items, n_sessions, seed=seed + 1)
        for batch in make_batches(sessions, batch_size=16, max_len=state.config.max_len,
                                  pad_id=state.config.pad_id, trim=True):
            got = E.batch_target_ranks(state, batch, chunk)
            want = einsum_reference_ranks(state, batch, chunk)
            np.testing.assert_array_equal(got[batch.mask], want[batch.mask])
            np.testing.assert_array_equal(got[~batch.mask], 0)

    def test_ranks_identical_at_one_and_two_blas_threads(self):
        # products of [64, 64] x [64, 256] are large enough for OpenBLAS to split
        # them across threads
        script = (
            "import numpy as np\n"
            "from sessrec import evaluate as E\n"
            "rng = np.random.default_rng(5)\n"
            "emb, hidden = rng.normal(size=(2000, 64)), rng.normal(size=(300, 64))\n"
            "targets = rng.integers(0, 2000, 300)\n"
            "print(E._rank_rows(hidden, targets, emb, None).tolist())\n"
        )
        outputs = []
        for threads in ("1", "2"):
            env = {**os.environ, "OPENBLAS_NUM_THREADS": threads,
                   "PYTHONPATH": os.pathsep.join(sys.path)}
            run = subprocess.run([sys.executable, "-c", script], env=env, check=True,
                                 capture_output=True, text=True)
            outputs.append(run.stdout)
        assert outputs[0] == outputs[1]


class TestRowMajorBlock:
    """The ranker that writes each score block row-major into one reused
    buffer against `composed.rank_rows`, which counted fresh [width,
    TILE_ROWS, TILE_COLS] blocks with one 3-d reduction."""

    @settings(max_examples=150, deadline=None)
    @given(
        st.one_of(st.sampled_from([1, C - 1, C, C + 1]), st.integers(1, 3000)),
        st.sampled_from([1, 64, 100, 200]),
        st.one_of(st.sampled_from([1, R - 1, R, R + 1]), st.integers(1, 300)),
        st.one_of(st.sampled_from([None, 1, C, C + 1]), st.integers(0, 3500)),
        st.sampled_from(["normal", "quantized", "duplicates", "constant"]),
        st.integers(0, 2**16),
    )
    def test_ranks_equal_the_reference(self, n, d, m, chunk, kind, seed):
        rng = np.random.default_rng(seed)
        emb, hidden = rng.normal(size=(n, d)), rng.normal(size=(m, d))
        if kind == "quantized":  # many exact ties among the scores
            emb, hidden = np.round(emb * 2) / 2, np.round(hidden * 2) / 2
        elif kind == "duplicates":
            emb = emb[rng.integers(0, max(1, n // 8), n)]
        elif kind == "constant":
            emb[:] = emb[0]
        targets = rng.integers(0, n, m)
        targets[::3] = rng.integers((n - 1) // C * C, n, len(targets[::3]))  # last tile
        got = E._rank_rows(hidden, targets, emb, chunk)
        np.testing.assert_array_equal(got, composed.rank_rows(hidden, targets, emb, chunk))
        if kind == "constant":
            assert got.tolist() == [n] * m

    @pytest.mark.parametrize("d", [1, 64, 200])
    def test_buffered_products_bits_equal_the_tile_products(self, d):
        rng = np.random.default_rng(d)
        tiles, h = rng.normal(size=(7, d, C)), rng.normal(size=(R, d))
        buf = np.full((R, 3, C), np.nan)
        for start, w in ((0, 3), (3, 3), (6, 1)):
            assert E._tile_products(h, tiles, start, buf) == w
            np.testing.assert_array_equal(buf[:, :w].transpose(1, 0, 2),
                                          h @ tiles[start : start + w])
            for t in range(w):
                np.testing.assert_array_equal(buf[:, t], h @ tiles[start + t])

    def test_large_catalog_pass_stays_within_12_mb(self):
        # the large-catalog shape: 9593 items, d 64 and a 256-session batch's
        # 1660 transitions; the fresh [width, TILE_ROWS, TILE_COLS] block of
        # each row tile and its 3-d comparison peaked at 15.1 MB. The first
        # call of a process also counts about 1 MB of NumPy's lazy imports,
        # so a one-row call goes first
        rng = np.random.default_rng(3)
        emb, hidden = rng.normal(size=(9593, 64)), rng.normal(size=(1660, 64))
        targets = rng.integers(0, 9593, 1660)
        E._rank_rows(hidden[:1], targets[:1], emb, None)
        ranks, peak = traced_peak(lambda: E._rank_rows(hidden, targets, emb, None))
        assert peak <= 12 * MB
        want = composed.rank_rows(hidden[:R], targets[:R], emb, None)
        np.testing.assert_array_equal(ranks[:R], want)


class TestRankContributions:
    def test_rank_one_contributes_full(self):
        hit, rr = E.rank_contributions(np.array([1, 1, 1]), k=20)
        np.testing.assert_array_equal(hit, 1.0)
        np.testing.assert_array_equal(rr, 1.0)

    def test_rank_four_contributes_quarter(self):
        hit, rr = E.rank_contributions(np.array([4]), k=20)
        assert hit[0] == 1.0 and rr[0] == 0.25

    def test_rank_beyond_cutoff_contributes_nothing(self):
        hit, rr = E.rank_contributions(np.array([21, 500]), k=20)
        np.testing.assert_array_equal(hit, 0.0)
        np.testing.assert_array_equal(rr, 0.0)


class TestEvaluate:
    def test_matches_brute_force_oracle(self):
        state = toy_state(n_items=30)
        sessions = toy_sessions(30, 10, seed=40)
        result = E.evaluate(state, sessions, k=20)
        recall, mrr, count = brute_force_eval(state, sessions, k=20)
        assert result.n_transitions == count
        assert result.recall_at_k == pytest.approx(recall, abs=1e-12)
        assert result.mrr_at_k == pytest.approx(mrr, abs=1e-12)

    def test_oracle_agreement_across_states_and_k(self):
        for seed, k in [(1, 1), (2, 5), (3, 20)]:
            state = toy_state(n_items=25, layers=2, seed=seed)
            sessions = toy_sessions(25, 8, seed=50 + seed)
            result = E.evaluate(state, sessions, k=k)
            recall, mrr, _ = brute_force_eval(state, sessions, k=k)
            assert result.recall_at_k == pytest.approx(recall, abs=1e-12)
            assert result.mrr_at_k == pytest.approx(mrr, abs=1e-12)

    def test_constant_score_model_earns_zero_recall(self):
        # every item ties with the target and ties rank ahead of it
        state = toy_state(n_items=40)
        state.params["item_emb"].data[:40] = 1.0
        sessions = toy_sessions(40, 6, seed=41)
        result = E.evaluate(state, sessions, k=20)
        assert result.recall_at_k == 0.0
        assert result.recall_at_k <= 20 / 40

    def test_chunked_scoring_identical_to_unchunked(self):
        state = toy_state(n_items=33, layers=2)
        sessions = toy_sessions(33, 12, seed=42)
        base = E.evaluate(state, sessions, k=10)
        base_ranks = list(E.iter_transition_ranks(state, sessions))
        for chunk in (1, 5, 16, 33, 1000):
            chunked = E.evaluate(state, sessions, k=10, chunk_size=chunk)
            assert chunked.recall_at_k == base.recall_at_k
            assert chunked.mrr_at_k == base.mrr_at_k
            # per-transition ranks, not just the aggregates, must be identical
            assert list(E.iter_transition_ranks(state, sessions, chunk_size=chunk)) == base_ranks

    def test_mrr_never_exceeds_recall(self):
        for seed in range(4):
            state = toy_state(n_items=20, seed=seed)
            sessions = toy_sessions(20, 10, seed=60 + seed)
            result = E.evaluate(state, sessions, k=5)
            assert 0.0 <= result.mrr_at_k <= result.recall_at_k <= 1.0

    def test_transition_count_invariant(self):
        state = toy_state(n_items=15, max_len=4)
        sessions = toy_sessions(15, 9, seed=43, length=(2, 9))
        result = E.evaluate(state, sessions, k=3)
        assert result.n_transitions == sum(min(len(s), 4) - 1 for s in sessions)

    def test_session_average_differs_on_skewed_lengths(self):
        state = toy_state(n_items=12)
        sessions = [
            Session(0, [1, 2], [0, 1]),
            Session(1, [3, 4, 5, 6, 7, 8], list(range(6))),
        ]
        by_transition = E.evaluate(state, sessions, k=12)
        by_session = E.evaluate(state, sessions, k=12, average="session")
        assert by_transition.n_transitions == by_session.n_transitions == 6
        # with k = |catalog| every transition is a hit either way
        assert by_transition.recall_at_k == by_session.recall_at_k == 1.0
        # reciprocal ranks weight sessions differently
        assert by_transition.mrr_at_k != by_session.mrr_at_k

    @pytest.mark.parametrize("batch_size", [1, 2, 5, 256])
    def test_session_average_matches_brute_force_oracle(self, batch_size):
        state = toy_state(n_items=30, layers=2, seed=7)
        sessions = toy_sessions(30, 11, seed=45, length=(2, 13))
        # one-event sessions have no transition: they are left out of the average
        for i, at in enumerate((0, 4, 9, 13)):
            sessions.insert(at, Session(100 + i, [i + 1], [0]))
        ranked = [s for s in sessions if len(s) > 1]
        for k in (1, 5, 20):
            # brute force over each session alone, then the plain mean over sessions
            per_session = [brute_force_eval(state, [s], k)[:2] for s in ranked]
            result = E.evaluate(state, sessions, k=k, batch_size=batch_size, average="session")
            assert result.n_transitions == sum(min(len(s), 10) - 1 for s in ranked)
            assert result.recall_at_k == pytest.approx(
                np.mean([r for r, _ in per_session]), abs=1e-12)
            assert result.mrr_at_k == pytest.approx(
                np.mean([m for _, m in per_session]), abs=1e-12)

    def test_empty_test_set_rejected(self):
        with pytest.raises(EmptyDatasetError):
            E.evaluate(toy_state(5), [], k=2)

    @pytest.mark.parametrize("average", ["transition", "session"])
    def test_sessions_without_transitions_rejected(self, average):
        # one event per session: the sessions are valid but nothing can be ranked
        sessions = [Session(0, [1], [0]), Session(1, [3], [5])]
        with pytest.raises(EmptyDatasetError, match="no transition to rank in the 2 test sessions"):
            E.evaluate(toy_state(5), sessions, k=2, average=average)


def read_metrics(path):
    with open(path, encoding="utf-8", newline="") as fh:
        return [
            {key: int(value) if key == "epoch" else float(value) for key, value in row.items()}
            for row in csv.DictReader(fh)
        ]


class TestExport:
    def _series(self, n, k=20):
        rng = np.random.default_rng(44)
        return [
            {
                "epoch": i + 1,
                f"recall_at_{k}": float(rng.uniform()),
                f"mrr_at_{k}": float(rng.uniform()),
                "wall_seconds": float(rng.uniform(1, 100)),
            }
            for i in range(n)
        ]

    def test_single_epoch_file(self, tmp_path):
        path = tmp_path / "metrics.csv"
        E.export_metrics(self._series(1), path)
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "epoch,recall_at_20,mrr_at_20,wall_seconds"
        assert len(lines) == 2

    def test_epochs_strictly_increasing(self, tmp_path):
        path = tmp_path / "metrics.csv"
        E.export_metrics(self._series(10), path)
        epochs = [row["epoch"] for row in read_metrics(path)]
        assert epochs == sorted(epochs) == list(range(1, 11))

    def test_round_trip_is_exact(self, tmp_path):
        series = self._series(7)
        path = tmp_path / "metrics.csv"
        E.export_metrics(series, path)
        assert read_metrics(path) == series

    def test_empty_series_rejected(self, tmp_path):
        with pytest.raises(ValueError):
            E.export_metrics([], tmp_path / "metrics.csv")

    def test_unwritable_path_raises(self, tmp_path):
        with pytest.raises(OSError):
            E.export_metrics(self._series(1), tmp_path / "missing" / "metrics.csv")
