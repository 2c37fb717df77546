"""Encoder contracts: shapes, causality, tied scoring, chunking, checkpoints."""

import numpy as np
import pytest

from sessrec import loss as L
from sessrec import model as M
from sessrec import tensor as T
from sessrec.data import Session, make_batches
from sessrec.errors import ItemIdError
from sessrec.sampler import Granularity, NegativeSet, rng_stream


def toy_state(n_items=12, d=8, layers=1, max_len=6, dropout=0.0, heads=1, seed=0, prenorm=False):
    cfg = M.ModelConfig(
        n_items=n_items, hidden_dim=d, num_layers=layers, num_heads=heads,
        max_len=max_len, dropout=dropout, prenorm=prenorm,
    )
    return M.ModelState.initialize(cfg, seed=seed)


def batch_from(items_per_session, max_len, pad_id):
    sessions = [Session(i, list(s), list(range(len(s)))) for i, s in enumerate(items_per_session)]
    return next(make_batches(sessions, batch_size=len(sessions), max_len=max_len, pad_id=pad_id))


class TestForward:
    def test_output_shape_contract(self):
        state = toy_state(n_items=30, d=200, layers=2, max_len=5)
        batch = batch_from([[1, 2, 3], [4, 5, 6, 7, 8]], max_len=5, pad_id=30)
        hidden = M.forward(state, batch, mode="eval")
        assert hidden.shape == (2, 5, 200)

    def test_causality_under_future_permutation(self):
        state = toy_state(n_items=20, max_len=6)
        a = batch_from([[1, 2, 3, 4, 5, 6]], max_len=6, pad_id=20)
        b = batch_from([[1, 2, 3, 6, 4, 5]], max_len=6, pad_id=20)  # future of t=2 permuted
        ha = M.forward(state, a, mode="eval")
        hb = M.forward(state, b, mode="eval")
        np.testing.assert_array_equal(ha.data[0, :3], hb.data[0, :3])
        assert not np.allclose(ha.data[0, 3:], hb.data[0, 3:])

    def test_eval_mode_is_bitwise_deterministic(self):
        state = toy_state(dropout=0.5)
        batch = batch_from([[1, 2, 3]], max_len=6, pad_id=12)
        h1 = M.forward(state, batch, mode="eval")
        h2 = M.forward(state, batch, mode="eval")
        np.testing.assert_array_equal(h1.data, h2.data)

    def test_train_mode_dropout_is_seeded(self):
        state = toy_state(dropout=0.5)
        batch = batch_from([[1, 2, 3]], max_len=6, pad_id=12)
        h1 = M.forward(state, batch, mode="train", rng=rng_stream(3, "dropout", 0, 0))
        h2 = M.forward(state, batch, mode="train", rng=rng_stream(3, "dropout", 0, 0))
        h3 = M.forward(state, batch, mode="train", rng=rng_stream(3, "dropout", 0, 1))
        np.testing.assert_array_equal(h1.data, h2.data)
        assert not np.array_equal(h1.data, h3.data)

    def test_out_of_vocab_id_rejected(self):
        state = toy_state(n_items=10)
        batch = batch_from([[1, 2]], max_len=6, pad_id=10)
        batch.item_ids[0, 0] = 44
        with pytest.raises(ItemIdError, match="44"):
            M.forward(state, batch, mode="eval")

    def test_multi_head_and_prenorm_variants_run(self):
        for heads, prenorm in [(2, False), (1, True), (4, True)]:
            state = toy_state(d=8, heads=heads, prenorm=prenorm)
            batch = batch_from([[1, 2, 3]], max_len=6, pad_id=12)
            assert M.forward(state, batch, mode="eval").shape == (1, 6, 8)

    def test_pad_row_gets_no_gradient_through_valid_positions(self):
        state = toy_state(n_items=10, dropout=0.0)
        batch = batch_from([[1, 2, 3]], max_len=6, pad_id=10)
        hidden = M.forward(state, batch, mode="train", rng=rng_stream(0, "dropout"))
        pos = M.score(state, hidden, batch.targets)
        negs = M.score(state, hidden, NegativeSet(
            np.array([[[4, 5]]]), Granularity.BATCHWISE, n_uniform=2))
        L.ssm(pos, negs, mask=batch.mask).backward()
        np.testing.assert_array_equal(state.params["item_emb"].grad[10], 0.0)


class TestScore:
    def test_self_product_is_norm_squared(self):
        state = toy_state()
        e3 = state.params["item_emb"].data[3]
        hidden = T.Tensor(np.broadcast_to(e3, (1, 2, e3.size)).copy())
        out = M.score(state, hidden, np.array([[3, 3]]))
        np.testing.assert_allclose(out.data, np.dot(e3, e3), rtol=1e-15)

    def test_orthogonal_vectors_score_zero(self):
        state = toy_state(d=8)
        state.params["item_emb"].data[2] = np.array([1, 0, 0, 0, 0, 0, 0, 0], dtype=float)
        hidden = T.Tensor(np.array([[[0, 1, 0, 0, 0, 0, 0, 0]]], dtype=float))
        out = M.score(state, hidden, np.array([[2]]))
        assert out.data[0, 0] == 0.0

    def test_tied_embedding_law(self):
        rng = np.random.default_rng(30)
        state = toy_state(n_items=15)
        hidden = T.Tensor(rng.standard_normal((2, 3, 8)))
        ids = rng.integers(0, 15, size=(2, 3))
        out = M.score(state, hidden, ids)
        emb = state.params["item_emb"].data
        expected = np.einsum("btd,btd->bt", hidden.data, emb[ids])
        np.testing.assert_allclose(out.data, expected, atol=1e-13)

    @pytest.mark.parametrize(
        "shape,granularity",
        [((1, 1, 6), Granularity.BATCHWISE), ((2, 1, 6), Granularity.SESSIONWISE),
         ((2, 4, 6), Granularity.ELEMENTWISE)],
    )
    def test_broadcast_contract_per_granularity(self, shape, granularity):
        rng = np.random.default_rng(31)
        state = toy_state(n_items=20)
        hidden = T.Tensor(rng.standard_normal((2, 4, 8)))
        negs = NegativeSet(rng.integers(0, 20, size=shape).astype(np.int64), granularity)
        out = M.score(state, hidden, negs)
        assert out.shape == (2, 4, 6)
        emb = state.params["item_emb"].data
        expected = np.einsum(
            "btd,btkd->btk", hidden.data, emb[np.broadcast_to(negs.ids, (2, 4, 6))]
        )
        np.testing.assert_allclose(out.data, expected, rtol=1e-12)

    def test_gradients_flow_through_all_granularities(self):
        rng = np.random.default_rng(32)
        state = toy_state(n_items=20, d=4)
        for shape in [(1, 1, 3), (2, 1, 3), (2, 3, 3)]:
            state.zero_grad()
            batch = batch_from([[1, 2, 3], [4, 5, 6]], max_len=3, pad_id=20)
            hidden = M.forward(state, batch, mode="eval")
            negs = NegativeSet(rng.integers(0, 20, size=shape).astype(np.int64), Granularity.BATCHWISE)
            pos = M.score(state, hidden, batch.targets)
            L.ssm(pos, M.score(state, hidden, negs), mask=batch.mask).backward()
            assert state.params["item_emb"].grad is not None
            assert np.any(state.params["item_emb"].grad != 0)


class TestCheckpoint:
    def test_round_trip_is_bit_exact(self, tmp_path):
        state = toy_state(n_items=9, d=8, layers=2, seed=7)
        extra = {"adam.step": np.array([3.0]), "adam.m.item_emb": np.ones((10, 8))}
        path = tmp_path / "epoch-1.bin"
        M.save_checkpoint(state, path, extra)
        loaded, got_extra = M.load_checkpoint(path)
        assert loaded.config == state.config
        assert set(loaded.params) == set(state.params)
        for name, p in state.params.items():
            np.testing.assert_array_equal(loaded.params[name].data, p.data)
        np.testing.assert_array_equal(got_extra["adam.m.item_emb"], extra["adam.m.item_emb"])

    def test_name_collision_rejected(self, tmp_path):
        state = toy_state()
        with pytest.raises(ValueError):
            M.save_checkpoint(state, tmp_path / "x.bin", {"item_emb": np.zeros(2)})
