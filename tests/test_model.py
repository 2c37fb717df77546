"""Encoder contracts: shapes, causality, tied scoring, chunking, checkpoints."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sessrec import loss as L
from sessrec import model as M
from sessrec import sampler as S
from sessrec import tensor as T
from sessrec.data import Session, make_batches
from sessrec.errors import CacheError, ItemIdError
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


def numpy_encoder(state, items):
    """Reference eval-mode encoder of one session in plain NumPy, [n, d].

    Each head is a column slice of the q/k/v projections; position t
    attends over positions 0..t of this session only.
    """
    cfg = state.config
    p = {name: t.data for name, t in state.params.items()}
    d, heads = cfg.hidden_dim, cfg.num_heads
    dh = d // heads

    def norm(x, prefix):
        centered = x - x.mean(axis=-1, keepdims=True)
        var = (centered**2).mean(axis=-1, keepdims=True)
        return centered / np.sqrt(var + 1e-8) * p[f"{prefix}.gain"] + p[f"{prefix}.bias"]

    def attention(h, prefix):
        q, k, v = (h @ p[f"{prefix}.w{n}"] + p[f"{prefix}.b{n}"] for n in "qkv")
        mixed = np.zeros_like(h)
        for head in range(heads):
            cols = slice(head * dh, (head + 1) * dh)
            for t in range(len(h)):
                logits = k[: t + 1, cols] @ q[t, cols] / np.sqrt(dh)
                weights = np.exp(logits - logits.max())
                mixed[t, cols] = weights / weights.sum() @ v[: t + 1, cols]
        return mixed @ p[f"{prefix}.wo"] + p[f"{prefix}.bo"]

    def feed_forward(h, prefix):
        inner = np.maximum(h @ p[f"{prefix}.w1"] + p[f"{prefix}.b1"], 0.0)
        return inner @ p[f"{prefix}.w2"] + p[f"{prefix}.b2"]

    x = p["item_emb"][items] * np.sqrt(d) + p["pos_emb"][: len(items)]
    for layer in range(cfg.num_layers):
        lp = f"layers.{layer}"
        if cfg.prenorm:
            x = x + attention(norm(x, f"{lp}.ln1"), f"{lp}.attn")
            x = x + feed_forward(norm(x, f"{lp}.ln2"), f"{lp}.ffn")
        else:
            x = norm(x + attention(x, f"{lp}.attn"), f"{lp}.ln1")
            x = norm(x + feed_forward(x, f"{lp}.ffn"), f"{lp}.ln2")
    return norm(x, "final") if cfg.prenorm else x


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

    @pytest.mark.parametrize("prenorm", [False, True])
    @pytest.mark.parametrize("heads", [1, 2, 4])
    def test_eval_forward_matches_numpy_reference(self, heads, prenorm):
        state = toy_state(n_items=15, d=8, layers=2, max_len=7, dropout=0.3,
                          heads=heads, seed=heads, prenorm=prenorm)
        rng = np.random.default_rng(10 + heads)
        for p in state.params.values():  # gains and biases away from 1 and 0
            p.data = p.data + rng.normal(0.0, 0.3, size=p.shape)
        sessions = [[1, 2, 3], [4, 5, 6, 7, 8, 9, 10], [11], [12, 13, 14, 0, 1]]
        batch = batch_from(sessions, max_len=7, pad_id=15)
        got = M.forward(state, batch, mode="eval").data
        for i, items in enumerate(sessions):
            # a session attends only within itself, so padding leaves its rows unchanged
            want = numpy_encoder(state, np.array(items))
            np.testing.assert_allclose(got[i, : len(items)], want, rtol=1e-10, atol=1e-12)

    def test_pad_row_gets_no_gradient_through_valid_positions(self):
        state = toy_state(n_items=10, dropout=0.0)
        batch = batch_from([[1, 2, 3]], max_len=6, pad_id=10)
        hidden = M.forward(state, batch, mode="train", rng=rng_stream(0, "dropout"))
        pos = M.score(state, hidden, batch.targets)
        negs = M.score(state, hidden, NegativeSet(np.array([[[4, 5]]])))
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
        negs = S.sample_uniform(20, granularity, 6, rng, batch_size=2, seq_len=4)
        assert negs.ids.shape == shape
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
            negs = NegativeSet(rng.integers(0, 20, size=shape).astype(np.int64))
            pos = M.score(state, hidden, batch.targets)
            L.ssm(pos, M.score(state, hidden, negs), mask=batch.mask).backward()
            assert state.params["item_emb"].grad is not None
            assert np.any(state.params["item_emb"].grad != 0)


class TestScoreByParts:
    """Scoring a mixed set part by part matches scoring its broadcast ids.

    Embeddings and hidden states are multiples of 1/4 with d=4, so every
    score is exact whatever the summation order: the two paths give equal
    scores, and top-k selections (ties included) must be identical.
    """

    @settings(max_examples=80, deadline=None)
    @given(
        sources=st.lists(st.sampled_from(["uniform", "frequency", "inbatch"]),
                         min_size=1, max_size=3, unique=True),
        uniform_gran=st.sampled_from(list(Granularity)),
        frequency_gran=st.sampled_from(list(Granularity)),
        seed=st.integers(0, 2**16),
        data=st.data(),
    )
    def test_parts_match_broadcast_ids(self, sources, uniform_gran, frequency_gran, seed, data):
        rng = np.random.default_rng(seed)
        n_items, d = 16, 4
        state = toy_state(n_items=n_items, d=d)
        emb = state.params["item_emb"]
        emb.data = rng.integers(-4, 5, size=emb.shape) / 4.0
        batch = batch_from([[0, 1, 2, 3], [4, 5], [6, 7, 8]], max_len=4, pad_id=n_items)
        hidden = T.Tensor(rng.integers(-4, 5, size=(*batch.item_ids.shape, d)) / 4.0,
                          requires_grad=True)

        shape = {"batch_size": batch.size, "seq_len": batch.width}
        draw = {
            "uniform": lambda n: S.sample_uniform(n_items, uniform_gran, n, rng, **shape),
            "frequency": lambda n: S.sample_frequency(
                np.arange(1, n_items + 1), frequency_gran, n, rng, **shape),
            "inbatch": lambda n: S.sample_inbatch(batch, min(n, S.inbatch_capacity(batch)), rng),
        }
        combined = draw[sources[0]](data.draw(st.integers(1, 5)))
        for source in sources[1:]:
            combined = S.concat_negatives(combined, draw[source](data.draw(st.integers(1, 5))))
        k = data.draw(st.integers(0, combined.count - 1))

        def run(negatives):
            state.zero_grad()
            hidden.zero_grad()
            pos = M.score(state, hidden, batch.targets)
            neg = M.score(state, hidden, negatives)
            selected = None
            if k > 0:
                selection = S.topk_filter(neg, k)
                neg, selected = selection.scores, selection.indices
            loss = L.ssm(pos, neg, mask=batch.mask)
            loss.backward()
            return loss.item(), selected, emb.grad.copy(), hidden.grad.copy()

        by_parts = run(combined)
        by_ids = run(NegativeSet(combined.ids))
        assert abs(by_parts[0] - by_ids[0]) <= 1e-10
        if k > 0:
            np.testing.assert_array_equal(by_parts[1], by_ids[1])
        for got, want in zip(by_parts[2:], by_ids[2:]):
            np.testing.assert_allclose(got, want, rtol=0, atol=1e-10)


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

    def test_failed_save_keeps_previous_checkpoint(self, tmp_path):
        class Unpicklable:
            def __reduce__(self):
                raise RuntimeError("injected failure")

        state = toy_state(seed=1)
        path = tmp_path / "epoch-1.bin"
        M.save_checkpoint(state, path)
        saved = {name: p.data.copy() for name, p in state.params.items()}
        for p in state.params.values():
            p.data = p.data + 1.0
        # the parameters are written first, then the extra array fails mid-file
        with pytest.raises(RuntimeError, match="injected failure"):
            M.save_checkpoint(state, path, {"zz": np.array([Unpicklable()], dtype=object)})
        loaded, _ = M.load_checkpoint(path)
        for name, data in saved.items():
            np.testing.assert_array_equal(loaded.params[name].data, data)
        assert [f.name for f in tmp_path.iterdir()] == ["epoch-1.bin"]

    def test_name_collision_rejected(self, tmp_path):
        state = toy_state()
        with pytest.raises(ValueError):
            M.save_checkpoint(state, tmp_path / "x.bin", {"item_emb": np.zeros(2)})

    def _rewritten(self, tmp_path, change):
        """A saved toy checkpoint whose arrays `change` edited in place."""
        path = tmp_path / "epoch-1.bin"
        M.save_checkpoint(toy_state(d=8), path)
        with np.load(path) as blob:
            arrays = {key: blob[key] for key in blob.files}
        change(arrays)
        with open(path, "wb") as fh:  # a path would get ".npz" appended
            np.savez(fh, **arrays)
        return path

    def test_truncated_file_names_the_file(self, tmp_path):
        path = tmp_path / "epoch-1.bin"
        M.save_checkpoint(toy_state(), path)
        whole = path.read_bytes()
        path.write_bytes(whole[: len(whole) // 2])
        with pytest.raises(CacheError, match=f"{path} is not a readable .npz archive"):
            M.load_checkpoint(path)

    def test_missing_header_is_named(self, tmp_path):
        path = self._rewritten(tmp_path, lambda arrays: arrays.pop("__header__"))
        with pytest.raises(CacheError, match="holds no '__header__'"):
            M.load_checkpoint(path)

    def test_missing_parameter_is_named(self, tmp_path):
        path = self._rewritten(tmp_path, lambda arrays: arrays.pop("layers.0.ffn.w1"))
        with pytest.raises(CacheError, match="holds no parameter 'layers.0.ffn.w1'"):
            M.load_checkpoint(path)

    def test_parameter_of_another_shape_is_named(self, tmp_path):
        def narrow(arrays):
            arrays["layers.0.attn.wq"] = arrays["layers.0.attn.wq"][:, :4]

        path = self._rewritten(tmp_path, narrow)
        with pytest.raises(CacheError, match=r"parameter 'layers.0.attn.wq' has shape \(8, 4\), "
                                             r"but its config lays out \(8, 8\)"):
            M.load_checkpoint(path)
