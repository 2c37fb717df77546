"""The packed encoder and its attention node against the grid graphs they replace.

`model.forward` runs every position-wise layer on the batch's real items
only, packed as [N, d] rows, and causal attention is one node
(`model.causal_attention`). `composed.forward` is the encoder that ran every
layer over the whole padded [b, W, d] block, and
`composed.causal_attention` is the graph of small ops that the node fuses.
The node runs the same products on operands of the same layout, so its
scores and gradients must equal the composed graph's bit for bit, at any
BLAS thread count. The packed encoder sums weight gradients over N rows
instead of b*W, so it matches the grid encoder only within a tolerance.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import composed as C
from sessrec import model as M
from sessrec import tensor as T
from sessrec.data import SessionBatch
from sessrec.errors import NumericError, ShapeError
from sessrec.sampler import rng_stream

N_ITEMS = 40


def ragged(lengths, width, rng, pad_id=N_ITEMS):
    """A batch whose row i holds lengths[i] random items, padding after them."""
    ids = np.full((len(lengths), width), pad_id, dtype=np.int64)
    for i, n in enumerate(lengths):
        ids[i, :n] = rng.integers(0, N_ITEMS, n)
    mask = np.arange(width) < np.maximum(np.asarray(lengths) - 1, 0)[:, None]
    targets = np.where(mask, np.roll(ids, -1, axis=1), pad_id)
    return SessionBatch(ids, targets, mask, pad_id, [])


def perturbed_state(d, heads, prenorm, dropout, seed):
    cfg = M.ModelConfig(n_items=N_ITEMS, hidden_dim=d, num_layers=2, num_heads=heads,
                        max_len=9, dropout=dropout, prenorm=prenorm)
    state = M.ModelState.initialize(cfg, seed=seed)
    rng = np.random.default_rng(seed)
    for p in state.params.values():  # gains and biases away from 1 and 0
        p.data = p.data + rng.normal(0.0, 0.3, size=p.shape)
    return state


class TestPackedForward:
    @settings(max_examples=40, deadline=None)
    @given(
        heads=st.sampled_from([1, 2, 4]),
        prenorm=st.booleans(),
        d=st.sampled_from([8, 64, 100]),
        mode=st.sampled_from(["eval", "train"]),
        seed=st.integers(0, 2**16),
        lengths=st.lists(st.integers(0, 9), min_size=1, max_size=5),
        extra=st.sampled_from([[], [1], [0], [1, 0]]),
    )
    def test_matches_the_grid_encoder(self, heads, prenorm, d, mode, seed, lengths, extra):
        lengths = lengths + extra  # a 1-item row and an empty row, often
        if max(lengths) == 0:
            lengths[0] = 1
        rng = np.random.default_rng(seed)
        batch = ragged(lengths, max(lengths), rng)
        state = perturbed_state(d, heads, prenorm, 0.3, seed)
        real = batch.item_ids != N_ITEMS
        weights = rng.standard_normal((int(real.sum()), d))

        def run(forward):
            state.zero_grad()
            dropout_rng = rng_stream(seed, "dropout") if mode == "train" else None
            hidden = forward(state, batch, mode=mode, rng=dropout_rng)
            T.tsum(T.mul(T.take_rows(hidden, np.flatnonzero(real)), weights)).backward()
            return hidden.data, {n: p.grad for n, p in state.params.items()}

        (got, grads), (want, want_grads) = run(M.forward), run(C.forward)
        np.testing.assert_allclose(got[real], want[real], rtol=1e-12, atol=1e-12)
        assert (got[~real] == 0.0).all()
        for name, want_grad in want_grads.items():
            np.testing.assert_allclose(grads[name], want_grad, rtol=1e-10, atol=1e-10,
                                       err_msg=name)

    def test_padded_slots_get_no_gradient(self):
        state = perturbed_state(8, 2, False, 0.0, 1)
        batch = ragged([3, 1, 0], 4, np.random.default_rng(1))
        hidden = M.forward(state, batch, mode="eval")
        T.tsum(T.mul(hidden, hidden)).backward()
        np.testing.assert_array_equal(state.params["item_emb"].grad[N_ITEMS], 0.0)
        np.testing.assert_array_equal(state.params["pos_emb"].grad[3:], 0.0)

    def test_an_item_after_padding_is_rejected(self):
        state = perturbed_state(8, 1, False, 0.0, 2)
        batch = ragged([2, 3], 4, np.random.default_rng(2))
        batch.item_ids[1, 1] = N_ITEMS
        with pytest.raises(ShapeError, match="row 1 has an item after padding"):
            M.forward(state, batch)


def packed_inputs(seed, lengths, d, width=None):
    rng = np.random.default_rng(seed)
    width = width or max(lengths)
    rows = np.flatnonzero(np.arange(width) < np.asarray(lengths)[:, None])
    qkv = [T.Tensor(rng.standard_normal((rows.size, d)), requires_grad=True) for _ in "qkv"]
    return rng, rows, (len(lengths), width), qkv


class TestAttentionNode:
    @pytest.mark.parametrize("rate", [0.0, 0.3])
    @pytest.mark.parametrize("heads", [1, 2, 4])
    @pytest.mark.parametrize("lengths,d", [([5, 1, 3, 0], 8), ([50, 17, 33, 2, 49], 64),
                                           ([20, 9], 100)])
    def test_bit_identical_to_the_composed_graph(self, lengths, d, heads, rate):
        rng, rows, lead, qkv = packed_inputs(3, lengths, d)
        upstream = rng.standard_normal((rows.size, d))
        results = []
        for attention in (M.causal_attention, C.causal_attention):
            for t in qkv:
                t.zero_grad()
            out = attention(*qkv, rows, lead, heads, rate, np.random.default_rng(9))
            out.backward(upstream)
            results.append((out.data, [t.grad for t in qkv]))
        (got, grads), (want, want_grads) = results
        np.testing.assert_array_equal(got, want)
        for name, grad, want_grad in zip("qkv", grads, want_grads):
            np.testing.assert_array_equal(grad, want_grad, err_msg=name)

    @pytest.mark.parametrize("rate", [0.0, 0.3])
    @pytest.mark.parametrize("heads", [1, 2])
    def test_gradcheck(self, heads, rate):
        rng, rows, lead, qkv = packed_inputs(4, [4, 1, 3], 4, width=5)
        weights = rng.standard_normal((rows.size, 4))

        def f():  # the same dropout mask on every call
            out = M.causal_attention(*qkv, rows, lead, heads, rate, np.random.default_rng(2))
            return T.tsum(T.mul(out, weights))

        assert T.gradcheck(f, qkv, step=1e-5) < 1e-6

    def test_position_attends_only_to_its_past(self):
        _, rows, lead, (q, k, v) = packed_inputs(5, [4], 4)
        before = M.causal_attention(q, k, v, rows, lead, 1).data
        k.data[3] += 1.0
        v.data[3] += 1.0
        after = M.causal_attention(q, k, v, rows, lead, 1).data
        np.testing.assert_array_equal(after[:3], before[:3])
        assert not np.allclose(after[3], before[3])

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_logit_raises(self, bad):
        _, rows, lead, (q, k, v) = packed_inputs(6, [3, 2], 4)
        q.data[1, 0] = bad
        with pytest.raises(NumericError, match="softmax input contains non-finite value"):
            M.causal_attention(q, k, v, rows, lead, 2)
