"""Training on packed valid positions against the padded [b, W, K] step it replaced.

`reference_train_step` and `reference_score` are the training step and the
scoring it used before training ran on the packed positions: every
[b, W] slot is scored, filtered and lost over, and the mask zeroes the
padding. The packed step must give the same loss and the same gradients.
"""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from sessrec import config as C
from sessrec import model as M
from sessrec import tensor as T
from sessrec import train as TR
from sessrec.data import Session, make_batches
from sessrec.errors import ShapeError
from sessrec.loss import get_loss
from sessrec.sampler import (
    AliasTable,
    CountingGenerator,
    NegativeSet,
    concat_negatives,
    inbatch_capacity,
    rng_stream,
    sample_frequency,
    sample_inbatch,
    sample_uniform,
    topk_filter,
)

# ---------------------------------------------------------------------------
# the padded reference


def reference_score(state, hidden, item_ids):
    if isinstance(item_ids, NegativeSet):
        return T.concat([reference_score_negatives(state, hidden, p) for p in item_ids.parts])
    ids = np.asarray(item_ids)
    if ids.ndim == 2:
        rows = T.gather_rows(state.params["item_emb"], ids)
        return T.tsum(T.mul(hidden, rows), axis=-1)
    return reference_score_negatives(state, hidden, ids)


def reference_score_negatives(state, hidden, ids):
    emb = state.params["item_emb"]
    b, width, d = hidden.shape
    gb, gt, k = ids.shape
    if gb == 1 and gt == 1:
        rows = T.gather_rows(emb, ids[0, 0])
        flat = T.matmul(T.reshape(hidden, (b * width, d)), T.transpose(rows, (1, 0)))
        return T.reshape(flat, (b, width, k))
    if gt == 1:
        rows = T.gather_rows(emb, ids[:, 0])
        out = T.matmul(rows, T.transpose(hidden, (0, 2, 1)))
        return T.transpose(out, (0, 2, 1))
    rows = T.gather_rows(emb, ids)
    out = T.matmul(rows, T.reshape(hidden, (b, width, d, 1)))
    return T.reshape(out, (b, width, k))


def reference_train_step(state, batch, config, optimizer, seed, epoch, index, draw_totals,
                         frequency_table=None):
    dropout_rng = rng_stream(seed, "dropout", epoch, index)
    hidden = M.forward(state, batch, mode="train", rng=dropout_rng)
    pos_scores = reference_score(state, hidden, batch.targets)

    parts = []
    if config["negs.frequency.count"] > 0:
        rng = CountingGenerator(rng_stream(seed, "frequency", epoch, index))
        parts.append(sample_frequency(
            frequency_table, config["negs.frequency.granularity"],
            config["negs.frequency.count"], rng, batch_size=batch.size, seq_len=batch.width))
        draw_totals["frequency"] += rng.draws
    if config["negs.inbatch.count"] > 0:
        want = min(config["negs.inbatch.count"], inbatch_capacity(batch))
        if want > 0:
            rng = CountingGenerator(rng_stream(seed, "inbatch", epoch, index))
            parts.append(sample_inbatch(batch, want, rng, pool=config["negs.inbatch.pool"]))
            draw_totals["inbatch"] += rng.draws
    if config["negs.uniform.count"] > 0:
        rng = CountingGenerator(rng_stream(seed, "uniform", epoch, index))
        parts.append(sample_uniform(
            state.config.n_items, config["negs.uniform.granularity"],
            config["negs.uniform.count"], rng, batch_size=batch.size, seq_len=batch.width))
        draw_totals["uniform"] += rng.draws

    negatives = parts[0]
    for extra in parts[1:]:
        negatives = concat_negatives(negatives, extra)
    neg_scores = reference_score(state, hidden, negatives)

    k = config["negs.topk"]
    if 0 < k < negatives.count:
        neg_scores = topk_filter(neg_scores, k).scores

    loss_name = config["loss"]
    if loss_name == "bpr-max":
        loss = get_loss(loss_name)(
            pos_scores, neg_scores, config["loss.bpr_max.lambda"], mask=batch.mask)
    else:
        loss = get_loss(loss_name)(pos_scores, neg_scores, mask=batch.mask)
    state.zero_grad()
    loss.backward()
    if config["train.clip_norm"] > 0.0:
        TR.clip_gradient_norm(state.params, config["train.clip_norm"])
    optimizer.step()
    return loss.item(), int(batch.mask.sum())


class GradientRecorder:
    """Stands in for Adam: records the gradients the step hands it."""

    def __init__(self, params):
        self.params = params
        self.grads = None

    def step(self):
        self.grads = {name: p.grad for name, p in self.params.items()}


# ---------------------------------------------------------------------------
# equivalence

GRANULARITIES = ("elementwise", "sessionwise", "batchwise")
N_ITEMS = 30
MAX_LEN = 7


def ragged_batch(rng, n_sessions):
    sessions = []
    for i in range(n_sessions):
        n = int(rng.integers(2, MAX_LEN + 3))  # some are truncated to MAX_LEN
        sessions.append(Session(i, rng.integers(0, N_ITEMS, n).tolist(), list(range(n))))
    return next(make_batches(sessions, batch_size=n_sessions, max_len=MAX_LEN,
                             pad_id=N_ITEMS, trim=True))


@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(data=st.data())
def test_packed_step_matches_padded_reference(data):
    rng = np.random.default_rng(data.draw(st.integers(0, 2**16), label="data seed"))
    batch = ragged_batch(rng, data.draw(st.integers(1, 6), label="sessions"))
    sources = data.draw(st.sets(st.sampled_from(["uniform", "frequency", "inbatch"]),
                                min_size=1), label="sources")
    counts = {s: (data.draw(st.integers(1, 8), label=s) if s in sources else 0)
              for s in ("uniform", "frequency", "inbatch")}
    total = (counts["uniform"] + counts["frequency"]
             + min(counts["inbatch"], inbatch_capacity(batch)))
    if total == 0:  # in-batch only, and the batch has no item outside a session
        counts["uniform"] = total = 1
    topk = data.draw(st.sampled_from([0] + list(range(2, total))), label="topk")
    config = C.resolve(overrides={
        "model.hidden_dim": 8, "model.num_layers": 1, "model.num_heads": 2,
        "model.dropout": data.draw(st.sampled_from([0.0, 0.2]), label="dropout"),
        "data.max_len": MAX_LEN,
        "negs.uniform.count": counts["uniform"],
        "negs.uniform.granularity": data.draw(st.sampled_from(GRANULARITIES), label="ug"),
        "negs.frequency.count": counts["frequency"],
        "negs.frequency.granularity": data.draw(st.sampled_from(GRANULARITIES), label="fg"),
        "negs.inbatch.count": counts["inbatch"],
        "negs.topk": topk,
        "loss": data.draw(st.sampled_from(["bce", "bpr-max", "ssm"]), label="loss"),
    })
    table = AliasTable(rng.integers(1, 9, N_ITEMS))
    seed, epoch, index = 5, 1, int(rng.integers(0, 100))

    results = []
    for step in (TR.train_step, reference_train_step):
        state = M.ModelState.initialize(TR.model_config_from(config, N_ITEMS), seed=seed)
        recorder = GradientRecorder(state.params)
        draws = {"uniform": 0, "frequency": 0, "inbatch": 0}
        value, positions = step(state, batch, config, recorder, seed, epoch, index, draws,
                                frequency_table=table)
        results.append((value, positions, draws, recorder.grads))
    (loss, positions, draws, grads), (want_loss, want_positions, want_draws, want_grads) = results
    assert positions == want_positions == int(batch.mask.sum())
    assert draws == want_draws
    assert abs(loss - want_loss) <= 1e-12 * abs(want_loss)
    assert grads.keys() == want_grads.keys()
    for name, want in want_grads.items():
        np.testing.assert_allclose(grads[name], want, rtol=0, atol=1e-10, err_msg=name)


def test_losses_take_the_mean_over_packed_positions():
    rng = np.random.default_rng(3)
    pos = T.Tensor(rng.standard_normal((2, 5)))
    negs = T.Tensor(rng.standard_normal((2, 5, 4)))
    mask = np.array([[1, 1, 1, 0, 0], [1, 1, 0, 0, 0]], dtype=bool)
    for name in ("bce", "bpr-max", "ssm"):
        padded = get_loss(name)(pos, negs, mask=mask).item()
        packed = get_loss(name)(T.Tensor(pos.data[mask]), T.Tensor(negs.data[mask])).item()
        assert packed == pytest.approx(padded, rel=1e-14)


# ---------------------------------------------------------------------------
# the packing ops


def test_take_rows_gradcheck():
    rng = np.random.default_rng(0)
    a = T.Tensor(rng.standard_normal((3, 4, 5)), requires_grad=True)
    rows = np.array([0, 1, 2, 4, 5, 9])
    weights = rng.standard_normal((rows.size, 5))
    err = T.gradcheck(lambda: T.tsum(T.mul(T.take_rows(a, rows), weights)), [a])
    assert err < 1e-8


def test_take_rows_of_a_transposed_block():
    rng = np.random.default_rng(1)
    a = T.Tensor(rng.standard_normal((2, 5, 3)), requires_grad=True)
    rows = np.array([0, 1, 3, 4])
    weights = rng.standard_normal((rows.size, 5))
    picked = T.take_rows(T.transpose(a, (0, 2, 1)), rows)  # [b, W, k] view of [b, k, W]
    np.testing.assert_array_equal(
        picked.data, np.transpose(a.data, (0, 2, 1)).reshape(-1, 5)[rows])
    err = T.gradcheck(lambda: T.tsum(T.mul(
        T.take_rows(T.transpose(a, (0, 2, 1)), rows), weights)), [a])
    assert err < 1e-8


def test_take_rows_leaves_unpicked_rows_exactly_zero():
    a = T.Tensor(np.ones((2, 3, 4)), requires_grad=True)
    T.tsum(T.take_rows(a, np.array([1, 3]))).backward()
    picked = np.zeros((2, 3), dtype=bool)
    picked.flat[[1, 3]] = True
    assert (a.grad[picked] == 1.0).all()
    assert (a.grad[~picked] == 0.0).all()


def test_pack_picks_the_masked_positions():
    rng = np.random.default_rng(2)
    hidden = T.Tensor(rng.standard_normal((2, 3, 4)))
    mask = np.array([[1, 1, 0], [1, 0, 0]], dtype=bool)
    packed = M.pack(hidden, mask)
    np.testing.assert_array_equal(packed.rows, [0, 1, 3])
    np.testing.assert_array_equal(packed.hidden.data, hidden.data[mask])
    assert M.pack(hidden).hidden.shape == (6, 4)
    with pytest.raises(ShapeError, match="mask"):
        M.pack(hidden, mask[:, :2])


@pytest.mark.parametrize("granularity_shape", [(1, 1, 5), (2, 1, 5), (2, 3, 5)])
def test_packed_scores_are_the_padded_scores_at_valid_positions(granularity_shape):
    rng = np.random.default_rng(4)
    state = M.ModelState.initialize(M.ModelConfig(n_items=12, hidden_dim=4, max_len=4), seed=1)
    hidden = T.Tensor(rng.standard_normal((2, 3, 4)))
    mask = np.array([[1, 1, 0], [1, 0, 0]], dtype=bool)
    ids = rng.integers(0, 12, size=granularity_shape)
    targets = rng.integers(0, 12, size=(2, 3))
    packed = M.pack(hidden, mask)
    np.testing.assert_allclose(M.score(state, packed, ids).data,
                               M.score(state, hidden, ids).data[mask], rtol=1e-14)
    np.testing.assert_allclose(M.score(state, packed, targets).data,
                               M.score(state, hidden, targets).data[mask], rtol=1e-14)
