"""The negative-scoring node against the composed graphs it replaces.

`model.score` scores a whole `NegativeSet` in one node over the packed
rows, each part into its own columns. `composed.score_negatives` is the
`gather_rows` + `matmul` graph it fuses for one part: per run of rows that
shares a pool for a batchwise or sessionwise part, joined with `concat`;
the parts of a mixed set are joined with `concat` too. The node runs the
same products, its feature-major scatter adds each table row in id order
as `np.add.at` does, and it adds the parts' gradients in the reference's
order, so scores and every gradient must be bit-identical to that
reference, at every granularity mix and any BLAS thread count.
`composed.score_sessionwise_on_grid` is the grid form a sessionwise part
had before (all W slots of each session scored, then the valid rows
taken); BLAS sums its products over other row counts, so the node must
match it to 1e-12.
"""

import itertools
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import composed as C
from sessrec import model as M
from sessrec import tensor as T
from sessrec.errors import ItemIdError
from sessrec.sampler import NegativeSet

GRANULARITIES = ("batchwise", "sessionwise", "elementwise")


def part_shape(granularity, b, width, k):
    return {"batchwise": (1, 1, k), "sessionwise": (b, 1, k), "elementwise": (b, width, k)}[
        granularity]


def draw_ids(rng, shape, n_items, kind):
    """`distinct` ids (as far as the catalog allows), ids `repeated` from a
    few rows, or ids that hold the pad row `n_items` among them."""
    size = int(np.prod(shape))
    if kind == "distinct":
        ids = rng.permutation(max(size, n_items + 1))[:size] % (n_items + 1)
    elif kind == "repeated":
        ids = rng.integers(0, min(3, n_items + 1), size=size)
    else:
        ids = rng.integers(0, n_items + 1, size=size)
        ids[rng.random(size) < 0.3] = n_items
        ids[0] = n_items
    return ids.reshape(shape)


def model(rng, n_items, d):
    state = M.ModelState.initialize(M.ModelConfig(n_items=n_items, hidden_dim=d, max_len=8))
    state.params["item_emb"] = T.Tensor(rng.standard_normal((n_items + 1, d)), requires_grad=True)
    return state


def scores_and_grads(scorer, state, grid_data, mask, ids, upstream):
    grid = T.Tensor(grid_data, requires_grad=True)
    emb = state.params["item_emb"]
    emb.zero_grad()
    scores = scorer(state, grid, mask, ids)
    scores.backward(seed=upstream)
    return scores.data, grid.grad, np.ascontiguousarray(emb.grad)


def node(state, grid, mask, ids):
    """One part's ids or a whole `NegativeSet`, scored by `model.score`."""
    return M.score(state, M.pack(grid, mask), ids)


def composed(state, grid, mask, ids):
    """The reference: each part scored on its own, the parts joined by `concat`."""
    packed = M.pack(grid, mask)
    parts = ids.parts if isinstance(ids, NegativeSet) else (ids,)
    return C.concat([C.score_negatives(state, packed, part) for part in parts])


def bits(a):
    return np.ascontiguousarray(a).view(np.int64)


def assert_matches_reference(rng, granularity, kind, b, width, d, k, n_items, mask):
    """One part of `granularity` and k ids, or, given sequences of both, a
    `NegativeSet` of one part per granularity, drawn in that order."""
    if isinstance(granularity, str):
        granularity, k = (granularity,), (k,)
    state = model(rng, n_items, d)
    ids = NegativeSet(*(draw_ids(rng, part_shape(g, b, width, n), n_items, kind)
                        for g, n in zip(granularity, k)))
    grid = rng.standard_normal((b, width, d))
    positions = b * width if mask is None else int(mask.sum())
    upstream = rng.standard_normal((positions, ids.count))
    upstream[rng.random(upstream.shape) < 0.1] = -0.0
    got = scores_and_grads(node, state, grid, mask, ids, upstream)
    want = scores_and_grads(composed, state, grid, mask, ids, upstream)
    for name, a, e in zip(("scores", "hidden grad", "item_emb grad"), got, want):
        assert a.shape == e.shape, name
        np.testing.assert_array_equal(bits(a), bits(e), err_msg=name)


@settings(max_examples=150, deadline=None)
@given(
    granularity=st.sampled_from(GRANULARITIES),
    kind=st.sampled_from(["distinct", "repeated", "pad"]),
    b=st.integers(1, 4),
    width=st.integers(1, 5),
    d=st.sampled_from([1, 3, 16, 17]),
    k=st.integers(1, 9),
    n_items=st.integers(1, 40),
    masked=st.sampled_from(["none", "random", "empty"]),
    seed=st.integers(0, 2**16),
)
def test_bits_equal_composed_reference(granularity, kind, b, width, d, k, n_items, masked, seed):
    rng = np.random.default_rng(seed)
    mask = {"none": None, "random": rng.random((b, width)) < 0.6,
            "empty": np.zeros((b, width), dtype=bool)}[masked]
    assert_matches_reference(rng, granularity, kind, b, width, d, k, n_items, mask)


# sets of one part are test_bits_equal_composed_reference's
MIXES = [mix for n in (2, 3) for mix in itertools.product(GRANULARITIES, repeat=n)]


@pytest.mark.parametrize("mix", MIXES, ids="+".join)
@settings(max_examples=10, deadline=None)
@given(
    kind=st.sampled_from(["distinct", "repeated", "pad"]),
    b=st.integers(1, 4),
    width=st.integers(1, 5),
    d=st.sampled_from([1, 3, 16, 17]),
    ks=st.lists(st.integers(1, 9), min_size=3, max_size=3),
    n_items=st.integers(1, 40),
    masked=st.sampled_from(["none", "full", "random", "empty"]),
    seed=st.integers(0, 2**16),
)
def test_mixed_set_bits_equal_composed_reference(mix, kind, b, width, d, ks, n_items, masked,
                                                 seed):
    # one node for the whole set against one reference graph per part joined
    # by concat; adjacent parts of one granularity merge into one part
    rng = np.random.default_rng(seed)
    mask = {"none": None, "full": np.ones((b, width), dtype=bool),
            "random": rng.random((b, width)) < 0.6,
            "empty": np.zeros((b, width), dtype=bool)}[masked]
    assert_matches_reference(rng, mix, kind, b, width, d, ks[:len(mix)], n_items, mask)


@pytest.mark.parametrize("mix", [("sessionwise", "batchwise"), ("batchwise", "sessionwise")])
def test_mixed_set_bits_equal_composed_reference_at_the_tron_batchwise_shape(mix):
    # in-batch 127 sessionwise plus a batchwise pool of 2048 at b 128, d 64
    rng = np.random.default_rng(21)
    k = {"sessionwise": 127, "batchwise": 2048}
    mask = np.arange(20) < rng.integers(1, 21, size=(128, 1))
    assert_matches_reference(rng, mix, "pad", 128, 20, 64, [k[g] for g in mix], 3000, mask)


TRAINING_SHAPES = {"large-catalog": (128, 20, 64, 544), "wide": (16, 50, 100, 700)}


@pytest.mark.parametrize("b,width,d,k", TRAINING_SHAPES.values(), ids=TRAINING_SHAPES.keys())
@pytest.mark.parametrize("granularity", GRANULARITIES)
def test_bits_equal_composed_reference_at_a_training_shape(granularity, b, width, d, k):
    # Products large enough for BLAS to split them over threads. At the wide
    # shape, BLAS sums a product and its transpose in different orders, so
    # only the reference's own operand order gives the same bits.
    rng = np.random.default_rng(13)
    k = 64 if granularity == "elementwise" else k
    mask = rng.random((b, width)) < 0.6
    assert_matches_reference(rng, granularity, "pad", b, width, d, k, 9649, mask)


@settings(max_examples=12, deadline=None)
@given(data=st.data())
def test_sessionwise_runs_match_the_grid_form(data):
    # ragged sessions, some of them empty, or a batch with no valid position
    b, width, d, k = TRAINING_SHAPES[data.draw(st.sampled_from(sorted(TRAINING_SHAPES)))]
    if data.draw(st.booleans(), label="no valid position"):
        lengths = [0] * b
    else:
        lengths = data.draw(st.lists(st.integers(0, width), min_size=b, max_size=b))
    rng = np.random.default_rng(data.draw(st.integers(0, 2**16), label="seed"))
    mask = np.arange(width) < np.array(lengths)[:, None]
    state = model(rng, 9649, d)
    ids = draw_ids(rng, (b, 1, k), 9649, "pad")
    grid = rng.standard_normal((b, width, d))
    upstream = rng.standard_normal((int(mask.sum()), k))
    got = scores_and_grads(node, state, grid, mask, ids, upstream)
    want = scores_and_grads(C.score_sessionwise_on_grid, state, grid, mask, ids, upstream)
    for name, a, e in zip(("scores", "hidden grad", "item_emb grad"), got, want):
        assert a.shape == e.shape, name
        # relative to each value, or to the block's largest for a value that cancels
        scale = np.abs(e).max(initial=0.0)
        np.testing.assert_allclose(a, e, rtol=1e-12, atol=1e-12 * scale, err_msg=name)


def traced_peak(run):
    """`run()`'s result, and the bytes it allocated at its peak above what
    was live before it."""
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        out = run()
        return out, tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()


MB = 1 << 20


def test_sessionwise_backward_stays_within_16_mb():
    # the large-catalog shape: its whole [d, b k] row gradient is 35.6 MB
    rng = np.random.default_rng(8)
    b, width, d, k, n_items = 128, 20, 64, 544, 9589
    state = model(rng, n_items, d)
    ids = draw_ids(rng, (b, 1, k), n_items, "pad")
    mask = np.arange(width) < rng.integers(3, 12, size=(b, 1))
    scores = node(state, T.Tensor(rng.standard_normal((b, width, d)), requires_grad=True),
                  mask, ids)
    upstream = rng.standard_normal(scores.shape)
    assert traced_peak(lambda: scores.backward(seed=upstream))[1] <= 16 * MB


def test_elementwise_passes_stay_within_16_mb():
    # P 376 and k 544: the whole [P, k, d] rows, or the [d, P, k] row
    # gradient, are 104.7 MB; each pass gathers and scatters groups of rows
    rng = np.random.default_rng(8)
    b, width, d, k, n_items = 32, 20, 64, 544, 9589
    state = model(rng, n_items, d)
    ids = draw_ids(rng, (b, width, k), n_items, "pad")
    mask = np.zeros(b * width, dtype=bool)
    mask[rng.choice(b * width, 376, replace=False)] = True
    grid = T.Tensor(rng.standard_normal((b, width, d)), requires_grad=True)
    scores, forward_peak = traced_peak(lambda: node(state, grid, mask.reshape(b, width), ids))
    upstream = rng.standard_normal(scores.shape)
    assert forward_peak <= 16 * MB
    assert traced_peak(lambda: scores.backward(seed=upstream))[1] <= 16 * MB


@pytest.mark.parametrize("kind", ["distinct", "repeated"])
@pytest.mark.parametrize("granularity", GRANULARITIES)
def test_gradcheck(granularity, kind):
    rng = np.random.default_rng(5)
    b, width, d, k, n_items = 2, 3, 4, 3, 7
    state = model(rng, n_items, d)
    ids = draw_ids(rng, part_shape(granularity, b, width, k), n_items, kind)
    grid = T.Tensor(rng.standard_normal((b, width, d)), requires_grad=True)
    mask = np.array([[True, True, False], [True, False, False]])
    weight = T.Tensor(rng.standard_normal((int(mask.sum()), k)))

    def f():
        return T.tsum(T.mul(node(state, grid, mask, ids), weight))

    assert T.gradcheck(f, [grid, state.params["item_emb"]]) < 1e-6


@pytest.mark.parametrize("bad", [-1, 8])
@pytest.mark.parametrize("granularity", GRANULARITIES)
def test_id_outside_the_table_is_named(granularity, bad):
    rng = np.random.default_rng(2)
    state = model(rng, 7, 4)  # rows 0..6 are items, row 7 the pad
    ids = draw_ids(rng, part_shape(granularity, 2, 3, 4), 7, "distinct")
    ids.flat[-1] = bad
    grid = T.Tensor(rng.standard_normal((2, 3, 4)), requires_grad=True)
    with pytest.raises(ItemIdError, match=rf"id {bad} out of range \[0, 8\)"):
        node(state, grid, None, ids)
