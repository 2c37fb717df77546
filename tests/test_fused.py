"""Fused graph nodes pinned to the composed graphs they replace.

The references below are the earlier forms, built from fine-grained autodiff
ops (`composed`): the three losses with their masked mean, `layer_norm` in eleven nodes,
and a matmul whose shared-weight gradient is one product per batch entry
summed down. Tolerances were fixed before the kernels were written:

* loss values within 1e-12 relative, every gradient within 1e-10 absolute;
* the `layer_norm` forward exactly equal, since eval and the encoder output
  must not move;
* `matmul`'s forward and left-operand gradient exactly equal.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import composed as C
from sessrec import loss as L
from sessrec import tensor as T
from sessrec.errors import NumericError
from sessrec.tensor import Tensor

LOSS_RTOL = 1e-12
GRAD_ATOL = 1e-10


# ---------------------------------------------------------------------------
# references: the composed graphs


def masked_mean_reference(per_position, mask):
    count = float(per_position.data.size if mask is None else mask.sum())
    if count == 0:
        raise ValueError("no valid positions to average over")
    if mask is None:
        return T.mul(T.tsum(per_position), 1.0 / count)
    return T.mul(T.tsum(C.where_mask(mask, per_position)), 1.0 / count)


def bce_reference(pos, negs, mask=None):
    mask = None if mask is None else np.asarray(mask, dtype=bool)
    per_pos = T.add(C.softplus(T.mul(pos, -1.0)), T.tsum(C.softplus(negs), axis=-1))
    return masked_mean_reference(per_pos, mask)


def bpr_max_reference(pos, negs, lambda_reg=1.0, mask=None):
    mask = None if mask is None else np.asarray(mask, dtype=bool)
    weights = T.softmax(negs, axis=-1)
    diffs = C.sub(T.reshape(pos, pos.shape + (1,)), negs)
    ranking = T.tsum(T.mul(weights, C.sigmoid(diffs)), axis=-1)
    if mask is not None:
        ranking = C.where_mask(mask, ranking, fill=1.0)
    per_pos = T.mul(C.log(ranking), -1.0)
    if lambda_reg != 0.0:
        reg = T.tsum(T.mul(weights, T.mul(negs, negs)), axis=-1)
        per_pos = T.add(per_pos, T.mul(reg, lambda_reg))
    return masked_mean_reference(per_pos, mask)


def ssm_reference(pos, negs, mask=None):
    mask = None if mask is None else np.asarray(mask, dtype=bool)
    shift = np.maximum(pos.data, negs.data.max(axis=-1))
    pos_e = C.exp(C.sub(pos, shift))
    neg_e = T.tsum(C.exp(C.sub(negs, shift[..., None])), axis=-1)
    log_denom = C.log(T.add(pos_e, neg_e))
    per_pos = C.sub(T.add(log_denom, Tensor(shift)), pos)
    return masked_mean_reference(per_pos, mask)


def layer_norm_reference(a, gain, bias, eps=1e-8):
    a, gain, bias = T.as_tensor(a), T.as_tensor(gain), T.as_tensor(bias)
    mu = C.mean(a, axis=-1, keepdims=True)
    centered = C.sub(a, mu)
    var = C.mean(T.mul(centered, centered), axis=-1, keepdims=True)
    inv = C.power(T.add(var, eps), -0.5)
    normalized = T.mul(centered, inv)
    return T.add(T.mul(normalized, gain), bias)


def matmul_reference(a, b):
    """`matmul` with the weight gradient summed from one product per batch."""
    out = a.data @ b.data

    def backward(g):
        ga = T._unbroadcast(g @ np.swapaxes(b.data, -1, -2), a.shape) if a.requires_grad else None
        gb = T._unbroadcast(np.swapaxes(a.data, -1, -2) @ g, b.shape) if b.requires_grad else None
        return ga, gb

    return T._wire(out, (a, b), backward)


# (name, fused, reference) with the call signature fn(pos, negs, mask)
LOSSES = [
    ("bce", L.bce, bce_reference),
    ("bpr-max lambda 0", lambda p, n, m=None: L.bpr_max(p, n, 0.0, mask=m),
     lambda p, n, m=None: bpr_max_reference(p, n, 0.0, mask=m)),
    ("bpr-max lambda 1", lambda p, n, m=None: L.bpr_max(p, n, 1.0, mask=m),
     lambda p, n, m=None: bpr_max_reference(p, n, 1.0, mask=m)),
    ("ssm", L.ssm, ssm_reference),
]
IDS = [name for name, _, _ in LOSSES]


def run(fn, pos, negs, mask=None):
    """(value, d/dpos, d/dnegs) of fn, from fresh leaves."""
    p = Tensor(pos, requires_grad=True)
    n = Tensor(negs, requires_grad=True)
    out = fn(p, n, mask)
    out.backward()
    return out.item(), p.grad, n.grad


def assert_matches_reference(fused, reference, pos, negs, mask=None):
    value, grad_pos, grad_negs = run(fused, pos, negs, mask)
    ref_value, ref_pos, ref_negs = run(reference, pos, negs, mask)
    np.testing.assert_allclose(value, ref_value, rtol=LOSS_RTOL, atol=0)
    np.testing.assert_allclose(grad_pos, ref_pos, rtol=0, atol=GRAD_ATOL)
    np.testing.assert_allclose(grad_negs, ref_negs, rtol=0, atol=GRAD_ATOL)


scores = st.tuples(
    st.integers(1, 7),  # positions
    st.integers(1, 9),  # negatives
    st.sampled_from([0.01, 1.0, 5.0, 20.0]),  # score scale
    st.integers(0, 2**16),
)


def draw(shape, scale, seed):
    return np.random.default_rng(seed).normal(size=shape) * scale


# ---------------------------------------------------------------------------
# losses


class TestFusedLosses:
    @pytest.mark.parametrize("name,fused,reference", LOSSES, ids=IDS)
    @settings(max_examples=60, deadline=None)
    @given(scores)
    def test_packed_matches_reference(self, name, fused, reference, case):
        positions, k, scale, seed = case
        negs = draw((positions, k), scale, seed)
        pos = draw((positions,), scale, seed + 1)
        assert_matches_reference(fused, reference, pos, negs)

    @pytest.mark.parametrize("name,fused,reference", LOSSES, ids=IDS)
    @settings(max_examples=40, deadline=None)
    @given(scores, st.integers(1, 4))
    def test_masked_matches_reference(self, name, fused, reference, case, batch):
        width, k, scale, seed = case
        rng = np.random.default_rng(seed)
        mask = rng.random((batch, width)) < 0.6
        mask.flat[rng.integers(mask.size)] = True
        pos = draw((batch, width), scale, seed + 1)
        negs = draw((batch, width, k), scale, seed + 2)
        assert_matches_reference(fused, reference, pos, negs, mask)

    @pytest.mark.parametrize("name,fused,reference", LOSSES, ids=IDS)
    def test_nan_garbage_at_masked_slots(self, name, fused, reference):
        rng = np.random.default_rng(3)
        mask = np.array([[True, True, False, False], [True, False, False, False]])
        pos = rng.normal(size=mask.shape)
        negs = rng.normal(size=mask.shape + (5,))
        dirty_pos, dirty_negs = pos.copy(), negs.copy()
        dirty_pos[~mask] = np.nan
        dirty_negs[~mask] = np.nan
        dirty_negs[1, 2, 0] = np.inf
        value, grad_pos, grad_negs = run(fused, dirty_pos, dirty_negs, mask)
        assert np.all(grad_pos[~mask] == 0.0) and np.all(grad_negs[~mask] == 0.0)
        # the reference sees the same valid scores and zeros where the garbage was
        pos[~mask], negs[~mask] = 0.0, 0.0
        ref_value, ref_pos, ref_negs = run(reference, pos, negs, mask)
        np.testing.assert_allclose(value, ref_value, rtol=LOSS_RTOL, atol=0)
        np.testing.assert_allclose(grad_pos, ref_pos, rtol=0, atol=GRAD_ATOL)
        np.testing.assert_allclose(grad_negs, ref_negs, rtol=0, atol=GRAD_ATOL)

    @pytest.mark.parametrize("name,fused,reference", LOSSES, ids=IDS)
    def test_masked_equals_packed_call_on_the_valid_rows(self, name, fused, reference):
        # a mask only picks rows: the value and the valid slots' gradients are
        # the packed call's bit for bit, and the NaN at masked slots is never read
        rng = np.random.default_rng(12)
        for _ in range(60):
            batch, width, k = rng.integers(1, 6), rng.integers(1, 13), rng.integers(1, 9)
            lengths = rng.integers(0, width + 1, size=batch)
            lengths[rng.integers(batch)] = rng.integers(1, width + 1)
            mask = np.arange(width) < lengths[:, None]
            pos = rng.normal(size=(batch, width)) * 3.0
            negs = rng.normal(size=(batch, width, k)) * 3.0
            pos[~mask], negs[~mask] = np.nan, np.nan
            value, grad_pos, grad_negs = run(fused, pos, negs, mask)
            packed_value, packed_pos, packed_negs = run(fused, pos[mask], negs[mask])
            assert value == packed_value
            np.testing.assert_array_equal(grad_pos[mask], packed_pos)
            np.testing.assert_array_equal(grad_negs[mask], packed_negs)
            assert np.all(grad_pos[~mask] == 0.0) and np.all(grad_negs[~mask] == 0.0)

    @pytest.mark.parametrize("name,fused,reference", LOSSES, ids=IDS)
    def test_training_shapes_value_is_bit_identical(self, name, fused, reference):
        # the forward repeats the composed arithmetic in order, so the value
        # training reads is unchanged
        rng = np.random.default_rng(4)
        pos = rng.normal(size=300) * 3.0
        negs = rng.normal(size=(300, 257)) * 3.0
        assert run(fused, pos, negs)[0] == run(reference, pos, negs)[0]

    @pytest.mark.parametrize("name,fused,reference", LOSSES, ids=IDS)
    def test_one_node(self, name, fused, reference):
        pos = Tensor(np.zeros(3), requires_grad=True)
        negs = Tensor(np.zeros((3, 4)), requires_grad=True)
        out = fused(pos, negs)
        assert out._parents == (pos, negs)

    @pytest.mark.parametrize("name,fused,reference", LOSSES, ids=IDS)
    def test_upstream_gradient_scales_and_factors_are_reused(self, name, fused, reference):
        rng = np.random.default_rng(5)
        pos = Tensor(rng.normal(size=4), requires_grad=True)
        negs = Tensor(rng.normal(size=(4, 6)), requires_grad=True)
        out = fused(pos, negs)
        out.backward()
        once = pos.grad.copy(), negs.grad.copy()
        pos.zero_grad(), negs.zero_grad()
        out.backward(seed=np.asarray(2.5))
        np.testing.assert_array_equal(pos.grad, 2.5 * once[0])
        np.testing.assert_array_equal(negs.grad, 2.5 * once[1])

    @pytest.mark.parametrize("name,fused,reference", LOSSES, ids=IDS)
    @pytest.mark.parametrize("masked", [False, True])
    def test_gradcheck(self, name, fused, reference, masked):
        rng = np.random.default_rng(6)
        pos = Tensor(rng.normal(size=(2, 4)), requires_grad=True)
        negs = Tensor(rng.normal(size=(2, 4, 5)), requires_grad=True)
        mask = np.array([[True, True, False, True], [True, False, False, False]]) if masked else None
        assert T.gradcheck(lambda: fused(pos, negs, mask), [pos, negs], step=1e-5) < 1e-7


EXTREMES = {
    "one dominant negative": (np.array([0.0]), np.array([[800.0, 0.0]])),
    "positive far below": (np.array([-1e3]), np.array([[1e3, 1e3]])),
    "positive far above": (np.array([1e3]), np.array([[-1e3, -1e3, 0.0]])),
    "mixed signs at 1e3": (np.array([1e3, -1e3, 0.0]),
                           np.array([[-1e3, 1e3], [1e3, -1e3], [1e3, 1e3]])),
    "all equal": (np.full(3, 7.0), np.full((3, 4), 7.0)),
    "all equal at -1e3": (np.full(2, -1e3), np.full((2, 3), -1e3)),
}


class TestExtremeScores:
    @pytest.mark.parametrize("name,fused,reference", LOSSES, ids=IDS)
    @pytest.mark.parametrize("case", list(EXTREMES))
    def test_finite_and_equal_to_reference_where_finite(self, name, fused, reference, case):
        pos, negs = EXTREMES[case]
        value, grad_pos, grad_negs = run(fused, pos, negs)
        assert np.isfinite(value)
        assert np.isfinite(grad_pos).all() and np.isfinite(grad_negs).all()
        with np.errstate(all="ignore"):
            ref_value, ref_pos, ref_negs = run(reference, pos, negs)
        if np.isfinite(ref_value):
            np.testing.assert_allclose(value, ref_value, rtol=LOSS_RTOL, atol=0)
        # at |score| = 1e3 the regularizer's gradient is ~1e6, so the
        # absolute tolerance scales with it
        for got, ref in ((grad_pos, ref_pos), (grad_negs, ref_negs)):
            finite = np.isfinite(ref)
            atol = GRAD_ATOL * max(1.0, float(np.abs(ref[finite]).max(initial=0.0)))
            np.testing.assert_allclose(got[finite], ref[finite], rtol=0, atol=atol)

    @pytest.mark.parametrize("lam", [0.0, 1.0])
    def test_bpr_max_underflowing_ranking_sum(self, lam):
        # w = softmax([800, 0]) ~ [1, e^-800], s = [e^-800, 1/2]:
        # r = 1.5 e^-800 underflows, and the true loss is 800 - log 1.5 + lam 800^2
        pos = Tensor(np.array([0.0]), requires_grad=True)
        negs = Tensor(np.array([[800.0, 0.0]]), requires_grad=True)
        out = L.bpr_max(pos, negs, lam)
        out.backward()
        expected = 800.0 - np.log(1.5) + lam * 800.0**2
        np.testing.assert_allclose(out.item(), expected, rtol=LOSS_RTOL)
        # q = w s / r = [2/3, 1/3]: d/dp = -sum(q (1 - s)), d/dn = w - q s + lam w (...)
        np.testing.assert_allclose(pos.grad, [-5.0 / 6.0], rtol=0, atol=GRAD_ATOL)
        np.testing.assert_allclose(
            negs.grad, [[1.0 + lam * 1600.0, -1.0 / 6.0]], rtol=0, atol=GRAD_ATOL
        )
        assert T.gradcheck(lambda: L.bpr_max(pos, negs, lam), [pos, negs]) < 1e-6

    def test_bpr_max_repairs_only_underflowing_rows(self):
        rng = np.random.default_rng(7)
        pos = rng.normal(size=5)
        negs = rng.normal(size=(5, 4))
        pos[2], negs[2] = -1e3, [1e3, 1e3, 1e3, 1e3]
        fused = run(lambda p, n, m: L.bpr_max(p, n, 0.5), pos, negs)
        expected = 2000.0 + 0.5 * 1e6
        # the other rows keep the fast path: each equals its own one-row loss
        rows = [run(lambda p, n, m: L.bpr_max(p, n, 0.5), pos[i : i + 1], negs[i : i + 1])
                for i in range(5)]
        np.testing.assert_allclose(rows[2][0], expected, rtol=LOSS_RTOL)
        np.testing.assert_allclose(fused[0], np.mean([r[0] for r in rows]), rtol=LOSS_RTOL)
        for i in range(5):
            np.testing.assert_allclose(fused[1][i], rows[i][1][0] / 5.0, rtol=0, atol=GRAD_ATOL)
            np.testing.assert_allclose(fused[2][i], rows[i][2][0] / 5.0, rtol=0, atol=GRAD_ATOL)

    def test_bpr_max_rejects_non_finite_valid_scores(self):
        with pytest.raises(NumericError, match="nan"):
            L.bpr_max(Tensor(np.zeros(1)), Tensor(np.array([[0.0, np.nan]])))


# ---------------------------------------------------------------------------
# layer_norm


def layer_norm_case(shape, scale, seed):
    rng = np.random.default_rng(seed)
    d = shape[-1]
    x = rng.normal(size=shape) * scale + rng.normal() * scale
    return x, rng.normal(size=d), rng.normal(size=d), rng.normal(size=shape)


class TestFusedLayerNorm:
    @settings(max_examples=80, deadline=None)
    @given(
        st.lists(st.integers(1, 5), min_size=0, max_size=2),
        st.integers(1, 33),
        st.sampled_from([1e-3, 1.0, 50.0]),
        st.sampled_from([1e-8, 1e-6]),
        st.integers(0, 2**16),
    )
    def test_matches_reference(self, lead, d, scale, eps, seed):
        x, gain, bias, upstream = layer_norm_case((*lead, d), scale, seed)
        grads = []
        for fn in (T.layer_norm, layer_norm_reference):
            leaves = [Tensor(v, requires_grad=True) for v in (x, gain, bias)]
            out = fn(*leaves, eps=eps)
            out.backward(seed=upstream)
            grads.append((out.data, [leaf.grad for leaf in leaves]))
        (out, fused), (ref_out, reference) = grads
        np.testing.assert_array_equal(out, ref_out)
        for got, ref in zip(fused, reference):
            np.testing.assert_allclose(got, ref, rtol=0, atol=GRAD_ATOL)

    def test_one_node_and_constant_affine(self):
        x = Tensor(np.random.default_rng(8).normal(size=(2, 3, 4)), requires_grad=True)
        gain, bias = Tensor(np.ones(4)), Tensor(np.zeros(4))
        out = T.layer_norm(x, gain, bias)
        assert out._parents == (x, gain, bias)
        T.tsum(out).backward()
        assert gain.grad is None and bias.grad is None and x.grad.shape == x.shape

    def test_gradcheck(self):
        rng = np.random.default_rng(9)
        x = Tensor(rng.normal(size=(2, 3, 5)), requires_grad=True)
        gain = Tensor(rng.normal(size=5), requires_grad=True)
        bias = Tensor(rng.normal(size=5), requires_grad=True)
        w = rng.normal(size=(2, 3, 5))
        err = T.gradcheck(
            lambda: T.tsum(T.mul(T.layer_norm(x, gain, bias, eps=1e-6), w)), [x, gain, bias],
            step=1e-5,
        )
        assert err < 1e-7


# ---------------------------------------------------------------------------
# shared-weight matmul gradient


class TestSharedWeightMatmul:
    @settings(max_examples=60, deadline=None)
    @given(
        st.lists(st.integers(1, 5), min_size=0, max_size=2),
        st.integers(1, 9), st.integers(1, 9), st.integers(1, 9),
        st.integers(0, 2**16),
    )
    def test_matches_per_batch_reference(self, lead, width, n, m, seed):
        rng = np.random.default_rng(seed)
        a_data = rng.normal(size=(*lead, width, n))
        b_data = rng.normal(size=(n, m))
        upstream = rng.normal(size=(*lead, width, m))
        results = []
        for fn in (T.matmul, matmul_reference):
            a, b = Tensor(a_data, requires_grad=True), Tensor(b_data, requires_grad=True)
            out = fn(a, b)
            out.backward(seed=upstream)
            results.append((out.data, a.grad, b.grad))
        (out, ga, gb), (ref_out, ref_ga, ref_gb) = results
        np.testing.assert_array_equal(out, ref_out)
        np.testing.assert_array_equal(ga, ref_ga)
        np.testing.assert_allclose(gb, ref_gb, rtol=0, atol=GRAD_ATOL)

    @pytest.mark.parametrize("side", ["weight", "activation", "both"])
    def test_gradcheck(self, side):
        rng = np.random.default_rng(10)
        a = Tensor(rng.normal(size=(3, 4, 5)), requires_grad=side in ("activation", "both"))
        b = Tensor(rng.normal(size=(5, 2)), requires_grad=side in ("weight", "both"))
        w = rng.normal(size=(3, 4, 2))
        params = [t for t in (a, b) if t.requires_grad]
        assert T.gradcheck(lambda: T.tsum(T.mul(T.matmul(a, b), w)), params, step=1e-5) < 1e-8
        if not a.requires_grad:
            assert a.grad is None
        if not b.requires_grad:
            assert b.grad is None
