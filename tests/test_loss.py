"""Value, property, and gradient tests for the three ranking losses.

Expected values were derived by hand or from a direct formula-evaluation
oracle kept independent of the library code path.
"""

import numpy as np
import pytest

from sessrec import loss as L
from sessrec import tensor as T
from sessrec.tensor import Tensor


def bpr_max_oracle(pos: float, negs: np.ndarray, lam: float) -> float:
    """Direct evaluation of the softmax-weighted pairwise formula."""
    e = np.exp(negs - negs.max())
    s = e / e.sum()
    sig = 1.0 / (1.0 + np.exp(-(pos - negs)))
    return float(-np.log(np.sum(s * sig)) + lam * np.sum(s * negs**2))


class TestBce:
    def test_uniform_logits(self):
        out = L.bce(Tensor([0.0]), Tensor([[0.0, 0.0]]))
        np.testing.assert_allclose(out.item(), 3 * np.log(2), rtol=1e-14)

    def test_perfect_separation_limit(self):
        out = L.bce(Tensor([60.0]), Tensor([[-60.0, -60.0]]))
        assert out.item() < 1e-12

    def test_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(10)
        pos = Tensor(rng.normal(size=(2, 3)), requires_grad=True)
        negs = Tensor(rng.normal(size=(2, 3, 5)), requires_grad=True)
        assert T.gradcheck(lambda: L.bce(pos, negs), [pos, negs]) < 1e-5


class TestBprMax:
    def test_all_equal_scores(self):
        out = L.bpr_max(Tensor([1.5]), Tensor([[1.5, 1.5, 1.5]]), lambda_reg=0.0)
        np.testing.assert_allclose(out.item(), np.log(2), rtol=1e-14)

    def test_saturation(self):
        out = L.bpr_max(Tensor([80.0]), Tensor([[-8.0, -4.0]]), lambda_reg=0.0)
        assert abs(out.item()) < 1e-12

    def test_value_matches_formula_oracle(self):
        rng = np.random.default_rng(11)
        pos = float(rng.normal())
        negs = rng.normal(size=5)
        out = L.bpr_max(Tensor([pos]), Tensor(negs[None, :]), lambda_reg=0.5)
        np.testing.assert_allclose(out.item(), bpr_max_oracle(pos, negs, 0.5), rtol=1e-12)

    def test_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(12)
        pos = Tensor(rng.normal(size=(2, 3)), requires_grad=True)
        negs = Tensor(rng.normal(size=(2, 3, 5)), requires_grad=True)
        assert T.gradcheck(lambda: L.bpr_max(pos, negs, 0.5), [pos, negs]) < 1e-5

    def test_not_monotone_in_easy_negative(self):
        # Known property of the softmax weighting: raising a low-scored
        # negative can shift weight onto its easy comparison and lower the
        # loss. Frozen so the behaviour is documented, not accidental.
        base = L.bpr_max(Tensor([0.0]), Tensor([[1.0, -1.0]]), 0.0).item()
        bumped = L.bpr_max(Tensor([0.0]), Tensor([[1.0, -0.9]]), 0.0).item()
        assert bumped < base


class TestSsm:
    def test_uniform_logits(self):
        for m in (1, 4, 9):
            out = L.ssm(Tensor([0.0]), Tensor(np.zeros((1, m))))
            np.testing.assert_allclose(out.item(), np.log(m + 1), rtol=1e-14)

    def test_scalar_arithmetic_case(self):
        out = L.ssm(Tensor([2.0]), Tensor([[0.0, 0.0]]))
        np.testing.assert_allclose(out.item(), np.log(np.exp(2) + 2) - 2, rtol=1e-14)

    def test_shift_invariance(self):
        rng = np.random.default_rng(13)
        pos = rng.normal(size=(3,))
        negs = rng.normal(size=(3, 6))
        base = L.ssm(Tensor(pos), Tensor(negs)).item()
        for c in (-100.0, 0.5, 37.0):
            shifted = L.ssm(Tensor(pos + c), Tensor(negs + c)).item()
            assert abs(shifted - base) < 1e-12

    def test_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(14)
        pos = Tensor(rng.normal(size=(2, 3)), requires_grad=True)
        negs = Tensor(rng.normal(size=(2, 3, 5)), requires_grad=True)
        assert T.gradcheck(lambda: L.ssm(pos, negs), [pos, negs]) < 1e-5


class TestSharedProperties:
    LOSSES = [
        ("bce", lambda p, n, m=None: L.bce(p, n, mask=m)),
        ("bpr-max", lambda p, n, m=None: L.bpr_max(p, n, 0.5, mask=m)),
        ("ssm", lambda p, n, m=None: L.ssm(p, n, mask=m)),
    ]

    @pytest.mark.parametrize("name,fn", LOSSES)
    def test_mismatched_shapes_rejected(self, name, fn):
        # pos [1] against negs [4, 3] used to broadcast silently
        with pytest.raises(ValueError, match=r"\(1,\) vs \(4, 3\)"):
            fn(Tensor(np.zeros(1)), Tensor(np.zeros((4, 3))))

    @pytest.mark.parametrize("name,fn", LOSSES)
    def test_permutation_invariance(self, name, fn):
        rng = np.random.default_rng(15)
        pos = Tensor(rng.normal(size=(2,)))
        negs = rng.normal(size=(2, 7))
        base = fn(pos, Tensor(negs)).item()
        for seed in range(5):
            perm = np.random.default_rng(seed).permutation(7)
            assert abs(fn(pos, Tensor(negs[:, perm])).item() - base) < 1e-12

    @pytest.mark.parametrize("name,fn", LOSSES)
    def test_increasing_pos_strictly_decreases(self, name, fn):
        rng = np.random.default_rng(16)
        pos = rng.normal(size=(4,))
        negs = rng.normal(size=(4, 6))
        lo = fn(Tensor(pos), Tensor(negs)).item()
        hi = fn(Tensor(pos + 0.3), Tensor(negs)).item()
        assert hi < lo

    @pytest.mark.parametrize("name,fn", [LOSSES[0], LOSSES[2]])
    def test_increasing_any_neg_strictly_increases(self, name, fn):
        rng = np.random.default_rng(17)
        pos = Tensor(rng.normal(size=(3,)))
        negs = rng.normal(size=(3, 5))
        base = fn(pos, Tensor(negs)).item()
        for j in range(5):
            bumped = negs.copy()
            bumped[:, j] += 0.25
            assert fn(pos, Tensor(bumped)).item() > base

    @pytest.mark.parametrize("name,fn", LOSSES)
    def test_masked_positions_do_not_contribute(self, name, fn):
        rng = np.random.default_rng(18)
        pos = rng.normal(size=(4,))
        negs = rng.normal(size=(4, 5))
        mask = np.array([True, True, False, True])

        full = fn(Tensor(pos), Tensor(negs), mask).item()
        only_valid = fn(Tensor(pos[mask]), Tensor(negs[mask])).item()
        np.testing.assert_allclose(full, only_valid, rtol=1e-12)

    @pytest.mark.parametrize("name,fn", LOSSES)
    def test_garbage_at_masked_positions_is_harmless(self, name, fn):
        pos = Tensor(np.array([0.5, -3000.0]))
        negs = Tensor(np.array([[0.1, -0.2], [4000.0, 4000.0]]))
        mask = np.array([True, False])
        out = fn(pos, negs, mask)
        assert np.isfinite(out.item())
        clean = fn(Tensor(np.array([0.5])), Tensor(np.array([[0.1, -0.2]]))).item()
        np.testing.assert_allclose(out.item(), clean, rtol=1e-12)

    @pytest.mark.parametrize("name,fn", LOSSES)
    def test_composition_with_topk_selection(self, name, fn):
        # the loss over gathered top-k scores must equal the loss computed on
        # only those negatives, and non-selected scores must get zero gradient
        rng = np.random.default_rng(19)
        pos = Tensor(rng.normal(size=(2,)))
        all_negs = Tensor(rng.normal(size=(2, 8)), requires_grad=True)
        keep = np.argsort(-all_negs.data, axis=-1, kind="stable")[:, :3]

        via_gather = fn(pos, T.take_along_last(all_negs, keep))
        direct = fn(pos, Tensor(np.take_along_axis(all_negs.data, keep, axis=-1)))
        np.testing.assert_allclose(via_gather.item(), direct.item(), rtol=1e-15)

        via_gather.backward()
        not_selected = np.ones((2, 8), dtype=bool)
        np.put_along_axis(not_selected, keep, False, axis=-1)
        assert np.all(all_negs.grad[not_selected] == 0.0)
        assert np.any(all_negs.grad[~not_selected] != 0.0)
