"""Gradient and semantics checks for the autodiff substrate.

Analytic gradients are verified against central finite differences (the
independent oracle); scatter-add gathers are verified against a dense
one-hot matmul oracle.
"""

import numpy as np
import pytest

import composed as C
from sessrec import tensor as T
from sessrec.errors import ItemIdError, NumericError, ShapeError


def rand(rng, *shape):
    return T.Tensor(rng.standard_normal(shape), requires_grad=True)


class TestMatmul:
    def test_identity(self):
        x = T.Tensor(np.arange(4.0).reshape(2, 2))
        out = C.matmul(T.Tensor(np.eye(2)), x)
        np.testing.assert_array_equal(out.data, x.data)

    def test_annihilation(self):
        out = C.matmul(T.Tensor(np.zeros((2, 3))), T.Tensor(np.ones((3, 4))))
        np.testing.assert_array_equal(out.data, np.zeros((2, 4)))

    def test_shape_mismatch_names_both_shapes(self):
        with pytest.raises(ShapeError, match=r"\(2, 3\).*\(4, 2\)"):
            C.matmul(T.Tensor(np.zeros((2, 3))), T.Tensor(np.zeros((4, 2))))

    def test_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(0)
        a, b = rand(rng, 3, 3), rand(rng, 3, 3)
        err = T.gradcheck(lambda: T.tsum(T.mul(C.matmul(a, b), C.matmul(a, b))), [a, b])
        assert err < 1e-5

    def test_batched_broadcast_gradient(self):
        rng = np.random.default_rng(1)
        a = rand(rng, 2, 3, 4)
        b = rand(rng, 4, 5)  # broadcast over the batch axis
        err = T.gradcheck(lambda: T.tsum(C.power(C.matmul(a, b), 2.0)), [a, b])
        assert err < 1e-4


class TestSoftmax:
    def test_symmetry(self):
        out = C.softmax(T.Tensor([0.0, 0.0, 0.0]))
        np.testing.assert_allclose(out.data, [1 / 3] * 3, atol=1e-15)

    def test_stability_limit(self):
        out = C.softmax(T.Tensor([1000.0, 0.0, 0.0]))
        assert np.isfinite(out.data).all()
        np.testing.assert_allclose(out.data, [1.0, 0.0, 0.0], atol=1e-12)

    def test_nan_input_rejected(self):
        with pytest.raises(NumericError):
            C.softmax(T.Tensor([np.nan, 0.0]))

    def test_sums_to_one(self):
        rng = np.random.default_rng(2)
        x = T.Tensor(rng.uniform(-50, 50, size=(4, 7)))
        out = C.softmax(x, axis=-1)
        np.testing.assert_allclose(out.data.sum(axis=-1), 1.0, atol=1e-12)

    def test_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(3)
        x = rand(rng, 5)
        w = rng.standard_normal(5)  # project to a scalar
        err = T.gradcheck(lambda: T.tsum(T.mul(C.softmax(x), T.Tensor(w))), [x])
        assert err < 1e-5


class TestLayerNorm:
    def test_constant_vector_maps_to_zero(self):
        x = T.Tensor(np.full(6, 3.7))
        out = T.layer_norm(x, T.Tensor(np.ones(6)), T.Tensor(np.zeros(6)), eps=1e-8)
        np.testing.assert_allclose(out.data, 0.0, atol=1e-9)

    def test_already_normalized_fixed_point(self):
        x = T.Tensor([1.0, -1.0])
        out = T.layer_norm(x, T.Tensor(np.ones(2)), T.Tensor(np.zeros(2)), eps=1e-15)
        np.testing.assert_allclose(out.data, [1.0, -1.0], atol=1e-7)

    def test_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(4)
        x, g, b = rand(rng, 3, 5), rand(rng, 5), rand(rng, 5)
        w = rng.standard_normal((3, 5))
        err = T.gradcheck(
            lambda: T.tsum(T.mul(T.layer_norm(x, g, b, eps=1e-6), T.Tensor(w))), [x, g, b]
        )
        assert err < 1e-5


class TestGatherRows:
    def test_duplicate_ids_accumulate(self):
        table = T.Tensor(np.arange(6.0).reshape(3, 2), requires_grad=True)
        out = T.gather_rows(table, [0, 0])
        T.tsum(out).backward()
        np.testing.assert_array_equal(table.grad[0], [2.0, 2.0])
        np.testing.assert_array_equal(table.grad[1:], 0.0)

    def test_empty_ids(self):
        table = T.Tensor(np.ones((3, 2)))
        out = T.gather_rows(table, np.zeros(0, dtype=np.int64))
        assert out.shape == (0, 2)

    def test_out_of_range_reports_offending_id(self):
        table = T.Tensor(np.ones((3, 2)))
        with pytest.raises(ItemIdError, match="7"):
            T.gather_rows(table, [1, 7])

    def test_scatter_add_equals_one_hot_matmul_oracle(self):
        rng = np.random.default_rng(5)
        table = T.Tensor(rng.standard_normal((7, 3)), requires_grad=True)
        ids = np.array([2, 5, 2])
        out = T.gather_rows(table, ids)
        upstream = rng.standard_normal(out.shape)
        out.backward(seed=upstream)

        one_hot = np.zeros((len(ids), 7))
        one_hot[np.arange(len(ids)), ids] = 1.0
        np.testing.assert_allclose(table.grad, one_hot.T @ upstream, atol=1e-12)


class TestGraphTraversal:
    def test_value_used_twice_sums_both_paths(self):
        x = T.Tensor([3.0], requires_grad=True)
        y = T.add(x, x)
        y.backward()
        np.testing.assert_array_equal(x.grad, [2.0])

    def test_diamond_graph_visits_once(self):
        x = T.Tensor([2.0], requires_grad=True)
        a = T.mul(x, 3.0)
        out = T.add(a, a)  # d out / dx = 6, not 12
        out.backward()
        np.testing.assert_array_equal(x.grad, [6.0])

    def test_intermediate_nodes_receive_grad(self):
        x = T.Tensor([1.0, 2.0], requires_grad=True)
        h = T.mul(x, 2.0)
        T.tsum(h).backward()
        np.testing.assert_array_equal(h.grad, [1.0, 1.0])

    def test_no_grad_suppresses_graph(self):
        x = T.Tensor([1.0], requires_grad=True)
        with T.no_grad():
            y = T.mul(x, 2.0)
        assert not y.requires_grad


class TestTakeAlongLast:
    def test_non_selected_positions_get_zero_grad(self):
        x = T.Tensor(np.arange(8.0).reshape(2, 4), requires_grad=True)
        out = T.take_along_last(x, np.array([[1, 3], [0, 2]]))
        T.tsum(out).backward()
        expected = np.array([[0, 1, 0, 1], [1, 0, 1, 0]], dtype=float)
        np.testing.assert_array_equal(x.grad, expected)


class TestConcat:
    def test_values_and_uneven_split_gradient(self):
        rng = np.random.default_rng(5)
        parts = [rand(rng, 2, 3, 1), rand(rng, 2, 3, 4), rand(rng, 2, 3, 2)]
        out = C.concat(parts)
        np.testing.assert_array_equal(out.data, np.concatenate([p.data for p in parts], axis=-1))
        weights = rng.standard_normal(out.shape)
        err = T.gradcheck(lambda: T.tsum(T.mul(C.power(C.concat(parts), 2.0), weights)), parts)
        assert err < 1e-6

    def test_leading_axis_and_constant_part(self):
        rng = np.random.default_rng(6)
        a, b = rand(rng, 1, 2), rand(rng, 3, 2)
        const = T.Tensor(rng.standard_normal((2, 2)))
        T.tsum(T.mul(C.concat([a, const, b], axis=0), np.arange(12.0).reshape(6, 2))).backward()
        np.testing.assert_array_equal(a.grad, [[0.0, 1.0]])
        np.testing.assert_array_equal(b.grad, np.arange(6.0, 12.0).reshape(3, 2))
        assert const.grad is None


class TestDropout:
    def test_eval_mode_is_identity(self):
        x = T.Tensor(np.ones((4, 4)))
        out = C.dropout(x, 0.5, np.random.default_rng(0), training=False)
        assert out is x

    def test_inverted_scaling(self):
        x = T.Tensor(np.ones(10_000))
        out = C.dropout(x, 0.25, np.random.default_rng(0), training=True)
        kept = out.data[out.data != 0]
        np.testing.assert_allclose(kept, 1.0 / 0.75)
        assert abs(out.data.mean() - 1.0) < 0.05


class TestPointwiseAndReductions:
    @pytest.mark.parametrize(
        "op", [C.exp, C.sigmoid, C.softplus, T.relu, lambda x: C.log(T.add(T.mul(x, x), 1.0))]
    )
    def test_gradients(self, op):
        rng = np.random.default_rng(6)
        x = rand(rng, 4)
        w = rng.standard_normal(4)
        err = T.gradcheck(lambda: T.tsum(T.mul(op(x), T.Tensor(w))), [x])
        assert err < 1e-4

    def test_mean_and_reshape_and_transpose(self):
        rng = np.random.default_rng(7)
        x = rand(rng, 2, 6)
        w = rng.standard_normal((3, 4))

        def f():
            y = C.transpose(T.reshape(x, (4, 3)), (1, 0))
            return C.mean(T.mul(y, T.Tensor(w)))

        assert T.gradcheck(f, [x]) < 1e-5

    def test_sum_axis_keepdims(self):
        rng = np.random.default_rng(8)
        x = rand(rng, 3, 4)
        w = rng.standard_normal((3, 1))
        err = T.gradcheck(
            lambda: T.tsum(T.mul(T.tsum(x, axis=1, keepdims=True), T.Tensor(w))), [x]
        )
        assert err < 1e-5
