"""Training-step kernels pinned to the plain implementations they replace.

Each reference below is the earlier, obviously-correct form of a kernel:
`np.add.at` for the embedding scatter-add, a partition/cumsum top-k, a
boolean-indexed piecewise sigmoid and binary ops that always compute both
gradients. The kernels must reproduce them bit for bit.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import composed as C
from sessrec import sampler as S
from sessrec import tensor as T
from sessrec.errors import ShapeError


def add_at_reference(n_rows, ids, upstream):
    grad = np.zeros((n_rows, upstream.shape[-1]))
    np.add.at(grad, ids.reshape(-1), upstream.reshape(-1, upstream.shape[-1]))
    return grad


def topk_reference(x, k):
    """Partition for the k-th value, then fill its ties in index order."""
    n = x.shape[-1]
    kth = np.partition(x, n - k, axis=-1)[..., n - k : n - k + 1]
    above = x > kth
    need = k - above.sum(axis=-1, keepdims=True)
    at = x == kth
    selected = above | (at & (np.cumsum(at, axis=-1) <= need))
    _, cols = np.nonzero(selected.reshape(-1, n))
    return cols.reshape(*x.shape[:-1], k)


def sigmoid_reference(x):
    pos = x >= 0
    out = np.empty_like(x)
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out


def bits(a):
    return np.ascontiguousarray(a).view(np.int64)


class TestScatterAdd:
    @settings(max_examples=150, deadline=None)
    @given(
        st.integers(1, 12),
        st.one_of(
            st.integers(1, 2 * T.SCATTER_BLOCK + 3),
            st.sampled_from([T.SCATTER_BLOCK, T.SCATTER_BLOCK + 1, 3 * T.SCATTER_BLOCK - 1]),
        ),
        st.lists(st.integers(0, 6), min_size=1, max_size=3),
        st.integers(0, 2**16),
    )
    def test_bits_equal_add_at(self, n_rows, d, id_shape, seed):
        rng = np.random.default_rng(seed)
        ids = rng.integers(0, n_rows, size=tuple(id_shape))  # small tables repeat ids
        if ids.size:
            ids.flat[0] = n_rows - 1  # the pad row takes gradient like any other
        upstream = rng.standard_normal((*ids.shape, d)) * 10.0 ** rng.integers(-300, 300, size=d)
        upstream[rng.random(upstream.shape) < 0.1] = -0.0
        table = T.Tensor(rng.standard_normal((n_rows, d)), requires_grad=True)
        T.gather_rows(table, ids).backward(seed=upstream)
        expected = add_at_reference(n_rows, ids, upstream)
        np.testing.assert_array_equal(bits(table.grad), bits(expected))

    def test_empty_ids_give_a_zero_gradient(self):
        table = T.Tensor(np.ones((4, T.SCATTER_BLOCK + 1)), requires_grad=True)
        out = T.gather_rows(table, np.zeros((0, 3), dtype=np.int64))
        T.tsum(out).backward()
        np.testing.assert_array_equal(bits(table.grad), bits(np.zeros((4, T.SCATTER_BLOCK + 1))))

    def test_transposed_upstream(self):
        # a gradient that reaches the scatter as a strided view
        rng = np.random.default_rng(3)
        ids = rng.integers(0, 5, size=(4, 9))
        upstream = rng.standard_normal((4, 2 * T.SCATTER_BLOCK + 5, 9)).transpose(0, 2, 1)
        table = T.Tensor(rng.standard_normal((5, upstream.shape[-1])), requires_grad=True)
        T.gather_rows(table, ids).backward(seed=upstream)
        np.testing.assert_array_equal(bits(table.grad), bits(add_at_reference(5, ids, upstream)))

    @pytest.mark.parametrize("shape", [(3,), (2, 3, 4)])
    def test_table_must_be_two_dimensional(self, shape):
        with pytest.raises(ShapeError, match=r"2-d table.*" + r"\(" + ", ".join(map(str, shape))):
            T.gather_rows(T.Tensor(np.zeros(shape), requires_grad=True), [0])


def heavy_tie_scores(rng, lead, n):
    """Scores from a few distinct values, with columns that repeat others."""
    base = rng.integers(0, 4, size=(*lead, n)).astype(float)
    source = rng.integers(0, n, size=n)  # column j copies column source[j]
    return np.where(rng.random(n) < 0.5, base[..., source], base)


class TestTopK:
    @settings(max_examples=300, deadline=None)
    @given(
        st.lists(st.integers(1, 5), min_size=0, max_size=2),
        st.integers(2, 60),
        st.sampled_from(["one", "n-1", "any"]),
        st.integers(0, 2**16),
    )
    def test_matches_partition_cumsum_reference(self, lead, n, which, seed):
        rng = np.random.default_rng(seed)
        k = {"one": 1, "n-1": n - 1, "any": int(rng.integers(1, n))}[which]
        x = heavy_tie_scores(rng, lead, n)
        sel = S.topk_filter(T.Tensor(x), k)
        expected = topk_reference(x, k)
        np.testing.assert_array_equal(sel.indices, expected)
        np.testing.assert_array_equal(sel.scores.data, np.take_along_axis(x, expected, axis=-1))

    def test_all_equal_rows_keep_the_first_k(self):
        x = np.zeros((3, 2, 7))
        indices = S.topk_filter(T.Tensor(x), 3).indices
        np.testing.assert_array_equal(indices, np.broadcast_to([0, 1, 2], (3, 2, 3)))

    def test_untied_and_tied_rows_together(self):
        x = np.array([[5.0, 1.0, 4.0, 2.0, 3.0], [2.0, 9.0, 2.0, 0.0, 2.0]])
        np.testing.assert_array_equal(S.topk_filter(T.Tensor(x), 2).indices, [[0, 2], [0, 1]])


class TestSigmoid:
    def test_bits_equal_piecewise_form_at_edges(self):
        x = np.array([0.0, -0.0, 1e-300, -1e-300, 30.0, -30.0, 745.0, -745.0, 800.0, -800.0,
                      np.inf, -np.inf])
        np.testing.assert_array_equal(bits(T._sigmoid(x)), bits(sigmoid_reference(x)))

    def test_bits_equal_piecewise_form_on_a_dense_grid(self):
        rng = np.random.default_rng(11)
        x = np.concatenate([np.linspace(-50.0, 50.0, 20001), rng.standard_normal(20000) * 8.0])
        np.testing.assert_array_equal(bits(T._sigmoid(x)), bits(sigmoid_reference(x)))

    @settings(max_examples=100, deadline=None)
    @given(st.lists(st.floats(allow_nan=False, width=64), min_size=1, max_size=40))
    def test_bits_equal_piecewise_form(self, values):
        x = np.array(values)
        np.testing.assert_array_equal(bits(T._sigmoid(x)), bits(sigmoid_reference(x)))


BINARY_OPS = {
    "add": (T.add, (3, 4), (4,)),
    "sub": (C.sub, (3, 4), (4,)),
    "mul": (T.mul, (3, 4), (1, 4)),
    "matmul": (T.matmul, (2, 3, 4), (4, 5)),
}


class TestConstantOperand:
    @pytest.mark.parametrize("name", sorted(BINARY_OPS))
    @pytest.mark.parametrize("constant_side", [0, 1])
    def test_gradcheck_and_no_gradient_for_the_constant(self, name, constant_side):
        op, *shapes = BINARY_OPS[name]
        rng = np.random.default_rng(7)
        operands = [T.Tensor(rng.standard_normal(shape), requires_grad=True) for shape in shapes]
        operands[constant_side] = T.Tensor(operands[constant_side].data)
        variable = operands[1 - constant_side]
        weight = T.Tensor(rng.standard_normal(op(*operands).shape))

        assert T.gradcheck(lambda: T.tsum(T.mul(op(*operands), weight)), [variable]) < 1e-6
        out = op(*operands)
        grads = out._backward(np.ones(out.shape))
        assert grads[constant_side] is None
        assert grads[1 - constant_side].shape == variable.shape
        assert operands[constant_side].grad is None
