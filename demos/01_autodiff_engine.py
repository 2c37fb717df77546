"""Tour of the float64 autodiff substrate: ops, graphs, gradient checks."""

import numpy as np

from sessrec import tensor as T

# Tensors wrap float64 arrays; requires_grad marks trainable leaves.
rng = np.random.default_rng(0)
w = T.Tensor(rng.standard_normal((3, 3)), requires_grad=True)
b = T.Tensor(np.zeros(3), requires_grad=True)
x = T.Tensor(rng.standard_normal((2, 3)))

# Ops build a graph; backward() walks it once in reverse topological order.
# An affine map x @ w + b of [n, d] rows is one node, as in the encoder.
y = T.linear(x, w, b)
loss = T.tsum(T.mul(y, y))
loss.backward()
print("loss:", loss.item())
print("dloss/dw:\n", w.grad)
print("dloss/db:", b.grad)

# A value consumed twice receives the sum of both path contributions.
a = T.Tensor([2.0], requires_grad=True)
twice = T.add(a, a)
twice.backward()
print("d(a+a)/da =", a.grad, "(expected [2.])")

# Layer norm is one node: each row comes out with zero mean and unit variance.
h = T.layer_norm(T.Tensor([[1000.0, 0.0, -1000.0]]), T.Tensor(np.ones(3)), T.Tensor(np.zeros(3)))
print("layer_norm([1000,0,-1000]) =", h.data, "mean =", h.data.mean())

# Every differentiable op is validated against central finite differences.
err = T.gradcheck(lambda: T.tsum(T.relu(T.linear(x, w, b))), [w, b])
print(f"finite-difference relative error: {err:.2e}")

# Embedding-style gathers scatter-add their gradients back into the table.
table = T.Tensor(np.arange(8.0).reshape(4, 2), requires_grad=True)
rows = T.gather_rows(table, [1, 1, 3])
T.tsum(rows).backward()
print("gather grad (row 1 hit twice):\n", table.grad)
