"""Tour of the float64 autodiff substrate: ops, graphs, gradient checks."""

import numpy as np

from sessrec import tensor as T

# Tensors wrap float64 arrays; requires_grad marks trainable leaves.
rng = np.random.default_rng(0)
w = T.Tensor(rng.standard_normal((3, 3)), requires_grad=True)
x = T.Tensor(rng.standard_normal((3, 2)))

# Ops build a graph; backward() walks it once in reverse topological order.
y = T.matmul(w, x)
loss = T.tsum(T.mul(y, y))
loss.backward()
print("loss:", loss.item())
print("dloss/dw:\n", w.grad)

# A value consumed twice receives the sum of both path contributions.
a = T.Tensor([2.0], requires_grad=True)
twice = T.add(a, a)
twice.backward()
print("d(a+a)/da =", a.grad, "(expected [2.])")

# Stable softmax: no overflow at extreme logits, rows sum to one.
s = T.softmax(T.Tensor([1000.0, 0.0, -1000.0]))
print("softmax([1000,0,-1000]) =", s.data, "sum =", s.data.sum())

# Every differentiable op is validated against central finite differences.
w.zero_grad()
err = T.gradcheck(lambda: T.tsum(T.relu(T.matmul(w, x))), [w])
print(f"finite-difference relative error: {err:.2e}")

# Embedding-style gathers scatter-add their gradients back into the table.
table = T.Tensor(np.arange(8.0).reshape(4, 2), requires_grad=True)
rows = T.gather_rows(table, [1, 1, 3])
T.tsum(rows).backward()
print("gather grad (row 1 hit twice):\n", table.grad)
