"""Ranking losses over one positive score and a vector of negative scores.

Three families are provided, each reduced as the mean over positions:

* ``bce``      pointwise binary cross-entropy,
                -log sigmoid(pos) - sum_j log(1 - sigmoid(neg_j))
* ``bpr_max``  pairwise softmax-weighted BPR with score regularization,
                -log(sum_j s_j * sigmoid(pos - neg_j)) + lambda * sum_j s_j * neg_j^2
                with s = softmax(negs)
* ``ssm``      listwise sampled softmax,
                -log(e^pos / (e^pos + sum_j e^neg_j))

Each loss is one graph node. Its forward computes the value and the
gradients of the mean with respect to `pos` and `negs` in one pass over the
[P, K] block, and its backward only scales them by the upstream gradient.
The values repeat the arithmetic of the composed graph kept in
`tests/test_fused.py`; the gradients are the analytic ones, so they can
differ from that graph's in the last digit.

Training passes only a batch's valid positions, [P] positive and [P, K]
negative scores, and no mask. Padded [b, W] blocks take a validity `mask`:
only the valid positions are computed, so scores where it is false never
contribute to the value or the gradient, even if they are garbage (e.g.
produced from padding).
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from . import tensor as T
from .errors import NumericError
from .tensor import Tensor

_TINY = np.finfo(np.float64).tiny


def _check(pos: Tensor, negs: Tensor, mask) -> np.ndarray | None:
    if negs.ndim != pos.ndim + 1 or negs.shape[:-1] != pos.shape:
        raise ValueError(
            f"negs must have one trailing negative axis over pos: {pos.shape} vs {negs.shape}"
        )
    if mask is not None:
        mask = np.asarray(mask, dtype=bool)
        if mask.shape != pos.shape:
            raise ValueError(f"mask shape {mask.shape} != pos shape {pos.shape}")
    return mask


# kernel(p [P], n [P, K], scale) -> (per-position losses [P], d/dp [P], d/dn [P, K]);
# the gradients are of `scale * sum(losses)`
Kernel = Callable[[np.ndarray, np.ndarray, float], tuple[np.ndarray, np.ndarray, np.ndarray]]


def _fused(pos: Tensor, negs: Tensor, mask, kernel: Kernel) -> Tensor:
    """Mean of `kernel`'s per-position losses over the valid positions, as one node."""
    mask = _check(pos, negs, mask)
    k = negs.shape[-1]
    flat_pos = pos.data.reshape(-1)
    flat_negs = negs.data.reshape(-1, k)
    rows = None if mask is None else np.flatnonzero(mask)
    if rows is not None:
        flat_pos, flat_negs = flat_pos[rows], flat_negs[rows]
    if flat_pos.size == 0:
        raise ValueError("no valid positions to average over")
    scale = 1.0 / float(flat_pos.size)
    per_pos, grad_pos, grad_negs = kernel(flat_pos, flat_negs, scale)
    if rows is not None:
        # masked positions add exact zeros, and get zero gradient
        per_pos, grad_pos, grad_negs = (
            _scatter(rows, per_pos, pos.shape),
            _scatter(rows, grad_pos, pos.shape),
            _scatter(rows, grad_negs, negs.shape),
        )
    out = np.asarray(per_pos.sum() * scale)
    grad_pos = grad_pos.reshape(pos.shape)
    grad_negs = grad_negs.reshape(negs.shape)

    def backward(g):
        if g == 1.0:
            return grad_pos, grad_negs
        return g * grad_pos, g * grad_negs

    return T._wire(out, (pos, negs), backward)


def _scatter(rows: np.ndarray, values: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    full = np.zeros(shape)
    full.reshape(-1, *values.shape[1:])[rows] = values
    return full


def _exp_neg_abs(x: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """e^-|x|, the exponential that sigmoid and softplus share."""
    e = np.abs(x, out=out)
    np.negative(e, out=e)
    return np.exp(e, out=e)


def _sigmoid_into(e: np.ndarray, nonneg: np.ndarray, out: np.ndarray) -> np.ndarray:
    """sigmoid(x) from e = e^-|x| and x >= 0, written to `out`; overwrites `e`.

    The arithmetic is `tensor._sigmoid`'s, so the result is bit-identical.
    """
    np.add(e, 1.0, out=out)
    np.maximum(e, nonneg, out=e)
    return np.divide(e, out, out=out)


def bce(pos: Tensor, negs: Tensor, mask=None) -> Tensor:
    """Pointwise loss; stabilized through softplus identities."""
    return _fused(pos, negs, mask, _bce_kernel)


def _bce_kernel(p, n, scale):
    # -log sigmoid(x) == softplus(-x); -log(1 - sigmoid(x)) == softplus(x), and
    # softplus(x) = max(x, 0) + log1p(e^-|x|) has derivative sigmoid(x)
    neg_p = -p
    e_pos = _exp_neg_abs(neg_p)
    per_pos = np.maximum(neg_p, 0.0) + np.log1p(e_pos)
    grad_pos = _sigmoid_into(e_pos, neg_p >= 0, np.empty_like(p))
    grad_pos *= -scale
    e = _exp_neg_abs(n)
    soft = np.maximum(n, 0.0)
    log_term = np.log1p(e)
    soft += log_term
    per_pos += soft.sum(axis=-1)
    grad_negs = _sigmoid_into(e, n >= 0, out=log_term)
    grad_negs *= scale
    return per_pos, grad_pos, grad_negs


def bpr_max(pos: Tensor, negs: Tensor, lambda_reg: float = 1.0, mask=None) -> Tensor:
    """Pairwise loss weighting comparisons toward the hardest negatives."""
    return _fused(pos, negs, mask, lambda p, n, scale: _bpr_max_kernel(p, n, lambda_reg, scale))


def _bpr_max_kernel(p, n, lam, scale):
    """Per position, with w = softmax(n), s = sigmoid(p - n), r = sum(w s) and
    R = sum(w n^2):

        loss   = -log r + lam R
        d/dp   = -sum(w s (1 - s)) / r = -(1 - sum(w s^2) / r)
        d/dn_j = w_j (1 - s_j^2 / r + lam (n_j (n_j + 2) - R))

    Three [P, K] buffers, reused in place; the last holds d/dn.
    """
    if not np.isfinite(n).all():
        bad = n[~np.isfinite(n)][0]
        raise NumericError(f"softmax input contains non-finite value {bad!r}")
    w = n - n.max(axis=-1, keepdims=True)
    np.exp(w, out=w)
    w /= w.sum(axis=-1, keepdims=True)
    work = p[:, None] - n
    nonneg = work >= 0
    grad_negs = _sigmoid_into(_exp_neg_abs(work, out=work), nonneg, np.empty_like(n))
    np.multiply(w, grad_negs, out=work)
    ranking = work.sum(axis=-1)
    # r underflows only at extreme scores; those rows are redone in log space
    underflow = np.flatnonzero(~(ranking >= _TINY))
    ranking[underflow] = 1.0
    per_pos = np.log(ranking) * -1.0
    inv_r = 1.0 / ranking
    np.square(grad_negs, out=grad_negs)
    np.multiply(w, grad_negs, out=work)
    grad_pos = (work.sum(axis=-1) * inv_r - 1.0) * scale
    # from here grad_negs accumulates scale * (d/dn_j / w_j), then takes w
    grad_negs *= (inv_r * -scale)[:, None]
    row = scale
    if lam != 0.0:
        np.multiply(n, n, out=work)
        work *= w
        reg = work.sum(axis=-1)
        per_pos = per_pos + reg * lam
        np.add(n, 2.0, out=work)
        work *= n
        work *= lam * scale
        grad_negs += work
        row = scale - (lam * scale) * reg[:, None]
    grad_negs += row
    grad_negs *= w
    if underflow.size:
        repaired = _bpr_max_log_space(p[underflow], n[underflow], lam)
        per_pos[underflow], grad_pos[underflow], grad_negs[underflow] = (
            repaired[0], repaired[1] * scale, repaired[2] * scale
        )
    return per_pos, grad_pos, grad_negs


def _bpr_max_log_space(p, n, lam):
    """`_bpr_max_kernel`'s terms for rows whose r underflows to zero.

    log r is the log-sum-exp of log w_j + log s_j, shifted by its maximum as
    in Milakov & Gimelshein 2018 ("Online normalizer calculation for
    softmax"), and q = w s / r comes out of the same exponentials, so
    d/dp = -sum(q (1 - s)) and d/dn_j = w_j - q_j s_j + lam w_j (...) stay
    finite.
    """
    shifted = n - n.max(axis=-1, keepdims=True)
    log_w = shifted - np.log(np.exp(shifted).sum(axis=-1, keepdims=True))
    w = np.exp(log_w)
    diffs = p[:, None] - n
    # log sigmoid(x) = -softplus(-x)
    terms = log_w - (np.maximum(-diffs, 0.0) + np.log1p(np.exp(-np.abs(diffs))))
    top = terms.max(axis=-1, keepdims=True)
    q = np.exp(terms - top)
    total = q.sum(axis=-1, keepdims=True)
    q /= total
    per_pos = -(top[:, 0] + np.log(total[:, 0]))
    grad_pos = -(q * T._sigmoid(-diffs)).sum(axis=-1)
    grad_negs = w - q * T._sigmoid(diffs)
    if lam != 0.0:
        reg = (w * (n * n)).sum(axis=-1)
        per_pos = per_pos + reg * lam
        grad_negs += lam * w * (n * (n + 2.0) - reg[:, None])
    return per_pos, grad_pos, grad_negs


def ssm(pos: Tensor, negs: Tensor, mask=None) -> Tensor:
    """Listwise sampled-softmax loss via a stabilized log-sum-exp."""
    return _fused(pos, negs, mask, _ssm_kernel)


def _ssm_kernel(p, n, scale):
    # the per-position max keeps every exponent <= 0
    shift = np.maximum(p, n.max(axis=-1))
    e = n - shift[:, None]
    np.exp(e, out=e)
    pos_e = np.exp(p - shift)
    denom = pos_e + e.sum(axis=-1)
    per_pos = (np.log(denom) + shift) - p
    # d/dp = e^p / denom - 1 and d/dn_j = e^n_j / denom, in shifted form
    factor = scale / denom
    e *= factor[:, None]
    return per_pos, factor * pos_e - scale, e


LOSSES = {"bce": bce, "bpr-max": bpr_max, "ssm": ssm}


def get_loss(name: str):
    try:
        return LOSSES[name]
    except KeyError:
        raise ValueError(f"unknown loss {name!r}; expected one of {sorted(LOSSES)}") from None
