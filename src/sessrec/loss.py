"""Ranking losses over one positive score and a vector of negative scores.

Three families are provided, each reduced as the mean over positions:

* ``bce``      pointwise binary cross-entropy,
                -log sigmoid(pos) - sum_j log(1 - sigmoid(neg_j))
* ``bpr_max``  pairwise softmax-weighted BPR with score regularization,
                -log(sum_j s_j * sigmoid(pos - neg_j)) + lambda * sum_j s_j * neg_j^2
                with s = softmax(negs)
* ``ssm``      listwise sampled softmax,
                -log(e^pos / (e^pos + sum_j e^neg_j))

Training passes only a batch's valid positions, [P] positive and [P, K]
negative scores, and no mask. Padded [b, W] blocks take a validity `mask`:
scores where it is false never contribute to the value or the gradient, even
if they are garbage (e.g. produced from padding).
"""

from __future__ import annotations

import numpy as np

from . import tensor as T
from .tensor import Tensor


def _check(pos: Tensor, negs: Tensor, mask) -> np.ndarray | None:
    if negs.ndim != pos.ndim + 1:
        raise ValueError(
            f"negs must have one trailing negative axis over pos: {pos.shape} vs {negs.shape}"
        )
    if mask is not None:
        mask = np.asarray(mask, dtype=bool)
        if mask.shape != pos.shape:
            raise ValueError(f"mask shape {mask.shape} != pos shape {pos.shape}")
    return mask


def _masked_mean(per_position: Tensor, mask: np.ndarray | None) -> Tensor:
    count = float(per_position.data.size if mask is None else mask.sum())
    if count == 0:
        raise ValueError("no valid positions to average over")
    if mask is None:
        return T.mul(T.tsum(per_position), 1.0 / count)
    return T.mul(T.tsum(T.where_mask(mask, per_position)), 1.0 / count)


def bce(pos: Tensor, negs: Tensor, mask=None) -> Tensor:
    """Pointwise loss; stabilized through softplus identities."""
    mask = _check(pos, negs, mask)
    # -log sigmoid(x) == softplus(-x); -log(1 - sigmoid(x)) == softplus(x)
    per_pos = T.add(T.softplus(T.mul(pos, -1.0)), T.tsum(T.softplus(negs), axis=-1))
    return _masked_mean(per_pos, mask)


def bpr_max(pos: Tensor, negs: Tensor, lambda_reg: float = 1.0, mask=None) -> Tensor:
    """Pairwise loss weighting comparisons toward the hardest negatives."""
    mask = _check(pos, negs, mask)
    weights = T.softmax(negs, axis=-1)
    diffs = T.sub(T.reshape(pos, pos.shape + (1,)), negs)
    ranking = T.tsum(T.mul(weights, T.sigmoid(diffs)), axis=-1)
    if mask is not None:
        # garbage positions may drive the ranking term to 0; neutralize before log
        ranking = T.where_mask(mask, ranking, fill=1.0)
    per_pos = T.mul(T.log(ranking), -1.0)
    if lambda_reg != 0.0:
        reg = T.tsum(T.mul(weights, T.mul(negs, negs)), axis=-1)
        per_pos = T.add(per_pos, T.mul(reg, lambda_reg))
    return _masked_mean(per_pos, mask)


def ssm(pos: Tensor, negs: Tensor, mask=None) -> Tensor:
    """Listwise sampled-softmax loss via a stabilized log-sum-exp."""
    mask = _check(pos, negs, mask)
    # detached per-position max keeps every exponent <= 0; gradient is unaffected
    shift = np.maximum(pos.data, negs.data.max(axis=-1))
    pos_e = T.exp(T.sub(pos, shift))
    neg_e = T.tsum(T.exp(T.sub(negs, shift[..., None])), axis=-1)
    log_denom = T.log(T.add(pos_e, neg_e))
    per_pos = T.sub(T.add(log_denom, Tensor(shift)), pos)
    return _masked_mean(per_pos, mask)


LOSSES = {"bce": bce, "bpr-max": bpr_max, "ssm": ssm}


def get_loss(name: str):
    try:
        return LOSSES[name]
    except KeyError:
        raise ValueError(f"unknown loss {name!r}; expected one of {sorted(LOSSES)}") from None
