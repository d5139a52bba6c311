"""Nested proportional-odds probability model and training losses.

The cumulative probability of a user-item pair sitting at or below
engagement level c is sigma(a_c - c * gamma * K_c), where K_c is the
cosine of the level-c prefix embeddings.  Because each prefix concatenates
unit sub-embeddings, c * K_c equals the running sum of per-level
sub-similarities, so all losses below are written in terms of those sums.

The losses share one kernel map, ``cumulative_from_dots``: gamma
times the prefix running sum (nested model, ``v1``) or c * gamma * dot per
level (``v0`` and, with one broadcast column, the shared-encoder baseline).
``gnolr_batch`` gives the subtask-summed NLL, or with ``nested=False`` the
plain ordinal NLL of the ablations and the baseline.

Every probability entering a log is clipped to [clip_floor, inf); a
clipped term contributes exactly -log(clip_floor) and passes no gradient
(clamp semantics).

The tests hold a scalar copy of the model, one sample and one level at a
time (``cumulative_prob``, ``subtask_loss`` and ``gnolr_total_loss`` in
``tests/helpers.py``), as the oracle for these batch paths.
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING

import numpy as np

from .errors import ArgumentError
from .tensor import stable_sigmoid, stable_softplus

if TYPE_CHECKING:
    from .models import ModelConfig


def _validate_batch(labels: np.ndarray, num_levels: int) -> np.ndarray:
    labels = np.asarray(labels, dtype=np.int64)
    if labels.ndim != 1:
        raise ArgumentError("labels must be 1-D")
    if labels.size and (labels.min() < 1 or labels.max() > num_levels + 1):
        raise ArgumentError(f"labels outside 1..{num_levels + 1}")
    return labels


def cumulative_from_dots(dots: np.ndarray, cfg: ModelConfig, prefix: bool = True) -> np.ndarray:
    """The kernel map: cumulative probs S (B, T) from per-level similarities.

    With ``prefix`` the level-c kernel is the running sum of the first c
    dots (c * K_c of the nested prefixes); without it level c scales its
    own dot by c, and a single column of dots (one shared tower pair) is
    broadcast to every level.
    """
    a = np.asarray(cfg.thresholds, dtype=np.float64)
    if prefix:
        return stable_sigmoid(a[None, :] - cfg.gamma * np.cumsum(dots, axis=1))
    c = np.arange(1, cfg.num_levels + 1, dtype=np.float64)
    return stable_sigmoid(a[None, :] - c[None, :] * cfg.gamma * dots)


def _dots_adjoint(dl_ds: np.ndarray, s: np.ndarray, cfg: ModelConfig, prefix: bool) -> np.ndarray:
    """dL/d dots from dL/dS through ``cumulative_from_dots`` (before any broadcast)."""
    if prefix:
        # Each dot feeds every cumulative at or above its level.
        per_level = dl_ds * (s * (1.0 - s)) * -cfg.gamma
        return np.cumsum(per_level[:, ::-1], axis=1)[:, ::-1]
    c = np.arange(1, cfg.num_levels + 1, dtype=np.float64)
    return dl_ds * (s * (1.0 - s)) * (-c[None, :] * cfg.gamma)


def gnolr_batch(
    labels: np.ndarray,
    dots: np.ndarray,
    cfg: ModelConfig,
    prefix: bool = True,
    nested: bool = True,
) -> tuple[np.ndarray, np.ndarray]:
    """Ordinal NLL of a batch through the kernel map.

    Every variant reads the interior term -log(S_k - S_{k-1}), with
    S_0 = 0 and S_{T+1} = 1; without ``nested`` it is the whole loss, the
    plain ordinal likelihood.  ``prefix`` picks the kernel map: ``v1``
    with it, ``v0`` without, and without it dots of shape (B, 1) are one
    shared kernel per sample (the shared-encoder baseline).  ``nested``
    sums the T subtasks: each subtask t < k sees the sample at its top
    category, one -log(1 - S_t) term, and the T - k + 1 subtasks t >= k
    share the interior term.
    Returns per-sample losses (B,) and a gradient shaped like ``dots``.
    """
    dots = np.asarray(dots, dtype=np.float64)
    big_t = cfg.num_levels
    labels = _validate_batch(labels, big_t)
    n = labels.shape[0]
    if dots.shape != (n, big_t) and (prefix or dots.shape != (n, 1)):
        raise ArgumentError(
            f"dots must be ({n}, {big_t}), or ({n}, 1) without prefix; got {dots.shape}"
        )
    s = cumulative_from_dots(dots, cfg, prefix)
    floor = cfg.clip_floor
    full = np.concatenate((np.zeros((n, 1)), s, np.ones((n, 1))), axis=1)
    rows = np.arange(n)
    p = full[rows, labels] - full[rows, labels - 1]
    # The interior term's weight: 0 for label T + 1 when nested.
    copies = (big_t + 1 - labels).astype(np.float64) if nested else 1.0
    losses = copies * -np.log(np.maximum(p, floor))
    coef = np.where(p > floor, copies / np.maximum(p, floor), 0.0)
    dl_ds = np.zeros_like(s)
    if nested:
        top = np.arange(1, big_t + 1)[None, :] < labels[:, None]
        p_top = 1.0 - s
        losses += np.where(top, -np.log(np.maximum(p_top, floor)), 0.0).sum(axis=1)
        dl_ds += np.where(top & (p_top > floor), 1.0 / np.maximum(p_top, floor), 0.0)
    has_upper = labels <= big_t
    dl_ds[rows[has_upper], labels[has_upper] - 1] -= coef[has_upper]
    has_lower = labels >= 2
    dl_ds[rows[has_lower], labels[has_lower] - 2] += coef[has_lower]
    grad_dots = _dots_adjoint(dl_ds, s, cfg, prefix)
    if dots.shape[1] != big_t:
        grad_dots = grad_dots.sum(axis=1, keepdims=True)
    return losses, grad_dots


def bce_batch(
    logits: np.ndarray, labels: np.ndarray, positive_weight: float = 1.0
) -> tuple[np.ndarray, np.ndarray]:
    """Stable weighted BCE; returns per-sample losses and d/d logit."""
    logits = np.asarray(logits, dtype=np.float64)
    y = np.asarray(labels, dtype=np.float64)
    w = np.where(y > 0, positive_weight, 1.0)
    losses = w * (y * stable_softplus(-logits) + (1.0 - y) * stable_softplus(logits))
    sig = stable_sigmoid(logits)
    grads = w * (sig - y)
    return losses, grads


def listnet_list_batch(
    logits: np.ndarray, positives: np.ndarray, use_log: bool = True
) -> tuple[float, np.ndarray]:
    """Loss and gradient for one list; zero-positive lists contribute nothing."""
    logits = np.asarray(logits, dtype=np.float64)
    pos = np.asarray(positives, dtype=bool)
    if not pos.any():
        return 0.0, np.zeros_like(logits)
    shifted = logits - logits.max()
    exp = np.exp(shifted)
    softmax = exp / exp.sum()
    n_pos = int(pos.sum())
    if use_log:
        lse = math.log(exp.sum()) + logits.max()
        loss = float(n_pos * lse - logits[pos].sum())
        grad = n_pos * softmax - pos.astype(np.float64)
    else:
        loss = float(-softmax[pos].sum())
        grad = softmax * (softmax[pos].sum() - pos.astype(np.float64))
    return loss, grad
