"""Ranking metrics and exact embedding retrieval.

AUC is rank-based with ties credited 0.5, identical to the pairwise
comparison definition but O(n log n).  Retrieval is exact brute force over
the full item index, ranked by Euclidean distance; for rows that
concatenate T unit sub-embeddings this ordering coincides with descending
dot product.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import ArgumentError, DimensionError, UndefinedMetricError


def auc(scores: np.ndarray, labels: np.ndarray) -> float:
    """Rank-based AUC; tied scores share their average rank (0.5 credit)."""
    scores = np.asarray(scores, dtype=np.float64)
    labels = np.asarray(labels)
    if scores.shape != labels.shape or scores.ndim != 1:
        raise ArgumentError("scores and labels must be matching 1-D arrays")
    if not np.all(np.isfinite(scores)):
        raise ArgumentError("scores must be finite")
    pos = labels > 0
    n_pos = int(pos.sum())
    n_neg = labels.shape[0] - n_pos
    if n_pos == 0 or n_neg == 0:
        raise UndefinedMetricError("AUC needs at least one positive and one negative")
    order = np.argsort(scores, kind="stable")
    ranks = np.empty_like(order, dtype=np.float64)
    sorted_scores = scores[order]
    # Average ranks over runs of equal scores.
    i = 0
    n = scores.shape[0]
    while i < n:
        j = i
        while j + 1 < n and sorted_scores[j + 1] == sorted_scores[i]:
            j += 1
        ranks[order[i : j + 1]] = 0.5 * (i + j) + 1.0
        i = j + 1
    pos_rank_sum = ranks[pos].sum()
    return float((pos_rank_sum - n_pos * (n_pos + 1) / 2.0) / (n_pos * n_neg))


def gauc(
    scores: np.ndarray,
    labels: np.ndarray,
    user_ids: np.ndarray,
    weighting: str = "pairs",
) -> float:
    """Per-user AUC averaged over users that have both classes.

    ``pairs`` weighting (default) weights each user by its positive times
    negative count; ``uniform`` averages plainly.  Users with a single
    class are skipped; if no user qualifies the metric is undefined.
    """
    if weighting not in ("pairs", "uniform"):
        raise ArgumentError(f"unknown GAUC weighting '{weighting}'")
    scores = np.asarray(scores, dtype=np.float64)
    labels = np.asarray(labels)
    user_ids = np.asarray(user_ids)
    total = 0.0
    weight_sum = 0.0
    for uid in np.unique(user_ids):
        mask = user_ids == uid
        u_labels = labels[mask]
        n_pos = int(np.count_nonzero(u_labels > 0))
        n_neg = int(u_labels.shape[0] - n_pos)
        if n_pos == 0 or n_neg == 0:
            continue
        w = float(n_pos * n_neg) if weighting == "pairs" else 1.0
        total += w * auc(scores[mask], u_labels)
        weight_sum += w
    if weight_sum == 0.0:
        raise UndefinedMetricError("no user has both a positive and a negative")
    return total / weight_sum


@dataclass
class RetrievalIndex:
    """Item ids with their unified embedding rows (one fixed dimension)."""

    item_ids: list[str]
    vectors: np.ndarray

    def __post_init__(self) -> None:
        self.vectors = np.asarray(self.vectors, dtype=np.float64)
        if self.vectors.ndim != 2 or self.vectors.shape[0] != len(self.item_ids):
            raise DimensionError(
                f"index vectors {self.vectors.shape} do not match {len(self.item_ids)} ids"
            )

    def __len__(self) -> int:
        return len(self.item_ids)


def topk_retrieve(user_embedding: np.ndarray, index: RetrievalIndex, k: int) -> list[str]:
    """Exact K nearest item ids by Euclidean distance, ties by id ascending.

    K larger than the index returns the full ranking; K = 0 returns nothing.
    """
    if k < 0:
        raise ArgumentError(f"K must be >= 0, got {k}")
    u = np.asarray(user_embedding, dtype=np.float64)
    if u.shape != (index.vectors.shape[1],):
        raise DimensionError(
            f"user embedding dim {u.shape} does not match index dim {index.vectors.shape[1]}"
        )
    if k == 0 or len(index) == 0:
        return []
    diff = index.vectors - u[None, :]
    dist = np.einsum("ij,ij->i", diff, diff)
    ids = np.asarray(index.item_ids)
    order = np.lexsort((ids, dist))
    return [str(i) for i in ids[order[: min(k, len(index))]]]


def recall_at_k(ranked: Sequence[str], k: int, positives: set[str]) -> float:
    """|top-K intersect positives| / |positives| for an already ranked id list.

    ``ranked`` must reach depth K or hold the whole catalog, as a
    ``topk_retrieve`` call at any depth >= K does.
    """
    if k < 0:
        raise ArgumentError(f"K must be >= 0, got {k}")
    if not positives:
        raise UndefinedMetricError("recall is undefined for an empty positive set")
    return len(set(ranked[:k]) & positives) / len(positives)


def angle_histogram(
    user_embeddings: np.ndarray,
    item_embeddings: np.ndarray,
    labels: np.ndarray,
    bin_width_deg: float = 1.0,
) -> np.ndarray:
    """Per-pair angle counts split by label class.

    Returns an array of rows (bin_start_deg, count_pos, count_neg); the
    angle is arccos of the pair cosine, clamped into [-1, 1], and the top
    bin is closed so 180 degrees lands in the last row.
    """
    u = np.asarray(user_embeddings, dtype=np.float64)
    v = np.asarray(item_embeddings, dtype=np.float64)
    labels = np.asarray(labels)
    if u.shape != v.shape or u.ndim != 2 or u.shape[0] != labels.shape[0]:
        raise DimensionError("user/item embedding shapes and labels must align")
    nu = np.linalg.norm(u, axis=1)
    nv = np.linalg.norm(v, axis=1)
    cos = np.einsum("ij,ij->i", u, v) / (nu * nv)
    theta = np.degrees(np.arccos(np.clip(cos, -1.0, 1.0)))
    n_bins = int(math.ceil(180.0 / bin_width_deg))
    bins = np.minimum((theta / bin_width_deg).astype(np.int64), n_bins - 1)
    table = np.zeros((n_bins, 3))
    table[:, 0] = np.arange(n_bins) * bin_width_deg
    pos = labels > 0
    np.add.at(table[:, 1], bins[pos], 1)
    np.add.at(table[:, 2], bins[~pos], 1)
    return table


def write_angle_csv(path, table: np.ndarray) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("bin_deg,pos,neg\n")
        for bin_start, n_pos, n_neg in table:
            fh.write(f"{bin_start:g},{int(n_pos)},{int(n_neg)}\n")


def format_report(metrics: dict) -> str:
    """Flat `metric=value` lines, keys sorted for stable output."""
    lines = []
    for key in sorted(metrics):
        value = metrics[key]
        if isinstance(value, float):
            lines.append(f"{key}={value:.6f}")
        else:
            lines.append(f"{key}={value}")
    return "\n".join(lines) + "\n"


def write_report(path, metrics: dict) -> None:
    """Machine-readable nested key/value report with stable key order."""
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(metrics, fh, sort_keys=True, indent=2)
        fh.write("\n")
