"""Ranking metrics and exact embedding retrieval.

AUC is rank-based with ties credited 0.5, identical to the pairwise
comparison definition but O(n log n).  Retrieval is exact over the full
item index, ranked by Euclidean distance with ties broken by item id; for
rows that concatenate T unit sub-embeddings this ordering coincides with
descending dot product.  ``topk_retrieve_batch`` ranks a whole query
matrix: one GEMM per block of users proposes candidates, and an exact
re-score of those candidates decides the order.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
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
    sorted_scores = scores[order]
    # Runs of equal scores share the mean of their 1-based ranks, first..last.
    first = np.flatnonzero(np.r_[True, sorted_scores[1:] != sorted_scores[:-1]])
    last = np.r_[first[1:], scores.shape[0]] - 1
    ranks = np.empty_like(order, dtype=np.float64)
    ranks[order] = np.repeat(0.5 * (first + last) + 1.0, last - first + 1)
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
    """Item ids with their unified embedding rows (one fixed dimension).

    Built once per index: the item squared norms for the blocked GEMM, and
    each id's position in Python string order, which breaks distance ties
    without a string sort.
    """

    item_ids: list[str]
    vectors: np.ndarray
    sq_norms: np.ndarray = field(init=False, repr=False)
    id_rank: np.ndarray = field(init=False, repr=False)

    def __post_init__(self) -> None:
        self.vectors = np.asarray(self.vectors, dtype=np.float64)
        if self.vectors.ndim != 2 or self.vectors.shape[0] != len(self.item_ids):
            raise DimensionError(
                f"index vectors {self.vectors.shape} do not match {len(self.item_ids)} ids"
            )
        if not np.all(np.isfinite(self.vectors)):
            raise ArgumentError("index vectors must be finite")
        self.sq_norms = np.einsum("ij,ij->i", self.vectors, self.vectors)
        self.id_rank = np.empty(len(self.item_ids), dtype=np.int64)
        self.id_rank[sorted(range(len(self.item_ids)), key=self.item_ids.__getitem__)] = (
            np.arange(len(self.item_ids))
        )

    def __len__(self) -> int:
        return len(self.item_ids)


# Users per block are chosen so one block holds about this many scores (8 MiB).
_BLOCK_SCORES = 1 << 20


def topk_retrieve_batch(
    user_embeddings: np.ndarray, index: RetrievalIndex, k: int
) -> list[list[str]]:
    """Exact K nearest item ids for every query row: Euclidean distance, ties by id.

    Returns one ranked list per row.  Each block of users is scored with one
    GEMM, ``|v|^2 - 2 u.v + |u|^2``.  That value is within a proven rounding
    margin of the exact distance, so every item within twice the margin of
    the row's approximate K-th distance is a candidate, and every true
    top-K item is among them.  The candidates are re-scored exactly (the sum
    of squared differences) and sorted by (distance, id).  K larger than the
    index returns the full ranking; K = 0 returns empty lists.
    """
    if k < 0:
        raise ArgumentError(f"K must be >= 0, got {k}")
    users = np.asarray(user_embeddings, dtype=np.float64)
    n_items, dim = index.vectors.shape
    if users.ndim != 2 or users.shape[1] != dim:
        raise DimensionError(f"user embeddings {users.shape} do not match index dim {dim}")
    if not np.all(np.isfinite(users)):
        raise ArgumentError("user embeddings must be finite")
    k = min(k, n_items)
    if k == 0:
        return [[] for _ in range(users.shape[0])]
    # The GEMM form and the exact form each lie within gamma_{D+2} * (|u| + |v|)^2
    # of the true distance (Higham, Accuracy and Stability, ch. 3), so they differ
    # by at most (D + 2) * eps * (|u| + |v|)^2; the margin is more than twice that.
    margin_coef = 2.0 * (dim + 4) * np.finfo(np.float64).eps
    max_item_norm = np.sqrt(index.sq_norms.max())
    out: list[list[str]] = []
    step = max(1, _BLOCK_SCORES // n_items)
    for start in range(0, users.shape[0], step):
        block = users[start : start + step]
        u_sq = np.einsum("ij,ij->i", block, block)
        approx = block @ index.vectors.T
        approx *= -2.0
        approx += index.sq_norms
        approx += u_sq[:, None]
        kth = np.partition(approx, k - 1, axis=1)[:, k - 1]
        margin = margin_coef * (np.sqrt(u_sq) + max_item_norm) ** 2
        rows, cols = np.nonzero(approx <= (kth + 2.0 * margin)[:, None])
        diff = index.vectors[cols] - block[rows]
        exact = np.einsum("ij,ij->i", diff, diff)
        cols = cols[np.lexsort((index.id_rank[cols], exact, rows))]
        bounds = np.concatenate(([0], np.cumsum(np.bincount(rows, minlength=len(block)))))
        for lo in bounds[:-1].tolist():
            out.append([index.item_ids[j] for j in cols[lo : lo + k].tolist()])
    return out


def topk_retrieve(user_embedding: np.ndarray, index: RetrievalIndex, k: int) -> list[str]:
    """One user's ranking: ``topk_retrieve_batch`` on a single query row."""
    return topk_retrieve_batch(np.asarray(user_embedding)[np.newaxis], index, k)[0]


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
