"""Ordinal label machinery for multi-feedback interaction data.

Implicit signals (click, like, purchase, ...) are ranked by how often they
occur: frequent actions express weaker preference than rare ones.  Each
sample's bit pattern then collapses to a single ordinal category
k in {1, ..., T+1}, where k=1 is "impression only" and k=T+1 means the
rarest (deepest) engagement level was reached.  Category 0 is a virtual
null level that is never stored; it only anchors the cumulative
probability P(k <= 0) = 0.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import ArgumentError, SchemaError, ThresholdEstimationError


def order_feedback(positive_counts: Sequence[int]) -> list[int]:
    """Rank feedback types densest-first.

    Returns a permutation ``order`` of original indices such that
    ``positive_counts[order[0]] >= positive_counts[order[1]] >= ...``.
    Ties keep their original relative order, so the result is reproducible
    for equal counts.
    """
    counts = list(positive_counts)
    if not counts:
        raise SchemaError("feedback schema needs at least one feedback type")
    for i, c in enumerate(counts):
        if c < 0:
            raise SchemaError(f"positive count for feedback {i} is negative: {c}")
    return sorted(range(len(counts)), key=lambda i: (-counts[i], i))


@dataclass(frozen=True)
class FeedbackSchema:
    """Feedback names with their positive counts and sparsity ordering.

    ``order[rank] = original_index``: rank 0 is the densest feedback
    (lowest engagement), the last rank is the sparsest (deepest).
    """

    names: tuple[str, ...]
    positive_counts: tuple[int, ...]
    order: tuple[int, ...]

    def __post_init__(self) -> None:
        if len(self.names) != len(self.positive_counts):
            raise SchemaError("names and positive_counts length mismatch")
        if sorted(self.order) != list(range(len(self.names))):
            raise SchemaError(f"order {self.order} is not a permutation")
        ordered = [self.positive_counts[i] for i in self.order]
        if any(a < b for a, b in zip(ordered, ordered[1:])):
            raise SchemaError("order does not sort counts descending")

    @classmethod
    def from_counts(cls, names: Sequence[str], positive_counts: Sequence[int]) -> "FeedbackSchema":
        order = order_feedback(positive_counts)
        return cls(tuple(names), tuple(int(c) for c in positive_counts), tuple(order))

    @property
    def num_feedbacks(self) -> int:
        return len(self.names)

    def ordered_names(self) -> list[str]:
        return [self.names[i] for i in self.order]


def map_to_ordinal_array(bits: np.ndarray) -> np.ndarray:
    """One ordinal category per row of an (n, T) 0/1 bit matrix in sparsity order.

    k = max{t+1 : bit_t = 1}, or 1 when no bit is set.  Non-monotone
    patterns (e.g. pay without click) are legal: only the deepest positive
    matters.
    """
    bits = np.asarray(bits)
    if bits.ndim != 2:
        raise ArgumentError("bits must be a 2-D (n, T) array")
    labels = np.ones(len(bits), dtype=np.int64)
    for t in range(bits.shape[1]):
        labels[bits[:, t] > 0] = t + 2
    return labels


@dataclass(frozen=True)
class ThresholdSet:
    """Ordinal cut points a_1 < a_2 < ... < a_T."""

    values: tuple[float, ...]

    def __post_init__(self) -> None:
        if not self.values:
            raise ArgumentError("threshold set must not be empty")
        if any(not math.isfinite(v) for v in self.values):
            raise ArgumentError("thresholds must be finite")
        if any(a >= b for a, b in zip(self.values, self.values[1:])):
            raise ArgumentError(f"thresholds must be strictly increasing, got {self.values}")

    def __len__(self) -> int:
        return len(self.values)


def thresholds_from_fractions(fractions: Sequence[float]) -> ThresholdSet:
    """Build thresholds from per-level exceedance fractions.

    ``fractions[c-1]`` is the share of samples whose category is strictly
    above c.  Each threshold is the logit of the complementary share,
    a_c = ln((1 - p_c) / p_c); because the shares strictly decrease with
    depth, the thresholds come out strictly increasing.
    """
    values = []
    for c, p in enumerate(fractions, start=1):
        if not 0.0 < p < 1.0:
            raise ThresholdEstimationError(
                f"category {c}: exceedance fraction {p} leaves one side empty"
            )
        values.append(math.log((1.0 - p) / p))
    return ThresholdSet(tuple(values))


def estimate_thresholds(labels: Sequence[int] | np.ndarray, num_feedbacks: int) -> ThresholdSet:
    """Estimate {a_c} from observed ordinal labels.

    For every boundary c the estimate is the empirical logit of
    P(k <= c): a_c = ln((1 - p_c) / p_c) with p_c the fraction of labels
    strictly greater than c.  Both sides of every boundary must be
    populated.
    """
    arr = np.asarray(labels, dtype=np.int64)
    if arr.size == 0:
        raise ThresholdEstimationError("no labels to estimate thresholds from")
    if arr.min() < 1 or arr.max() > num_feedbacks + 1:
        raise ArgumentError(
            f"labels must lie in 1..{num_feedbacks + 1}, got range "
            f"[{arr.min()}, {arr.max()}]"
        )
    fractions = []
    for c in range(1, num_feedbacks + 1):
        above = int(np.count_nonzero(arr > c))
        if above == 0:
            raise ThresholdEstimationError(f"category {c}: no labels above boundary")
        if above == arr.size:
            raise ThresholdEstimationError(f"category {c}: no labels at or below boundary")
        fractions.append(above / arr.size)
    return thresholds_from_fractions(fractions)
