"""Ordinal mapping, remapping laws, and threshold estimation."""

import math

import numpy as np
import pytest

from gnolr.errors import ArgumentError, SchemaError, ThresholdEstimationError
from gnolr.feedback import (
    FeedbackSchema,
    ThresholdSet,
    estimate_thresholds,
    map_to_ordinal_array,
    order_feedback,
    thresholds_from_fractions,
)
from gnolr.tensor import stable_sigmoid
from tests.helpers import map_to_ordinal, remap_for_subtask


class TestOrderFeedback:
    def test_ecommerce_counts_densest_first(self):
        # Click/pay scale counts: 2.62M clicks vs 13.1K pays.
        assert order_feedback([2_620_000, 13_100]) == [0, 1]

    def test_tie_keeps_original_order(self):
        assert order_feedback([5, 5]) == [0, 1]
        assert order_feedback([5, 5, 5]) == [0, 1, 2]

    def test_descending_sort_forced(self):
        assert order_feedback([1, 100, 10]) == [1, 2, 0]

    def test_empty_is_schema_error(self):
        with pytest.raises(SchemaError):
            order_feedback([])

    def test_negative_count_rejected(self):
        with pytest.raises(SchemaError):
            order_feedback([3, -1])

    def test_schema_validates_permutation(self):
        with pytest.raises(SchemaError):
            FeedbackSchema(names=("a", "b"), positive_counts=(1, 2), order=(0, 0))

    def test_schema_from_counts(self):
        schema = FeedbackSchema.from_counts(["click", "pay"], [100, 3])
        assert schema.ordered_names() == ["click", "pay"]
        schema = FeedbackSchema.from_counts(["pay", "click"], [3, 100])
        assert schema.ordered_names() == ["click", "pay"]


class TestMapToOrdinal:
    def test_impression_only(self):
        assert map_to_ordinal([0, 0, 0]) == 1

    def test_deepest_positive_wins(self):
        # Click + purchase without add-to-cart still maps to the top level.
        assert map_to_ordinal([1, 0, 1]) == 4

    def test_all_positive(self):
        assert map_to_ordinal([1, 1], num_feedbacks=2) == 3

    def test_length_mismatch(self):
        with pytest.raises(ArgumentError):
            map_to_ordinal([1, 0], num_feedbacks=3)

    def test_monotone_in_bits(self):
        # Setting any bit never decreases k.
        rng = np.random.default_rng(7)
        for _ in range(500):
            t = int(rng.integers(1, 6))
            bits = rng.integers(0, 2, size=t)
            base = map_to_ordinal(bits)
            for j in range(t):
                raised = bits.copy()
                raised[j] = 1
                assert map_to_ordinal(raised) >= base

    @pytest.mark.parametrize("dtype", [np.int8, np.int64])
    @pytest.mark.parametrize("rows", [0, 200])
    @pytest.mark.parametrize("levels", [0, 1, 3, 4, 5])
    def test_array_version_matches_scalar(self, levels, rows, dtype):
        rng = np.random.default_rng(11)
        bits = rng.integers(0, 2, size=(rows, levels)).astype(dtype)
        vec = map_to_ordinal_array(bits)
        assert vec.dtype == np.int64 and vec.shape == (rows,)
        for row, k in zip(bits, vec):
            assert map_to_ordinal(row) == k


class TestRemapForSubtask:
    def test_merges_above_subtask_top(self):
        assert remap_for_subtask(4, 1, num_feedbacks=3) == 2

    def test_below_merge_point_unchanged(self):
        assert remap_for_subtask(1, 3, num_feedbacks=3) == 1

    def test_exactly_at_top(self):
        assert remap_for_subtask(3, 2, num_feedbacks=3) == 3

    def test_top_subtask_is_identity(self):
        for t in range(1, 5):
            for k in range(1, t + 2):
                assert remap_for_subtask(k, t, num_feedbacks=t) == k

    def test_composition_collapses_to_min(self):
        for big_t in (2, 3, 4):
            for k in range(1, big_t + 2):
                for t1 in range(1, big_t + 1):
                    for t2 in range(1, big_t + 1):
                        twice = remap_for_subtask(
                            remap_for_subtask(k, t1, big_t), t2, big_t
                        )
                        once = remap_for_subtask(k, min(t1, t2), big_t)
                        assert twice == once

    def test_subtask_out_of_range(self):
        with pytest.raises(ArgumentError):
            remap_for_subtask(2, 0, num_feedbacks=2)
        with pytest.raises(ArgumentError):
            remap_for_subtask(2, 3, num_feedbacks=2)


class TestThresholds:
    def test_balanced_fraction_gives_zero(self):
        ts = thresholds_from_fractions([0.5])
        assert ts.values[0] == pytest.approx(0.0, abs=1e-15)

    def test_ecommerce_click_fraction(self):
        # logit-of-fraction oracle on the published click/pay totals; the
        # grid-searched reference values are 3.2343 and 8.5681.
        ts = thresholds_from_fractions([2.62e6 / 69.1e6, 13.1e3 / 69.1e6])
        assert ts.values[0] == pytest.approx(3.2343, abs=0.01)
        assert ts.values[1] == pytest.approx(8.5681, abs=0.01)
        assert ts.values[0] < ts.values[1]

    def test_estimate_from_labels_matches_fraction_oracle(self):
        rng = np.random.default_rng(3)
        for _ in range(50):
            big_t = int(rng.integers(1, 5))
            n = int(rng.integers(50, 400))
            labels = rng.integers(1, big_t + 2, size=n)
            if labels.min() == labels.max():
                continue
            try:
                ts = estimate_thresholds(labels, big_t)
            except ThresholdEstimationError:
                continue
            for c in range(1, big_t + 1):
                p = np.mean(labels > c)
                assert ts.values[c - 1] == pytest.approx(math.log((1 - p) / p), abs=1e-12)

    def test_sigmoid_recovers_fractions(self):
        # sigmoid(-a_c) must reproduce the exceedance fraction exactly.
        labels = np.array([1] * 70 + [2] * 20 + [3] * 10)
        ts = estimate_thresholds(labels, 2)
        assert stable_sigmoid(-ts.values[0]) == pytest.approx(0.30, abs=1e-12)
        assert stable_sigmoid(-ts.values[1]) == pytest.approx(0.10, abs=1e-12)

    def test_strictly_increasing_when_populated(self):
        rng = np.random.default_rng(5)
        for _ in range(100):
            big_t = int(rng.integers(2, 6))
            counts = rng.integers(1, 50, size=big_t + 1)
            labels = np.repeat(np.arange(1, big_t + 2), counts)
            ts = estimate_thresholds(labels, big_t)
            diffs = np.diff(ts.values)
            assert np.all(diffs > 0)

    def test_empty_side_names_category(self):
        with pytest.raises(ThresholdEstimationError, match="category 2"):
            estimate_thresholds([1, 2, 2], 2)
        with pytest.raises(ThresholdEstimationError, match="category 1"):
            estimate_thresholds([2, 3, 3], 2)

    def test_threshold_set_rejects_non_increasing(self):
        with pytest.raises(ArgumentError):
            ThresholdSet((1.0, 1.0))
        with pytest.raises(ArgumentError):
            ThresholdSet((2.0, 1.0))
