"""Probability model identities, loss equivalences, clipping semantics.

The key oracles: a symbolic closed-form expansion of the two-level nested
loss (click/pay reading), the binary cross-entropy identity at one level,
and central finite differences for every gradient path.
"""

import math

import numpy as np
import pytest

from gnolr.errors import ArgumentError
from gnolr.losses import bce_batch, gnolr_batch, listnet_list_batch
from gnolr.models import ModelConfig
from gnolr.tensor import stable_sigmoid
from tests.helpers import (
    CategoryDistribution,
    bce_loss,
    category_distribution,
    cumulative_prob,
    gnolr_total_loss,
    subtask_loss,
    task_score,
)

CLIP = 1e-6


def hyper_of(*thresholds, gamma=1.0, clip_floor=CLIP):
    values = tuple(float(a) for a in thresholds)
    return ModelConfig(len(values), values, gamma=gamma, clip_floor=clip_floor)


def random_hyper(rng, big_t):
    """Random strictly increasing thresholds and a positive gamma."""
    start = rng.uniform(-2.0, 2.0)
    gaps = rng.uniform(0.2, 2.0, size=big_t - 1) if big_t > 1 else []
    values = np.concatenate(([start], start + np.cumsum(gaps))) if big_t > 1 else np.array([start])
    return hyper_of(*values, gamma=float(rng.uniform(0.2, 8.0)))


def dots_to_kernels(dots):
    """Prefix kernels K_c = (sum of first c sub-similarities) / c."""
    dots = np.asarray(dots, dtype=np.float64)
    c = np.arange(1, dots.shape[-1] + 1)
    return np.cumsum(dots, axis=-1) / c


@pytest.mark.parametrize("gamma", [0.0, -1.0, math.nan, math.inf])
def test_hyper_refuses_a_gamma_that_is_not_finite_and_positive(gamma):
    with pytest.raises(ArgumentError, match="gamma"):
        hyper_of(0.0, 1.0, gamma=gamma)


class TestCumulativeProb:
    def test_balanced_midpoint(self):
        assert cumulative_prob(1, 0.0, hyper_of(0.0)) == 0.5

    def test_ecommerce_single_task_point(self):
        # a_1 = 3.2343, gamma = 7, K = 1: sigma(-3.7657) = 0.0226275...
        h = hyper_of(3.2343, gamma=7.0)
        assert cumulative_prob(1, 1.0, h) == pytest.approx(0.022627541308474622, abs=1e-12)

    def test_null_category_exactly_zero(self):
        h = hyper_of(0.0, 1.0)
        assert cumulative_prob(0, 0.7, h) == 0.0

    def test_top_category_exactly_one(self):
        h = hyper_of(0.0, 1.0)
        assert cumulative_prob(3, -0.4, h) == 1.0

    def test_out_of_range(self):
        h = hyper_of(0.0)
        with pytest.raises(ArgumentError):
            cumulative_prob(-1, 0.0, h)
        with pytest.raises(ArgumentError):
            cumulative_prob(3, 0.0, h)


class TestCategoryDistribution:
    def test_two_level_reference_point(self):
        dist = category_distribution([0.0, 0.0], hyper_of(0.0, 1.0))
        np.testing.assert_allclose(
            dist.as_array(), [0.5, 0.2310585786300049, 0.2689414213699951], atol=1e-12
        )

    def test_single_level_midpoint(self):
        dist = category_distribution([0.0], hyper_of(0.0))
        np.testing.assert_allclose(dist.as_array(), [0.5, 0.5], atol=1e-15)

    def test_simplex_for_arbitrary_kernels(self):
        rng = np.random.default_rng(10)
        for _ in range(2000):
            big_t = int(rng.integers(1, 5))
            h = random_hyper(rng, big_t)
            kernels = rng.uniform(-1, 1, size=big_t)
            dist = category_distribution(kernels, h)
            assert abs(dist.as_array().sum() - 1.0) < 1e-12

    def test_is_a_distribution_type(self):
        dist = category_distribution([0.3], hyper_of(0.2))
        assert isinstance(dist, CategoryDistribution)


class TestSubtaskLoss:
    def test_single_level_midpoint(self):
        h = hyper_of(0.0)
        assert subtask_loss(1, 2, [0.0], h) == pytest.approx(math.log(2), abs=1e-12)

    def test_clipped_difference_costs_clip_log(self):
        # Kernel ordering inverted hard enough that the interior probability
        # goes negative: the term must cost exactly -log(clip_floor).
        h = hyper_of(0.0, 0.5, gamma=4.0)
        kernels = [-1.0, 1.0]  # K1 low, K2 high -> S_2 << S_1
        assert subtask_loss(2, 2, kernels, h) == pytest.approx(-math.log(CLIP), abs=1e-9)

    def test_two_level_interior_matches_ctr_ctcvr_reading(self):
        # Symbolic expansion: P(k=2) = p_ctr - p_ctcvr with
        # p_ctr = 1 - sigma(a1 - gamma K1), p_ctcvr = 1 - sigma(a2 - 2 gamma K2).
        rng = np.random.default_rng(11)
        for _ in range(300):
            h = random_hyper(rng, 2)
            k1, k2 = rng.uniform(-1, 1, size=2)
            p_ctr = 1.0 - stable_sigmoid(h.thresholds[0] - h.gamma * k1)
            p_ctcvr = 1.0 - stable_sigmoid(h.thresholds[1] - 2 * h.gamma * k2)
            expected = -math.log(max(p_ctr - p_ctcvr, CLIP))
            assert subtask_loss(2, 2, [k1, k2], h) == pytest.approx(expected, abs=1e-9)

    def test_subtask_out_of_range(self):
        with pytest.raises(ArgumentError):
            subtask_loss(0, 1, [0.0], hyper_of(0.0))
        with pytest.raises(ArgumentError):
            subtask_loss(2, 1, [0.0], hyper_of(0.0))


def closed_form_two_level(k, kernels, h):
    """Four-term click/pay expansion with the package's clip applied."""
    y_click = 1.0 if k >= 2 else 0.0
    y_pay = 1.0 if k == 3 else 0.0
    p_ctr = 1.0 - stable_sigmoid(h.thresholds[0] - h.gamma * kernels[0])
    p_ctcvr = 1.0 - stable_sigmoid(h.thresholds[1] - 2 * h.gamma * kernels[1])
    clog = lambda p: math.log(max(p, h.clip_floor))
    return (
        -2.0 * (1.0 - y_click) * clog(1.0 - p_ctr)
        - y_click * clog(p_ctr)
        - y_pay * clog(p_ctcvr)
        - max(y_click - y_pay, 0.0) * clog(p_ctr - p_ctcvr)
    )


class TestGnolrTotalLoss:
    def test_no_feedback_doubles_negative_term(self):
        # k=1 at two levels: both subtasks see the bottom category, giving
        # the factor-2 negative term -2 log(1 - p_ctr).
        rng = np.random.default_rng(12)
        for _ in range(200):
            h = random_hyper(rng, 2)
            kernels = rng.uniform(-1, 1, size=2)
            p_ctr = 1.0 - stable_sigmoid(h.thresholds[0] - h.gamma * kernels[0])
            expected = -2.0 * math.log(max(1.0 - p_ctr, CLIP))
            assert gnolr_total_loss(1, kernels, h) == pytest.approx(expected, abs=1e-9)

    def test_full_engagement_sums_both_logs(self):
        rng = np.random.default_rng(13)
        for _ in range(200):
            h = random_hyper(rng, 2)
            kernels = rng.uniform(-1, 1, size=2)
            p_ctr = 1.0 - stable_sigmoid(h.thresholds[0] - h.gamma * kernels[0])
            p_ctcvr = 1.0 - stable_sigmoid(h.thresholds[1] - 2 * h.gamma * kernels[1])
            expected = -math.log(max(p_ctr, CLIP)) - math.log(max(p_ctcvr, CLIP))
            assert gnolr_total_loss(3, kernels, h) == pytest.approx(expected, abs=1e-9)

    def test_closed_form_all_two_level_labels(self):
        rng = np.random.default_rng(14)
        for _ in range(500):
            h = random_hyper(rng, 2)
            kernels = rng.uniform(-1, 1, size=2)
            for k in (1, 2, 3):
                expected = closed_form_two_level(k, kernels, h)
                assert gnolr_total_loss(k, kernels, h) == pytest.approx(expected, abs=1e-9)

    def test_single_level_is_binary_cross_entropy(self):
        # One level: the nested loss IS the CE loss on logit gamma*K - a_1.
        rng = np.random.default_rng(15)
        for _ in range(1000):
            h = random_hyper(rng, 1)
            kernel = float(rng.uniform(-1, 1))
            k = int(rng.integers(1, 3))
            expected = bce_loss(h.gamma * kernel - h.thresholds[0], int(k == 2))
            assert gnolr_total_loss(k, [kernel], h) == pytest.approx(expected, abs=1e-9)

    def test_batch_path_matches_scalar_sum(self):
        rng = np.random.default_rng(16)
        for _ in range(50):
            big_t = int(rng.integers(1, 5))
            h = random_hyper(rng, big_t)
            n = 16
            dots = rng.uniform(-1, 1, size=(n, big_t))
            labels = rng.integers(1, big_t + 2, size=n)
            losses, _ = gnolr_batch(labels, dots, h)
            kernels = dots_to_kernels(dots)
            for i in range(n):
                expected = gnolr_total_loss(int(labels[i]), kernels[i], h)
                assert losses[i] == pytest.approx(expected, abs=1e-10)

    def test_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(17)
        checked = 0
        for _ in range(40):
            big_t = int(rng.integers(1, 5))
            h = random_hyper(rng, big_t)
            dots = rng.uniform(-0.9, 0.9, size=(1, big_t))
            label = np.array([int(rng.integers(1, big_t + 2))])
            losses, grad = gnolr_batch(label, dots, h)
            # Keep clear of clip boundaries so the derivative is smooth.
            probs = category_distribution(dots_to_kernels(dots[0]), h).as_array()
            if probs.min() < 1e-3:
                continue
            checked += 1
            hstep = 1e-6
            for j in range(big_t):
                bumped = dots.copy()
                bumped[0, j] += hstep
                hi, _ = gnolr_batch(label, bumped, h)
                bumped[0, j] -= 2 * hstep
                lo, _ = gnolr_batch(label, bumped, h)
                numeric = (hi[0] - lo[0]) / (2 * hstep)
                denom = max(abs(numeric), abs(grad[0, j]), 1e-6)
                assert abs(grad[0, j] - numeric) / denom < 1e-4
        assert checked >= 20

    def test_top_label_rewards_every_level(self):
        # k = T+1: the analytic gradient w.r.t. every sub-similarity is
        # strictly negative (raising any similarity lowers the loss).
        rng = np.random.default_rng(18)
        for _ in range(100):
            big_t = int(rng.integers(1, 5))
            h = random_hyper(rng, big_t)
            dots = rng.uniform(-0.9, 0.9, size=(1, big_t))
            _, grad = gnolr_batch(np.array([big_t + 1]), dots, h)
            assert np.all(grad < 0.0)

    def test_clipped_terms_have_finite_loss_and_zero_gradient(self):
        h = hyper_of(0.0, 0.5, gamma=5.0)
        dots = np.array([[-1.0, 1.0]])  # interior probability collapses
        losses, grad = gnolr_batch(np.array([2]), dots, h)
        assert np.isfinite(losses).all()
        assert np.isfinite(grad).all()
        # Subtask 1 top term is live; subtask 2 interior term is clipped.
        live = -math.log(1.0 - stable_sigmoid(0.0 - 5.0 * -1.0))
        assert losses[0] == pytest.approx(live - math.log(CLIP), abs=1e-9)


class TestTaskScore:
    def test_midpoint(self):
        assert task_score(1, [0.0], hyper_of(0.0)) == 0.5

    def test_monotone_in_kernel(self):
        h = hyper_of(0.3, gamma=2.0)
        assert task_score(1, [1.0], h) > task_score(1, [-1.0], h)

    def test_complements_cumulative(self):
        h = hyper_of(3.2343, gamma=7.0)
        assert task_score(1, [1.0], h) == pytest.approx(1.0 - 0.022627541308474622, abs=1e-12)

    def test_ranking_invariant_under_monotone_transform(self):
        rng = np.random.default_rng(19)
        h = hyper_of(0.1, 0.9, gamma=1.7)
        kernels = rng.uniform(-1, 1, size=(300, 2))
        scores = np.array([task_score(2, k, h) for k in kernels])
        transformed = np.exp(3.0 * scores) + 5.0
        assert np.array_equal(np.argsort(scores), np.argsort(transformed))

    def test_out_of_range(self):
        with pytest.raises(ArgumentError):
            task_score(2, [0.0], hyper_of(0.0))


class TestListnet:
    def test_uniform_logits_cost_log_n(self):
        for n in (1, 2, 5, 17):
            positives = np.zeros(n, dtype=bool)
            positives[0] = True
            loss, _ = listnet_list_batch(np.zeros(n), positives)
            assert loss == pytest.approx(math.log(n), abs=1e-12)

    def test_dominant_positive_drives_loss_to_zero(self):
        logits = np.array([40.0, 0.0, 0.0])
        loss, _ = listnet_list_batch(logits, np.array([True, False, False]))
        assert loss == pytest.approx(0.0, abs=1e-12)

    def test_two_item_reference_point(self):
        loss, _ = listnet_list_batch(np.array([1.0, 0.0]), np.array([True, False]))
        assert loss == pytest.approx(0.3132616875182228, abs=1e-12)

    def test_zero_positive_lists_contribute_nothing(self):
        logits = np.random.default_rng(20).uniform(-1, 1, size=4)
        loss, grad = listnet_list_batch(logits, np.zeros(4, dtype=bool))
        assert loss == 0.0
        np.testing.assert_array_equal(grad, np.zeros(4))
        # Averaged over lists (as the listwise model does), it only dilutes.
        other, _ = listnet_list_batch(np.zeros(2), np.array([True, False]))
        assert (loss + other) / 2 == pytest.approx(math.log(2) / 2, abs=1e-12)

    def test_logit_uses_unified_scale(self):
        # gamma * T * K_T equals gamma times the similarity sum, the logit
        # the listwise model feeds to listnet_list_batch.
        h = hyper_of(0.0, 1.0, gamma=2.5)
        dots = np.array([[0.5, -0.2], [0.1, 0.4]])
        kernels = dots_to_kernels(dots)
        unified = h.gamma * h.num_levels * kernels[:, -1]
        np.testing.assert_allclose(unified, h.gamma * dots.sum(axis=1), atol=1e-15)
        loss, _ = listnet_list_batch(unified, np.array([True, False]))
        logits = 2.5 * dots.sum(axis=1)
        expected = -(logits[0] - np.log(np.exp(logits).sum()))
        assert loss == pytest.approx(expected, abs=1e-12)

    def test_gradients_match_finite_differences(self):
        rng = np.random.default_rng(21)
        for use_log in (True, False):
            logits = rng.normal(size=6)
            positives = np.array([True, False, True, False, False, False])
            _, grad = listnet_list_batch(logits, positives, use_log=use_log)
            h = 1e-6
            for j in range(6):
                bumped = logits.copy()
                bumped[j] += h
                hi, _ = listnet_list_batch(bumped, positives, use_log=use_log)
                bumped[j] -= 2 * h
                lo, _ = listnet_list_batch(bumped, positives, use_log=use_log)
                numeric = (hi - lo) / (2 * h)
                assert grad[j] == pytest.approx(numeric, abs=1e-7)


class TestBceLoss:
    def test_midpoint(self):
        assert bce_loss(0.0, 1) == pytest.approx(math.log(2), abs=1e-12)

    def test_weight_scales_positive_term(self):
        assert bce_loss(0.0, 1, positive_weight=10.0) == pytest.approx(10 * math.log(2), abs=1e-12)
        assert bce_loss(0.0, 0, positive_weight=10.0) == pytest.approx(math.log(2), abs=1e-12)

    def test_large_logit_is_stable(self):
        assert bce_loss(100.0, 1) == pytest.approx(0.0, abs=1e-9)
        assert np.isfinite(bce_loss(-100.0, 1))

    def test_weight_below_one_rejected(self):
        with pytest.raises(ArgumentError):
            bce_loss(0.0, 1, positive_weight=0.5)

    def test_batch_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(22)
        logits = rng.normal(size=8)
        labels = rng.integers(0, 2, size=8)
        _, grads = bce_batch(logits, labels, positive_weight=3.0)
        h = 1e-6
        for j in range(8):
            bumped = logits.copy()
            bumped[j] += h
            hi, _ = bce_batch(bumped, labels, positive_weight=3.0)
            bumped[j] -= 2 * h
            lo, _ = bce_batch(bumped, labels, positive_weight=3.0)
            numeric = (hi[j] - lo[j]) / (2 * h)
            assert grads[j] == pytest.approx(numeric, abs=1e-7)


def olr_shared(labels, kernel, hyper):
    """Plain ordinal NLL with one shared kernel per sample (one tower pair)."""
    losses, grad = gnolr_batch(
        labels, np.asarray(kernel)[:, None], hyper, prefix=False, nested=False
    )
    return losses, grad[:, 0]


def olr_v1(labels, dots, hyper):
    """Plain ordinal NLL on nested prefix kernels."""
    return gnolr_batch(labels, dots, hyper, prefix=True, nested=False)


def olr_v0(labels, dots, hyper):
    """Plain ordinal NLL where level c sees only its own sub-similarity."""
    return gnolr_batch(labels, dots, hyper, prefix=False, nested=False)


def shared_loss(label_k, kernel, hyper):
    """One-sample plain ordinal NLL through the batch path."""
    losses, _ = olr_shared(np.array([label_k]), np.array([kernel]), hyper)
    return float(losses[0])


class TestNeuralOlrLoss:
    def test_single_level_equals_nested(self):
        rng = np.random.default_rng(23)
        for _ in range(200):
            h = random_hyper(rng, 1)
            kernel = float(rng.uniform(-1, 1))
            k = int(rng.integers(1, 3))
            assert shared_loss(k, kernel, h) == pytest.approx(
                gnolr_total_loss(k, [kernel], h), abs=1e-12
            )

    def test_interior_reference_point(self):
        h = hyper_of(0.0, 1.0)
        assert shared_loss(2, 0.0, h) == pytest.approx(1.4650840134652499, abs=1e-10)

    def test_bottom_category(self):
        rng = np.random.default_rng(24)
        for _ in range(100):
            h = random_hyper(rng, 3)
            kernel = float(rng.uniform(-1, 1))
            expected = -math.log(
                max(stable_sigmoid(h.thresholds[0] - h.gamma * kernel), CLIP)
            )
            assert shared_loss(1, kernel, h) == pytest.approx(expected, abs=1e-12)

    def test_shared_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(25)
        for _ in range(50):
            big_t = int(rng.integers(1, 5))
            h = random_hyper(rng, big_t)
            kernel = np.array([rng.uniform(-0.9, 0.9)])
            label = np.array([int(rng.integers(1, big_t + 2))])
            losses, grad = olr_shared(label, kernel, h)
            if losses[0] >= -math.log(CLIP) - 1e-6:
                continue
            hstep = 1e-6
            hi, _ = olr_shared(label, kernel + hstep, h)
            lo, _ = olr_shared(label, kernel - hstep, h)
            numeric = (hi[0] - lo[0]) / (2 * hstep)
            denom = max(abs(numeric), abs(grad[0]), 1e-6)
            assert abs(grad[0] - numeric) / denom < 1e-4


class TestAblationVariantLosses:
    def test_nested_variant_gradient(self):
        rng = np.random.default_rng(26)
        for fn in (olr_v1, olr_v0):
            for _ in range(30):
                big_t = int(rng.integers(2, 5))
                h = random_hyper(rng, big_t)
                dots = rng.uniform(-0.9, 0.9, size=(1, big_t))
                label = np.array([int(rng.integers(1, big_t + 2))])
                losses, grad = fn(label, dots, h)
                if losses[0] >= -math.log(CLIP) - 1e-6:
                    continue
                hstep = 1e-6
                for j in range(big_t):
                    bumped = dots.copy()
                    bumped[0, j] += hstep
                    hi, _ = fn(label, bumped, h)
                    bumped[0, j] -= 2 * hstep
                    lo, _ = fn(label, bumped, h)
                    numeric = (hi[0] - lo[0]) / (2 * hstep)
                    denom = max(abs(numeric), abs(grad[0, j]), 1e-6)
                    assert abs(grad[0, j] - numeric) / denom < 1e-4

    def test_percategory_only_sees_own_level(self):
        # With the per-category kernel, the bottom-category loss depends
        # only on the first similarity.
        h = hyper_of(0.0, 1.0, gamma=2.0)
        base = olr_v0(np.array([1]), np.array([[0.3, -0.5]]), h)[0][0]
        moved = olr_v0(np.array([1]), np.array([[0.3, 0.9]]), h)[0][0]
        assert base == pytest.approx(moved, abs=1e-12)

    def test_nested_variant_differs_from_subtask_sum(self):
        h = hyper_of(0.0, 1.0)
        dots = np.array([[0.2, 0.4]])
        single, _ = olr_v1(np.array([2]), dots, h)
        summed, _ = gnolr_batch(np.array([2]), dots, h)
        assert single[0] != pytest.approx(summed[0], abs=1e-6)
