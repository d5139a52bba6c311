"""Acceptance suite: one test per release criterion, each printing PASS/FAIL.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines.  Criterion 7 needs the MovieLens-1M ratings file (see README); it
skips with an explicit message when the dataset is not present.
"""

import math
import time
from contextlib import contextmanager

import numpy as np
import pytest

from gnolr.data import DataConfig, build_bundle
from gnolr.feedback import estimate_thresholds, thresholds_from_fractions
from gnolr.losses import gnolr_batch
from gnolr.metrics import RetrievalIndex, auc, topk_retrieve
from gnolr.models import Batch, ModelConfig, make_model
from gnolr.tensor import stable_sigmoid
from gnolr.training import TrainConfig, retrieval_recalls, train, evaluate
from tests.helpers import (
    bce_loss,
    checked_gradients,
    find_ml1m_ratings,
    gnolr_total_loss,
    imbalanced_single_feedback_csv,
    ml1m_to_csv,
    ranked_ids,
    synthetic_bundle,
)


@contextmanager
def criterion(num, name, budget_s):
    start = time.perf_counter()
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE criterion {num} ({name}): FAIL")
        raise
    elapsed = time.perf_counter() - start
    assert elapsed < budget_s, f"criterion {num} took {elapsed:.1f}s, budget {budget_s}s"
    print(f"ACCEPTANCE criterion {num} ({name}): PASS in {elapsed:.2f}s (budget {budget_s:.0f}s)")


def random_hyper(rng, big_t):
    start = rng.uniform(-2.0, 2.0)
    if big_t > 1:
        values = np.concatenate(([start], start + np.cumsum(rng.uniform(0.2, 2.0, size=big_t - 1))))
    else:
        values = np.array([start])
    return ModelConfig(len(values), tuple(values), gamma=float(rng.uniform(0.2, 8.0)))


def test_criterion_1_probability_simplex():
    """10,000 random draws, T in 1..4: probabilities sum to 1 within 1e-12
    and the cumulative sequence is ordered whenever its logits are."""
    with criterion(1, "probability simplex", budget_s=1.0):
        rng = np.random.default_rng(101)
        ordered_draws = 0
        for big_t in (1, 2, 3, 4):
            n = 2500
            starts = rng.uniform(-2, 2, size=(n, 1))
            if big_t > 1:
                gaps = np.cumsum(rng.uniform(0.2, 2.0, size=(n, big_t - 1)), axis=1)
                thresholds = np.concatenate([starts, starts + gaps], axis=1)
            else:
                thresholds = starts
            gammas = rng.uniform(0.2, 8.0, size=(n, 1))
            kernels = rng.uniform(-1, 1, size=(n, big_t))
            c = np.arange(1, big_t + 1)
            logits = thresholds - c[None, :] * gammas * kernels
            cum = stable_sigmoid(logits)
            full = np.concatenate([np.zeros((n, 1)), cum, np.ones((n, 1))], axis=1)
            probs = np.diff(full, axis=1)
            np.testing.assert_allclose(probs.sum(axis=1), 1.0, atol=1e-12)
            # Cumulative ordering follows whenever the logit sequence does.
            monotone = np.all(np.diff(logits, axis=1) >= 0, axis=1)
            ordered_draws += int(monotone.sum())
            assert np.all(np.diff(full[monotone], axis=1) >= -1e-15)
        assert ordered_draws > 100


def test_criterion_2_single_level_cross_entropy_equivalence():
    """At one level the ordinal loss equals BCE on logit gamma*K - a_1."""
    with criterion(2, "cross-entropy equivalence", budget_s=1.0):
        rng = np.random.default_rng(102)
        for _ in range(1000):
            hyper = random_hyper(rng, 1)
            kernel = float(rng.uniform(-1, 1))
            k = int(rng.integers(1, 3))
            ordinal = gnolr_total_loss(k, [kernel], hyper)
            ce = bce_loss(hyper.gamma * kernel - hyper.thresholds[0], int(k == 2))
            assert abs(ordinal - ce) < 1e-9


def test_criterion_3_two_level_closed_form():
    """The two-level nested loss matches the click/pay four-term expansion
    for every label, including the doubled negative term at k=1."""
    with criterion(3, "two-level closed form", budget_s=1.0):
        rng = np.random.default_rng(103)
        for _ in range(500):
            hyper = random_hyper(rng, 2)
            a1, a2 = hyper.thresholds
            k1, k2 = rng.uniform(-1, 1, size=2)
            p_ctr = 1.0 - stable_sigmoid(a1 - hyper.gamma * k1)
            p_ctcvr = 1.0 - stable_sigmoid(a2 - 2 * hyper.gamma * k2)
            clog = lambda p: math.log(max(p, hyper.clip_floor))
            expected = {
                1: -2.0 * clog(1.0 - p_ctr),
                2: -clog(p_ctr) - clog(p_ctr - p_ctcvr),
                3: -clog(p_ctr) - clog(p_ctcvr),
            }
            for k in (1, 2, 3):
                assert abs(gnolr_total_loss(k, [k1, k2], hyper) - expected[k]) < 1e-9


def test_criterion_4_threshold_reproduction():
    """Click/pay totals 2.62M/69.1M and 13.1K/69.1M give the published
    3.2343 and 8.5681 within 0.01, strictly increasing."""
    with criterion(4, "threshold reproduction", budget_s=1.0):
        ts = thresholds_from_fractions([2.62e6 / 69.1e6, 13.1e3 / 69.1e6])
        assert abs(ts.values[0] - 3.2343) < 0.01
        assert abs(ts.values[1] - 8.5681) < 0.01
        assert ts.values[0] < ts.values[1]
        # Label-based estimation at the same proportions (counts / 100).
        labels = np.concatenate(
            [np.full(691000 - 26200, 1), np.full(26200 - 131, 2), np.full(131, 3)]
        )
        est = estimate_thresholds(labels, 2)
        assert abs(est.values[0] - 3.2343) < 0.01
        assert abs(est.values[1] - 8.5681) < 0.01


def test_criterion_5_full_model_gradient_integrity():
    """Tiny net (2 features, vocab 10, dim 4, towers {8,4}, T=2): analytic
    gradients match h=1e-5 central differences on 100 sampled coordinates."""
    with criterion(5, "full-model gradient integrity", budget_s=30.0):
        cfg = ModelConfig(
            kind="gnolr",
            num_levels=2,
            thresholds=(0.4, 1.3),
            gamma=1.5,
            embedding_dim=4,
            hidden_sizes=(8, 4),
        )
        model = make_model(cfg, {"__user_id": 10}, {"__item_id": 10}, np.random.default_rng(105))
        rng = np.random.default_rng(155)
        batch = Batch(
            user_features=rng.integers(0, 10, size=(16, 1)),
            item_features=rng.integers(0, 10, size=(16, 1)),
            labels=np.array([1, 2, 3, 1, 2, 3, 1, 2, 3, 1, 2, 3, 1, 2, 3, 1]),
            bits=np.zeros((16, 2), dtype=np.int8),
        )
        # Check at a generic parameter point: fresh embedding tables start
        # at +-0.05, where the near-zero pre-normalization norms make the
        # h^2 truncation of a central difference dominate the comparison.
        # ``checked_gradients`` scales the tables by 10 and reads their
        # gradient through ``full_grads``.
        report = checked_gradients(model, batch, num_samples=100, seed=156)
        assert report.num_checked == 100
        assert report.passed, (
            f"max rel err {report.max_rel_error:.3e} at "
            f"{report.worst_param}[{report.worst_index}]"
        )


def test_criterion_6_metric_oracles():
    """Sort-based AUC equals the O(n^2) pairwise oracle; top-K retrieval
    equals the exhaustive-sort oracle exactly."""
    with criterion(6, "metric oracles", budget_s=10.0):
        rng = np.random.default_rng(106)
        for _ in range(100):
            n = int(rng.integers(2, 201))
            scores = rng.integers(0, 10, size=n) / 5.0  # coarse grid -> ties
            labels = rng.integers(0, 2, size=n)
            if labels.min() == labels.max():
                labels[0] = 1 - labels[0]
            pos = scores[labels > 0]
            neg = scores[labels <= 0]
            wins = (pos[:, None] > neg[None, :]).sum() + 0.5 * (pos[:, None] == neg[None, :]).sum()
            oracle = wins / (len(pos) * len(neg))
            assert abs(auc(scores, labels) - oracle) < 1e-12

        for _ in range(100):
            n = int(rng.integers(5, 120))
            dim = int(rng.integers(2, 8))
            index = RetrievalIndex([f"i{j:03d}" for j in range(n)], rng.normal(size=(n, dim)))
            user = rng.normal(size=dim)
            k = int(rng.integers(1, 15))
            dist_id = sorted(
                (float(np.sum((v - user) ** 2)), iid)
                for iid, v in zip(index.item_ids, index.vectors)
            )
            oracle_ids = [iid for _, iid in dist_id[: min(k, n)]]
            assert ranked_ids(index, topk_retrieve(user, index, k)) == oracle_ids


@pytest.mark.skipif(
    find_ml1m_ratings() is None,
    reason=(
        "MovieLens-1M not available: place ratings.dat under data/ml-1m/ or "
        "point GNOLR_ML1M at it (no network access to fetch it here)"
    ),
)
def test_criterion_7_movielens_ordering(tmp_path):
    """On ML-1M with the published hyperparameters (a_1=1.2295, gamma=2.57,
    lr 0.05, dim 16, MLP {128,64,32}), the ordinal model beats BCE by at
    least 0.01 test AUC and matches or beats its Recall@5, over 3 seeds;
    its AUC lands in [0.78, 0.84]."""
    with criterion(7, "MovieLens-1M ordering", budget_s=2700.0):
        csv = ml1m_to_csv(find_ml1m_ratings(), tmp_path / "ml1m.csv")
        bundle = build_bundle(
            DataConfig(csv_path=csv, feedback=("rating",), binarize_feedback=("rating",))
        )
        common = dict(
            embedding_dim=16,
            hidden_sizes=(128, 64, 32),
            learning_rate=0.05,
            epochs=15,  # ~10 s/epoch at this scale: 6 runs fit the budget 3x over
            batch_size=1024,
        )
        gnolr_auc, gnolr_recall, bce_auc, bce_recall = [], [], [], []
        for seed in (1, 2, 3):
            g = train(
                bundle,
                TrainConfig(kind="gnolr", thresholds=(1.2295,), gamma=2.57, seed=seed, **common),
            ).checkpoint.build_model()
            gm = evaluate(g, bundle, recall_ks=(5,), gauc_weighting="off")
            gnolr_auc.append(gm["auc_t1"])
            gnolr_recall.append(gm["recall_t1@5"])
            b = train(bundle, TrainConfig(kind="bce", seed=seed, **common)).checkpoint.build_model()
            bm = evaluate(b, bundle, recall_ks=(5,), gauc_weighting="off")
            bce_auc.append(bm["auc_t1"])
            bce_recall.append(bm["recall_t1@5"])
        print(
            f"ml-1m: gnolr auc={np.mean(gnolr_auc):.4f} bce auc={np.mean(bce_auc):.4f} "
            f"gnolr r@5={np.mean(gnolr_recall):.4f} bce r@5={np.mean(bce_recall):.4f}"
        )
        assert np.mean(gnolr_auc) - np.mean(bce_auc) >= 0.01
        assert np.mean(gnolr_recall) >= np.mean(bce_recall)
        assert 0.78 <= np.mean(gnolr_auc) <= 0.84


def test_criterion_8_unified_space_multi_target_retrieval(tmp_path):
    """Planted progressive two-feedback data: the single unified embedding
    reaches Recall@K within 5% relative of the better of the two
    task-specific shared-bottom embeddings on BOTH targets (3 seeds)."""
    with criterion(8, "unified-space multi-target retrieval", budget_s=300.0):
        bundle = synthetic_bundle(
            tmp_path, n_users=50, n_items=400, n_rows=8000, noise=0.02, seed=11
        )
        common = dict(
            embedding_dim=8,
            hidden_sizes=(32, 16),
            learning_rate=0.02,
            epochs=40,
            batch_size=512,
        )
        ks = (10, 20)
        unified = {(c, k): [] for c in (1, 2) for k in ks}
        task_specific = {(e, c, k): [] for e in (1, 2) for c in (1, 2) for k in ks}
        for seed in (1, 2, 3):
            g = train(
                bundle, TrainConfig(kind="gnolr", gamma=2.0, seed=seed, **common)
            ).checkpoint.build_model()
            recalls = retrieval_recalls(g, bundle, ks)
            for c in (1, 2):
                for k in ks:
                    unified[(c, k)].append(recalls[f"recall_t{c}@{k}"])
            n = train(
                bundle,
                TrainConfig(kind="nsb", positive_weights=(5.0, 20.0), seed=seed, **common),
            ).checkpoint.build_model()
            # Task e's space is the e-th column block of the unified embeddings.
            item_blocks = np.hsplit(n.item_embeddings(bundle.item_feature_table), 2)
            user_blocks = np.hsplit(n.user_embeddings(bundle.user_feature_table), 2)
            for e in (1, 2):
                index = RetrievalIndex(list(bundle.items), item_blocks[e - 1])
                users = user_blocks[e - 1]
                for c in (1, 2):
                    recalls = retrieval_recalls(
                        n, bundle, ks, level=c, user_vectors=users, index=index
                    )
                    for k in ks:
                        task_specific[(e, c, k)].append(recalls[f"recall_t{c}@{k}"])
        for c in (1, 2):
            for k in ks:
                ours = float(np.mean(unified[(c, k)]))
                best = max(
                    float(np.mean(task_specific[(1, c, k)])),
                    float(np.mean(task_specific[(2, c, k)])),
                )
                print(f"target {c} @ {k}: unified {ours:.4f} vs best task-specific {best:.4f}")
                assert ours >= 0.95 * best, f"target {c}@{k}: {ours:.4f} < 0.95 * {best:.4f}"


def test_criterion_9_clipping_behavior():
    """Kernel configurations with non-positive probability differences cost
    exactly -log(1e-6) per clipped term and keep gradients finite."""
    with criterion(9, "probability clipping", budget_s=1.0):
        clip_cost = -math.log(1e-6)
        hyper = ModelConfig(2, (0.0, 0.5), gamma=5.0)
        dots = np.array([[-1.0, 2.0]])  # S_2 far below S_1: interior < 0
        losses, grads = gnolr_batch(np.array([2]), dots, hyper)
        live = -math.log(1.0 - stable_sigmoid(0.0 - 5.0 * -1.0))
        assert losses[0] == pytest.approx(live + clip_cost, abs=1e-9)
        assert np.all(np.isfinite(grads))

        # Two clipped terms: interior term appears in both subtasks at T=3.
        hyper3 = ModelConfig(3, (0.0, 0.5, 1.0), gamma=5.0)
        dots3 = np.array([[-1.0, 2.0, -2.0]])
        losses3, grads3 = gnolr_batch(np.array([2]), dots3, hyper3)
        s1 = stable_sigmoid(0.0 - 5.0 * -1.0)
        assert losses3[0] == pytest.approx(-math.log(1.0 - s1) + 2 * clip_cost, abs=1e-9)
        assert np.all(np.isfinite(grads3))
        # Clipped terms pass no gradient: only the live subtask-1 term
        # (through S_1) reaches dot 1; dots 2 and 3 get nothing.
        assert grads3[0, 1] == 0.0
        assert grads3[0, 2] == 0.0


class TestSupportingEvidence:
    """Desk-scale synthetic stand-ins for claims whose datasets are absent."""

    def test_ml1m_loader_path(self, tmp_path):
        """The criterion-7 ingestion path works on a ratings.dat-shaped file:
        `::`-separated rows, ratings binarized at > 4, chronological split."""
        rng = np.random.default_rng(77)
        lines = []
        for row in range(200):
            lines.append(
                f"{int(rng.integers(1, 21))}::{int(rng.integers(1, 41))}"
                f"::{int(rng.integers(1, 6))}::{row}"
            )
        ratings = tmp_path / "ratings.dat"
        ratings.write_text("\n".join(lines) + "\n")
        csv = ml1m_to_csv(ratings, tmp_path / "ml.csv")
        bundle = build_bundle(
            DataConfig(csv_path=csv, feedback=("rating",), binarize_feedback=("rating",))
        )
        ratings_by_ts = {row: int(lines[row].split("::")[2]) for row in range(200)}
        bits = np.concatenate(
            [bundle.train.bits[:, 0], bundle.validation.bits[:, 0], bundle.test.bits[:, 0]]
        )
        ts_order = np.concatenate(
            [bundle.train.timestamps, bundle.validation.timestamps, bundle.test.timestamps]
        )
        for ts, bit in zip(ts_order, bits):
            assert bit == (1 if ratings_by_ts[int(ts)] > 4 else 0)
        assert bundle.train.timestamps.max() < bundle.test.timestamps.min()

    def test_single_feedback_ordering_on_imbalanced_synthetic(self, tmp_path):
        """Same pipeline as criterion 7 on a synthetic imbalanced source:
        data-estimated threshold plus kernel reshaping beats calibrated BCE
        by >= 0.01 AUC and matches or beats its Recall@5 over 3 seeds."""
        csv = imbalanced_single_feedback_csv(tmp_path / "imbalanced.csv")
        bundle = build_bundle(DataConfig(csv_path=csv, feedback=("click",)))
        common = dict(
            embedding_dim=8,
            hidden_sizes=(32, 16),
            learning_rate=0.02,
            epochs=30,
            batch_size=512,
        )
        gnolr_auc, gnolr_recall, bce_auc, bce_recall = [], [], [], []
        for seed in (1, 2, 3):
            g = train(
                bundle, TrainConfig(kind="gnolr", gamma=2.0, seed=seed, **common)
            ).checkpoint.build_model()
            gm = evaluate(g, bundle, recall_ks=(5,), gauc_weighting="off")
            gnolr_auc.append(gm["auc_t1"])
            gnolr_recall.append(gm["recall_t1@5"])
            b = train(bundle, TrainConfig(kind="bce", seed=seed, **common)).checkpoint.build_model()
            bm = evaluate(b, bundle, recall_ks=(5,), gauc_weighting="off")
            bce_auc.append(bm["auc_t1"])
            bce_recall.append(bm["recall_t1@5"])
        assert np.mean(gnolr_auc) - np.mean(bce_auc) >= 0.01
        assert np.mean(gnolr_recall) >= np.mean(bce_recall)

    def test_bounded_cosine_logit_degrades_on_imbalance(self, tmp_path):
        """The raw-cosine logit head (bounded to [-1, 1]) loses substantial
        AUC on imbalanced data, while the threshold-shifted ordinal model
        does not: the failure mode the reshaped sigmoid is meant to fix."""
        csv = imbalanced_single_feedback_csv(tmp_path / "imbalanced.csv")
        bundle = build_bundle(DataConfig(csv_path=csv, feedback=("click",)))
        common = dict(
            embedding_dim=8,
            hidden_sizes=(32, 16),
            learning_rate=0.02,
            epochs=30,
            batch_size=512,
        )
        g = train(
            bundle, TrainConfig(kind="gnolr", gamma=2.0, seed=1, **common)
        ).checkpoint.build_model()
        raw = train(
            bundle, TrainConfig(kind="bce", bce_raw_cosine=True, seed=1, **common)
        ).checkpoint.build_model()
        g_auc = evaluate(g, bundle, gauc_weighting="off")["auc_t1"]
        raw_auc = evaluate(raw, bundle, gauc_weighting="off")["auc_t1"]
        assert g_auc - raw_auc > 0.05
