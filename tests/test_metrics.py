"""Metric implementations against brute-force oracles."""

import json

import numpy as np
import pytest

from gnolr.errors import ArgumentError, UndefinedMetricError
from gnolr.metrics import (
    RetrievalIndex,
    angle_histogram,
    auc,
    format_report,
    gauc,
    recall_at_k,
    topk_retrieve,
    write_angle_csv,
    write_report,
)
from gnolr.tensor import l2_normalize


def pairwise_auc(scores, labels):
    """O(n^2) oracle: fraction of positive-over-negative pairs, ties 0.5."""
    pos = [s for s, y in zip(scores, labels) if y > 0]
    neg = [s for s, y in zip(scores, labels) if y <= 0]
    total = 0.0
    for p in pos:
        for n in neg:
            if p > n:
                total += 1.0
            elif p == n:
                total += 0.5
    return total / (len(pos) * len(neg))


def exhaustive_topk(user, index, k):
    """Sort-everything oracle with the same (distance, id) tie rule."""
    rows = []
    for item_id, vec in zip(index.item_ids, index.vectors):
        rows.append((float(np.sum((vec - user) ** 2)), item_id))
    rows.sort()
    return [item_id for _, item_id in rows[:k]]


class TestAuc:
    def test_hand_example(self):
        # 3 of 4 positive-over-negative pairs win, 0 ties.
        value = auc(np.array([0.1, 0.4, 0.35, 0.8]), np.array([0, 0, 1, 1]))
        assert value == pytest.approx(0.75, abs=1e-12)

    def test_perfect_separation(self):
        assert auc(np.array([1.0, 2.0, 3.0, 4.0]), np.array([0, 0, 1, 1])) == 1.0

    def test_all_equal_scores(self):
        assert auc(np.full(6, 0.3), np.array([0, 1, 0, 1, 0, 1])) == 0.5

    def test_single_class_errors(self):
        with pytest.raises(UndefinedMetricError):
            auc(np.array([0.1, 0.2]), np.array([1, 1]))

    def test_matches_pairwise_oracle_with_ties(self):
        rng = np.random.default_rng(0)
        for _ in range(100):
            n = int(rng.integers(2, 200))
            # Coarse score grid forces plenty of exact ties.
            scores = rng.integers(0, 8, size=n) / 4.0
            labels = rng.integers(0, 2, size=n)
            if labels.min() == labels.max():
                labels[0] = 1 - labels[0]
            assert auc(scores, labels) == pytest.approx(
                pairwise_auc(scores, labels), abs=1e-12
            )

    def test_invariant_under_monotone_transform(self):
        rng = np.random.default_rng(1)
        scores = rng.normal(size=300)
        labels = rng.integers(0, 2, size=300)
        labels[0], labels[1] = 0, 1
        transformed = np.tanh(scores) * 10 + 3
        assert auc(scores, labels) == pytest.approx(auc(transformed, labels), abs=1e-12)


class TestGauc:
    def test_single_eligible_user(self):
        scores = np.array([0.9, 0.1, 0.5])
        labels = np.array([1, 0, 0])
        users = np.array(["a", "a", "a"])
        assert gauc(scores, labels, users) == auc(scores, labels)

    def test_pair_weighted_mean(self):
        # User A: AUC 1.0, 1 pos x 1 neg = weight 1.
        # User B: AUC 0.5, 1 pos x 2 neg = weight 2.
        scores = np.array([0.9, 0.1, 0.5, 0.5, 0.5])
        labels = np.array([1, 0, 1, 0, 0])
        users = np.array(["a", "a", "b", "b", "b"])
        assert gauc(scores, labels, users) == pytest.approx((1.0 + 2 * 0.5) / 3, abs=1e-12)

    def test_uniform_weighting(self):
        scores = np.array([0.9, 0.1, 0.5, 0.5, 0.5])
        labels = np.array([1, 0, 1, 0, 0])
        users = np.array(["a", "a", "b", "b", "b"])
        assert gauc(scores, labels, users, weighting="uniform") == pytest.approx(0.75, abs=1e-12)

    def test_single_class_users_skipped(self):
        scores = np.array([0.9, 0.1, 0.3])
        labels = np.array([1, 0, 1])
        users = np.array(["a", "a", "only-positives"])
        assert gauc(scores, labels, users) == 1.0

    def test_no_eligible_user_errors(self):
        with pytest.raises(UndefinedMetricError):
            gauc(np.array([0.5, 0.5]), np.array([1, 0]), np.array(["a", "b"]))


class TestTopkRetrieve:
    def test_full_ranking_is_permutation(self):
        rng = np.random.default_rng(2)
        index = RetrievalIndex([f"i{j}" for j in range(20)], rng.normal(size=(20, 4)))
        out = topk_retrieve(rng.normal(size=4), index, 20)
        assert sorted(out) == sorted(index.item_ids)

    def test_duplicate_nearest_ties_break_by_id(self):
        vec = np.array([1.0, 0.0])
        index = RetrievalIndex(["b", "a", "c"], np.array([vec, vec, [-1.0, 0.0]]))
        assert topk_retrieve(vec, index, 2) == ["a", "b"]

    def test_matches_exhaustive_oracle(self):
        rng = np.random.default_rng(3)
        for _ in range(100):
            n = int(rng.integers(5, 100))
            dim = int(rng.integers(2, 8))
            index = RetrievalIndex([f"i{j:03d}" for j in range(n)], rng.normal(size=(n, dim)))
            user = rng.normal(size=dim)
            k = int(rng.integers(1, 12))
            assert topk_retrieve(user, index, k) == exhaustive_topk(user, index, min(k, n))

    def test_k_zero_and_oversize(self):
        rng = np.random.default_rng(4)
        index = RetrievalIndex(["a", "b"], rng.normal(size=(2, 3)))
        assert topk_retrieve(np.zeros(3), index, 0) == []
        assert len(topk_retrieve(np.zeros(3), index, 10)) == 2

    def test_euclidean_equals_descending_dot_for_unit_concat_rows(self):
        # Rows with norm sqrt(T) satisfy ||u - v||^2 = 2T - 2 u.v, so the
        # distance order is exactly the descending dot-product order.
        rng = np.random.default_rng(5)
        t, dim = 3, 4
        rows = np.concatenate(
            [l2_normalize(rng.normal(size=(30, dim))) for _ in range(t)], axis=1
        )
        user = np.concatenate([l2_normalize(rng.normal(size=dim)) for _ in range(t)])
        index = RetrievalIndex([f"i{j:02d}" for j in range(30)], rows)
        by_distance = topk_retrieve(user, index, 30)
        dots = rows @ user
        by_dot = [index.item_ids[j] for j in np.lexsort((np.array(index.item_ids), -dots))]
        assert by_distance == by_dot


class TestRecallAtK:
    def test_all_retrieved(self):
        rng = np.random.default_rng(6)
        vecs = rng.normal(size=(10, 3))
        index = RetrievalIndex([f"i{j}" for j in range(10)], vecs)
        ranked = topk_retrieve(vecs[0], index, 3)
        assert recall_at_k(ranked, 3, set(ranked)) == 1.0

    def test_k_smaller_than_positive_set(self):
        vecs = np.eye(4)
        index = RetrievalIndex(["a", "b", "c", "d"], vecs)
        user = vecs[0]
        positives = {"a", "b", "c", "d"}
        assert recall_at_k(topk_retrieve(user, index, 2), 2, positives) == 0.5

    def test_disjoint(self):
        vecs = np.eye(3)
        index = RetrievalIndex(["a", "b", "c"], vecs)
        assert recall_at_k(topk_retrieve(vecs[0], index, 1), 1, {"nope"}) == 0.0

    def test_empty_positives_error(self):
        index = RetrievalIndex(["a"], np.ones((1, 2)))
        with pytest.raises(UndefinedMetricError):
            recall_at_k(topk_retrieve(np.ones(2), index, 1), 1, set())

    def test_monotone_in_k(self):
        rng = np.random.default_rng(7)
        vecs = rng.normal(size=(50, 4))
        index = RetrievalIndex([f"i{j:02d}" for j in range(50)], vecs)
        user = rng.normal(size=4)
        positives = {f"i{j:02d}" for j in rng.choice(50, size=9, replace=False)}
        ranked = topk_retrieve(user, index, 50)
        values = [recall_at_k(ranked, k, positives) for k in range(1, 51)]
        assert all(b >= a for a, b in zip(values, values[1:]))
        # Every prefix of the deepest ranking equals a fresh ranking at that K.
        for k in range(0, 51):
            fresh = topk_retrieve(user, index, k)
            assert recall_at_k(ranked, k, positives) == recall_at_k(fresh, k, positives)

    def test_negative_k_rejected(self):
        with pytest.raises(ArgumentError):
            recall_at_k(["a", "b"], -1, {"a"})


class TestAngleHistogram:
    def test_identical_embeddings_in_first_bin(self):
        u = np.ones((5, 4))
        table = angle_histogram(u, u.copy(), np.ones(5))
        assert table[0, 1] == 5
        assert table[:, 1:].sum() == 5

    def test_antipodal_in_last_bin(self):
        u = np.ones((3, 4))
        table = angle_histogram(u, -u, np.zeros(3))
        assert table[179, 2] == 3

    def test_orthogonal_in_ninety(self):
        u = np.array([[1.0, 0.0]])
        v = np.array([[0.0, 1.0]])
        table = angle_histogram(u, v, np.ones(1))
        assert table[90, 1] == 1

    def test_csv_format(self, tmp_path):
        u = np.array([[1.0, 0.0], [1.0, 0.0]])
        v = np.array([[0.0, 1.0], [1.0, 0.0]])
        path = tmp_path / "angles.csv"
        write_angle_csv(path, angle_histogram(u, v, np.array([1, 0])))
        lines = path.read_text().splitlines()
        assert lines[0] == "bin_deg,pos,neg"
        assert lines[1] == "0,0,1"
        assert lines[91] == "90,1,0"
        assert len(lines) == 181


class TestReports:
    def test_flat_lines_sorted(self):
        text = format_report({"b_metric": 0.25, "a_metric": 1.0, "n": 3})
        assert text.splitlines() == ["a_metric=1.000000", "b_metric=0.250000", "n=3"]

    def test_json_report_stable(self, tmp_path):
        path = tmp_path / "report.json"
        write_report(path, {"z": {"mean": 1.0}, "a": {"mean": 2.0}})
        loaded = json.loads(path.read_text())
        assert list(loaded) == ["a", "z"]
