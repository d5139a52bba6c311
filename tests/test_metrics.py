"""Metric implementations against brute-force oracles."""

import json

import numpy as np
import pytest

from gnolr import metrics
from gnolr.errors import ArgumentError, DimensionError, UndefinedMetricError
from gnolr.metrics import (
    RetrievalIndex,
    angle_histogram,
    auc,
    format_report,
    gauc,
    recall_at_k,
    topk_retrieve,
    topk_retrieve_batch,
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


def loop_auc(scores, labels):
    """The tie-averaging loop the vectorized ``auc`` replaced, kept as an oracle:
    it walks each run of equal sorted scores and gives it the mean rank."""
    scores = np.asarray(scores, dtype=np.float64)
    pos = np.asarray(labels) > 0
    n_pos = int(pos.sum())
    n_neg = scores.shape[0] - n_pos
    order = np.argsort(scores, kind="stable")
    ranks = np.empty_like(order, dtype=np.float64)
    sorted_scores = scores[order]
    i = 0
    n = scores.shape[0]
    while i < n:
        j = i
        while j + 1 < n and sorted_scores[j + 1] == sorted_scores[i]:
            j += 1
        ranks[order[i : j + 1]] = 0.5 * (i + j) + 1.0
        i = j + 1
    return float((ranks[pos].sum() - n_pos * (n_pos + 1) / 2.0) / (n_pos * n_neg))


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

    def test_bit_identical_to_loop_oracle(self):
        rng = np.random.default_rng(2)
        fixtures = [
            (np.full(7, 0.3), np.array([0, 1, 0, 1, 0, 1, 1])),  # one run of all rows
            (np.array([0.0, -0.0, 0.0, 1.0]), np.array([1, 0, 0, 1])),  # signed zeros tie
            (np.array([2.0, 1.0]), np.array([1, 0])),
        ]
        for _ in range(200):
            n = int(rng.integers(2, 400))
            # 1 to 6 distinct values: long runs, runs at both ends, singletons.
            scores = rng.choice(rng.normal(size=int(rng.integers(1, 7))), size=n)
            fixtures.append((scores, rng.integers(0, 2, size=n)))
        scores = rng.normal(size=5000).round(1)  # many runs, short and long
        fixtures.append((scores, (scores + rng.normal(size=5000) > 0).astype(int)))
        for scores, labels in fixtures:
            if labels.min() == labels.max():
                labels[0] = 1 - labels[0]
            assert auc(scores, labels) == loop_auc(scores, labels)

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


def assert_matches_oracle(users, index, ks):
    for k in ks:
        got = topk_retrieve_batch(users, index, k)
        assert got == [exhaustive_topk(u, index, min(k, len(index))) for u in users], k


# Unit vectors in 4-D with dyadic coordinates (+-e_i and (+-1/2, ...)): every
# distance between concatenations of them is exact in any summation order, so
# equal distances are true ties for the oracle and for the ranking rule alike.
DYADIC_UNITS = np.concatenate(
    [np.eye(4), -np.eye(4), 0.5 * np.array(np.meshgrid(*[[-1.0, 1.0]] * 4)).reshape(4, -1).T]
)


def unit_blocks(rng, n, t, zero_share):
    """Rows of T concatenated unit sub-embeddings; some sub-embeddings are zero,
    as ``l2_normalize`` returns for a degenerate tower output."""
    blocks = [DYADIC_UNITS[rng.integers(0, len(DYADIC_UNITS), size=n)] for _ in range(t)]
    for block in blocks:
        block[rng.random(n) < zero_share] = 0.0
    return np.concatenate(blocks, axis=1)


class TestBlockedTopk:
    def test_boundary_ties_and_zero_norm_sub_embeddings(self):
        rng = np.random.default_rng(11)
        distinct = unit_blocks(rng, 12, 3, zero_share=0.3)
        rows = distinct[rng.integers(0, 12, size=40)]  # every vector repeats
        ids = [f"i{j}" for j in rng.permutation(40)]
        index = RetrievalIndex(ids, rows)
        users = np.concatenate([unit_blocks(rng, 6, 3, zero_share=0.3), np.zeros((1, 12))])
        assert_matches_oracle(users, index, range(0, 43))

    def test_near_ties_below_gemm_rounding(self):
        # A large shared offset makes the GEMM form err by about 2^40 * 2^-52;
        # the distances differ by multiples of 2^-24 and are exact in the
        # difference form, so only the exact re-score orders them.
        rng = np.random.default_rng(12)
        offset = 2.0**20
        n = 60
        rows = np.zeros((n, 4))
        rows[:, 0] = offset
        rows[:, 1:3] = rng.integers(0, 48, size=(n, 2)) * 2.0**-12
        users = np.zeros((3, 4))
        users[:, 0] = offset
        users[:, 1:3] = rng.integers(0, 48, size=(3, 2)) * 2.0**-12
        index = RetrievalIndex([f"i{j:02d}" for j in rng.permutation(n)], rows)
        approx = (rows**2).sum(1)[None, :] - 2.0 * users @ rows.T + (users**2).sum(1)[:, None]
        exact = ((rows[None, :, :] - users[:, None, :]) ** 2).sum(-1)
        assert not np.array_equal(np.argsort(approx, axis=1), np.argsort(exact, axis=1))
        assert_matches_oracle(users, index, range(0, n + 2))

    def test_k_zero_full_and_oversize(self):
        rng = np.random.default_rng(13)
        index = RetrievalIndex(["c", "a", "b"], rng.normal(size=(3, 2)))
        users = rng.normal(size=(4, 2))
        assert topk_retrieve_batch(users, index, 0) == [[], [], [], []]
        full = topk_retrieve_batch(users, index, 3)
        assert all(sorted(ranked) == ["a", "b", "c"] for ranked in full)
        assert topk_retrieve_batch(users, index, 50) == full
        assert_matches_oracle(users, index, (0, 3, 50))

    def test_empty_index_and_no_users(self):
        empty = RetrievalIndex([], np.zeros((0, 3)))
        assert topk_retrieve_batch(np.ones((2, 3)), empty, 5) == [[], []]
        assert topk_retrieve(np.ones(3), empty, 5) == []
        index = RetrievalIndex(["a"], np.ones((1, 3)))
        assert topk_retrieve_batch(np.zeros((0, 3)), index, 5) == []

    def test_more_users_than_one_block(self, monkeypatch):
        monkeypatch.setattr(metrics, "_BLOCK_SCORES", 64)
        rng = np.random.default_rng(14)
        index = RetrievalIndex([f"i{j:02d}" for j in range(25)], unit_blocks(rng, 25, 2, 0.2))
        users = unit_blocks(rng, 37, 2, 0.2)  # 64 // 25 = 2 users per block
        assert_matches_oracle(users, index, (1, 5, 24, 25))

    def test_id_string_order_differs_from_index_order(self):
        ids = ["i9", "i10", "i100", "b", "B", "a1", "a10", "a2"]
        index = RetrievalIndex(ids, np.ones((8, 2)))  # all tied: ids decide
        expected = sorted(ids)
        assert expected != ids
        for k in range(0, 10):
            assert topk_retrieve_batch(np.zeros((2, 2)), index, k) == [expected[:k]] * 2

    def test_single_vector_wrapper_is_one_row_of_the_batch(self):
        rng = np.random.default_rng(15)
        index = RetrievalIndex([f"i{j}" for j in range(30)], rng.normal(size=(30, 5)))
        users = rng.normal(size=(6, 5))
        batch = topk_retrieve_batch(users, index, 7)
        assert [topk_retrieve(u, index, 7) for u in users] == batch

    def test_matches_the_full_pass_rule_on_tie_heavy_fixtures(self):
        # The full-pass rule: a difference-form distance to every item, then a
        # stable sort by (distance, id string).
        def full_pass(user, index, k):
            diff = index.vectors - user[None, :]
            dist = np.einsum("ij,ij->i", diff, diff)
            ids = np.asarray(index.item_ids)
            return [str(i) for i in ids[np.lexsort((ids, dist))[:k]]]

        rng = np.random.default_rng(16)
        for _ in range(200):
            n, dim = int(rng.integers(1, 40)), int(rng.integers(1, 9))
            base = rng.normal(size=(int(rng.integers(1, n + 1)), dim))
            rows = base[rng.integers(0, len(base), size=n)]
            rows[rng.random(n) < 0.1] = 0.0
            nudge = rng.random(rows.shape) < 0.1
            rows[nudge] = np.nextafter(rows[nudge], np.inf)
            users = np.concatenate([rows[rng.integers(0, n, size=2)], rng.normal(size=(2, dim))])
            index = RetrievalIndex([f"x{j}" for j in rng.permutation(n)], rows)
            k = int(rng.integers(0, n + 3))
            assert topk_retrieve_batch(users, index, k) == [full_pass(u, index, k) for u in users]

    def test_shape_and_value_errors(self):
        index = RetrievalIndex(["a", "b"], np.ones((2, 3)))
        with pytest.raises(DimensionError):
            topk_retrieve_batch(np.ones(3), index, 1)
        with pytest.raises(DimensionError):
            topk_retrieve_batch(np.ones((2, 4)), index, 1)
        with pytest.raises(DimensionError):
            topk_retrieve(np.ones((1, 3)), index, 1)
        with pytest.raises(ArgumentError):
            topk_retrieve_batch(np.ones((1, 3)), index, -1)
        with pytest.raises(ArgumentError):
            topk_retrieve_batch(np.full((1, 3), np.nan), index, 1)
        with pytest.raises(ArgumentError):
            RetrievalIndex(["a"], np.array([[np.inf, 0.0, 0.0]]))


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
