"""Metric implementations against brute-force oracles."""

import json
import warnings

import numpy as np
import pytest

from gnolr import tensor
from gnolr.errors import ArgumentError, DimensionError, UndefinedMetricError
from gnolr.metrics import (
    RetrievalIndex,
    angle_histogram,
    auc,
    format_report,
    gauc,
    topk_retrieve,
    topk_retrieve_batch,
    write_angle_csv,
    write_report,
)
from gnolr.tensor import l2_normalize
from tests.helpers import ranked_ids, unit_blocks


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


def loop_gauc(scores, labels, user_ids, weighting="pairs"):
    """The per-user mask loop the vectorized ``gauc`` replaced, kept as an oracle:
    one ``auc`` per user with both classes, summed in ascending user order."""
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
    return total / weight_sum


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
        with pytest.raises(UndefinedMetricError):
            gauc(np.array([]), np.array([]), np.array([]))

    @pytest.mark.parametrize(
        "scores, labels, users",
        [
            ([0.1, 0.2], [1, 0, 1], ["a", "a", "b"]),
            ([0.1, 0.2, 0.3], [1, 0], ["a", "a", "b"]),
            ([0.1, 0.2, 0.3], [1, 0, 1], ["a", "a"]),
            ([[0.1, 0.2]], [[1, 0]], [["a", "a"]]),
        ],
        ids=["short-scores", "short-labels", "short-users", "two-d"],
    )
    def test_mismatched_inputs_raise_argument_error(self, scores, labels, users):
        with pytest.raises(ArgumentError, match="matching 1-D"):
            gauc(np.array(scores), np.array(labels), np.array(users))

    def test_non_finite_scores_rejected(self):
        with pytest.raises(ArgumentError, match="finite"):
            gauc(np.array([0.1, np.nan]), np.array([1, 0]), np.array([3, 3]))

    @pytest.mark.parametrize("weighting", ["pairs", "uniform"])
    @pytest.mark.parametrize("seed", range(8))
    def test_matches_loop_oracle_bit_for_bit_on_ties(self, seed, weighting):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(50, 3000))
        # Few distinct scores (heavy ties within users, and runs that would
        # cross from one user into the next), unsorted integer user ids with
        # a few rows each, single-class users, and a signed zero.
        scores = rng.integers(0, [2, 3, 6, 20][seed % 4], size=n) / 4.0 - 0.5
        scores[rng.random(n) < 0.05] = -0.0
        users = rng.integers(0, max(2, n // [3, 15][seed % 2]), size=n) * 7 - 30
        labels = (rng.random(n) < rng.uniform(0.05, 0.6)).astype(np.int8)
        assert gauc(scores, labels, users, weighting) == loop_gauc(scores, labels, users, weighting)

    @pytest.mark.parametrize("weighting", ["pairs", "uniform"])
    def test_matches_loop_oracle_with_string_users_and_label_levels(self, weighting):
        rng = np.random.default_rng(11)
        scores = np.round(rng.normal(size=4000), 1)
        users = np.array([f"u{k}" for k in rng.integers(0, 300, size=4000)])
        labels = rng.integers(0, 4, size=4000)  # positives are the labels above zero
        assert gauc(scores, labels, users, weighting) == loop_gauc(scores, labels, users, weighting)


class TestTopkRetrieve:
    def test_full_ranking_is_permutation(self):
        rng = np.random.default_rng(2)
        index = RetrievalIndex([f"i{j}" for j in range(20)], rng.normal(size=(20, 4)))
        out = topk_retrieve(rng.normal(size=4), index, 20)
        assert sorted(out.tolist()) == list(range(20))

    def test_duplicate_nearest_ties_break_by_id(self):
        vec = np.array([1.0, 0.0])
        index = RetrievalIndex(["b", "a", "c"], np.array([vec, vec, [-1.0, 0.0]]))
        assert ranked_ids(index, topk_retrieve(vec, index, 2)) == ["a", "b"]

    def test_matches_exhaustive_oracle(self):
        rng = np.random.default_rng(3)
        for _ in range(100):
            n = int(rng.integers(5, 100))
            dim = int(rng.integers(2, 8))
            index = RetrievalIndex([f"i{j:03d}" for j in range(n)], rng.normal(size=(n, dim)))
            user = rng.normal(size=dim)
            k = int(rng.integers(1, 12))
            got = ranked_ids(index, topk_retrieve(user, index, k))
            assert got == exhaustive_topk(user, index, min(k, n))

    def test_k_zero_and_oversize(self):
        rng = np.random.default_rng(4)
        index = RetrievalIndex(["a", "b"], rng.normal(size=(2, 3)))
        assert topk_retrieve(np.zeros(3), index, 0).shape == (0,)
        assert topk_retrieve(np.zeros(3), index, 10).shape == (2,)

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
        by_distance = ranked_ids(index, topk_retrieve(user, index, 30))
        dots = rows @ user
        by_dot = [index.item_ids[j] for j in np.lexsort((np.array(index.item_ids), -dots))]
        assert by_distance == by_dot


def assert_matches_oracle(users, index, ks):
    for k in ks:
        got = ranked_ids(index, topk_retrieve_batch(users, index, k))
        assert got == [exhaustive_topk(u, index, min(k, len(index))) for u in users], k


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
        assert ranked_ids(index, topk_retrieve_batch(users, index, 0)) == [[], [], [], []]
        full = topk_retrieve_batch(users, index, 3)
        assert all(sorted(ranked) == ["a", "b", "c"] for ranked in ranked_ids(index, full))
        np.testing.assert_array_equal(topk_retrieve_batch(users, index, 50), full)
        assert_matches_oracle(users, index, (0, 3, 50))

    def test_empty_index_and_no_users(self):
        empty = RetrievalIndex([], np.zeros((0, 3)))
        assert topk_retrieve_batch(np.ones((2, 3)), empty, 5).shape == (2, 0)
        assert topk_retrieve(np.ones(3), empty, 5).shape == (0,)
        index = RetrievalIndex(["a"], np.ones((1, 3)))
        assert topk_retrieve_batch(np.zeros((0, 3)), index, 5).shape == (0, 1)

    def test_more_users_than_one_block(self, monkeypatch):
        monkeypatch.setattr(tensor, "BLOCK_BYTES", 8 * 64)
        rng = np.random.default_rng(14)
        index = RetrievalIndex([f"i{j:02d}" for j in range(25)], unit_blocks(rng, 25, 2, 0.2))
        users = unit_blocks(rng, 37, 2, 0.2)  # (8 * 64) // (8 * 25) = 2 users per block
        assert_matches_oracle(users, index, (1, 5, 24, 25))

    def test_id_string_order_differs_from_index_order(self):
        ids = ["i9", "i10", "i100", "b", "B", "a1", "a10", "a2"]
        index = RetrievalIndex(ids, np.ones((8, 2)))  # all tied: ids decide
        expected = sorted(ids)
        assert expected != ids
        for k in range(0, 10):
            got = ranked_ids(index, topk_retrieve_batch(np.zeros((2, 2)), index, k))
            assert got == [expected[:k]] * 2

    def test_single_vector_wrapper_is_one_row_of_the_batch(self):
        rng = np.random.default_rng(15)
        index = RetrievalIndex([f"i{j}" for j in range(30)], rng.normal(size=(30, 5)))
        users = rng.normal(size=(6, 5))
        batch = topk_retrieve_batch(users, index, 7)
        np.testing.assert_array_equal([topk_retrieve(u, index, 7) for u in users], batch)

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
            got = ranked_ids(index, topk_retrieve_batch(users, index, k))
            assert got == [full_pass(u, index, k) for u in users]

    def test_returns_index_rows_of_shape_users_by_k(self):
        rng = np.random.default_rng(17)
        index = RetrievalIndex([f"i{j}" for j in range(9)], rng.normal(size=(9, 3)))
        users = rng.normal(size=(4, 3))
        for k in (0, 1, 9, 12):
            got = topk_retrieve_batch(users, index, k)
            assert got.dtype == np.intp and got.shape == (4, min(k, 9))

    def test_every_prefix_of_the_deepest_ranking_is_a_fresh_ranking(self):
        # So the hits on a fixed positive set, and its recall, never fall as K grows.
        rng = np.random.default_rng(7)
        vectors = rng.normal(size=(50, 4))
        vectors[::5] = vectors[3]  # tied distances, broken by id
        index = RetrievalIndex([f"i{j:02d}" for j in rng.permutation(50)], vectors)
        users = np.concatenate([rng.normal(size=(3, 4)), vectors[3:4]])
        positives = rng.choice(50, size=9, replace=False)
        deepest = topk_retrieve_batch(users, index, 50)
        hits = []
        for k in range(0, 52):
            fresh = topk_retrieve_batch(users, index, k)
            np.testing.assert_array_equal(deepest[:, :k], fresh)
            hits.append(np.isin(fresh, positives).sum(axis=1))
        assert np.all(np.diff(hits, axis=0) >= 0)
        assert hits[-1].tolist() == [9] * 4

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

    def test_zero_vectors_land_in_ninety_without_warning(self):
        u = np.array([[0.0, 0.0, 0.0, 0.0], [0.6, 0.8, 0.0, 0.0], [0.0, 0.0, 0.0, 0.0]])
        v = np.array([[0.0, 1.0, 0.0, 0.0], [0.0, 0.0, 0.0, 0.0], [0.0, 0.0, 0.0, 0.0]])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            table = angle_histogram(u, v, np.array([1, 0, 1]))
        assert table[90, 1] == 2 and table[90, 2] == 1
        assert table[:, 1:].sum() == 3

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


    @pytest.mark.parametrize("n", [5, 6, 7, 13])
    def test_indexed_pairs_in_blocks_equal_the_gathered_pairs(self, monkeypatch, n):
        rng = np.random.default_rng(n)
        users, items = rng.normal(size=(4, 12)), rng.normal(size=(9, 12))
        users[1] = 0.0
        items[[0, 3]] = items[5]
        user_of, item_of = rng.integers(0, 4, size=n), rng.integers(0, 9, size=n)
        labels = rng.integers(0, 2, size=n)
        monkeypatch.setattr(tensor, "BLOCK_BYTES", 1 << 40)
        want = angle_histogram(users[user_of], items[item_of], labels, 0.5)
        monkeypatch.setattr(tensor, "BLOCK_BYTES", 6 * 8 * 12)  # 6 pairs per block
        got = angle_histogram(users, items, labels, 0.5, user_of=user_of, item_of=item_of)
        np.testing.assert_array_equal(got, want)
        assert got[:, 1:].sum() == n

    def test_pair_indices_must_match_the_labels(self):
        u = np.ones((3, 2))
        with pytest.raises(DimensionError):
            angle_histogram(u, u, np.ones(2), user_of=np.arange(3), item_of=np.arange(3))
        with pytest.raises(DimensionError):
            angle_histogram(u, np.ones((3, 3)), np.ones(3))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("side", ["user", "item"])
    def test_non_finite_vector_is_refused(self, bad, side):
        u = np.eye(3)
        v = np.eye(3)
        (u if side == "user" else v)[1, 2] = bad
        with pytest.raises(ArgumentError, match=f"{side} embeddings must be finite"):
            angle_histogram(u, v, np.ones(3))


class TestReports:
    def test_flat_lines_sorted(self):
        text = format_report({"b_metric": 0.25, "a_metric": 1.0, "n": 3})
        assert text.splitlines() == ["a_metric=1.000000", "b_metric=0.250000", "n=3"]

    def test_json_report_stable(self, tmp_path):
        path = tmp_path / "report.json"
        write_report(path, {"z": {"mean": 1.0}, "a": {"mean": 2.0}})
        loaded = json.loads(path.read_text())
        assert list(loaded) == ["a", "z"]
