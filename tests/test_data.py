"""Ingestion pipeline: splitting, binning, lists, batching, bundle cache."""

import numpy as np
import pytest

from gnolr.data import (
    DataConfig,
    apply_bins,
    binarize_ratings,
    build_bundle,
    build_lists,
    fit_bins,
    load_bundle,
    make_batches,
    save_bundle,
    split_indices,
)
from gnolr.errors import ArgumentError, ConfigError, IngestionError


def write_csv(path, rows, header="user_id,item_id,timestamp,click,pay,uf_age,if_price"):
    path.write_text(header + "\n" + "\n".join(rows) + ("\n" if rows else ""))
    return str(path)


def small_config(path, **kwargs):
    defaults = dict(
        csv_path=path,
        feedback=("click", "pay"),
        numeric_features=("uf_age", "if_price"),
    )
    defaults.update(kwargs)
    return DataConfig(**defaults)


def _dummy_split(n, n_users):
    from gnolr.data import Split

    users = np.arange(n, dtype=np.int64) % n_users
    return Split(
        user_index=users,
        item_index=np.zeros(n, dtype=np.int64),
        timestamps=np.arange(n, dtype=np.int64),
        user_features=np.zeros((n, 1), dtype=np.int64),
        item_features=np.zeros((n, 1), dtype=np.int64),
        bits=np.zeros((n, 1), dtype=np.int8),
        labels=np.ones(n, dtype=np.int64),
        lists=build_lists(users),
    )


def synthetic_rows(n, rng, with_pay=True):
    rows = []
    for i in range(n):
        click = int(rng.random() < 0.4)
        pay = int(click and rng.random() < 0.3) if with_pay else 0
        rows.append(
            f"u{int(rng.integers(0, max(2, n // 4)))},i{int(rng.integers(0, max(2, n // 3)))},"
            f"{1000 + i},{click},{pay},{int(rng.integers(18, 70))},{rng.uniform(1, 100):.2f}"
        )
    return rows


class TestChronologicalSplit:
    def test_ten_samples_six_one_three(self):
        tr, va, te = split_indices(np.arange(10))
        assert (len(tr), len(va), len(te)) == (6, 1, 3)

    def test_equal_timestamps_keep_original_order(self):
        tr, va, te = split_indices(np.zeros(10, dtype=int))
        np.testing.assert_array_equal(np.concatenate([tr, va, te]), np.arange(10))

    def test_empty_errors(self):
        with pytest.raises(IngestionError):
            split_indices(np.array([], dtype=int))

    def test_boundary_respects_time(self):
        rng = np.random.default_rng(0)
        ts = rng.permutation(1000)
        tr, va, te = split_indices(ts)
        assert ts[tr].max() < ts[va].min()
        assert ts[va].max() < ts[te].min()


class TestBinning:
    def test_uniform_thousand_values(self):
        boundaries = fit_bins(np.arange(1000.0), n_bins=50)
        assert apply_bins(500.0, boundaries) == 25

    def test_min_value_lands_in_bin_zero(self):
        values = np.arange(1000.0)
        boundaries = fit_bins(values)
        assert apply_bins(values.min(), boundaries) == 0

    def test_above_all_training_data_clamps_to_top(self):
        boundaries = fit_bins(np.arange(1000.0), n_bins=50)
        assert apply_bins(1e9, boundaries) == 49

    def test_constant_feature_all_bin_zero(self):
        boundaries = fit_bins(np.full(100, 7.0))
        values = apply_bins(np.array([6.0, 7.0, 8.0]), boundaries)
        # A single collapsed boundary: below/equal stay at 0, above goes to 1.
        assert boundaries.shape[0] == 1
        assert values[1] == 0

    def test_monotone_in_value(self):
        rng = np.random.default_rng(1)
        boundaries = fit_bins(rng.normal(size=500))
        xs = np.sort(rng.normal(size=200))
        bins = apply_bins(xs, boundaries)
        assert np.all(np.diff(bins) >= 0)

    def test_empty_errors(self):
        with pytest.raises(IngestionError):
            fit_bins(np.array([]))


class TestBinarizeRatings:
    def test_above_threshold(self):
        assert binarize_ratings(5) == 1

    def test_equal_is_negative(self):
        assert binarize_ratings(4) == 0

    def test_low(self):
        assert binarize_ratings(1) == 0

    def test_vectorized(self):
        np.testing.assert_array_equal(binarize_ratings(np.array([1, 4, 4.5, 5])), [0, 0, 1, 1])


class TestBuildLists:
    def test_small_group_single_list(self):
        lists = build_lists(np.array([3, 3, 3]))
        assert lists.num_lists == 1
        np.testing.assert_array_equal(lists.list_samples(0), [0, 1, 2])

    def test_oversize_group_chunked(self):
        rng = np.random.default_rng(2)
        lists = build_lists(np.zeros(1001, dtype=int), max_len=500, rng=rng)
        sizes = [len(lists.list_samples(i)) for i in range(lists.num_lists)]
        assert sizes == [500, 500, 1]

    def test_same_seed_same_partition(self):
        users = np.zeros(1200, dtype=int)
        a = build_lists(users, 500, np.random.default_rng(42))
        b = build_lists(users, 500, np.random.default_rng(42))
        np.testing.assert_array_equal(a.sample_idx, b.sample_idx)

    def test_union_is_exact_sample_set(self):
        rng = np.random.default_rng(3)
        users = rng.integers(0, 7, size=2000)
        lists = build_lists(users, max_len=100, rng=rng)
        assert sorted(lists.sample_idx.tolist()) == list(range(2000))


class TestMakeBatches:
    def make_split(self, tmp_path, n=2500):
        rng = np.random.default_rng(4)
        path = write_csv(tmp_path / "d.csv", synthetic_rows(n, rng))
        bundle = build_bundle(small_config(path))
        return bundle

    def test_pointwise_sizes(self, tmp_path):
        bundle = self.make_split(tmp_path, n=2500)
        # train block = floor(2500 * 0.7) = 1750, minus validation.
        rng = np.random.default_rng(5)
        sizes = [len(b) for b in make_batches("pointwise", bundle.train, 1024, rng)]
        n = bundle.train.num_samples
        assert sizes == [1024] * (n // 1024) + ([n % 1024] if n % 1024 else [])

    def test_listwise_sizes(self, tmp_path):
        bundle = self.make_split(tmp_path, n=400)
        n_lists = bundle.train.lists.num_lists
        rng = np.random.default_rng(6)
        sizes = [len(b) for b in make_batches("listwise", bundle.train, 32, rng)]
        expected = [32] * (n_lists // 32) + ([n_lists % 32] if n_lists % 32 else [])
        assert sizes == expected

    def test_shuffle_reproducible_and_epoch_dependent(self, tmp_path):
        bundle = self.make_split(tmp_path, n=300)
        run1 = [b for b in make_batches("pointwise", bundle.train, 64, np.random.default_rng(9))]
        run2 = [b for b in make_batches("pointwise", bundle.train, 64, np.random.default_rng(9))]
        other = [b for b in make_batches("pointwise", bundle.train, 64, np.random.default_rng(10))]
        for a, b in zip(run1, run2):
            np.testing.assert_array_equal(a, b)
        assert any(not np.array_equal(a, b) for a, b in zip(run1, other))

    def test_bad_mode(self, tmp_path):
        bundle = self.make_split(tmp_path, n=50)
        with pytest.raises(ArgumentError):
            list(make_batches("pairwise", bundle.train, 8, np.random.default_rng(0)))

    def test_pointwise_reference_sizes(self):
        # 2500 samples at batch size 1024 -> 1024, 1024, 452.
        split = _dummy_split(2500, n_users=1)
        sizes = [len(b) for b in make_batches("pointwise", split, 1024, np.random.default_rng(0))]
        assert sizes == [1024, 1024, 452]

    def test_listwise_reference_sizes(self):
        # 33 single-user lists at batch size 32 -> 32 + 1.
        split = _dummy_split(33, n_users=33)
        assert split.lists.num_lists == 33
        sizes = [len(b) for b in make_batches("listwise", split, 32, np.random.default_rng(0))]
        assert sizes == [32, 1]


class TestBundleBuild:
    def test_schema_ordering_densest_first(self, tmp_path):
        rows = [f"u1,i{i},{i},1,{1 if i < 3 else 0},30,5.0" for i in range(20)]
        path = write_csv(tmp_path / "d.csv", rows)
        bundle = build_bundle(small_config(path))
        assert bundle.schema.ordered_names() == ["click", "pay"]
        # pay sparser than click -> level 2.
        assert bundle.schema.positive_counts == (20, 3)

    def test_labels_follow_deepest_positive(self, tmp_path):
        rows = [
            "u1,i1,1,0,0,30,5.0",
            "u1,i2,2,1,0,30,5.0",
            "u1,i3,3,1,1,30,5.0",
            "u1,i4,4,0,1,30,5.0",  # pay without click still reaches the top
            "u1,i5,5,0,0,30,5.0",
            "u1,i6,6,1,0,30,5.0",
            "u1,i7,7,0,0,30,5.0",
            "u1,i8,8,1,1,30,5.0",
            "u1,i9,9,0,0,30,5.0",
            "u1,i10,10,1,0,30,5.0",
        ]
        path = write_csv(tmp_path / "d.csv", rows)
        bundle = build_bundle(small_config(path))
        labels = np.concatenate(
            [bundle.train.labels, bundle.validation.labels, bundle.test.labels]
        )
        np.testing.assert_array_equal(labels, [1, 2, 3, 3, 1, 2, 1, 3, 1, 2])

    def test_missing_required_column_is_config_error(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("user_id,item_id,click,pay,uf_age,if_price\nu1,i1,0,0,3,4\n")
        with pytest.raises(ConfigError, match="timestamp"):
            build_bundle(small_config(str(path)))

    def test_malformed_row_reports_line_number(self, tmp_path):
        rows = ["u1,i1,100,0,0,30,5.0", "u2,i2,not-a-time,1,0,30,5.0"]
        path = write_csv(tmp_path / "d.csv", rows)
        with pytest.raises(IngestionError, match=":3"):
            build_bundle(small_config(path))

    def test_non_binary_feedback_rejected(self, tmp_path):
        rows = ["u1,i1,100,2,0,30,5.0"]
        path = write_csv(tmp_path / "d.csv", rows)
        with pytest.raises(IngestionError, match="click"):
            build_bundle(small_config(path))

    def test_unrecognized_column_rejected(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("user_id,item_id,timestamp,click,pay,mystery\nu1,i1,1,0,0,7\n")
        with pytest.raises(ConfigError, match="mystery"):
            build_bundle(DataConfig(csv_path=str(path), feedback=("click", "pay")))

    def test_rating_binarization(self, tmp_path):
        path = tmp_path / "d.csv"
        header = "user_id,item_id,timestamp,rating"
        rows = [f"u1,i{i},{i},{r}" for i, r in enumerate([5, 4, 3, 5, 2, 4.5, 1, 5, 3, 4])]
        path.write_text(header + "\n" + "\n".join(rows) + "\n")
        bundle = build_bundle(
            DataConfig(csv_path=str(path), feedback=("rating",), binarize_feedback=("rating",))
        )
        bits = np.concatenate([bundle.train.bits, bundle.validation.bits, bundle.test.bits])
        np.testing.assert_array_equal(bits[:, 0], [1, 0, 0, 1, 0, 1, 0, 1, 0, 0])

    def test_test_only_tokens_map_to_oov(self, tmp_path):
        # Last rows (test split) introduce a fresh user: its id feature must
        # fall back to the reserved row 0 while known ids keep their rows.
        rows = [f"u{i % 3},i{i % 4},{i},1,0,30,5.0" for i in range(9)]
        rows.append("brand-new-user,i99,9,1,0,30,5.0")
        path = write_csv(tmp_path / "d.csv", rows)
        bundle = build_bundle(small_config(path))
        uid_col = bundle.user_feature_names.index("__user_id")
        assert bundle.test.user_features[-1, uid_col] == 0
        assert bundle.train.user_features[:, uid_col].min() >= 1

    def test_user_key_composition(self, tmp_path):
        path = tmp_path / "d.csv"
        header = "user_id,uf_query,item_id,timestamp,click"
        rows = [f"u1,q{i % 2},i{i},{i},1" for i in range(10)]
        path.write_text(header + "\n" + "\n".join(rows) + "\n")
        bundle = build_bundle(
            DataConfig(
                csv_path=str(path),
                feedback=("click",),
                user_key_columns=("user_id", "uf_query"),
            )
        )
        # Same user id with two queries becomes two distinct users.
        assert len(bundle.users) == 2


class TestBundleCache:
    def test_round_trip_and_idempotent_bytes(self, tmp_path):
        rng = np.random.default_rng(7)
        path = write_csv(tmp_path / "d.csv", synthetic_rows(200, rng))
        bundle = build_bundle(small_config(path))
        cache1 = tmp_path / "b1.gnb"
        cache2 = tmp_path / "b2.gnb"
        save_bundle(bundle, cache1)
        save_bundle(build_bundle(small_config(path)), cache2)
        assert cache1.read_bytes() == cache2.read_bytes()

        loaded = load_bundle(cache1)
        assert loaded.schema == bundle.schema
        assert loaded.users == bundle.users
        assert loaded.items == bundle.items
        np.testing.assert_array_equal(loaded.train.labels, bundle.train.labels)
        np.testing.assert_array_equal(loaded.test.user_features, bundle.test.user_features)
        np.testing.assert_array_equal(loaded.train.lists.sample_idx, bundle.train.lists.sample_idx)
        for name, arr in bundle.binning.items():
            np.testing.assert_array_equal(loaded.binning[name], arr)

    def test_magic_bytes(self, tmp_path):
        rng = np.random.default_rng(8)
        path = write_csv(tmp_path / "d.csv", synthetic_rows(60, rng))
        cache = tmp_path / "b.gnb"
        save_bundle(build_bundle(small_config(path)), cache)
        assert cache.read_bytes()[:4] == b"GNB1"

    def test_wrong_magic_rejected(self, tmp_path):
        bad = tmp_path / "bad.gnb"
        bad.write_bytes(b"NOPE" + b"\x00" * 16)
        with pytest.raises(IngestionError):
            load_bundle(bad)
