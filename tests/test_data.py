"""Ingestion pipeline: splitting, binning, lists, batching, bundle cache."""

import os

import numpy as np
import pytest

from gnolr.data import (
    DataConfig,
    _parse_csv,
    apply_bins,
    binarize_ratings,
    build_bundle,
    build_lists,
    first_seen,
    fit_bins,
    load_bundle,
    read_array,
    read_header,
    save_bundle,
    split_indices,
    write_artifact,
)
from gnolr.errors import ArgumentError, ConfigError, IngestionError
from gnolr.training import TrainConfig, make_batches
from tests.helpers import loop_build_bundle, loop_build_lists


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
        cfg = TrainConfig(batch_size=1024, seed=4)
        sizes = [len(b.labels) for b in make_batches(bundle.train, cfg, 1)]
        n = bundle.train.num_samples
        assert sizes == [1024] * (n // 1024) + ([n % 1024] if n % 1024 else [])

    def test_listwise_sizes(self, tmp_path):
        bundle = self.make_split(tmp_path, n=400)
        n_lists = bundle.train.lists.num_lists
        cfg = TrainConfig(listwise=True, list_batch_size=32, seed=5)
        sizes = [len(b.list_bounds) for b in make_batches(bundle.train, cfg, 1)]
        expected = [32] * (n_lists // 32) + ([n_lists % 32] if n_lists % 32 else [])
        assert sizes == expected

    def test_shuffle_reproducible_and_epoch_dependent(self, tmp_path):
        bundle = self.make_split(tmp_path, n=300)
        cfg = TrainConfig(batch_size=64, seed=8)
        run1, run2, other = (list(make_batches(bundle.train, cfg, e)) for e in (1, 1, 2))
        fields = lambda b: (b.user_features, b.item_features, b.labels, b.bits)  # noqa: E731
        for a, b in zip(run1, run2):
            for x, y in zip(fields(a), fields(b)):
                np.testing.assert_array_equal(x, y)
        assert any(
            not np.array_equal(x, y)
            for a, b in zip(run1, other)
            for x, y in zip(fields(a), fields(b))
        )

    def test_pointwise_reference_sizes(self):
        # 2500 samples at batch size 1024 -> 1024, 1024, 452.
        split = _dummy_split(2500, n_users=1)
        sizes = [len(b.labels) for b in make_batches(split, TrainConfig(batch_size=1024), 1)]
        assert sizes == [1024, 1024, 452]

    def test_listwise_reference_sizes(self):
        # 33 single-user lists at batch size 32 -> 32 + 1.
        split = _dummy_split(33, n_users=33)
        assert split.lists.num_lists == 33
        cfg = TrainConfig(listwise=True, list_batch_size=32)
        sizes = [len(b.list_bounds) for b in make_batches(split, cfg, 1)]
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


def quirky_csv(path, n=420, seed=0, rating=False):
    """Ingest edge cases in one file, rows shuffled against tied timestamps.

    Rows whose timestamp falls in the last fifth (past the training block)
    bring new users, items, segments and categories.  About 15% of the
    feature values are missing, some ids and tokens differ from others only
    by a trailing NUL, and ``if_late`` is empty on every training row.
    """
    rng = np.random.default_rng(seed)
    header = ["user_id", "item_id", "timestamp", "click", "pay"]
    header += (["rating"] if rating else []) + ["uf_age", "uf_segment", "if_price", "if_category"]
    header += ["if_late"]

    def maybe(value, p=0.15):
        return "" if rng.random() < p else value

    def pick(tokens):  # rng.choice would go through a <U array and drop trailing NULs
        return tokens[int(rng.integers(0, len(tokens)))]

    rows = []
    for r in range(n):
        late = r >= 0.8 * n
        nul = "\x00" if rng.random() < 0.2 else ""
        click = int(rng.random() < 0.4)
        row = [
            f"u{int(rng.integers(0, 35 if late else 25))}{nul}",
            f"i{int(rng.integers(0, 55 if late else 40))}{nul}",
            str(r // 3),
            str(click),
            str(int(click and rng.random() < 0.3)),
        ]
        if rating:
            row.append(pick(["1", "3", "4", "4.5", "5"]))
        row += [
            maybe(str(int(rng.integers(18, 90 if late else 70)))),
            maybe(pick(["s0", "s1", "s1\x00", "s9" if late else "s2"])),
            maybe(f"{rng.uniform(1, 100):.2f}"),
            maybe(pick(["c0", "c1", "c1\x00", "c_new" if late else "c0"])),
            f"z{int(rng.integers(0, 3))}" if late else "",
        ]
        rows.append(",".join(row))
    rows = [rows[i] for i in rng.permutation(n)]
    path.write_text(",".join(header) + "\n" + "\n".join(rows) + "\n", encoding="utf-8")
    return str(path)


ORACLE_CASES = {
    "defaults": {},
    "composite_user_key": {"user_key_columns": ("user_id", "uf_segment")},
    "ids_not_embedded": {"embed_user_id": False, "embed_item_id": False},
    "user_id_not_embedded": {"embed_user_id": False},
    "three_bins": {"n_bins": 3},
    "split_lists": {"max_list_len": 3},
    "no_validation": {"validation_fraction_of_train": 0.0},
    "binarized_rating": {"feedback": ("click", "pay", "rating"), "binarize_feedback": ("rating",)},
}


class TestIngestOracle:
    """``build_bundle`` against the row-loop ingest, byte for byte."""

    def build_both(self, tmp_path, case, seed=0):
        kwargs = dict(
            feedback=("click", "pay"), numeric_features=("uf_age", "if_price"), seed=seed
        )
        kwargs.update(ORACLE_CASES[case])
        path = quirky_csv(tmp_path / "q.csv", seed=seed, rating="rating" in kwargs["feedback"])
        config = DataConfig(csv_path=path, **kwargs)
        return build_bundle(config), loop_build_bundle(config)

    @pytest.mark.parametrize("seed", [0, 1])
    @pytest.mark.parametrize("case", sorted(ORACLE_CASES))
    def test_bundle_bytes_match_row_loop(self, tmp_path, case, seed):
        fast, oracle = self.build_both(tmp_path, case, seed)
        save_bundle(fast, tmp_path / "fast.gnb")
        save_bundle(oracle, tmp_path / "oracle.gnb")
        assert (tmp_path / "fast.gnb").read_bytes() == (tmp_path / "oracle.gnb").read_bytes()

    def test_fixture_exercises_each_edge_case(self, tmp_path):
        bundle, _ = self.build_both(tmp_path, "defaults")
        assert "u1" in bundle.users and "u1\x00" in bundle.users
        late = bundle.item_feature_names.index("if_late")
        assert bundle.item_vocab_sizes[late] == 1
        assert not bundle.test.item_features[:, late].any()
        uid = bundle.user_feature_names.index("__user_id")
        assert (bundle.test.user_features[:, uid] == 0).any()
        segment = bundle.user_feature_names.index("uf_segment")
        assert (bundle.train.user_features[:, segment] == 0).any()  # missing values
        assert bundle.user_vocab_sizes[segment] == 5  # OOV row, s0, s1, s1\x00, s2 (not s9)
        assert (bundle.test.user_features[:, segment] == 0).any()

    def test_split_lists_and_empty_validation(self, tmp_path):
        bundle, _ = self.build_both(tmp_path, "split_lists")
        assert bundle.train.lists.num_lists > len(set(bundle.train.user_index.tolist()))
        bundle, _ = self.build_both(tmp_path, "no_validation")
        assert bundle.validation.num_samples == 0
        assert bundle.validation.lists.offsets.tolist() == [0]


class TestFirstSeen:
    def test_numbers_follow_first_occurrence(self):
        values = np.array(["b", "a", "b", "c", "a\x00", "a"], dtype=object)
        first, number = first_seen(values)
        assert first.tolist() == [0, 1, 3, 4]
        assert number.tolist() == [0, 1, 0, 2, 3, 1]
        assert values[first].tolist() == ["b", "a", "c", "a\x00"]

    def test_empty(self):
        first, number = first_seen(np.array([], dtype=np.int64))
        assert first.size == 0 and number.size == 0

    @pytest.mark.parametrize("max_len", [1, 2, 5, 100])
    def test_build_lists_matches_row_loop(self, max_len):
        users = np.random.default_rng(max_len).integers(0, 9, size=300) * 7
        fast = build_lists(users, max_len, np.random.default_rng(3))
        oracle = loop_build_lists(users, max_len, np.random.default_rng(3))
        for attr in ("offsets", "sample_idx", "list_user"):
            np.testing.assert_array_equal(getattr(fast, attr), getattr(oracle, attr))
            assert getattr(fast, attr).dtype == np.int64

    def test_build_lists_rejects_nonpositive_length(self):
        with pytest.raises(ArgumentError, match="max list length"):
            build_lists(np.zeros(3, dtype=np.int64), max_len=0)


class TestIngestErrors:
    @pytest.mark.parametrize("value", ["nan", "inf", "-inf", "NaN", "1e999"])
    def test_non_finite_numeric_names_line_and_column(self, tmp_path, value):
        rows = ["u1,i1,1,0,0,30,5.0", f"u2,i2,2,1,0,30,{value}"]
        path = write_csv(tmp_path / "d.csv", rows)
        with pytest.raises(IngestionError, match=r":3: .*'if_price'"):
            build_bundle(small_config(path))

    @pytest.mark.parametrize(
        "value", ["99999999999999999999", "9223372036854775808", "-9223372036854775809"]
    )
    def test_timestamp_outside_int64_names_line(self, tmp_path, value):
        rows = ["u1,i1,1,0,0,30,5.0", f"u2,i2,{value},1,0,30,4.0"]
        path = write_csv(tmp_path / "d.csv", rows)
        with pytest.raises(IngestionError, match=rf":3: bad timestamp '{value}'"):
            build_bundle(small_config(path))

    def test_int64_extreme_timestamps_parse(self, tmp_path):
        rows = ["u1,i1,-9223372036854775808,0,0,30,5.0", "u2,i2,9223372036854775807,1,0,30,4.0"]
        parsed = _parse_csv(small_config(write_csv(tmp_path / "d.csv", rows)))
        assert parsed["timestamps"].tolist() == [-(2**63), 2**63 - 1]


class TestWriteArtifact:
    def test_layout(self, tmp_path):
        meta = {"b": [1, 2], "a": "x"}
        arrays = [(np.arange(3), "<i8"), (np.array([0.5, -1.0]), "<f8"), (np.array([1, 0]), "<i1")]
        write_artifact(tmp_path / "f.bin", b"TST1", 7, meta, arrays)
        blob = b'{"a":"x","b":[1,2]}'
        expected = b"TST1" + (7).to_bytes(4, "little") + len(blob).to_bytes(8, "little") + blob
        expected += b"".join(np.asarray(a, dtype=d).tobytes() for a, d in arrays)
        assert (tmp_path / "f.bin").read_bytes() == expected
        with open(tmp_path / "f.bin", "rb") as fh:
            assert read_header(fh, "f.bin", b"TST1", 7, "test file") == meta
            np.testing.assert_array_equal(read_array(fh, "f.bin", [3], "<i8"), np.arange(3))

    def test_failed_write_keeps_old_file_and_leaves_no_temp(self, tmp_path):
        target = tmp_path / "f.bin"
        target.write_bytes(b"old")

        def arrays():
            yield np.arange(3), "<i8"
            raise RuntimeError("disk gone")

        with pytest.raises(RuntimeError, match="disk gone"):
            write_artifact(target, b"TST1", 1, {}, arrays())
        assert target.read_bytes() == b"old"
        assert sorted(os.listdir(tmp_path)) == ["f.bin"]
