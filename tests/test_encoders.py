"""Embedding tables, towers, nested embeddings, and the export format."""

import re
import tracemalloc

import numpy as np
import pytest

from gnolr import tensor

from gnolr.encoders import (
    EmbeddingTableSet,
    Tower,
    TowerSide,
    read_embeddings,
    write_embeddings,
)
from gnolr.errors import ArgumentError, DimensionError
from gnolr.models import ModelSettings
from gnolr.tensor import DegenerateVectorWarning, block_rows, l2_normalize
from tests.helpers import NestedEmbedding, loop_write_embeddings, nested_kernel


def tables_fixture(rng, vocabs=None, dim=16):
    return EmbeddingTableSet(vocabs or {"f1": 5, "f2": 7}, dim, rng)


def side_fixture(rng, num_towers, widths, vocabs=None, dim=4):
    """A tower side over ``tables_fixture``; its rows are (B, 2) ids below 5."""
    cfg = ModelSettings(hidden_sizes=widths)
    return TowerSide(tables_fixture(rng, vocabs, dim), num_towers, cfg, rng, "t")


class TestEmbeddingTables:
    def test_single_feature_returns_row(self):
        rng = np.random.default_rng(0)
        tables = EmbeddingTableSet({"f1": 5}, 16, rng)
        out = tables.lookup(np.array([[3]]))[0]
        np.testing.assert_array_equal(out, tables.tables["f1"].value[3])

    def test_two_features_concatenate_in_order(self):
        rng = np.random.default_rng(1)
        tables = tables_fixture(rng)
        out = tables.lookup(np.array([[1, 2]]))[0]
        assert out.shape == (32,)
        np.testing.assert_array_equal(out[:16], tables.tables["f1"].value[1])
        np.testing.assert_array_equal(out[16:], tables.tables["f2"].value[2])

    def test_oov_maps_to_row_zero(self):
        rng = np.random.default_rng(2)
        tables = tables_fixture(rng)
        out = tables.lookup(np.array([[99, 0], [-1, 0]]))
        np.testing.assert_array_equal(out[0, :16], tables.tables["f1"].value[0])
        np.testing.assert_array_equal(out[1, :16], tables.tables["f1"].value[0])

    def test_feature_count_mismatch_rejected(self):
        rng = np.random.default_rng(3)
        with pytest.raises(DimensionError):
            tables_fixture(rng).lookup(np.array([[1, 2, 3]]))

    def test_no_feature_rejected(self):
        with pytest.raises(ArgumentError, match="'emb_i' need at least one feature"):
            EmbeddingTableSet({}, 4, np.random.default_rng(5), "emb_i")

    def test_backward_sums_onto_distinct_rows(self):
        rng = np.random.default_rng(4)
        tables = EmbeddingTableSet({"f1": 4}, 3, rng)
        ids = np.array([[1], [1], [2]])
        upstream = np.ones((3, 3))
        tables.backward(upstream, ids)
        [(table, rows, grad)] = tables.take_grads()
        assert table is tables.tables["f1"]
        np.testing.assert_array_equal(rows, [1, 2])
        np.testing.assert_array_equal(grad[0], [2.0, 2.0, 2.0])
        np.testing.assert_array_equal(grad[1], [1.0, 1.0, 1.0])
        assert "grad" not in vars(table)


class TestTower:
    def test_zero_weights_flag_degenerate(self):
        rng = np.random.default_rng(5)
        tower = Tower("t", 4, ModelSettings(hidden_sizes=(3,)), rng)
        tower.weights[0].value[...] = 0.0
        with pytest.warns(DegenerateVectorWarning):
            out, _ = tower.forward(np.ones((1, 4)))
        np.testing.assert_array_equal(out, np.zeros((1, 3)))

    def test_identity_layer_normalizes_input(self):
        rng = np.random.default_rng(6)
        tower = Tower("t", 3, ModelSettings(hidden_sizes=(3,)), rng)
        tower.weights[0].value[...] = np.eye(3)
        tower.biases[0].value[...] = 0.0
        x = np.array([[3.0, 0.0, 4.0]])
        out, _ = tower.forward(x)
        np.testing.assert_allclose(out, l2_normalize(x), atol=1e-15)

    def test_random_outputs_are_unit_norm(self):
        rng = np.random.default_rng(7)
        tower = Tower("t", 8, ModelSettings(hidden_sizes=(16, 4)), rng)
        x = rng.normal(size=(1000, 8))
        out, _ = tower.forward(x)
        norms = np.linalg.norm(out, axis=1)
        assert np.all(np.abs(norms - 1.0) < 1e-9)

    def test_input_shape_checked(self):
        rng = np.random.default_rng(8)
        tower = Tower("t", 8, ModelSettings(hidden_sizes=(4,)), rng)
        with pytest.raises(DimensionError):
            tower.forward(np.ones((2, 5)))
        side = side_fixture(rng, 2, (4,))
        for rows in (1, 2):
            with pytest.raises(DimensionError):
                side.embed(np.ones((rows, 5), dtype=np.int64))

    def test_embed_equals_forward_bit_for_bit_in_any_batch(self):
        rng = np.random.default_rng(10)
        vocabs = {"f1": 300, "f2": 300, "f3": 300}
        side = side_fixture(rng, 2, (64, 32, 16), vocabs, dim=8)
        for table in side.tables.params:
            table.value[...] = rng.normal(size=table.value.shape)
        ids = np.stack([np.arange(300)] * 3, axis=1)
        x = side.tables.lookup(ids)
        full = np.concatenate([t.forward(x)[0] for t in side.towers], axis=1)
        np.testing.assert_array_equal(side.embed(ids), full)
        # A single row too, although numpy would send its products to gemv.
        for rows in ([7], [0, 1], [5, 2, 9], list(range(0, 300, 7))):
            np.testing.assert_array_equal(side.embed(ids[rows]), full[rows])

    def test_backward_matches_finite_differences(self):
        rng = np.random.default_rng(9)
        tower = Tower("t", 5, ModelSettings(hidden_sizes=(6, 3), activation_slope=0.01), rng)
        x = rng.normal(size=(4, 5))
        upstream = rng.normal(size=(4, 3))

        def loss():
            out, _ = tower.forward(x)
            return float(np.sum(out * upstream))

        out, cache = tower.forward(x)
        grad_x = tower.backward(upstream, cache)

        h = 1e-6
        for p in tower.params:
            flat = p.value.reshape(-1)
            gflat = p.grad.reshape(-1)
            for i in range(0, flat.size, max(1, flat.size // 5)):
                orig = flat[i]
                flat[i] = orig + h
                hi = loss()
                flat[i] = orig - h
                lo = loss()
                flat[i] = orig
                numeric = (hi - lo) / (2 * h)
                denom = max(abs(numeric), abs(gflat[i]), 1e-6)
                assert abs(gflat[i] - numeric) / denom < 1e-4
        for i in range(x.size):
            flat = x.reshape(-1)
            orig = flat[i]
            flat[i] = orig + h
            hi = loss()
            flat[i] = orig - h
            lo = loss()
            flat[i] = orig
            numeric = (hi - lo) / (2 * h)
            denom = max(abs(numeric), abs(grad_x.reshape(-1)[i]), 1e-6)
            assert abs(grad_x.reshape(-1)[i] - numeric) / denom < 1e-4


class TestNestedEmbedding:
    def test_prefix_concatenation_and_norms(self):
        rng = np.random.default_rng(10)
        subs = tuple(l2_normalize(rng.normal(size=8)) for _ in range(3))
        nested = NestedEmbedding(subs)
        nested.validate()
        for c in (1, 2, 3):
            prefix = nested.prefix(c)
            assert prefix.shape == (8 * c,)
            assert np.dot(prefix, prefix) == pytest.approx(c, abs=1e-8)
        assert np.array_equal(nested.unified(), np.concatenate(subs))

    def test_prefix_range_checked(self):
        nested = NestedEmbedding((np.array([1.0, 0.0]),))
        with pytest.raises(ArgumentError):
            nested.prefix(0)
        with pytest.raises(ArgumentError):
            nested.prefix(2)


class TestNestedKernel:
    def test_identical_subs_give_one(self):
        rng = np.random.default_rng(11)
        subs = tuple(l2_normalize(rng.normal(size=6)) for _ in range(3))
        nested = NestedEmbedding(subs)
        for c in (1, 2, 3):
            assert nested_kernel(nested, nested, c) == pytest.approx(1.0, abs=1e-12)

    def test_level_one_is_plain_cosine(self):
        rng = np.random.default_rng(12)
        a = NestedEmbedding((l2_normalize(rng.normal(size=4)),))
        b = NestedEmbedding((l2_normalize(rng.normal(size=4)),))
        assert nested_kernel(a, b, 1) == pytest.approx(float(np.dot(a.subs[0], b.subs[0])), abs=1e-15)

    def test_equals_mean_of_sub_cosines(self):
        rng = np.random.default_rng(13)
        for _ in range(100):
            subs_a = tuple(l2_normalize(rng.normal(size=5)) for _ in range(3))
            subs_b = tuple(l2_normalize(rng.normal(size=5)) for _ in range(3))
            a, b = NestedEmbedding(subs_a), NestedEmbedding(subs_b)
            direct = np.mean([np.dot(sa, sb) for sa, sb in zip(subs_a, subs_b)])
            assert nested_kernel(a, b, 3) == pytest.approx(float(direct), abs=1e-12)

    def test_prefix_sum_identity(self):
        # c * K(prefix c) equals the running sum of sub-cosines: the bridge
        # between the prefix-kernel form and the unified-score form.
        rng = np.random.default_rng(14)
        for _ in range(100):
            t = int(rng.integers(1, 5))
            subs_a = tuple(l2_normalize(rng.normal(size=4)) for _ in range(t))
            subs_b = tuple(l2_normalize(rng.normal(size=4)) for _ in range(t))
            a, b = NestedEmbedding(subs_a), NestedEmbedding(subs_b)
            running = 0.0
            for c in range(1, t + 1):
                running += float(np.dot(subs_a[c - 1], subs_b[c - 1]))
                assert c * nested_kernel(a, b, c) == pytest.approx(running, abs=1e-12)
                # And it equals the cosine of the concatenated prefixes.
                pa, pb = a.prefix(c), b.prefix(c)
                cos = np.dot(pa, pb) / (np.linalg.norm(pa) * np.linalg.norm(pb))
                assert nested_kernel(a, b, c) == pytest.approx(float(cos), abs=1e-12)

    def test_level_out_of_range(self):
        nested = NestedEmbedding((np.array([1.0, 0.0]),))
        with pytest.raises(ArgumentError):
            nested_kernel(nested, nested, 2)


class TestTowerSide:
    def test_single_level_shapes(self):
        rng = np.random.default_rng(15)
        side = side_fixture(rng, 1, (4,))
        subs, _ = side.forward(np.ones((3, 2), dtype=np.int64))
        assert subs.shape == (3, 1, 4)

    def test_two_level_unified_length(self):
        rng = np.random.default_rng(16)
        side = side_fixture(rng, 2, (128, 64, 32))
        emb = side.embed(np.ones((2, 2), dtype=np.int64))
        assert emb.shape == (2, 64)

    def test_determinism(self):
        rng = np.random.default_rng(17)
        side = side_fixture(rng, 2, (4,))
        ids = np.random.default_rng(18).integers(0, 5, size=(4, 2))
        # A training forward's output is valid until the side's next forward.
        a = side.forward(ids)[0].copy()
        b, _ = side.forward(ids)
        assert np.array_equal(a, b)

    def test_repeated_rows_run_once_with_the_bits_of_every_row(self):
        rng = np.random.default_rng(21)
        side = side_fixture(rng, 2, (8, 4))
        ids = np.random.default_rng(22).integers(0, 3, size=(40, 2))
        x = side.tables.lookup(ids)
        per_sample = np.stack([tower.forward(x)[0] for tower in side.towers], axis=1)
        looked_up = []
        lookup = side.tables.lookup
        side.tables.lookup = lambda rows: looked_up.append(len(rows)) or lookup(rows)
        grouped, _ = side.forward(ids)
        assert looked_up == [len(np.unique(ids, axis=0))]
        np.testing.assert_array_equal(grouped, per_sample)

    def test_gradients_stay_in_own_tower(self):
        # Backprop through level 1 only: level-2 tower weights keep zero
        # gradients (sharing happens upstream in the embedding tables).
        rng = np.random.default_rng(19)
        side = side_fixture(rng, 2, (4,))
        ids = np.random.default_rng(20).integers(0, 5, size=(3, 2))
        subs, state = side.forward(ids)
        grad = np.zeros_like(subs)
        grad[:, 0, :] = 1.0
        side.backward(grad, state)
        for p in side.towers[1].params:
            assert np.all(p.grad == 0.0), p.name
        assert any(np.any(p.grad != 0.0) for p in side.towers[0].params)
        assert any(np.any(grad != 0.0) for _, _, grad in side.tables.take_grads())


class TestEmbeddingExport:
    def test_round_trip(self, tmp_path):
        rng = np.random.default_rng(21)
        path = tmp_path / "emb.tsv"
        matrix = rng.normal(size=(5, 8)).astype(np.float32)
        write_embeddings(path, [f"item{i}" for i in range(5)], matrix, num_levels=2)
        ids, loaded, t = read_embeddings(path)
        assert ids == [f"item{i}" for i in range(5)]
        assert t == 2
        # 9 significant digits round-trip a float32 exactly.
        np.testing.assert_array_equal(loaded.astype(np.float32), matrix)

    def test_header_format(self, tmp_path):
        path = tmp_path / "emb.tsv"
        write_embeddings(path, ["a"], np.zeros((1, 4)), num_levels=1)
        first = path.read_text().splitlines()[0]
        assert first == "#gnolr-emb v1 dim=4 T=1"

    def test_mismatched_rows_rejected(self, tmp_path):
        with pytest.raises(DimensionError):
            write_embeddings(tmp_path / "x.tsv", ["a", "b"], np.zeros((1, 4)), 1)

    def test_exact_bytes_for_signed_zero_subnormals_and_extremes(self, tmp_path):
        path = tmp_path / "emb.tsv"
        matrix = np.array(
            [[0.0, -0.0, 1.4e-45, 1e-40, 1.17549435e-38],
             [1 / 3, -2.5, 1e30, 3.4028235e38, 16777217.0]],
            dtype=np.float32,
        )
        write_embeddings(path, ["a", "b"], matrix, num_levels=1)
        assert path.read_bytes() == (
            b"#gnolr-emb v1 dim=5 T=1\n"
            b"a\t0\t-0\t1.40129846e-45\t9.9999461e-41\t1.17549435e-38\n"
            b"b\t0.333333343\t-2.5\t1.00000002e+30\t3.40282347e+38\t16777216\n"
        )

    @pytest.mark.parametrize(
        "text",
        [
            "#gnolr-emb v1 dim=four T=1\na\t0\t0\n",
            "#gnolr-emb v1 dim=0 T=1\n",
            "#gnolr-emb v1 dim=2\na\t0\t0\n",
            "#gnolr-emb v1 dim=2 T=x\na\t0\t0\n",
            "#gnolr-emb v1 dim=2 T\na\t0\t0\n",
        ],
        ids=["dim-not-integer", "dim-zero", "T-missing", "T-not-integer", "field-without-value"],
    )
    def test_malformed_header_raises_typed_error(self, tmp_path, text):
        path = tmp_path / "bad.tsv"
        path.write_text(text)
        with pytest.raises(ArgumentError, match="embedding header"):
            read_embeddings(path)

    def test_non_numeric_value_raises_typed_error(self, tmp_path):
        path = tmp_path / "bad.tsv"
        path.write_text("#gnolr-emb v1 dim=2 T=1\na\t0.5\t0.25\nb\t0.5\tnan?\n")
        with pytest.raises(ArgumentError, match="non-numeric embedding value for 'b'"):
            read_embeddings(path)


def float32_run(center, before, after):
    """The consecutive float32 values from ``before`` below to ``after`` above ``center``."""
    start = np.float32(center).view(np.int32) - before
    return (start + np.arange(before + after + 1, dtype=np.int32)).view(np.float32)


def near_powers_of_ten(ulps=40):
    """The float32 values within ``ulps`` of every float32 power of ten, 1e-45..1e38."""
    runs = [float32_run(10.0**p, ulps, ulps) for p in range(-44, 39)]
    runs.append(float32_run(np.float32(1.4e-45), 0, ulps))
    return np.concatenate(runs)


def ninth_digit_ties():
    """Every float32 j * 2^-(10 + z) in decade -1 - z (z = 0..3), j odd: exact halves
    at the ninth significant digit."""
    ties = []
    for z in range(4):
        scale = 2.0 ** -(10 + z)
        j = np.arange(1, 2 ** (10 + z), 2)
        values = j * scale
        ties.append(values[(values >= 10.0 ** (-1 - z)) & (values < 10.0**-z)])
    return np.concatenate(ties).astype(np.float32)


def assert_export_matches_oracle(tmp_path, ids, matrix, num_levels=1):
    write_embeddings(tmp_path / "new.tsv", ids, matrix, num_levels)
    loop_write_embeddings(tmp_path / "oracle.tsv", ids, matrix, num_levels)
    assert (tmp_path / "new.tsv").read_bytes() == (tmp_path / "oracle.tsv").read_bytes()


def as_rows(values, dim):
    values = np.concatenate([values, -values])
    values = np.resize(values, (-(-len(values) // dim), dim))
    return [f"e{r}" for r in range(len(values))], values


class TestExportOracle:
    """``write_embeddings`` against the per-value "{:.9g}" writer, byte for byte."""

    def test_signed_zeros_subnormals_units_and_non_finite(self, tmp_path):
        tiny = np.finfo(np.float32).tiny
        values = np.array(
            [0.0, -0.0, 1.0, -1.0, np.nan, -np.nan, np.inf, -np.inf, 1.4e-45, -1.4e-45,
             tiny, -tiny, tiny * (1 - 2.0**-23), 3e-41, np.finfo(np.float32).max, 0.5, -0.25],
            dtype=np.float32,
        )
        assert np.signbit(values[5])
        assert_export_matches_oracle(tmp_path, ["a", "b"], values[:16].reshape(2, 8))
        assert_export_matches_oracle(tmp_path, [f"v{i}" for i in range(17)], values[:, None])

    def test_zero_norm_rows(self, tmp_path):
        rng = np.random.default_rng(3)
        matrix = l2_normalize(rng.normal(size=(6, 12)))
        matrix[[1, 4]] = 0.0
        matrix[5] = -0.0
        assert_export_matches_oracle(tmp_path, list("abcdef"), matrix, num_levels=3)

    def test_values_next_to_every_power_of_ten(self, tmp_path):
        values = near_powers_of_ten()
        assert np.float32(1e-4) in values and np.float32(0.1) in values
        assert_export_matches_oracle(tmp_path, *as_rows(values, 32))

    def test_exact_ties_at_the_ninth_digit(self, tmp_path):
        values = ninth_digit_ties()
        exact = values.astype(np.float64)
        scaled = exact * 10.0 ** (8 - np.floor(np.log10(exact)))
        assert len(values) > 500 and np.all(scaled - np.floor(scaled) == 0.5)
        assert_export_matches_oracle(tmp_path, *as_rows(values, 7))

    def test_dense_sweep_across_a_power_of_ten(self, tmp_path):
        values = float32_run(0.1, 1 << 19, 1 << 19)
        assert values.min() < 0.1 < values.max()
        assert_export_matches_oracle(tmp_path, *as_rows(values, 96))

    def test_unit_sub_embeddings_across_blocks(self, tmp_path):
        rng = np.random.default_rng(4)
        dim = 96
        rows = 2 * block_rows(16 * dim) + 7
        subs = np.split(rng.normal(size=(rows, dim)), 3, axis=1)
        matrix = np.concatenate([l2_normalize(sub) for sub in subs], axis=1)
        assert_export_matches_oracle(tmp_path, [f"i{r}" for r in range(rows)], matrix, 3)

    def test_awkward_ids_dim_one_and_no_rows(self, tmp_path):
        ids = ["ünï", "emoji-\U0001f600", "nul\x00", "a\x1fb", "", " spaced "]
        assert_export_matches_oracle(tmp_path, ids, np.linspace(-1.5, 1.5, 6)[:, None])
        assert_export_matches_oracle(tmp_path, [], np.zeros((0, 4)))

    @pytest.mark.parametrize("extra", [-1, 0, 1, 4])
    def test_row_counts_around_a_block(self, tmp_path, monkeypatch, extra):
        dim = 5
        monkeypatch.setattr(tensor, "BLOCK_BYTES", 16 * dim * 3)
        rows = 2 * block_rows(16 * dim) + extra
        matrix = np.random.default_rng(extra + 9).normal(scale=0.3, size=(rows, dim))
        assert_export_matches_oracle(tmp_path, [f"r{i}" for i in range(rows)], matrix)

    def test_float64_input_is_rounded_to_float32_first(self, tmp_path):
        matrix = np.array([[0.1, 1 / 3, 0.30000001192092896 + 1e-12, 2.0**-13]])
        assert_export_matches_oracle(tmp_path, ["x"], matrix)

    @pytest.mark.parametrize("bad", ["i\t3", "i5\nx", "r\r"])
    def test_ids_a_tsv_row_cannot_hold_are_refused(self, tmp_path, bad):
        path = tmp_path / "emb.tsv"
        with pytest.raises(ArgumentError, match=re.escape(repr(bad))):
            write_embeddings(path, ["ok", bad], np.ones((2, 3)), 1)
        assert not path.exists()

    def test_a_row_needs_at_least_one_value(self, tmp_path):
        with pytest.raises(DimensionError):
            write_embeddings(tmp_path / "x.tsv", ["a"], np.zeros((1, 0)), 1)


class TestExportMemory:
    @staticmethod
    def traced_peak(tmp_path, rows, dim=96):
        matrix = np.random.default_rng(rows).normal(scale=0.1, size=(rows, dim))
        ids = [f"item{r}" for r in range(rows)]
        tracemalloc.start()
        try:
            write_embeddings(tmp_path / "emb.tsv", ids, matrix, 3)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    def test_peak_is_a_few_blocks_whatever_the_row_count(self, tmp_path):
        # A per-value writer holds every value as a Python float: about 60
        # blocks of memory for 20,000 x 96 values.
        small = self.traced_peak(tmp_path, 3 * block_rows(16 * 96))
        large = self.traced_peak(tmp_path, 20_000)
        assert large < 12 * tensor.BLOCK_BYTES
        assert large < small + tensor.BLOCK_BYTES / 2
