"""Training loop behavior: selection, determinism, checkpoints, descent."""

import dataclasses
import math
import tracemalloc
import warnings

import numpy as np
import pytest

from gnolr import metrics, tensor, training
from gnolr import models as model_module
from gnolr.data import DataConfig, build_bundle
from gnolr.errors import ArgumentError, ConfigError, DimensionError
from gnolr.feedback import estimate_thresholds
from gnolr.losses import bce_batch
from gnolr.metrics import RetrievalIndex, auc
from gnolr.models import Batch, ModelConfig, ModelSettings, make_model
from gnolr.tensor import AdamConfig
from gnolr.training import (
    TrainConfig,
    _optimizer_step,
    evaluate,
    load_checkpoint,
    make_batches,
    multi_run,
    retrieval_recalls,
    save_checkpoint,
    train,
    train_step,
)
from tests.helpers import (
    forward_task_scores,
    full_grads,
    per_sample_backward,
    per_sample_forward,
    set_recalls,
    synthetic_bundle,
    unit_blocks,
)

FAST = dict(
    embedding_dim=8,
    hidden_sizes=(16, 8),
    learning_rate=0.02,
    epochs=8,
    batch_size=256,
    gamma=2.0,
)


@pytest.fixture(scope="module")
def bundle(tmp_path_factory):
    return synthetic_bundle(tmp_path_factory.mktemp("data"), n_rows=3000, seed=3)


class TestTrain:
    def test_separable_data_reaches_high_validation_auc(self, bundle):
        config = TrainConfig(kind="gnolr", seed=1, **{**FAST, "epochs": 25})
        result = train(bundle, config)
        assert not result.diverged
        assert result.checkpoint.best_metric > 0.95

    def test_same_seed_identical_logs(self, bundle):
        config = TrainConfig(kind="gnolr", seed=7, **{**FAST, "epochs": 3})
        a = train(bundle, config)
        b = train(bundle, config)
        assert a.log_lines == b.log_lines
        for name in a.checkpoint.params:
            assert np.array_equal(a.checkpoint.params[name], b.checkpoint.params[name])

    def test_different_seed_different_logs(self, bundle):
        base = TrainConfig(kind="gnolr", seed=7, **{**FAST, "epochs": 2})
        other = dataclasses.replace(base, seed=8)
        assert train(bundle, base).log_lines != train(bundle, other).log_lines

    def test_log_line_format(self, bundle):
        config = TrainConfig(kind="gnolr", seed=1, **{**FAST, "epochs": 2})
        lines = train(bundle, config).log_lines
        assert len(lines) == 2
        assert lines[0].startswith("epoch=1 loss=")
        assert "val_auc_t2=" in lines[0]

    def test_auto_thresholds_match_estimator_exactly(self, bundle):
        config = TrainConfig(kind="gnolr", seed=1, thresholds=None, **{**FAST, "epochs": 1})
        result = train(bundle, config)
        expected = estimate_thresholds(bundle.train.labels, 2).values
        assert result.checkpoint.model_config.thresholds == expected

    def test_all_population_thresholds(self, bundle):
        config = TrainConfig(
            kind="gnolr", seed=1, thresholds_population="all", **{**FAST, "epochs": 1}
        )
        result = train(bundle, config)
        expected = estimate_thresholds(bundle.all_labels(), 2).values
        assert result.checkpoint.model_config.thresholds == expected

    def test_manual_threshold_count_checked(self, bundle):
        config = TrainConfig(kind="gnolr", seed=1, thresholds=(0.5,), **{**FAST, "epochs": 1})
        with pytest.raises(ConfigError):
            train(bundle, config)

    def test_nsb_needs_two_tasks(self, tmp_path):
        single = synthetic_bundle(tmp_path, n_rows=300, two_level=False)
        config = TrainConfig(kind="nsb", seed=1, **{**FAST, "epochs": 1})
        with pytest.raises(ConfigError):
            train(single, config)

    def test_divergence_keeps_last_good_state(self, bundle):
        # An absurd learning rate overflows tower weights into NaN outputs;
        # the run must stop and keep a finite checkpoint.
        config = TrainConfig(kind="gnolr", seed=1, **{**FAST, "learning_rate": 1e155, "epochs": 4})
        with np.errstate(all="ignore"), warnings.catch_warnings():
            warnings.simplefilter("ignore")
            result = train(bundle, config)
        assert result.diverged
        for arr in result.checkpoint.params.values():
            assert np.all(np.isfinite(arr))

    def test_patience_stops_early(self, bundle):
        config = TrainConfig(kind="gnolr", seed=1, patience=1, **{**FAST, "epochs": 8})
        result = train(bundle, config)
        assert len(result.log_lines) <= 8

    @pytest.mark.parametrize("kind,variant", [("gnolr", "v1"), ("gnolr", "v0"), ("neural_olr", "nested")])
    def test_ablation_variants_train(self, bundle, kind, variant):
        config = TrainConfig(kind=kind, variant=variant, seed=1, **{**FAST, "epochs": 20})
        result = train(bundle, config)
        assert not result.diverged
        metrics = evaluate(result.checkpoint.build_model(), bundle, gauc_weighting="off")
        assert math.isfinite(metrics["auc_t1"]) and math.isfinite(metrics["auc_t2"])
        if variant == "v1" or kind == "neural_olr":
            # The prefix-aggregated variants separate the planted structure;
            # the per-category one is structurally weaker (top-label samples
            # never touch the level-1 similarity) and only has to run.
            assert result.checkpoint.best_metric > 0.9

    def test_listwise_mode_trains_and_evaluates(self, bundle):
        config = TrainConfig(
            kind="gnolr", listwise=True, seed=1, **{**FAST, "epochs": 10}
        )
        result = train(bundle, config)
        assert not result.diverged
        assert math.isfinite(result.checkpoint.best_metric)
        metrics = evaluate(result.checkpoint.build_model(), bundle)
        assert metrics["gauc_t1"] > 0.5
        # Determinism holds for the list-batched path too.
        again = train(bundle, config)
        assert again.log_lines == result.log_lines


class TestSettingsAndLevelRules:
    def test_model_settings_are_annotated_once(self):
        shared = {f.name for f in dataclasses.fields(ModelSettings)}
        assert len(shared) == 12
        for cls in (ModelConfig, TrainConfig):
            assert not shared & set(cls.__annotations__), cls.__name__
            assert shared <= {f.name for f in dataclasses.fields(cls)}

    @pytest.mark.parametrize(
        "kind, expected", [("gnolr", [1, 2]), ("neural_olr", [1, 2]), ("nsb", [1, 2]), ("bce", [2])]
    )
    def test_model_targets(self, bundle, kind, expected):
        settings = {"bce_target_level": 2} if kind == "bce" else {}
        assert untrained_model(bundle, kind=kind, **settings).targets == expected


class TestOptimizerSparsity:
    def test_untouched_embedding_rows_bit_identical(self, bundle):
        config = TrainConfig(kind="gnolr", seed=5, **FAST)
        model = make_model(
            dataclasses.replace(
                train(bundle, dataclasses.replace(config, epochs=1)).checkpoint.model_config
            ),
            dict(zip(bundle.user_feature_names, bundle.user_vocab_sizes)),
            dict(zip(bundle.item_feature_names, bundle.item_vocab_sizes)),
            np.random.default_rng(5),
        )
        split = bundle.train
        idx = np.arange(16)
        batch = Batch(
            user_features=split.user_features[idx],
            item_features=split.item_features[idx],
            labels=split.labels[idx],
            bits=split.bits[idx],
        )
        table = model.user.tables.tables["__user_id"]
        before = table.value.copy()
        model.loss_and_grad(batch)
        _optimizer_step(model, AdamConfig(learning_rate=0.1))
        touched = set(split.user_features[idx, 0].tolist())
        for row in range(table.value.shape[0]):
            if row not in touched:
                assert np.array_equal(table.value[row], before[row]), row


def reference_optimizer_step(model, adam: AdamConfig) -> None:
    """The dense-scan rule, written out independently of ``gnolr.tensor``.

    Every table's gradient, written out at full size by ``full_grads``, is
    scanned in full for rows with a nonzero gradient, which get lazy Adam at
    the table's own step count (a table with no such row keeps its count);
    every other parameter gets plain Adam on its own.  All gradients are
    then dropped.  Adam's own constants are the Kingma & Ba defaults.
    """
    beta1, beta2, epsilon = 0.9, 0.999, 1e-8
    table_names = {p.name for side in (model.user, model.item) for p in side.tables.params}
    for p, grad in zip(model.params, full_grads(model)):
        if p.name in table_names:
            rows = np.nonzero(np.any(grad != 0.0, axis=1))[0]
        else:
            rows = np.arange(p.value.shape[0])
        if rows.size:
            p.step_count += 1
            t = p.step_count
            g = grad[rows]
            p.adam_m[rows] = beta1 * p.adam_m[rows] + (1.0 - beta1) * g
            p.adam_v[rows] = beta2 * p.adam_v[rows] + (1.0 - beta2) * g * g
            m_hat = p.adam_m[rows] / (1.0 - beta1**t)
            v_hat = p.adam_v[rows] / (1.0 - beta2**t)
            p.value[rows] -= adam.learning_rate * m_hat / (np.sqrt(v_hat) + epsilon)
    model.zero_grad()


def oracle_batch(rng, n, vocab_u, vocab_i, num_levels=2):
    """Ids drawn past both ends of each vocabulary (so OOV row 0 is hit) and
    from a pool smaller than the batch (so ids repeat)."""
    bits = rng.integers(0, 2, size=(n, num_levels))
    deepest = np.max(np.where(bits > 0, np.arange(1, num_levels + 1), 0), axis=1)
    return Batch(
        user_features=np.stack([rng.integers(-2, v + 2, size=n) for v in vocab_u.values()], 1),
        item_features=np.stack([rng.integers(-2, v + 2, size=n) for v in vocab_i.values()], 1),
        labels=np.where(deepest > 0, deepest + 1, 1).astype(np.int64),
        bits=bits.astype(np.int8),
    )


def nsb_first_task_only(model, batch) -> None:
    """Backprop task 1 alone, so task 2's towers and head get zero gradient."""
    u, i, states = per_sample_forward(model, batch.user_features, batch.item_features)
    dots = np.einsum("btd,btd->bt", u, i)
    _, grad_logits = bce_batch(model.heads[0].forward(dots[:, 0]), batch.bits[:, 0])
    grad_dots = np.zeros_like(dots)
    grad_dots[:, 0] = model.heads[0].backward(grad_logits / len(dots), dots[:, 0])
    per_sample_backward(model, grad_dots[:, :, None] * i, grad_dots[:, :, None] * u, states)


class TestLeanOptimizerStep:
    VOCAB_U = {"__user_id": 7, "uf_a": 3}
    VOCAB_I = {"__item_id": 9, "if_b": 4}
    CANCEL_ROW = 5  # a user-id row looked up in the first two steps only

    def build(self, kind, **kwargs):
        cfg = ModelConfig(
            kind=kind, num_levels=2, thresholds=(0.3, 1.1), gamma=1.5,
            embedding_dim=4, hidden_sizes=(8, 4), **kwargs,
        )
        return make_model(cfg, self.VOCAB_U, self.VOCAB_I, np.random.default_rng(31))

    def backprop(self, model, batch, step) -> None:
        if model.kind == "nsb" and step % 2:
            nsb_first_task_only(model, batch)
        else:
            model.loss_and_grad(batch)
        if step == 2:
            # Two lookups of one row whose contributions cancel to exactly 0.
            upstream = np.zeros((2, model.user.tables.output_dim))
            upstream[0, :4] = [0.25, -1.5, 3.0, 1e-3]
            upstream[1, :4] = -upstream[0, :4]
            model.user.tables.backward(upstream, np.array([[self.CANCEL_ROW, 1]] * 2))

    @pytest.mark.parametrize(
        "kind,kwargs",
        [
            ("gnolr", {}),
            ("gnolr", {"variant": "v0"}),
            ("neural_olr", {}),
            ("bce", {}),
            ("nsb", {}),
        ],
    )
    def test_matches_dense_scan_reference_byte_for_byte(self, kind, kwargs):
        lean, reference = self.build(kind, **kwargs), self.build(kind, **kwargs)
        adam = AdamConfig(learning_rate=0.05)
        cancel = lean.user.tables.tables["__user_id"]
        rng = np.random.default_rng(32)
        for step in range(6):
            batch = oracle_batch(rng, 24, self.VOCAB_U, self.VOCAB_I)
            ids = batch.user_features[:, 0]
            if step < 2:
                ids[:3] = self.CANCEL_ROW  # gives the row nonzero Adam moments
            else:
                ids[ids == self.CANCEL_ROW] = 1
            for model, optimizer in ((lean, _optimizer_step), (reference, reference_optimizer_step)):
                self.backprop(model, batch, step)
                optimizer(model, adam)
            if step == 1:
                cancel_before = [
                    getattr(cancel, attr)[self.CANCEL_ROW].copy()
                    for attr in ("value", "adam_m", "adam_v")
                ]
        ref_params = reference.param_map()
        for name, p in lean.param_map().items():
            q = ref_params[name]
            for attr in ("value", "adam_m", "adam_v"):
                assert getattr(p, attr).tobytes() == getattr(q, attr).tobytes(), (name, attr)
        for p in lean.user.tables.params + lean.item.tables.params:
            assert p.step_count == ref_params[p.name].step_count, p.name
        assert lean.dense.step_count == 6
        # The cancelled row kept its bits from step 1 on: no moment decay.
        assert np.any(cancel_before[1] != 0.0)
        for attr, before in zip(("value", "adam_m", "adam_v"), cancel_before):
            assert getattr(cancel, attr)[self.CANCEL_ROW].tobytes() == before.tobytes(), attr

    def test_table_whose_rows_all_cancel_keeps_its_step_count(self):
        model = self.build("gnolr")
        table = model.user.tables.tables["uf_a"]
        upstream = np.zeros((2, model.user.tables.output_dim))
        upstream[0, 4:] = [0.5, -2.0, 1.0, 3.0]
        upstream[1, 4:] = -upstream[0, 4:]
        model.user.tables.backward(upstream, np.array([[1, 2], [3, 2]]))
        before = table.value.copy()
        _optimizer_step(model, AdamConfig(learning_rate=0.05))
        assert table.step_count == 0
        assert table.value.tobytes() == before.tobytes()
        assert model.user.tables.tables["__user_id"].step_count == 0

    @pytest.mark.parametrize("kind", ["gnolr", "bce", "nsb"])
    def test_step_leaves_no_gradient_and_no_record(self, kind):
        model = self.build(kind)
        rng = np.random.default_rng(33)
        for step in range(3):
            self.backprop(model, oracle_batch(rng, 24, self.VOCAB_U, self.VOCAB_I), step)
            assert model.user.tables.pending
            _optimizer_step(model, AdamConfig(learning_rate=0.05))
            for tables in (model.user.tables, model.item.tables):
                assert not tables.pending
                for p in tables.params:
                    assert "grad" not in vars(p), p.name
            assert not np.any(model.dense.grad)

    def test_backward_calls_accumulate_until_take_grads(self):
        model = self.build("gnolr")
        tables = model.user.tables
        first = np.zeros((3, tables.output_dim))
        first[:, :4] = [[0.5, 1.0, 0.0, 2.0], [0.25, 0.0, 0.0, 0.0], [1.0, 1.0, 1.0, 1.0]]
        second = np.zeros((2, tables.output_dim))
        second[:, :4] = [[0.25, 0.5, 0.5, 0.5], [-1.0, -1.0, -1.0, -1.0]]
        # Row 4 is looked up in both calls; row 6's two lookups cancel to 0.
        tables.backward(first, np.array([[4, 1], [2, 1], [6, 1]]))
        tables.backward(second, np.array([[4, 1], [6, 1]]))
        dense = full_grads(model)[: len(tables.params)]
        taken = tables.take_grads()
        assert [table.name for table, _, _ in taken] == [p.name for p in tables.params]
        user_id_rows, user_id_grad = taken[0][1:]
        np.testing.assert_array_equal(user_id_rows, [2, 4])
        np.testing.assert_array_equal(user_id_grad, [[0.25, 0, 0, 0], [0.75, 1.5, 0.5, 2.5]])
        for (_, rows, grad), full in zip(taken, dense):
            np.testing.assert_array_equal(rows, np.flatnonzero(np.any(full != 0.0, axis=1)))
            assert grad.tobytes() == full[rows].tobytes()
        assert tables.take_grads() == []

    def test_dense_parameters_are_views_into_one_buffer(self):
        model = self.build("nsb")
        dense = [p for p in model.params if not p.name.startswith(("emb_u.", "emb_i."))]
        assert sum(p.value.size for p in dense) == model.dense.value.size
        for p in dense:
            assert np.shares_memory(p.value, model.dense.value), p.name
            assert np.shares_memory(p.grad, model.dense.grad), p.name


class TestCheckpointRoundTrip:
    def test_forward_scores_identical_after_reload(self, bundle, tmp_path):
        config = TrainConfig(kind="gnolr", seed=2, **{**FAST, "epochs": 2})
        result = train(bundle, config)
        path = tmp_path / "model.gnc"
        save_checkpoint(result.checkpoint, path)
        assert path.read_bytes()[:4] == b"GNC1"

        loaded = load_checkpoint(path)
        assert loaded.config_hash == result.checkpoint.config_hash
        assert loaded.model_config == result.checkpoint.model_config
        assert loaded.best_epoch == result.checkpoint.best_epoch

        probe_u = bundle.test.user_features[:64]
        probe_i = bundle.test.item_features[:64]
        a = result.checkpoint.build_model().task_scores_all(probe_u, probe_i)
        model = loaded.build_model()
        np.testing.assert_array_equal(a, model.task_scores_all(probe_u, probe_i))
        model.user.embed(probe_u)
        model.item.embed(probe_i)
        # A model that only scores allocates no table gradients or moments,
        # and no training workspace.
        tables = model.user.tables.params + model.item.tables.params
        assert not any({"grad", "adam_m", "adam_v"} & set(vars(p)) for p in tables)
        for side in (model.user, model.item):
            assert not side.workspace.arrays
            assert not any(tower.workspace.arrays for tower in side.towers)

    def test_save_is_deterministic(self, bundle, tmp_path):
        config = TrainConfig(kind="bce", seed=2, **{**FAST, "epochs": 1})
        result = train(bundle, config)
        p1, p2 = tmp_path / "a.gnc", tmp_path / "b.gnc"
        save_checkpoint(result.checkpoint, p1)
        save_checkpoint(result.checkpoint, p2)
        assert p1.read_bytes() == p2.read_bytes()


class TestCheckpointSelection:
    """Validation scores are scripted per epoch from the raw feedback bits, so
    level 1 and level 2 would pick different best epochs."""

    @staticmethod
    def script_validation_scores(monkeypatch, per_epoch):
        epochs = iter(per_epoch)
        monkeypatch.setattr(training, "_split_scores", lambda model, split: next(epochs))

    def test_bce_selects_on_its_target_level(self, bundle, monkeypatch):
        bits = bundle.validation.bits.astype(np.float64)
        click_on_pay = auc(bits[:, 0], bits[:, 1])
        pay_on_click = auc(bits[:, 1], bits[:, 0])
        assert click_on_pay < 1.0 and pay_on_click < 1.0
        # Epoch 1 scores with the click bits, epoch 2 with the pay bits.
        self.script_validation_scores(monkeypatch, [bits[:, :1], bits[:, 1:]])
        config = TrainConfig(kind="bce", bce_target_level=1, seed=2, **{**FAST, "epochs": 2})
        result = train(bundle, config)
        assert [line.split()[-1] for line in result.log_lines] == [
            "val_auc_t1=1.000000",
            f"val_auc_t1={pay_on_click:.6f}",
        ]
        assert result.checkpoint.best_epoch == 1  # level 2 would have picked epoch 2

    def test_gnolr_still_selects_on_the_sparsest_level(self, bundle, monkeypatch):
        bits = bundle.validation.bits.astype(np.float64)
        # Epoch 1 answers both levels with the pay bits, epoch 2 with the click bits.
        self.script_validation_scores(monkeypatch, [bits[:, [1, 1]], bits[:, [0, 0]]])
        result = train(bundle, TrainConfig(kind="gnolr", seed=2, **{**FAST, "epochs": 2}))
        assert result.log_lines[0].endswith("val_auc_t2=1.000000")
        assert "val_auc_t2=" in result.log_lines[1]
        assert result.checkpoint.best_epoch == 1  # level 1 would have picked epoch 2

    def test_bce_falls_back_when_its_target_level_is_single_class(self, bundle):
        split = dataclasses.replace(bundle.validation, bits=bundle.validation.bits.copy())
        split.bits[:, 0] = 1
        model = untrained_model(bundle, kind="bce", bce_target_level=1)
        scores = model.task_scores_all(split.user_features, split.item_features)[:, 0]
        assert training._validation_auc(model, split, 2) == (auc(scores, split.bits[:, 1]), 2)


class TestDescentSanity:
    def test_repeated_batch_loss_non_increasing(self, bundle):
        config = TrainConfig(kind="gnolr", seed=3, **{**FAST, "learning_rate": 1e-3})
        model = make_model(
            dataclasses.replace(
                train(bundle, dataclasses.replace(config, epochs=1)).checkpoint.model_config
            ),
            dict(zip(bundle.user_feature_names, bundle.user_vocab_sizes)),
            dict(zip(bundle.item_feature_names, bundle.item_vocab_sizes)),
            np.random.default_rng(3),
        )
        # Epoch 1 of seed 3 draws from default_rng(4).
        batch = next(make_batches(bundle.train, dataclasses.replace(config, batch_size=128), 1))
        adam = AdamConfig(learning_rate=1e-3)
        losses = []
        for _ in range(100):
            losses.append(model.loss_and_grad(batch))
            _optimizer_step(model, adam)
        assert all(b <= a for a, b in zip(losses, losses[1:]))


class TestTrainStep:
    @pytest.mark.parametrize("listwise", [False, True], ids=["pointwise", "listwise"])
    def test_steps_over_make_batches_reproduce_the_first_epoch(self, bundle, listwise):
        config = TrainConfig(kind="gnolr", seed=5, listwise=listwise, **{**FAST, "epochs": 1})
        result = train(bundle, config)
        model = make_model(
            result.checkpoint.model_config,
            dict(zip(bundle.user_feature_names, bundle.user_vocab_sizes)),
            dict(zip(bundle.item_feature_names, bundle.item_vocab_sizes)),
            np.random.default_rng(config.seed),
        )
        adam = AdamConfig(config.learning_rate)
        loss_sum, count = 0.0, 0
        for batch in make_batches(bundle.train, config, 1):
            assert (batch.list_bounds is not None) == listwise
            loss_sum += train_step(model, batch, adam) * len(batch.labels)
            count += len(batch.labels)
        assert result.log_lines[0].split()[1] == f"loss={loss_sum / count:.6f}"
        params = model.param_map()
        assert set(params) == set(result.checkpoint.params)
        for name, value in result.checkpoint.params.items():
            assert params[name].value.tobytes() == value.tobytes(), name

    def test_non_finite_loss_skips_the_optimizer(self, bundle, monkeypatch):
        model = untrained_model(bundle)
        before = {p.name: p.value.copy() for p in model.params}
        monkeypatch.setattr(model, "loss_and_grad", lambda batch: math.nan)
        batch = next(make_batches(bundle.train, TrainConfig(), 1))
        assert math.isnan(train_step(model, batch, AdamConfig(0.05)))
        assert model.dense.step_count == 0
        for p in model.params:
            assert p.value.tobytes() == before[p.name].tobytes(), p.name


    def test_non_finite_loss_drops_its_gradients(self, bundle, monkeypatch):
        batches = make_batches(bundle.train, TrainConfig(batch_size=64), 1)
        bad, good = next(batches), next(batches)
        adam = AdamConfig(0.05)
        model, alone = untrained_model(bundle), untrained_model(bundle)
        backward = model.loss_and_grad
        monkeypatch.setattr(model, "loss_and_grad", lambda batch: backward(batch) * math.nan)
        assert math.isnan(train_step(model, bad, adam))
        monkeypatch.undo()
        assert train_step(model, good, adam) == train_step(alone, good, adam)
        want = alone.param_map()
        for name, p in model.param_map().items():
            assert p.value.tobytes() == want[name].value.tobytes(), name

    def test_training_never_allocates_a_table_gradient(self, bundle, monkeypatch):
        models = []
        monkeypatch.setattr(
            training, "make_model", lambda *args: models.append(make_model(*args)) or models[-1]
        )
        train(bundle, TrainConfig(kind="gnolr", seed=5, **{**FAST, "epochs": 1}))
        [model] = models
        assert model.dense.step_count > 0
        for p in model.user.tables.params + model.item.tables.params:
            assert p.step_count > 0 and "grad" not in vars(p), p.name
            with pytest.raises(AttributeError, match="take_grads"):
                p.grad

    def test_a_step_allocates_little_beyond_its_workspace(self, monkeypatch):
        """A train_dense-shaped step: 512 rows, towers 128,64,32, T = 3.

        Each tower layer writes into buffers kept from the warm-up step, and
        dense Adam into the parameter's own scratch, so the step's own
        allocations are the table lookups, the gradient sums and the sparse
        Adam rows.  Their peak was 0.61-0.65 MB on one lane, bounded here at
        0.75 MB, and 0.73-0.75 MB on two, where both sides' temporaries live
        at once, bounded at 0.9 MB.  Fresh per-layer arrays took about
        10.8 MB, and Adam's 0.8 MB scratch per step set the one-lane peak at
        0.81 MB.
        """
        features = {"__user_id": 1000, "uf_segment": 5, "uf_age": 51}
        cfg = ModelConfig(
            kind="gnolr", num_levels=3, thresholds=(-0.5, 0.3, 1.0), gamma=2.0,
            embedding_dim=16, hidden_sizes=(128, 64, 32),
        )
        model = make_model(cfg, features, features, np.random.default_rng(3))
        rng = np.random.default_rng(4)

        def batch():
            # An entity's features follow its id, so rows repeat, as in a split.
            ids = rng.integers(0, 1000, size=(2, 512, 1))
            rows = np.concatenate([ids, ids % 5, ids % 51], axis=2)
            labels = rng.integers(1, 5, size=512)
            bits = (labels[:, None] > np.arange(1, 4)).astype(np.int8)
            return Batch(rows[0], rows[1], labels, bits)

        adam = AdamConfig(0.005)
        for lanes, bound in ((1, 750_000), (2, 900_000)):
            monkeypatch.setattr(model_module, "LANES", lanes)
            train_step(model, batch(), adam)
            step = batch()
            tracemalloc.start()
            try:
                train_step(model, step, adam)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak <= bound, (lanes, peak)


class TestEvaluateAndMultiRun:
    def test_evaluate_reports_per_task_metrics(self, bundle):
        config = TrainConfig(kind="gnolr", seed=1, **{**FAST, "epochs": 4})
        model = train(bundle, config).checkpoint.build_model()
        metrics = evaluate(model, bundle, recall_ks=(5,))
        assert {"auc_t1", "auc_t2", "gauc_t1", "gauc_t2"} <= set(metrics)
        assert "recall_t1@5" in metrics
        assert "recall_t2@5" in metrics
        for value in metrics.values():
            assert math.isfinite(value)

    def test_multi_run_single_seed_zero_std(self, bundle):
        config = TrainConfig(kind="gnolr", seed=1, **{**FAST, "epochs": 1})
        report = multi_run(bundle, config, n_seeds=1)
        assert list(report) == sorted(report)
        for stats in report.values():
            assert stats["std"] == 0.0
            assert stats["n"] == 1

    def test_multi_run_two_seeds(self, bundle):
        config = TrainConfig(kind="gnolr", seed=1, **{**FAST, "epochs": 1})
        report = multi_run(bundle, config, n_seeds=2)
        for stats in report.values():
            assert stats["n"] == 2
            assert stats["std"] >= 0.0


def untrained_model(bundle, kind="gnolr", **kwargs):
    cfg = ModelConfig(
        kind=kind,
        num_levels=bundle.num_feedbacks,
        thresholds=(0.0, 1.0),
        gamma=2.0,
        embedding_dim=4,
        hidden_sizes=(8, 4),
        **kwargs,
    )
    return make_model(
        cfg,
        dict(zip(bundle.user_feature_names, bundle.user_vocab_sizes)),
        dict(zip(bundle.item_feature_names, bundle.item_vocab_sizes)),
        np.random.default_rng(0),
    )


def counting(original, calls: list):
    """Pass-through wrapper that records one entry per call."""

    def counted(*args, **kwargs):
        calls.append(1)
        return original(*args, **kwargs)

    return counted


def counting_rows(original, rows: list):
    """Pass-through wrapper that records the length of each call's first argument."""

    def counted(first, *args, **kwargs):
        rows.append(len(first))
        return original(first, *args, **kwargs)

    return counted


def count_topk_calls(monkeypatch) -> list:
    """Record the number of query rows of each ``topk_retrieve_batch`` call."""
    calls: list[int] = []
    original = metrics.topk_retrieve_batch

    def counted(user_embeddings, index, k):
        calls.append(len(user_embeddings))
        return original(user_embeddings, index, k)

    monkeypatch.setattr(training, "topk_retrieve_batch", counted)
    return calls


def users_with_positives(split, level):
    return set(split.user_index[split.labels > level].tolist())


@pytest.fixture(scope="module")
def tied_bundle(tmp_path_factory):
    """Items carry no id embedding, only one of three categories, so every
    item shares its vector with a third of the catalog: rankings tie at
    nearly every K boundary and only the item-id rule orders them."""
    rng = np.random.default_rng(31)
    lines = ["user_id,item_id,timestamp,click,pay,if_category"]
    for ts in range(900):
        u, i = int(rng.integers(0, 12)), int(rng.integers(0, 15))
        click = int(rng.random() < 0.5)
        pay = int(click and rng.random() < 0.5)
        lines.append(f"u{u},i{i:02d},{ts},{click},{pay},c{i % 3}")
    path = tmp_path_factory.mktemp("tied") / "tied.csv"
    path.write_text("\n".join(lines) + "\n")
    return build_bundle(
        DataConfig(csv_path=str(path), feedback=("click", "pay"), embed_item_id=False)
    )


class TestOnePassScoringAndRanking:
    def test_evaluate_scores_the_split_in_one_call(self, bundle, monkeypatch):
        monkeypatch.setattr(tensor, "BLOCK_BYTES", 4096)
        model = untrained_model(bundle)
        uf, itf = bundle.test.user_features, bundle.test.item_features
        scores = forward_task_scores(model, uf, itf)
        expected = {c: auc(scores[:, c - 1], bundle.test.bits[:, c - 1]) for c in (1, 2)}
        calls: list[int] = []
        monkeypatch.setattr(model, "task_scores_all", counting(model.task_scores_all, calls))
        embedded_rows: list[int] = []
        for tables in (model.user.tables, model.item.tables):
            monkeypatch.setattr(tables, "lookup", counting_rows(tables.lookup, embedded_rows))
        metrics_out = evaluate(model, bundle)
        assert len(calls) == 1
        # Each distinct user and item feature row went through the towers once.
        assert sum(embedded_rows) == len(np.unique(uf, axis=0)) + len(np.unique(itf, axis=0))
        pair_bytes = 8 * len(model.user.towers) * model.user.cfg.hidden_sizes[-1]
        assert len(uf) > tensor.block_rows(pair_bytes)  # the pairs were gathered in several blocks
        for level in (1, 2):
            assert metrics_out[f"auc_t{level}"] == expected[level]

    def test_bce_scores_its_single_column_at_the_target_level(self, bundle):
        model = untrained_model(bundle, kind="bce", bce_target_level=2)
        scores = model.task_scores_all(bundle.test.user_features, bundle.test.item_features)
        assert scores.shape[1] == 1
        metrics_out = evaluate(model, bundle, gauc_weighting="off")
        assert metrics_out == {"auc_t2": auc(scores[:, 0], bundle.test.bits[:, 1])}

    def test_recall_ranks_each_user_once_in_the_unified_space(self, bundle, monkeypatch):
        model = untrained_model(bundle)
        calls = count_topk_calls(monkeypatch)
        out = retrieval_recalls(model, bundle, (1, 5, 20))
        users = users_with_positives(bundle.test, 1) | users_with_positives(bundle.test, 2)
        assert calls == [len(users)]
        assert {f"recall_t{c}@{k}" for c in (1, 2) for k in (1, 5, 20)} == set(out)

    def test_nsb_ranks_each_user_once_per_level_space(self, bundle, monkeypatch):
        model = untrained_model(bundle, kind="nsb")
        calls = count_topk_calls(monkeypatch)
        out = evaluate(model, bundle, recall_ks=(1, 5, 20), gauc_weighting="off")
        assert calls == [len(users_with_positives(bundle.test, c)) for c in (1, 2)]
        assert "recall_t2@20" in out

    def test_evaluate_retrieves_each_nsb_level_in_its_column_block(self, bundle):
        model = untrained_model(bundle, kind="nsb")
        ks = (1, 5, 20)
        out = evaluate(model, bundle, recall_ks=ks, gauc_weighting="off")
        user_blocks = np.hsplit(model.user_embeddings(bundle.user_feature_table), 2)
        item_blocks = np.hsplit(model.item_embeddings(bundle.item_feature_table), 2)
        expected = {}
        for c in (1, 2):
            index = RetrievalIndex(list(bundle.items), item_blocks[c - 1])
            expected.update(
                retrieval_recalls(
                    model, bundle, ks, level=c, user_vectors=user_blocks[c - 1], index=index
                )
            )
        assert set(expected) == {f"recall_t{c}@{k}" for c in (1, 2) for k in ks}
        assert {key: out[key] for key in out if key.startswith("recall_")} == expected
        # The full unified vectors would rank otherwise.
        assert retrieval_recalls(model, bundle, ks) != expected

    def test_evaluate_reports_bce_auc_only_for_its_target(self, bundle):
        model = untrained_model(bundle, kind="bce", bce_target_level=1)
        ks = (1, 5)
        out = evaluate(model, bundle, recall_ks=ks)
        assert {key for key in out if key.startswith(("auc_", "gauc_"))} == {"auc_t1", "gauc_t1"}
        recalls = {key: out[key] for key in out if key.startswith("recall_")}
        assert recalls == retrieval_recalls(model, bundle, ks)
        assert set(recalls) == {f"recall_t{c}@{k}" for c in (1, 2) for k in ks}

    def test_recalls_match_brute_force_oracle_with_boundary_ties(self, tied_bundle):
        bundle = tied_bundle
        model = untrained_model(bundle)
        ks = (0, 1, 4, 7, 15, 40)
        got = retrieval_recalls(model, bundle, ks)

        user_vecs = model.user_embeddings(bundle.user_feature_table)
        item_vecs = model.item_embeddings(bundle.item_feature_table)
        boundary_ties = 0
        for level in (1, 2):
            positives: dict[int, set[str]] = {}
            for row in np.nonzero(bundle.test.labels > level)[0]:
                positives.setdefault(int(bundle.test.user_index[row]), set()).add(
                    bundle.items[int(bundle.test.item_index[row])]
                )
            assert positives
            for k in ks:
                recalls = []
                for uid, pos in positives.items():
                    dist = ((item_vecs - user_vecs[uid]) ** 2).sum(axis=1).tolist()
                    order = sorted(range(len(bundle.items)), key=lambda j: (dist[j], bundle.items[j]))
                    if 0 < k < len(order) and dist[order[k - 1]] == dist[order[k]]:
                        boundary_ties += 1
                    top = {bundle.items[j] for j in order[:k]}
                    recalls.append(len(top & pos) / len(pos))
                oracle = sum(recalls) / len(recalls)
                assert got[f"recall_t{level}@{k}"] == pytest.approx(oracle, abs=1e-12)
        assert boundary_ties > 0

    @pytest.mark.parametrize("ks", [(), (-1,), (5, -1)])
    def test_empty_or_negative_k_rejected_before_ranking(self, bundle, monkeypatch, ks):
        model = untrained_model(bundle)
        calls = count_topk_calls(monkeypatch)
        with pytest.raises(ArgumentError):
            retrieval_recalls(model, bundle, ks)
        assert calls == []


def with_test_split(bundle, items, user_index, item_index, labels):
    """``bundle`` with these items and a test split of these rows; the
    recall reads nothing else of the split."""
    test = dataclasses.replace(
        bundle.test,
        user_index=np.asarray(user_index),
        item_index=np.asarray(item_index),
        labels=np.asarray(labels),
    )
    return dataclasses.replace(bundle, items=list(items), test=test)


def recall_fixture(bundle, seed, n_users=14, n_items=30, n_rows=60, t=3):
    """A test split, user vectors and an item index on which ranks tie.

    The rows draw their items from the first third of the catalog, so one
    (user, item) pair can be positive in several rows.  Labels skew low, so
    some users lack a positive at level 2, and the last user has a row but
    no positive.  The vectors are dyadic unit blocks (exact distances) with
    zero-norm sub-embeddings; the last user is all zero, and the index
    repeats a few distinct vectors, so distances tie at most K boundaries.
    Item ids are not in index order.
    """
    rng = np.random.default_rng(seed)
    users = np.r_[rng.integers(0, n_users - 1, size=n_rows), n_users - 1]
    items = rng.integers(0, n_items // 3, size=n_rows + 1)
    labels = np.r_[rng.choice([1, 1, 1, 2, 2, 2, 2, 3], size=n_rows), 1]
    ids = [f"i{j}" for j in rng.permutation(n_items)]
    fixture = with_test_split(bundle, ids, users, items, labels)
    user_vectors = unit_blocks(rng, n_users, t, zero_share=0.3)
    user_vectors[-1] = 0.0
    distinct = unit_blocks(rng, 6, t, zero_share=0.3)
    index = RetrievalIndex(ids, distinct[rng.integers(0, len(distinct), size=n_items)])
    return fixture, user_vectors, index


class TestRecallAsArrayOps:
    KS = (0, 1, 2, 5, 9, 30, 37)  # K = 0, and K at and beyond the 30-item catalog

    def test_equals_the_set_oracle_bit_for_bit(self, bundle):
        boundary_ties = repeated_pairs = 0
        for seed in range(12):
            fixture, users, index = recall_fixture(bundle, seed)
            for level in (None, 1, 2):
                got = retrieval_recalls(None, fixture, self.KS, "test", level, users, index)
                assert got == set_recalls(fixture, self.KS, "test", level, users, index)
            split = fixture.test
            assert users_with_positives(split, 2) < users_with_positives(split, 1)
            assert len(users_with_positives(split, 0)) > len(users_with_positives(split, 1))
            keys = split.user_index[split.labels > 1] * 30 + split.item_index[split.labels > 1]
            repeated_pairs += len(np.unique(keys)) < len(keys)
            for user in users:
                dist = np.sort(((index.vectors - user) ** 2).sum(axis=1))
                boundary_ties += sum(dist[k - 1] == dist[k] for k in self.KS if 0 < k < 30)
        assert repeated_pairs > 0 and boundary_ties > 0

    @pytest.mark.parametrize("kind", ["gnolr", "nsb"])
    def test_each_level_space_equals_the_set_oracle(self, bundle, tied_bundle, kind):
        # nsb retrieves each level in its own column block of the unified vectors.
        ks = (0, 1, 4, 15, 40)
        for data in (bundle, tied_bundle):
            model = untrained_model(data, kind=kind)
            index = training.unified_index(model, data)
            user_vectors = model.user_embeddings(data.user_feature_table)
            expected = {}
            for level, users, space in model.retrieval_spaces(user_vectors, index):
                got = retrieval_recalls(model, data, ks, "test", level, users, space)
                assert got == set_recalls(data, ks, "test", level, users, space)
                expected.update(got)
            out = evaluate(model, data, recall_ks=ks, gauc_weighting="off")
            assert {key: out[key] for key in out if key.startswith("recall_")} == expected

    def test_hand_example(self, bundle):
        # Items i0..i3 are the unit axes.  u0 sits on i0, ranking i0, i1, i2, i3
        # (ties by id), and likes all four; u1 sits on i3 and likes it; u2 sits
        # on i0 and likes only i3.  Only u1's pair reaches level 2.
        fixture = with_test_split(
            bundle, ["i0", "i1", "i2", "i3"],
            user_index=[0, 0, 0, 0, 1, 2], item_index=[0, 1, 2, 3, 3, 3], labels=[2] * 4 + [3, 2],
        )
        users, index = np.eye(4)[[0, 3, 0]], RetrievalIndex(["i0", "i1", "i2", "i3"], np.eye(4))
        got = retrieval_recalls(None, fixture, (1, 2, 4), "test", None, users, index)
        assert got == {
            "recall_t1@1": float(np.mean([1 / 4, 1.0, 0.0])),
            "recall_t1@2": float(np.mean([2 / 4, 1.0, 0.0])),
            "recall_t1@4": 1.0,
            "recall_t2@1": 1.0, "recall_t2@2": 1.0, "recall_t2@4": 1.0,
        }

    def test_a_user_without_positives_is_skipped(self, bundle):
        fixture, users, index = recall_fixture(bundle, 3)
        want = retrieval_recalls(None, fixture, self.KS, "test", None, users, index)
        # One more user, with a single negative row.
        split = fixture.test
        extra = with_test_split(
            fixture, fixture.items,
            np.r_[split.user_index, len(users)], np.r_[split.item_index, 0], np.r_[split.labels, 1],
        )
        more_users = np.r_[users, users[:1]]
        assert retrieval_recalls(None, extra, self.KS, "test", None, more_users, index) == want
        # A level without any positive has no key.
        shallow = with_test_split(
            fixture, fixture.items, split.user_index, split.item_index, np.minimum(split.labels, 2)
        )
        got = retrieval_recalls(None, shallow, self.KS, "test", None, users, index)
        assert {key.partition("@")[0] for key in got} == {"recall_t1"}

    def test_an_index_of_another_length_is_refused(self, bundle):
        fixture, users, index = recall_fixture(bundle, 4)
        short = RetrievalIndex(index.item_ids[:-1], index.vectors[:-1])
        with pytest.raises(DimensionError, match="29 items"):
            retrieval_recalls(None, fixture, (1,), "test", None, users, short)

    def test_no_array_of_pairs_by_k_is_built(self, bundle):
        # 40 users with 600 positive items each, ranked 2,000 deep: a pairs x K
        # array of one byte per entry would take 48 MB.
        n_users, n_items, per_user, k = 40, 3000, 600, 2000
        rng = np.random.default_rng(8)
        items = np.concatenate([rng.permutation(n_items)[:per_user] for _ in range(n_users)])
        fixture = with_test_split(
            bundle, [f"i{j}" for j in range(n_items)],
            np.repeat(np.arange(n_users), per_user), items, np.full(len(items), 3),
        )
        users = rng.normal(size=(n_users, 4))
        index = RetrievalIndex(fixture.items, rng.normal(size=(n_items, 4)))

        def peak(call) -> int:
            tracemalloc.start()
            try:
                call()
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        ranking = peak(lambda: metrics.topk_retrieve_batch(users, index, k))
        recall = peak(lambda: retrieval_recalls(None, fixture, (1, k), "test", None, users, index))
        # Beyond the ranking's own peak: O(users * K + pairs) words.
        assert recall - ranking < 64 * (n_users * k + len(items)) < len(items) * k, recall
