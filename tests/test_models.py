"""Model-level behavior: full-model gradients, isolation, reweighting, lanes."""

import os
import threading
import time
import warnings

import numpy as np
import pytest

from gnolr import models
from gnolr.encoders import EmbeddingTableSet, Tower
from gnolr.errors import DimensionError
from gnolr.losses import bce_batch
from gnolr.models import Batch, BceModel, ModelConfig, _side_by_side, lane_count, make_model
from gnolr.tensor import DegenerateVectorWarning
from tests.helpers import (
    checked_gradients,
    full_grads,
    per_sample_backward,
    per_sample_forward,
)

VOCABS_U = {"__user_id": 10, "uf_a": 6}
VOCABS_I = {"__item_id": 12, "if_b": 5}


def tiny_config(kind, **kwargs):
    defaults = dict(
        kind=kind,
        num_levels=2,
        thresholds=(0.4, 1.3),
        gamma=1.5,
        embedding_dim=4,
        hidden_sizes=(8, 4),
    )
    defaults.update(kwargs)
    return ModelConfig(**defaults)


def tiny_batch(rng, n=12, num_levels=2, bounds=None):
    bits = rng.integers(0, 2, size=(n, num_levels))
    deepest = np.max(np.where(bits > 0, np.arange(1, num_levels + 1), 0), axis=1)
    labels = np.where(deepest > 0, deepest + 1, 1)
    return Batch(
        user_features=rng.integers(0, 10, size=(n, 2)),
        item_features=rng.integers(0, 12, size=(n, 2)),
        labels=labels.astype(np.int64),
        bits=bits.astype(np.int8),
        list_bounds=bounds,
    )


class TestParameterLayout:
    @pytest.mark.parametrize("kind", ["gnolr", "neural_olr", "nsb"])
    def test_draw_order_names_and_order(self, kind):
        """User tables, item tables, user towers 1..T, item towers 1..T, heads:
        the order of the draws, of ``params`` and of the dense buffer."""
        cfg = tiny_config(kind)
        model = make_model(cfg, VOCABS_U, VOCABS_I, np.random.default_rng(3))
        rng = np.random.default_rng(3)
        tables = [
            EmbeddingTableSet(VOCABS_U, cfg.embedding_dim, rng, "emb_u"),
            EmbeddingTableSet(VOCABS_I, cfg.embedding_dim, rng, "emb_i"),
        ]
        pairs = 1 if kind == "neural_olr" else cfg.num_levels
        towers = [
            Tower(f"tower.{side}{c}", side_tables.output_dim, cfg, rng)
            for side, side_tables in zip(("user", "item"), tables)
            for c in range(1, pairs + 1)
        ]
        want = [p for t in tables + towers for p in t.params]
        heads = [p for head in model.heads for p in head.params]
        assert [p.name for p in model.params] == [p.name for p in want + heads]
        for p, q in zip(model.params, want):
            assert p.value.tobytes() == q.value.tobytes(), p.name
        dense = [p for p in model.params if not p.name.startswith(("emb_u.", "emb_i."))]
        assert model.dense.value.tobytes() == b"".join(p.value.tobytes() for p in dense)


class TestFullModelGradients:
    @pytest.mark.parametrize("kind", ["gnolr", "neural_olr", "bce", "nsb"])
    def test_backward_matches_finite_differences(self, kind):
        rng = np.random.default_rng(0)
        cfg = tiny_config(kind)
        model = make_model(cfg, VOCABS_U, VOCABS_I, np.random.default_rng(1))
        batch = tiny_batch(rng)
        report = checked_gradients(model, batch)
        assert report.passed, (
            f"{kind}: rel err {report.max_rel_error:.2e} at "
            f"{report.worst_param}[{report.worst_index}]"
        )

    @pytest.mark.parametrize("variant", ["v0", "v1"])
    def test_ablation_variants_gradients(self, variant):
        rng = np.random.default_rng(2)
        cfg = tiny_config("gnolr", variant=variant)
        model = make_model(cfg, VOCABS_U, VOCABS_I, np.random.default_rng(3))
        report = checked_gradients(model, tiny_batch(rng))
        assert report.passed

    def test_listwise_gradients(self):
        rng = np.random.default_rng(4)
        cfg = tiny_config("gnolr", listwise=True)
        model = make_model(cfg, VOCABS_U, VOCABS_I, np.random.default_rng(5))
        batch = tiny_batch(rng, n=12, bounds=[(0, 5), (5, 9), (9, 12)])
        report = checked_gradients(model, batch)
        assert report.passed

    def test_unlogged_listwise_gradients(self):
        rng = np.random.default_rng(6)
        cfg = tiny_config("gnolr", listwise=True, listnet_use_log=False)
        model = make_model(cfg, VOCABS_U, VOCABS_I, np.random.default_rng(7))
        batch = tiny_batch(rng, n=10, bounds=[(0, 6), (6, 10)])
        report = checked_gradients(model, batch)
        assert report.passed


class TestStructure:
    def test_unified_embeddings_concatenate_unit_subs(self):
        cfg = tiny_config("gnolr")
        model = make_model(cfg, VOCABS_U, VOCABS_I, np.random.default_rng(8))
        rows = np.random.default_rng(9).integers(0, 10, size=(20, 2))
        emb = model.user_embeddings(rows)
        assert emb.shape == (20, 8)
        sq = np.einsum("ij,ij->i", emb, emb)
        np.testing.assert_allclose(sq, 2.0, atol=1e-6)

    def test_determinism_same_seed_same_params(self):
        cfg = tiny_config("gnolr")
        a = make_model(cfg, VOCABS_U, VOCABS_I, np.random.default_rng(10))
        b = make_model(cfg, VOCABS_U, VOCABS_I, np.random.default_rng(10))
        for pa, pb in zip(a.params, b.params):
            assert np.array_equal(pa.value, pb.value)

    def test_scores_deterministic(self):
        cfg = tiny_config("neural_olr")
        model = make_model(cfg, VOCABS_U, VOCABS_I, np.random.default_rng(11))
        rng = np.random.default_rng(12)
        uf = rng.integers(0, 10, size=(6, 2))
        itf = rng.integers(0, 12, size=(6, 2))
        s1 = model.task_scores_all(uf, itf)
        s2 = model.task_scores_all(uf, itf)
        np.testing.assert_array_equal(s1, s2)

    def test_wider_tower_option(self):
        cfg = tiny_config("neural_olr", hidden_sizes=(256, 128, 64), embedding_dim=2)
        model = make_model(cfg, VOCABS_U, VOCABS_I, np.random.default_rng(13))
        assert [w.value.shape[1] for w in model.user.towers[0].weights] == [256, 128, 64]


class TestNsbIsolation:
    def test_foreign_towers_get_zero_gradient(self):
        # Backprop only task 1's loss through the shared plumbing: the
        # task-2 towers and head must keep zero grads; only the embedding
        # tables are allowed to carry cross-task gradient.
        cfg = tiny_config("nsb")
        model = BceModel(cfg, VOCABS_U, VOCABS_I, np.random.default_rng(14))
        rng = np.random.default_rng(15)
        batch = tiny_batch(rng, n=8)
        model.zero_grad()
        u, i, states = per_sample_forward(model, batch.user_features, batch.item_features)
        dots = np.einsum("btd,btd->bt", u, i)
        logits = model.heads[0].forward(dots[:, 0])
        _, grad_logits = bce_batch(logits, batch.bits[:, 0])
        grad_dots = np.zeros_like(dots)
        grad_dots[:, 0] = model.heads[0].backward(grad_logits / 8, dots[:, 0])
        per_sample_backward(model, grad_dots[:, :, None] * i, grad_dots[:, :, None] * u, states)
        for tower in (model.user.towers[1], model.item.towers[1]):
            for p in tower.params:
                assert np.all(p.grad == 0.0), p.name
        assert np.all(model.heads[1].w.grad == 0.0)
        assert any(np.any(g != 0.0) for g in full_grads(model)[: len(model.user.tables.params)])

    def test_single_task_nsb_matches_bce_trajectory(self):
        # Structurally, one-task shared-bottom IS the BCE baseline: same
        # init draw order, same loss, so updates coincide step for step.
        # (Production configs require >= 2 tasks; this constructs directly.)
        from gnolr.tensor import AdamConfig
        from gnolr.training import train_step

        cfg_nsb = tiny_config("nsb", num_levels=1, thresholds=(0.4,))
        cfg_bce = tiny_config("bce", num_levels=1, thresholds=(0.4,))
        nsb = BceModel(cfg_nsb, VOCABS_U, VOCABS_I, np.random.default_rng(16))
        bce = BceModel(cfg_bce, VOCABS_U, VOCABS_I, np.random.default_rng(16))
        rng = np.random.default_rng(17)
        adam = AdamConfig(learning_rate=0.01)
        tables_before = [p.value.copy() for p in nsb.user.tables.params]
        for step in range(5):
            batch = tiny_batch(rng, n=16, num_levels=1)
            l_nsb = train_step(nsb, batch, adam)
            l_bce = train_step(bce, batch, adam)
            assert l_nsb == pytest.approx(l_bce, abs=1e-12)
        for pa, pb in zip(nsb.params, bce.params):
            assert np.array_equal(pa.value, pb.value)
        assert not any(np.array_equal(p.value, before)
                       for p, before in zip(nsb.user.tables.params, tables_before))


class TestReweighting:
    def test_doubling_weight_doubles_positive_part(self):
        rng = np.random.default_rng(18)
        batch = tiny_batch(rng, n=32)
        losses = {}
        for w in (2.0, 4.0):
            cfg = tiny_config("nsb", positive_weights=(w, w))
            model = make_model(cfg, VOCABS_U, VOCABS_I, np.random.default_rng(19))
            losses[w] = model.loss_and_grad(batch)
        cfg = tiny_config("nsb", positive_weights=(1.0, 1.0))
        model = make_model(cfg, VOCABS_U, VOCABS_I, np.random.default_rng(19))
        base = model.loss_and_grad(batch)
        # L(w) = N + w * P  =>  L(4) - L(2) = 2 * (L(2) - L(1)) / 1... here:
        positive_part = losses[2.0] - base
        assert losses[4.0] - base == pytest.approx(3.0 * positive_part, abs=1e-9)

    def test_weights_below_one_rejected(self):
        from gnolr.errors import ArgumentError

        with pytest.raises(ArgumentError, match="positive weights"):
            tiny_config("nsb", positive_weights=(0.5, 2.0))

    def test_per_task_weights_apply_to_their_task(self):
        rng = np.random.default_rng(20)
        batch = tiny_batch(rng, n=32)
        cfg_a = tiny_config("nsb", positive_weights=(5.0, 1.0))
        cfg_b = tiny_config("nsb", positive_weights=(1.0, 5.0))
        model_a = make_model(cfg_a, VOCABS_U, VOCABS_I, np.random.default_rng(21))
        model_b = make_model(cfg_b, VOCABS_U, VOCABS_I, np.random.default_rng(21))
        assert model_a.loss_and_grad(batch) != pytest.approx(
            model_b.loss_and_grad(batch), abs=1e-9
        )


class TestBceModes:
    def test_raw_cosine_bounds_logit(self):
        cfg = tiny_config("bce", num_levels=1, thresholds=(0.4,), bce_raw_cosine=True)
        model = make_model(cfg, VOCABS_U, VOCABS_I, np.random.default_rng(22))
        rng = np.random.default_rng(23)
        uf = rng.integers(0, 10, size=(50, 2))
        itf = rng.integers(0, 12, size=(50, 2))
        scores = model.task_scores_all(uf, itf)
        # Logits bounded to [-1, 1] keep scores inside sigmoid([-1, 1]).
        lo, hi = 1 / (1 + np.exp(1.0)), 1 / (1 + np.exp(-1.0))
        assert np.all(scores >= lo - 1e-12)
        assert np.all(scores <= hi + 1e-12)
        assert model.heads[0].params == []

    def test_calibrated_head_has_learnable_scalars(self):
        cfg = tiny_config("bce", num_levels=1, thresholds=(0.4,))
        model = make_model(cfg, VOCABS_U, VOCABS_I, np.random.default_rng(24))
        names = [p.name for p in model.params]
        assert "head.w" in names and "head.b" in names
        assert model.heads[0].w.value[0, 0] == 1.0
        assert model.heads[0].b.value[0, 0] == 0.0


class TestLanes:
    """The item side runs on a lane thread beside the user side only when the usable
    CPUs hold both sides' BLAS threads; either way the caller sees what it saw serially."""

    @pytest.mark.parametrize(
        "cpus, environ, lanes",
        [
            (2, {"OPENBLAS_NUM_THREADS": "1"}, 2),
            (2, {}, 1),
            (2, {"OPENBLAS_NUM_THREADS": "2"}, 1),
            (1, {"OPENBLAS_NUM_THREADS": "1"}, 1),
            (1, {}, 1),
            (8, {"OPENBLAS_NUM_THREADS": "4"}, 2),
            (8, {"OPENBLAS_NUM_THREADS": "5"}, 1),
            (2, {"OMP_NUM_THREADS": "1"}, 2),
            (2, {"MKL_NUM_THREADS": "1"}, 2),
            # The first variable set to a positive count wins.
            (2, {"OPENBLAS_NUM_THREADS": "2", "OMP_NUM_THREADS": "1"}, 1),
            (2, {"GOTO_NUM_THREADS": "1", "OMP_NUM_THREADS": "2"}, 2),
            (2, {"OPENBLAS_NUM_THREADS": "0", "OMP_NUM_THREADS": "1"}, 2),
            (2, {"OPENBLAS_NUM_THREADS": "x", "OMP_NUM_THREADS": "2"}, 1),
            (2, {"OPENBLAS_NUM_THREADS": " 1 "}, 2),
            (2, {"OPENBLAS_NUM_THREADS": ""}, 1),
        ],
    )
    def test_lane_rule(self, cpus, environ, lanes):
        assert lane_count(cpus, environ) == lanes

    def test_lanes_follow_this_process(self):
        cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
        assert models.LANES == lane_count(cpus, os.environ)

    @staticmethod
    def two_lane_model(monkeypatch):
        monkeypatch.setattr(models, "LANES", 2)
        return make_model(tiny_config("gnolr"), VOCABS_U, VOCABS_I, np.random.default_rng(2))

    def test_item_side_dimension_error_reaches_the_caller(self, monkeypatch):
        model = self.two_lane_model(monkeypatch)
        batch = tiny_batch(np.random.default_rng(3))
        batch.item_features = batch.item_features[:, :1]
        with pytest.raises(DimensionError, match=r"expected ids of shape \(B, 2\)"):
            model.loss_and_grad(batch)

    @pytest.mark.parametrize("user_raises", [False, True])
    def test_the_caller_waits_for_the_item_side_and_raises_its_error(
        self, monkeypatch, user_raises
    ):
        model = self.two_lane_model(monkeypatch)
        finished = []

        def slow_item_forward(rows):
            time.sleep(0.2)
            finished.append(threading.current_thread() is not threading.main_thread())
            raise DimensionError("item side")

        def user_forward(rows):
            if user_raises:
                raise DimensionError("user side")
            return forward(rows)

        forward = model.user.forward
        monkeypatch.setattr(model.item, "forward", slow_item_forward)
        monkeypatch.setattr(model.user, "forward", user_forward)
        with pytest.raises(DimensionError, match="item side"):
            model.loss_and_grad(tiny_batch(np.random.default_rng(3)))
        assert finished == [True]

    def test_the_caller_waits_for_the_worker_before_raising_its_own_error(self):
        finished = []

        def slow():
            time.sleep(0.2)
            finished.append(True)

        def failing():
            raise DimensionError("caller")

        with pytest.raises(DimensionError, match="caller"):
            _side_by_side(slow, failing)
        assert finished == [True]

    def test_the_worker_runs_under_the_callers_errstate(self):
        with np.errstate(divide="raise"), pytest.raises(FloatingPointError):
            _side_by_side(lambda: np.ones(1) / 0.0, lambda: None)
        with np.errstate(divide="ignore"), warnings.catch_warnings():
            warnings.simplefilter("error")
            assert _side_by_side(lambda: np.ones(1) / 0.0, lambda: 1)[1] == 1

    @pytest.mark.parametrize("lanes", [1, 2])
    def test_a_degenerate_item_vector_warns_or_raises_as_on_one_lane(self, monkeypatch, lanes):
        monkeypatch.setattr(models, "LANES", lanes)
        model = make_model(tiny_config("gnolr"), VOCABS_U, VOCABS_I, np.random.default_rng(2))
        model.item.towers[0].weights[-1].value[...] = 0.0
        model.item.towers[0].biases[-1].value[...] = 0.0
        batch = tiny_batch(np.random.default_rng(3))
        with pytest.warns(DegenerateVectorWarning):
            model.loss_and_grad(batch)
        model.zero_grad()
        with warnings.catch_warnings():
            warnings.simplefilter("error", DegenerateVectorWarning)
            with pytest.raises(DegenerateVectorWarning):
                model.loss_and_grad(batch)
