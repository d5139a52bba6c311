"""Scoring from distinct feature rows against the per-sample training forward.

``task_scores_all`` embeds each distinct user and item feature row once,
with no caches, and gathers the sub-embeddings back to the samples.  The
oracle is the scoring it replaced: the caching training forward on every
sample row.  The bar is bit-identical.
"""

import dataclasses
import tracemalloc
import warnings

import numpy as np
import pytest

from gnolr import training
from gnolr.errors import DimensionError
from gnolr.models import ModelConfig, make_model
from gnolr.tensor import DegenerateVectorWarning
from gnolr.training import evaluate
from tests.helpers import forward_embeddings, forward_task_scores, synthetic_bundle

VOCABS_U = {"__user_id": 10, "uf_a": 6}
VOCABS_I = {"__item_id": 12, "if_b": 5}

KINDS = {
    "gnolr": dict(kind="gnolr"),
    "gnolr-v0": dict(kind="gnolr", variant="v0"),
    "gnolr-v1": dict(kind="gnolr", variant="v1"),
    "gnolr-listwise": dict(kind="gnolr", listwise=True),
    "neural_olr": dict(kind="neural_olr"),
    "bce": dict(kind="bce", bce_target_level=2),
    "nsb": dict(kind="nsb"),
}


def make(name, seed=1):
    cfg = ModelConfig(
        num_levels=3,
        thresholds=(0.2, 0.9, 1.6),
        gamma=1.5,
        embedding_dim=4,
        hidden_sizes=(16, 8),
        **KINDS[name],
    )
    return make_model(cfg, VOCABS_U, VOCABS_I, np.random.default_rng(seed))


def zero_last_layers(model):
    """Zero the deepest user tower's and the first item tower's output layer,
    so those sub-embeddings are all-zero vectors."""
    for tower in (model.encoder.user_towers[-1], model.encoder.item_towers[0]):
        tower.weights[-1].value[...] = 0.0
        tower.biases[-1].value[...] = 0.0


def duplicate_rows(rng):
    # Few values per column: rows repeat, and one user id comes with several
    # sample-level feature values.
    users = rng.integers(0, 10, size=(600, 2)) % (4, 3)
    return users, rng.integers(0, 12, size=(600, 2)) % (5, 2)


def oov_rows(rng):
    # Negative ids and ids past the vocabulary all land on OOV row 0.
    return rng.integers(-3, 14, size=(400, 2)), rng.integers(-2, 16, size=(400, 2))


def one_user_row(rng):
    users = np.tile([[3, 2]], (300, 1))
    return users, rng.integers(0, 5, size=(300, 2))


def many_rows(rng):
    # More than one 8192-row chunk; the last chunk keeps several rows.
    n = 8192 + 700
    return rng.integers(0, 10, size=(n, 2)), rng.integers(0, 12, size=(n, 2)) % (12, 5)


ROWS = {
    "duplicates": duplicate_rows,
    "oov": oov_rows,
    "one-user-row": one_user_row,
    "many-rows": many_rows,
}


def fixture(rows, zero_norm, name="gnolr"):
    model = make(name)
    if zero_norm:
        zero_last_layers(model)
    user_rows, item_rows = ROWS[rows](np.random.default_rng(7))
    return model, user_rows, item_rows


@pytest.fixture(autouse=True)
def quiet_degenerate_vectors():
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", DegenerateVectorWarning)
        yield


def test_fixtures_cover_the_edge_cases():
    users, items = duplicate_rows(np.random.default_rng(7))
    assert len(np.unique(users, axis=0)) < len(users) / 10
    assert len(np.unique(users[:, 0])) < len(np.unique(users, axis=0))
    users, items = oov_rows(np.random.default_rng(7))
    assert (users < 0).any() and (users >= 10).any() and (items >= 12).any()
    assert len(np.unique(one_user_row(np.random.default_rng(7))[0], axis=0)) == 1
    assert len(many_rows(np.random.default_rng(7))[0]) > 8192
    model, _, _ = fixture("duplicates", zero_norm=True)
    x = model.tables_user.lookup(np.zeros((1, 2), dtype=np.int64))
    assert not model.encoder.user_towers[-1].infer(x).any()


@pytest.mark.parametrize("zero_norm", [False, True], ids=["unit", "zero-norm"])
@pytest.mark.parametrize("rows", list(ROWS))
@pytest.mark.parametrize("name", list(KINDS))
def test_scores_equal_the_training_forward(name, rows, zero_norm):
    model, user_rows, item_rows = fixture(rows, zero_norm, name)
    got = model.task_scores_all(user_rows, item_rows)
    np.testing.assert_array_equal(got, forward_task_scores(model, user_rows, item_rows))


@pytest.mark.parametrize("zero_norm", [False, True], ids=["unit", "zero-norm"])
@pytest.mark.parametrize("rows", list(ROWS))
def test_per_sample_and_entity_embeddings_equal_the_training_forward(rows, zero_norm):
    model, user_rows, item_rows = fixture(rows, zero_norm, "nsb")
    for side, feature_rows in (("user", user_rows), ("item", item_rows)):
        want = forward_embeddings(model, side, feature_rows)
        distinct, of_row = model.embed_distinct(side, feature_rows)
        assert len(distinct) == len(np.unique(feature_rows, axis=0))
        np.testing.assert_array_equal(distinct[of_row], want)
        embed = model.user_embeddings if side == "user" else model.item_embeddings
        np.testing.assert_array_equal(embed(feature_rows), want)


def test_mismatched_row_counts_rejected():
    model = make("gnolr")
    with pytest.raises(DimensionError):
        model.task_scores_all(np.zeros((3, 2), np.int64), np.zeros((2, 2), np.int64))


def test_no_rows_give_an_empty_score_matrix():
    for name, columns in (("gnolr", 3), ("bce", 1)):
        scores = make(name).task_scores_all(np.zeros((0, 2), np.int64), np.zeros((0, 2), np.int64))
        assert scores.shape == (0, columns)


def tile_split(split, times):
    """The split's samples repeated ``times`` times (its user lists unchanged)."""
    arrays = {f.name: getattr(split, f.name) for f in dataclasses.fields(split)}
    del arrays["lists"]
    tiled = {name: np.tile(a, (times,) + (1,) * (a.ndim - 1)) for name, a in arrays.items()}
    return dataclasses.replace(split, **tiled)


def peak_bytes(fn):
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_evaluate_memory_follows_the_distinct_rows(tmp_path, monkeypatch):
    """About 20k test rows over about 300 distinct users and 300 distinct items.

    The per-sample caching forward held every tower layer of 8,192 rows at
    once, over 300 times the distinct-row embedding matrices here; scoring
    from distinct rows stays near 30 times, most of it the gathered
    8,192-pair blocks and the metrics' per-row arrays.
    """
    bundle = synthetic_bundle(tmp_path, n_users=300, n_items=300, n_rows=6000, seed=8)
    test = tile_split(bundle.test, -(-20000 // bundle.test.num_samples))
    bundle = dataclasses.replace(bundle, test=test)
    cfg = ModelConfig(
        kind="gnolr", num_levels=2, thresholds=(0.0, 1.0), embedding_dim=8, hidden_sizes=(64, 32)
    )
    model = make_model(
        cfg,
        dict(zip(bundle.user_feature_names, bundle.user_vocab_sizes)),
        dict(zip(bundle.item_feature_names, bundle.item_vocab_sizes)),
        np.random.default_rng(0),
    )
    distinct = sum(len(np.unique(r, axis=0)) for r in (test.user_features, test.item_features))
    assert test.num_samples >= 20000 and distinct <= 700
    bound = 60 * distinct * model.encoder.num_levels * cfg.hidden_sizes[-1] * 8

    assert peak_bytes(lambda: evaluate(model, bundle)) < bound
    # The guard holds: the per-sample forward breaks the bound.
    monkeypatch.setattr(
        training,
        "_split_scores",
        lambda model, split: forward_task_scores(model, split.user_features, split.item_features),
    )
    assert peak_bytes(lambda: evaluate(model, bundle)) > 3 * bound
