"""Scoring and training from distinct feature rows against per-sample oracles.

``task_scores_all`` embeds each distinct user and item feature row once,
with no caches, and gathers the sub-embeddings back to the samples.  The
oracle is the scoring it replaced: the caching training forward on every
sample row.  The bar is bit-identical.

``loss_and_grad`` runs the towers forward and backward once per distinct
row and sums each sample's gradient onto its row.  The oracle is the step
it replaced, which ran every sample row; only the summation order of the
gradients differs, so the bar for them is a tolerance and the
finite-difference checker.
"""

import dataclasses
import pathlib
import sys
import tracemalloc
import warnings

import numpy as np
import pytest

from gnolr import models as model_module
from gnolr import tensor, training
from gnolr.data import DataConfig, build_bundle
from gnolr.encoders import _RowGroups
from gnolr.errors import DimensionError
from gnolr.models import Batch, ModelConfig, _TwinBase, make_model
from gnolr.metrics import RetrievalIndex, topk_retrieve_batch
from gnolr.tensor import DegenerateVectorWarning, l2_normalize
from gnolr.training import TrainConfig, evaluate, train
from tests.helpers import (
    checked_gradients,
    full_grads,
    forward_embeddings,
    forward_task_scores,
    per_sample_loss_and_grad,
    synthetic_bundle,
    write_synthetic_csv,
)

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
    for tower in (model.user.towers[-1], model.item.towers[0]):
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


def all_distinct_rows(rng):
    # No row repeats on either side, so no row is gathered.
    n = 40
    users = np.stack(np.unravel_index(rng.permutation(60)[:n], (10, 6)), axis=1)
    items = np.stack(np.unravel_index(rng.permutation(60)[:n], (12, 5)), axis=1)
    return users, items


ROWS = {
    "distinct": all_distinct_rows,
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
    x = model.user.tables.lookup(np.zeros((1, 2), dtype=np.int64))
    assert not model.user.towers[-1].forward(x)[0].any()


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
        distinct, of_row = getattr(model, side).embed_distinct(feature_rows)
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
    from distinct rows stays near 30 times, most of it the gathered pair
    blocks and the metrics' per-row arrays.
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
    bound = 60 * distinct * len(model.user.towers) * cfg.hidden_sizes[-1] * 8

    assert peak_bytes(lambda: evaluate(model, bundle)) < bound
    # The guard holds: the per-sample forward breaks the bound.
    monkeypatch.setattr(
        training,
        "_split_scores",
        lambda model, split: forward_task_scores(model, split.user_features, split.item_features),
    )
    assert peak_bytes(lambda: evaluate(model, bundle)) > 3 * bound


# ---------------------------------------------------------------------------
# Block boundaries: any block size gives the bits of one unblocked pass
# ---------------------------------------------------------------------------

BLOCK = 6


def blocked(monkeypatch, row_bytes):
    """Make blocks of ``row_bytes``-byte rows hold ``BLOCK`` rows."""
    monkeypatch.setattr(tensor, "BLOCK_BYTES", BLOCK * row_bytes)
    assert tensor.block_rows(row_bytes) == BLOCK


def unblocked(monkeypatch):
    monkeypatch.setattr(tensor, "BLOCK_BYTES", 1 << 40)


def pass_sizes(monkeypatch, tables):
    """Record the rows of each ``tables.lookup`` call: one per tower pass."""
    sizes: list[int] = []
    lookup = tables.lookup

    def counted(ids):
        sizes.append(len(ids))
        return lookup(ids)

    monkeypatch.setattr(tables, "lookup", counted)
    return sizes


AROUND_A_BLOCK = [BLOCK - 1, BLOCK, BLOCK + 1, 2 * BLOCK + 1]


@pytest.mark.parametrize("n", AROUND_A_BLOCK)
def test_item_embeddings_equal_one_unblocked_pass(monkeypatch, n):
    model = make("gnolr")
    rows = np.random.default_rng(n).integers(0, 12, size=(n, 2))
    unblocked(monkeypatch)
    want = model.item_embeddings(rows)
    # The widest array of a tower pass: the input, a hidden layer or the output.
    unified = len(model.item.towers) * model.cfg.hidden_sizes[-1]
    blocked(monkeypatch, 8 * max(model.item.tables.output_dim, *model.cfg.hidden_sizes, unified))
    sizes = pass_sizes(monkeypatch, model.item.tables)
    got = model.item_embeddings(rows)
    assert sizes == [BLOCK] * (n // BLOCK) + [n % BLOCK] * (n % BLOCK > 0)
    np.testing.assert_array_equal(got, want)


@pytest.mark.parametrize("zero_norm", [False, True], ids=["unit", "zero-norm"])
@pytest.mark.parametrize("n", AROUND_A_BLOCK)
def test_task_scores_equal_one_unblocked_pass(monkeypatch, n, zero_norm):
    model = make("gnolr")
    if zero_norm:
        zero_last_layers(model)
    rng = np.random.default_rng(n)
    users, items = rng.integers(0, 10, size=(n, 2)), rng.integers(0, 12, size=(n, 2))
    unblocked(monkeypatch)
    want = model.task_scores_all(users, items)
    # A block of gathered pairs holds T sub-embeddings per side.
    blocked(monkeypatch, 8 * len(model.user.towers) * model.cfg.hidden_sizes[-1])
    np.testing.assert_array_equal(model.task_scores_all(users, items), want)


@pytest.mark.parametrize("n", AROUND_A_BLOCK)
def test_topk_equals_one_unblocked_pass(monkeypatch, n):
    rng = np.random.default_rng(n)
    vectors = np.concatenate([l2_normalize(rng.normal(size=(40, 4))) for _ in range(3)], axis=1)
    vectors[::7] = vectors[1]  # tied distances, broken by id
    index = RetrievalIndex([f"i{j}" for j in rng.permutation(40)], vectors)
    users = np.concatenate([l2_normalize(rng.normal(size=(n, 4))) for _ in range(3)], axis=1)
    users[0, :4] = 0.0
    unblocked(monkeypatch)
    want = topk_retrieve_batch(users, index, 9)
    blocked(monkeypatch, 8 * len(index))
    np.testing.assert_array_equal(topk_retrieve_batch(users, index, 9), want)


# ---------------------------------------------------------------------------
# The training step on distinct rows
# ---------------------------------------------------------------------------


def one_row_each(rng):
    return np.tile([[3, 2]], (30, 1)), np.tile([[7, 1]], (30, 1))


STEP_ROWS = {
    "distinct": all_distinct_rows,
    "one-row": one_row_each,
    "duplicates": lambda rng: tuple(rows[:120] for rows in duplicate_rows(rng)),
    "oov": lambda rng: tuple(rows[:120] for rows in oov_rows(rng)),
}


def step_batch(rows, shuffled=False):
    """A batch over ``STEP_ROWS[rows]`` with one list per user id, as listwise batches hold.

    ``shuffled`` puts the lists in a random order and each list's samples in reverse,
    so neither side's rows come in the order that grouping sorts them into.
    """
    rng = np.random.default_rng(11)
    users, items = STEP_ROWS[rows](rng)
    order = np.argsort(users[:, 0], kind="stable")
    heads = np.flatnonzero(np.diff(users[order, 0], prepend=users[order[0], 0] - 1))
    lists = np.split(order, heads[1:])
    if shuffled:
        lists = [lists[k][::-1] for k in np.random.default_rng(13).permutation(len(lists))]
    users, items = users[np.concatenate(lists)], items[np.concatenate(lists)]
    ends = np.cumsum([len(samples) for samples in lists])
    bounds = list(zip(np.append(0, ends[:-1]).tolist(), ends.tolist()))
    bits = rng.integers(0, 2, size=(len(users), 3))
    deepest = np.max(np.where(bits > 0, np.arange(1, 4), 0), axis=1)
    return Batch(
        user_features=users,
        item_features=items,
        labels=np.where(deepest > 0, deepest + 1, 1).astype(np.int64),
        bits=bits.astype(np.int8),
        list_bounds=bounds,
    )


def test_step_fixtures_cover_the_edge_cases():
    def distinct(rows):
        return len(np.unique(rows, axis=0))

    batch = step_batch("distinct")
    assert distinct(batch.user_features) == distinct(batch.item_features) == 40
    batch = step_batch("one-row")
    assert distinct(batch.user_features) == distinct(batch.item_features) == 1
    assert len(batch.list_bounds) == 1
    batch = step_batch("duplicates")
    assert distinct(batch.user_features) < 15 and distinct(batch.item_features) < 15
    assert len(np.unique(batch.user_features[:, 0])) < distinct(batch.user_features)
    batch = step_batch("oov")
    assert (batch.user_features < 0).any() and (batch.item_features >= 12).any()
    # Mostly distinct rows, a few repeated.
    assert 60 < distinct(batch.user_features) < 120 and 60 < distinct(batch.item_features) < 120
    for rows in ("distinct", "duplicates", "oov"):
        batch, shuffled = step_batch(rows), step_batch(rows, shuffled=True)
        np.testing.assert_array_equal(np.sort(shuffled.user_features, axis=0),
                                      np.sort(batch.user_features, axis=0))
        list_users = [np.unique(shuffled.user_features[a:b, 0]) for a, b in shuffled.list_bounds]
        assert len(list_users) == len(batch.list_bounds)
        assert all(len(ids) == 1 for ids in list_users)
        for side in (shuffled.user_features, shuffled.item_features):
            assert not (np.lexsort(side.T[::-1]) == np.arange(len(side))).all()


@pytest.mark.parametrize("shuffled", [False, True], ids=["sorted-lists", "shuffled-lists"])
@pytest.mark.parametrize("zero_norm", [False, True], ids=["unit", "zero-norm"])
@pytest.mark.parametrize("rows", list(STEP_ROWS))
@pytest.mark.parametrize("name", list(KINDS))
def test_step_matches_the_per_sample_step(name, rows, zero_norm, shuffled):
    batch = step_batch(rows, shuffled)
    models = [make(name), make(name)]
    if zero_norm:
        for model in models:
            zero_last_layers(model)
    got = models[0].loss_and_grad(batch)
    want = per_sample_loss_and_grad(models[1], batch)
    if rows == "one-row":
        # One distinct row runs as a BLAS gemv, whose sums round differently.
        assert got == pytest.approx(want, rel=1e-12)
    else:
        # Every other row subset runs as a gemm: the dots, so the loss, are exact.
        assert got == want
    for p, g, h in zip(models[0].params, full_grads(models[0]), full_grads(models[1])):
        np.testing.assert_allclose(g, h, rtol=1e-10, atol=1e-10, err_msg=p.name)
    for side in ("user", "item"):
        for (_, got_rows, _), (_, want_rows, _) in zip(
            getattr(models[0], side).tables.take_grads(),
            getattr(models[1], side).tables.take_grads(),
        ):
            np.testing.assert_array_equal(got_rows, want_rows)


def workspace_batches():
    """Batches whose distinct rows shrink, grow past the first batch's rows (as a
    listwise batch can), drop to one (a BLAS gemv) and end on a short batch."""
    rng = np.random.default_rng(12)
    grids = [np.stack(np.unravel_index(rng.permutation(60), shape), axis=1)
             for shape in ((10, 6), (12, 5))]
    batches = []
    for distinct, size in ((40, 48), (6, 48), (58, 90), (1, 20), (7, 7)):
        users, items = (grid[np.sort(rng.integers(0, distinct, size=size))] for grid in grids)
        users[:distinct], items[:distinct] = grids[0][:distinct], grids[1][:distinct]
        bits = rng.integers(0, 2, size=(size, 3))
        deepest = np.max(np.where(bits > 0, np.arange(1, 4), 0), axis=1)
        labels = np.where(deepest > 0, deepest + 1, 1).astype(np.int64)
        batches.append(Batch(users, items, labels, bits.astype(np.int8)))
    return batches


@pytest.mark.parametrize("zero_norm", [False, True], ids=["unit", "zero-norm"])
@pytest.mark.parametrize("name", ["gnolr", "nsb"])
def test_the_workspace_carries_nothing_between_steps(name, zero_norm):
    """Each step's loss and gradients are a fresh model's, bit for bit."""
    batches = workspace_batches()
    assert [len(np.unique(b.user_features, axis=0)) for b in batches] == [40, 6, 58, 1, 7]
    assert [len(np.unique(b.item_features, axis=0)) for b in batches] == [40, 6, 58, 1, 7]
    model = make(name)
    if zero_norm:
        zero_last_layers(model)
    capacity = []
    for batch in batches:
        fresh = make(name)
        if zero_norm:
            zero_last_layers(fresh)
        assert model.loss_and_grad(batch) == fresh.loss_and_grad(batch)
        for p, got, want in zip(model.params, full_grads(model), full_grads(fresh)):
            assert got.tobytes() == want.tobytes(), p.name
        model.zero_grad()
        capacity.append(len(model.user.towers[0].workspace.arrays[0]))
    assert capacity == [48, 48, 90, 90, 90]


@pytest.mark.parametrize("name", list(KINDS))
def test_step_gradients_match_finite_differences(name):
    batch = step_batch("duplicates")
    report = checked_gradients(make(name), batch, num_samples=80)
    assert report.passed, (
        f"{name}: rel err {report.max_rel_error:.2e} at "
        f"{report.worst_param}[{report.worst_index}]"
    )


def count_lookups(monkeypatch, model):
    """The (side, rows) of every table lookup the model makes from now on."""
    looked_up = []

    def counting(side, lookup):
        def counted(ids):
            looked_up.append((side, len(ids)))
            return lookup(ids)

        return counted

    for side in ("user", "item"):
        tables = getattr(model, side).tables
        monkeypatch.setattr(tables, "lookup", counting(side, tables.lookup))
    return looked_up


@pytest.mark.parametrize("rows", list(STEP_ROWS))
def test_towers_run_once_per_distinct_row(monkeypatch, rows):
    monkeypatch.setattr(model_module, "LANES", 1)
    model = make("gnolr-listwise")
    batch = step_batch(rows)
    looked_up = count_lookups(monkeypatch, model)
    model.loss_and_grad(batch)
    assert looked_up == [
        ("item", len(np.unique(batch.item_features, axis=0))),
        ("user", len(np.unique(batch.user_features, axis=0))),
    ]


@pytest.mark.parametrize("rows", list(STEP_ROWS))
def test_towers_run_once_per_distinct_row_on_two_lanes(monkeypatch, rows):
    """The two sides look up at the same time, so only the set of lookups is fixed."""
    monkeypatch.setattr(model_module, "LANES", 2)
    model = make("gnolr-listwise")
    batch = step_batch(rows)
    looked_up = count_lookups(monkeypatch, model)
    model.loss_and_grad(batch)
    assert sorted(looked_up) == [
        ("item", len(np.unique(batch.item_features, axis=0))),
        ("user", len(np.unique(batch.user_features, axis=0))),
    ]


@pytest.mark.parametrize("zero_norm", [False, True], ids=["unit", "zero-norm"])
@pytest.mark.parametrize("name", list(KINDS))
def test_two_lanes_step_as_one_lane_bit_for_bit(monkeypatch, name, zero_norm):
    """The item side on the lane thread gives the same loss and gradients, step after
    step, over batches whose row counts grow the workspaces and shrink again.  The
    threads switch as often as the interpreter lets them, so a write one side made
    into the other's arrays would show."""
    batches = [step_batch(rows, shuffled) for shuffled in (False, True) for rows in STEP_ROWS]
    assert len({len(b.labels) for b in batches}) > 2
    one, two = make(name), make(name)
    if zero_norm:
        zero_last_layers(one)
        zero_last_layers(two)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for batch in batches:
            monkeypatch.setattr(model_module, "LANES", 1)
            want = one.loss_and_grad(batch)
            monkeypatch.setattr(model_module, "LANES", 2)
            assert two.loss_and_grad(batch) == want
            for p, got, want in zip(two.params, full_grads(two), full_grads(one)):
                assert got.tobytes() == want.tobytes(), p.name
            one.zero_grad()
            two.zero_grad()
    finally:
        sys.setswitchinterval(interval)


def test_row_groups_equal_the_row_wise_unique():
    rng = np.random.default_rng(4)
    extremes = np.array([-(2**62), -1, 0, 2**62])
    for rows in (
        rng.integers(-3, 3, size=(500, 4)),
        rng.integers(-(2**62), 2**62, size=(50, 3))[rng.integers(0, 50, size=80)],
        extremes[rng.integers(0, 4, size=(60, 2))],
        np.repeat(rng.integers(0, 9, size=(20, 2)), 3, axis=0),
        rng.integers(0, 2, size=(9, 1)),
        rng.permutation(30)[:, None] - 15,
        np.zeros((0, 3), dtype=np.int64),
    ):
        want_rows, want_first, want_of = np.unique(
            rows, axis=0, return_index=True, return_inverse=True
        )
        groups = _RowGroups(rows)
        distinct = groups.distinct(rows)
        if not groups.repeats:
            # Every row is its own group, in batch order.
            assert len(want_rows) == len(rows)
            np.testing.assert_array_equal(distinct, rows)
            continue
        np.testing.assert_array_equal(distinct[groups.of], rows)
        np.testing.assert_array_equal(distinct, want_rows)
        np.testing.assert_array_equal(groups.first, want_first)
        np.testing.assert_array_equal(groups.of, want_of.reshape(-1))
        # Each group holds its samples in batch order.
        ends = np.append(groups.starts[1:], len(rows))
        for k, (start, end) in enumerate(zip(groups.starts, ends)):
            np.testing.assert_array_equal(groups.order[start:end], np.flatnonzero(groups.of == k))


def test_row_groups_sum_each_rows_samples():
    rng = np.random.default_rng(3)
    for rows in (
        rng.integers(0, 3, size=(200, 2)),
        (rng.permutation(50) * 3 - 60)[:, None],
        np.tile([[4, -1]], (9, 1)),
        np.zeros((0, 2), dtype=np.int64),
    ):
        groups = _RowGroups(rows)
        distinct = groups.distinct(rows)
        np.testing.assert_array_equal(groups.samples(distinct), rows)
        values = rng.normal(size=(len(rows), 2, 3))
        want = np.zeros((len(distinct), 2, 3))
        for k, row in enumerate(distinct):
            want[k] = values[(rows == row).all(axis=1)].sum(axis=0)
        np.testing.assert_allclose(groups.sum(values), want, rtol=1e-12, atol=1e-12)


def sample_feature_bundle(tmp_path):
    """Synthetic data plus a user feature drawn per sample, not per user."""
    rng = np.random.default_rng(5)
    base = write_synthetic_csv(tmp_path / "base.csv", n_rows=1500, seed=4)
    lines = pathlib.Path(base).read_text().splitlines()
    rows = [lines[0] + ",uf_mood"]
    rows += [f"{line},m{rng.integers(0, 3)}" for line in lines[1:]]
    csv_path = tmp_path / "moods.csv"
    csv_path.write_text("\n".join(rows) + "\n")
    return build_bundle(DataConfig(csv_path=str(csv_path), feedback=("click", "pay")))


@pytest.mark.parametrize("listwise", [False, True], ids=["pointwise", "listwise"])
def test_train_numbers_rows_by_features(tmp_path, monkeypatch, listwise):
    """``train`` groups feature rows, not entities: its epochs match the per-sample step."""
    bundle = sample_feature_bundle(tmp_path)
    config = TrainConfig(
        kind="gnolr", listwise=listwise, epochs=2, batch_size=64, list_batch_size=4,
        embedding_dim=4, hidden_sizes=(8, 4), learning_rate=0.01, seed=2,
    )
    result = train(bundle, config)
    moods = bundle.train.user_features
    assert len(np.unique(moods, axis=0)) > len(np.unique(moods[:, 0]))

    monkeypatch.setattr(_TwinBase, "loss_and_grad", per_sample_loss_and_grad)
    oracle = train(bundle, config)
    assert result.log_lines == oracle.log_lines
    for name, value in result.checkpoint.params.items():
        np.testing.assert_allclose(value, oracle.checkpoint.params[name], rtol=1e-7, atol=1e-9)
