"""Synthetic dataset builders and reference oracles shared by the tests."""

from __future__ import annotations

import math
import os
import pathlib
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from gnolr.data import (
    DataConfig,
    DatasetBundle,
    ListIndex,
    Split,
    _parse_csv,
    apply_bins,
    build_bundle,
    fit_bins,
    split_indices,
)
from gnolr.errors import ArgumentError, IngestionError, OptimizerError
from gnolr.feedback import FeedbackSchema, map_to_ordinal_array
from gnolr.models import ModelConfig
from gnolr.tensor import Parameter, stable_sigmoid, stable_softplus

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent


def find_ml1m_ratings():
    """Locate a MovieLens-1M ratings.dat, if one was provided.

    Looks at $GNOLR_ML1M (a ratings.dat path or its directory), then at
    data/ml-1m/ratings.dat under the repository root.  Returns None when
    the dataset is not available.
    """
    candidates = []
    env = os.environ.get("GNOLR_ML1M")
    if env:
        candidates.append(pathlib.Path(env))
    candidates.append(REPO_ROOT / "data" / "ml-1m")
    for cand in candidates:
        if cand.is_file():
            return cand
        if (cand / "ratings.dat").is_file():
            return cand / "ratings.dat"
    return None


def ml1m_to_csv(ratings_path, out_csv):
    """Convert `UserID::MovieID::Rating::Timestamp` lines to the CSV interface."""
    lines = ["user_id,item_id,timestamp,rating"]
    with open(ratings_path, encoding="latin-1") as fh:
        for line in fh:
            parts = line.strip().split("::")
            if len(parts) != 4:
                continue
            user, movie, rating, ts = parts
            lines.append(f"u{user},m{movie},{ts},{rating}")
    out_csv.write_text("\n".join(lines) + "\n")
    return str(out_csv)


def imbalanced_single_feedback_csv(path, n_users=80, n_items=200, n_rows=12000, seed=42):
    """Noisy, imbalanced one-feedback interactions from latent affinities."""
    rng = np.random.default_rng(seed)
    user_vec = rng.normal(size=(n_users, 4))
    item_vec = rng.normal(size=(n_items, 4))
    lines = ["user_id,item_id,timestamp,click"]
    timestamps = rng.permutation(n_rows)
    for row in range(n_rows):
        u = int(rng.integers(0, n_users))
        i = int(rng.integers(0, n_items))
        affinity = float(user_vec[u] @ item_vec[i])
        p = 1.0 / (1.0 + np.exp(-(1.8 * affinity - 3.2)))
        lines.append(f"u{u},i{i},{int(timestamps[row])},{int(rng.random() < p)}")
    path.write_text("\n".join(lines) + "\n")
    return str(path)


def write_synthetic_csv(
    path,
    n_users=40,
    n_items=60,
    n_rows=3000,
    n_clusters=4,
    pay_subclusters=2,
    noise=0.0,
    seed=0,
    two_level=True,
    three_level=False,
    side_features=False,
):
    """Planted progressive-preference interactions.

    Users and items carry hidden cluster types; a click happens exactly on
    a cluster match, and a pay happens on a click whose sub-cluster also
    matches (level-2 positives are a subset of level-1 positives).
    ``three_level`` adds a buy column: a pay whose second sub-cluster (of
    two) also matches.  ``side_features`` adds each side's cluster as a
    feature, ``uf_cluster`` and ``if_cluster``.  ``noise`` flips each
    emitted bit with the given probability, and the labels are recoverable
    from the id embeddings alone.
    """
    rng = np.random.default_rng(seed)
    user_cluster = rng.integers(0, n_clusters, size=n_users)
    item_cluster = rng.integers(0, n_clusters, size=n_items)
    user_sub = rng.integers(0, pay_subclusters, size=n_users)
    item_sub = rng.integers(0, pay_subclusters, size=n_items)
    columns = ["click", "pay", "buy"][: 3 if three_level else 2 if two_level else 1]
    if three_level:
        user_deep = rng.integers(0, 2, size=n_users)
        item_deep = rng.integers(0, 2, size=n_items)

    lines = ["user_id,item_id,timestamp," + ",".join(columns)]
    if side_features:
        lines[0] += ",uf_cluster,if_cluster"
    timestamps = rng.permutation(n_rows)
    for row in range(n_rows):
        u = int(rng.integers(0, n_users))
        i = int(rng.integers(0, n_items))
        click = int(user_cluster[u] == item_cluster[i])
        pay = int(click and user_sub[u] == item_sub[i])
        bits = [click, pay]
        if three_level:
            bits.append(int(pay and user_deep[u] == item_deep[i]))
        if noise > 0.0:
            bits = [1 - b if rng.random() < noise else b for b in bits]
        fields = [f"u{u}", f"i{i}", str(timestamps[row])] + [str(b) for b in bits[: len(columns)]]
        if side_features:
            fields += [f"c{user_cluster[u]}", f"c{item_cluster[i]}"]
        lines.append(",".join(fields))
    path.write_text("\n".join(lines) + "\n")
    return str(path)


def synthetic_bundle(tmp_path, name="synth.csv", **kwargs):
    two_level = kwargs.get("two_level", True)
    csv_path = write_synthetic_csv(tmp_path / name, **kwargs)
    feedback = ("click", "pay") if two_level else ("click",)
    return build_bundle(DataConfig(csv_path=csv_path, feedback=feedback))


def per_sample_forward(model, user_rows, item_rows):
    """Both sides' forward with no rows grouped: every sample row is looked up
    and run through each tower; returns (u, i, states)."""
    outs, states = [], []
    for side, rows in ((model.user, user_rows), (model.item, item_rows)):
        x = side.tables.lookup(rows)
        subs, tower_states = zip(*(tower.forward(x) for tower in side.towers))
        outs.append(np.stack(subs, axis=1))
        states.append((rows, tower_states))
    return outs[0], outs[1], states


def per_sample_backward(model, grad_u, grad_i, states):
    """The backward of ``per_sample_forward``: the towers' input gradients summed in
    tower order, and the tables get one gradient row per sample."""
    for side, grad, (rows, tower_states) in zip((model.user, model.item), (grad_u, grad_i), states):
        grads = [
            tower.backward(grad[:, c, :], state)
            for c, (tower, state) in enumerate(zip(side.towers, tower_states))
        ]
        side.tables.backward(sum(grads[1:], grads[0]), rows)


def forward_task_scores(model, user_rows, item_rows, chunk=8192):
    """Oracle for ``task_scores_all``: the per-sample training forward.

    Both towers run once per sample row, keeping every cache, ``chunk``
    rows at a time, as scoring worked before it embedded distinct rows.
    """
    out = []
    for start in range(0, len(user_rows), chunk):
        stop = start + chunk
        u, i, _ = per_sample_forward(model, user_rows[start:stop], item_rows[start:stop])
        out.append(model._scores(np.einsum("btd,btd->bt", u, i)))
    return np.concatenate(out)


def per_sample_loss_and_grad(model, batch):
    """Oracle for ``loss_and_grad``: the training step that ran every sample row.

    Both towers run forward and backward once per sample, and the tables
    scatter one gradient row per sample, as before the step ran distinct rows.
    """
    u, i, states = per_sample_forward(model, batch.user_features, batch.item_features)
    dots = np.einsum("btd,btd->bt", u, i)
    total, grad_dots = model._objective(batch, dots)
    per_sample_backward(model, grad_dots[:, :, None] * i, grad_dots[:, :, None] * u, states)
    return total


def full_grads(model) -> list[np.ndarray]:
    """Every parameter's pending gradient at full size, in ``model.params`` order.

    A table keeps its gradient as (rows, summed rows) until ``take_grads``;
    here the sums are written into zeros of the table's shape and the
    record stays.  Oracles read tables only through this: a table's
    ``grad`` attribute would be made up as zeros on first read.
    """
    grads = []
    for tables in (model.user.tables, model.item.tables):
        for name, table in tables.tables.items():
            grad = np.zeros_like(table.value)
            if name in tables.pending:
                rows, sums = tables.pending[name]
                grad[rows] = sums
            grads.append(grad)
    return grads + [p.grad for p in model.params[len(grads) :]]


def checked_gradients(model, batch, num_samples=120, tolerance=1e-4, seed=99):
    """Analytic grads from one ``loss_and_grad`` vs central differences.

    Embedding tables are rescaled to a generic parameter point first: at
    the tiny init scale the pre-normalization outputs have near-zero norm,
    whose 1/||v||^3 curvature drowns an h=1e-5 central difference in
    truncation error.
    """
    for p in model.params:
        if p.name.startswith(("emb_u.", "emb_i.")):
            p.value *= 10.0
    model.zero_grad()
    model.loss_and_grad(batch)
    grads = [g.copy() for g in full_grads(model)]

    def pure_loss():
        value = model.loss_and_grad(batch)
        model.zero_grad()
        return value

    return finite_diff_check(
        pure_loss,
        model.params,
        h=1e-5,
        tolerance=tolerance,
        num_samples=num_samples,
        rng=np.random.default_rng(seed),
        grads=grads,
    )


def forward_embeddings(model, side, feature_rows):
    """Oracle for unified embeddings: each tower's caching training forward, per row."""
    tower_side = model.user if side == "user" else model.item
    x = tower_side.tables.lookup(feature_rows)
    return np.concatenate([tower.forward(x)[0] for tower in tower_side.towers], axis=1)


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


def ranked_ids(index, rows) -> list:
    """The item ids of ``topk_retrieve``'s index rows, or of each of ``topk_retrieve_batch``'s."""
    return np.asarray(index.item_ids, dtype=object)[np.asarray(rows, dtype=np.intp)].tolist()


def brute_force_topk(user, index, k) -> list[str]:
    """Oracle for the ranking rule: the difference-form distance to every item,
    then a sort of (distance, id string) pairs; the first K ids."""
    diff = index.vectors - user[None, :]
    dist = np.einsum("ij,ij->i", diff, diff).tolist()
    return [item for _, item in sorted(zip(dist, index.item_ids))[:k]]


def set_recalls(bundle, ks, split_name, level, user_vectors, index) -> dict[str, float]:
    """Oracle for ``retrieval_recalls``: the sets of id strings it replaced.

    Each level's positives are a set of item ids per user; each user is
    ranked by ``brute_force_topk``, and recall@K is |top-K & positives| /
    |positives|, averaged with ``np.mean`` in ascending user order.  Users
    without positives at a level are skipped, and a level without any has
    no key.
    """
    split = bundle.split(split_name)
    levels = [level] if level is not None else range(1, bundle.num_feedbacks + 1)
    out = {}
    for lvl in levels:
        per_user: dict[int, set[str]] = {}
        for row in np.nonzero(split.labels > lvl)[0]:
            per_user.setdefault(int(split.user_index[row]), set()).add(
                bundle.items[int(split.item_index[row])]
            )
        for k in ks:
            recalls = [
                len(set(brute_force_topk(user_vectors[uid], index, k)) & positives)
                / len(positives)
                for uid, positives in sorted(per_user.items())
            ]
            if recalls:
                out[f"recall_t{lvl}@{k}"] = float(np.mean(recalls))
    return out


def loop_write_embeddings(path, entity_ids, matrix, num_levels):
    """Oracle for ``write_embeddings``: every value formatted on its own with "{:.9g}"."""
    matrix = np.asarray(matrix, dtype=np.float32)
    dim = matrix.shape[1]
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"#gnolr-emb v1 dim={dim} T={num_levels}\n")
        for eid, row in zip(entity_ids, matrix.tolist()):
            fh.write(str(eid) + "\t" + "\t".join(map("{:.9g}".format, row)) + "\n")


def loop_build_lists(user_index, max_len=500, rng=None):
    """Oracle for ``build_lists``: per-row dict grouping, then chunking."""
    if rng is None:
        rng = np.random.default_rng(0)
    groups = {}
    for row, uid in enumerate(np.asarray(user_index, dtype=np.int64).tolist()):
        groups.setdefault(uid, []).append(row)
    offsets, sample_idx, list_user = [0], [], []
    for uid, rows in groups.items():
        if len(rows) > max_len:
            rows = [rows[i] for i in rng.permutation(len(rows))]
        for start in range(0, len(rows), max_len):
            sample_idx.extend(rows[start : start + max_len])
            offsets.append(len(sample_idx))
            list_user.append(uid)
    return ListIndex(
        offsets=np.asarray(offsets, dtype=np.int64),
        sample_idx=np.asarray(sample_idx, dtype=np.int64),
        list_user=np.asarray(list_user, dtype=np.int64),
    )


class _Vocab:
    """First-seen token numbering; 0 is the reserved OOV/missing row."""

    def __init__(self):
        self.mapping = {}

    def fit(self, token):
        if token is not None and token not in self.mapping:
            self.mapping[token] = len(self.mapping) + 1

    def get(self, token):
        if token is None:
            return 0
        return self.mapping.get(token, 0)

    @property
    def size(self):
        return len(self.mapping) + 1


def loop_build_bundle(config):
    """Oracle for ``build_bundle``: the row-loop ingest with ``_Vocab`` dicts.

    Takes the validated columns of ``_parse_csv``, turns them back into
    per-row Python values (None for missing), then bins each value with a
    scalar ``apply_bins`` call, numbers tokens, users and items with dicts
    and picks each entity's feature row in a loop over all rows.
    """
    raw = _parse_csv(config)
    n = raw["timestamps"].shape[0]
    if n == 0:
        raise IngestionError(f"{config.csv_path}: no data rows")

    def as_values(c, vals):
        if c in config.numeric_features:
            return [None if np.isnan(v) else float(v) for v in vals]
        return [v if v != "" else None for v in vals]

    order = np.argsort(raw["timestamps"], kind="stable")
    user_keys = [raw["user_keys"][i] for i in order]
    item_ids = [raw["item_ids"][i] for i in order]
    timestamps = raw["timestamps"][order]
    features = {}
    for c, vals in raw["features"].items():
        values = as_values(c, vals)
        features[c] = [values[i] for i in order]
    feedback = {c: np.asarray(vals, dtype=np.int64)[order] for c, vals in raw["feedback"].items()}

    counts = [int(feedback[c].sum()) for c in config.feedback]
    schema = FeedbackSchema.from_counts(list(config.feedback), counts)
    bits = np.stack([feedback[config.feedback[i]] for i in schema.order], axis=1)
    labels = map_to_ordinal_array(bits)

    train_idx, val_idx, test_idx = split_indices(
        np.arange(n), config.train_fraction, config.validation_fraction_of_train
    )

    binning = {}
    encoded_features = {}
    for c in raw["uf_cols"] + raw["if_cols"]:
        vals = features[c]
        if c in config.numeric_features:
            train_vals = [vals[i] for i in train_idx if vals[i] is not None]
            if not train_vals:
                raise IngestionError(f"numeric feature '{c}' has no training values")
            boundaries = fit_bins(np.asarray(train_vals), config.n_bins)
            binning[c] = boundaries
            encoded_features[c] = [
                None if v is None else str(apply_bins(v, boundaries)) for v in vals
            ]
        else:
            encoded_features[c] = vals

    user_feature_names = (["__user_id"] if config.embed_user_id else []) + raw["uf_cols"]
    item_feature_names = (["__item_id"] if config.embed_item_id else []) + raw["if_cols"]
    encoded_features["__user_id"] = user_keys
    encoded_features["__item_id"] = item_ids

    vocabs = {}
    for c in user_feature_names + item_feature_names:
        vocab = _Vocab()
        for i in train_idx:
            vocab.fit(encoded_features[c][i])
        vocabs[c] = vocab

    def encode(names):
        out = np.zeros((n, len(names)), dtype=np.int64)
        for j, c in enumerate(names):
            out[:, j] = [vocabs[c].get(v) for v in encoded_features[c]]
        return out

    user_features_all = encode(user_feature_names)
    item_features_all = encode(item_feature_names)

    user_pos, item_pos = {}, {}
    for key in user_keys:
        user_pos.setdefault(key, len(user_pos))
    for key in item_ids:
        item_pos.setdefault(key, len(item_pos))
    user_index = np.asarray([user_pos[k] for k in user_keys], dtype=np.int64)
    item_index = np.asarray([item_pos[k] for k in item_ids], dtype=np.int64)

    user_table = np.zeros((len(user_pos), len(user_feature_names)), dtype=np.int64)
    seen_u = np.zeros(len(user_pos), dtype=bool)
    item_table = np.zeros((len(item_pos), len(item_feature_names)), dtype=np.int64)
    seen_i = np.zeros(len(item_pos), dtype=bool)
    for row in range(n):
        u = user_index[row]
        if not seen_u[u]:
            user_table[u] = user_features_all[row]
            seen_u[u] = True
        it = item_index[row]
        if not seen_i[it]:
            item_table[it] = item_features_all[row]
            seen_i[it] = True

    def make_split(idx, salt):
        rng = np.random.default_rng([config.seed, salt])
        return Split(
            user_index=user_index[idx],
            item_index=item_index[idx],
            timestamps=timestamps[idx],
            user_features=user_features_all[idx],
            item_features=item_features_all[idx],
            bits=bits[idx].astype(np.int8),
            labels=labels[idx],
            lists=loop_build_lists(user_index[idx], config.max_list_len, rng),
        )

    return DatasetBundle(
        schema=schema,
        user_feature_names=user_feature_names,
        item_feature_names=item_feature_names,
        user_vocab_sizes=[vocabs[c].size for c in user_feature_names],
        item_vocab_sizes=[vocabs[c].size for c in item_feature_names],
        binning=binning,
        users=list(user_pos),
        items=list(item_pos),
        user_feature_table=user_table,
        item_feature_table=item_table,
        train=make_split(train_idx, 0),
        validation=make_split(val_idx, 1),
        test=make_split(test_idx, 2),
    )


# ---------------------------------------------------------------------------
# Scalar oracles: labels, nested kernels, the probability model and its
# losses one sample at a time, and the finite-difference gradient checker
# ---------------------------------------------------------------------------


def map_to_ordinal(feedback_bits: Sequence[int], num_feedbacks: int | None = None) -> int:
    """Collapse a bit pattern (in sparsity order) to one ordinal category.

    k = max{t+1 : bit_t = 1}, or 1 when no bit is set.  Non-monotone
    patterns (e.g. pay without click) are legal: only the deepest positive
    matters.
    """
    bits = list(feedback_bits)
    if num_feedbacks is not None and len(bits) != num_feedbacks:
        raise ArgumentError(f"expected {num_feedbacks} feedback bits, got {len(bits)}")
    k = 1
    for t, bit in enumerate(bits):
        if bit:
            k = t + 2
    return k


def remap_for_subtask(k: int, t: int, num_feedbacks: int) -> int:
    """Merge categories above subtask t's view: min(k, t+1).

    Subtask t only distinguishes levels 1..t+1, so deeper labels collapse
    onto its top category.
    """
    if not 1 <= t <= num_feedbacks:
        raise ArgumentError(f"subtask index {t} outside 1..{num_feedbacks}")
    if not 1 <= k <= num_feedbacks + 1:
        raise ArgumentError(f"ordinal label {k} outside 1..{num_feedbacks + 1}")
    return min(k, t + 1)


@dataclass
class NestedEmbedding:
    """Ordered unit sub-embeddings e^1..e^T for one entity."""

    subs: tuple[np.ndarray, ...]

    @property
    def num_levels(self) -> int:
        return len(self.subs)

    def prefix(self, c: int) -> np.ndarray:
        """Concatenation of the first c sub-embeddings (squared norm c)."""
        if not 1 <= c <= self.num_levels:
            raise ArgumentError(f"prefix level {c} outside 1..{self.num_levels}")
        return np.concatenate(self.subs[:c])

    def unified(self) -> np.ndarray:
        return self.prefix(self.num_levels)

    def validate(self, atol: float = 1e-9) -> None:
        for i, sub in enumerate(self.subs, start=1):
            norm = float(np.linalg.norm(sub))
            if abs(norm - 1.0) > atol and norm != 0.0:
                raise ArgumentError(f"sub-embedding {i} has norm {norm}")


def nested_kernel(nu: NestedEmbedding, ni: NestedEmbedding, c: int) -> float:
    """Cosine of the level-c prefixes: the mean of the first c sub-cosines."""
    if nu.num_levels != ni.num_levels:
        raise ArgumentError("entities have different numbers of levels")
    if not 1 <= c <= nu.num_levels:
        raise ArgumentError(f"kernel level {c} outside 1..{nu.num_levels}")
    dots = [float(np.dot(nu.subs[j], ni.subs[j])) for j in range(c)]
    return sum(dots) / c


@dataclass(frozen=True)
class CategoryDistribution:
    """P(k = c) for c = 1..T+1; sums to 1 by telescoping (pre-clip)."""

    probs: tuple[float, ...]

    def as_array(self) -> np.ndarray:
        return np.asarray(self.probs, dtype=np.float64)


def _check_kernels(kernels: Sequence[float], cfg: ModelConfig) -> np.ndarray:
    arr = np.asarray(kernels, dtype=np.float64).reshape(-1)
    if arr.shape[0] != cfg.num_levels:
        raise ArgumentError(f"expected {cfg.num_levels} kernel values, got {arr.shape[0]}")
    return arr


def _cumulative_all(kernels: np.ndarray, cfg: ModelConfig) -> np.ndarray:
    """sigma(a_c - c * gamma * K_c) for c = 1..T."""
    a = np.asarray(cfg.thresholds, dtype=np.float64)
    c = np.arange(1, cfg.num_levels + 1, dtype=np.float64)
    return stable_sigmoid(a - c * cfg.gamma * kernels)


def cumulative_prob(c: int, kernel_value: float, cfg: ModelConfig) -> float:
    """P(k <= c) given the level-c prefix kernel.

    Level 0 is the virtual null category (exactly 0); level T+1 covers
    everything (exactly 1).
    """
    t = cfg.num_levels
    if not 0 <= c <= t + 1:
        raise ArgumentError(f"category {c} outside 0..{t + 1}")
    if c == 0:
        return 0.0
    if c == t + 1:
        return 1.0
    a_c = cfg.thresholds[c - 1]
    return float(stable_sigmoid(a_c - c * cfg.gamma * kernel_value))


def category_distribution(kernels: Sequence[float], cfg: ModelConfig) -> CategoryDistribution:
    """P(k = c) = P(k <= c) - P(k <= c-1) for c = 1..T+1.

    Raw differences may be negative when the kernel sequence breaks the
    cumulative ordering; clipping is the loss's job, not this function's.
    """
    karr = _check_kernels(kernels, cfg)
    cum = _cumulative_all(karr, cfg)
    full = np.concatenate(([0.0], cum, [1.0]))
    return CategoryDistribution(tuple(np.diff(full).tolist()))


def task_score(c: int, kernels: Sequence[float], cfg: ModelConfig) -> float:
    """P(k > c) = 1 - sigma(a_c - c * gamma * K_c); c = T is the unified score."""
    if not 1 <= c <= cfg.num_levels:
        raise ArgumentError(f"task level {c} outside 1..{cfg.num_levels}")
    karr = _check_kernels(kernels, cfg)
    return 1.0 - cumulative_prob(c, float(karr[c - 1]), cfg)


def _clipped_log(p: float, clip_floor: float) -> float:
    return math.log(max(p, clip_floor))


def subtask_loss(t: int, label_k: int, kernels: Sequence[float], cfg: ModelConfig) -> float:
    """Negative log-likelihood of subtask t, whose top category is t+1.

    The label collapses to min(k, t+1); within the subtask the cumulative
    probability of level t+1 is 1, so the top category's probability is
    1 - P(k <= t).
    """
    big_t = cfg.num_levels
    if not 1 <= t <= big_t:
        raise ArgumentError(f"subtask index {t} outside 1..{big_t}")
    if not 1 <= label_k <= big_t + 1:
        raise ArgumentError(f"label {label_k} outside 1..{big_t + 1}")
    karr = _check_kernels(kernels, cfg)
    m = min(label_k, t + 1)
    if m == t + 1:
        p = 1.0 - cumulative_prob(t, float(karr[t - 1]), cfg)
    else:
        upper = cumulative_prob(m, float(karr[m - 1]), cfg)
        lower = cumulative_prob(m - 1, float(karr[m - 2]) if m >= 2 else 0.0, cfg)
        p = upper - lower
    return -_clipped_log(p, cfg.clip_floor)


def gnolr_total_loss(label_k: int, kernels: Sequence[float], cfg: ModelConfig) -> float:
    """Sum of all subtask losses for one sample."""
    return sum(subtask_loss(t, label_k, kernels, cfg) for t in range(1, cfg.num_levels + 1))


def bce_loss(logit: float, label: int, positive_weight: float = 1.0):
    """Weighted binary cross-entropy in log-sum-exp form (no overflow)."""
    if positive_weight < 1:
        raise ArgumentError(f"positive weight must be >= 1, got {positive_weight}")
    logit = np.asarray(logit, dtype=np.float64)
    y = np.asarray(label, dtype=np.float64)
    out = positive_weight * y * stable_softplus(-logit) + (1.0 - y) * stable_softplus(logit)
    if out.ndim == 0:
        return float(out)
    return out


@dataclass(frozen=True)
class GradCheckReport:
    max_rel_error: float
    num_checked: int
    worst_param: str
    worst_index: int
    worst_analytic: float
    worst_numeric: float
    tolerance: float

    @property
    def passed(self) -> bool:
        return self.max_rel_error < self.tolerance


def finite_diff_check(
    loss_fn: Callable[[], float],
    params: Sequence[Parameter],
    h: float = 1e-5,
    tolerance: float = 1e-4,
    num_samples: int = 100,
    rng: np.random.Generator | None = None,
    denom_floor: float = 1e-6,
    grads: Sequence[np.ndarray] | None = None,
) -> GradCheckReport:
    """Compare analytic gradients against central differences.

    ``loss_fn`` re-evaluates the (deterministic) loss from the parameters'
    current values; ``grads`` (by default each parameter's ``grad``) hold
    the analytic gradient at the current point, one array per parameter.
    Coordinates are sampled across all parameters; per coordinate the
    relative error is |analytic - numeric| / max(|analytic|, |numeric|, denom_floor).
    """
    if grads is None:
        grads = [p.grad for p in params]
    if rng is None:
        rng = np.random.default_rng(0)
    coords: list[tuple[int, int]] = []
    for pi, p in enumerate(params):
        coords.extend((pi, fi) for fi in range(p.value.size))
    if not coords:
        raise OptimizerError("no parameters to check")
    if len(coords) > num_samples:
        chosen = rng.choice(len(coords), size=num_samples, replace=False)
        coords = [coords[int(i)] for i in chosen]

    worst = (-1.0, "", -1, 0.0, 0.0)
    for pi, fi in coords:
        p = params[pi]
        flat = p.value.reshape(-1)
        original = flat[fi]
        flat[fi] = original + h
        loss_plus = loss_fn()
        flat[fi] = original - h
        loss_minus = loss_fn()
        flat[fi] = original
        numeric = (loss_plus - loss_minus) / (2.0 * h)
        analytic = grads[pi].reshape(-1)[fi]
        rel = abs(analytic - numeric) / max(abs(analytic), abs(numeric), denom_floor)
        if rel > worst[0]:
            worst = (rel, p.name, fi, float(analytic), float(numeric))

    return GradCheckReport(
        max_rel_error=worst[0],
        num_checked=len(coords),
        worst_param=worst[1],
        worst_index=worst[2],
        worst_analytic=worst[3],
        worst_numeric=worst[4],
        tolerance=tolerance,
    )
