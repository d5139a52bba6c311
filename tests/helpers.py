"""Synthetic dataset builders shared by training and acceptance tests."""

import os
import pathlib

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
from gnolr.errors import IngestionError
from gnolr.feedback import FeedbackSchema, map_to_ordinal_array
from gnolr.tensor import finite_diff_check

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
):
    """Planted progressive-preference interactions.

    Users and items carry hidden cluster types; a click happens exactly on
    a cluster match, and a pay happens on a click whose sub-cluster also
    matches (level-2 positives are a subset of level-1 positives).
    ``noise`` flips each emitted bit with the given probability, and the
    labels are recoverable from the id embeddings alone.
    """
    rng = np.random.default_rng(seed)
    user_cluster = rng.integers(0, n_clusters, size=n_users)
    item_cluster = rng.integers(0, n_clusters, size=n_items)
    user_sub = rng.integers(0, pay_subclusters, size=n_users)
    item_sub = rng.integers(0, pay_subclusters, size=n_items)

    lines = ["user_id,item_id,timestamp,click,pay" if two_level else "user_id,item_id,timestamp,click"]
    timestamps = rng.permutation(n_rows)
    for row in range(n_rows):
        u = int(rng.integers(0, n_users))
        i = int(rng.integers(0, n_items))
        click = int(user_cluster[u] == item_cluster[i])
        pay = int(click and user_sub[u] == item_sub[i])
        if noise > 0.0:
            if rng.random() < noise:
                click = 1 - click
            if rng.random() < noise:
                pay = 1 - pay
        if two_level:
            lines.append(f"u{u},i{i},{int(timestamps[row])},{click},{pay}")
        else:
            lines.append(f"u{u},i{i},{int(timestamps[row])},{click}")
    path.write_text("\n".join(lines) + "\n")
    return str(path)


def synthetic_bundle(tmp_path, name="synth.csv", **kwargs):
    two_level = kwargs.get("two_level", True)
    csv_path = write_synthetic_csv(tmp_path / name, **kwargs)
    feedback = ("click", "pay") if two_level else ("click",)
    return build_bundle(DataConfig(csv_path=csv_path, feedback=feedback))


def forward_task_scores(model, user_rows, item_rows, chunk=8192):
    """Oracle for ``task_scores_all``: the per-sample training forward.

    Both towers run once per sample row, keeping every cache, ``chunk``
    rows at a time, as scoring worked before it embedded distinct rows.
    """
    out = []
    for start in range(0, len(user_rows), chunk):
        stop = start + chunk
        u, i, _ = model._forward(user_rows[start:stop], item_rows[start:stop])
        out.append(model._scores(np.einsum("btd,btd->bt", u, i)))
    return np.concatenate(out)


def per_sample_loss_and_grad(model, batch):
    """Oracle for ``loss_and_grad``: the training step that ran every sample row.

    Both towers run forward and backward once per sample, and the tables
    scatter one gradient row per sample, as before the step ran distinct rows.
    """
    u, i, caches = model._forward(batch.user_features, batch.item_features)
    dots = np.einsum("btd,btd->bt", u, i)
    total, grad_dots = model._objective(batch, dots)
    model._backward(
        grad_dots[:, :, None] * i,
        grad_dots[:, :, None] * u,
        caches,
        batch.user_features,
        batch.item_features,
    )
    return total


def checked_gradients(model, batch, num_samples=120, tolerance=1e-4):
    """Analytic grads from one ``loss_and_grad`` vs central differences.

    Embedding tables are rescaled to a generic parameter point first: at
    the tiny init scale the pre-normalization outputs have near-zero norm,
    whose 1/||v||^3 curvature drowns an h=1e-5 central difference in
    truncation error.
    """
    for p in model.params:
        if p.name.startswith(("emb_u.", "emb_i.")):
            p.value *= 10.0
        p.zero_grad()
    model.loss_and_grad(batch)

    def pure_loss():
        saved = [p.grad.copy() for p in model.params]
        value = model.loss_and_grad(batch)
        for p, g in zip(model.params, saved):
            p.grad[...] = g
        return value

    return finite_diff_check(
        pure_loss,
        model.params,
        h=1e-5,
        tolerance=tolerance,
        num_samples=num_samples,
        rng=np.random.default_rng(99),
    )


def forward_embeddings(model, side, feature_rows):
    """Oracle for unified embeddings: each tower's caching training forward, per row."""
    tables = model.tables_user if side == "user" else model.tables_item
    towers = model.encoder.user_towers if side == "user" else model.encoder.item_towers
    x = tables.lookup(feature_rows)
    return np.concatenate([tower.forward(x)[0] for tower in towers], axis=1)


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
