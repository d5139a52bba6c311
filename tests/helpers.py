"""Synthetic dataset builders shared by training and acceptance tests."""

import os
import pathlib

import numpy as np

from gnolr.data import DataConfig, build_bundle

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


def forward_embeddings(model, side, feature_rows):
    """Oracle for unified embeddings: each tower's caching training forward, per row."""
    tables = model.tables_user if side == "user" else model.tables_item
    towers = model.encoder.user_towers if side == "user" else model.encoder.item_towers
    x = tables.lookup(feature_rows)
    return np.concatenate([tower.forward(x)[0] for tower in towers], axis=1)
