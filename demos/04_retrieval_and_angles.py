"""Exact top-K retrieval and the user-item angle distribution export.

Trains a small model, exports unified embeddings in the TSV interchange
format, retrieves nearest items for a few users, and writes the angular
histogram that makes the embedding-space geometry inspectable.
"""

import pathlib
import tempfile

import numpy as np

from gnolr import (
    DataConfig,
    RetrievalIndex,
    TrainConfig,
    build_bundle,
    read_embeddings,
    topk_retrieve_batch,
    train,
    write_embeddings,
)
from gnolr.metrics import angle_histogram, write_angle_csv

tmp = tempfile.TemporaryDirectory(prefix="gnolr-demo-")
workdir = pathlib.Path(tmp.name)
print("working in", workdir)

rng = np.random.default_rng(5)
n_users, n_items = 40, 150
user_cluster = rng.integers(0, 4, size=n_users)
item_cluster = rng.integers(0, 4, size=n_items)
lines = ["user_id,item_id,timestamp,click"]
for ts in rng.permutation(6000):
    u, i = int(rng.integers(0, n_users)), int(rng.integers(0, n_items))
    lines.append(f"u{u},i{i},{int(ts)},{int(user_cluster[u] == item_cluster[i])}")
csv_path = workdir / "interactions.csv"
csv_path.write_text("\n".join(lines) + "\n")

bundle = build_bundle(DataConfig(csv_path=str(csv_path), feedback=("click",)))
model = train(
    bundle,
    TrainConfig(
        kind="gnolr", gamma=2.0, seed=1, embedding_dim=8, hidden_sizes=(32, 16),
        learning_rate=0.02, epochs=30, batch_size=512,
    ),
).checkpoint.build_model()

# --- Export embeddings (TSV interchange format) ---------------------------
item_path = workdir / "items.tsv"
write_embeddings(item_path, bundle.items, model.item_embeddings(bundle.item_feature_table), 1)
ids, vectors, levels = read_embeddings(item_path)
print(f"exported {len(ids)} item embeddings, dim {vectors.shape[1]}, levels {levels}")

# --- Brute-force retrieval -------------------------------------------------
index = RetrievalIndex(item_ids=ids, vectors=vectors)
user_vectors = model.user_embeddings(bundle.user_feature_table)
# Each ranking holds index rows; ``index.item_ids`` names them.
for uid, rows in enumerate(topk_retrieve_batch(user_vectors[:3], index, 5)):
    top = [index.item_ids[j] for j in rows]
    liked = {
        bundle.items[int(it)]
        for row, it in enumerate(bundle.test.item_index)
        if bundle.test.user_index[row] == uid and bundle.test.labels[row] > 1
    }
    hits = [item for item in top if item in liked]
    recall = len(hits) / len(liked) if liked else float("nan")
    print(f"{bundle.users[uid]}: top-5 {top} | hits {hits} | recall@5 {recall:.3f}")

# --- Angular distribution --------------------------------------------------
# One row per degree: how positive and negative pairs spread around the
# user direction.  A well-shaped space pulls positives toward small angles.
user_vecs = model.user_embeddings(bundle.test.user_features)
item_vecs = model.item_embeddings(bundle.test.item_features)
table = angle_histogram(user_vecs, item_vecs, bundle.test.labels > 1)
csv_out = workdir / "angles.csv"
write_angle_csv(csv_out, table)
pos_mean = np.average(table[:, 0] + 0.5, weights=np.maximum(table[:, 1], 1e-9))
neg_mean = np.average(table[:, 0] + 0.5, weights=np.maximum(table[:, 2], 1e-9))
print(f"angle histogram -> {csv_out}")
print(f"mean positive-pair angle {pos_mean:.1f} deg vs negative-pair {neg_mean:.1f} deg")

tmp.cleanup()
