"""Benchmark workloads and their seeded input generator.

Every workload is planted progressive data with three feedback levels,
click > cart > pay: users and items carry a hidden cluster and two hidden
sub-cluster bits; a click happens on a cluster match, a cart on a click
whose first sub-cluster bit also matches, a pay on a cart whose second bit
matches.  Each emitted bit then flips with probability ``BIT_NOISE``.

Side features make the planted structure learnable from more than the ids:
``uf_segment`` / ``if_category`` equal the hidden cluster 80% of the time,
and the numeric ``uf_age`` / ``if_price`` (percentile-binned by the program)
encode the sub-cluster bits.  On id-only planted data the default towers
stay near AUC 0.5, so without these features the AUC floor would guard
nothing.

Only numpy is used, so the generator runs before (and without) the
program under test.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

BIT_NOISE = 0.02
N_CLUSTERS = 4
FEATURE_MATCH = 0.8
FEEDBACK = ("click", "cart", "pay")
NUMERIC_FEATURES = ("uf_age", "if_price")
HEADER = "user_id,item_id,timestamp,click,cart,pay,uf_segment,uf_age,if_category,if_price"
EPOCHS = 1
RETRIEVE_K = 50
AUC_FLOOR = 0.6  # auc_t1 on every workload and seed tried is 0.78 or more


@dataclass(frozen=True)
class Workload:
    """Shape of one workload and the pipeline stages it runs."""

    name: str
    rows: int
    user_pool: int
    item_pool: int
    batch_size: int
    query: str  # the stage after eval: "retrieve" or "angles"
    recall_ks: tuple[int, ...] = ()
    export_embeddings: bool = False


WORKLOADS = {
    w.name: w
    for w in (
        # Few ids with many rows each: tower forward+backward dominates train.
        Workload(
            name="train_dense",
            rows=30_000,
            user_pool=1_000,
            item_pool=1_500,
            batch_size=512,
            query="angles",
        ),
        # Tiny training set, large catalog: exact top-K dominates eval and retrieve.
        Workload(
            name="serve_catalog",
            rows=24_000,
            user_pool=96,
            item_pool=5_000,
            batch_size=512,
            query="retrieve",
            recall_ks=(10, 50),
            export_embeddings=True,
        ),
        # Ids barely repeat, so vocabularies are as large as the data.  Batch 256
        # keeps the per-step O(vocab) optimizer share near that of a run ten
        # times larger at batch 512.
        Workload(
            name="long_tail",
            rows=42_000,
            user_pool=400_000,
            item_pool=400_000,
            batch_size=256,
            query="angles",
        ),
    )
}


def generate_csv(workload: Workload, seed: int) -> str:
    """The workload's interaction CSV as text; identical for identical seeds."""
    rng = np.random.default_rng(seed)
    n = workload.rows

    def entity_attrs(pool: int):
        cluster = rng.integers(0, N_CLUSTERS, size=pool)
        sub = rng.integers(0, 2, size=(pool, 2))
        noisy = rng.random(pool) >= FEATURE_MATCH
        visible = np.where(noisy, rng.integers(0, N_CLUSTERS, size=pool), cluster)
        return cluster, sub, visible

    u_cluster, u_sub, u_segment = entity_attrs(workload.user_pool)
    i_cluster, i_sub, i_category = entity_attrs(workload.item_pool)
    u_age = 18 + 12 * u_sub[:, 0] + 6 * u_sub[:, 1] + rng.integers(0, 6, size=workload.user_pool)
    i_price = np.round(
        10.0 + 40.0 * i_sub[:, 0] + 20.0 * i_sub[:, 1] + 15.0 * rng.random(workload.item_pool), 2
    )

    u = rng.integers(0, workload.user_pool, size=n)
    i = rng.integers(0, workload.item_pool, size=n)
    bits = np.empty((n, 3), dtype=np.int64)
    bits[:, 0] = u_cluster[u] == i_cluster[i]
    bits[:, 1] = bits[:, 0] & (u_sub[u, 0] == i_sub[i, 0])
    bits[:, 2] = bits[:, 1] & (u_sub[u, 1] == i_sub[i, 1])
    bits ^= rng.random((n, 3)) < BIT_NOISE
    timestamps = rng.permutation(n)

    columns = (
        u.tolist(),
        i.tolist(),
        timestamps.tolist(),
        bits[:, 0].tolist(),
        bits[:, 1].tolist(),
        bits[:, 2].tolist(),
        u_segment[u].tolist(),
        u_age[u].tolist(),
        i_category[i].tolist(),
        i_price[i].tolist(),
    )
    row_format = "u%d,i%d,%d,%d,%d,%d,s%d,%d,c%d,%.2f"
    lines = [HEADER]
    lines.extend(row_format % row for row in zip(*columns))
    return "\n".join(lines) + "\n"


def config_text(workload: Workload, seed: int, csv_path: str, out_dir: str) -> str:
    """INI run config for the workload; every artifact lands in ``out_dir``."""
    lines = [
        "[data]",
        f"csv = {csv_path}",
        f"bundle = {out_dir}/bundle.gnb",
        "feedback = " + ",".join(FEEDBACK),
        "numeric_features = " + ",".join(NUMERIC_FEATURES),
        f"seed = {seed}",
        "",
        "[model]",
        "kind = gnolr",
        "thresholds = auto",
        "gamma = 2.0",
        "embedding_dim = 16",
        "hidden_sizes = 128,64,32",
        "",
        "[train]",
        f"epochs = {EPOCHS}",
        "learning_rate = 0.005",
        f"batch_size = {workload.batch_size}",
        f"seed = {seed}",
        f"checkpoint = {out_dir}/model.gnc",
        "",
        "[eval]",
        "split = test",
        "gauc = pairs",
        f"report = {out_dir}/report.json",
        f"retrieve_k = {RETRIEVE_K}",
        f"retrieve_out = {out_dir}/topk.tsv",
        f"angles_out = {out_dir}/angles.csv",
    ]
    if workload.recall_ks:
        lines.append("recall_ks = " + ",".join(str(k) for k in workload.recall_ks))
    if workload.export_embeddings:
        lines.append(f"embeddings_user = {out_dir}/users.tsv")
        lines.append(f"embeddings_item = {out_dir}/items.tsv")
    return "\n".join(lines) + "\n"
