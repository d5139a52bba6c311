"""End-to-end training on planted progressive-preference interactions.

Generates a click/pay log where pays are a noisy subset of clicks, builds
the dataset bundle (chronological split, ordinal labels), trains the
nested ordinal model and the shared-bottom baseline, and compares their
per-task ranking and unified-space retrieval quality.
"""

import pathlib
import tempfile

import numpy as np

from gnolr import DataConfig, TrainConfig, build_bundle, evaluate, train

tmp = tempfile.TemporaryDirectory(prefix="gnolr-demo-")
workdir = pathlib.Path(tmp.name)
print("working in", workdir)

# --- Plant a progressive structure ---------------------------------------
rng = np.random.default_rng(3)
n_users, n_items, n_rows = 50, 400, 8000
user_cluster = rng.integers(0, 4, size=n_users)
item_cluster = rng.integers(0, 4, size=n_items)
user_sub = rng.integers(0, 2, size=n_users)
item_sub = rng.integers(0, 2, size=n_items)
lines = ["user_id,item_id,timestamp,click,pay"]
for ts in rng.permutation(n_rows):
    u, i = int(rng.integers(0, n_users)), int(rng.integers(0, n_items))
    click = int(user_cluster[u] == item_cluster[i])
    pay = int(click and user_sub[u] == item_sub[i])
    lines.append(f"u{u},i{i},{int(ts)},{click},{pay}")
csv_path = workdir / "interactions.csv"
csv_path.write_text("\n".join(lines) + "\n")

bundle = build_bundle(DataConfig(csv_path=str(csv_path), feedback=("click", "pay")))
print(
    f"splits: train={bundle.train.num_samples} val={bundle.validation.num_samples} "
    f"test={bundle.test.num_samples}; click rate {bundle.train.bits[:, 0].mean():.3f}, "
    f"pay rate {bundle.train.bits[:, 1].mean():.3f}"
)

# --- Train both models ----------------------------------------------------
common = dict(embedding_dim=8, hidden_sizes=(32, 16), learning_rate=0.02, epochs=40, batch_size=512)
result = train(bundle, TrainConfig(kind="gnolr", gamma=2.0, seed=1, **common))
print("ordinal thresholds used:", result.checkpoint.model_config.thresholds)
for line in result.log_lines[-3:]:
    print(" ", line)
gnolr_model = result.checkpoint.build_model()

nsb_model = train(
    bundle, TrainConfig(kind="nsb", positive_weights=(5.0, 20.0), seed=1, **common)
).checkpoint.build_model()

# --- Compare --------------------------------------------------------------
gnolr_metrics = evaluate(gnolr_model, bundle, recall_ks=(10, 20))
nsb_metrics = evaluate(nsb_model, bundle, recall_ks=(10, 20))
print(f"{'metric':>16s} {'nested-ordinal':>15s} {'shared-bottom':>14s}")
for key in sorted(gnolr_metrics):
    if key in nsb_metrics:
        print(f"{key:>16s} {gnolr_metrics[key]:>15.4f} {nsb_metrics[key]:>14.4f}")
print(
    "note: the shared-bottom recalls use each task's own embedding space;"
    " the nested model serves both targets from one unified space."
)

tmp.cleanup()
