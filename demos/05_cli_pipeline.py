"""The same workflow through the command-line surface.

Writes an INI run config, then drives prepare -> thresholds -> train ->
eval -> retrieve -> angles exactly as a shell user would (the `gnolr`
console script exposes the same entry point).
"""

import pathlib
import tempfile

import numpy as np

from gnolr.cli import main

tmp = tempfile.TemporaryDirectory(prefix="gnolr-demo-")
workdir = pathlib.Path(tmp.name)
print("working in", workdir)

rng = np.random.default_rng(9)
user_cluster = rng.integers(0, 4, size=40)
item_cluster = rng.integers(0, 4, size=120)
user_sub = rng.integers(0, 2, size=40)
item_sub = rng.integers(0, 2, size=120)
lines = ["user_id,item_id,timestamp,click,pay"]
for ts in rng.permutation(5000):
    u, i = int(rng.integers(0, 40)), int(rng.integers(0, 120))
    click = int(user_cluster[u] == item_cluster[i])
    pay = int(click and user_sub[u] == item_sub[i])
    lines.append(f"u{u},i{i},{int(ts)},{click},{pay}")
(workdir / "interactions.csv").write_text("\n".join(lines) + "\n")

config = workdir / "run.ini"
config.write_text(
    f"""# Experiment manifest: file values lose to --set overrides.
[data]
csv = {workdir}/interactions.csv
bundle = {workdir}/bundle.gnb
feedback = click,pay

[model]
kind = gnolr
thresholds = auto
gamma = 2.0
embedding_dim = 8
hidden_sizes = 32,16

[train]
epochs = 25
learning_rate = 0.02
batch_size = 512
seed = 1
checkpoint = {workdir}/model.gnc

[eval]
recall_ks = 10,20
retrieve_k = 5
retrieve_out = {workdir}/topk.tsv
angles_out = {workdir}/angles.csv
report = {workdir}/report.json
"""
)

for step in (
    ["prepare", str(config)],
    ["thresholds", str(config)],
    ["train", str(config)],
    ["eval", str(config)],
    ["retrieve", str(config)],
    ["angles", str(config)],
):
    print(f"\n$ gnolr {' '.join(step)}")
    code = main(step)
    assert code == 0, f"step {step[0]} exited {code}"

print("\nartifacts:")
for name in ("bundle.gnb", "model.gnc", "topk.tsv", "angles.csv", "report.json"):
    print(f"  {workdir / name} ({(workdir / name).stat().st_size} bytes)")

tmp.cleanup()
