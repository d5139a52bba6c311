"""The benchmark's per-layer hooks still find the functions they wrap.

``perfbench/tracing.py`` wraps program functions where the pipeline looks
them up.  A hook whose target was renamed or removed is skipped and its
metrics read zero, so a refactor could silently blind the benchmark.  This
test installs the tracer, drives prepare -> train -> eval -> retrieve ->
angles on a small benchmark-style workload, and checks which hooks (and
which hook counters) failed and that every expected span was recorded.
"""

import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

# Hooks whose targets no longer exist: the pipeline now calls
# ``topk_retrieve_batch`` and ``task_scores_all`` instead.
KNOWN_MISSING = {"gnolr.cli:topk_retrieve", "gnolr.models:GnolrModel.task_scores"}

# Every span the pipeline records.  A hook that still resolves but whose
# target the program no longer calls records nothing, and its metrics read
# zero as surely as a missing hook's.
RECORDED_SPANS = {
    "data.build_bundle", "data.load_bundle", "data.save_bundle",
    "encoders.lookup", "encoders.table_backward", "encoders.tower_backward",
    "encoders.tower_forward", "encoders.write_embeddings",
    "feedback.estimate_thresholds", "losses.gnolr_batch", "metrics.auc", "metrics.gauc",
    "models.embeddings", "models.loss_and_grad", "models.task_scores_all",
    "tensor.adam_step", "tensor.adam_step_sparse", "tensor.l2_normalize",
    "tensor.l2_normalize_backward", "tensor.leaky_relu", "tensor.leaky_relu_backward",
    "training.load_checkpoint", "training.retrieval_recalls", "training.save_checkpoint",
    "training.train",
}

SCRIPT = """
import dataclasses, json, os, sys
import contextlib, io
from tracing import Tracer
from workloads import WORKLOADS, config_text, generate_csv
from gnolr.cli import main

work = sys.argv[1]
workload = dataclasses.replace(WORKLOADS["serve_catalog"], rows=2000, item_pool=300)
csv = os.path.join(work, "data.csv")
with open(csv, "w") as fh:
    fh.write(generate_csv(workload, 3))
ini = os.path.join(work, "run.ini")
with open(ini, "w") as fh:
    fh.write(config_text(workload, 3, csv, work))
tracer = Tracer()
tracer.install()
codes = []
with contextlib.redirect_stdout(io.StringIO()):
    for stage in ("prepare", "train", "eval", "retrieve", "angles"):
        codes.append(main([stage, ini]))
tracer.uninstall()
names = sorted({span[0] for span in tracer.spans})
print(json.dumps({"codes": codes, "missing": sorted(set(tracer.missing)), "spans": names}))
"""


def test_benchmark_hooks_resolve(tmp_path):
    env = dict(os.environ, GNOLR_LOG="quiet")
    paths = [os.path.join(ROOT, "perfbench"), os.path.join(ROOT, "src")]
    env["PYTHONPATH"] = os.pathsep.join(paths + [env.get("PYTHONPATH", "")])
    proc = subprocess.run(
        [sys.executable, "-c", SCRIPT, str(tmp_path)],
        capture_output=True,
        text=True,
        env=env,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["codes"] == [0, 0, 0, 0, 0]
    assert set(result["missing"]) <= KNOWN_MISSING, result["missing"]
    assert set(result["spans"]) == RECORDED_SPANS, sorted(RECORDED_SPANS ^ set(result["spans"]))
