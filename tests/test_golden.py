"""Training pinned to stored bytes, one configuration per kind, variant and mode.

``tests/fixtures/golden.json`` holds, for each configuration, the sha256 of
the checkpoint and the epoch log lines of a 2-epoch ``train`` on a planted
three-level dataset (a cluster feature on each side, so a batch looks a
table row up many times; two hidden layers, so LeakyReLU runs; ``patience``
set, so validation selection runs).  The bytes depend on numpy and its BLAS
kernels, so a mismatch names the environment the file was written in.

Rewrite the file with ``PYTHONPATH=src python -m tests.test_golden`` from
the repository root; a change that moves a hash says which and why in
CHANGES.md.
"""

from __future__ import annotations

import hashlib
import json
import pathlib

import numpy as np
import pytest

from gnolr.data import DataConfig, build_bundle
from gnolr.training import TrainConfig, save_checkpoint, train
from tests.helpers import write_synthetic_csv

GOLDEN = pathlib.Path(__file__).parent / "fixtures" / "golden.json"

BASE = dict(
    embedding_dim=8,
    hidden_sizes=(16, 8),
    learning_rate=0.02,
    epochs=2,
    batch_size=128,
    list_batch_size=8,
    seed=5,
    patience=1,
)
CONFIGS = {
    "gnolr_nested": {},
    "gnolr_v1": {"variant": "v1"},
    "gnolr_v0": {"variant": "v0"},
    "gnolr_listwise": {"listwise": True},
    "neural_olr": {"kind": "neural_olr"},
    "bce_target2": {"kind": "bce", "bce_target_level": 2},
    "nsb": {"kind": "nsb"},
}


def environment() -> str:
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return f"numpy {np.__version__}; blas {blas.get('name')} {blas.get('version')}"


def make_bundle(directory: pathlib.Path):
    csv_path = write_synthetic_csv(
        directory / "golden.csv",
        n_users=150,
        n_items=200,
        n_rows=2000,
        noise=0.02,
        seed=11,
        three_level=True,
        side_features=True,
    )
    return build_bundle(DataConfig(csv_path=csv_path, feedback=("click", "pay", "buy")))


def run(bundle, name: str, directory: pathlib.Path) -> dict:
    result = train(bundle, TrainConfig(**BASE, **CONFIGS[name]))
    path = directory / f"{name}.gnc"
    save_checkpoint(result.checkpoint, path)
    return {
        "checkpoint_sha256": hashlib.sha256(path.read_bytes()).hexdigest(),
        "log_lines": result.log_lines,
    }


@pytest.fixture(scope="module")
def bundle(tmp_path_factory):
    return make_bundle(tmp_path_factory.mktemp("golden"))


@pytest.mark.parametrize("name", list(CONFIGS))
def test_training_writes_the_golden_bytes(bundle, name, tmp_path):
    golden = json.loads(GOLDEN.read_text())
    assert run(bundle, name, tmp_path) == golden["configs"][name], (
        f"configuration {name} moved; the golden file was written with "
        f"{golden['environment']}, this run has {environment()}"
    )


if __name__ == "__main__":
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        directory = pathlib.Path(tmp)
        data = make_bundle(directory)
        configs = {name: run(data, name, directory) for name in CONFIGS}
    GOLDEN.write_text(
        json.dumps({"environment": environment(), "configs": configs}, indent=2) + "\n"
    )
    print(f"wrote {GOLDEN}")
