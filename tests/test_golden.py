"""Training pinned to stored bytes, one configuration per kind, variant and mode.

``tests/fixtures/golden.json`` holds, for each configuration, the sha256 of
the checkpoint and the epoch log lines of a 2-epoch ``train`` on a planted
three-level dataset (a cluster feature on each side, so a batch looks a
table row up many times; two hidden layers, so LeakyReLU runs; ``patience``
set, so validation selection runs).  For each configuration it also holds
the sha256 of every file the CLI's scoring stages write: ``eval``'s report
(AUC, GAUC and recall) and both embedding exports, ``retrieve``'s lists and
``angles``' histogram.  The bytes depend on numpy and its BLAS kernels, so a
mismatch names the environment the file was written in.

Rewrite the file with ``PYTHONPATH=src python -m tests.test_golden`` from
the repository root; a change that moves a hash says which and why in
CHANGES.md.
"""

from __future__ import annotations

import contextlib
import dataclasses
import hashlib
import io
import json
import pathlib

import numpy as np
import pytest

from gnolr import models
from gnolr.cli import main
from gnolr.data import DataConfig, build_bundle
from gnolr.models import ModelSettings
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

FEEDBACK = ("click", "pay", "buy")
# The files each scoring stage writes, by their [eval] key.
PIPELINE_OUTPUTS = {
    "report": "report.json",
    "embeddings_user": "users.tsv",
    "embeddings_item": "items.tsv",
    "retrieve_out": "retrieve.tsv",
    "angles_out": "angles.csv",
}


def environment() -> str:
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return f"numpy {np.__version__}; blas {blas.get('name')} {blas.get('version')}"


def write_csv(directory: pathlib.Path) -> pathlib.Path:
    return write_synthetic_csv(
        directory / "golden.csv",
        n_users=150,
        n_items=200,
        n_rows=2000,
        noise=0.02,
        seed=11,
        three_level=True,
        side_features=True,
    )


def make_bundle(directory: pathlib.Path):
    return build_bundle(DataConfig(csv_path=write_csv(directory), feedback=FEEDBACK))


def run(bundle, name: str, directory: pathlib.Path) -> dict:
    result = train(bundle, TrainConfig(**BASE, **CONFIGS[name]))
    path = directory / f"{name}.gnc"
    save_checkpoint(result.checkpoint, path)
    return {
        "checkpoint_sha256": hashlib.sha256(path.read_bytes()).hexdigest(),
        "log_lines": result.log_lines,
    }


def ini_value(value) -> str:
    return ",".join(map(str, value)) if isinstance(value, tuple) else str(value)


def run_pipeline(name: str, directory: pathlib.Path) -> dict:
    """prepare -> train -> eval -> retrieve -> angles of one configuration through the
    CLI: the sha256 of each file written, the checkpoint included."""
    model_keys = {f.name for f in dataclasses.fields(ModelSettings)}
    settings = {**BASE, **CONFIGS[name]}
    sections = {
        "data": {"csv": write_csv(directory), "bundle": directory / "bundle.gnb",
                 "feedback": ini_value(FEEDBACK)},
        "model": {key: v for key, v in settings.items() if key in model_keys},
        "train": {key: v for key, v in settings.items() if key not in model_keys},
        "eval": {"recall_ks": "1,10"},
    }
    sections["train"]["checkpoint"] = directory / "model.gnc"
    sections["eval"].update({key: directory / name for key, name in PIPELINE_OUTPUTS.items()})
    ini = directory / "run.ini"
    ini.write_text(
        "".join(
            f"[{name}]\n" + "".join(f"{key} = {ini_value(v)}\n" for key, v in keys.items())
            for name, keys in sections.items()
        )
    )
    with contextlib.redirect_stdout(io.StringIO()):
        for stage in ("prepare", "train", "eval", "retrieve", "angles"):
            assert main([stage, str(ini)]) == 0, stage
    names = ["model.gnc", *PIPELINE_OUTPUTS.values()]
    return {name: hashlib.sha256((directory / name).read_bytes()).hexdigest() for name in names}


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


@pytest.mark.parametrize("lanes", [1, 2])
@pytest.mark.parametrize("name", list(CONFIGS))
def test_either_lane_count_writes_the_golden_bytes(bundle, name, lanes, tmp_path, monkeypatch):
    """Forced to one lane or to two (the item side on a thread of its own), whatever
    this machine's CPUs and BLAS threads would choose."""
    monkeypatch.setattr(models, "LANES", lanes)
    golden = json.loads(GOLDEN.read_text())
    assert run(bundle, name, tmp_path) == golden["configs"][name]


def test_a_single_row_embeds_as_inside_a_block(bundle):
    """No stage embeds a block of one row, so the stored bytes cannot show how one row
    comes out; it must come out as it does among other rows, where BLAS runs gemm."""
    model = train(bundle, TrainConfig(**BASE)).checkpoint.build_model()
    for side, table in ((model.user, bundle.user_feature_table),
                        (model.item, bundle.item_feature_table)):
        block = side.embed(table)
        for row in (0, 1, len(table) // 2, len(table) - 1):
            assert side.embed(table[row : row + 1]).tobytes() == block[row].tobytes()


@pytest.mark.parametrize("name", list(CONFIGS))
def test_scoring_stages_write_the_golden_bytes(name, tmp_path):
    golden = json.loads(GOLDEN.read_text())
    expected = {
        "model.gnc": golden["configs"][name]["checkpoint_sha256"],
        **golden["pipeline"][name],
    }
    assert run_pipeline(name, tmp_path) == expected, (
        f"a scoring stage of {name} moved; the golden file was written with "
        f"{golden['environment']}, this run has {environment()}"
    )


if __name__ == "__main__":
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        directory = pathlib.Path(tmp)
        data = make_bundle(directory)
        configs = {name: run(data, name, directory) for name in CONFIGS}
        pipeline = {}
        for name in CONFIGS:
            (directory / name).mkdir()
            pipeline[name] = run_pipeline(name, directory / name)
            # The CLI's checkpoint is the one ``train`` wrote from the same settings.
            assert pipeline[name].pop("model.gnc") == configs[name]["checkpoint_sha256"], name
    golden = {"environment": environment(), "configs": configs, "pipeline": pipeline}
    GOLDEN.write_text(json.dumps(golden, indent=2) + "\n")
    print(f"wrote {GOLDEN}")
