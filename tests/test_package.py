"""The package's public surface, and the package's independence from the tests."""

import ast
import sys

import gnolr
from tests.helpers import REPO_ROOT

# The names that ``from gnolr import *`` exports, submodules included.
PUBLIC_NAMES = {
    # submodules
    "data", "encoders", "errors", "feedback", "losses", "metrics", "models", "tensor", "training",
    # data
    "DataConfig", "DatasetBundle", "apply_bins", "binarize_ratings", "build_bundle",
    "build_lists", "fit_bins", "load_bundle", "save_bundle",
    # encoders
    "EmbeddingTableSet", "Tower", "TowerSide", "read_embeddings", "write_embeddings",
    # errors, feedback
    "GnolrError", "FeedbackSchema", "ThresholdSet", "estimate_thresholds", "order_feedback",
    "thresholds_from_fractions",
    # metrics
    "RetrievalIndex", "angle_histogram", "auc", "gauc", "topk_retrieve", "topk_retrieve_batch",
    # models, tensor
    "Batch", "ModelConfig", "make_model", "AdamConfig", "Parameter", "adam_step",
    "l2_normalize", "leaky_relu", "stable_sigmoid",
    # training
    "Checkpoint", "TrainConfig", "evaluate", "load_checkpoint", "make_batches", "multi_run",
    "save_checkpoint", "train",
}


def test_public_names_are_pinned():
    assert set(gnolr.__all__) == PUBLIC_NAMES


def absolute_imports():
    """(path, module name) of every absolute import in the package's source."""
    modules = sorted((REPO_ROOT / "src" / "gnolr").rglob("*.py"))
    assert modules
    for path in modules:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                imported = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                imported = [node.module or ""]
            else:
                continue
            for name in imported:
                yield path, name


def test_no_package_module_imports_from_tests():
    for path, name in absolute_imports():
        assert not (name == "tests" or name.startswith("tests.")), path


def test_package_imports_only_itself_numpy_and_the_standard_library():
    """The runtime needs numpy and nothing else outside the standard library."""
    allowed = {"numpy"} | set(sys.stdlib_module_names)
    for path, name in absolute_imports():
        assert name.partition(".")[0] in allowed, f"{path}: imports {name}"
