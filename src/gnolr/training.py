"""Training orchestration: epochs, validation-based selection, checkpoints.

One root seed drives everything: model initialization uses the seed
itself, epoch e reshuffles with seed + e, so two runs with the same seed
produce identical epoch-loss logs and identical parameters.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import logging
import math
import os
import tempfile
from dataclasses import dataclass, field

import numpy as np

from .data import DatasetBundle, Split, make_batches, read_array, read_header
from .errors import ArgumentError, ConfigError, IngestionError, UndefinedMetricError
from .feedback import estimate_thresholds
from .metrics import RetrievalIndex, auc, gauc, recall_at_k, topk_retrieve_batch
from .models import Batch, ModelConfig, NsbModel, make_model
from .tensor import AdamConfig, adam_step, adam_step_sparse

logger = logging.getLogger("gnolr")

CHECKPOINT_MAGIC = b"GNC1"
CHECKPOINT_VERSION = 1

_SCORE_CHUNK = 8192


@dataclass(frozen=True)
class TrainConfig:
    """Model choice plus optimization knobs; thresholds=None auto-estimates."""

    kind: str = "gnolr"
    variant: str = "nested"
    listwise: bool = False
    listnet_use_log: bool = True
    thresholds: tuple[float, ...] | None = None
    thresholds_population: str = "train"
    gamma: float = 1.0
    clip_floor: float = 1e-6
    embedding_dim: int = 16
    hidden_sizes: tuple[int, ...] = (128, 64, 32)
    activation_slope: float = 0.01
    positive_weights: tuple[float, ...] = ()
    bce_raw_cosine: bool = False
    bce_target_level: int = 1
    learning_rate: float = 0.05
    epochs: int = 10
    batch_size: int = 1024
    list_batch_size: int = 32
    seed: int = 0
    patience: int | None = None

    def __post_init__(self) -> None:
        if self.epochs < 1:
            raise ConfigError(f"epochs must be >= 1, got {self.epochs}")
        if self.gamma <= 0:
            raise ConfigError(f"gamma must be > 0, got {self.gamma}")
        if self.thresholds_population not in ("train", "all"):
            raise ConfigError(
                f"thresholds_population must be train|all, got {self.thresholds_population}"
            )

    def to_dict(self) -> dict:
        out = dataclasses.asdict(self)
        for key in ("thresholds", "hidden_sizes", "positive_weights"):
            if out[key] is not None:
                out[key] = list(out[key])
        return out


@dataclass
class Checkpoint:
    """Everything needed to rebuild the model and re-encode raw data."""

    model_config: ModelConfig
    train_config: dict
    schema_names: list[str]
    schema_counts: list[int]
    schema_order: list[int]
    user_feature_names: list[str]
    item_feature_names: list[str]
    user_vocab_sizes: list[int]
    item_vocab_sizes: list[int]
    binning: dict[str, list[float]]
    best_metric: float
    best_epoch: int
    config_hash: str
    params: dict[str, np.ndarray] = field(default_factory=dict)

    def build_model(self):
        seed = int(self.train_config.get("seed", 0))
        model = make_model(
            self.model_config,
            dict(zip(self.user_feature_names, self.user_vocab_sizes)),
            dict(zip(self.item_feature_names, self.item_vocab_sizes)),
            np.random.default_rng(seed),
        )
        pmap = model.param_map()
        missing = set(pmap) - set(self.params)
        if missing:
            raise ConfigError(f"checkpoint lacks parameters: {sorted(missing)}")
        for name, param in pmap.items():
            stored = self.params[name]
            if stored.shape != param.value.shape:
                raise ConfigError(
                    f"parameter '{name}' shape mismatch: {stored.shape} vs {param.value.shape}"
                )
            param.value[...] = stored
        return model


@dataclass
class TrainResult:
    checkpoint: Checkpoint
    log_lines: list[str]
    diverged: bool = False


def _config_hash(model_config: ModelConfig, train_config: TrainConfig) -> str:
    blob = json.dumps(
        {"model": model_config.to_dict(), "train": train_config.to_dict()},
        sort_keys=True,
        separators=(",", ":"),
    )
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()[:16]


def resolve_thresholds(bundle: DatasetBundle, config: TrainConfig) -> tuple[float, ...]:
    """Manual thresholds pass through; auto mode estimates from labels."""
    if config.thresholds is not None:
        if len(config.thresholds) != bundle.num_feedbacks:
            raise ConfigError(
                f"{bundle.num_feedbacks} feedback types need "
                f"{bundle.num_feedbacks} thresholds, got {len(config.thresholds)}"
            )
        return tuple(float(v) for v in config.thresholds)
    labels = (
        bundle.train.labels if config.thresholds_population == "train" else bundle.all_labels()
    )
    return estimate_thresholds(labels, bundle.num_feedbacks).values


def _model_config(bundle: DatasetBundle, config: TrainConfig) -> ModelConfig:
    if config.kind == "nsb" and bundle.num_feedbacks < 2:
        raise ConfigError("the shared-bottom baseline needs at least 2 feedback types")
    return ModelConfig(
        kind=config.kind,
        num_levels=bundle.num_feedbacks,
        thresholds=resolve_thresholds(bundle, config),
        gamma=config.gamma,
        clip_floor=config.clip_floor,
        embedding_dim=config.embedding_dim,
        hidden_sizes=config.hidden_sizes,
        activation_slope=config.activation_slope,
        variant=config.variant,
        listwise=config.listwise,
        listnet_use_log=config.listnet_use_log,
        positive_weights=config.positive_weights,
        bce_raw_cosine=config.bce_raw_cosine,
        bce_target_level=config.bce_target_level,
    )


def _make_batch(split: Split, idx: np.ndarray, bounds=None) -> Batch:
    return Batch(
        user_features=split.user_features[idx],
        item_features=split.item_features[idx],
        labels=split.labels[idx],
        bits=split.bits[idx],
        list_bounds=bounds,
    )


def _optimizer_step(model, adam: AdamConfig) -> None:
    """Lazy Adam on the table rows the batch touched, one Adam call for the rest."""
    for tables in (model.tables_user, model.tables_item):
        for table, rows in tables.take_touched():
            adam_step_sparse(table, adam, rows)
    adam_step(model.dense, adam)


def _split_scores(model, split: Split) -> np.ndarray:
    """Every level's task scores, one ``task_scores_all`` pass per chunk of rows."""
    return np.concatenate(
        [
            model.task_scores_all(
                split.user_features[start : start + _SCORE_CHUNK],
                split.item_features[start : start + _SCORE_CHUNK],
            )
            for start in range(0, split.num_samples, _SCORE_CHUNK)
        ]
    )


def _level_column(scores: np.ndarray, level: int) -> np.ndarray:
    """The level's score column; a single-column model (BCE) answers every level."""
    return scores[:, min(level, scores.shape[1]) - 1]


def _validation_auc(model, split: Split, num_levels: int) -> tuple[float, int]:
    """AUC on the selection level, falling back to denser levels if it is single-class.

    BCE selects on the level it trains on; the other models on the sparsest.
    """
    levels = list(range(num_levels, 0, -1))
    if model.kind == "bce":
        levels.remove(model.cfg.bce_target_level)
        levels.insert(0, model.cfg.bce_target_level)
    for level in levels:
        labels = split.bits[:, level - 1]
        if labels.min() == labels.max():
            continue
        return auc(_level_column(_split_scores(model, split), level), labels), level
    raise UndefinedMetricError("no validation target has both classes")


def _snapshot(model) -> dict[str, np.ndarray]:
    return {p.name: p.value.copy() for p in model.params}


def train(bundle: DatasetBundle, config: TrainConfig) -> TrainResult:
    """Run epochs, select the best-validation checkpoint, log per epoch.

    Divergence (a non-finite batch loss) aborts the run and keeps the last
    good checkpoint instead of raising.
    """
    if bundle.validation.num_samples == 0:
        raise ConfigError(
            "the validation split is empty, so no checkpoint can be selected; "
            "prepare the bundle with [data] validation_fraction_of_train > 0"
        )
    model_config = _model_config(bundle, config)
    model = make_model(
        model_config,
        dict(zip(bundle.user_feature_names, bundle.user_vocab_sizes)),
        dict(zip(bundle.item_feature_names, bundle.item_vocab_sizes)),
        np.random.default_rng(config.seed),
    )
    adam = AdamConfig(config.learning_rate)
    mode = "listwise" if config.listwise else "pointwise"
    batch_size = config.list_batch_size if config.listwise else config.batch_size

    best_params = _snapshot(model)
    best_metric = -math.inf
    best_epoch = 0
    log_lines: list[str] = []
    diverged = False
    epochs_since_best = 0

    for epoch in range(1, config.epochs + 1):
        rng = np.random.default_rng(config.seed + epoch)
        loss_sum = 0.0
        sample_count = 0
        for batch_idx in make_batches(mode, bundle.train, batch_size, rng):
            if config.listwise:
                bounds = []
                start = 0
                for lst in batch_idx:
                    bounds.append((start, start + len(lst)))
                    start += len(lst)
                flat = np.concatenate(batch_idx)
                batch = _make_batch(bundle.train, flat, bounds)
                n_rows = len(flat)
            else:
                batch = _make_batch(bundle.train, batch_idx)
                n_rows = len(batch_idx)
            loss = model.loss_and_grad(batch)
            if not math.isfinite(loss):
                logger.warning("epoch %d: non-finite loss, aborting with last good state", epoch)
                diverged = True
                break
            _optimizer_step(model, adam)
            loss_sum += loss * n_rows
            sample_count += n_rows
        if diverged:
            break

        epoch_loss = loss_sum / max(sample_count, 1)
        val_auc, val_level = _validation_auc(model, bundle.validation, bundle.num_feedbacks)
        line = f"epoch={epoch} loss={epoch_loss:.6f} val_auc_t{val_level}={val_auc:.6f}"
        log_lines.append(line)
        logger.info(line)
        if val_auc > best_metric:
            best_metric = val_auc
            best_epoch = epoch
            best_params = _snapshot(model)
            epochs_since_best = 0
        else:
            epochs_since_best += 1
            if config.patience is not None and epochs_since_best >= config.patience:
                logger.info("early stop at epoch %d (patience %d)", epoch, config.patience)
                break

    checkpoint = Checkpoint(
        model_config=model_config,
        train_config=config.to_dict(),
        schema_names=list(bundle.schema.names),
        schema_counts=list(bundle.schema.positive_counts),
        schema_order=list(bundle.schema.order),
        user_feature_names=list(bundle.user_feature_names),
        item_feature_names=list(bundle.item_feature_names),
        user_vocab_sizes=list(bundle.user_vocab_sizes),
        item_vocab_sizes=list(bundle.item_vocab_sizes),
        binning={k: v.tolist() for k, v in bundle.binning.items()},
        best_metric=best_metric,
        best_epoch=best_epoch,
        config_hash=_config_hash(model_config, config),
        params=best_params,
    )
    return TrainResult(checkpoint=checkpoint, log_lines=log_lines, diverged=diverged)


# ---------------------------------------------------------------------------
# Evaluation
# ---------------------------------------------------------------------------


def unified_index(model, bundle: DatasetBundle) -> RetrievalIndex:
    """Every item's unified embedding, computed in chunks of rows."""
    vectors = np.concatenate(
        [
            model.item_embeddings(bundle.item_feature_table[start : start + _SCORE_CHUNK])
            for start in range(0, len(bundle.items), _SCORE_CHUNK)
        ]
    )
    return RetrievalIndex(item_ids=list(bundle.items), vectors=vectors)


def retrieval_recalls(
    model,
    bundle: DatasetBundle,
    ks: tuple[int, ...],
    split_name: str = "test",
    level: int | None = None,
    user_vectors: np.ndarray | None = None,
    index: RetrievalIndex | None = None,
) -> dict[str, float]:
    """Mean Recall@K over split users; positives are samples with k > level.

    The candidate pool is the full item universe; users without positives
    at the level are skipped.  One ``topk_retrieve_batch`` call ranks every
    user to depth max(ks), and every level and K reads a prefix of that
    user's ranking.
    """
    if not ks or min(ks) < 0:
        raise ArgumentError(f"recall needs one or more K >= 0, got {tuple(ks)}")
    split = bundle.split(split_name)
    levels = [level] if level is not None else list(range(1, bundle.num_feedbacks + 1))
    if index is None:
        index = unified_index(model, bundle)
    if user_vectors is None:
        user_vectors = np.concatenate(
            [
                model.user_embeddings(bundle.user_feature_table[start : start + _SCORE_CHUNK])
                for start in range(0, len(bundle.users), _SCORE_CHUNK)
            ]
        )
    level_positives: dict[int, dict[int, set[str]]] = {}
    for lvl in levels:
        per_user = level_positives[lvl] = {}
        for row in np.nonzero(split.labels > lvl)[0]:
            per_user.setdefault(int(split.user_index[row]), set()).add(
                bundle.items[int(split.item_index[row])]
            )
    ranked_users = sorted(set().union(*level_positives.values()))
    rankings = dict(
        zip(ranked_users, topk_retrieve_batch(user_vectors[ranked_users], index, max(ks)))
    )
    out: dict[str, float] = {}
    for lvl, per_user in level_positives.items():
        for k in ks:
            recalls = [
                recall_at_k(rankings[uid], k, positives)
                for uid, positives in sorted(per_user.items())
            ]
            if recalls:
                out[f"recall_t{lvl}@{k}"] = float(np.mean(recalls))
    return out


def evaluate(
    model,
    bundle: DatasetBundle,
    split_name: str = "test",
    recall_ks: tuple[int, ...] = (),
    gauc_weighting: str = "pairs",
    with_gauc: bool = True,
    index: RetrievalIndex | None = None,
) -> dict[str, float]:
    """Per-task AUC (raw feedback bits), GAUC over users, optional Recall@K.

    ``index`` is the unified item index when the caller has already built
    it; NSB recall ignores it and retrieves in its per-level spaces.
    """
    split = bundle.split(split_name)
    metrics: dict[str, float] = {}
    if model.kind == "bce":
        levels = [model.cfg.bce_target_level]
    else:
        levels = list(range(1, bundle.num_feedbacks + 1))
    all_scores = _split_scores(model, split)
    for level in levels:
        labels = split.bits[:, level - 1]
        if labels.min() == labels.max():
            continue
        scores = _level_column(all_scores, level)
        metrics[f"auc_t{level}"] = auc(scores, labels)
        if with_gauc and split.lists.num_lists > 0:
            try:
                metrics[f"gauc_t{level}"] = gauc(
                    scores, labels, split.user_index, weighting=gauc_weighting
                )
            except UndefinedMetricError:
                pass
    if recall_ks:
        if isinstance(model, NsbModel):
            # Task-specific spaces: each level retrieves with its own towers.
            for lvl in range(1, bundle.num_feedbacks + 1):
                index = RetrievalIndex(
                    list(bundle.items),
                    model.task_item_embeddings(bundle.item_feature_table, lvl),
                )
                users = model.task_user_embeddings(bundle.user_feature_table, lvl)
                metrics.update(
                    retrieval_recalls(
                        model, bundle, recall_ks, split_name, lvl, users, index
                    )
                )
        else:
            metrics.update(retrieval_recalls(model, bundle, recall_ks, split_name, index=index))
    return metrics


def multi_run(bundle: DatasetBundle, config: TrainConfig, n_seeds: int, **eval_kwargs) -> dict:
    """Train and test with seeds seed..seed+n-1; report mean and sample std."""
    if n_seeds < 1:
        raise ArgumentError(f"need at least one seed, got {n_seeds}")
    runs = []
    for offset in range(n_seeds):
        cfg = dataclasses.replace(config, seed=config.seed + offset)
        result = train(bundle, cfg)
        runs.append(evaluate(result.checkpoint.build_model(), bundle, **eval_kwargs))
    keys = sorted(set().union(*runs))
    report: dict[str, dict[str, float]] = {}
    for key in keys:
        values = np.asarray([run[key] for run in runs if key in run])
        std = 0.0 if values.size <= 1 else float(np.std(values, ddof=1))
        report[key] = {"mean": float(values.mean()), "std": std, "n": int(values.size)}
    return report


# ---------------------------------------------------------------------------
# Checkpoint file format (magic GNC1, little-endian, atomic write)
# ---------------------------------------------------------------------------


def save_checkpoint(checkpoint: Checkpoint, path) -> None:
    names = sorted(checkpoint.params)
    meta = {
        "model_config": checkpoint.model_config.to_dict(),
        "train_config": checkpoint.train_config,
        "schema_names": checkpoint.schema_names,
        "schema_counts": checkpoint.schema_counts,
        "schema_order": checkpoint.schema_order,
        "user_feature_names": checkpoint.user_feature_names,
        "item_feature_names": checkpoint.item_feature_names,
        "user_vocab_sizes": checkpoint.user_vocab_sizes,
        "item_vocab_sizes": checkpoint.item_vocab_sizes,
        "binning": checkpoint.binning,
        "best_metric": checkpoint.best_metric,
        "best_epoch": checkpoint.best_epoch,
        "config_hash": checkpoint.config_hash,
        "params": [
            {"name": n, "shape": list(checkpoint.params[n].shape)} for n in names
        ],
    }
    blob = json.dumps(meta, sort_keys=True, separators=(",", ":")).encode("utf-8")
    directory = os.path.dirname(os.path.abspath(path))
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".gnc1-")
    try:
        with os.fdopen(fd, "wb") as fh:
            fh.write(CHECKPOINT_MAGIC)
            fh.write(np.asarray(CHECKPOINT_VERSION, dtype="<u4").tobytes())
            fh.write(np.asarray(len(blob), dtype="<u8").tobytes())
            fh.write(blob)
            for name in names:
                fh.write(np.ascontiguousarray(checkpoint.params[name], dtype="<f8").tobytes())
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def load_checkpoint(path) -> Checkpoint:
    with open(path, "rb") as fh:
        meta = read_header(fh, path, CHECKPOINT_MAGIC, CHECKPOINT_VERSION, "checkpoint")
        try:
            params = {
                spec["name"]: read_array(fh, path, spec["shape"], "<f8")
                for spec in meta["params"]
            }
            return Checkpoint(
                model_config=ModelConfig.from_dict(meta["model_config"]),
                train_config=meta["train_config"],
                schema_names=meta["schema_names"],
                schema_counts=meta["schema_counts"],
                schema_order=meta["schema_order"],
                user_feature_names=meta["user_feature_names"],
                item_feature_names=meta["item_feature_names"],
                user_vocab_sizes=meta["user_vocab_sizes"],
                item_vocab_sizes=meta["item_vocab_sizes"],
                binning=meta["binning"],
                best_metric=meta["best_metric"],
                best_epoch=meta["best_epoch"],
                config_hash=meta["config_hash"],
                params=params,
            )
        except (KeyError, TypeError, ValueError) as exc:
            raise IngestionError(f"{path}: malformed checkpoint: {exc!r}") from None
