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
from dataclasses import dataclass, field
from typing import Iterator

import numpy as np

from .data import DatasetBundle, Split, read_array, read_header, write_artifact
from .data import check_end
from .errors import ArgumentError, ConfigError, DimensionError, IngestionError, OptimizerError
from .errors import UndefinedMetricError
from .feedback import ThresholdSet, estimate_thresholds
from .metrics import RetrievalIndex, auc, gauc, topk_retrieve_batch
from .models import Batch, ModelConfig, ModelSettings, make_model
from .tensor import AdamConfig, adam_step, adam_step_sparse

logger = logging.getLogger("gnolr")

CHECKPOINT_MAGIC = b"GNC1"
CHECKPOINT_VERSION = 1


@dataclass(frozen=True)
class TrainConfig(ModelSettings):
    """Model settings plus optimization knobs; thresholds=None auto-estimates."""

    thresholds: tuple[float, ...] | None = None
    thresholds_population: str = "train"
    learning_rate: float = 0.05
    epochs: int = 10
    batch_size: int = 1024
    list_batch_size: int = 32
    seed: int = 0
    patience: int | None = None

    def __post_init__(self) -> None:
        try:
            super().__post_init__()
            AdamConfig(self.learning_rate)
            if self.thresholds is not None:
                ThresholdSet(self.thresholds)
        except (ArgumentError, OptimizerError) as exc:
            raise ConfigError(str(exc)) from None
        if self.epochs < 1:
            raise ConfigError(f"epochs must be >= 1, got {self.epochs}")
        if min(self.batch_size, self.list_batch_size) < 1:
            raise ConfigError(
                f"batch sizes must be >= 1, got {self.batch_size} and {self.list_batch_size}"
            )
        if self.seed < 0:
            raise ConfigError(f"seed must be >= 0, got {self.seed}")
        if self.thresholds_population not in ("train", "all"):
            raise ConfigError(
                f"thresholds_population must be train|all, got {self.thresholds_population}"
            )
        if self.patience is not None and self.patience < 1:
            raise ConfigError(f"patience must be >= 1, got {self.patience}")
        # Settings the chosen kind would silently ignore.  Checked here, not in
        # ModelSettings, so that checkpoints saved before the check still load.
        if self.listwise and self.kind != "gnolr":
            raise ConfigError(f"listwise applies to kind gnolr only, not {self.kind}")
        if self.variant != "nested" and self.kind != "gnolr":
            raise ConfigError(f"variant {self.variant} applies to kind gnolr only, not {self.kind}")
        if self.positive_weights and self.kind in ("gnolr", "neural_olr"):
            raise ConfigError(f"positive_weights apply to kinds bce and nsb, not {self.kind}")
        if self.bce_raw_cosine and self.kind in ("gnolr", "neural_olr"):
            raise ConfigError(f"bce_raw_cosine applies to kinds bce and nsb, not {self.kind}")
        if self.bce_target_level != 1 and self.kind != "bce":
            raise ConfigError(f"bce_target_level applies to kind bce only, not {self.kind}")
        if not self.listnet_use_log and not self.listwise:
            raise ConfigError("listnet_use_log = false applies to listwise training only")


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

    def check_bundle(self, bundle: DatasetBundle) -> None:
        """Refuse a bundle other than the one this checkpoint was trained on.

        Ids from another vocabulary would land on the wrong or the OOV table
        rows and give plausible but wrong scores, so any difference in the
        fields the bundle decides is a config error naming the first one.
        """
        for name, value in _bundle_fields(bundle).items():
            if getattr(self, name) != value:
                raise ConfigError(
                    f"checkpoint does not fit this bundle: {name} differs "
                    "(was it trained on another bundle?)"
                )

    def build_model(self):
        """The trained model: a skeleton built without drawing, every value then stored.

        The stored arrays must be exactly the parameters that ``model_config``
        builds, each with its shape and finite: anything else is a malformed
        checkpoint, which would otherwise load or score as plausible numbers.
        """
        model = make_model(
            self.model_config,
            dict(zip(self.user_feature_names, self.user_vocab_sizes)),
            dict(zip(self.item_feature_names, self.item_vocab_sizes)),
            None,
        )
        pmap = model.param_map()
        missing = set(pmap) - set(self.params)
        if missing:
            raise IngestionError(f"checkpoint lacks parameters: {sorted(missing)}")
        extra = set(self.params) - set(pmap)
        if extra:
            raise IngestionError(f"checkpoint holds unknown parameters: {sorted(extra)}")
        for name, param in pmap.items():
            stored = self.params[name]
            if stored.shape != param.value.shape:
                raise IngestionError(
                    f"parameter '{name}' shape mismatch: {stored.shape} vs {param.value.shape}"
                )
            if not np.isfinite(stored).all():
                raise IngestionError(f"parameter '{name}' holds non-finite values")
            param.value[...] = stored
        return model


@dataclass
class TrainResult:
    checkpoint: Checkpoint
    log_lines: list[str]
    diverged: bool = False


def _bundle_fields(bundle: DatasetBundle) -> dict:
    """The checkpoint fields that the training bundle decides."""
    return {
        "user_feature_names": list(bundle.user_feature_names),
        "item_feature_names": list(bundle.item_feature_names),
        "user_vocab_sizes": list(bundle.user_vocab_sizes),
        "item_vocab_sizes": list(bundle.item_vocab_sizes),
        "schema_names": list(bundle.schema.names),
        "schema_counts": list(bundle.schema.positive_counts),
        "schema_order": list(bundle.schema.order),
        "binning": {k: v.tolist() for k, v in bundle.binning.items()},
    }


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
    """The model config for this bundle; any value it rejects is a config error."""
    if config.kind == "nsb" and bundle.num_feedbacks < 2:
        raise ConfigError("the shared-bottom baseline needs at least 2 feedback types")
    thresholds = resolve_thresholds(bundle, config)
    settings = {f.name: getattr(config, f.name) for f in dataclasses.fields(ModelSettings)}
    try:
        return ModelConfig(num_levels=bundle.num_feedbacks, thresholds=thresholds, **settings)
    except ArgumentError as exc:
        raise ConfigError(str(exc)) from None


def make_batches(split: Split, cfg: TrainConfig, epoch: int) -> Iterator[Batch]:
    """Epoch ``epoch``'s shuffled batches, drawn from seed + epoch; the final short one is kept.

    Pointwise, a batch is ``batch_size`` samples.  Listwise, it is
    ``list_batch_size`` user lists joined in order, and ``list_bounds``
    marks each list's segment.
    """
    rng = np.random.default_rng(cfg.seed + epoch)
    if cfg.listwise:
        perm, size = rng.permutation(split.lists.num_lists), cfg.list_batch_size
    else:
        perm, size = rng.permutation(split.num_samples), cfg.batch_size
    for start in range(0, len(perm), size):
        rows, bounds = perm[start : start + size], None
        if cfg.listwise:
            lists = [split.lists.list_samples(int(li)) for li in rows]
            ends = np.cumsum([len(lst) for lst in lists]).tolist()
            bounds = list(zip([0] + ends[:-1], ends))
            rows = np.concatenate(lists)
        yield Batch(
            user_features=split.user_features[rows],
            item_features=split.item_features[rows],
            labels=split.labels[rows],
            bits=split.bits[rows],
            list_bounds=bounds,
        )


def _optimizer_step(model, adam: AdamConfig) -> None:
    """Lazy Adam on the table rows given a gradient, one Adam call for the rest."""
    for side in (model.user, model.item):
        for table, rows, grad in side.tables.take_grads():
            adam_step_sparse(table, adam, rows, grad)
    adam_step(model.dense, adam)


def train_step(model, batch: Batch, adam: AdamConfig) -> float:
    """One training step: the batch loss and gradients, then Adam if the loss is finite.

    Returns the mean batch loss.  A non-finite loss leaves the parameters as
    they were and drops the step's gradients, so no later step applies them.
    """
    loss = model.loss_and_grad(batch)
    if math.isfinite(loss):
        _optimizer_step(model, adam)
    else:
        model.zero_grad()
    return loss


def _split_scores(model, split: Split) -> np.ndarray:
    """Every level's task scores for the split, from one ``task_scores_all`` call."""
    return model.task_scores_all(split.user_features, split.item_features)


def _level_column(scores: np.ndarray, level: int) -> np.ndarray:
    """The level's score column; a single-column model (BCE) answers every level."""
    return scores[:, min(level, scores.shape[1]) - 1]


def _validation_auc(model, split: Split, num_levels: int) -> tuple[float, int]:
    """AUC on the sparsest level the model targets, else the sparsest other two-class level."""
    first = max(model.targets)
    for level in [first] + [lvl for lvl in range(num_levels, 0, -1) if lvl != first]:
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
    best_params = _snapshot(model)
    best_metric = -math.inf
    best_epoch = 0
    log_lines: list[str] = []
    diverged = False
    epochs_since_best = 0

    for epoch in range(1, config.epochs + 1):
        loss_sum = 0.0
        sample_count = 0
        for batch in make_batches(bundle.train, config, epoch):
            loss = train_step(model, batch, adam)
            if not math.isfinite(loss):
                logger.warning("epoch %d: non-finite loss, aborting with last good state", epoch)
                diverged = True
                break
            loss_sum += loss * len(batch.labels)
            sample_count += len(batch.labels)
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
        **_bundle_fields(bundle),
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
    """Every item's unified embedding."""
    vectors = model.item_embeddings(bundle.item_feature_table)
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

    The candidate pool is the full item universe: row j of ``index`` is
    bundle item j.  Users without positives at the level are skipped.  One
    ``topk_retrieve_batch`` call ranks every user to depth max(ks).  A
    level's distinct (user, item) positive pairs and every K's prefix of
    the rankings become keys ``user * n_items + item``; a user's recall is
    its matched keys over its positives, averaged in ascending user order.
    """
    if not ks or min(ks) < 0:
        raise ArgumentError(f"recall needs one or more K >= 0, got {tuple(ks)}")
    split = bundle.split(split_name)
    levels = [level] if level is not None else list(range(1, bundle.num_feedbacks + 1))
    n_items = len(bundle.items)
    if index is None:
        index = unified_index(model, bundle)
    elif len(index) != n_items:
        raise DimensionError(f"index of {len(index)} items does not match the bundle's {n_items}")
    if user_vectors is None:
        user_vectors = model.user_embeddings(bundle.user_feature_table)
    pair_keys = split.user_index * n_items + split.item_index
    level_keys = {lvl: np.unique(pair_keys[split.labels > lvl]) for lvl in levels}
    ranked_users = np.unique(np.concatenate([keys // n_items for keys in level_keys.values()]))
    ranking = topk_retrieve_batch(user_vectors[ranked_users], index, max(ks))
    ranked_keys = ranked_users[:, None] * n_items + ranking
    out: dict[str, float] = {}
    for lvl, keys in level_keys.items():
        if len(keys) == 0:
            continue
        _, user_of, positives = np.unique(keys // n_items, return_inverse=True, return_counts=True)
        for k in ks:
            hit = np.isin(keys, ranked_keys[:, :k])
            hits = np.bincount(user_of, weights=hit, minlength=len(positives))
            out[f"recall_t{lvl}@{k}"] = float(np.mean(hits / positives))
    return out


def evaluate(
    model,
    bundle: DatasetBundle,
    split_name: str = "test",
    recall_ks: tuple[int, ...] = (),
    gauc_weighting: str = "pairs",
    index: RetrievalIndex | None = None,
    user_vectors: np.ndarray | None = None,
) -> dict[str, float]:
    """Per-task AUC (raw feedback bits), GAUC over users, optional Recall@K.

    ``gauc_weighting`` is ``gauc``'s weighting, or "off" to skip GAUC.

    ``index`` and ``user_vectors`` are the unified item index and user
    matrix when the caller has already built them.  Recall retrieves each
    level in the model's ``retrieval_spaces`` of both.
    """
    split = bundle.split(split_name)
    metrics: dict[str, float] = {}
    all_scores = _split_scores(model, split)
    for level in model.targets:
        labels = split.bits[:, level - 1]
        if labels.min() == labels.max():
            continue
        scores = _level_column(all_scores, level)
        metrics[f"auc_t{level}"] = auc(scores, labels)
        if gauc_weighting != "off" and split.lists.num_lists > 0:
            try:
                metrics[f"gauc_t{level}"] = gauc(
                    scores, labels, split.user_index, weighting=gauc_weighting
                )
            except UndefinedMetricError:
                pass
    if recall_ks:
        if index is None:
            index = unified_index(model, bundle)
        if user_vectors is None:
            user_vectors = model.user_embeddings(bundle.user_feature_table)
        for lvl, users, space in model.retrieval_spaces(user_vectors, index):
            metrics.update(
                retrieval_recalls(model, bundle, recall_ks, split_name, lvl, users, space)
            )
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
    """Atomic write of the GNC1 file: every Checkpoint field in the header, then the params."""
    names = sorted(checkpoint.params)
    meta = {f.name: getattr(checkpoint, f.name) for f in dataclasses.fields(Checkpoint)}
    meta["model_config"] = checkpoint.model_config.to_dict()
    meta["params"] = [{"name": n, "shape": list(checkpoint.params[n].shape)} for n in names]
    write_artifact(
        path,
        CHECKPOINT_MAGIC,
        CHECKPOINT_VERSION,
        meta,
        [(checkpoint.params[n], "<f8") for n in names],
    )


def load_checkpoint(path) -> Checkpoint:
    with open(path, "rb") as fh:
        meta = read_header(fh, path, CHECKPOINT_MAGIC, CHECKPOINT_VERSION, "checkpoint")
        try:
            values = {f.name: meta[f.name] for f in dataclasses.fields(Checkpoint)}
            values["params"] = {
                spec["name"]: read_array(fh, path, spec["shape"], "<f8")
                for spec in meta["params"]
            }
            check_end(fh, path)
            if not isinstance(values["train_config"], dict):
                raise TypeError("train_config is not an object")
            values["model_config"] = ModelConfig.from_dict(meta["model_config"])
            return Checkpoint(**values)
        except (AttributeError, KeyError, TypeError, ValueError) as exc:
            raise IngestionError(f"{path}: malformed checkpoint: {exc!r}") from None
