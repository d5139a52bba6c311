"""Trainable models: nested ordinal twin towers and the reference baselines.

All models share the same ingredients: per-feature embedding tables
(shared across towers), unit-output MLP towers, dot-product similarity of
the normalized outputs, one Adam-updated parameter list.  They differ in
how many tower pairs they instantiate and which loss supervises them.
The tower and head parameters live in one flat ``dense`` buffer, so one
Adam call updates them; the tables take row-sparse updates.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .encoders import EmbeddingTableSet, NestedTwinEncoder, TowerConfig
from .errors import ArgumentError
from .feedback import ThresholdSet
from .losses import (
    GnolrHyper,
    bce_batch,
    gnolr_batch,
    listnet_list_batch,
    olr_nested_batch,
    olr_percategory_batch,
    olr_shared_batch,
)
from .tensor import Parameter, pack_parameters, stable_sigmoid

MODEL_KINDS = ("gnolr", "neural_olr", "bce", "nsb")
GNOLR_VARIANTS = ("nested", "v0", "v1")


@dataclass(frozen=True)
class ModelConfig:
    """Everything needed to rebuild a model skeleton deterministically."""

    kind: str
    num_levels: int
    thresholds: tuple[float, ...]
    gamma: float = 1.0
    clip_floor: float = 1e-6
    embedding_dim: int = 16
    hidden_sizes: tuple[int, ...] = (128, 64, 32)
    activation_slope: float = 0.01
    variant: str = "nested"
    listwise: bool = False
    listnet_use_log: bool = True
    positive_weights: tuple[float, ...] = ()
    bce_raw_cosine: bool = False
    bce_target_level: int = 1

    def __post_init__(self) -> None:
        if self.kind not in MODEL_KINDS:
            raise ArgumentError(f"unknown model kind '{self.kind}'")
        if self.variant not in GNOLR_VARIANTS:
            raise ArgumentError(f"unknown variant '{self.variant}'")
        if self.num_levels < 1:
            raise ArgumentError("num_levels must be >= 1")
        if len(self.thresholds) != self.num_levels:
            raise ArgumentError(
                f"{self.num_levels} levels need {self.num_levels} thresholds, "
                f"got {len(self.thresholds)}"
            )
        if not 1 <= self.bce_target_level <= self.num_levels:
            raise ArgumentError(f"bce_target_level outside 1..{self.num_levels}")
        if any(w < 1 for w in self.positive_weights):
            raise ArgumentError(f"positive weights must be >= 1, got {self.positive_weights}")

    @property
    def hyper(self) -> GnolrHyper:
        return GnolrHyper(ThresholdSet(self.thresholds), self.gamma, self.clip_floor)

    def task_weight(self, level: int) -> float:
        if not self.positive_weights:
            return 1.0
        if len(self.positive_weights) == 1:
            return self.positive_weights[0]
        return self.positive_weights[level - 1]

    def to_dict(self) -> dict:
        return {
            "kind": self.kind,
            "num_levels": self.num_levels,
            "thresholds": list(self.thresholds),
            "gamma": self.gamma,
            "clip_floor": self.clip_floor,
            "embedding_dim": self.embedding_dim,
            "hidden_sizes": list(self.hidden_sizes),
            "activation_slope": self.activation_slope,
            "variant": self.variant,
            "listwise": self.listwise,
            "listnet_use_log": self.listnet_use_log,
            "positive_weights": list(self.positive_weights),
            "bce_raw_cosine": self.bce_raw_cosine,
            "bce_target_level": self.bce_target_level,
        }

    @classmethod
    def from_dict(cls, d: dict) -> "ModelConfig":
        d = dict(d)
        for key in ("thresholds", "hidden_sizes", "positive_weights"):
            d[key] = tuple(d[key])
        return cls(**d)


@dataclass
class Batch:
    """One training batch; ``list_bounds`` marks list segments when listwise."""

    user_features: np.ndarray
    item_features: np.ndarray
    labels: np.ndarray
    bits: np.ndarray
    list_bounds: list[tuple[int, int]] | None = None


class _TwinBase:
    """Feature lookup plus tower-pair bookkeeping shared by all models."""

    def __init__(
        self,
        cfg: ModelConfig,
        user_vocabs: dict[str, int],
        item_vocabs: dict[str, int],
        rng: np.random.Generator,
        num_pairs: int,
        heads: tuple[_CalibratedHead, ...] = (),
    ) -> None:
        self.cfg = cfg
        self.tables_user = EmbeddingTableSet(user_vocabs, cfg.embedding_dim, rng, "emb_u")
        self.tables_item = EmbeddingTableSet(item_vocabs, cfg.embedding_dim, rng, "emb_i")
        tower_cfg = TowerConfig(cfg.hidden_sizes, cfg.activation_slope)
        self.encoder = NestedTwinEncoder(
            num_pairs,
            self.tables_user.output_dim,
            self.tables_item.output_dim,
            tower_cfg,
            rng,
        )
        self.heads = list(heads)
        self.dense = pack_parameters("dense", self._dense_params())

    def _dense_params(self) -> list[Parameter]:
        return self.encoder.params + [p for head in self.heads for p in head.params]

    @property
    def params(self) -> list[Parameter]:
        return self.tables_user.params + self.tables_item.params + self._dense_params()

    def param_map(self) -> dict[str, Parameter]:
        return {p.name: p for p in self.params}

    def _forward(self, user_ids: np.ndarray, item_ids: np.ndarray):
        user_x = self.tables_user.lookup(user_ids)
        item_x = self.tables_item.lookup(item_ids)
        u, i, caches = self.encoder.forward(user_x, item_x)
        return u, i, caches

    def _backward(self, grad_u, grad_i, caches, user_ids, item_ids) -> None:
        gu_x, gi_x = self.encoder.backward(grad_u, grad_i, caches)
        self.tables_user.backward(gu_x, user_ids)
        self.tables_item.backward(gi_x, item_ids)

    def _dots(self, user_ids: np.ndarray, item_ids: np.ndarray) -> np.ndarray:
        """(B, num_pairs) per-level similarities of the unit sub-embeddings."""
        u, i, _ = self._forward(user_ids, item_ids)
        return np.einsum("btd,btd->bt", u, i)

    def user_embeddings(self, feature_rows: np.ndarray) -> np.ndarray:
        return self.encoder.embed_entities(self.tables_user.lookup(feature_rows), "user")

    def item_embeddings(self, feature_rows: np.ndarray) -> np.ndarray:
        return self.encoder.embed_entities(self.tables_item.lookup(feature_rows), "item")


class GnolrModel(_TwinBase):
    """T tower pairs under the nested ordinal loss (or an ablation variant).

    ``variant`` selects the supervision: "nested" is the full
    subtask-summed loss; "v1" keeps the nested prefix kernels but uses the
    plain single-term ordinal likelihood; "v0" additionally drops the
    prefix aggregation (each level scores its own sub-embedding only).
    """

    kind = "gnolr"

    def __init__(self, cfg, user_vocabs, item_vocabs, rng) -> None:
        super().__init__(cfg, user_vocabs, item_vocabs, rng, cfg.num_levels)
        self.hyper = cfg.hyper

    def _pointwise(self, labels, dots):
        if self.cfg.variant == "nested":
            return gnolr_batch(labels, dots, self.hyper)
        if self.cfg.variant == "v1":
            return olr_nested_batch(labels, dots, self.hyper)
        return olr_percategory_batch(labels, dots, self.hyper)

    def loss_and_grad(self, batch: Batch) -> float:
        u, i, caches = self._forward(batch.user_features, batch.item_features)
        dots = np.einsum("btd,btd->bt", u, i)
        n = dots.shape[0]
        losses, grad_dots = self._pointwise(batch.labels, dots)
        total = float(losses.mean())
        grad_dots = grad_dots / n

        if self.cfg.listwise:
            if not batch.list_bounds:
                raise ArgumentError("listwise model needs list bounds in the batch")
            logits = self.hyper.gamma * dots.sum(axis=1)
            positives = batch.labels >= 2
            n_lists = len(batch.list_bounds)
            list_total = 0.0
            grad_logits = np.zeros(n)
            for start, end in batch.list_bounds:
                loss, grad = listnet_list_batch(
                    logits[start:end], positives[start:end], self.cfg.listnet_use_log
                )
                list_total += loss
                grad_logits[start:end] = grad
            total += list_total / n_lists
            grad_dots = grad_dots + self.hyper.gamma * (grad_logits / n_lists)[:, None]

        grad_u = grad_dots[:, :, None] * i
        grad_i = grad_dots[:, :, None] * u
        self._backward(grad_u, grad_i, caches, batch.user_features, batch.item_features)
        return total

    def task_scores_all(self, user_ids, item_ids) -> np.ndarray:
        """P(k > c) for every level c from one forward pass; shape (B, T).

        The v0 variant scores each level on its own sub-similarity, matching
        its training convention; the others use the prefix sums.
        """
        dots = self._dots(user_ids, item_ids)
        a = self.hyper.thresholds.as_array()
        if self.cfg.variant == "v0":
            c = np.arange(1, self.cfg.num_levels + 1, dtype=np.float64)
            return 1.0 - stable_sigmoid(a[None, :] - c[None, :] * self.hyper.gamma * dots)
        cs = np.cumsum(dots, axis=1)
        return 1.0 - stable_sigmoid(a[None, :] - self.hyper.gamma * cs)


class NeuralOlrModel(_TwinBase):
    """One shared tower pair under the plain ordinal likelihood."""

    kind = "neural_olr"

    def __init__(self, cfg, user_vocabs, item_vocabs, rng) -> None:
        super().__init__(cfg, user_vocabs, item_vocabs, rng, 1)
        self.hyper = cfg.hyper

    def loss_and_grad(self, batch: Batch) -> float:
        u, i, caches = self._forward(batch.user_features, batch.item_features)
        kernel = np.einsum("btd,btd->bt", u, i)[:, 0]
        losses, grad_kernel = olr_shared_batch(batch.labels, kernel, self.hyper)
        n = kernel.shape[0]
        grad = (grad_kernel / n)[:, None, None]
        self._backward(grad * i, grad * u, caches, batch.user_features, batch.item_features)
        return float(losses.mean())

    def task_scores_all(self, user_ids, item_ids) -> np.ndarray:
        kernel = self._dots(user_ids, item_ids)[:, 0]
        a = self.hyper.thresholds.as_array()
        c = np.arange(1, self.cfg.num_levels + 1, dtype=np.float64)
        return 1.0 - stable_sigmoid(a[None, :] - c[None, :] * self.hyper.gamma * kernel[:, None])


class _CalibratedHead:
    """Affine logit head w * cosine + b with learnable scalars."""

    def __init__(self, name: str, raw: bool) -> None:
        self.raw = raw
        self.w = Parameter(f"{name}.w", np.ones((1, 1)))
        self.b = Parameter(f"{name}.b", np.zeros((1, 1)))

    @property
    def params(self) -> list[Parameter]:
        return [] if self.raw else [self.w, self.b]

    def forward(self, dots: np.ndarray) -> np.ndarray:
        if self.raw:
            return dots
        return float(self.w.value[0, 0]) * dots + float(self.b.value[0, 0])

    def backward(self, grad_logits: np.ndarray, dots: np.ndarray) -> np.ndarray:
        if self.raw:
            return grad_logits
        self.w.grad[0, 0] += float(np.dot(grad_logits, dots))
        self.b.grad[0, 0] += float(grad_logits.sum())
        return grad_logits * float(self.w.value[0, 0])


class BceModel(_TwinBase):
    """Single-task twin tower trained with (optionally reweighted) BCE.

    The target is one raw feedback bit; the logit is an affine-calibrated
    cosine unless ``bce_raw_cosine`` pins it to the bounded similarity
    itself.
    """

    kind = "bce"

    def __init__(self, cfg, user_vocabs, item_vocabs, rng) -> None:
        head = _CalibratedHead("head", cfg.bce_raw_cosine)
        super().__init__(cfg, user_vocabs, item_vocabs, rng, 1, (head,))
        self.head = head

    def loss_and_grad(self, batch: Batch) -> float:
        u, i, caches = self._forward(batch.user_features, batch.item_features)
        dots = np.einsum("btd,btd->bt", u, i)[:, 0]
        targets = batch.bits[:, self.cfg.bce_target_level - 1]
        logits = self.head.forward(dots)
        losses, grad_logits = bce_batch(
            logits, targets, self.cfg.task_weight(self.cfg.bce_target_level)
        )
        n = dots.shape[0]
        grad_dots = self.head.backward(grad_logits / n, dots)
        grad = grad_dots[:, None, None]
        self._backward(grad * i, grad * u, caches, batch.user_features, batch.item_features)
        return float(losses.mean())

    def task_scores_all(self, user_ids, item_ids) -> np.ndarray:
        """P(target bit) in a single column, shape (B, 1), whatever T is."""
        dots = self._dots(user_ids, item_ids)[:, 0]
        return stable_sigmoid(self.head.forward(dots))[:, None]


class NsbModel(_TwinBase):
    """Independent per-task twin towers over shared embedding tables.

    Task t's logit comes from its own tower pair and head; the only
    cross-task coupling is the shared feature tables.
    """

    kind = "nsb"

    def __init__(self, cfg, user_vocabs, item_vocabs, rng) -> None:
        heads = tuple(
            _CalibratedHead(f"head{t}", cfg.bce_raw_cosine)
            for t in range(1, cfg.num_levels + 1)
        )
        super().__init__(cfg, user_vocabs, item_vocabs, rng, cfg.num_levels, heads)

    def loss_and_grad(self, batch: Batch) -> float:
        u, i, caches = self._forward(batch.user_features, batch.item_features)
        dots = np.einsum("btd,btd->bt", u, i)
        n = dots.shape[0]
        total = 0.0
        grad_dots = np.zeros_like(dots)
        for t in range(self.cfg.num_levels):
            logits = self.heads[t].forward(dots[:, t])
            losses, grad_logits = bce_batch(
                logits, batch.bits[:, t], self.cfg.task_weight(t + 1)
            )
            total += float(losses.mean())
            grad_dots[:, t] = self.heads[t].backward(grad_logits / n, dots[:, t])
        grad_u = grad_dots[:, :, None] * i
        grad_i = grad_dots[:, :, None] * u
        self._backward(grad_u, grad_i, caches, batch.user_features, batch.item_features)
        return total

    def task_scores_all(self, user_ids, item_ids) -> np.ndarray:
        dots = self._dots(user_ids, item_ids)
        cols = [
            stable_sigmoid(self.heads[t].forward(dots[:, t]))
            for t in range(self.cfg.num_levels)
        ]
        return np.stack(cols, axis=1)

    def task_user_embeddings(self, feature_rows: np.ndarray, level: int) -> np.ndarray:
        x = self.tables_user.lookup(feature_rows)
        return self.encoder.user_towers[level - 1].forward(x)[0]

    def task_item_embeddings(self, feature_rows: np.ndarray, level: int) -> np.ndarray:
        x = self.tables_item.lookup(feature_rows)
        return self.encoder.item_towers[level - 1].forward(x)[0]


def make_model(cfg: ModelConfig, user_vocabs: dict[str, int], item_vocabs: dict[str, int], rng):
    cls = {
        "gnolr": GnolrModel,
        "neural_olr": NeuralOlrModel,
        "bce": BceModel,
        "nsb": NsbModel,
    }[cfg.kind]
    return cls(cfg, user_vocabs, item_vocabs, rng)
