"""Trainable models: nested ordinal twin towers and the reference baselines.

All models share the same ingredients: per-feature embedding tables
(shared across towers), unit-output MLP towers, dot-product similarity of
the normalized outputs, one Adam-updated parameter list.  ``_TwinBase``
runs the forward pass, the per-pair dots and the backward pass once for
every model; two families differ only in how the dots become
probabilities:

- ``GnolrModel`` ("gnolr" with its ``v0``/``v1`` ablations, and
  "neural_olr"): ordinal losses through the kernel map
  ``losses.cumulative_from_dots``, which also gives the task scores.
- ``BceModel`` ("bce" and "nsb"): one calibrated logit head and one BCE
  term per target level.

The tower and head parameters live in one flat ``dense`` buffer, so one
Adam call updates them; the tables take row-sparse updates.  Each side's
tables and towers are one ``encoders.TowerSide``, which runs the towers
once per distinct feature row in training, scoring and embedding alike.
"""

from __future__ import annotations

import contextvars
import dataclasses
import math
import os
from dataclasses import dataclass
from typing import Callable, Mapping

import numpy as np

from .encoders import EmbeddingTableSet, TowerSide
from .errors import ArgumentError, DimensionError
from .feedback import ThresholdSet
from .losses import bce_batch, cumulative_from_dots, gnolr_batch, listnet_list_batch
from .metrics import RetrievalIndex
from .tensor import Parameter, block_rows, pack_parameters, stable_sigmoid

MODEL_KINDS = ("gnolr", "neural_olr", "bce", "nsb")
GNOLR_VARIANTS = ("nested", "v0", "v1")


def lane_count(cpus: int, environ: Mapping[str, str]) -> int:
    """Lanes for a training step's two sides: 2 when ``cpus`` usable CPUs hold both
    sides' BLAS threads, else 1.  BLAS runs the first positive count these variables
    set, or with none, as OpenBLAS does, one thread per usable CPU."""
    names = "OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"
    counts = (environ.get(name, "").strip() for name in names)
    blas = next((int(n) for n in counts if n.isdigit() and int(n) > 0), cpus)
    return 2 if cpus >= 2 * blas else 1


_cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1
LANES = lane_count(_cpus, os.environ)
_lane = None  # the lane thread's pool, started by the first two-lane step


def _side_by_side(worker: Callable, caller: Callable) -> tuple:
    """``worker()`` on the lane thread, in a copy of this context (``np.errstate``
    holds there), while ``caller()`` runs here: both results.  It returns or raises
    only once the worker is done; when both raise, the worker's error is raised."""
    global _lane
    if _lane is None:  # imported here: at the top it cost every CLI start 7-9 ms
        from concurrent.futures import ThreadPoolExecutor
        _lane = ThreadPoolExecutor(1, thread_name_prefix="gnolr-lane")
    future = _lane.submit(contextvars.copy_context().run, worker)
    try:
        mine = caller()
    except BaseException:
        future.result()
        raise
    return future.result(), mine


@dataclass(frozen=True, kw_only=True)
class ModelSettings:
    """The model settings a run chooses; ``ModelConfig`` adds what the bundle decides.

    Each check here needs no bundle, so a bad value fails before one loads.
    """

    kind: str = "gnolr"
    variant: str = "nested"
    listwise: bool = False
    listnet_use_log: bool = True
    gamma: float = 1.0
    clip_floor: float = 1e-6
    embedding_dim: int = 16
    hidden_sizes: tuple[int, ...] = (128, 64, 32)
    activation_slope: float = 0.01
    positive_weights: tuple[float, ...] = ()
    bce_raw_cosine: bool = False
    bce_target_level: int = 1

    def __post_init__(self) -> None:
        if self.kind not in MODEL_KINDS:
            raise ArgumentError(f"unknown model kind '{self.kind}'")
        if self.variant not in GNOLR_VARIANTS:
            raise ArgumentError(f"unknown variant '{self.variant}'")
        if not 0 < self.gamma < math.inf:
            raise ArgumentError(f"gamma must be finite and > 0, got {self.gamma}")
        if not 0 < self.clip_floor < 1:
            raise ArgumentError(f"clip floor must lie in (0, 1), got {self.clip_floor}")
        if self.embedding_dim < 1:
            raise ArgumentError(f"embedding dim must be >= 1, got {self.embedding_dim}")
        if not self.hidden_sizes or any(w < 1 for w in self.hidden_sizes):
            raise ArgumentError(f"tower widths must all be >= 1, got {self.hidden_sizes}")
        if not 0.0 < self.activation_slope < 1.0:
            raise ArgumentError(f"activation slope must lie in (0, 1), got {self.activation_slope}")
        if not all(1 <= w < math.inf for w in self.positive_weights):
            raise ArgumentError(
                f"positive weights must be finite and >= 1, got {self.positive_weights}"
            )
        if self.bce_target_level < 1:
            raise ArgumentError(f"bce_target_level must be >= 1, got {self.bce_target_level}")

    def to_dict(self) -> dict:
        """The fields as JSON values: tuples become lists."""
        out = dataclasses.asdict(self)
        return {key: list(v) if isinstance(v, tuple) else v for key, v in out.items()}


@dataclass(frozen=True)
class ModelConfig(ModelSettings):
    """Everything needed to rebuild a model skeleton deterministically."""

    num_levels: int
    thresholds: tuple[float, ...]

    def __post_init__(self) -> None:
        super().__post_init__()
        if self.num_levels < 1:
            raise ArgumentError("num_levels must be >= 1")
        if len(self.thresholds) != self.num_levels:
            raise ArgumentError(
                f"{self.num_levels} levels need {self.num_levels} thresholds, "
                f"got {len(self.thresholds)}"
            )
        if self.bce_target_level > self.num_levels:
            raise ArgumentError(f"bce_target_level outside 1..{self.num_levels}")
        if len(self.positive_weights) not in (0, 1, self.num_levels):
            raise ArgumentError(
                f"positive weights need 1 or {self.num_levels} values, "
                f"got {len(self.positive_weights)}"
            )
        ThresholdSet(self.thresholds)  # refuses non-finite or unordered thresholds

    def task_weight(self, level: int) -> float:
        if not self.positive_weights:
            return 1.0
        if len(self.positive_weights) == 1:
            return self.positive_weights[0]
        return self.positive_weights[level - 1]

    @classmethod
    def from_dict(cls, d: dict) -> "ModelConfig":
        """The config of a ``to_dict`` dict; a size that is not an integer raises TypeError."""
        sizes = [d[key] for key in ("embedding_dim", "num_levels", "bce_target_level") if key in d]
        for value in sizes + list(d.get("hidden_sizes", ())):
            if type(value) is not int:
                raise TypeError(f"model sizes must be integers, got {value!r}")
        return cls(**{key: tuple(v) if isinstance(v, list) else v for key, v in d.items()})


@dataclass
class Batch:
    """One training batch; ``list_bounds`` marks list segments when listwise."""

    user_features: np.ndarray
    item_features: np.ndarray
    labels: np.ndarray
    bits: np.ndarray
    list_bounds: list[tuple[int, int]] | None = None


class _TwinBase:
    """The two tower sides and the one training step shared by all models.

    A subclass sets how many tower pairs it runs and supplies
    ``_objective`` (loss and dL/d dots from the per-pair dots) and
    ``_scores`` (task scores from the dots).  ``targets`` are the levels
    the model scores: every level 1..T unless the subclass names its own.
    """

    def __init__(
        self,
        cfg: ModelConfig,
        user_vocabs: dict[str, int],
        item_vocabs: dict[str, int],
        rng: np.random.Generator | None,
        num_pairs: int,
        heads: tuple[_CalibratedHead, ...] = (),
        targets: list[int] | None = None,
    ) -> None:
        self.cfg = cfg
        self.kind = cfg.kind
        self.targets = targets or list(range(1, cfg.num_levels + 1))
        user_tables = EmbeddingTableSet(user_vocabs, cfg.embedding_dim, rng, "emb_u")
        item_tables = EmbeddingTableSet(item_vocabs, cfg.embedding_dim, rng, "emb_i")
        self.user = TowerSide(user_tables, num_pairs, cfg, rng, "tower.user")
        self.item = TowerSide(item_tables, num_pairs, cfg, rng, "tower.item")
        self.heads = list(heads)
        self.dense = pack_parameters("dense", self._dense_params())

    def _dense_params(self) -> list[Parameter]:
        parts = self.user.towers + self.item.towers + self.heads
        return [p for part in parts for p in part.params]

    @property
    def params(self) -> list[Parameter]:
        return self.user.tables.params + self.item.tables.params + self._dense_params()

    def param_map(self) -> dict[str, Parameter]:
        return {p.name: p for p in self.params}

    def zero_grad(self) -> None:
        """Drop every gradient not yet applied: the tables' kept sums and the dense buffer."""
        self.user.tables.take_grads()
        self.item.tables.take_grads()
        self.dense.zero_grad()

    def loss_and_grad(self, batch: Batch) -> float:
        """Mean batch loss; adds its gradients to the dense buffer and the tables' kept sums.

        The towers run forward and backward once per distinct feature row
        of each side; the loss reads every sample.  With two ``LANES`` the
        item side's forward and backward run on the lane thread, beside the
        user side's; the sides share no array, so the bits are the same.
        """
        item, user = self.item, self.user
        if LANES > 1:
            # Allocated on the lane, the workspace grew a glibc arena of its own (+7 MB).
            item.reserve(len(batch.item_features))
            (i, item_state), (u, user_state) = _side_by_side(
                lambda: item.forward(batch.item_features),
                lambda: user.forward(batch.user_features),
            )
        else:
            # Item side first: with the user side first, glibc trimmed and regrew
            # the heap every step on serve_catalog (60k more faults, 20 % slower).
            i, item_state = item.forward(batch.item_features)
            u, user_state = user.forward(batch.user_features)
        # (B, num_pairs) per-level similarities of the unit sub-embeddings.
        dots = np.einsum("btd,btd->bt", u, i)
        total, grad_dots = self._objective(batch, dots)
        # Each side's output is spent once the dots are taken: it becomes
        # the other side's gradient in place.
        grad_u = np.multiply(grad_dots[:, :, None], i, out=i)
        grad_i = np.multiply(grad_dots[:, :, None], u, out=u)
        if LANES > 1:
            _side_by_side(
                lambda: item.backward(grad_i, item_state),
                lambda: user.backward(grad_u, user_state),
            )
        else:
            user.backward(grad_u, user_state)
            item.backward(grad_i, item_state)
        return total

    def task_scores_all(self, user_rows: np.ndarray, item_rows: np.ndarray) -> np.ndarray:
        """Task scores of every (user row, item row) pair, one column per scored level.

        A twin-tower score reads only the two tower outputs, so each
        distinct feature row is embedded once; the pairs' sub-embeddings
        are gathered back a block of pairs at a time (``block_rows``) and
        dotted per level.  The scores equal the training forward's bit for bit.
        """
        if len(user_rows) != len(item_rows):
            raise DimensionError(f"{len(user_rows)} user rows but {len(item_rows)} item rows")
        subs = (len(self.user.towers), self.cfg.hidden_sizes[-1])
        users, user_of = self.user.embed_distinct(user_rows)
        items, item_of = self.item.embed_distinct(item_rows)
        step = block_rows(users.itemsize * users.shape[1])
        users = users.reshape(len(users), *subs)
        items = items.reshape(len(items), *subs)
        dots = [
            np.einsum(
                "btd,btd->bt",
                users[user_of[start : start + step]],
                items[item_of[start : start + step]],
            )
            for start in range(0, max(len(user_of), 1), step)
        ]
        return self._scores(np.concatenate(dots))

    def user_embeddings(self, feature_rows: np.ndarray) -> np.ndarray:
        return self.user.embed(feature_rows)

    def item_embeddings(self, feature_rows: np.ndarray) -> np.ndarray:
        return self.item.embed(feature_rows)

    def retrieval_spaces(self, user_vectors: np.ndarray, index: RetrievalIndex) -> list[tuple]:
        """Each level with the user vectors and item index it retrieves in.

        Every level retrieves in the full unified vectors, so one space,
        level None (every level), serves them all.
        """
        return [(None, user_vectors, index)]


class GnolrModel(_TwinBase):
    """Ordinal models: the nested model, its ablations and the shared-encoder baseline.

    Kind "gnolr" runs T tower pairs; ``variant`` selects the supervision:
    "nested" is the full subtask-summed loss; "v1" keeps the nested prefix
    kernels but uses the plain single-term ordinal likelihood; "v0"
    additionally drops the prefix aggregation (each level scores its own
    sub-embedding only).  Kind "neural_olr" is v0 with one tower pair whose
    kernel is broadcast to every level.  Listwise co-training applies to
    kind "gnolr" only.
    """

    def __init__(self, cfg, user_vocabs, item_vocabs, rng) -> None:
        shared = cfg.kind == "neural_olr"
        super().__init__(cfg, user_vocabs, item_vocabs, rng, 1 if shared else cfg.num_levels)
        self.prefix = not shared and cfg.variant != "v0"
        self.nested = not shared and cfg.variant == "nested"
        self.listwise = not shared and cfg.listwise

    def _objective(self, batch: Batch, dots: np.ndarray) -> tuple[float, np.ndarray]:
        n = dots.shape[0]
        losses, grad_dots = gnolr_batch(batch.labels, dots, self.cfg, self.prefix, self.nested)
        total = float(losses.mean())
        grad_dots = grad_dots / n

        if self.listwise:
            if not batch.list_bounds:
                raise ArgumentError("listwise model needs list bounds in the batch")
            logits = self.cfg.gamma * dots.sum(axis=1)
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
            grad_dots = grad_dots + self.cfg.gamma * (grad_logits / n_lists)[:, None]
        return total, grad_dots

    def _scores(self, dots: np.ndarray) -> np.ndarray:
        """P(k > c) for every level c; shape (B, T)."""
        return 1.0 - cumulative_from_dots(dots, self.cfg, self.prefix)


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
    """Binary baselines: one tower pair and head per target level, (re)weighted BCE each.

    Kind "bce" targets the raw feedback bit of ``bce_target_level`` (head
    ``head``); kind "nsb", the shared-bottom baseline, targets every level
    1..T (heads ``head1``..``headT``), coupled only through the shared
    feature tables.  Target t's retrieval space is the t-th column block
    of the unified embedding.  A logit is an affine-calibrated cosine
    unless ``bce_raw_cosine`` pins it to the bounded similarity itself.
    """

    def __init__(self, cfg, user_vocabs, item_vocabs, rng) -> None:
        if cfg.kind == "bce":
            targets, names = [cfg.bce_target_level], ["head"]
        else:
            targets = list(range(1, cfg.num_levels + 1))
            names = [f"head{t}" for t in targets]
        heads = tuple(_CalibratedHead(name, cfg.bce_raw_cosine) for name in names)
        super().__init__(cfg, user_vocabs, item_vocabs, rng, len(heads), heads, targets)

    def _objective(self, batch: Batch, dots: np.ndarray) -> tuple[float, np.ndarray]:
        n = dots.shape[0]
        total = 0.0
        grad_dots = np.zeros_like(dots)
        for col, (level, head) in enumerate(zip(self.targets, self.heads)):
            logits = head.forward(dots[:, col])
            losses, grad_logits = bce_batch(
                logits, batch.bits[:, level - 1], self.cfg.task_weight(level)
            )
            total += float(losses.mean())
            grad_dots[:, col] = head.backward(grad_logits / n, dots[:, col])
        return total, grad_dots

    def _scores(self, dots: np.ndarray) -> np.ndarray:
        """P(target bit), one column per target: (B, 1) for "bce", (B, T) for "nsb"."""
        cols = [stable_sigmoid(head.forward(dots[:, c])) for c, head in enumerate(self.heads)]
        return np.stack(cols, axis=1)

    def retrieval_spaces(self, user_vectors, index):
        """NSB target t retrieves in the t-th column block; BCE in the full vectors."""
        if self.kind != "nsb":
            return super().retrieval_spaces(user_vectors, index)
        n = len(self.targets)
        blocks = zip(self.targets, np.hsplit(user_vectors, n), np.hsplit(index.vectors, n))
        return [(t, users, RetrievalIndex(index.item_ids, items)) for t, users, items in blocks]


def make_model(cfg: ModelConfig, user_vocabs: dict[str, int], item_vocabs: dict[str, int], rng):
    cls = GnolrModel if cfg.kind in ("gnolr", "neural_olr") else BceModel
    return cls(cfg, user_vocabs, item_vocabs, rng)
