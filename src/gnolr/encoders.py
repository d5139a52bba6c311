"""Feature embeddings and nested twin-tower encoders.

One tower pair per engagement level, all pairs reading from the same
feature embedding tables.  Each pair emits a unit sub-embedding; the
concatenation of the first c sub-embeddings is the level-c representation,
whose cosine against the counterpart equals the mean of the per-level
sub-cosines (each prefix has squared norm c).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import ArgumentError, DimensionError
from .tensor import (
    Parameter,
    embedding_init,
    glorot_uniform,
    l2_normalize,
    l2_normalize_backward,
    leaky_relu,
    leaky_relu_backward,
)


@dataclass(frozen=True)
class TowerConfig:
    """MLP layout of one tower; the last width is the sub-embedding size."""

    hidden_sizes: tuple[int, ...] = (128, 64, 32)
    activation_slope: float = 0.01

    def __post_init__(self) -> None:
        if not self.hidden_sizes or any(w < 1 for w in self.hidden_sizes):
            raise ArgumentError(f"tower widths must all be >= 1, got {self.hidden_sizes}")
        if not 0.0 < self.activation_slope < 1.0:
            raise ArgumentError(f"activation slope must lie in (0, 1), got {self.activation_slope}")

    @property
    def output_dim(self) -> int:
        return self.hidden_sizes[-1]


class EmbeddingTableSet:
    """Per-feature lookup tables, shared across towers and tasks.

    Row 0 of every table is the reserved out-of-vocabulary / missing
    bucket; ids outside [0, vocab) land there.  ``backward`` records the
    rows it scatters into, so the optimizer visits those rows only and its
    cost follows the batch, not the vocabulary.
    """

    def __init__(
        self,
        feature_vocabs: dict[str, int],
        dim: int,
        rng: np.random.Generator,
        name_prefix: str = "emb",
    ) -> None:
        if dim < 1:
            raise ArgumentError(f"embedding dim must be >= 1, got {dim}")
        self.dim = dim
        self.feature_names = list(feature_vocabs)
        self.tables: dict[str, Parameter] = {}
        self.touched: dict[str, list[np.ndarray]] = {name: [] for name in self.feature_names}
        for name in self.feature_names:
            vocab = feature_vocabs[name]
            if vocab < 1:
                raise ArgumentError(f"feature '{name}' has vocab size {vocab}")
            self.tables[name] = Parameter(
                f"{name_prefix}.{name}", embedding_init((vocab, dim), rng)
            )

    @property
    def params(self) -> list[Parameter]:
        return [self.tables[n] for n in self.feature_names]

    @property
    def output_dim(self) -> int:
        return len(self.feature_names) * self.dim

    def _safe_ids(self, name: str, ids: np.ndarray) -> np.ndarray:
        vocab = self.tables[name].value.shape[0]
        return np.where((ids < 0) | (ids >= vocab), 0, ids)

    def lookup(self, ids: np.ndarray) -> np.ndarray:
        """(B, F) integer ids -> (B, F * dim) concatenated rows, feature order fixed."""
        ids = np.asarray(ids)
        if ids.ndim != 2 or ids.shape[1] != len(self.feature_names):
            raise DimensionError(
                f"expected ids of shape (B, {len(self.feature_names)}), got {ids.shape}"
            )
        cols = []
        for j, name in enumerate(self.feature_names):
            cols.append(self.tables[name].value[self._safe_ids(name, ids[:, j])])
        return np.concatenate(cols, axis=1)

    def backward(self, upstream: np.ndarray, ids: np.ndarray) -> None:
        """Scatter-add gradients into the looked-up rows and record those rows."""
        ids = np.asarray(ids)
        for j, name in enumerate(self.feature_names):
            seg = upstream[:, j * self.dim : (j + 1) * self.dim]
            rows = self._safe_ids(name, ids[:, j])
            np.add.at(self.tables[name].grad, rows, seg)
            self.touched[name].append(rows)

    def take_touched(self) -> list[tuple[Parameter, np.ndarray]]:
        """(table, rows) per feature: the recorded rows whose summed gradient is
        nonzero, ascending and unique.  Clears the record.

        A recorded row whose contributions cancel to exactly zero is left out,
        so lazy Adam leaves it untouched, as a full scan for nonzero rows would.
        """
        out = []
        for name in self.feature_names:
            table, recorded = self.tables[name], self.touched[name]
            rows = np.unique(np.concatenate(recorded)) if recorded else np.empty(0, np.int64)
            recorded.clear()
            out.append((table, rows[np.any(table.grad[rows] != 0.0, axis=1)]))
        return out


class Tower:
    """MLP with LeakyReLU between layers, none after the last, then l2-norm."""

    def __init__(
        self, name: str, input_dim: int, cfg: TowerConfig, rng: np.random.Generator
    ) -> None:
        self.name = name
        self.cfg = cfg
        self.input_dim = input_dim
        self.weights: list[Parameter] = []
        self.biases: list[Parameter] = []
        d_in = input_dim
        for li, width in enumerate(cfg.hidden_sizes):
            self.weights.append(Parameter(f"{name}.W{li}", glorot_uniform((d_in, width), rng)))
            self.biases.append(Parameter(f"{name}.b{li}", np.zeros((1, width))))
            d_in = width

    @property
    def params(self) -> list[Parameter]:
        out = []
        for w, b in zip(self.weights, self.biases):
            out.extend((w, b))
        return out

    def forward(self, x: np.ndarray) -> tuple[np.ndarray, dict]:
        if x.ndim != 2 or x.shape[1] != self.input_dim:
            raise DimensionError(
                f"tower '{self.name}' expects input (B, {self.input_dim}), got {x.shape}"
            )
        slope = self.cfg.activation_slope
        h = x
        inputs = []
        pre_acts = []
        last = len(self.weights) - 1
        for li, (w, b) in enumerate(zip(self.weights, self.biases)):
            inputs.append(h)
            z = h @ w.value + b.value
            pre_acts.append(z)
            h = z if li == last else leaky_relu(z, slope)
        out = l2_normalize(h)
        return out, {"inputs": inputs, "pre_acts": pre_acts, "final": h}

    def backward(self, upstream: np.ndarray, cache: dict) -> np.ndarray:
        """Accumulate parameter grads, return gradient w.r.t. the tower input."""
        slope = self.cfg.activation_slope
        g = l2_normalize_backward(upstream, cache["final"])
        last = len(self.weights) - 1
        for li in range(last, -1, -1):
            if li != last:
                g = leaky_relu_backward(g, cache["pre_acts"][li], slope)
            h = cache["inputs"][li]
            self.weights[li].grad += h.T @ g
            self.biases[li].grad += g.sum(axis=0, keepdims=True)
            g = g @ self.weights[li].value.T
        return g


@dataclass
class NestedEmbedding:
    """Ordered unit sub-embeddings e^1..e^T for one entity."""

    subs: tuple[np.ndarray, ...]

    @property
    def num_levels(self) -> int:
        return len(self.subs)

    def prefix(self, c: int) -> np.ndarray:
        """Concatenation of the first c sub-embeddings (squared norm c)."""
        if not 1 <= c <= self.num_levels:
            raise ArgumentError(f"prefix level {c} outside 1..{self.num_levels}")
        return np.concatenate(self.subs[:c])

    def unified(self) -> np.ndarray:
        return self.prefix(self.num_levels)

    def validate(self, atol: float = 1e-9) -> None:
        for i, sub in enumerate(self.subs, start=1):
            norm = float(np.linalg.norm(sub))
            if abs(norm - 1.0) > atol and norm != 0.0:
                raise ArgumentError(f"sub-embedding {i} has norm {norm}")


def nested_kernel(nu: NestedEmbedding, ni: NestedEmbedding, c: int) -> float:
    """Cosine of the level-c prefixes: the mean of the first c sub-cosines."""
    if nu.num_levels != ni.num_levels:
        raise ArgumentError("entities have different numbers of levels")
    if not 1 <= c <= nu.num_levels:
        raise ArgumentError(f"kernel level {c} outside 1..{nu.num_levels}")
    dots = [float(np.dot(nu.subs[j], ni.subs[j])) for j in range(c)]
    return sum(dots) / c


class NestedTwinEncoder:
    """T twin-tower pairs over shared feature embedding tables.

    Tower weights are per level; the tables are the only cross-level
    shared parameters.
    """

    def __init__(
        self,
        num_levels: int,
        user_input_dim: int,
        item_input_dim: int,
        cfg: TowerConfig,
        rng: np.random.Generator,
        name_prefix: str = "tower",
    ) -> None:
        if num_levels < 1:
            raise ArgumentError(f"need at least one level, got {num_levels}")
        self.num_levels = num_levels
        self.cfg = cfg
        self.user_towers = [
            Tower(f"{name_prefix}.user{c}", user_input_dim, cfg, rng)
            for c in range(1, num_levels + 1)
        ]
        self.item_towers = [
            Tower(f"{name_prefix}.item{c}", item_input_dim, cfg, rng)
            for c in range(1, num_levels + 1)
        ]

    @property
    def params(self) -> list[Parameter]:
        out = []
        for t in self.user_towers + self.item_towers:
            out.extend(t.params)
        return out

    def forward(self, user_x: np.ndarray, item_x: np.ndarray) -> tuple[np.ndarray, np.ndarray, dict]:
        """Returns user subs (B, T, dim), item subs (B, T, dim), caches."""
        u_subs, i_subs, u_caches, i_caches = [], [], [], []
        for ut, it in zip(self.user_towers, self.item_towers):
            u, uc = ut.forward(user_x)
            i, ic = it.forward(item_x)
            u_subs.append(u)
            i_subs.append(i)
            u_caches.append(uc)
            i_caches.append(ic)
        return (
            np.stack(u_subs, axis=1),
            np.stack(i_subs, axis=1),
            {"user": u_caches, "item": i_caches},
        )

    def backward(
        self, grad_user: np.ndarray, grad_item: np.ndarray, caches: dict
    ) -> tuple[np.ndarray, np.ndarray]:
        """grad_user/grad_item are (B, T, dim); returns input gradients."""
        gu_x = None
        gi_x = None
        for c in range(self.num_levels):
            gu = self.user_towers[c].backward(grad_user[:, c, :], caches["user"][c])
            gi = self.item_towers[c].backward(grad_item[:, c, :], caches["item"][c])
            gu_x = gu if gu_x is None else gu_x + gu
            gi_x = gi if gi_x is None else gi_x + gi
        return gu_x, gi_x

    def embed_entities(self, x: np.ndarray, side: str) -> np.ndarray:
        """Unified embeddings (B, T * dim): concatenated unit sub-embeddings."""
        towers = self.user_towers if side == "user" else self.item_towers
        subs = [t.forward(x)[0] for t in towers]
        return np.concatenate(subs, axis=1)


# ---------------------------------------------------------------------------
# Embedding export (TSV interface shared with evaluation and external tools)
# ---------------------------------------------------------------------------

EMBEDDING_HEADER_PREFIX = "#gnolr-emb v1"


def write_embeddings(path, entity_ids: Sequence[str], matrix: np.ndarray, num_levels: int) -> None:
    """UTF-8 TSV: header line, then one `id<TAB>v1..vD` row per entity.

    Export downcasts to float32; values are printed with 9 significant
    digits so a float32 round-trips exactly.
    """
    matrix = np.asarray(matrix, dtype=np.float32)
    if matrix.ndim != 2 or matrix.shape[0] != len(entity_ids):
        raise DimensionError(f"matrix shape {matrix.shape} does not match {len(entity_ids)} ids")
    dim = matrix.shape[1]
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"{EMBEDDING_HEADER_PREFIX} dim={dim} T={num_levels}\n")
        for eid, row in zip(entity_ids, matrix.tolist()):
            fh.write(str(eid) + "\t" + "\t".join(map("{:.9g}".format, row)) + "\n")


def read_embeddings(path) -> tuple[list[str], np.ndarray, int]:
    """Read a TSV written by ``write_embeddings``; returns (ids, matrix, T)."""
    with open(path, encoding="utf-8") as fh:
        header = fh.readline().rstrip("\n")
        if not header.startswith(EMBEDDING_HEADER_PREFIX):
            raise ArgumentError(f"not an embedding file (header {header!r})")
        fields = dict(part.split("=", 1) for part in header.split()[2:])
        dim = int(fields["dim"])
        num_levels = int(fields["T"])
        ids = []
        rows = []
        for line in fh:
            parts = line.rstrip("\n").split("\t")
            if len(parts) != dim + 1:
                raise ArgumentError(f"embedding row has {len(parts) - 1} values, expected {dim}")
            ids.append(parts[0])
            rows.append([float(v) for v in parts[1:]])
    matrix = np.asarray(rows, dtype=np.float64).reshape(len(ids), dim)
    return ids, matrix, num_levels
