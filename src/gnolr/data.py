"""Interaction ingestion: binning, chronological splitting, ordinal labels.

The CSV interface is strict: required columns ``user_id,item_id,timestamp``,
feedback columns declared in the config, user features prefixed ``uf_``,
item features prefixed ``if_``.  Numeric features are bucketized into
percentile bins fit on the training split; categorical features get
train-fitted vocabularies with row 0 reserved for out-of-vocabulary or
missing values.  Everything downstream (splits, lists, vocabularies) is
deterministic given the input file and the seed.
"""

from __future__ import annotations

import csv
import json
import math
import os
import tempfile
from dataclasses import dataclass
from typing import Iterator

import numpy as np

from .errors import ArgumentError, ConfigError, IngestionError
from .feedback import FeedbackSchema, map_to_ordinal_array

USER_KEY_JOIN = "\x1f"
BUNDLE_MAGIC = b"GNB1"
BUNDLE_VERSION = 1


@dataclass(frozen=True)
class DataConfig:
    """Column declarations for one CSV source."""

    csv_path: str
    feedback: tuple[str, ...]
    numeric_features: tuple[str, ...] = ()
    binarize_feedback: tuple[str, ...] = ()
    rating_threshold: float = 4.0
    user_key_columns: tuple[str, ...] = ("user_id",)
    embed_user_id: bool = True
    embed_item_id: bool = True
    n_bins: int = 50
    max_list_len: int = 500
    train_fraction: float = 0.7
    validation_fraction_of_train: float = 0.1
    seed: int = 0

    def __post_init__(self) -> None:
        if not self.feedback:
            raise ArgumentError("at least one feedback column is required")
        unknown = set(self.binarize_feedback) - set(self.feedback)
        if unknown:
            raise ArgumentError(f"binarize_feedback names unknown feedback: {sorted(unknown)}")


def binarize_ratings(rating, threshold: float = 4.0):
    """1 iff rating is strictly greater than the threshold."""
    arr = np.asarray(rating, dtype=np.float64)
    out = (arr > threshold).astype(np.int64)
    if out.ndim == 0:
        return int(out)
    return out


def split_indices(
    timestamps: np.ndarray,
    train_fraction: float = 0.7,
    validation_fraction_of_train: float = 0.1,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Chronological 70/30 split; the tail 10% of train becomes validation.

    Rows are stably ordered by (timestamp, original position), the first
    70% (floored) form the training block and the rest the test block.
    Within the training block the chronologically last rows are held out:
    kept = floor(0.9 * block), validation = the remainder.
    """
    ts = np.asarray(timestamps, dtype=np.int64)
    n = ts.shape[0]
    if n == 0:
        raise IngestionError("cannot split an empty interaction set")
    if not 0 < train_fraction < 1:
        raise ArgumentError(f"train fraction must lie in (0, 1), got {train_fraction}")
    if not 0 <= validation_fraction_of_train < 1:
        raise ArgumentError(
            f"validation fraction must lie in [0, 1), got {validation_fraction_of_train}"
        )
    order = np.argsort(ts, kind="stable")
    n_train_block = int(math.floor(n * train_fraction))
    n_keep = int(math.floor(n_train_block * (1.0 - validation_fraction_of_train)))
    train = order[:n_keep]
    validation = order[n_keep:n_train_block]
    test = order[n_train_block:]
    return train, validation, test


def fit_bins(values: np.ndarray, n_bins: int = 50) -> np.ndarray:
    """Nearest-rank percentile boundaries (deduplicated, non-decreasing).

    Boundary i sits at quantile i / n_bins for i = 1..n_bins-1; duplicate
    cut points collapse, so a skewed feature may end up with fewer than
    ``n_bins`` effective bins.
    """
    arr = np.sort(np.asarray(values, dtype=np.float64))
    if arr.size == 0:
        raise IngestionError("cannot fit bins on an empty value set")
    n = arr.size
    cuts = []
    for i in range(1, n_bins):
        rank = -((-i * n) // n_bins)  # ceil(i * n / n_bins)
        cuts.append(arr[min(max(rank - 1, 0), n - 1)])
    return np.unique(np.asarray(cuts, dtype=np.float64))


def apply_bins(value, boundaries: np.ndarray):
    """Bin id = number of boundaries strictly below the value."""
    out = np.searchsorted(np.asarray(boundaries, dtype=np.float64), value, side="left")
    if np.ndim(out) == 0:
        return int(out)
    return out.astype(np.int64)


@dataclass
class ListIndex:
    """Per-user lists over one split: CSR-style offsets into sample rows."""

    offsets: np.ndarray
    sample_idx: np.ndarray
    list_user: np.ndarray

    @property
    def num_lists(self) -> int:
        return len(self.list_user)

    def list_samples(self, li: int) -> np.ndarray:
        return self.sample_idx[self.offsets[li] : self.offsets[li + 1]]


def build_lists(user_index: np.ndarray, max_len: int = 500, rng=None) -> ListIndex:
    """Group split rows by user; oversize groups are shuffled and chunked.

    A group of n > max_len rows becomes ceil(n / max_len) lists, all but
    the last holding exactly max_len rows; the shuffle is seeded so the
    partition is reproducible.
    """
    if rng is None:
        rng = np.random.default_rng(0)
    user_index = np.asarray(user_index, dtype=np.int64)
    groups: dict[int, list[int]] = {}
    order: list[int] = []
    for row, uid in enumerate(user_index.tolist()):
        if uid not in groups:
            groups[uid] = []
            order.append(uid)
        groups[uid].append(row)
    offsets = [0]
    sample_idx: list[int] = []
    list_user: list[int] = []
    for uid in order:
        rows = groups[uid]
        if len(rows) > max_len:
            rows = [rows[i] for i in rng.permutation(len(rows))]
        for start in range(0, len(rows), max_len):
            chunk = rows[start : start + max_len]
            sample_idx.extend(chunk)
            offsets.append(len(sample_idx))
            list_user.append(uid)
    return ListIndex(
        offsets=np.asarray(offsets, dtype=np.int64),
        sample_idx=np.asarray(sample_idx, dtype=np.int64),
        list_user=np.asarray(list_user, dtype=np.int64),
    )


@dataclass
class Split:
    """One split's samples in sparsity-ordered, fully integer-coded form."""

    user_index: np.ndarray
    item_index: np.ndarray
    timestamps: np.ndarray
    user_features: np.ndarray
    item_features: np.ndarray
    bits: np.ndarray
    labels: np.ndarray
    lists: ListIndex

    @property
    def num_samples(self) -> int:
        return int(self.labels.shape[0])


@dataclass
class DatasetBundle:
    """Binned, split, ordinal-labeled dataset plus entity lookup tables."""

    schema: FeedbackSchema
    user_feature_names: list[str]
    item_feature_names: list[str]
    user_vocab_sizes: list[int]
    item_vocab_sizes: list[int]
    binning: dict[str, np.ndarray]
    users: list[str]
    items: list[str]
    user_feature_table: np.ndarray
    item_feature_table: np.ndarray
    train: Split
    validation: Split
    test: Split

    @property
    def num_feedbacks(self) -> int:
        return self.schema.num_feedbacks

    def split(self, name: str) -> Split:
        if name not in ("train", "validation", "test"):
            raise ArgumentError(f"unknown split '{name}'")
        return getattr(self, name)

    def all_labels(self) -> np.ndarray:
        return np.concatenate([self.train.labels, self.validation.labels, self.test.labels])


def make_batches(mode: str, split: Split, batch_size: int, rng) -> Iterator:
    """Seeded shuffled batches; the final short batch is retained.

    Pointwise mode yields row-index arrays; listwise mode yields lists of
    row-index arrays (one per user list).
    """
    if batch_size < 1:
        raise ArgumentError(f"batch size must be >= 1, got {batch_size}")
    if mode == "pointwise":
        perm = rng.permutation(split.num_samples)
        for start in range(0, len(perm), batch_size):
            yield perm[start : start + batch_size]
    elif mode == "listwise":
        perm = rng.permutation(split.lists.num_lists)
        for start in range(0, len(perm), batch_size):
            yield [split.lists.list_samples(int(li)) for li in perm[start : start + batch_size]]
    else:
        raise ArgumentError(f"unknown batch mode '{mode}'")


# ---------------------------------------------------------------------------
# CSV ingestion
# ---------------------------------------------------------------------------

_REQUIRED_COLUMNS = ("user_id", "item_id", "timestamp")


class _Vocab:
    """First-seen token numbering; 0 is the reserved OOV/missing row."""

    def __init__(self) -> None:
        self.mapping: dict[str, int] = {}

    def fit(self, token: str | None) -> None:
        if token is not None and token not in self.mapping:
            self.mapping[token] = len(self.mapping) + 1

    def get(self, token: str | None) -> int:
        if token is None:
            return 0
        return self.mapping.get(token, 0)

    @property
    def size(self) -> int:
        return len(self.mapping) + 1


def _parse_csv(config: DataConfig) -> dict:
    path = config.csv_path
    if not os.path.exists(path):
        raise ConfigError(f"CSV file does not exist: {path}")
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise ConfigError(f"{path}: empty file") from None
        col = {name: i for i, name in enumerate(header)}
        for name in _REQUIRED_COLUMNS:
            if name not in col:
                raise ConfigError(f"{path}: missing required column '{name}'")
        for name in config.feedback:
            if name not in col:
                raise ConfigError(f"{path}: missing feedback column '{name}'")
        for name in config.user_key_columns:
            if name not in col:
                raise ConfigError(f"{path}: missing user key column '{name}'")
        allowed = set(_REQUIRED_COLUMNS) | set(config.feedback) | set(config.user_key_columns)
        uf_cols = [c for c in header if c.startswith("uf_")]
        if_cols = [c for c in header if c.startswith("if_")]
        stray = [c for c in header if c not in allowed and not c.startswith(("uf_", "if_"))]
        if stray:
            raise ConfigError(f"{path}: unrecognized columns {stray}")
        missing_numeric = set(config.numeric_features) - set(uf_cols) - set(if_cols)
        if missing_numeric:
            raise ConfigError(f"{path}: numeric features not in header: {sorted(missing_numeric)}")

        user_keys: list[str] = []
        item_ids: list[str] = []
        timestamps: list[int] = []
        feature_cols: dict[str, list] = {c: [] for c in uf_cols + if_cols}
        feedback_cols: dict[str, list] = {c: [] for c in config.feedback}
        numeric = set(config.numeric_features)
        binarize = set(config.binarize_feedback)

        for lineno, row in enumerate(reader, start=2):
            if len(row) != len(header):
                raise IngestionError(
                    f"{path}:{lineno}: expected {len(header)} fields, got {len(row)}"
                )
            try:
                timestamps.append(int(row[col["timestamp"]]))
            except ValueError:
                raise IngestionError(
                    f"{path}:{lineno}: bad timestamp {row[col['timestamp']]!r}"
                ) from None
            user_keys.append(
                USER_KEY_JOIN.join(row[col[c]] for c in config.user_key_columns)
            )
            item_ids.append(row[col["item_id"]])
            for c in config.feedback:
                raw = row[col[c]]
                try:
                    value = float(raw)
                except ValueError:
                    raise IngestionError(f"{path}:{lineno}: bad feedback value {raw!r}") from None
                if c in binarize:
                    feedback_cols[c].append(1 if value > config.rating_threshold else 0)
                else:
                    if value not in (0.0, 1.0):
                        raise IngestionError(
                            f"{path}:{lineno}: feedback '{c}' must be 0/1, got {raw!r}"
                        )
                    feedback_cols[c].append(int(value))
            for c in uf_cols + if_cols:
                raw = row[col[c]]
                if c in numeric:
                    if raw == "":
                        feature_cols[c].append(None)
                    else:
                        try:
                            feature_cols[c].append(float(raw))
                        except ValueError:
                            raise IngestionError(
                                f"{path}:{lineno}: bad numeric value {raw!r} in '{c}'"
                            ) from None
                else:
                    feature_cols[c].append(raw if raw != "" else None)

    return {
        "user_keys": user_keys,
        "item_ids": item_ids,
        "timestamps": np.asarray(timestamps, dtype=np.int64),
        "features": feature_cols,
        "feedback": feedback_cols,
        "uf_cols": uf_cols,
        "if_cols": if_cols,
    }


def build_bundle(config: DataConfig) -> DatasetBundle:
    """Full ingestion: parse, order, label, split, bin, encode, list.

    All fitting (bins, vocabularies) happens on the training split; the
    identical transforms are then applied to validation and test.
    """
    raw = _parse_csv(config)
    n = raw["timestamps"].shape[0]
    if n == 0:
        raise IngestionError(f"{config.csv_path}: no data rows")

    order = np.argsort(raw["timestamps"], kind="stable")
    user_keys = [raw["user_keys"][i] for i in order]
    item_ids = [raw["item_ids"][i] for i in order]
    timestamps = raw["timestamps"][order]
    features = {c: [vals[i] for i in order] for c, vals in raw["features"].items()}
    feedback = {c: np.asarray(vals, dtype=np.int64)[order] for c, vals in raw["feedback"].items()}

    counts = [int(feedback[c].sum()) for c in config.feedback]
    schema = FeedbackSchema.from_counts(list(config.feedback), counts)
    bits = np.stack([feedback[config.feedback[i]] for i in schema.order], axis=1)
    labels = map_to_ordinal_array(bits)

    train_idx, val_idx, test_idx = split_indices(
        np.arange(n), config.train_fraction, config.validation_fraction_of_train
    )

    # Percentile bins fit on train, applied everywhere.
    binning: dict[str, np.ndarray] = {}
    encoded_features: dict[str, list] = {}
    for c in raw["uf_cols"] + raw["if_cols"]:
        vals = features[c]
        if c in config.numeric_features:
            train_vals = [vals[i] for i in train_idx if vals[i] is not None]
            if not train_vals:
                raise IngestionError(f"numeric feature '{c}' has no training values")
            boundaries = fit_bins(np.asarray(train_vals), config.n_bins)
            binning[c] = boundaries
            encoded_features[c] = [
                None if v is None else str(apply_bins(v, boundaries)) for v in vals
            ]
        else:
            encoded_features[c] = vals

    user_feature_names = (["__user_id"] if config.embed_user_id else []) + raw["uf_cols"]
    item_feature_names = (["__item_id"] if config.embed_item_id else []) + raw["if_cols"]
    encoded_features["__user_id"] = user_keys
    encoded_features["__item_id"] = item_ids

    # Vocabularies fit on train rows only; unseen tokens map to row 0.
    vocabs: dict[str, _Vocab] = {}
    for c in user_feature_names + item_feature_names:
        vocab = _Vocab()
        col = encoded_features[c]
        for i in train_idx:
            vocab.fit(col[i])
        vocabs[c] = vocab

    def encode(names: list[str]) -> np.ndarray:
        out = np.zeros((n, len(names)), dtype=np.int64)
        for j, c in enumerate(names):
            vocab = vocabs[c]
            col = encoded_features[c]
            out[:, j] = [vocab.get(v) for v in col]
        return out

    user_features_all = encode(user_feature_names)
    item_features_all = encode(item_feature_names)

    users: list[str] = []
    user_pos: dict[str, int] = {}
    items: list[str] = []
    item_pos: dict[str, int] = {}
    for key in user_keys:
        if key not in user_pos:
            user_pos[key] = len(users)
            users.append(key)
    for key in item_ids:
        if key not in item_pos:
            item_pos[key] = len(items)
            items.append(key)
    user_index = np.asarray([user_pos[k] for k in user_keys], dtype=np.int64)
    item_index = np.asarray([item_pos[k] for k in item_ids], dtype=np.int64)

    # Entity feature rows come from each entity's first chronological row.
    user_table = np.zeros((len(users), len(user_feature_names)), dtype=np.int64)
    seen_u = np.zeros(len(users), dtype=bool)
    item_table = np.zeros((len(items), len(item_feature_names)), dtype=np.int64)
    seen_i = np.zeros(len(items), dtype=bool)
    for row in range(n):
        u = user_index[row]
        if not seen_u[u]:
            user_table[u] = user_features_all[row]
            seen_u[u] = True
        it = item_index[row]
        if not seen_i[it]:
            item_table[it] = item_features_all[row]
            seen_i[it] = True

    def make_split(idx: np.ndarray, salt: int) -> Split:
        rng = np.random.default_rng([config.seed, salt])
        return Split(
            user_index=user_index[idx],
            item_index=item_index[idx],
            timestamps=timestamps[idx],
            user_features=user_features_all[idx],
            item_features=item_features_all[idx],
            bits=bits[idx].astype(np.int8),
            labels=labels[idx],
            lists=build_lists(user_index[idx], config.max_list_len, rng),
        )

    return DatasetBundle(
        schema=schema,
        user_feature_names=user_feature_names,
        item_feature_names=item_feature_names,
        user_vocab_sizes=[vocabs[c].size for c in user_feature_names],
        item_vocab_sizes=[vocabs[c].size for c in item_feature_names],
        binning=binning,
        users=users,
        items=items,
        user_feature_table=user_table,
        item_feature_table=item_table,
        train=make_split(train_idx, 0),
        validation=make_split(val_idx, 1),
        test=make_split(test_idx, 2),
    )


# ---------------------------------------------------------------------------
# Bundle cache (versioned binary, magic GNB1, little-endian, atomic write)
# ---------------------------------------------------------------------------

_SPLIT_ARRAYS = (
    ("user_index", "<i8"),
    ("item_index", "<i8"),
    ("timestamps", "<i8"),
    ("user_features", "<i8"),
    ("item_features", "<i8"),
    ("bits", "<i1"),
    ("labels", "<i8"),
)
_LIST_ARRAYS = (("offsets", "<i8"), ("sample_idx", "<i8"), ("list_user", "<i8"))


def _bundle_arrays(bundle: DatasetBundle) -> list[tuple[str, np.ndarray, str]]:
    out = [
        ("user_feature_table", bundle.user_feature_table, "<i8"),
        ("item_feature_table", bundle.item_feature_table, "<i8"),
    ]
    for split_name in ("train", "validation", "test"):
        split = bundle.split(split_name)
        for attr, dtype in _SPLIT_ARRAYS:
            out.append((f"{split_name}.{attr}", getattr(split, attr), dtype))
        for attr, dtype in _LIST_ARRAYS:
            out.append((f"{split_name}.lists.{attr}", getattr(split.lists, attr), dtype))
    return out


def save_bundle(bundle: DatasetBundle, path) -> None:
    """Atomic write of the GNB1 cache; identical bundles produce identical bytes."""
    arrays = _bundle_arrays(bundle)
    meta = {
        "schema": {
            "names": list(bundle.schema.names),
            "positive_counts": list(bundle.schema.positive_counts),
            "order": list(bundle.schema.order),
        },
        "user_feature_names": bundle.user_feature_names,
        "item_feature_names": bundle.item_feature_names,
        "user_vocab_sizes": bundle.user_vocab_sizes,
        "item_vocab_sizes": bundle.item_vocab_sizes,
        "binning": {k: v.tolist() for k, v in sorted(bundle.binning.items())},
        "users": bundle.users,
        "items": bundle.items,
        "arrays": [
            {"name": name, "dtype": dtype, "shape": list(arr.shape)}
            for name, arr, dtype in arrays
        ],
    }
    blob = json.dumps(meta, sort_keys=True, separators=(",", ":")).encode("utf-8")
    directory = os.path.dirname(os.path.abspath(path))
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".gnb1-")
    try:
        with os.fdopen(fd, "wb") as fh:
            fh.write(BUNDLE_MAGIC)
            fh.write(np.asarray(BUNDLE_VERSION, dtype="<u4").tobytes())
            fh.write(np.asarray(len(blob), dtype="<u8").tobytes())
            fh.write(blob)
            for _, arr, dtype in arrays:
                fh.write(np.ascontiguousarray(arr, dtype=dtype).tobytes())
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def load_bundle(path) -> DatasetBundle:
    with open(path, "rb") as fh:
        magic = fh.read(4)
        if magic != BUNDLE_MAGIC:
            raise IngestionError(f"{path}: not a bundle cache (magic {magic!r})")
        version = int(np.frombuffer(fh.read(4), dtype="<u4")[0])
        if version != BUNDLE_VERSION:
            raise IngestionError(f"{path}: unsupported bundle version {version}")
        blob_len = int(np.frombuffer(fh.read(8), dtype="<u8")[0])
        meta = json.loads(fh.read(blob_len).decode("utf-8"))
        loaded: dict[str, np.ndarray] = {}
        for spec in meta["arrays"]:
            count = int(np.prod(spec["shape"])) if spec["shape"] else 1
            dtype = np.dtype(spec["dtype"])
            data = np.frombuffer(fh.read(count * dtype.itemsize), dtype=dtype)
            loaded[spec["name"]] = data.reshape(spec["shape"]).copy()

    def load_split(name: str) -> Split:
        return Split(
            **{attr: loaded[f"{name}.{attr}"] for attr, _ in _SPLIT_ARRAYS},
            lists=ListIndex(**{attr: loaded[f"{name}.lists.{attr}"] for attr, _ in _LIST_ARRAYS}),
        )

    schema = FeedbackSchema(
        names=tuple(meta["schema"]["names"]),
        positive_counts=tuple(meta["schema"]["positive_counts"]),
        order=tuple(meta["schema"]["order"]),
    )
    return DatasetBundle(
        schema=schema,
        user_feature_names=list(meta["user_feature_names"]),
        item_feature_names=list(meta["item_feature_names"]),
        user_vocab_sizes=list(meta["user_vocab_sizes"]),
        item_vocab_sizes=list(meta["item_vocab_sizes"]),
        binning={k: np.asarray(v, dtype=np.float64) for k, v in meta["binning"].items()},
        users=list(meta["users"]),
        items=list(meta["items"]),
        user_feature_table=loaded["user_feature_table"],
        item_feature_table=loaded["item_feature_table"],
        train=load_split("train"),
        validation=load_split("validation"),
        test=load_split("test"),
    )
