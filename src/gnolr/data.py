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
from dataclasses import asdict, dataclass
from operator import attrgetter
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
        repeated = sorted({name for name in self.feedback if self.feedback.count(name) > 1})
        if repeated:
            raise ArgumentError(f"feedback repeats columns {repeated}")
        unknown = set(self.binarize_feedback) - set(self.feedback)
        if unknown:
            raise ArgumentError(f"binarize_feedback names unknown feedback: {sorted(unknown)}")
        if not math.isfinite(self.rating_threshold):
            raise ArgumentError(f"rating_threshold must be finite, got {self.rating_threshold}")
        # Fewer than 2 bins would put every numeric value in one token.
        if self.n_bins < 2:
            raise ArgumentError(f"n_bins must be >= 2, got {self.n_bins}")
        if self.max_list_len < 1:
            raise ArgumentError(f"max_list_len must be >= 1, got {self.max_list_len}")
        if not 0 < self.train_fraction < 1:
            raise ArgumentError(f"train_fraction must lie in (0, 1), got {self.train_fraction}")
        if not 0 <= self.validation_fraction_of_train < 1:
            raise ArgumentError(
                "validation_fraction_of_train must lie in [0, 1), "
                f"got {self.validation_fraction_of_train}"
            )
        if self.seed < 0:
            raise ArgumentError(f"seed must be >= 0, got {self.seed}")


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
    rank = -((-np.arange(1, n_bins) * arr.size) // n_bins)  # ceil(i * n / n_bins)
    return np.unique(arr[np.clip(rank - 1, 0, arr.size - 1)])


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


def first_seen(values) -> tuple[np.ndarray, np.ndarray]:
    """Number the distinct values of a 1-D array in first-seen order.

    Returns ``(first, number)``: ``first[k]`` is the row where the k-th
    distinct value first occurs (so ``first`` ascends and ``values[first]``
    lists the distinct values in first-seen order), and ``number[row]`` is
    the k of that row's value.
    """
    seen: dict = {}
    number = np.array([seen.setdefault(v, len(seen)) for v in values.tolist()], np.intp)
    return np.unique(number, return_index=True)[1], number


def build_lists(user_index: np.ndarray, max_len: int = 500, rng=None) -> ListIndex:
    """Group split rows by user; oversize groups are shuffled and chunked.

    Groups follow first-seen user order and keep row order.  A group of
    n > max_len rows is shuffled (one seeded permutation per oversize group,
    in group order) and becomes ceil(n / max_len) lists, all but the last
    holding exactly max_len rows, so the partition is reproducible.
    """
    if max_len < 1:
        raise ArgumentError(f"max list length must be >= 1, got {max_len}")
    if rng is None:
        rng = np.random.default_rng(0)
    user_index = np.asarray(user_index, dtype=np.int64)
    _, group = first_seen(user_index)
    sample_idx = np.argsort(group, kind="stable")
    sizes = np.bincount(group)
    starts = np.cumsum(sizes) - sizes
    for g in np.flatnonzero(sizes > max_len):
        rows = sample_idx[starts[g] : starts[g] + sizes[g]]
        rows[:] = rows[rng.permutation(rows.size)]
    within = np.arange(sample_idx.size) - np.repeat(starts, sizes)
    heads = np.flatnonzero(within % max_len == 0)
    return ListIndex(
        offsets=np.append(heads, sample_idx.size),
        sample_idx=sample_idx,
        list_user=user_index[sample_idx[heads]],
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


# ---------------------------------------------------------------------------
# CSV ingestion
# ---------------------------------------------------------------------------

_REQUIRED_COLUMNS = ("user_id", "item_id", "timestamp")


def _csv_rows(fh, path) -> Iterator[list[str]]:
    """CSV records of ``fh``; undecodable bytes and csv errors become IngestionError."""
    reader = csv.reader(fh)
    try:
        yield from reader
    except UnicodeDecodeError as exc:
        raise IngestionError(f"{path}: input is not UTF-8: {exc.reason}") from None
    except csv.Error as exc:
        raise IngestionError(f"{path}:{reader.line_num}: {exc}") from None


def _parse_csv(config: DataConfig) -> dict:
    """Validate every row and return the columns as arrays in file order.

    Id and categorical columns are object arrays of strings (a missing
    categorical value is ""), numeric features are float64 with NaN for
    missing, and feedback columns are 0/1 int64.
    """
    path = config.csv_path
    if not os.path.exists(path):
        raise ConfigError(f"CSV file does not exist: {path}")
    with open(path, newline="", encoding="utf-8") as fh:
        rows = _csv_rows(fh, path)
        header = next(rows, None)
        if header is None:
            raise ConfigError(f"{path}: empty file")
        repeated = sorted({name for name in header if header.count(name) > 1})
        if repeated:
            raise ConfigError(f"{path}: header repeats columns {repeated}")
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

        for lineno, row in enumerate(rows, start=2):
            if len(row) != len(header):
                raise IngestionError(
                    f"{path}:{lineno}: expected {len(header)} fields, got {len(row)}"
                )
            try:
                timestamp = int(row[col["timestamp"]])
                if not -(2**63) <= timestamp < 2**63:
                    raise ValueError  # outside int64, the column's dtype
                timestamps.append(timestamp)
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
                if c not in binarize and value not in (0.0, 1.0):
                    raise IngestionError(
                        f"{path}:{lineno}: feedback '{c}' must be 0/1, got {raw!r}"
                    )
                if not math.isfinite(value):
                    raise IngestionError(
                        f"{path}:{lineno}: bad rating {raw!r} in '{c}' (must be a finite number)"
                    )
                feedback_cols[c].append(value)
            for c in uf_cols + if_cols:
                raw = row[col[c]]
                if c not in numeric:
                    feature_cols[c].append(raw)
                elif raw == "":
                    feature_cols[c].append(math.nan)
                else:
                    try:
                        value = float(raw)
                    except ValueError:
                        value = math.nan
                    if not math.isfinite(value):
                        raise IngestionError(
                            f"{path}:{lineno}: bad numeric value {raw!r} in '{c}'"
                            " (must be a finite number)"
                        )
                    feature_cols[c].append(value)

    return {
        "user_keys": np.array(user_keys, dtype=object),
        "item_ids": np.array(item_ids, dtype=object),
        "timestamps": np.asarray(timestamps, dtype=np.int64),
        "features": {
            c: np.array(vals, dtype=np.float64 if c in numeric else object)
            for c, vals in feature_cols.items()
        },
        "feedback": {
            c: binarize_ratings(vals, config.rating_threshold)
            if c in binarize
            else np.asarray(vals, dtype=np.int64)
            for c, vals in feedback_cols.items()
        },
        "uf_cols": uf_cols,
        "if_cols": if_cols,
    }


def build_bundle(config: DataConfig) -> DatasetBundle:
    """Full ingestion: parse, order, label, split, bin, encode, list.

    All fitting (bins, vocabularies) happens on the training split; the
    identical transforms are then applied to validation and test.  Every
    numbering (entities, vocabulary rows, list groups) is first-seen order
    over the chronologically sorted rows.
    """
    raw = _parse_csv(config)
    user_feature_names = (["__user_id"] if config.embed_user_id else []) + raw["uf_cols"]
    item_feature_names = (["__item_id"] if config.embed_item_id else []) + raw["if_cols"]
    for side, names in (("user", user_feature_names), ("item", item_feature_names)):
        if not names:
            raise ConfigError(
                f"the {side} side has no feature: set [data] embed_{side}_id = true "
                f"or add {side[0]}f_ columns to the CSV"
            )
    n = raw["timestamps"].shape[0]
    if n == 0:
        raise IngestionError(f"{config.csv_path}: no data rows")

    order = np.argsort(raw["timestamps"], kind="stable")
    timestamps = raw["timestamps"][order]
    feedback = {c: vals[order] for c, vals in raw["feedback"].items()}

    counts = [int(feedback[c].sum()) for c in config.feedback]
    schema = FeedbackSchema.from_counts(list(config.feedback), counts)
    bits = np.stack([feedback[config.feedback[i]] for i in schema.order], axis=1)
    labels = map_to_ordinal_array(bits)

    train_idx, val_idx, test_idx = split_indices(
        np.arange(n), config.train_fraction, config.validation_fraction_of_train
    )
    n_train = train_idx.size  # rows are sorted, so train is the prefix [0, n_train)

    user_keys = raw["user_keys"][order]
    item_ids = raw["item_ids"][order]
    first_user, user_index = first_seen(user_keys)
    first_item, item_index = first_seen(item_ids)

    # Each column as (tokens, present); percentile bins fit on train, applied everywhere.
    everywhere = np.ones(n, dtype=bool)
    columns = {"__user_id": (user_index, everywhere), "__item_id": (item_index, everywhere)}
    binning: dict[str, np.ndarray] = {}
    for c in raw["uf_cols"] + raw["if_cols"]:
        values = raw["features"][c][order]
        if c not in config.numeric_features:
            columns[c] = (values, values != "")
            continue
        present = ~np.isnan(values)
        if not present[:n_train].any():
            raise IngestionError(f"numeric feature '{c}' has no training values")
        binning[c] = fit_bins(values[:n_train][present[:n_train]], config.n_bins)
        columns[c] = (apply_bins(values, binning[c]), present)

    def encode(names: list[str]) -> tuple[np.ndarray, list[int]]:
        """Vocabulary codes: train tokens 1.. in first-seen order; 0 for OOV or missing."""
        codes = np.zeros((n, len(names)), dtype=np.int64)
        sizes = []
        for j, c in enumerate(names):
            tokens, present = columns[c]
            first, number = first_seen(tokens[present])
            # The training vocabulary: tokens first seen in a training row, numbered first.
            n_vocab = int(np.searchsorted(first, np.count_nonzero(present[:n_train])))
            codes[present, j] = np.where(number < n_vocab, number + 1, 0)
            sizes.append(n_vocab + 1)
        return codes, sizes

    user_features_all, user_vocab_sizes = encode(user_feature_names)
    item_features_all, item_vocab_sizes = encode(item_feature_names)

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

    # Entity feature rows come from each entity's first chronological row.
    return DatasetBundle(
        schema=schema,
        user_feature_names=user_feature_names,
        item_feature_names=item_feature_names,
        user_vocab_sizes=user_vocab_sizes,
        item_vocab_sizes=item_vocab_sizes,
        binning=binning,
        users=user_keys[first_user].tolist(),
        items=item_ids[first_item].tolist(),
        user_feature_table=user_features_all[first_user],
        item_feature_table=item_features_all[first_item],
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
# The DatasetBundle fields the JSON header holds as they are; the header also
# holds the schema, the binning and the array specs.
_HEADER_FIELDS = (
    "user_feature_names", "item_feature_names", "user_vocab_sizes", "item_vocab_sizes",
    "users", "items",
)


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
    meta = {name: getattr(bundle, name) for name in _HEADER_FIELDS}
    meta["schema"] = asdict(bundle.schema)
    meta["binning"] = {k: v.tolist() for k, v in sorted(bundle.binning.items())}
    meta["arrays"] = [
        {"name": name, "dtype": dtype, "shape": list(arr.shape)} for name, arr, dtype in arrays
    ]
    write_artifact(
        path, BUNDLE_MAGIC, BUNDLE_VERSION, meta, [(arr, dtype) for _, arr, dtype in arrays]
    )


def _read_exact(fh, n: int, path) -> bytes:
    """The next n bytes, checked against the file size before reading."""
    left = os.fstat(fh.fileno()).st_size - fh.tell()
    if n > left:
        raise IngestionError(f"{path}: truncated: {n} more bytes expected, {left} left")
    return fh.read(n)


def write_artifact(path, magic: bytes, version: int, meta: dict, arrays) -> None:
    """Atomic write shared by the GNB1 and GNC1 formats.

    Layout: magic, version (u4), JSON header length (u8), the sorted compact
    JSON header, then each ``(array, dtype)`` of ``arrays`` as raw bytes.
    Identical inputs give identical bytes; a failed write leaves no file.
    """
    blob = json.dumps(meta, sort_keys=True, separators=(",", ":")).encode("utf-8")
    directory = os.path.dirname(os.path.abspath(path))
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=f".{magic.decode('ascii').lower()}-")
    try:
        with os.fdopen(fd, "wb") as fh:
            fh.write(magic)
            fh.write(np.asarray(version, dtype="<u4").tobytes())
            fh.write(np.asarray(len(blob), dtype="<u8").tobytes())
            fh.write(blob)
            for arr, dtype in arrays:
                fh.write(np.ascontiguousarray(arr, dtype=dtype).tobytes())
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def read_header(fh, path, magic: bytes, version: int, kind: str) -> dict:
    """Magic, version and JSON metadata shared by the GNB1 and GNC1 formats.

    A wrong magic or version, a short read or a header that is not a JSON
    object raises ``IngestionError``.
    """
    found = fh.read(len(magic))
    if found != magic:
        raise IngestionError(f"{path}: not a {kind} (magic {found!r})")
    found_version = int.from_bytes(_read_exact(fh, 4, path), "little")
    if found_version != version:
        raise IngestionError(f"{path}: unsupported {kind} version {found_version}")
    blob_len = int.from_bytes(_read_exact(fh, 8, path), "little")
    try:
        meta = json.loads(_read_exact(fh, blob_len, path).decode("utf-8"))
    except ValueError as exc:  # bad UTF-8 or bad JSON
        raise IngestionError(f"{path}: corrupt {kind} header: {exc}") from None
    if not isinstance(meta, dict):
        raise IngestionError(f"{path}: corrupt {kind} header: not a JSON object")
    return meta


def read_array(fh, path, shape, dtype) -> np.ndarray:
    """The next array of the given shape and dtype, length-checked."""
    try:
        shape = tuple(int(d) for d in shape)
        dtype = np.dtype(dtype)
    except (TypeError, ValueError) as exc:
        raise IngestionError(f"{path}: bad array spec {shape!r} {dtype!r}: {exc}") from None
    if any(d < 0 for d in shape):
        raise IngestionError(f"{path}: negative array shape {shape}")
    data = _read_exact(fh, math.prod(shape) * dtype.itemsize, path)
    return np.frombuffer(data, dtype=dtype).reshape(shape).copy()


def check_end(fh, path) -> None:
    """Refuse bytes after the last array: the header did not declare them."""
    if fh.read(1):
        raise IngestionError(f"{path}: bytes after the last declared array")


def _check_arrays(bundle: DatasetBundle, path) -> None:
    """Refuse arrays whose lengths, widths or values do not fit each other or the header;
    each value check (rows, codes, bits, labels, list offsets) is one vectorized pass."""
    widths = {
        "user_features": len(bundle.user_feature_names),
        "item_features": len(bundle.item_feature_names),
        "bits": bundle.num_feedbacks,
    }
    for side, ids, table, vocab in (
        ("user", bundle.users, bundle.user_feature_table, bundle.user_vocab_sizes),
        ("item", bundle.items, bundle.item_feature_table, bundle.item_vocab_sizes),
    ):
        width = widths[f"{side}_features"]
        if not width:
            raise IngestionError(f"{path}: the {side} side has no feature")
        if len(ids) != len(table) or table.shape[1:] != (width,) or len(vocab) != width:
            raise IngestionError(f"{path}: {len(ids)} {side}s do not fit a table of {table.shape}")
        _check_range(path, f"{side}_feature_table", table, vocab)
    for name in ("train", "validation", "test"):
        split = bundle.split(name)
        if len({len(getattr(split, attr)) for attr, _ in _SPLIT_ARRAYS}) > 1:
            raise IngestionError(f"{path}: the {name} arrays differ in length")
        if any(getattr(split, attr).shape[1:] != (width,) for attr, width in widths.items()):
            raise IngestionError(f"{path}: the {name} arrays' widths differ from the header's")
        bounds = {
            "user_index": len(bundle.users), "item_index": len(bundle.items), "bits": 2,
            "user_features": bundle.user_vocab_sizes, "item_features": bundle.item_vocab_sizes,
            "lists.sample_idx": split.num_samples, "lists.list_user": len(bundle.users),
        }
        for attr, high in bounds.items():
            _check_range(path, f"{name}.{attr}", attrgetter(attr)(split), high)
        if not np.array_equal(split.labels, map_to_ordinal_array(split.bits)):
            raise IngestionError(f"{path}: {name}.labels are not the bits' ordinal categories")
        offsets, end = split.lists.offsets, len(split.lists.sample_idx)
        rising = len(offsets) == split.lists.num_lists + 1 and np.all(offsets[1:] >= offsets[:-1])
        if not rising or offsets[0] != 0 or offsets[-1] != end:
            raise IngestionError(f"{path}: {name}.lists.offsets do not rise from 0 to {end}")


def _check_range(path, name: str, values: np.ndarray, high) -> None:
    if np.any(values < 0) or np.any(values >= np.asarray(high)):
        raise IngestionError(f"{path}: {name} holds values outside [0, n) for n = {high}")


def load_bundle(path) -> DatasetBundle:
    with open(path, "rb") as fh:
        meta = read_header(fh, path, BUNDLE_MAGIC, BUNDLE_VERSION, "bundle cache")
        try:
            loaded = {
                spec["name"]: read_array(fh, path, spec["shape"], spec["dtype"])
                for spec in meta["arrays"]
            }
            check_end(fh, path)
            splits = {
                name: Split(
                    **{attr: loaded[f"{name}.{attr}"] for attr, _ in _SPLIT_ARRAYS},
                    lists=ListIndex(
                        **{attr: loaded[f"{name}.lists.{attr}"] for attr, _ in _LIST_ARRAYS}
                    ),
                )
                for name in ("train", "validation", "test")
            }
            bundle = DatasetBundle(
                schema=FeedbackSchema(**{k: tuple(v) for k, v in meta["schema"].items()}),
                binning={k: np.asarray(v, dtype=np.float64) for k, v in meta["binning"].items()},
                user_feature_table=loaded["user_feature_table"],
                item_feature_table=loaded["item_feature_table"],
                **{name: list(meta[name]) for name in _HEADER_FIELDS},
                **splits,
            )
            _check_arrays(bundle, path)
            return bundle
        except (AttributeError, KeyError, TypeError, ValueError) as exc:
            raise IngestionError(f"{path}: malformed bundle cache: {exc!r}") from None
