"""Command-line entry point: prepare, thresholds, train, eval, retrieve, angles.

Runs are driven by an INI config file; `--set section.key=value` overrides
win over the file.  Exit codes: 0 success, 1 runtime/numerical failure,
2 usage or configuration error.  GNOLR_LOG in {quiet, info, debug} sets
verbosity.
"""

from __future__ import annotations

import argparse
import configparser
import logging
import os
import sys

import numpy as np

from . import training
from .data import DataConfig, build_bundle, load_bundle, save_bundle
from .encoders import check_tsv_ids, write_embeddings
from .errors import ArgumentError, ConfigError, GnolrError
from .feedback import estimate_thresholds
from .metrics import (
    angle_histogram,
    format_report,
    topk_retrieve_batch,
    write_angle_csv,
    write_report,
)
from .training import TrainConfig, load_checkpoint, save_checkpoint

logger = logging.getLogger("gnolr")

_KNOWN_KEYS = {
    "data": {
        "csv", "bundle", "feedback", "numeric_features", "binarize_feedback",
        "rating_threshold", "user_key_columns", "embed_user_id", "embed_item_id",
        "n_bins", "max_list_len", "train_fraction", "validation_fraction_of_train",
        "seed",
    },
    "model": {
        "kind", "variant", "listwise", "listnet_use_log", "thresholds",
        "thresholds_population", "gamma", "clip_floor", "embedding_dim",
        "hidden_sizes", "activation_slope", "positive_weights", "bce_raw_cosine",
        "bce_target_level",
    },
    "train": {
        "learning_rate", "epochs", "batch_size", "list_batch_size", "seed",
        "patience", "checkpoint",
    },
    "eval": {
        "split", "recall_ks", "gauc", "report", "retrieve_k", "retrieve_out",
        "angles_out", "angle_level", "embeddings_user", "embeddings_item",
    },
}


def _parse_bool(raw: str, key: str) -> bool:
    low = raw.strip().lower()
    if low in ("true", "yes", "1", "on"):
        return True
    if low in ("false", "no", "0", "off"):
        return False
    raise ConfigError(f"{key}: expected a boolean, got {raw!r}")


def _split_list(raw: str) -> list[str]:
    return [part.strip() for part in raw.split(",") if part.strip()]


class RunConfig:
    """Validated view over the INI sections with typed accessors."""

    def __init__(self, sections: dict[str, dict[str, str]]) -> None:
        for section, keys in sections.items():
            if section not in _KNOWN_KEYS:
                raise ConfigError(f"unknown config section [{section}]")
            unknown = set(keys) - _KNOWN_KEYS[section]
            if unknown:
                raise ConfigError(f"unknown keys in [{section}]: {sorted(unknown)}")
        self.sections = sections

    @classmethod
    def load(cls, path: str, overrides: list[str]) -> "RunConfig":
        if not os.path.exists(path):
            raise ConfigError(f"config file does not exist: {path}")
        parser = configparser.ConfigParser(interpolation=None, inline_comment_prefixes=("#",))
        try:
            parser.read(path, encoding="utf-8")
        except configparser.Error as exc:
            raise ConfigError(f"cannot parse {path}: {exc}") from exc
        sections = {name: dict(parser[name]) for name in parser.sections()}
        for item in overrides:
            if "=" not in item or "." not in item.split("=", 1)[0]:
                raise ConfigError(f"override must look like section.key=value, got {item!r}")
            target, value = item.split("=", 1)
            section, key = target.split(".", 1)
            sections.setdefault(section.strip(), {})[key.strip()] = value.strip()
        return cls(sections)

    def get(self, section: str, key: str, default=None) -> str | None:
        return self.sections.get(section, {}).get(key, default)

    def require(self, section: str, key: str) -> str:
        value = self.get(section, key)
        if value is None:
            raise ConfigError(f"missing required config key [{section}] {key}")
        return value

    def get_int(self, section: str, key: str, default: int | None) -> int | None:
        raw = self.get(section, key)
        if raw is None:
            return default
        try:
            return int(raw)
        except ValueError:
            raise ConfigError(f"[{section}] {key}: expected an integer, got {raw!r}") from None

    def get_float(self, section: str, key: str, default: float) -> float:
        raw = self.get(section, key)
        if raw is None:
            return default
        try:
            return float(raw)
        except ValueError:
            raise ConfigError(f"[{section}] {key}: expected a number, got {raw!r}") from None

    def get_list(self, section: str, key: str, default: str, cast=float) -> tuple:
        """Comma-separated values parsed with ``cast`` (int or float)."""
        raw = self.get(section, key) or default
        try:
            return tuple(cast(v) for v in _split_list(raw))
        except ValueError:
            noun = "integers" if cast is int else "numbers"
            raise ConfigError(
                f"[{section}] {key}: expected comma-separated {noun}, got {raw!r}"
            ) from None

    def get_bool(self, section: str, key: str, default: bool) -> bool:
        raw = self.get(section, key)
        if raw is None:
            return default
        return _parse_bool(raw, f"[{section}] {key}")


def _data_config(cfg: RunConfig) -> DataConfig:
    """The [data] section; any value ``DataConfig`` rejects is a config error."""
    csv_path = cfg.require("data", "csv")
    try:
        return DataConfig(
            csv_path=csv_path,
            feedback=tuple(_split_list(cfg.require("data", "feedback"))),
            numeric_features=tuple(_split_list(cfg.get("data", "numeric_features", "") or "")),
            binarize_feedback=tuple(_split_list(cfg.get("data", "binarize_feedback", "") or "")),
            rating_threshold=cfg.get_float("data", "rating_threshold", 4.0),
            user_key_columns=tuple(
                _split_list(cfg.get("data", "user_key_columns", "user_id") or "user_id")
            ),
            embed_user_id=cfg.get_bool("data", "embed_user_id", True),
            embed_item_id=cfg.get_bool("data", "embed_item_id", True),
            n_bins=cfg.get_int("data", "n_bins", 50),
            max_list_len=cfg.get_int("data", "max_list_len", 500),
            train_fraction=cfg.get_float("data", "train_fraction", 0.7),
            validation_fraction_of_train=cfg.get_float(
                "data", "validation_fraction_of_train", 0.1
            ),
            seed=cfg.get_int("data", "seed", 0),
        )
    except ArgumentError as exc:
        raise ConfigError(f"[data] {exc}") from None


# Composite kinds: gnolr + "-" or "_" + a suffix is shorthand for kind gnolr plus a flag.
_ALIAS_FLAGS = {"l": {"listwise": True}, "v0": {"variant": "v0"}, "v1": {"variant": "v1"}}
_KIND_ALIASES = {
    f"gnolr{sep}{suffix}": ("gnolr", flags)
    for sep in "-_"
    for suffix, flags in _ALIAS_FLAGS.items()
}


def _train_config(cfg: RunConfig) -> TrainConfig:
    auto = (cfg.get("model", "thresholds") or "auto").strip().lower() == "auto"
    kind = (cfg.get("model", "kind", "gnolr") or "gnolr").strip().lower()
    implied: dict = {}
    if kind in _KIND_ALIASES:
        kind, implied = _KIND_ALIASES[kind]
    return TrainConfig(
        kind=kind,
        variant=implied.get("variant", cfg.get("model", "variant", "nested") or "nested"),
        listwise=implied.get("listwise", cfg.get_bool("model", "listwise", False)),
        listnet_use_log=cfg.get_bool("model", "listnet_use_log", True),
        thresholds=None if auto else cfg.get_list("model", "thresholds", ""),
        thresholds_population=cfg.get("model", "thresholds_population", "train") or "train",
        gamma=cfg.get_float("model", "gamma", 1.0),
        clip_floor=cfg.get_float("model", "clip_floor", 1e-6),
        embedding_dim=cfg.get_int("model", "embedding_dim", 16),
        hidden_sizes=cfg.get_list("model", "hidden_sizes", "128,64,32", int),
        activation_slope=cfg.get_float("model", "activation_slope", 0.01),
        positive_weights=cfg.get_list("model", "positive_weights", ""),
        bce_raw_cosine=cfg.get_bool("model", "bce_raw_cosine", False),
        bce_target_level=cfg.get_int("model", "bce_target_level", 1),
        learning_rate=cfg.get_float("train", "learning_rate", 0.05),
        epochs=cfg.get_int("train", "epochs", 10),
        batch_size=cfg.get_int("train", "batch_size", 1024),
        list_batch_size=cfg.get_int("train", "list_batch_size", 32),
        seed=cfg.get_int("train", "seed", 0),
        patience=cfg.get_int("train", "patience", None),
    )


def _load_bundle(cfg: RunConfig):
    path = cfg.require("data", "bundle")
    if not os.path.exists(path):
        raise ConfigError(f"bundle cache does not exist: {path} (run `gnolr prepare` first)")
    return load_bundle(path)


def _load_model(cfg: RunConfig, bundle):
    """The checkpoint's model, once the checkpoint is known to fit ``bundle``."""
    path = cfg.require("train", "checkpoint")
    if not os.path.exists(path):
        raise ConfigError(f"checkpoint does not exist: {path} (run `gnolr train` first)")
    checkpoint = load_checkpoint(path)
    checkpoint.check_bundle(bundle)
    return checkpoint.build_model()


def _print_seed(cfg: RunConfig) -> None:
    print(f"seed={cfg.get_int('train', 'seed', 0)}")


def cmd_prepare(cfg: RunConfig) -> int:
    data_cfg = _data_config(cfg)
    print(f"seed={data_cfg.seed}")
    bundle = build_bundle(data_cfg)
    save_bundle(bundle, cfg.require("data", "bundle"))
    names = bundle.schema.ordered_names()
    for split_name in ("train", "validation", "test"):
        split = bundle.split(split_name)
        pos = " ".join(
            f"pos_{name}={int(split.bits[:, t].sum())}" for t, name in enumerate(names)
        )
        print(f"split={split_name} total={split.num_samples} {pos}")
    total_bits = np.concatenate(
        [bundle.train.bits, bundle.validation.bits, bundle.test.bits]
    )
    pos = " ".join(
        f"pos_{name}={int(total_bits[:, t].sum())}" for t, name in enumerate(names)
    )
    n_total = total_bits.shape[0]
    print(f"split=all total={n_total} {pos}")
    print(f"users={len(bundle.users)} items={len(bundle.items)}")
    return 0


def cmd_thresholds(cfg: RunConfig) -> int:
    _print_seed(cfg)
    bundle = _load_bundle(cfg)
    population = cfg.get("model", "thresholds_population", "train") or "train"
    if population not in ("train", "all"):
        raise ConfigError(f"thresholds_population must be train|all, got {population!r}")
    labels = bundle.train.labels if population == "train" else bundle.all_labels()
    thresholds = estimate_thresholds(labels, bundle.num_feedbacks)
    for c, value in enumerate(thresholds.values, start=1):
        print(f"a_{c} = {value:.4f}")
    print("thresholds = " + ",".join(f"{v:.4f}" for v in thresholds.values))
    return 0


def cmd_train(cfg: RunConfig) -> int:
    _print_seed(cfg)
    bundle = _load_bundle(cfg)
    train_cfg = _train_config(cfg)
    result = training.train(bundle, train_cfg)
    for line in result.log_lines:
        print(line)
    save_checkpoint(result.checkpoint, cfg.require("train", "checkpoint"))
    print(
        f"best_epoch={result.checkpoint.best_epoch} "
        f"best_val_auc={result.checkpoint.best_metric:.6f} "
        f"config_hash={result.checkpoint.config_hash}"
    )
    if result.diverged:
        print("warning: training diverged; checkpoint holds the last good state")
        return 1
    return 0


def cmd_eval(cfg: RunConfig) -> int:
    _print_seed(cfg)
    bundle = _load_bundle(cfg)
    model = _load_model(cfg, bundle)
    recall_ks = cfg.get_list("eval", "recall_ks", "", int)
    gauc_mode = cfg.get("eval", "gauc", "pairs") or "pairs"
    if gauc_mode not in ("pairs", "uniform", "off"):
        raise ConfigError(f"[eval] gauc must be pairs|uniform|off, got {gauc_mode!r}")
    user_out = cfg.get("eval", "embeddings_user")
    item_out = cfg.get("eval", "embeddings_item")
    # One item matrix and one user matrix serve both recall and the export.
    index = training.unified_index(model, bundle) if item_out else None
    users = model.user_embeddings(bundle.user_feature_table) if user_out else None
    metrics = training.evaluate(
        model,
        bundle,
        split_name=cfg.get("eval", "split", "test") or "test",
        recall_ks=recall_ks,
        gauc_weighting=gauc_mode if gauc_mode != "off" else "pairs",
        with_gauc=gauc_mode != "off",
        index=index,
        user_vectors=users,
    )
    sys.stdout.write(format_report(metrics))
    report_path = cfg.get("eval", "report")
    if report_path:
        write_report(report_path, metrics)
    num_levels = model.encoder.num_levels
    if user_out:
        write_embeddings(user_out, bundle.users, users, num_levels)
    if item_out:
        write_embeddings(item_out, bundle.items, index.vectors, num_levels)
    return 0


def cmd_retrieve(cfg: RunConfig, k_override: int | None = None) -> int:
    _print_seed(cfg)
    k = k_override if k_override is not None else cfg.get_int("eval", "retrieve_k", 10)
    if k < 0:
        raise ConfigError(f"retrieve depth K must be >= 0, got {k}")
    bundle = _load_bundle(cfg)
    model = _load_model(cfg, bundle)
    split = bundle.split(cfg.get("eval", "split", "test") or "test")
    out_path = cfg.get("eval", "retrieve_out")
    index = training.unified_index(model, bundle)
    user_ids = np.unique(split.user_index)
    check_tsv_ids([bundle.users[uid] for uid in user_ids.tolist()])
    check_tsv_ids(index.item_ids)
    user_vectors = model.user_embeddings(bundle.user_feature_table[user_ids])
    lines: list[str] = []
    for uid, top in zip(user_ids.tolist(), topk_retrieve_batch(user_vectors, index, k)):
        for rank, item in enumerate(top, start=1):
            lines.append(f"{bundle.users[uid]}\t{item}\t{rank}")
    text = "\n".join(lines) + ("\n" if lines else "")
    if out_path:
        with open(out_path, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return 0


def cmd_angles(cfg: RunConfig) -> int:
    _print_seed(cfg)
    bundle = _load_bundle(cfg)
    model = _load_model(cfg, bundle)
    split = bundle.split(cfg.get("eval", "split", "test") or "test")
    level = cfg.get_int("eval", "angle_level", bundle.num_feedbacks)
    if not 1 <= level <= bundle.num_feedbacks:
        raise ConfigError(f"angle_level outside 1..{bundle.num_feedbacks}")
    # Each sample's pair of unified vectors, read from its distinct feature rows.
    users, user_of = model.embed_distinct("user", split.user_features)
    items, item_of = model.embed_distinct("item", split.item_features)
    table = angle_histogram(users, items, split.labels > level, user_of=user_of, item_of=item_of)
    out_path = cfg.get("eval", "angles_out")
    if out_path:
        write_angle_csv(out_path, table)
    else:
        sys.stdout.write("bin_deg,pos,neg\n")
        for bin_start, n_pos, n_neg in table:
            sys.stdout.write(f"{bin_start:g},{int(n_pos)},{int(n_neg)}\n")
    return 0


def _setup_logging() -> None:
    env = os.environ.get("GNOLR_LOG", "info").strip().lower()
    level = {"quiet": logging.WARNING, "info": logging.INFO, "debug": logging.DEBUG}.get(env)
    if level is None:
        raise ConfigError(f"GNOLR_LOG must be quiet|info|debug, got {env!r}")
    logging.basicConfig(level=level, format="%(message)s")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gnolr",
        description="Multi-feedback ordinal twin-tower training, evaluation, and retrieval",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in ("prepare", "thresholds", "train", "eval", "retrieve", "angles"):
        cmd = sub.add_parser(name)
        cmd.add_argument("config", help="INI config file")
        cmd.add_argument(
            "--set",
            action="append",
            default=[],
            metavar="SECTION.KEY=VALUE",
            help="override a config value (repeatable, wins over the file)",
        )
        cmd.add_argument("--seed", type=int, default=None, help="override [train] seed")
        if name == "retrieve":
            cmd.add_argument("--k", type=int, default=None, help="override retrieval depth")
    return parser


def main(argv: list[str] | None = None) -> int:
    try:
        _setup_logging()
        args = build_parser().parse_args(argv)
        overrides = list(args.set)
        if args.seed is not None:
            overrides.append(f"train.seed={args.seed}")
            overrides.append(f"data.seed={args.seed}")
        cfg = RunConfig.load(args.config, overrides)
        if args.command == "prepare":
            return cmd_prepare(cfg)
        if args.command == "thresholds":
            return cmd_thresholds(cfg)
        if args.command == "train":
            return cmd_train(cfg)
        if args.command == "eval":
            return cmd_eval(cfg)
        if args.command == "retrieve":
            return cmd_retrieve(cfg, args.k)
        if args.command == "angles":
            return cmd_angles(cfg)
        raise ConfigError(f"unknown command {args.command!r}")
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except GnolrError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
