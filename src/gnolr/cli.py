"""Command-line entry point: prepare, thresholds, train, eval, retrieve, angles.

Runs are driven by an INI config file; `--set section.key=value` overrides
win over the file.  Exit codes: 0 success, 1 runtime/numerical failure,
2 usage or configuration error.  GNOLR_LOG in {quiet, info, debug} sets
verbosity.
"""

from __future__ import annotations

import argparse
import configparser
import dataclasses
import logging
import os
import sys
from dataclasses import dataclass

import numpy as np

from . import training
from .data import DataConfig, build_bundle, load_bundle, save_bundle
from .encoders import check_tsv_ids, write_embeddings
from .errors import ArgumentError, ConfigError, GnolrError, IngestionError
from .metrics import (
    angle_csv,
    angle_histogram,
    format_report,
    topk_retrieve_batch,
    write_angle_csv,
    write_report,
)
from .models import ModelSettings
from .training import TrainConfig, load_checkpoint, save_checkpoint

logger = logging.getLogger("gnolr")


@dataclass(frozen=True)
class EvalConfig:
    """The [eval] section: the split to score, metric options and output paths ("" = none).

    ``angle_level`` None means the sparsest level; its upper bound, the
    bundle's level count, is checked once the bundle has loaded.
    """

    split: str = "test"
    recall_ks: tuple[int, ...] = ()
    gauc: str = "pairs"
    report: str = ""
    retrieve_k: int = 10
    retrieve_out: str = ""
    angles_out: str = ""
    angle_level: int | None = None
    embeddings_user: str = ""
    embeddings_item: str = ""

    def __post_init__(self) -> None:
        if self.split not in ("train", "validation", "test"):
            raise ConfigError(f"unknown split '{self.split}'")
        if self.recall_ks and min(self.recall_ks) < 0:
            raise ConfigError(f"recall needs one or more K >= 0, got {self.recall_ks}")
        if self.gauc not in ("pairs", "uniform", "off"):
            raise ConfigError(f"[eval] gauc must be pairs|uniform|off, got {self.gauc!r}")
        if self.retrieve_k < 0:
            raise ConfigError(f"retrieve depth K must be >= 0, got {self.retrieve_k}")
        if self.angle_level is not None and self.angle_level < 1:
            raise ConfigError(f"angle_level must be >= 1, got {self.angle_level}")


def _parse_bool(raw: str) -> bool:
    low = raw.lower()
    if low in ("true", "yes", "1", "on"):
        return True
    if low in ("false", "no", "0", "off"):
        return False
    raise ValueError(raw)


def _split_list(raw: str) -> tuple[str, ...]:
    return tuple(part.strip() for part in raw.split(",") if part.strip())


def _floats(raw: str) -> tuple[float, ...]:
    return tuple(map(float, _split_list(raw)))


# A field's annotation (a string: annotations are postponed) -> its value
# parser and, for the error message, what a value it rejects should be.
_PARSERS = {
    "str": (str, None),
    "bool": (_parse_bool, "a boolean"),
    "int": (int, "an integer"),
    "int | None": (int, "an integer"),
    "float": (float, "a number"),
    "tuple[str, ...]": (_split_list, None),
    "tuple[int, ...]": (lambda raw: tuple(map(int, _split_list(raw))), "comma-separated integers"),
    "tuple[float, ...]": (_floats, "comma-separated numbers"),
    "tuple[float, ...] | None": (
        lambda raw: None if raw.lower() == "auto" else _floats(raw),
        "comma-separated numbers",
    ),
}

# [model] holds the ModelSettings fields, the thresholds and the population
# auto thresholds are estimated on; [train] holds the other TrainConfig fields.
_MODEL_FIELDS = {f.name for f in dataclasses.fields(ModelSettings)}
_MODEL_FIELDS |= {"thresholds", "thresholds_population"}
_KEY_OF_FIELD = {"csv_path": "csv"}


def _keys(cls, keep=lambda name: True) -> dict:
    return {_KEY_OF_FIELD.get(f.name, f.name): f for f in dataclasses.fields(cls) if keep(f.name)}


# Each section's keys and the dataclass field each sets.  None marks an
# artifact path that no dataclass holds.
_SECTIONS = {
    "data": {**_keys(DataConfig), "bundle": None},
    "model": _keys(TrainConfig, lambda name: name in _MODEL_FIELDS),
    "train": {**_keys(TrainConfig, lambda name: name not in _MODEL_FIELDS), "checkpoint": None},
    "eval": _keys(EvalConfig),
}


class RunConfig:
    """The INI sections as raw strings, checked against the known keys."""

    def __init__(self, sections: dict[str, dict[str, str]]) -> None:
        for section, keys in sections.items():
            if section not in _SECTIONS:
                raise ConfigError(f"unknown config section [{section}]")
            unknown = set(keys) - set(_SECTIONS[section])
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

    def require(self, section: str, key: str) -> str:
        value = self.sections.get(section, {}).get(key)
        if value is None:
            raise ConfigError(f"missing required config key [{section}] {key}")
        return value

    def values(self, *sections: str) -> dict:
        """The set keys of ``sections`` by field name, each parsed by its field's annotation.

        An empty string or list value leaves the field's default; an empty
        number or boolean is an error, and so is a required field left out.
        """
        out = {}
        for section in sections:
            for key, f in _SECTIONS[section].items():
                if f is None:
                    continue
                if f.default is dataclasses.MISSING:
                    raw = self.require(section, key)
                else:
                    raw = self.sections.get(section, {}).get(key)
                    if raw is None or (raw == "" and f.type.startswith(("str", "tuple"))):
                        continue
                parse, expected = _PARSERS[f.type]
                try:
                    out[f.name] = parse(raw)
                except ValueError:
                    message = f"[{section}] {key}: expected {expected}, got {raw!r}"
                    raise ConfigError(message) from None
        return out


def _data_config(cfg: RunConfig) -> DataConfig:
    """The [data] section; any value ``DataConfig`` rejects is a config error."""
    try:
        return DataConfig(**cfg.values("data"))
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
    """The [model] and [train] sections; ``kind`` is case-blind and may be an alias."""
    values = cfg.values("model", "train")
    if "kind" in values:
        kind = values["kind"].lower()
        kind, implied = _KIND_ALIASES.get(kind, (kind, {}))
        values.update(kind=kind, **implied)
    return TrainConfig(**values)


def _print_seed(cfg: RunConfig) -> TrainConfig:
    """The checked [model] and [train] settings, after printing their seed line."""
    train_cfg = _train_config(cfg)
    print(f"seed={train_cfg.seed}")
    return train_cfg


def _load_bundle(cfg: RunConfig):
    path = cfg.require("data", "bundle")
    if not os.path.exists(path):
        raise ConfigError(f"bundle cache does not exist: {path} (run `gnolr prepare` first)")
    return load_bundle(path)


def _load_for_eval(cfg: RunConfig):
    """The [eval] settings, the bundle and the checkpoint's model, once it fits the bundle."""
    _print_seed(cfg)
    settings = EvalConfig(**cfg.values("eval"))
    bundle = _load_bundle(cfg)
    path = cfg.require("train", "checkpoint")
    if not os.path.exists(path):
        raise ConfigError(f"checkpoint does not exist: {path} (run `gnolr train` first)")
    checkpoint = load_checkpoint(path)
    checkpoint.check_bundle(bundle)
    try:
        return settings, bundle, checkpoint.build_model()
    except IngestionError as exc:
        raise IngestionError(f"{path}: {exc}") from None


def cmd_prepare(cfg: RunConfig) -> int:
    data_cfg = _data_config(cfg)
    print(f"seed={data_cfg.seed}")
    bundle = build_bundle(data_cfg)
    save_bundle(bundle, cfg.require("data", "bundle"))
    names = bundle.schema.ordered_names()
    split_bits = {name: bundle.split(name).bits for name in ("train", "validation", "test")}
    split_bits["all"] = np.concatenate(list(split_bits.values()))
    for split_name, bits in split_bits.items():
        pos = " ".join(f"pos_{name}={int(bits[:, t].sum())}" for t, name in enumerate(names))
        print(f"split={split_name} total={len(bits)} {pos}")
    print(f"users={len(bundle.users)} items={len(bundle.items)}")
    return 0


def cmd_thresholds(cfg: RunConfig) -> int:
    auto = dataclasses.replace(_print_seed(cfg), thresholds=None)
    thresholds = training.resolve_thresholds(_load_bundle(cfg), auto)
    for c, value in enumerate(thresholds, start=1):
        print(f"a_{c} = {value:.4f}")
    print("thresholds = " + ",".join(f"{v:.4f}" for v in thresholds))
    return 0


def cmd_train(cfg: RunConfig) -> int:
    train_cfg = _print_seed(cfg)
    bundle = _load_bundle(cfg)
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
    settings, bundle, model = _load_for_eval(cfg)
    user_out, item_out = settings.embeddings_user, settings.embeddings_item
    # One item matrix and one user matrix serve both recall and the export.
    index = training.unified_index(model, bundle) if item_out else None
    users = model.user_embeddings(bundle.user_feature_table) if user_out else None
    metrics = training.evaluate(
        model,
        bundle,
        split_name=settings.split,
        recall_ks=settings.recall_ks,
        gauc_weighting=settings.gauc,
        index=index,
        user_vectors=users,
    )
    sys.stdout.write(format_report(metrics))
    if settings.report:
        write_report(settings.report, metrics)
    num_levels = len(model.user.towers)
    if user_out:
        write_embeddings(user_out, bundle.users, users, num_levels)
    if item_out:
        write_embeddings(item_out, bundle.items, index.vectors, num_levels)
    return 0


def cmd_retrieve(cfg: RunConfig) -> int:
    settings, bundle, model = _load_for_eval(cfg)
    split = bundle.split(settings.split)
    index = training.unified_index(model, bundle)
    user_ids = np.unique(split.user_index)
    check_tsv_ids([bundle.users[uid] for uid in user_ids.tolist()])
    check_tsv_ids(index.item_ids)
    user_vectors = model.user_embeddings(bundle.user_feature_table[user_ids])
    ranked = topk_retrieve_batch(user_vectors, index, settings.retrieve_k)
    lines = [
        f"{bundle.users[uid]}\t{index.item_ids[j]}\t{rank}"
        for uid, top in zip(user_ids.tolist(), ranked.tolist())
        for rank, j in enumerate(top, start=1)
    ]
    text = "\n".join(lines) + ("\n" if lines else "")
    if settings.retrieve_out:
        with open(settings.retrieve_out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return 0


def cmd_angles(cfg: RunConfig) -> int:
    settings, bundle, model = _load_for_eval(cfg)
    split = bundle.split(settings.split)
    level = bundle.num_feedbacks if settings.angle_level is None else settings.angle_level
    if not 1 <= level <= bundle.num_feedbacks:
        raise ConfigError(f"angle_level outside 1..{bundle.num_feedbacks}")
    # Each sample's pair of unified vectors, read from its distinct feature rows.
    users, user_of = model.user.embed_distinct(split.user_features)
    items, item_of = model.item.embed_distinct(split.item_features)
    table = angle_histogram(users, items, split.labels > level, user_of=user_of, item_of=item_of)
    if settings.angles_out:
        write_angle_csv(settings.angles_out, table)
    else:
        sys.stdout.write(angle_csv(table))
    return 0


_COMMANDS = {
    "prepare": cmd_prepare,
    "thresholds": cmd_thresholds,
    "train": cmd_train,
    "eval": cmd_eval,
    "retrieve": cmd_retrieve,
    "angles": cmd_angles,
}


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
    for name in _COMMANDS:
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
        if getattr(args, "k", None) is not None:
            overrides.append(f"eval.retrieve_k={args.k}")
        return _COMMANDS[args.command](RunConfig.load(args.config, overrides))
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except GnolrError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
