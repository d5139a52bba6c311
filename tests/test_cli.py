"""Command-line surface: exit codes, output formats, determinism."""

import dataclasses
import json
import pathlib
import subprocess
import sys
from operator import attrgetter

import numpy as np
import pytest

from gnolr.cli import main
from tests.helpers import write_synthetic_csv


def write_config(tmp_path, csv_path, extra=""):
    cfg = tmp_path / "run.ini"
    cfg.write_text(
        f"""
[data]
csv = {csv_path}
bundle = {tmp_path}/bundle.gnb
feedback = click,pay

[model]
kind = gnolr
gamma = 2.0
embedding_dim = 8
hidden_sizes = 16,8

[train]
epochs = 4
learning_rate = 0.02
batch_size = 256
seed = 1
checkpoint = {tmp_path}/model.gnc
{extra}
"""
    )
    return str(cfg)


@pytest.fixture(scope="module")
def workspace(tmp_path_factory):
    tmp_path = tmp_path_factory.mktemp("cli")
    csv_path = write_synthetic_csv(tmp_path / "data.csv", n_rows=1200, seed=5)
    cfg = write_config(tmp_path, csv_path)
    assert main(["prepare", cfg]) == 0
    assert main(["train", cfg]) == 0
    return tmp_path, cfg


class TestPrepare:
    def test_prints_split_statistics(self, tmp_path, capsys):
        csv_path = write_synthetic_csv(tmp_path / "d.csv", n_rows=400, seed=6)
        cfg = write_config(tmp_path, csv_path)
        assert main(["prepare", cfg]) == 0
        out = capsys.readouterr().out
        assert "split=train total=" in out
        assert "pos_click=" in out and "pos_pay=" in out
        assert (tmp_path / "bundle.gnb").read_bytes()[:4] == b"GNB1"
        # Independent recount straight from the CSV text.
        rows = [l.split(",") for l in open(csv_path).read().splitlines()[1:]]
        clicks = sum(int(r[3]) for r in rows)
        pays = sum(int(r[4]) for r in rows)
        all_line = [l for l in out.splitlines() if l.startswith("split=all ")][0]
        assert f"total={len(rows)}" in all_line
        assert f"pos_click={clicks}" in all_line
        assert f"pos_pay={pays}" in all_line

    def test_rerun_is_byte_identical(self, tmp_path):
        csv_path = write_synthetic_csv(tmp_path / "d.csv", n_rows=300, seed=7)
        cfg = write_config(tmp_path, csv_path)
        assert main(["prepare", cfg]) == 0
        first = (tmp_path / "bundle.gnb").read_bytes()
        assert main(["prepare", cfg]) == 0
        assert (tmp_path / "bundle.gnb").read_bytes() == first

    def test_missing_timestamp_column_exits_two(self, tmp_path, capsys):
        bad = tmp_path / "bad.csv"
        bad.write_text("user_id,item_id,click,pay\nu1,i1,0,0\n")
        cfg = write_config(tmp_path, bad)
        assert main(["prepare", cfg]) == 2
        assert "timestamp" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "header, name",
        [
            ("user_id,item_id,timestamp,click,pay,uf_a,uf_a", "uf_a"),
            ("user_id,item_id,timestamp,click,pay,pay", "pay"),
        ],
        ids=["uf_a", "pay"],
    )
    def test_repeated_header_column_exits_two(self, tmp_path, capsys, header, name):
        bad = tmp_path / "bad.csv"
        width = len(header.split(","))
        rows = [",".join([f"u{i}", f"i{i}", str(i)] + [str(i % 2)] * (width - 3)) for i in range(6)]
        bad.write_text(header + "\n" + "\n".join(rows) + "\n")
        cfg = write_config(tmp_path, bad)
        assert main(["prepare", cfg]) == 2
        assert f"header repeats columns ['{name}']" in capsys.readouterr().err
        assert not (tmp_path / "bundle.gnb").exists()

    def test_repeated_feedback_name_exits_two(self, tmp_path, capsys):
        csv_path = write_synthetic_csv(tmp_path / "d.csv", n_rows=200, seed=6)
        cfg = write_config(tmp_path, csv_path)
        assert main(["prepare", cfg, "--set", "data.feedback=click,pay,pay"]) == 2
        assert capsys.readouterr().err == "error: [data] feedback repeats columns ['pay']\n"
        assert not (tmp_path / "bundle.gnb").exists()

    @pytest.mark.parametrize("side", ["user", "item"])
    def test_side_with_no_feature_exits_two(self, tmp_path, capsys, side):
        csv_path = write_synthetic_csv(tmp_path / "d.csv", n_rows=200, seed=6)
        cfg = write_config(tmp_path, csv_path)
        assert main(["prepare", cfg, "--set", f"data.embed_{side}_id=false"]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: the {side} side has no feature: ")
        assert f"embed_{side}_id = true" in err and f"{side[0]}f_ columns" in err
        assert not (tmp_path / "bundle.gnb").exists()

    def test_malformed_row_exits_one_with_line(self, tmp_path, capsys):
        bad = tmp_path / "bad.csv"
        bad.write_text("user_id,item_id,timestamp,click,pay\nu1,i1,1,0,0\nu2,i2,oops,0,0\n")
        cfg = write_config(tmp_path, bad)
        assert main(["prepare", cfg]) == 1
        assert ":3" in capsys.readouterr().err

    def test_timestamp_outside_int64_exits_one(self, tmp_path, capsys):
        bad = tmp_path / "bad.csv"
        bad.write_text("user_id,item_id,timestamp,click,pay\nu1,i1,99999999999999999999,0,0\n")
        cfg = write_config(tmp_path, bad)
        assert main(["prepare", cfg]) == 1
        err = capsys.readouterr().err
        assert err == f"error: {bad}:2: bad timestamp '99999999999999999999'\n"

    def test_non_finite_numeric_feature_exits_one(self, tmp_path, capsys):
        bad = tmp_path / "bad.csv"
        rows = [f"u{i % 3},i{i % 4},{i},{i % 2},0,{20 + i}" for i in range(12)]
        rows[7] = "u1,i3,7,1,0,nan"
        bad.write_text("user_id,item_id,timestamp,click,pay,uf_age\n" + "\n".join(rows) + "\n")
        cfg = tmp_path / "run.ini"
        cfg.write_text(
            f"[data]\ncsv = {bad}\nbundle = {tmp_path}/b.gnb\nfeedback = click,pay\n"
            "numeric_features = uf_age\n"
        )
        assert main(["prepare", str(cfg)]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {bad}:9: ")
        assert "'nan'" in err and "'uf_age'" in err
        assert not (tmp_path / "b.gnb").exists()

    @pytest.mark.parametrize("rating", ["nan", "inf", "1e999"])
    def test_non_finite_rating_exits_one(self, tmp_path, capsys, rating):
        bad = tmp_path / "bad.csv"
        rows = [f"u{i % 3},i{i % 4},{i},{i % 2},{1 + i % 5}" for i in range(12)]
        rows[4] = f"u1,i0,4,1,{rating}"
        bad.write_text("user_id,item_id,timestamp,click,rating\n" + "\n".join(rows) + "\n")
        cfg = tmp_path / "run.ini"
        cfg.write_text(
            f"[data]\ncsv = {bad}\nbundle = {tmp_path}/b.gnb\nfeedback = click,rating\n"
            "binarize_feedback = rating\n"
        )
        assert main(["prepare", str(cfg)]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {bad}:6: ")
        assert f"'{rating}'" in err and "'rating'" in err
        assert not (tmp_path / "b.gnb").exists()

    @pytest.mark.parametrize(
        "body, expected",
        [
            (b"u1,i1,1,0,0\nu\xe9,i2,2,1,0\n", "not UTF-8"),
            (b"u1,i1,1,0,0\nu" + b"x" * 140_000 + b",i2,2,1,0\n", ":3: field larger than field"),
        ],
        ids=["latin1_byte", "oversize_field"],
    )
    def test_undecodable_csv_exits_one(self, tmp_path, capsys, body, expected):
        bad = tmp_path / "bad.csv"
        bad.write_bytes(b"user_id,item_id,timestamp,click,pay\n" + body)
        cfg = write_config(tmp_path, bad)
        assert main(["prepare", cfg]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {bad}")
        assert expected in err


class TestThresholds:
    def test_balanced_synthetic_prints_zero(self, tmp_path, capsys):
        csv = tmp_path / "bal.csv"
        rows = ["user_id,item_id,timestamp,click"]
        rows += [f"u{i},i{i},{i},{i % 2}" for i in range(40)]
        csv.write_text("\n".join(rows) + "\n")
        cfg = tmp_path / "run.ini"
        cfg.write_text(
            f"[data]\ncsv = {csv}\nbundle = {tmp_path}/b.gnb\nfeedback = click\n"
        )
        assert main(["prepare", str(cfg)]) == 0
        # The full 40 rows are exactly half positive.
        assert main(["thresholds", str(cfg), "--set", "model.thresholds_population=all"]) == 0
        out = capsys.readouterr().out
        assert "a_1 = 0.0000" in out
        assert "thresholds = 0.0000" in out

    def test_output_parses_back_into_config(self, workspace, capsys):
        tmp_path, cfg = workspace
        assert main(["thresholds", cfg]) == 0
        out = capsys.readouterr().out
        line = [l for l in out.splitlines() if l.startswith("thresholds = ")][0]
        values = [float(v) for v in line.split("=", 1)[1].split(",")]
        assert len(values) == 2
        assert values[0] < values[1]
        # Feed the printed values back as manual thresholds.
        shared = (tmp_path / "model.gnc").read_bytes()
        own = tmp_path / "thresholds.gnc"
        manual = f"model.thresholds={line.split('= ', 1)[1]}"
        assert main(["train", cfg, "--set", manual, "--set", f"train.checkpoint={own}"]) == 0
        assert own.exists()
        # The module-scoped checkpoint that later tests read is left alone.
        assert (tmp_path / "model.gnc").read_bytes() == shared


class TestTrainEval:
    def test_seed_prints_and_logs(self, workspace, capsys):
        tmp_path, cfg = workspace
        shared = (tmp_path / "model.gnc").read_bytes()
        own = ["--set", f"train.checkpoint={tmp_path / 'seed9.gnc'}"]
        assert main(["train", cfg, "--seed", "9", *own]) == 0
        out = capsys.readouterr().out
        assert out.startswith("seed=9\n")
        assert "epoch=1 loss=" in out
        assert "best_epoch=" in out
        assert (tmp_path / "model.gnc").read_bytes() == shared

    def test_eval_emits_metric_lines(self, workspace, capsys):
        tmp_path, cfg = workspace
        assert main(["eval", cfg]) == 0
        out = capsys.readouterr().out
        assert any(line.startswith("auc_t1=") for line in out.splitlines())
        assert any(line.startswith("auc_t2=") for line in out.splitlines())

    def test_recall_k_list_gives_one_row_per_k(self, workspace, capsys):
        tmp_path, cfg = workspace
        assert main(["eval", cfg, "--set", "eval.recall_ks=5,10,15,20"]) == 0
        out = capsys.readouterr().out
        for k in (5, 10, 15, 20):
            assert f"recall_t2@{k}=" in out

    def test_same_seed_identical_reports(self, workspace, capsys):
        tmp_path, cfg = workspace
        shared = (tmp_path / "model.gnc").read_bytes()
        own = ["--set", f"train.checkpoint={tmp_path / 'seed7.gnc'}"]
        reports = []
        for _ in range(2):
            assert main(["train", cfg, "--seed", "7", *own]) == 0
            capsys.readouterr()
            assert main(["eval", cfg, *own]) == 0
            reports.append(capsys.readouterr().out)
        assert reports[0] == reports[1]
        assert (tmp_path / "model.gnc").read_bytes() == shared

    def test_report_file_written(self, workspace, capsys):
        tmp_path, cfg = workspace
        report = tmp_path / "report.json"
        assert main(["eval", cfg, "--set", f"eval.report={report}"]) == 0
        assert report.exists()
        assert report.read_text().lstrip().startswith("{")

    def test_embedding_export(self, workspace, capsys):
        tmp_path, cfg = workspace
        out_file = tmp_path / "items.tsv"
        assert main(["eval", cfg, "--set", f"eval.embeddings_item={out_file}"]) == 0
        header = out_file.read_text().splitlines()[0]
        assert header.startswith("#gnolr-emb v1 dim=16 T=2")


    def test_eval_embeds_items_once_for_recall_and_export(self, workspace, capsys, monkeypatch):
        from gnolr.data import load_bundle
        from gnolr.encoders import write_embeddings
        from gnolr.models import _TwinBase
        from gnolr.training import load_checkpoint

        tmp_path, cfg = workspace
        bundle = load_bundle(tmp_path / "bundle.gnb")
        direct = tmp_path / "items_direct.tsv"
        model = load_checkpoint(tmp_path / "model.gnc").build_model()
        write_embeddings(direct, bundle.items, model.item_embeddings(bundle.item_feature_table), 2)
        embedded_rows = []
        original = _TwinBase.item_embeddings

        def counted(self, feature_rows):
            embedded_rows.append(len(feature_rows))
            return original(self, feature_rows)

        monkeypatch.setattr(_TwinBase, "item_embeddings", counted)
        out_file = tmp_path / "items_once.tsv"
        overrides = ["--set", "eval.recall_ks=5", "--set", f"eval.embeddings_item={out_file}"]
        assert main(["eval", cfg, *overrides]) == 0
        assert "recall_t2@5=" in capsys.readouterr().out
        assert sum(embedded_rows) == len(bundle.items)
        assert out_file.read_bytes() == direct.read_bytes()


    def test_eval_embeds_users_once_for_recall_and_export(self, workspace, capsys, monkeypatch):
        from gnolr.data import load_bundle
        from gnolr.encoders import write_embeddings
        from gnolr.models import _TwinBase
        from gnolr.training import load_checkpoint

        tmp_path, cfg = workspace
        bundle = load_bundle(tmp_path / "bundle.gnb")
        direct = tmp_path / "users_direct.tsv"
        model = load_checkpoint(tmp_path / "model.gnc").build_model()
        write_embeddings(direct, bundle.users, model.user_embeddings(bundle.user_feature_table), 2)
        embedded_rows = []
        original = _TwinBase.user_embeddings

        def counted(self, feature_rows):
            embedded_rows.append(len(feature_rows))
            return original(self, feature_rows)

        monkeypatch.setattr(_TwinBase, "user_embeddings", counted)
        out_file = tmp_path / "users_once.tsv"
        overrides = ["--set", "eval.recall_ks=5", "--set", f"eval.embeddings_user={out_file}"]
        assert main(["eval", cfg, *overrides]) == 0
        assert "recall_t2@5=" in capsys.readouterr().out
        assert sum(embedded_rows) == len(bundle.users)
        assert out_file.read_bytes() == direct.read_bytes()


class TestRetrieve:
    def test_tsv_format(self, workspace, capsys):
        tmp_path, cfg = workspace
        assert main(["retrieve", cfg, "--k", "3"]) == 0
        out = capsys.readouterr().out
        lines = [l for l in out.splitlines() if "\t" in l]
        assert lines
        user, item, rank = lines[0].split("\t")
        assert user.startswith("u") and item.startswith("i")
        assert rank == "1"
        ranks = {l.split("\t")[2] for l in lines}
        assert ranks == {"1", "2", "3"}

    def test_k_zero_empty_output_exit_zero(self, workspace, capsys):
        tmp_path, cfg = workspace
        assert main(["retrieve", cfg, "--k", "0"]) == 0
        out = capsys.readouterr().out
        assert "\t" not in out

    def test_output_file(self, workspace, capsys):
        tmp_path, cfg = workspace
        out_file = tmp_path / "topk.tsv"
        assert main(["retrieve", cfg, "--k", "2", "--set", f"eval.retrieve_out={out_file}"]) == 0
        assert out_file.exists()
        assert all(len(l.split("\t")) == 3 for l in out_file.read_text().splitlines())

    @pytest.mark.parametrize(
        "args", [["--k", "-1"], ["--set", "eval.retrieve_k=-1"]], ids=["flag", "config"]
    )
    def test_negative_k_exits_two(self, workspace, capsys, args):
        tmp_path, cfg = workspace
        assert main(["retrieve", cfg, *args]) == 2
        captured = capsys.readouterr()
        assert "error: retrieve depth K must be >= 0, got -1" in captured.err
        assert "\t" not in captured.out

    def test_all_users_ranked_in_one_call_matching_brute_force(self, workspace, capsys, monkeypatch):
        from gnolr import cli
        from gnolr.data import load_bundle
        from gnolr.training import load_checkpoint

        tmp_path, cfg = workspace
        calls = []
        original = cli.topk_retrieve_batch

        def counted(user_embeddings, index, k):
            calls.append(len(user_embeddings))
            return original(user_embeddings, index, k)

        monkeypatch.setattr(cli, "topk_retrieve_batch", counted)
        assert main(["retrieve", cfg, "--k", "7"]) == 0
        got = [l.split("\t") for l in capsys.readouterr().out.splitlines() if "\t" in l]

        bundle = load_bundle(tmp_path / "bundle.gnb")
        model = load_checkpoint(tmp_path / "model.gnc").build_model()
        user_rows = np.unique(bundle.test.user_index)
        assert calls == [len(user_rows)]
        user_vecs = model.user_embeddings(bundle.user_feature_table[user_rows])
        item_vecs = model.item_embeddings(bundle.item_feature_table)
        expected = []
        for row, uid in enumerate(user_rows):
            dist = ((item_vecs - user_vecs[row]) ** 2).sum(axis=1).tolist()
            order = sorted(range(len(bundle.items)), key=lambda j: (dist[j], bundle.items[j]))
            expected += [
                [bundle.users[uid], bundle.items[j], str(rank)]
                for rank, j in enumerate(order[:7], start=1)
            ]
        assert got == expected


class TestAngles:
    def test_csv_written(self, workspace, capsys):
        tmp_path, cfg = workspace
        out_file = tmp_path / "angles.csv"
        assert main(["angles", cfg, "--set", f"eval.angles_out={out_file}"]) == 0
        lines = out_file.read_text().splitlines()
        assert lines[0] == "bin_deg,pos,neg"
        assert len(lines) == 181

    def test_stdout_matches_the_csv_file(self, workspace, capsys):
        tmp_path, cfg = workspace
        out_file = tmp_path / "angles_stdout.csv"
        assert main(["angles", cfg, "--set", f"eval.angles_out={out_file}"]) == 0
        capsys.readouterr()
        assert main(["angles", cfg]) == 0
        out = capsys.readouterr().out
        assert out.startswith("seed=1\nbin_deg,pos,neg\n")
        assert out.split("\n", 1)[1] == out_file.read_text()


class TestConfigValidation:
    def test_unknown_key_exits_two(self, workspace, capsys):
        tmp_path, cfg = workspace
        assert main(["train", cfg, "--set", "train.warp_speed=9"]) == 2
        assert "warp_speed" in capsys.readouterr().err

    def test_unknown_section_exits_two(self, workspace, capsys):
        tmp_path, cfg = workspace
        assert main(["train", cfg, "--set", "serving.port=80"]) == 2

    def test_missing_config_file_exits_two(self, capsys):
        assert main(["train", "/nonexistent/run.ini"]) == 2

    def test_missing_bundle_exits_two(self, tmp_path, capsys):
        csv_path = write_synthetic_csv(tmp_path / "d.csv", n_rows=100, seed=8)
        cfg = write_config(tmp_path, csv_path)
        assert main(["eval", cfg]) == 2
        assert "bundle" in capsys.readouterr().err

    def test_empty_validation_split_exits_two_before_training(self, tmp_path, capsys):
        csv_path = write_synthetic_csv(tmp_path / "d.csv", n_rows=600, seed=9)
        cfg = write_config(tmp_path, csv_path)
        no_validation = ["--set", "data.validation_fraction_of_train=0"]
        assert main(["prepare", cfg, *no_validation]) == 0
        assert "split=validation total=0 " in capsys.readouterr().out
        assert main(["train", cfg, *no_validation]) == 2
        captured = capsys.readouterr()
        assert "error: the validation split is empty" in captured.err
        assert "validation_fraction_of_train" in captured.err
        assert "epoch=" not in captured.out
        assert not (tmp_path / "model.gnc").exists()

    def test_bad_override_format_exits_two(self, workspace):
        tmp_path, cfg = workspace
        assert main(["train", cfg, "--set", "no-dots"]) == 2

    def test_bad_log_env_exits_two(self, workspace, monkeypatch, capsys):
        tmp_path, cfg = workspace
        monkeypatch.setenv("GNOLR_LOG", "verbose")
        assert main(["eval", cfg]) == 2

    @pytest.mark.parametrize(
        "command,override",
        [
            ("train", "train.patience=abc"),
            ("train", "model.hidden_sizes=16,x"),
            ("train", "model.positive_weights=heavy"),
            ("eval", "eval.recall_ks=5,ten"),
            ("train", "train.epochs="),
            ("train", "model.gamma="),
            ("train", "model.listwise="),
            ("retrieve", "eval.retrieve_k="),
        ],
    )
    def test_malformed_number_list_exits_two(self, workspace, capsys, command, override):
        tmp_path, cfg = workspace
        assert main([command, cfg, "--set", override]) == 2
        section, key = override.split("=")[0].split(".")
        assert f"error: [{section}] {key}: " in capsys.readouterr().err

    @pytest.mark.parametrize(
        "overrides",
        [
            ["model.variant=v2"],
            ["model.kind=ranker"],
            ["model.hidden_sizes=16,0"],
            ["model.embedding_dim=0"],
            ["model.activation_slope=1.5"],
            ["model.clip_floor=2"],
            ["model.gamma=0"],
            ["model.kind=bce", "model.bce_target_level=3"],
            ["model.thresholds=1.0,0.5"],
            ["model.kind=nsb", "model.positive_weights=2,3,4"],
            ["train.learning_rate=0"],
            ["train.batch_size=0"],
            ["train.patience=0"],
            ["train.patience=-3"],
            ["model.kind=bce", "model.listwise=true"],
            ["model.kind=nsb", "model.listwise=true"],
            ["model.kind=neural_olr", "model.listwise=true"],
            ["model.positive_weights=5"],
            ["model.kind=neural_olr", "model.positive_weights=5"],
            ["model.kind=bce", "model.variant=v1"],
            ["model.kind=nsb", "model.variant=v0"],
            ["model.kind=neural_olr", "model.variant=v1"],
            ["model.bce_target_level=2"],
            ["model.bce_raw_cosine=true"],
            ["model.kind=neural_olr", "model.bce_raw_cosine=yes"],
            ["model.listnet_use_log=false"],
            ["model.kind=nsb", "model.bce_target_level=2", "data.bundle=/nonexistent/nsb.gnb"],
            ["model.kind=ranker", "data.bundle=/nonexistent/ranker.gnb"],
            ["model.variant=v9", "data.bundle=/nonexistent/v9.gnb"],
            # Refused before the bundle loads: these bundle paths do not exist.
            ["model.clip_floor=2", "data.bundle=/nonexistent/clip_floor.gnb"],
            ["model.hidden_sizes=0", "data.bundle=/nonexistent/hidden_sizes.gnb"],
            ["model.activation_slope=2", "data.bundle=/nonexistent/activation_slope.gnb"],
            ["model.embedding_dim=0", "data.bundle=/nonexistent/embedding_dim.gnb"],
            ["model.kind=bce", "model.bce_target_level=0", "data.bundle=/nonexistent/bce0.gnb"],
            ["model.thresholds=3,1", "data.bundle=/nonexistent/thresholds_order.gnb"],
            ["model.thresholds=nan,1", "data.bundle=/nonexistent/thresholds_nan.gnb"],
            ["model.gamma=nan", "data.bundle=/nonexistent/gamma_nan.gnb"],
            ["model.gamma=inf", "data.bundle=/nonexistent/gamma_inf.gnb"],
            ["train.learning_rate=nan", "data.bundle=/nonexistent/learning_rate_nan.gnb"],
            ["train.learning_rate=inf", "data.bundle=/nonexistent/learning_rate_inf.gnb"],
            ["train.seed=-1", "data.bundle=/nonexistent/seed.gnb"],
            [
                "model.kind=nsb",
                "model.positive_weights=nan",
                "data.bundle=/nonexistent/positive_weights_nan.gnb",
            ],
            [
                "model.kind=bce",
                "model.positive_weights=inf",
                "data.bundle=/nonexistent/positive_weights_inf.gnb",
            ],
        ],
        ids=lambda overrides: overrides[-1],
    )
    def test_bad_model_or_train_value_exits_two(self, workspace, capsys, overrides):
        tmp_path, cfg = workspace
        args = [arg for item in overrides for arg in ("--set", item)]
        assert main(["train", cfg, *args]) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("error: ")
        assert "bundle cache does not exist" not in captured.err
        assert "epoch=" not in captured.out

    @pytest.mark.parametrize("command", ["eval", "retrieve", "angles"])
    @pytest.mark.parametrize(
        "override, message",
        [
            ("eval.split=tset", "unknown split 'tset'"),
            ("eval.recall_ks=-1", "recall needs one or more K >= 0, got (-1,)"),
            ("eval.recall_ks=5,-1", "recall needs one or more K >= 0, got (5, -1)"),
            ("eval.gauc=Pairs", "[eval] gauc must be pairs|uniform|off, got 'Pairs'"),
            ("eval.retrieve_k=-2", "retrieve depth K must be >= 0, got -2"),
            ("eval.angle_level=x", "[eval] angle_level: expected an integer, got 'x'"),
            ("eval.angle_level=0", "angle_level must be >= 1, got 0"),
        ],
    )
    def test_bad_eval_value_exits_two_before_loading(
        self, workspace, capsys, monkeypatch, command, override, message
    ):
        from gnolr import cli

        def refuse(path):
            raise AssertionError(f"{path} loaded before [eval] was checked")

        monkeypatch.setattr(cli, "load_bundle", refuse)
        monkeypatch.setattr(cli, "load_checkpoint", refuse)
        tmp_path, cfg = workspace
        assert main([command, cfg, "--set", override]) == 2
        assert capsys.readouterr().err == f"error: {message}\n"

    @pytest.mark.parametrize(
        "override",
        [
            "data.n_bins=0",
            "data.n_bins=1",
            "data.max_list_len=0",
            "data.train_fraction=0",
            "data.train_fraction=1",
            "data.validation_fraction_of_train=1",
            "data.validation_fraction_of_train=-0.1",
            "data.rating_threshold=nan",
            "data.rating_threshold=-inf",
            "data.seed=-1",
        ],
    )
    def test_bad_data_value_exits_two(self, workspace, capsys, override):
        tmp_path, cfg = workspace
        bundle = (tmp_path / "bundle.gnb").read_bytes()
        assert main(["prepare", cfg, "--set", override]) == 2
        captured = capsys.readouterr()
        key = override.split("=")[0].split(".")[1]
        assert captured.err.startswith(f"error: [data] {key} must ")
        assert "split=" not in captured.out
        assert (tmp_path / "bundle.gnb").read_bytes() == bundle

    @pytest.mark.parametrize(
        "command, message",
        [("prepare", "[data] seed must be >= 0, got -1"), ("train", "seed must be >= 0, got -1")],
    )
    def test_negative_seed_flag_exits_two(self, workspace, capsys, command, message):
        tmp_path, cfg = workspace
        artifacts = {name: (tmp_path / name).read_bytes() for name in ("bundle.gnb", "model.gnc")}
        assert main([command, cfg, "--seed", "-1"]) == 2
        captured = capsys.readouterr()
        assert captured.err == f"error: {message}\n"
        assert captured.out == ""
        for name, content in artifacts.items():
            assert (tmp_path / name).read_bytes() == content

    def test_composite_kind_aliases(self, workspace, capsys):
        from gnolr.training import load_checkpoint

        tmp_path, cfg = workspace
        shared = (tmp_path / "model.gnc").read_bytes()
        own = tmp_path / "aliases.gnc"
        for alias, field, expected in (
            ("gnolr_l", "listwise", True),
            ("gnolr-l", "listwise", True),
            ("gnolr_v0", "variant", "v0"),
            ("gnolr-v0", "variant", "v0"),
            ("gnolr_v1", "variant", "v1"),
            ("gnolr-v1", "variant", "v1"),
            ("GNOLR-V1", "variant", "v1"),
        ):
            args = ["--set", f"model.kind={alias}", "--set", "train.epochs=1"]
            args += ["--set", f"train.checkpoint={own}"]
            assert main(["train", cfg, *args]) == 0
            capsys.readouterr()
            loaded = load_checkpoint(own)
            assert loaded.model_config.kind == "gnolr"
            assert getattr(loaded.model_config, field) == expected
        # The module-scoped checkpoint that later tests read is left alone.
        assert (tmp_path / "model.gnc").read_bytes() == shared


class TestConfigDeclarations:
    """Each INI section reads its keys, types and defaults from one dataclass."""

    KEYS = {
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

    # Every key set to a value other than its default, as INI text and as read back.
    EVERY_KEY = {
        "data": {
            "csv": ("in.csv", "in.csv"),
            "bundle": ("b.gnb", None),
            "feedback": ("click, pay", ("click", "pay")),
            "numeric_features": ("uf_age,if_price", ("uf_age", "if_price")),
            "binarize_feedback": ("pay", ("pay",)),
            "rating_threshold": ("3.5", 3.5),
            "user_key_columns": ("user_id,uf_city", ("user_id", "uf_city")),
            "embed_user_id": ("no", False),
            "embed_item_id": ("off", False),
            "n_bins": ("7", 7),
            "max_list_len": ("9", 9),
            "train_fraction": ("0.6", 0.6),
            "validation_fraction_of_train": ("0.2", 0.2),
            "seed": ("4", 4),
        },
        "model": {
            "kind": ("nsb", "nsb"),
            "variant": ("v1", "v1"),
            "listwise": ("true", True),
            "listnet_use_log": ("false", False),
            "thresholds": ("0.5,1.5", (0.5, 1.5)),
            "thresholds_population": ("all", "all"),
            "gamma": ("2.5", 2.5),
            "clip_floor": ("1e-5", 1e-5),
            "embedding_dim": ("6", 6),
            "hidden_sizes": ("12,6", (12, 6)),
            "activation_slope": ("0.2", 0.2),
            "positive_weights": ("2,3", (2.0, 3.0)),
            "bce_raw_cosine": ("yes", True),
            "bce_target_level": ("2", 2),
        },
        "train": {
            "learning_rate": ("0.01", 0.01),
            "epochs": ("3", 3),
            "batch_size": ("64", 64),
            "list_batch_size": ("5", 5),
            "seed": ("8", 8),
            "patience": ("2", 2),
            "checkpoint": ("m.gnc", None),
        },
        "eval": {
            "split": ("validation", "validation"),
            "recall_ks": ("5,20", (5, 20)),
            "gauc": ("uniform", "uniform"),
            "report": ("r.json", "r.json"),
            "retrieve_k": ("3", 3),
            "retrieve_out": ("top.tsv", "top.tsv"),
            "angles_out": ("a.csv", "a.csv"),
            "angle_level": ("1", 1),
            "embeddings_user": ("u.tsv", "u.tsv"),
            "embeddings_item": ("i.tsv", "i.tsv"),
        },
    }

    @staticmethod
    def run_config(tmp_path, sections):
        from gnolr.cli import RunConfig

        text = "".join(
            f"[{name}]\n" + "".join(f"{key} = {raw}\n" for key, raw in keys.items())
            for name, keys in sections.items()
        )
        (tmp_path / "run.ini").write_text(text)
        return RunConfig.load(str(tmp_path / "run.ini"), [])

    def test_accepted_keys_are_the_45_known_ones(self):
        from gnolr import cli

        assert {name: set(keys) for name, keys in cli._SECTIONS.items()} == self.KEYS
        assert sum(map(len, self.KEYS.values())) == 45
        assert set(self.EVERY_KEY) == set(self.KEYS)
        for name, keys in self.KEYS.items():
            assert set(self.EVERY_KEY[name]) == keys

    def test_required_keys_alone_give_the_dataclass_defaults(self, tmp_path):
        from gnolr.cli import EvalConfig, _data_config, _train_config
        from gnolr.data import DataConfig
        from gnolr.training import TrainConfig

        cfg = self.run_config(tmp_path, {"data": {"csv": "in.csv", "feedback": "click"}})
        assert _data_config(cfg) == DataConfig(csv_path="in.csv", feedback=("click",))
        assert _train_config(cfg) == TrainConfig()
        assert EvalConfig(**cfg.values("eval")) == EvalConfig()

    def test_empty_string_or_list_values_leave_the_defaults(self, tmp_path):
        from gnolr.cli import EvalConfig, _data_config, _train_config
        from gnolr.data import DataConfig
        from gnolr.training import TrainConfig

        empty = ("user_key_columns", "numeric_features", "kind", "variant", "thresholds")
        empty += ("hidden_sizes", "positive_weights", "split", "recall_ks", "report", "gauc")
        sections = {"data": {"csv": "in.csv", "feedback": "click"}, "model": {}, "eval": {}}
        for key in empty:
            section = next(name for name, keys in self.KEYS.items() if key in keys)
            sections[section][key] = ""
        cfg = self.run_config(tmp_path, sections)
        assert _data_config(cfg) == DataConfig(csv_path="in.csv", feedback=("click",))
        assert _train_config(cfg) == TrainConfig()
        assert EvalConfig(**cfg.values("eval")) == EvalConfig()

    def test_every_key_reads_back(self, tmp_path):
        from gnolr.cli import EvalConfig, _data_config
        from gnolr.data import DataConfig
        from gnolr.training import TrainConfig

        ini = {
            name: {key: raw for key, (raw, _) in keys.items()}
            for name, keys in self.EVERY_KEY.items()
        }
        cfg = self.run_config(tmp_path, ini)
        field_of = {"csv": "csv_path"}
        defaults = {"data": DataConfig("", ("x",)), "model": TrainConfig(), "train": TrainConfig()}
        defaults["eval"] = EvalConfig()
        for name, keys in self.EVERY_KEY.items():
            expected = {field_of.get(k, k): v for k, (_, v) in keys.items() if v is not None}
            assert cfg.values(name) == expected
            for field, value in expected.items():
                assert getattr(defaults[name], field) != value, field
        assert cfg.require("data", "bundle") == "b.gnb"
        assert cfg.require("train", "checkpoint") == "m.gnc"
        # [model] and [train] set every key, which no one kind accepts; the
        # other two sections build their dataclasses with every value kept.
        assert vars(_data_config(cfg)) == cfg.values("data")
        assert vars(EvalConfig(**cfg.values("eval"))) == cfg.values("eval")

    def test_kind_is_case_blind_and_auto_thresholds_any_case(self, tmp_path):
        from gnolr.cli import _train_config

        cfg = self.run_config(tmp_path, {"model": {"kind": "BCE", "thresholds": "AuTo"}})
        train_cfg = _train_config(cfg)
        assert train_cfg.kind == "bce" and train_cfg.thresholds is None

    @pytest.mark.parametrize("name", ["tiny.gnb", "tiny.gnc"])
    def test_committed_artifacts_load_and_save_back_byte_identical(self, tmp_path, name):
        """``tests/fixtures`` holds a GNB1 bundle with binned numeric features and a
        GNC1 checkpoint trained on it, both written before the headers were built
        from the dataclass fields (commit 9bd238c)."""
        from gnolr.data import load_bundle, save_bundle
        from gnolr.training import load_checkpoint, save_checkpoint

        if name.endswith(".gnb"):
            load, save = load_bundle, save_bundle
        else:
            load, save = load_checkpoint, save_checkpoint
        original = pathlib.Path(__file__).parent / "fixtures" / name
        save(load(original), tmp_path / name)
        assert (tmp_path / name).read_bytes() == original.read_bytes()

    def test_retraining_the_committed_bundle_writes_the_committed_checkpoint(self, tmp_path):
        """Batching, the seeded draws and the step arithmetic, pinned to bytes
        written before any of them last changed."""
        from gnolr.data import load_bundle
        from gnolr.training import TrainConfig, load_checkpoint, save_checkpoint, train

        fixtures = pathlib.Path(__file__).parent / "fixtures"
        stored = load_checkpoint(fixtures / "tiny.gnc").train_config
        tuples = {k: tuple(v) if isinstance(v, list) else v for k, v in stored.items()}
        config = TrainConfig(**tuples)
        result = train(load_bundle(fixtures / "tiny.gnb"), config)
        save_checkpoint(result.checkpoint, tmp_path / "tiny.gnc")
        assert (tmp_path / "tiny.gnc").read_bytes() == (fixtures / "tiny.gnc").read_bytes()


class TestCheckpointBundleBinding:
    @pytest.fixture(scope="class")
    def other_bundle(self, tmp_path_factory):
        """A bundle from other data: 55 users where the workspace has 40."""
        tmp_path = tmp_path_factory.mktemp("other")
        csv_path = write_synthetic_csv(tmp_path / "other.csv", n_users=55, n_rows=1200, seed=9)
        assert main(["prepare", write_config(tmp_path, csv_path)]) == 0
        return tmp_path / "bundle.gnb"

    @pytest.mark.parametrize("command", ["eval", "retrieve", "angles"])
    def test_checkpoint_from_another_vocabulary_exits_two(
        self, workspace, other_bundle, capsys, command
    ):
        tmp_path, cfg = workspace
        capsys.readouterr()
        assert main([command, cfg, "--set", f"data.bundle={other_bundle}"]) == 2
        captured = capsys.readouterr()
        assert captured.err == (
            "error: checkpoint does not fit this bundle: user_vocab_sizes differs "
            "(was it trained on another bundle?)\n"
        )
        assert "auc_t" not in captured.out and "\t" not in captured.out

    def test_each_bundle_field_is_compared(self, workspace):
        import dataclasses

        from gnolr.data import load_bundle
        from gnolr.errors import ConfigError
        from gnolr.training import load_checkpoint

        tmp_path, _ = workspace
        checkpoint = load_checkpoint(tmp_path / "model.gnc")
        bundle = load_bundle(tmp_path / "bundle.gnb")
        checkpoint.check_bundle(bundle)
        schema = bundle.schema
        changes = {
            "item_feature_names": dict(item_feature_names=bundle.item_feature_names + ["if_x"]),
            "item_vocab_sizes": dict(item_vocab_sizes=[v + 1 for v in bundle.item_vocab_sizes]),
            "schema_counts": dict(
                schema=dataclasses.replace(
                    schema, positive_counts=tuple(c + 1 for c in schema.positive_counts)
                )
            ),
            "binning": dict(binning={"uf_age": np.array([0.5, 1.5])}),
        }
        for name, change in changes.items():
            with pytest.raises(ConfigError, match=f": {name} differs"):
                checkpoint.check_bundle(dataclasses.replace(bundle, **change))


@pytest.fixture(scope="module")
def tiny_artifacts(tmp_path_factory):
    tmp_path = tmp_path_factory.mktemp("tiny")
    csv_path = write_synthetic_csv(tmp_path / "d.csv", n_users=6, n_items=8, n_rows=80, seed=11)
    cfg = write_config(tmp_path, csv_path)
    assert main(["prepare", cfg]) == 0
    assert main(["train", cfg, "--set", "train.epochs=1"]) == 0
    return tmp_path, cfg


class TestTruncatedArtifacts:
    @pytest.mark.parametrize("name", ["bundle.gnb", "model.gnc"])
    def test_every_prefix_raises_a_typed_error(self, tiny_artifacts, name):
        from gnolr.data import load_bundle
        from gnolr.errors import GnolrError
        from gnolr.training import load_checkpoint

        tmp_path, _ = tiny_artifacts
        load = load_bundle if name == "bundle.gnb" else load_checkpoint
        data = (tmp_path / name).read_bytes()
        load(tmp_path / name)  # the whole file loads
        cut = tmp_path / f"cut-{name}"
        for length in range(len(data)):
            cut.write_bytes(data[:length])
            with pytest.raises(GnolrError):
                load(cut)

    @pytest.mark.parametrize("name", ["bundle.gnb", "model.gnc"])
    def test_cli_exits_one_with_error_line(self, tiny_artifacts, tmp_path, capsys, name):
        src, cfg = tiny_artifacts
        for other in ("bundle.gnb", "model.gnc"):
            data = (src / other).read_bytes()
            (tmp_path / other).write_bytes(data[: len(data) // 2] if other == name else data)
        overrides = [
            "--set", f"data.bundle={tmp_path}/bundle.gnb",
            "--set", f"train.checkpoint={tmp_path}/model.gnc",
        ]
        capsys.readouterr()
        assert main(["eval", cfg, *overrides]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "truncated" in err


def rewrite_artifact(src, dst, edit=None, tail=b""):
    """Copy a GNB1/GNC1 file, passing its JSON header through ``edit`` and
    appending ``tail`` to the payload."""
    data = src.read_bytes()
    size = int.from_bytes(data[8:16], "little")
    meta = json.loads(data[16 : 16 + size])
    if edit:
        edit(meta)
    blob = json.dumps(meta, sort_keys=True, separators=(",", ":")).encode()
    dst.write_bytes(data[:8] + len(blob).to_bytes(8, "little") + blob + data[16 + size :] + tail)


def set_model_config(key, value):
    def edit(meta):
        meta["model_config"][key] = value(meta["model_config"][key])

    return edit


def shorten_train_labels(meta):
    spec = next(s for s in meta["arrays"] if s["name"] == "train.labels")
    spec["shape"][0] -= 1


def resaved_bundle(**change):
    """Header and payload that agree, but lengths that do not fit each other."""

    def write(src, dst):
        from gnolr.data import load_bundle, save_bundle

        bundle = load_bundle(src)
        save_bundle(dataclasses.replace(bundle, **{k: fn(bundle) for k, fn in change.items()}), dst)

    return write


BAD_CHECKPOINTS = {
    "train-config-list": dict(edit=lambda meta: meta.update(train_config=[])),
    "embedding-dim-float": dict(edit=set_model_config("embedding_dim", float)),
    "embedding-dim-true": dict(edit=set_model_config("embedding_dim", lambda v: True)),
    "hidden-sizes-float": dict(edit=set_model_config("hidden_sizes", lambda v: [*map(float, v)])),
    "num-levels-float": dict(edit=set_model_config("num_levels", float)),
    "trailing-bytes": dict(tail=bytes(8)),
}


def poison(params):
    params["tower.user1.W1"] = params["tower.user1.W1"].copy()
    params["tower.user1.W1"][0, 0] = np.nan


# Edits of a checkpoint's parameters, each with the parameter its error names.
BAD_PARAMETERS = {
    "missing": (lambda params: params.pop("tower.user1.W0"), "tower.user1.W0"),
    "extra": (
        lambda params: params.update({"tower.item1.b9": np.zeros((1, 8))}),
        "tower.item1.b9",
    ),
    "misshapen": (
        lambda params: params.update({"tower.item1.b0": params["tower.item1.b0"][:, :-1]}),
        "tower.item1.b0",
    ),
    "nan-weight": (poison, "tower.user1.W1"),
}


def resaved_checkpoint(src, dst, edit):
    """A whole GNC1 file whose parameters ``edit`` changed in place."""
    from gnolr.training import load_checkpoint, save_checkpoint

    checkpoint = load_checkpoint(src)
    edit(checkpoint.params)
    save_checkpoint(checkpoint, dst)


def poked(name, at, value):
    """A whole bundle with the value at ``at`` of array ``name`` (as the GNB1
    header names it) set to ``value``."""

    def write(src, dst):
        from gnolr.data import load_bundle, save_bundle

        bundle = load_bundle(src)
        attrgetter(name)(bundle)[at] = value
        save_bundle(bundle, dst)

    return write


# Payload values out of range: (array, position, value).
OUT_OF_RANGE = {
    "item-index-negative": ("test.item_index", 0, -1),
    "user-index-past-the-users": ("test.user_index", 0, 10**6),
    "label-not-the-bits-category": ("test.labels", 0, 99),
    "user-feature-code-past-its-vocabulary": ("test.user_features", (0, 0), 10**6),
    "list-offset-past-the-samples": ("test.lists.offsets", 1, 10**6),
    "item-table-code-negative": ("item_feature_table", (0, 0), -1),
    "bit-not-binary": ("train.bits", (0, 0), 2),
    "list-sample-past-the-split": ("validation.lists.sample_idx", 0, 10**6),
    "list-user-past-the-users": ("train.lists.list_user", 0, 10**6),
    "offsets-not-from-zero": ("train.lists.offsets", 0, 1),
}


def featureless(side):
    """A whole bundle whose ``side`` ("user" or "item") has no feature column."""

    def strip(split):
        key = f"{side}_features"
        return dataclasses.replace(split, **{key: getattr(split, key)[:, :0]})

    return resaved_bundle(
        **{
            f"{side}_feature_names": lambda b: [],
            f"{side}_vocab_sizes": lambda b: [],
            f"{side}_feature_table": lambda b: getattr(b, f"{side}_feature_table")[:, :0],
        },
        **{
            name: lambda b, name=name: strip(getattr(b, name))
            for name in ("train", "validation", "test")
        },
    )


BAD_BUNDLES = {
    "trailing-bytes": lambda src, dst: rewrite_artifact(src, dst, tail=bytes(8)),
    "train-labels-declared-short": lambda src, dst: rewrite_artifact(src, dst, shorten_train_labels),
    "users-short": resaved_bundle(users=lambda b: b.users[:-1]),
    "items-long": resaved_bundle(items=lambda b: b.items + ["extra"]),
    "table-wider-than-names": resaved_bundle(
        user_feature_names=lambda b: b.user_feature_names[:-1],
    ),
    "split-lengths-differ": resaved_bundle(
        test=lambda b: dataclasses.replace(b.test, labels=b.test.labels[:-1]),
    ),
    "split-bits-narrower-than-schema": resaved_bundle(
        test=lambda b: dataclasses.replace(b.test, bits=b.test.bits[:, :1]),
    ),
    **{case: poked(*spec) for case, spec in OUT_OF_RANGE.items()},
}


class TestMalformedArtifacts:
    @pytest.mark.parametrize("command", ["eval", "retrieve", "angles"])
    @pytest.mark.parametrize("case", list(BAD_CHECKPOINTS))
    def test_bad_checkpoint_exits_one(self, tiny_artifacts, tmp_path, capsys, command, case):
        src, cfg = tiny_artifacts
        rewrite_artifact(src / "model.gnc", tmp_path / "model.gnc", **BAD_CHECKPOINTS[case])
        capsys.readouterr()
        assert main([command, cfg, "--set", f"train.checkpoint={tmp_path}/model.gnc"]) == 1
        captured = capsys.readouterr()
        assert captured.err.startswith(f"error: {tmp_path}/model.gnc: ")

    @pytest.mark.parametrize("command", ["eval", "retrieve", "angles"])
    @pytest.mark.parametrize("case", list(BAD_PARAMETERS))
    def test_bad_parameter_exits_one(self, tiny_artifacts, tmp_path, capsys, command, case):
        src, cfg = tiny_artifacts
        edit, name = BAD_PARAMETERS[case]
        resaved_checkpoint(src / "model.gnc", tmp_path / "model.gnc", edit)
        capsys.readouterr()
        assert main([command, cfg, "--set", f"train.checkpoint={tmp_path}/model.gnc"]) == 1
        captured = capsys.readouterr()
        assert captured.err.startswith(f"error: {tmp_path}/model.gnc: ") and name in captured.err
        assert "\t" not in captured.out

    def test_bundle_is_checked_before_parameters(self, tiny_artifacts, workspace, tmp_path):
        src, cfg = tiny_artifacts
        edit, _ = BAD_PARAMETERS["nan-weight"]
        resaved_checkpoint(src / "model.gnc", tmp_path / "model.gnc", edit)
        other = workspace[0] / "bundle.gnb"
        overrides = [
            "--set", f"train.checkpoint={tmp_path}/model.gnc",
            "--set", f"data.bundle={other}",
        ]
        assert main(["eval", cfg, *overrides]) == 2

    @pytest.mark.parametrize("command", ["train", "eval", "retrieve", "angles"])
    @pytest.mark.parametrize("case", list(BAD_BUNDLES))
    def test_bad_bundle_exits_one(self, tiny_artifacts, tmp_path, capsys, command, case):
        src, cfg = tiny_artifacts
        BAD_BUNDLES[case](src / "bundle.gnb", tmp_path / "bundle.gnb")
        overrides = [
            "--set", f"data.bundle={tmp_path}/bundle.gnb",
            "--set", f"train.checkpoint={tmp_path}/model.gnc",
        ]
        if command != "train":
            (tmp_path / "model.gnc").write_bytes((src / "model.gnc").read_bytes())
        capsys.readouterr()
        assert main([command, cfg, *overrides]) == 1
        captured = capsys.readouterr()
        assert captured.err.startswith(f"error: {tmp_path}/bundle.gnb: ")
        assert "Traceback" not in captured.err
        if case in OUT_OF_RANGE:  # the error names the array
            array = OUT_OF_RANGE[case][0]
            assert captured.err.startswith(f"error: {tmp_path}/bundle.gnb: {array} ")
        if command == "train":
            assert not (tmp_path / "model.gnc").exists()

    @pytest.mark.parametrize("command", ["train", "eval"])
    @pytest.mark.parametrize("side", ["user", "item"])
    def test_bundle_side_with_no_feature_exits_one(
        self, tiny_artifacts, tmp_path, capsys, side, command
    ):
        src, cfg = tiny_artifacts
        featureless(side)(src / "bundle.gnb", tmp_path / "bundle.gnb")
        overrides = [
            "--set", f"data.bundle={tmp_path}/bundle.gnb",
            "--set", f"train.checkpoint={tmp_path}/model.gnc",
        ]
        if command == "eval":
            (tmp_path / "model.gnc").write_bytes((src / "model.gnc").read_bytes())
        capsys.readouterr()
        assert main([command, cfg, *overrides]) == 1
        captured = capsys.readouterr()
        assert captured.err == f"error: {tmp_path}/bundle.gnb: the {side} side has no feature\n"
        assert (tmp_path / "model.gnc").exists() == (command == "eval")

    @pytest.mark.parametrize("seed", ["x", -1, 123])
    def test_stored_training_seed_is_not_read(self, tiny_artifacts, tmp_path, capsys, seed):
        src, cfg = tiny_artifacts
        capsys.readouterr()
        assert main(["eval", cfg]) == 0
        want = capsys.readouterr().out
        edit = lambda meta: meta["train_config"].update(seed=seed)  # noqa: E731
        rewrite_artifact(src / "model.gnc", tmp_path / "model.gnc", edit)
        assert main(["eval", cfg, "--set", f"train.checkpoint={tmp_path}/model.gnc"]) == 0
        assert capsys.readouterr().out == want

    def test_unchanged_rewrite_loads(self, tiny_artifacts, tmp_path):
        src, _ = tiny_artifacts
        for name in ("bundle.gnb", "model.gnc"):
            rewrite_artifact(src / name, tmp_path / name)
            assert (tmp_path / name).read_bytes() == (src / name).read_bytes()


class TestConsoleScript:
    def test_module_invocation(self, workspace):
        tmp_path, cfg = workspace
        proc = subprocess.run(
            [sys.executable, "-m", "gnolr.cli", "thresholds", cfg],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0
        assert "a_1 = " in proc.stdout

    def test_usage_error_exits_two(self):
        proc = subprocess.run(
            [sys.executable, "-m", "gnolr.cli", "no-such-command", "x.ini"],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 2


@pytest.fixture(scope="module")
def awkward_ids(tmp_path_factory):
    """A trained workspace whose CSV quotes item ids holding a tab and a line feed."""
    tmp_path = tmp_path_factory.mktemp("awkward")
    csv_path = write_synthetic_csv(tmp_path / "data.csv", n_rows=400, seed=6)
    text = pathlib.Path(csv_path).read_text()
    text = text.replace(",i3,", ',"i\t3",').replace(",i5,", ',"i5\nx",')
    pathlib.Path(csv_path).write_text(text)
    cfg = write_config(tmp_path, csv_path)
    assert main(["prepare", cfg]) == 0
    assert main(["train", cfg]) == 0
    return tmp_path, cfg


class TestIdsATsvCannotHold:
    def test_eval_export_refuses_them(self, awkward_ids, capsys):
        tmp_path, cfg = awkward_ids
        out_file = tmp_path / "items.tsv"
        assert main(["eval", cfg, "--set", f"eval.embeddings_item={out_file}"]) == 1
        assert "error: id 'i\\t3' holds a tab or line break" in capsys.readouterr().err
        assert not out_file.exists()

    def test_retrieve_refuses_them(self, awkward_ids, capsys):
        tmp_path, cfg = awkward_ids
        out_file = tmp_path / "topk.tsv"
        assert main(["retrieve", cfg, "--set", f"eval.retrieve_out={out_file}"]) == 1
        assert "error: id 'i\\t3' holds a tab or line break" in capsys.readouterr().err
        assert not out_file.exists()
