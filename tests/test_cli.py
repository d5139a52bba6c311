"""Command-line surface: exit codes, output formats, determinism."""

import subprocess
import sys

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

    def test_malformed_row_exits_one_with_line(self, tmp_path, capsys):
        bad = tmp_path / "bad.csv"
        bad.write_text("user_id,item_id,timestamp,click,pay\nu1,i1,1,0,0\nu2,i2,oops,0,0\n")
        cfg = write_config(tmp_path, bad)
        assert main(["prepare", cfg]) == 1
        assert ":3" in capsys.readouterr().err


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
        assert main(["train", cfg, "--set", f"model.thresholds={line.split('= ', 1)[1]}"]) == 0


class TestTrainEval:
    def test_seed_prints_and_logs(self, workspace, capsys):
        tmp_path, cfg = workspace
        assert main(["train", cfg, "--seed", "9"]) == 0
        out = capsys.readouterr().out
        assert out.startswith("seed=9\n")
        assert "epoch=1 loss=" in out
        assert "best_epoch=" in out

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
        reports = []
        for _ in range(2):
            assert main(["train", cfg, "--seed", "7"]) == 0
            capsys.readouterr()
            assert main(["eval", cfg]) == 0
            reports.append(capsys.readouterr().out)
        assert reports[0] == reports[1]

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
        ],
    )
    def test_malformed_number_list_exits_two(self, workspace, capsys, command, override):
        tmp_path, cfg = workspace
        assert main([command, cfg, "--set", override]) == 2
        section, key = override.split("=")[0].split(".")
        assert f"error: [{section}] {key}: " in capsys.readouterr().err

    def test_composite_kind_aliases(self, workspace, capsys):
        from gnolr.training import load_checkpoint

        tmp_path, cfg = workspace
        for alias, field, expected in (
            ("gnolr_l", "listwise", True),
            ("gnolr-l", "listwise", True),
            ("gnolr_v0", "variant", "v0"),
            ("gnolr-v0", "variant", "v0"),
            ("gnolr_v1", "variant", "v1"),
            ("gnolr-v1", "variant", "v1"),
            ("GNOLR-V1", "variant", "v1"),
        ):
            assert (
                main(["train", cfg, "--set", f"model.kind={alias}", "--set", "train.epochs=1"])
                == 0
            )
            capsys.readouterr()
            loaded = load_checkpoint(tmp_path / "model.gnc")
            assert loaded.model_config.kind == "gnolr"
            assert getattr(loaded.model_config, field) == expected


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
