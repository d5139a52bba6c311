"""Pipeline benchmark for gnolr: prepare -> train -> eval -> retrieve/angles.

    python3 perfbench/run.py --workload train_dense --seed 1 --seconds 40 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 40 --trace 0

Run from the repository root.  One process per workload generates the
seeded inputs (a CSV and an INI file, nothing else reaches the program),
then drives the CLI stages through ``gnolr.cli.main`` in a closed loop:
one client, one stage at a time, the whole pipeline repeated until
``--seconds`` is used up.  Each pass re-reads the artifacts the previous
stage wrote, as separate CLI invocations do.

With ``--trace 0`` the last stdout line is a JSON object carrying every
end-to-end metric of BENCHMARK.json; with ``--trace 1`` it carries every
per-layer metric, from a run that alternates untraced and traced passes
(see tracing.py).  Outputs are checked on every pass; any failed check makes
``correct`` false and the exit code 1.  ``--workload all`` runs every
workload in its own process and prints a table.
"""

from __future__ import annotations

import os

# BLAS threads must be fixed before numpy loads; the CLI cannot cap them.
THREAD_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
os.environ.update(THREAD_ENV)
os.environ["GNOLR_LOG"] = "quiet"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import gc  # noqa: E402
import glob  # noqa: E402
import hashlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402

import numpy as np  # noqa: E402

from tracing import Tracer, tail  # noqa: E402
from workloads import (  # noqa: E402
    AUC_FLOOR,
    EPOCHS,
    RETRIEVE_K,
    WORKLOADS,
    Workload,
    config_text,
    generate_csv,
)

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".perfbench-work")

SETUP_REPEATS = 5
ORACLE_USERS = 32
STAGE_ARTIFACTS = {
    "prepare": ("bundle.gnb",),
    "train": ("model.gnc",),
    "eval": ("report.json", "users.tsv", "items.tsv"),
    "retrieve": ("topk.tsv",),
    "angles": ("angles.csv",),
}
ALL_STAGES = ("prepare", "train", "eval", "retrieve", "angles")


def load_spec() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


def import_program():
    """The checkout's own gnolr package; exits 2 when the source is absent."""
    if not os.path.isfile(os.path.join(SRC, "gnolr", "cli.py")):
        print(f"perfbench: no program source under {SRC}", file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, SRC)
    import gnolr.cli

    if not os.path.abspath(gnolr.cli.__file__).startswith(SRC + os.sep):
        print(f"perfbench: imported gnolr from {gnolr.cli.__file__}, not {SRC}", file=sys.stderr)
        sys.exit(2)
    return gnolr.cli


def sha256_file(path: str) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            digest.update(block)
    return digest.hexdigest()


def environment() -> dict:
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    src_digest = hashlib.sha256()
    for path in sorted(glob.glob(os.path.join(SRC, "gnolr", "*.py"))):
        with open(path, "rb") as fh:
            src_digest.update(fh.read())
    git_sha = None
    if shutil.which("git"):
        git = subprocess.run(
            ["git", "-C", ROOT, "rev-parse", "HEAD"],
            capture_output=True,
            text=True,
            env={**os.environ, "GIT_CEILING_DIRECTORIES": os.path.dirname(ROOT)},
        )
        git_sha = git.stdout.strip() if git.returncode == 0 else None
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": {k: blas.get(k) for k in ("name", "version", "openblas configuration")},
        "threads": THREAD_ENV,
        "git_sha": git_sha,
        "src_sha256": src_digest.hexdigest(),
    }


def setup(workload: Workload, seed: int, workdir: str) -> tuple[list[float], str, bool]:
    """Generate the inputs and cold-import the program, SETUP_REPEATS times.

    Returns the wall of each repeat, the INI path, and whether every repeat
    produced the same CSV bytes.
    """
    csv_path = os.path.join(workdir, "interactions.csv")
    ini_path = os.path.join(workdir, "run.ini")
    env = {**os.environ, "PYTHONPATH": SRC}
    walls, digests = [], set()
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        subprocess.run([sys.executable, "-c", "import gnolr.cli"], env=env, check=True)
        text = generate_csv(workload, seed)
        with open(csv_path, "w", encoding="utf-8") as fh:
            fh.write(text)
        with open(ini_path, "w", encoding="utf-8") as fh:
            fh.write(config_text(workload, seed, csv_path, workdir))
        walls.append(time.perf_counter() - start)
        digests.add(hashlib.sha256(text.encode()).hexdigest())
    return walls, ini_path, len(digests) == 1


def check_retrieve(seed: int, workdir: str) -> list[str]:
    """Brute-force top-K for a seeded sample of users, compared with topk.tsv.

    The oracle ranks every item by squared Euclidean distance, then item id
    ascending, with Python's own sort.
    """
    from gnolr.data import load_bundle
    from gnolr.training import load_checkpoint

    bundle = load_bundle(os.path.join(workdir, "bundle.gnb"))
    model = load_checkpoint(os.path.join(workdir, "model.gnc")).build_model()
    user_rows = np.unique(bundle.split("test").user_index)
    user_vecs = model.user_embeddings(bundle.user_feature_table[user_rows])
    item_vecs = model.item_embeddings(bundle.item_feature_table)
    k = min(RETRIEVE_K, len(bundle.items))

    got: dict[str, list[tuple[str, int]]] = {}
    with open(os.path.join(workdir, "topk.tsv"), encoding="utf-8") as fh:
        for line in fh:
            user, item, rank = line.rstrip("\n").split("\t")
            got.setdefault(user, []).append((item, int(rank)))
    errors = []
    if len(got) != len(user_rows):
        errors.append(f"retrieve listed {len(got)} users, expected {len(user_rows)}")
    rng = np.random.default_rng([seed, 1])
    sample = rng.choice(len(user_rows), size=min(ORACLE_USERS, len(user_rows)), replace=False)
    for row in sorted(sample.tolist()):
        dist = ((item_vecs - user_vecs[row]) ** 2).sum(axis=1).tolist()
        order = sorted(range(len(bundle.items)), key=lambda j: (dist[j], bundle.items[j]))
        expected = [(bundle.items[j], rank) for rank, j in enumerate(order[:k], start=1)]
        user = bundle.users[int(user_rows[row])]
        if got.get(user) != expected:
            errors.append(f"retrieve top-{k} for {user} differs from the brute-force oracle")
    return errors


class Run:
    """One workload's closed loop over the pipeline stages."""

    def __init__(self, cli, workload: Workload, seed: int, workdir: str, ini: str) -> None:
        self.cli = cli
        self.workload = workload
        self.seed = seed
        self.workdir = workdir
        self.ini = ini
        self.stages = ("prepare", "train", "eval", workload.query)
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []
        self.hashes: dict[str, str] = {}
        self.passes: list[dict] = []  # per pass: stage -> (wall, cpu), "wall", "traced"
        self.report: dict = {}
        self.train_rows = 0

    def run_stage(self, stage: str, tracer: Tracer | None) -> tuple[float, float, bool]:
        gc.collect()
        out = io.StringIO()
        span = tracer.open(f"cli.{stage}") if tracer else None
        wall0, cpu0 = time.perf_counter(), time.process_time()
        try:
            with contextlib.redirect_stdout(out):
                code = self.cli.main([stage, self.ini])
        except Exception:  # a crashing stage is a counted failure, not an abort
            traceback.print_exc()
            code = None
        wall, cpu = time.perf_counter() - wall0, time.process_time() - cpu0
        if span is not None:
            tracer.close(span)
        self.attempted += 1
        if code == 0:
            errors = self.check_stage(stage, out.getvalue())
        else:
            errors = [f"{stage} exited with {code}"]
        if errors:
            self.failed += 1
            self.errors.extend(errors)
        return wall, cpu, not errors

    def check_stage(self, stage: str, stdout: str) -> list[str]:
        """The output checks of one stage; an empty list means it passed."""
        errors = []
        for name in STAGE_ARTIFACTS[stage]:
            path = os.path.join(self.workdir, name)
            if not os.path.exists(path):
                if name in ("users.tsv", "items.tsv") and not self.workload.export_embeddings:
                    continue
                errors.append(f"{stage} wrote no {name}")
                continue
            digest = sha256_file(path)
            if self.hashes.setdefault(name, digest) != digest:
                errors.append(f"{name} differs from the first pass (sha256 {digest[:12]})")
        if stage == "prepare":
            train = [line for line in stdout.splitlines() if line.startswith("split=train ")]
            if not train:
                errors.append("prepare printed no split=train line")
            else:
                self.train_rows = int(train[0].split()[1].split("=")[1])
        elif stage == "eval":
            with open(os.path.join(self.workdir, "report.json"), encoding="utf-8") as fh:
                self.report = json.load(fh)
            auc_t1 = self.report.get("auc_t1", 0.0)
            if auc_t1 < AUC_FLOOR:
                errors.append(f"auc_t1={auc_t1:.4f} below the floor {AUC_FLOOR}")
        elif stage == "retrieve" and not self.passes:
            errors.extend(check_retrieve(self.seed, self.workdir))
        return errors

    def run_pass(self, tracer: Tracer | None) -> bool:
        record: dict = {"traced": tracer is not None}
        start = time.perf_counter()
        for stage in self.stages:
            wall, cpu, ok = self.run_stage(stage, tracer)
            record[stage] = (wall, cpu)
            if not ok:
                return False
        record["wall"] = time.perf_counter() - start
        self.passes.append(record)
        return True

    def loop(self, seconds: float, tracer: Tracer | None) -> None:
        """Run passes while the next one is expected to end within ``seconds``.

        Without a tracer at least two passes run (pass 0 is a warm-up).
        With one, passes alternate untraced / traced after the warm-up
        (untraced, traced, untraced, ...) and at least three run.
        """
        start = time.perf_counter()
        while True:
            traced = tracer is not None and len(self.passes) % 2 == 1
            if traced:
                tracer.pass_id = len(self.passes)
                tracer.install()
            try:
                ok = self.run_pass(tracer if traced else None)
            finally:
                if traced:
                    tracer.uninstall()
            if not ok:
                return
            elapsed = time.perf_counter() - start
            min_passes = 3 if tracer is not None else 2
            if len(self.passes) >= min_passes and elapsed + self.passes[-1]["wall"] > seconds:
                return

    def stage_median(self, stage: str, traced: bool = False, index: int = 0) -> float:
        """Median wall (index 0) or CPU (index 1) over the timed passes."""
        return statistics.median(p[stage][index] for p in self.timed() if p["traced"] == traced)

    def timed(self) -> list[dict]:
        """Pass 0 warms the process up and sets the reference hashes; it is
        left out of the timings."""
        return self.passes[1:]


def end_to_end(run: Run, setup_walls: list[float]) -> dict[str, float]:
    return {
        "setup_s": statistics.median(setup_walls),
        "pipeline_s": statistics.median(sum(p[s][0] for s in run.stages) for p in run.timed()),
        "train_rows_per_s": run.train_rows * EPOCHS / run.stage_median("train"),
        "eval_s": run.stage_median("eval"),
        "query_s": run.stage_median(run.workload.query),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "auc_t1": run.report["auc_t1"],
        "auc_t3": run.report["auc_t3"],
    }


def per_layer(run: Run, tracer: Tracer, names: list[str]) -> dict[str, float]:
    """Every named metric: a span or counter total per traced pass (median
    over those passes), or one of the derived values below."""
    traced = [i for i, p in enumerate(run.passes) if p["traced"]]
    by_pass = tracer.per_pass()

    def med(key: str) -> float:
        return statistics.median(by_pass[i].get(key, 0.0) for i in traced)

    def share(num: str, den: str) -> float:
        return statistics.median(
            by_pass[i].get(num, 0.0) / by_pass[i][den] if by_pass[i].get(den) else 0.0
            for i in traced
        )

    untraced_wall = statistics.median(p["wall"] for p in run.timed() if not p["traced"])
    traced_wall = statistics.median(p["wall"] for p in run.timed() if p["traced"])
    derived = {
        "trace.overhead_share": traced_wall / untraced_wall - 1.0,
        "tensor.adam_step_sparse.touched_share": share(
            "tensor.adam_step_sparse.rows_updated", "tensor.adam_step_sparse.table_rows"
        ),
        "models.task_scores.used_share": share(
            "models.task_scores.rows", "models.task_scores.computed"
        ),
        "metrics.topk_retrieve.distinct_share": share(
            "metrics.topk_retrieve.users", "metrics.topk_retrieve.calls"
        ),
    }
    for stage in ALL_STAGES:
        ran = stage in run.stages
        derived[f"cli.{stage}.cpu_s"] = run.stage_median(stage, True, 1) if ran else 0.0
    for key, values in (
        ("training.step_ms", tracer.samples["training.step_ms"]),
        ("metrics.topk_retrieve.call_ms", tracer.durations_ms("metrics.topk_retrieve")),
    ):
        p50, tail_value, tail_pct = tail(values)
        derived[f"{key}.p50"] = p50
        derived[f"{key}.tail"] = tail_value
        derived[f"{key}.tail_pct"] = tail_pct
        derived[f"{key}.samples"] = len(values)
    return {name: derived[name] if name in derived else med(name) for name in names}


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> int:
    spec = load_spec()
    cli = import_program()
    workload = WORKLOADS[name]
    os.makedirs(WORK, exist_ok=True)
    workdir = os.path.join(WORK, f"{name}-s{seed}-p{os.getpid()}")
    os.makedirs(workdir)
    try:
        setup_walls, ini, same_csv = setup(workload, seed, workdir)
        run = Run(cli, workload, seed, workdir, ini)
        if not same_csv:
            run.errors.append("the generator gave different CSV bytes for one seed")
        tracer = Tracer() if trace else None
        run.loop(seconds, tracer)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    correct = not run.errors
    for message in run.errors:
        print(f"perfbench: FAILED {name}: {message}", file=sys.stderr)
    if tracer is not None:
        tracer.write(os.path.join(WORK, f"spans-{name}-s{seed}.jsonl"))
        for target in sorted(set(tracer.missing)):
            print(f"perfbench: not traced: {target}", file=sys.stderr)

    section = "per_layer" if trace else "end_to_end"
    metrics: dict = {}
    if correct:
        if trace:
            values = per_layer(run, tracer, [entry["name"] for entry in spec[section]])
        else:
            values = end_to_end(run, setup_walls)
        for entry in spec[section]:
            metrics[entry["name"]] = {"value": float(values[entry["name"]]), "unit": entry["unit"]}
            print(f"{name} {entry['name']} = {values[entry['name']]:.6g} {entry['unit']}")
    print("env " + json.dumps(environment(), sort_keys=True))
    print("passes " + json.dumps(
        {"count": len(run.passes), "traced": sum(p["traced"] for p in run.passes),
         "stage_wall_cpu_s": [
             {s: [round(p[s][0], 4), round(p[s][1], 4)] for s in run.stages} for p in run.passes
         ]}
    ))
    print("sha256 " + json.dumps(run.hashes, sort_keys=True))
    print("quality " + json.dumps(run.report, sort_keys=True))
    print(json.dumps(
        {"correct": correct, "attempted": run.attempted, "failed": run.failed,
         "metrics": metrics}
    ))
    return 0 if correct else 1


def run_all(seed: int, seconds: float, trace: bool) -> int:
    """Every workload in its own process; a table of metrics with units."""
    status = 0
    rows = []
    for name in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--workload", name, "--seed", str(seed),
             "--seconds", str(seconds), "--trace", str(int(trace))],
            capture_output=True,
            text=True,
        )
        sys.stderr.write(proc.stderr)
        lines = proc.stdout.strip().splitlines()
        result = json.loads(lines[-1]) if lines and lines[-1].startswith("{") else None
        if proc.returncode != 0 or result is None or not result["correct"]:
            status = 1
            print(f"{name}: FAILED (exit {proc.returncode})")
            continue
        for metric, entry in result["metrics"].items():
            rows.append(f"{name:<14} {metric:<40} {entry['value']:>14.6g} {entry['unit']}")
    print("\n".join(rows))
    print("all workloads correct" if status == 0 else "some workload FAILED")
    return status


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.workload == "all":
        return run_all(args.seed, args.seconds, bool(args.trace))
    return run_workload(args.workload, args.seed, args.seconds, bool(args.trace))


if __name__ == "__main__":
    sys.exit(main())
