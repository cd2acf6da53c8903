"""The benchmark's workloads: the metafew CLI stages each one runs, and the
check that re-reads each stage's outputs through metafew's public loaders.

Every CLI seed is derived from the workload seed, so one seed fixes every
input. Paths are relative to the work directory, which keeps the config
text that artifacts embed, and so their digests, independent of where the
benchmark runs.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from metafew import data, evaluation, network, partition, tasks

# Workload shapes. `full` is what the benchmark measures; `smoke` is a tiny
# size for the benchmark's own tests.
SIZES = {
    "cactus-small": {
        # the acceptance ordering experiment's BENCH shape, fewer iterations
        "full": dict(classes=40, per_class=60, d_in=32, d_z=8, train_classes=30,
                     test_classes=10, P=10, k=30, maml_iters=200,
                     protonet_iters=300, eval_tasks=100),
        "smoke": dict(classes=14, per_class=30, d_in=8, d_z=4, train_classes=9,
                      test_classes=5, P=2, k=6, maml_iters=2, protonet_iters=2,
                      eval_tasks=6),
    },
    "partition-paper": {
        # 20k meta-train rows in 64 dimensions, k=500: the paper's scale
        "full": dict(classes=50, per_class=500, d_in=16, d_z=64, train_classes=40,
                     test_classes=10, P=2, k=500, hyperplane_P=50, margin=1.0,
                     tasks=500, eval_tasks=300),
        "smoke": dict(classes=12, per_class=40, d_in=4, d_z=8, train_classes=7,
                      test_classes=5, P=2, k=20, hyperplane_P=4, margin=0.3,
                      tasks=6, eval_tasks=6),
    },
    "eval-sweep": {
        "full": dict(classes=50, per_class=100, d_in=32, d_z=16, train_classes=10,
                     test_classes=40, k=40, shots=(1, 5, 20), tasks=20),
        "smoke": dict(classes=8, per_class=30, d_in=6, d_z=4, train_classes=2,
                      test_classes=6, k=6, shots=(1, 5, 20), tasks=3),
    },
}

# Lloyd iterations per k-means partition. The seeds measured needed 16 or
# more to converge, so the cap gives every seed the same k-means work.
KMEANS_MAX_ITER = 10

EVAL_SWEEP_LEARNERS = ("scratch", "knn", "linear", "mlp", "cluster-match")

DATA = "data.emb"


def derive_seed(seed: int, tag: str) -> int:
    """Nonnegative 31-bit CLI seed for one stage of a workload run."""
    digest = hashlib.sha256(f"{seed}/{tag}".encode()).digest()
    return int.from_bytes(digest[:4], "little") & 0x7FFFFFFF


@dataclass
class Stage:
    """One CLI invocation. `kind` groups stage times (partition, meta_train
    and evaluate each sum into an end-to-end metric); `check` re-reads the
    stage's outputs and returns their paths."""

    name: str
    kind: str
    argv: list[str]
    check: Callable[["Context", "Stage"], list[str]]
    expect: dict = field(default_factory=dict)


@dataclass
class Context:
    """What checks learn about one pass: the dataset and every report."""

    ds: data.DataSet | None = None
    reports: dict[str, evaluation.EvalReport] = field(default_factory=dict)


class CheckFailed(Exception):
    pass


def _require(cond: bool, message: str) -> None:
    if not cond:
        raise CheckFailed(message)


def _dataset(ctx: Context) -> data.DataSet:
    if ctx.ds is None:
        ctx.ds = data.load_dataset(DATA)
    return ctx.ds


# -- checks -------------------------------------------------------------------

def check_synth(ctx: Context, st: Stage) -> list[str]:
    ds = data.load_dataset(DATA)
    _require(ds.n == st.expect["n"], f"dataset has {ds.n} rows, want {st.expect['n']}")
    for split, want in st.expect["splits"].items():
        got = ds.split_indices(split).size
        _require(got == want, f"split {split} has {got} rows, want {want}")
    ctx.ds = ds
    return [DATA]


def check_partition(ctx: Context, st: Stage) -> list[str]:
    ds = _dataset(ctx)
    manifest = st.expect["prefix"] + "_manifest.txt"
    with open(manifest) as fh:
        files = [line.strip() for line in fh
                 if line.strip() and not line.startswith("#")]
    _require(len(files) == st.expect["P"],
             f"{manifest} lists {len(files)} partitions, want {st.expect['P']}")
    rows = ds.split_indices(st.expect["split"])
    for name in files:
        part = partition.load_partition(name, points=ds.embeddings)
        _require(part.n == ds.n, f"{name}: n={part.n}, dataset has {ds.n}")
        covered = part.assignment >= 0
        _require(not covered[np.setdiff1d(np.arange(ds.n), rows)].any(),
                 f"{name}: assigns rows outside split {st.expect['split']}")
        if "k" in st.expect:
            _require(part.num_clusters == st.expect["k"],
                     f"{name}: {part.num_clusters} clusters, want {st.expect['k']}")
        else:
            _require(part.num_clusters >= st.expect["min_clusters"],
                     f"{name}: {part.num_clusters} clusters, want at least "
                     f"{st.expect['min_clusters']}")
    return [manifest, *files]


def check_gen_tasks(ctx: Context, st: Stage) -> list[str]:
    ds = _dataset(ctx)
    out = st.expect["out"]
    got = tasks.read_task_manifest(out, ds)
    _require(len(got) == st.expect["tasks"],
             f"{out}: {len(got)} tasks, want {st.expect['tasks']}")
    for task in got:
        _require(task.k_shot == st.expect["k_shot"],
                 f"{out}: a task has k_shot={task.k_shot}")
        tasks.validate_task(task, ds)
    return [out]


def check_meta_train(ctx: Context, st: Stage) -> list[str]:
    out = st.expect["out"]
    params = network.load_checkpoint(out)
    _require(params.in_dim == st.expect["in_dim"],
             f"{out}: in_dim {params.in_dim}, want {st.expect['in_dim']}")
    return [out]


def check_evaluate(ctx: Context, st: Stage) -> list[str]:
    out = st.expect["out"]
    report, summary = evaluation.read_report_csv(out)
    _require(report.learner_id == st.expect["learner"],
             f"{out}: learner {report.learner_id!r}")
    _require(report.task_count == st.expect["tasks"],
             f"{out}: {report.task_count} tasks, want {st.expect['tasks']}")
    _require(summary.get("tasks") == str(report.task_count),
             f"{out}: stored task count {summary.get('tasks')}")
    for key, value in (("mean", report.mean), ("ci95", report.ci95)):
        _require(key in summary and float(summary[key]) == value,
                 f"{out}: stored {key} {summary.get(key)} != recomputed {value!r}")
    ctx.reports[st.name] = report
    return [out]


def check_compare(ctx: Context, st: Stage) -> list[str]:
    out = st.expect["out"]
    reports = [ctx.reports[name] for name in st.expect["reports"]]
    _require(len({r.fingerprint for r in reports}) == 1,
             f"{out}: reports span several fingerprints")
    with open(out) as fh:
        rows = [line.split(",")[0] for line in fh
                if line.strip() and not line.startswith(("#", "learner,"))]
    want = sorted(r.learner_id for r in reports)
    _require(sorted(rows) == want, f"{out}: rows {sorted(rows)}, want {want}")
    return [out]


# -- stage builders -------------------------------------------------------------

def _kv(**kw) -> list[str]:
    return [f"{k}={v}" for k, v in kw.items()]


def synth_stage(seed: int, s: dict) -> Stage:
    classes = s["classes"]
    argv = ["synth", *_kv(out=DATA, classes=classes, per_class=s["per_class"],
                          d_in=s["d_in"], d_z=s["d_z"], noise=1.1, emb_noise=0.25,
                          seed=derive_seed(seed, "synth"),
                          split_mode="by_class_counts",
                          train_classes=s["train_classes"],
                          test_classes=s["test_classes"])]
    splits = {"meta-train": s["train_classes"] * s["per_class"],
              "meta-test": s["test_classes"] * s["per_class"]}
    return Stage("synth", "setup", argv, check_synth,
                 dict(n=classes * s["per_class"], splits=splits))


def partition_stage(name: str, seed: int, prefix: str, method: str, P: int,
                    split: str = "meta-train", **kw) -> Stage:
    argv = ["partition", *_kv(data=DATA, out_prefix=prefix, method=method, P=P,
                              split=split, seed=derive_seed(seed, name), **kw)]
    expect = dict(prefix=prefix, P=P, split=split)
    if method == "kmeans":
        argv.append(f"max_iter={KMEANS_MAX_ITER}")
        expect["k"] = kw["k"]
    else:
        expect["min_clusters"] = kw.get("n_way", 5)
    return Stage(name, "partition", argv, check_partition, expect)


def gen_tasks_stage(name: str, seed: int, out: str, count: int, k_shot: int = 1,
                    **kw) -> Stage:
    argv = ["gen-tasks", *_kv(data=DATA, out=out, tasks=count, k_shot=k_shot,
                              seed=derive_seed(seed, name), **kw)]
    return Stage(name, "gen_tasks", argv, check_gen_tasks,
                 dict(out=out, tasks=count, k_shot=k_shot))


def meta_train_stage(name: str, seed: int, learner: str, iters: int,
                     partitions: str, in_dim: int) -> Stage:
    out = f"{learner}.ckpt"
    argv = ["meta-train", *_kv(data=DATA, out=out, learner=learner,
                               partitions=partitions, meta_iterations=iters,
                               outer_lr=0.0035, seed=derive_seed(seed, name))]
    if learner == "maml":
        argv += _kv(task_batch_size=8, inner_steps=5, first_order="false")
    return Stage(name, "meta_train", argv, check_meta_train,
                 dict(out=out, in_dim=in_dim))


def evaluate_stage(name: str, learner: str, out: str, count: int, **kw) -> Stage:
    argv = ["evaluate", *_kv(data=DATA, out=out, learner=learner, **kw)]
    return Stage(name, "evaluate", argv, check_evaluate,
                 dict(out=out, learner=learner, tasks=count))


def compare_stage(name: str, out: str, report_stages: list[Stage]) -> Stage:
    argv = ["compare", *[st.expect["out"] for st in report_stages], f"out={out}"]
    return Stage(name, "compare", argv, check_compare,
                 dict(out=out, reports=[st.name for st in report_stages]))


# -- workloads ---------------------------------------------------------------------

def one_shot_reports(seed: int, s: dict, learners: tuple[str, ...],
                     partition_file: str) -> list[Stage]:
    """5-way 1-shot evaluation of each learner on one meta-test task set."""
    stages = []
    for learner in learners:
        extra = {}
        if learner in ("maml", "protonet"):
            extra["checkpoint"] = f"{learner}.ckpt"
        if learner == "cluster-match":
            extra["partition"] = partition_file
        stages.append(evaluate_stage(
            f"evaluate.{learner}", learner, f"report_{learner}.csv",
            s["eval_tasks"], tasks=s["eval_tasks"], n_way=5, k_shot=1,
            seed=derive_seed(seed, "evaluate"), **extra))
    return stages


def cactus_small(seed: int, s: dict) -> list[Stage]:
    """Paper headline experiment: k-means pseudo-tasks, MAML and ProtoNets."""
    stages = [partition_stage("partition.kmeans", seed, "kmeans", "kmeans",
                              s["P"], k=s["k"])]
    for learner, iters in (("maml", s["maml_iters"]),
                           ("protonet", s["protonet_iters"])):
        stages.append(meta_train_stage(f"meta-train.{learner}", seed, learner,
                                       iters, "kmeans_manifest.txt", s["d_in"]))
    reports = one_shot_reports(seed, s, ("maml", "protonet", "knn", "cluster-match"),
                               "kmeans_000.part")
    return stages + reports + [compare_stage("compare", "compare.csv", reports)]


def partition_paper(seed: int, s: dict) -> list[Stage]:
    """Partition scale: k-means at k=500, hyperplanes with rejections, and
    the text I/O of 20k-line partition files."""
    stages = [
        partition_stage("partition.kmeans", seed, "kmeans", "kmeans", s["P"],
                        k=s["k"]),
        partition_stage("partition.hyperplane", seed, "hyper", "hyperplane",
                        s["hyperplane_P"], margin=s["margin"]),
        gen_tasks_stage("gen-tasks", seed, "tasks.txt", s["tasks"],
                        partitions="hyper_manifest.txt", input_repr="embedding"),
    ]
    reports = one_shot_reports(seed, s, ("knn", "cluster-match"), "kmeans_000.part")
    return stages + reports + [compare_stage("compare", "compare.csv", reports)]


def eval_sweep(seed: int, s: dict) -> list[Stage]:
    """Baselines over a shot sweep on stored task manifests."""
    stages = [partition_stage("partition.kmeans", seed, "test", "kmeans", 1,
                              split="meta-test", k=s["k"])]
    for shot in s["shots"]:
        stages.append(gen_tasks_stage(
            f"gen-tasks.k{shot}", seed, f"tasks_k{shot}.txt", s["tasks"],
            k_shot=shot, source="labels", split="meta-test"))
    for shot in s["shots"]:
        reports = []
        for learner in EVAL_SWEEP_LEARNERS:
            extra = {"partition": "test_000.part"} if learner == "cluster-match" else {}
            reports.append(evaluate_stage(
                f"evaluate.{learner}.k{shot}", learner,
                f"report_{learner}_k{shot}.csv", s["tasks"],
                tasks_manifest=f"tasks_k{shot}.txt",
                seed=derive_seed(seed, f"evaluate.k{shot}"), **extra))
        stages += reports
        stages.append(compare_stage(f"compare.k{shot}", f"compare_k{shot}.csv",
                                    reports))
    return stages


BUILDERS = {"cactus-small": cactus_small, "partition-paper": partition_paper,
            "eval-sweep": eval_sweep}


def build(workload: str, seed: int, size: str) -> tuple[Stage, list[Stage]]:
    """The set-up stage and the measured stages of one workload run."""
    s = SIZES[workload][size]
    return synth_stage(seed, s), BUILDERS[workload](seed, s)


def digests(paths: list[str]) -> dict[str, str]:
    """SHA-256 of each file."""
    out = {}
    for path in paths:
        with open(path, "rb") as fh:
            out[path] = hashlib.sha256(fh.read()).hexdigest()
    return out
