import hashlib
import io
import os
import re
import struct
import sys

import numpy as np
import pytest

from metafew.cli import main
from metafew.data import load_dataset, save_dataset
from metafew.errors import ConfigError
from metafew.evaluation import read_report_csv
from metafew.ioutil import default_workers, stable_rng
from metafew.metalearn import MetaConfig, initial_model, maml_predict, protonet_predict
from metafew.network import load_checkpoint, save_checkpoint
from metafew.partition import kmeans, load_partition
from metafew.tasks import (TaskStreamConfig, make_supervised_task_stream,
                           read_task_manifest)


def digest(path):
    return hashlib.sha256(path.read_bytes()).hexdigest()


def synth_args(out, **over):
    args = {"out": str(out), "classes": "6", "per_class": "12", "d_in": "4",
            "d_z": "3", "noise": "0.3", "seed": "5",
            "split_mode": "by_class_counts", "train_classes": "4",
            "val_classes": "0", "test_classes": "2"}
    args.update({k: str(v) for k, v in over.items()})
    return ["synth"] + [f"{k}={v}" for k, v in args.items()]


@pytest.fixture()
def dataset(tmp_path):
    path = tmp_path / "ds.emb1"
    assert main(synth_args(path)) == 0
    return path


def test_synth_is_deterministic_and_loads(tmp_path):
    a = tmp_path / "a.emb1"
    assert main(synth_args(a)) == 0
    first = digest(a)
    assert main(synth_args(a)) == 0
    assert digest(a) == first
    ds = load_dataset(a)
    assert ds.n == 72 and ds.d_in == 4 and ds.d_z == 3
    assert ds.split_indices("meta-test").size == 24

def test_synth_zero_noise_flag_honored(tmp_path):
    path = tmp_path / "zero.emb1"
    assert main(synth_args(path, noise="0.0", split_mode="none")) == 0
    ds = load_dataset(path)
    first_class = ds.raw[ds.labels == 0]
    assert np.all(first_class == first_class[0])

def test_synth_negative_emb_noise_other_than_minus_one_is_exit_2(tmp_path, capsys):
    path = tmp_path / "e.emb1"
    assert main(synth_args(path, noise="0.5", emb_noise="-0.5")) == 2
    assert capsys.readouterr().err.startswith("config error:")
    assert not path.exists()
    # -1, the default, draws the embedding noise at the raw noise
    assert main(synth_args(path, noise="0.5", emb_noise="-1")) == 0
    same = tmp_path / "same.emb1"
    assert main(synth_args(same, noise="0.5", emb_noise="0.5")) == 0
    assert np.array_equal(load_dataset(path).embeddings, load_dataset(same).embeddings)

@pytest.mark.parametrize("stats, dim", [("meta-train", 0), ("all", 2)])
def test_synth_whitening_is_identity_covariance_on_its_statistics_rows(tmp_path, stats,
                                                                       dim):
    path = tmp_path / "w.emb1"
    assert main(synth_args(path, whiten="true", whiten_dim=dim,
                           whiten_stats=stats)) == 0
    ds = load_dataset(path)
    width = dim or 3  # whiten_dim=0 keeps d_z
    assert ds.d_z == width
    train = ds.split_indices("meta-train")
    rows, other = ((np.arange(ds.n), train) if stats == "all"
                   else (train, np.arange(ds.n)))
    z = ds.embeddings[rows]
    assert np.allclose(z.mean(axis=0), 0.0, atol=1e-12)
    assert np.allclose(np.cov(z, rowvar=False), np.eye(width), atol=1e-12)
    # the statistics came from these rows, not from the others
    assert not np.allclose(np.cov(ds.embeddings[other], rowvar=False), np.eye(width),
                           atol=1e-3)

def test_unknown_config_key_is_exit_2(tmp_path, dataset, capsys):
    assert main(["synth", "bogus_key=1"]) == 2
    # partition and evaluate take their worker count from METAFEW_WORKERS;
    # a workers key is unknown
    assert main(["partition", "data=x", "out_prefix=x", "method=kmeans",
                 "k=3", "workers=2"]) == 2
    capsys.readouterr()
    assert main(eval_args(dataset, tmp_path / "knn.csv", "knn", workers=2)) == 2
    assert "unknown config key 'workers'" in capsys.readouterr().err

def test_config_file_with_overrides(tmp_path):
    cfg = tmp_path / "synth.cfg"
    cfg.write_text("out=ignored.emb1\nclasses=6\nper_class=12\nd_in=4\nd_z=3\n"
                   "noise=0.3\nseed=5\n")
    out = tmp_path / "c.emb1"
    assert main(["synth", str(cfg), f"out={out}"]) == 0
    assert out.exists()

def test_missing_dataset_is_exit_3(tmp_path):
    assert main(["partition", "data=/nope.emb1", "out_prefix=x",
                 "method=kmeans", "k=3"]) == 3


def test_partition_writes_files_and_reruns_identically(tmp_path, dataset):
    prefix = tmp_path / "parts"
    args = ["partition", f"data={dataset}", f"out_prefix={prefix}",
            "method=kmeans", "P=3", "k=4", "seed=9"]
    assert main(args) == 0
    files = sorted(tmp_path.glob("parts_0*.part"))
    assert len(files) == 3
    manifest = tmp_path / "parts_manifest.txt"
    assert manifest.exists()
    before = [digest(f) for f in files] + [digest(manifest)]
    assert main(args) == 0
    after = [digest(f) for f in sorted(tmp_path.glob("parts_0*.part"))] + [digest(manifest)]
    assert before == after

def test_pixel_partitions_differ_and_each_reproduces(tmp_path, dataset):
    # partition i is k-means on the split's raw inputs seeded with
    # stable_rng(seed, i); the other splits' rows are discarded
    assert main(["partition", f"data={dataset}", f"out_prefix={tmp_path / 'px'}",
                 "method=pixel", "P=2", "k=6", "seed=9"]) == 0
    parts = [load_partition(tmp_path / f"px_00{i}.part") for i in range(2)]
    assert not np.array_equal(parts[0].assignment, parts[1].assignment)
    ds = load_dataset(dataset)
    rows = ds.split_indices("meta-train")
    for i, part in enumerate(parts):
        assert part.seed == 9 and part.source_space == "raw"
        again = kmeans(ds.raw[rows], 6, seed=stable_rng(9, i))
        assert np.array_equal(part.assignment[rows], again.assignment)
        assert (np.delete(part.assignment, rows) == -1).all()

def test_partition_random_ignores_embeddings(tmp_path):
    raw_only = tmp_path / "raw.csv"
    rows = "\n".join(f"{i}.0,{i + 1}.0" for i in range(30))
    raw_only.write_text("raw_0,raw_1\n" + rows + "\n")
    prefix = tmp_path / "rp"
    assert main(["partition", f"data={raw_only}", f"out_prefix={prefix}",
                 "method=random", "k=3", "seed=1"]) == 0
    assert (tmp_path / "rp_000.part").exists()

PARTITION_METHODS = {"kmeans": ["k=3"], "pixel": ["k=3"], "random": ["k=3"],
                     "hyperplane": ["n_way=2", "r_min=1"]}

@pytest.mark.parametrize("method", sorted(PARTITION_METHODS))
def test_partition_of_a_split_without_rows_is_exit_3(tmp_path, dataset, method,
                                                      capsys):
    # the dataset has no meta-val rows; hyperplane once raised a ValueError
    # and random wrote a partition that discards every row
    capsys.readouterr()
    assert main(["partition", f"data={dataset}", f"out_prefix={tmp_path / 'e'}",
                 f"method={method}", "split=meta-val",
                 *PARTITION_METHODS[method]]) == 3
    err = capsys.readouterr().err
    assert err.startswith("data error:") and "split 'meta-val' has no rows" in err
    assert "Traceback" not in err
    assert not list(tmp_path.glob("e_*"))

@pytest.mark.parametrize("method, P", [("hyperplane", 0), ("kmeans", -1),
                                       ("pixel", 0), ("random", -1)])
def test_partition_count_below_one_is_exit_2(tmp_path, dataset, method, P, capsys):
    # it once wrote an empty manifest that gen-tasks then rejected
    capsys.readouterr()
    assert main(["partition", f"data={dataset}", f"out_prefix={tmp_path / 'e'}",
                 f"method={method}", f"P={P}", *PARTITION_METHODS[method]]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error:") and f"P must be >= 1, got {P}" in err
    assert not list(tmp_path.glob("e_*"))

def partition_args(tmp_path, dataset, method, *extra):
    return ["partition", f"data={dataset}", f"out_prefix={tmp_path / 'e'}",
            f"method={method}", *PARTITION_METHODS[method], *extra]

# one value outside its domain per run, as argv(tmp_path, dataset, partition
# prefix), and the words of the message; each once ended in a traceback
OUT_OF_DOMAIN = {
    "synth_seed": (lambda t, d, p: synth_args(t / "s.emb1", seed=-1),
                   "seed -1 is negative"),
    "partition_seed": (lambda t, d, p: partition_args(t, d, "random", "seed=-1"),
                       "seed -1 is negative"),
    "gen_tasks_seed": (lambda t, d, p: [
        "gen-tasks", f"data={d}", f"partitions={p}_manifest.txt", f"out={t / 't.txt'}",
        "tasks=2", "n_way=3", "k_shot=1", "q_queries=2", "seed=-1"], "seed -1 is negative"),
    "meta_train_seed": (lambda t, d, p: meta_train_args(d, p, t / "m.ckpt", seed=-1),
                        "seed -1 is negative"),
    "evaluate_seed": (lambda t, d, p: eval_args(d, t / "r.csv", "knn", seed=-1),
                      "seed -1 is negative"),
    "center_scale": (lambda t, d, p: synth_args(t / "s.emb1", center_scale=-1),
                     "center_scale must be nonnegative, got -1.0"),
    "kmeans_max_iter": (lambda t, d, p: partition_args(t, d, "kmeans", "max_iter=0"),
                        "max_iter must be >= 1, got 0"),
    "pixel_max_iter": (lambda t, d, p: partition_args(t, d, "pixel", "max_iter=0"),
                       "max_iter must be >= 1, got 0"),
    "hyperplane_n_way": (lambda t, d, p: partition_args(t, d, "hyperplane", "n_way=0"),
                         "n_way must be >= 1, got 0"),
    "whiten_dim": (lambda t, d, p: synth_args(t / "s.emb1", whiten="true", whiten_dim=-2),
                   "d_out -2 outside 1..3"),
}

@pytest.mark.parametrize("case", sorted(OUT_OF_DOMAIN))
def test_config_value_outside_its_domain_is_exit_2(tmp_path, dataset, partitions, case,
                                                   capsys):
    argv, message = OUT_OF_DOMAIN[case]
    capsys.readouterr()
    assert main(argv(tmp_path, dataset, partitions)) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error:") and message in err
    assert "Traceback" not in err

def test_gen_tasks_manifest(tmp_path, dataset):
    prefix = tmp_path / "parts"
    assert main(["partition", f"data={dataset}", f"out_prefix={prefix}",
                 "method=kmeans", "P=2", "k=4", "seed=9"]) == 0
    out = tmp_path / "tasks.txt"
    args = ["gen-tasks", f"data={dataset}", f"partitions={prefix}_manifest.txt",
            f"out={out}", "tasks=8", "n_way=3", "k_shot=1", "q_queries=2",
            "seed=11"]
    assert main(args) == 0
    tasks = read_task_manifest(out, load_dataset(dataset))
    assert len(tasks) == 8
    h = digest(out)
    assert main(args) == 0
    assert digest(out) == h


def meta_train_args(dataset, prefix, ckpt, log=None, **over):
    args = {"data": str(dataset), "partitions": f"{prefix}_manifest.txt",
            "out": str(ckpt), "learner": "maml", "meta_iterations": "4",
            "task_batch_size": "2", "n_way": "3", "k_shot": "1",
            "inner_steps": "2", "seed": "13"}
    if log:
        args["log"] = str(log)
    args.update({k: str(v) for k, v in over.items()})
    return ["meta-train"] + [f"{k}={v}" for k, v in args.items()]


@pytest.fixture()
def partitions(tmp_path, dataset):
    prefix = tmp_path / "parts"
    assert main(["partition", f"data={dataset}", f"out_prefix={prefix}",
                 "method=kmeans", "P=2", "k=4", "seed=9"]) == 0
    return prefix


def test_meta_train_zero_iterations_writes_init(tmp_path, dataset, partitions):
    ckpt = tmp_path / "model.ckpt"
    assert main(meta_train_args(dataset, partitions, ckpt,
                                meta_iterations=0)) == 0
    params = load_checkpoint(ckpt)
    cfg = MetaConfig(learner="maml", n_way=3, seed=13, meta_iterations=0)
    expect = initial_model(cfg, 4)
    assert np.array_equal(params.vector, expect.vector)

def test_meta_train_deterministic_and_resumable(tmp_path, dataset, partitions):
    ckpt = tmp_path / "model.ckpt"
    log = tmp_path / "log.csv"
    args = meta_train_args(dataset, partitions, ckpt, log=log)
    assert main(args) == 0
    first = digest(ckpt)
    first_log = digest(log)
    assert main(args) == 0
    assert digest(ckpt) == first and digest(log) == first_log
    # resume=true with an existing checkpoint is a no-op
    assert main(args + ["resume=true"]) == 0
    assert digest(ckpt) == first

def test_meta_train_protonet(tmp_path, dataset, partitions):
    ckpt = tmp_path / "proto.ckpt"
    assert main(meta_train_args(dataset, partitions, ckpt, learner="protonet",
                                task_batch_size=1, q_queries=4)) == 0
    params = load_checkpoint(ckpt)
    assert params.layers[-1].activation == "relu"


def eval_args(dataset, out, learner, **over):
    args = {"data": str(dataset), "out": str(out), "learner": learner,
            "tasks": "12", "n_way": "2", "k_shot": "1", "q_queries": "5",
            "seed": "17", "adapt_steps": "5"}
    args.update({k: str(v) for k, v in over.items()})
    return ["evaluate"] + [f"{k}={v}" for k, v in args.items()]


def test_evaluate_scratch_needs_no_checkpoint(tmp_path, dataset):
    out = tmp_path / "scratch.csv"
    assert main(eval_args(dataset, out, "scratch")) == 0
    report, summary = read_report_csv(out)
    assert report.task_count == 12
    assert float(summary["mean"]) == report.mean
    assert float(summary["ci95"]) == report.ci95

def test_evaluate_same_seed_identical_csv(tmp_path, dataset):
    a = tmp_path / "a.csv"
    assert main(eval_args(dataset, a, "knn")) == 0
    first = digest(a)
    assert main(eval_args(dataset, a, "knn")) == 0
    assert digest(a) == first
    # a second output path differs only in the echoed out= line
    b = tmp_path / "b.csv"
    assert main(eval_args(dataset, b, "knn")) == 0
    rows_a = [l for l in a.read_text().splitlines() if not l.startswith("#")]
    rows_b = [l for l in b.read_text().splitlines() if not l.startswith("#")]
    assert rows_a == rows_b

PARTITION_METHODS = {"kmeans": ["k=4"], "pixel": ["k=4"], "random": ["k=4"],
                     "hyperplane": ["n_way=2", "r_min=4"]}


def partition_run(tmp_path, dataset, name, *args):
    """(exit code, bytes of every file the run wrote, by name), written to
    a new directory under one relative prefix, so the echoes are equal."""
    out = tmp_path / name
    out.mkdir()
    os.chdir(out)
    rc = main(["partition", f"data={dataset}", "out_prefix=p", *args])
    return rc, {path.name: path.read_bytes() for path in sorted(out.iterdir())}


@pytest.mark.parametrize("method", sorted(PARTITION_METHODS))
def test_partition_bytes_independent_of_metafew_workers(tmp_path, dataset, method,
                                                        monkeypatch):
    # four usable CPUs whatever the host has: P=3 is above two workers and
    # below four
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2, 3},
                        raising=False)
    monkeypatch.chdir(tmp_path)  # restored after partition_run's chdir
    runs = []
    for workers in ("1", "2", "4"):
        monkeypatch.setenv("METAFEW_WORKERS", workers)
        runs.append(partition_run(tmp_path, dataset, f"w{workers}", f"method={method}",
                                  "P=3", "seed=9", *PARTITION_METHODS[method]))
    assert runs[0][0] == 0 and len(runs[0][1]) == 4
    assert runs[1] == runs[0] and runs[2] == runs[0]


def test_partition_failure_in_a_forked_part_is_the_serial_error(tmp_path, dataset,
                                                                monkeypatch, capsys):
    # partition 0 is feasible and a later one is not, so with two workers the
    # failure happens in the child
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    monkeypatch.chdir(tmp_path)  # restored after partition_run's chdir
    args = ["method=hyperplane", "seed=4", "n_way=4", "r_min=6", "retry_cap=0"]
    monkeypatch.setenv("METAFEW_WORKERS", "1")
    assert partition_run(tmp_path, dataset, "first", *args, "P=1")[0] == 0
    runs = []
    for workers in ("1", "2"):
        monkeypatch.setenv("METAFEW_WORKERS", workers)
        capsys.readouterr()
        rc, files = partition_run(tmp_path, dataset, f"w{workers}", *args, "P=3")
        runs.append((rc, capsys.readouterr(), files))
    assert runs[1] == runs[0]
    rc, captured, files = runs[0]
    assert rc == 2 and files == {} and captured.out == ""
    assert captured.err.startswith("config error: hyperplane partition infeasible")


@pytest.mark.parametrize("learner", ["maml", "scratch", "linear", "mlp"])
def test_evaluate_bytes_independent_of_metafew_workers(tmp_path, dataset, partitions,
                                                       learner, capfd, monkeypatch):
    # two usable CPUs whatever the host has, so METAFEW_WORKERS=2 forks; a
    # block-buffered stdout holding unflushed text shows whether a child
    # flushed the parent's stdio or returned into the caller
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    extra = {}
    if learner == "maml":
        extra["checkpoint"] = tmp_path / "model.ckpt"
        assert main(meta_train_args(dataset, partitions, extra["checkpoint"])) == 0
    out = tmp_path / "report.csv"
    runs = []
    for workers in ("1", "2"):
        monkeypatch.setenv("METAFEW_WORKERS", workers)
        capfd.readouterr()
        with (io.TextIOWrapper(open(os.dup(1), "wb")) as stdout,
              monkeypatch.context() as patch):
            patch.setattr(sys, "stdout", stdout)
            stdout.write("pending\n")
            assert main(eval_args(dataset, out, learner, tasks=13, seed=3,
                                  **extra)) == 0
        runs.append((out.read_bytes(), capfd.readouterr()))
    assert runs[1] == runs[0]
    assert runs[0][1].out.startswith("pending\n") and runs[0][1].out.count("\n") == 2
    assert runs[0][1].err == ""


def test_evaluate_meta_learner_and_cluster_match(tmp_path, dataset, partitions):
    ckpt = tmp_path / "model.ckpt"
    assert main(meta_train_args(dataset, partitions, ckpt)) == 0
    out = tmp_path / "maml.csv"
    assert main(eval_args(dataset, out, "maml", checkpoint=ckpt, n_way="2")) == 0
    cm = tmp_path / "cm.csv"
    assert main(eval_args(dataset, cm, "cluster-match",
                          partition=f"{partitions}_000.part")) == 0
    ra, _ = read_report_csv(out)
    rb, _ = read_report_csv(cm)
    assert ra.fingerprint == rb.fingerprint
    proto_ckpt = tmp_path / "proto.ckpt"
    assert main(meta_train_args(dataset, partitions, proto_ckpt,
                                learner="protonet", task_batch_size=1,
                                q_queries=4)) == 0
    pr = tmp_path / "proto.csv"
    assert main(eval_args(dataset, pr, "protonet", checkpoint=proto_ckpt)) == 0
    rc, _ = read_report_csv(pr)
    assert rc.fingerprint == ra.fingerprint

# each edit rewrites the n body lines of a saved partition, line i holding
# point i's cluster id; the old_form edits give the `index,cluster` form
BAD_PARTITION_LINES = {
    "line_missing": lambda body, n: body[1:],
    "line_repeated": lambda body, n: body[:1] + body,
    "non_integer": lambda body, n: ["x"] + body[1:],
    "cluster_past_end": lambda body, n: [str(n)] + body[1:],
    "cluster_below_minus_one": lambda body, n: ["-2"] + body[1:],
    "cluster_id_skipped": lambda body, n: [str(n - 1)] + body[1:],
    "old_form_line": lambda body, n: [f"0,{body[0]}"] + body[1:],
    "old_form_file": lambda body, n: [f"{i},{c}" for i, c in enumerate(body)],
}

@pytest.mark.parametrize("case", sorted(BAD_PARTITION_LINES))
def test_evaluate_malformed_partition_is_exit_3(tmp_path, dataset, partitions,
                                                case, capsys):
    path = tmp_path / "bad.part"
    lines = (tmp_path / f"{partitions.name}_000.part").read_text().splitlines()
    first = next(i for i, l in enumerate(lines) if not l.startswith("#"))
    body = lines[first:]
    lines[first:] = BAD_PARTITION_LINES[case](body, len(body))
    path.write_text("\n".join(lines) + "\n")
    capsys.readouterr()
    assert main(eval_args(dataset, tmp_path / "cm.csv", "cluster-match",
                          partition=path)) == 3
    err = capsys.readouterr().err
    assert err.startswith(f"data error: {path}: ") and "Traceback" not in err

def assert_data_error(capsys, argv):
    capsys.readouterr()
    assert main(argv) == 3
    err = capsys.readouterr().err
    assert err.startswith("data error:") and "Traceback" not in err
    return err

@pytest.mark.parametrize("per_class", [8, 20])
def test_evaluate_partition_of_other_dataset_size_is_exit_3(tmp_path, partitions,
                                                            per_class, capsys):
    # the partition covers 72 rows; these datasets have 48 and 120
    other = tmp_path / "other.emb1"
    assert main(synth_args(other, per_class=per_class)) == 0
    assert_data_error(capsys, eval_args(other, tmp_path / "cm.csv", "cluster-match",
                                        partition=f"{partitions}_000.part"))

@pytest.mark.parametrize("per_class", [8, 20])
def test_meta_train_on_partitions_of_other_dataset_size_is_exit_3(tmp_path, partitions,
                                                                  per_class, capsys):
    other = tmp_path / "other.emb1"
    assert main(synth_args(other, per_class=per_class)) == 0
    assert_data_error(capsys, meta_train_args(other, partitions, tmp_path / "m.ckpt"))

# each value replaces (or adds) one header line of a saved partition
BAD_PARTITION_HEADERS = {
    "n": "abc", "k": "x", "seed": "1.5", "margin": "x", "scaling": "1,x,1",
    "hyperplane": "1,0,x;0,0,0",
}

@pytest.mark.parametrize("key", sorted(BAD_PARTITION_HEADERS) + ["hyperplane_shape"])
def test_evaluate_malformed_partition_header_is_exit_3(tmp_path, dataset, partitions,
                                                       key, capsys):
    value = BAD_PARTITION_HEADERS.get(key, "1,0;0,0,0")
    key = key.removesuffix("_shape")
    lines = (tmp_path / f"{partitions.name}_000.part").read_text().splitlines()
    lines = [l for l in lines if not l.startswith(f"# {key}=")]
    lines.insert(1, f"# {key}={value}")
    path = tmp_path / "bad.part"
    path.write_text("\n".join(lines) + "\n")
    assert_data_error(capsys, eval_args(dataset, tmp_path / "cm.csv", "cluster-match",
                                        partition=path))

@pytest.mark.parametrize("entry", ["nan", "-1.0", "inf", "0.0"])
def test_cluster_match_on_partition_with_bad_scaling_is_exit_3(tmp_path, dataset,
                                                               partitions, entry,
                                                               capsys):
    # k-means rejects such a scaling; cluster matching on one would still
    # write a plausible report
    path = tmp_path / f"{partitions.name}_000.part"
    path.write_text(re.sub(r"# scaling=[^,]*", f"# scaling={entry}", path.read_text()))
    err = assert_data_error(capsys, eval_args(dataset, tmp_path / "cm.csv",
                                              "cluster-match", partition=path))
    assert f"{path}: scaling entry {entry} is not finite and > 0" in err

def test_evaluate_missing_checkpoint_is_exit_2(tmp_path, dataset):
    out = tmp_path / "x.csv"
    assert main(eval_args(dataset, out, "maml")) == 2

def test_compare_pipeline(tmp_path, dataset):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    assert main(eval_args(dataset, a, "knn")) == 0
    assert main(eval_args(dataset, b, "linear")) == 0
    table = tmp_path / "table.csv"
    assert main(["compare", str(a), str(b), f"out={table}"]) == 0
    text = table.read_text()
    assert "knn" in text and "linear" in text
    # single input echoes itself
    assert main(["compare", str(a)]) == 0

def test_compare_mismatched_fingerprints_rejected(tmp_path, dataset):
    a = tmp_path / "a.csv"
    assert main(eval_args(dataset, a, "knn")) == 0
    other = tmp_path / "ds2.emb1"
    assert main(synth_args(other, seed=99)) == 0
    b = tmp_path / "b.csv"
    assert main(eval_args(other, b, "knn")) == 0
    assert main(["compare", str(a), str(b)]) == 2

def test_evaluate_from_task_manifest(tmp_path, dataset, partitions):
    manifest = tmp_path / "tasks.txt"
    assert main(["gen-tasks", f"data={dataset}",
                 f"partitions={partitions}_manifest.txt", f"out={manifest}",
                 "tasks=6", "n_way=3", "k_shot=1", "q_queries=2",
                 "seed=19"]) == 0
    out = tmp_path / "knn.csv"
    # the partitions cluster meta-train rows, so the tasks are meta-train tasks
    assert main(eval_args(dataset, out, "knn", tasks_manifest=manifest,
                          split="meta-train")) == 0
    report, _ = read_report_csv(out)
    assert report.task_count == 6

def test_report_from_a_task_manifest_echoes_the_tasks_that_ran(tmp_path, dataset,
                                                               partitions):
    def manifest(name, **shape):
        path = tmp_path / name
        assert main(["gen-tasks", f"data={dataset}",
                     f"partitions={partitions}_manifest.txt", f"out={path}",
                     "seed=19", *(f"{k}={v}" for k, v in shape.items())]) == 0
        return path

    def echoed(path):
        out = tmp_path / "knn.csv"
        # eval_args sets tasks=12 n_way=2 k_shot=1 q_queries=5, none of which ran
        assert main(eval_args(dataset, out, "knn", tasks_manifest=path,
                              split="meta-train")) == 0
        header = dict(line[2:].split("=", 1) for line in out.read_text().splitlines()
                      if line.startswith("# ") and "=" in line)
        return {key: header[key] for key in ("tasks", "n_way", "k_shot", "q_queries")}

    three = manifest("three.txt", tasks=6, n_way=3, k_shot=2, q_queries=2)
    assert echoed(three) == {"tasks": "6", "n_way": "3", "k_shot": "2",
                             "q_queries": "2"}
    # a manifest of two shapes leaves the shapes it does not share empty
    two = manifest("two.txt", tasks=4, n_way=2, k_shot=2, q_queries=1)
    mixed = tmp_path / "mixed.txt"
    mixed.write_text(three.read_text() + "".join(
        line + "\n" for line in two.read_text().splitlines()
        if not line.startswith("#")))
    assert echoed(mixed) == {"tasks": "10", "n_way": "", "k_shot": "2",
                             "q_queries": ""}

def test_evaluate_manifest_of_another_split_is_exit_3(tmp_path, dataset, partitions,
                                                      capsys):
    manifest = tmp_path / "tasks.txt"
    assert main(["gen-tasks", f"data={dataset}",
                 f"partitions={partitions}_manifest.txt", f"out={manifest}",
                 "tasks=3", "n_way=3", "k_shot=1", "q_queries=2", "seed=19"]) == 0
    capsys.readouterr()
    assert main(eval_args(dataset, tmp_path / "knn.csv", "knn",
                          tasks_manifest=manifest)) == 3
    err = capsys.readouterr().err
    assert err.startswith("data error:") and "Traceback" not in err
    assert str(manifest) in err and "'meta-train'" in err and "'meta-test'" in err
    assert main(eval_args(dataset, tmp_path / "knn.csv", "knn",
                          tasks_manifest=manifest, split="test")) == 2
    # a task line whose split field is empty names the missing field
    lines = manifest.read_text().splitlines()
    first = next(i for i, l in enumerate(lines) if not l.startswith("#"))
    fields = lines[first].split(";")
    fields[5] = ""
    lines[first] = ";".join(fields)
    manifest.write_text("\n".join(lines) + "\n")
    capsys.readouterr()
    assert main(eval_args(dataset, tmp_path / "knn.csv", "knn",
                          tasks_manifest=manifest, split="meta-train")) == 3
    err = capsys.readouterr().err
    assert err.startswith("data error:") and "Traceback" not in err
    assert str(manifest) in err and "empty split field" in err

@pytest.mark.parametrize("where", ["length", "text"])
def test_dataset_cut_inside_its_config_trailer_is_exit_3(tmp_path, dataset, where,
                                                         capsys):
    blob = dataset.read_bytes()
    trailer = blob.rindex(b"CFG1")
    cut = {"length": trailer + 6, "text": len(blob) - 3}[where]
    short = tmp_path / "short.emb1"
    short.write_bytes(blob[:cut])
    capsys.readouterr()
    assert main(eval_args(short, tmp_path / "knn.csv", "knn")) == 3
    err = capsys.readouterr().err
    assert err.startswith("data error:") and str(short) in err
    assert "trailer" in err and "Traceback" not in err

# each edit rewrites one field of the first task line of a manifest over the
# 72-row dataset: (field index, new value from the field and the line's fields)
BAD_MANIFEST_FIELDS = {
    "negative_train_index": (10, lambda v, f: "-1," + v.split(",", 1)[1]),
    "query_index_past_end": (11, lambda v, f: "72," + v.split(",", 1)[1]),
    "non_numeric_index": (10, lambda v, f: "x," + v.split(",", 1)[1]),
    "non_numeric_k": (2, lambda v, f: "one"),
    "perm_not_a_permutation": (9, lambda v, f: ",".join(["0"] * len(v.split(",")))),
    "missing_field": (None, None),
    # a query row that is also a train row leaks the answer
    "query_repeats_train_row": (11, lambda v, f: f[10].split(",")[0] + ","
                                + v.split(",", 1)[1]),
    "split_rewritten": (5, lambda v, f: "meta-test"),
    "input_repr_rewritten": (4, lambda v, f: "embedding"),
}
# words of the reader's (or evaluate's) message for each edit
BAD_MANIFEST_MESSAGES = {
    "negative_train_index": "train index -1 outside",
    "query_index_past_end": "query index 72 outside",
    "non_numeric_index": "bad train indices 'x,",
    "non_numeric_k": "bad k 'one'",
    "perm_not_a_permutation": "label_perm '0,0,0' is not a permutation",
    "missing_field": "11 fields, expected 12",
    "query_repeats_train_row": "duplicate datapoint index within task",
    "split_rewritten": "task points leave the declared split 'meta-test'",
    "input_repr_rewritten": "task has input_repr 'embedding', but evaluate runs on "
                            "input_repr 'raw'",
}

@pytest.mark.parametrize("case", sorted(BAD_MANIFEST_FIELDS))
def test_evaluate_malformed_task_manifest_is_exit_3(tmp_path, dataset, partitions,
                                                    case, capsys):
    manifest = tmp_path / "tasks.txt"
    assert main(["gen-tasks", f"data={dataset}",
                 f"partitions={partitions}_manifest.txt", f"out={manifest}",
                 "tasks=3", "n_way=3", "k_shot=1", "q_queries=2",
                 "seed=19"]) == 0
    lines = manifest.read_text().splitlines()
    first = next(i for i, l in enumerate(lines) if not l.startswith("#"))
    fields = lines[first].split(";")
    index, edit = BAD_MANIFEST_FIELDS[case]
    if index is None:
        fields.pop()
    else:
        fields[index] = edit(fields[index], fields)
    lines[first] = ";".join(fields)
    manifest.write_text("\n".join(lines) + "\n")
    # the tasks are meta-train tasks, so only the edit can be rejected
    err = assert_data_error(capsys, eval_args(dataset, tmp_path / "knn.csv", "knn",
                                              tasks_manifest=manifest,
                                              split="meta-train"))
    assert f"{manifest}:{first + 1}: {BAD_MANIFEST_MESSAGES[case]}" in err

def test_meta_train_on_embeddings_and_oracle_source(tmp_path, dataset, partitions):
    # meta-learn directly on embeddings: model width follows d_z
    ckpt = tmp_path / "emb.ckpt"
    assert main(meta_train_args(dataset, partitions, ckpt, meta_iterations=2,
                                input_repr="embedding")) == 0
    assert load_checkpoint(ckpt).in_dim == 3
    out = tmp_path / "emb_eval.csv"
    assert main(eval_args(dataset, out, "maml", checkpoint=ckpt,
                          input_repr="embedding")) == 0
    # oracle training consumes labels instead of partitions
    oracle = tmp_path / "oracle.ckpt"
    assert main(meta_train_args(dataset, partitions, oracle, meta_iterations=2,
                                source="labels", split="meta-train")) == 0
    assert load_checkpoint(oracle).in_dim == 4


def test_gen_tasks_attribute_source(tmp_path):
    rng = np.random.default_rng(31)
    import metafew
    ds = metafew.DataSet(raw=rng.standard_normal((300, 3)),
                         attributes=rng.integers(0, 2, (300, 8)).astype(bool))
    path = tmp_path / "attr.emb1"
    metafew.save_dataset(ds, path)
    out = tmp_path / "attr_tasks.txt"
    assert main(["gen-tasks", f"data={path}", f"out={out}", "source=attributes",
                 "tasks=5", "n_way=2", "k_shot=5", "q_queries=5", "seed=23"]) == 0
    tasks = read_task_manifest(out, ds)
    assert len(tasks) == 5
    assert all(t.n_way == 2 for t in tasks)

# attr_pool values over a dataset of 6 attributes, and the words of the message
BAD_ATTR_POOLS = {
    "not_integers": ("a,b,c", "bad attr_pool 'a,b,c'"),
    "index_past_end": ("0,1,9", "attribute index 9 outside 0..5"),
    "negative_index": ("0,1,-1", "attribute index -1 outside 0..5"),
}

@pytest.mark.parametrize("case", sorted(BAD_ATTR_POOLS))
def test_gen_tasks_bad_attribute_pool_is_exit_2(tmp_path, case, capsys):
    import metafew
    rng = np.random.default_rng(32)
    path = tmp_path / "attr.emb1"
    metafew.save_dataset(metafew.DataSet(
        raw=rng.standard_normal((200, 3)),
        attributes=rng.integers(0, 2, (200, 6)).astype(bool)), path)
    pool, message = BAD_ATTR_POOLS[case]
    capsys.readouterr()
    assert main(["gen-tasks", f"data={path}", f"out={tmp_path / 't.txt'}",
                 "source=attributes", "tasks=2", "n_way=2", f"attr_pool={pool}"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error:") and message in err
    assert "Traceback" not in err and not (tmp_path / "t.txt").exists()

@pytest.mark.parametrize("pool", ["", "0,1,2"])
def test_gen_tasks_attributes_of_a_dataset_without_them_is_exit_3(tmp_path, dataset,
                                                                  pool, capsys):
    err = assert_data_error(capsys, [
        "gen-tasks", f"data={dataset}", f"out={tmp_path / 't.txt'}",
        "source=attributes", "tasks=2", "n_way=2", f"attr_pool={pool}"])
    assert "attribute tasks require attributes" in err

def test_usage_and_help():
    assert main([]) == 0
    assert main(["synth", "--help"]) == 0
    assert main(["frobnicate"]) == 2

# header edits whose widths disagree with the d_z=3 embeddings
WIDTH_MISMATCHED_HEADERS = {"scaling": "1,1", "hyperplane": "1,0;0,0"}

@pytest.mark.parametrize("key", sorted(WIDTH_MISMATCHED_HEADERS))
def test_evaluate_partition_of_other_width_is_exit_3(tmp_path, dataset, partitions,
                                                     key, capsys):
    lines = (tmp_path / f"{partitions.name}_000.part").read_text().splitlines()
    lines = [l for l in lines if not l.startswith(f"# {key}=")]
    lines.insert(1, f"# {key}={WIDTH_MISMATCHED_HEADERS[key]}")
    path = tmp_path / "bad.part"
    path.write_text("\n".join(lines) + "\n")
    assert_data_error(capsys, eval_args(dataset, tmp_path / "cm.csv", "cluster-match",
                                        partition=path))

def test_evaluate_manifest_with_unknown_input_repr_is_exit_3(tmp_path, dataset,
                                                             partitions, capsys):
    manifest = tmp_path / "tasks.txt"
    assert main(["gen-tasks", f"data={dataset}",
                 f"partitions={partitions}_manifest.txt", f"out={manifest}",
                 "tasks=3", "n_way=3", "k_shot=1", "q_queries=2", "seed=19"]) == 0
    lines = manifest.read_text().splitlines()
    first = next(i for i, l in enumerate(lines) if not l.startswith("#"))
    fields = lines[first].split(";")
    fields[4] = "bogus"
    lines[first] = ";".join(fields)
    manifest.write_text("\n".join(lines) + "\n")
    # the tasks are meta-train tasks, so only the reader can reject them
    err = assert_data_error(capsys, eval_args(dataset, tmp_path / "knn.csv", "knn",
                                              tasks_manifest=manifest,
                                              split="meta-train"))
    assert "input_repr 'bogus'" in err

@pytest.mark.parametrize("learner", ["maml", "protonet"])
def test_logged_meta_val_accuracy_equals_per_task_predictions(tmp_path, learner):
    data = tmp_path / "val.emb1"
    assert main(synth_args(data, classes=9, val_classes=3, test_classes=2,
                           train_classes=4)) == 0
    assert main(["partition", f"data={data}", f"out_prefix={tmp_path / 'p'}",
                 "method=kmeans", "k=4", "seed=9"]) == 0
    over = dict(val_every=1, val_tasks=6, task_batch_size=1, n_way=2, inner_lr=0.1)
    if learner == "protonet":
        over["q_queries"] = 3
    logged = []
    for iters in (1, 2):
        log, ckpt = tmp_path / f"log{iters}.csv", tmp_path / f"m{iters}.ckpt"
        assert main(meta_train_args(data, tmp_path / "p", ckpt, log=log, learner=learner,
                                    meta_iterations=iters, **over)) == 0
        logged.append(log.read_text().strip().splitlines()[-1].split(",")[2])
    ds = load_dataset(data)
    val_cfg = TaskStreamConfig(tasks=6, n_way=2, k_shot=1, q_queries=5, seed=14,
                               split="meta-val")
    val_tasks = list(make_supervised_task_stream(val_cfg, ds))
    for iters, text in zip((1, 2), logged):
        # the run of `iters` iterations ends with the parameters validated last
        params = load_checkpoint(tmp_path / f"m{iters}.ckpt")
        if learner == "maml":
            hits = [float((maml_predict(params, t, 0.1) == t.query_labels_int()).mean())
                    for t in val_tasks]
        else:
            hits = [float((protonet_predict(params, t) == t.query_labels_int()).mean())
                    for t in val_tasks]
        assert text == repr(float(np.mean(hits)))

@pytest.mark.parametrize("where", ["magic", "layer_table", "weights", "bias"])
def test_evaluate_truncated_checkpoint_is_exit_3(tmp_path, dataset, partitions,
                                                 where, capsys):
    ckpt = tmp_path / "model.ckpt"
    assert main(meta_train_args(dataset, partitions, ckpt)) == 0
    params = load_checkpoint(ckpt)
    weights = 8 + 12 * len(params.layers)  # first weight block
    bias = weights + params.layers[0].weights.nbytes
    cut = {"magic": 2, "layer_table": 14, "weights": weights + 20,
           "bias": bias + 20}[where]
    short = tmp_path / "short.ckpt"
    short.write_bytes(ckpt.read_bytes()[:cut])
    capsys.readouterr()
    assert main(eval_args(dataset, tmp_path / "maml.csv", "maml",
                          checkpoint=short)) == 3
    err = capsys.readouterr().err
    assert err.startswith("data error:") and str(short) in err
    assert "Traceback" not in err

@pytest.mark.parametrize("command", ["evaluate", "meta-train resume"])
def test_zero_layer_checkpoint_is_exit_3(tmp_path, dataset, partitions, command,
                                         capsys):
    zero = tmp_path / "zero.ckpt"
    zero.write_bytes(b"CMP1" + struct.pack("<I", 0))
    args = (eval_args(dataset, tmp_path / "maml.csv", "maml", checkpoint=zero)
            if command == "evaluate"
            else meta_train_args(dataset, partitions, zero, resume="true"))
    capsys.readouterr()
    assert main(args) == 3
    err = capsys.readouterr().err
    assert err.startswith("data error:") and f"{zero}: checkpoint has no layers" in err
    assert "Traceback" not in err

@pytest.mark.parametrize("command", ["evaluate", "meta-train resume"])
def test_an_overflowing_checkpoint_is_exit_3(tmp_path, dataset, partitions, command,
                                             capsys):
    # finite weights so large that the forward pass overflows; unguarded,
    # evaluate printed a plausible mean accuracy of 0.5 and exited 0, and
    # resume accepted the checkpoint
    ckpt = tmp_path / "model.ckpt"
    assert main(meta_train_args(dataset, partitions, ckpt)) == 0
    args = (["evaluate", f"data={dataset}", f"out={tmp_path / 'maml.csv'}",
             "learner=maml", f"checkpoint={ckpt}", "tasks=10", "n_way=2",
             "k_shot=1", "q_queries=2", "split=meta-train"]
            if command == "evaluate"
            else meta_train_args(dataset, partitions, ckpt, resume="true"))
    assert main(args) == 0
    params = load_checkpoint(ckpt)
    params.vector *= 1e155
    save_checkpoint(params, ckpt)
    err = assert_data_error(capsys, args)
    assert f"{ckpt}: layer 0 has a parameter of magnitude" in err

def test_evaluate_on_a_split_without_rows_is_exit_3(tmp_path, capsys):
    # split_mode=none tags every row meta-train; evaluate defaults to meta-test
    data = tmp_path / "train_only.emb1"
    assert main(synth_args(data, split_mode="none")) == 0
    capsys.readouterr()
    assert main(eval_args(data, tmp_path / "linear.csv", "linear")) == 3
    err = capsys.readouterr().err
    assert err.startswith("data error:") and "split 'meta-test' has no labeled rows" in err
    assert "Traceback" not in err

def test_evaluate_on_embeddings_too_large_for_distances_is_exit_3(tmp_path, capsys):
    data = tmp_path / "ds.emb1"
    assert main(synth_args(data, split_mode="none")) == 0
    args = eval_args(data, tmp_path / "knn.csv", "knn", split="meta-train",
                     n_way="5", tasks="100", seed="7")
    assert main(args) == 0
    ds = load_dataset(data)
    ds.embeddings *= 1e160
    save_dataset(ds, data)
    capsys.readouterr()
    assert main(args) == 3
    err = capsys.readouterr().err
    assert err.startswith("data error:") and f"{data}: embeddings block" in err

@pytest.mark.parametrize("block, learner", [("raw", "scratch"), ("embeddings", "knn"),
                                            ("embeddings", "linear"),
                                            ("embeddings", "mlp")])
def test_evaluate_on_a_dataset_with_nan_is_exit_3(tmp_path, dataset, block, learner,
                                                  capsys):
    # NaN in every second meta-test row; it once gave a plausible report,
    # or a numeric failure (exit 4) in the fitted learners
    ds = load_dataset(dataset)
    getattr(ds, block)[ds.split_indices("meta-test")[::2], 0] = np.nan
    save_dataset(ds, dataset)
    err = assert_data_error(capsys, eval_args(dataset, tmp_path / "r.csv", learner,
                                              tasks=20, k_shot=1, q_queries=2, seed=3))
    assert f"{dataset}: {block} block has a NaN entry" in err

def _replace(prefix, new):
    return lambda lines: [new if l.startswith(prefix) else l for l in lines]

# each edit rewrites the lines of a saved 12-task report; the words of the
# reader's message follow the edit
BAD_REPORT_EDITS = {
    "row": (_replace("0,", "0,abc1.0"), "bad accuracy 'abc1.0'"),
    "seed": (_replace("# seed=", "# seed=x"), "bad seed 'x'"),
    "summary": (_replace("# summary:", "# summary: tasks=12 mean=abc ci95=0.0"),
                "summary"),
    "no_rows": (lambda lines: lines[:lines.index("task_index,accuracy") + 1],
                "no task rows"),
    "summary_tasks": (lambda lines: [l.replace("tasks=12", "tasks=4") for l in lines],
                      "summary"),
    "summary_ci95": (lambda lines: [re.sub(r"ci95=\S+", "ci95=0.123", l)
                                    for l in lines], "summary"),
    "index_repeated": (_replace("1,", "0,0.5"), "task_index '0', expected 1"),
    "index_out_of_order": (lambda lines: [{"1,": "2,", "2,": "1,"}.get(l[:2], l[:2])
                                          + l[2:] for l in lines],
                           "task_index '2', expected 1"),
}

@pytest.mark.parametrize("case", sorted(BAD_REPORT_EDITS))
def test_compare_malformed_report_is_exit_3(tmp_path, dataset, case, capsys):
    path = tmp_path / "knn.csv"
    assert main(eval_args(dataset, path, "knn")) == 0
    edit, message = BAD_REPORT_EDITS[case]
    path.write_text("\n".join(edit(path.read_text().splitlines())) + "\n")
    capsys.readouterr()
    assert main(["compare", str(path)]) == 3
    err = capsys.readouterr().err
    assert err.startswith(f"data error: {path}") and message in err
    assert "Traceback" not in err

@pytest.mark.parametrize("d_in", [3, 4])
def test_cluster_match_on_pixel_partition_is_exit_3(tmp_path, d_in, capsys):
    # d_z is 3: at d_in=3 every width check would pass
    data = tmp_path / "ds.emb1"
    assert main(synth_args(data, d_in=d_in)) == 0
    assert main(["partition", f"data={data}", f"out_prefix={tmp_path / 'px'}",
                 "method=pixel", "k=4", "seed=9"]) == 0
    capsys.readouterr()
    assert main(eval_args(data, tmp_path / "cm.csv", "cluster-match",
                          partition=tmp_path / "px_000.part")) == 3
    err = capsys.readouterr().err
    assert err.startswith("data error:") and "source_space=raw" in err

def test_default_workers_reads_metafew_workers(monkeypatch):
    # the count of usable CPUs, not of the host's, bounds the worker count
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2},
                        raising=False)
    monkeypatch.setattr(os, "cpu_count", lambda: 64)
    monkeypatch.delenv("METAFEW_WORKERS", raising=False)
    assert default_workers() == 3
    monkeypatch.setenv("METAFEW_WORKERS", "abc")
    with pytest.raises(ConfigError, match="METAFEW_WORKERS"):
        default_workers()
    for text, want in (("3", 3), ("2", 2), ("1", 1), ("0", 1), ("-2", 1)):
        monkeypatch.setenv("METAFEW_WORKERS", text)
        assert default_workers() == want
    monkeypatch.setenv("METAFEW_WORKERS", "3")
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {5})
    assert default_workers() == 1
    monkeypatch.delattr(os, "sched_getaffinity")
    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    assert default_workers() == 2
