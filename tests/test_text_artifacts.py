"""The text artifacts: each writer's exact bytes, and the same bytes under
an ASCII locale."""

import os
import subprocess
import sys

import numpy as np

from metafew import cli
from metafew.cli import main
from metafew.data import DataSet, save_dataset_csv
from metafew.evaluation import (ComparisonRow, EvalReport, write_comparison_csv,
                                write_report_csv)
from metafew.partition import Hyperplane, Partition, save_partition
from metafew.tasks import Task, write_task_manifest

CONFIG = "tool=metafew 0.1.0\ncommand=test\nout=x y.csv"


def _partition(assignment, **fields):
    return Partition(assignment=np.array(assignment, dtype=np.int64), **fields)


def _task(perm, source, train, query, **fields):
    n = len(perm)
    return Task(n_way=n, k_shot=1, q_queries=1, train_x=np.zeros((n, 2)),
                train_y=np.eye(n)[perm], query_x=np.zeros((n, 2)),
                query_y=np.eye(n)[perm], train_indices=np.array(train),
                query_indices=np.array(query), label_perm=np.array(perm),
                source_ids=np.array(source), **fields)


def writer_outputs(tmp_path, monkeypatch) -> dict[str, bytes]:
    """Every text writer's file on hand-built inputs, by writer case."""
    monkeypatch.chdir(tmp_path)
    out = {}
    partitions = {
        "kmeans": _partition([0, 1, 0, -1, 1], scaling=np.array([0.5, 2.0]),
                             k=2, seed=7),
        "hyperplane": _partition(
            [1, 0, -1, 1], provenance="hyperplane", scaling=np.array([1.0, 0.25]),
            margin=0.125, hyperplanes=[Hyperplane([1.0, -0.5], [0.1, 0.2]),
                                       Hyperplane([0.0, 3.0], [-1.0, 1e-300])]),
        "random": _partition([2, 0, 1], provenance="random", k=3, seed=11,
                             source_space="raw"),
        "supervised": _partition([0, 0, 1], provenance="supervised"),
    }
    for name, part in partitions.items():
        save_partition(part, f"{name}.part")
        out[f"partition_{name}"] = (tmp_path / f"{name}.part").read_bytes()

    write_task_manifest(
        [_task([1, 0], [4, 2], [0, 3], [1, 2], split="meta-train",
               partition_index=1, task_seed=99),
         _task([0, 1, 2], [5, 0, 1], [6, 7, 8], [9, 10, 11],
               input_repr="embedding")],
        "tasks.txt", dataset_ref="ds.emb1", config_text=CONFIG)
    out["task_manifest"] = (tmp_path / "tasks.txt").read_bytes()

    write_report_csv(EvalReport(np.array([0.5, 1.0, 0.25]), learner_id="knn",
                                fingerprint="ab12-cd34", seed=None),
                     "report.csv", config_text=CONFIG)
    out["report"] = (tmp_path / "report.csv").read_bytes()

    write_comparison_csv([ComparisonRow("maml", 0.75, 0.125, 3, ["knn", "mlp"]),
                          ComparisonRow("knn", 0.5, 0.0625, 3)],
                         "table.csv", config_text=CONFIG)
    out["comparison"] = (tmp_path / "table.csv").read_bytes()

    save_dataset_csv(DataSet(raw=[[0.1, -2.0], [3.0, 1e-300]],
                             embeddings=[[1.5], [-0.0]], labels=[0, 2],
                             attributes=[[True, False], [False, True]]), "ds.csv")
    out["dataset_csv"] = (tmp_path / "ds.csv").read_bytes()

    assert main(["synth", "out=ds.emb1", "classes=2", "per_class=3", "d_in=2",
                 "d_z=2"]) == 0
    assert main(["partition", "data=ds.emb1", "out_prefix=parts", "method=random",
                 "P=2", "k=2", "seed=3"]) == 0
    out["partition_manifest"] = (tmp_path / "parts_manifest.txt").read_bytes()

    def fake_meta_train(cfg, stream, params, log_cb, val_fn, val_every):
        log_cb(0, 1.5, None)
        log_cb(1, 0.1, 0.75)
        return params
    monkeypatch.setattr(cli, "meta_train", fake_meta_train)
    assert main(["meta-train", "data=ds.emb1", "out=m.ckpt", "log=log.csv",
                 "source=labels", "meta_iterations=2", "n_way=2", "q_queries=1"]) == 0
    out["meta_train_log"] = (tmp_path / "log.csv").read_bytes()
    return out


# every writer's exact bytes; changing any of them changes a file format
PINNED = {
    'partition_kmeans': (
        '# provenance=kmeans\n'
        '# n=5\n'
        '# k=2\n'
        '# seed=7\n'
        '# source_space=embedding\n'
        '# scaling=0.5,2.0\n'
        '0,0\n'
        '1,1\n'
        '2,0\n'
        '3,-1\n'
        '4,1\n'
    ),
    'partition_hyperplane': (
        '# provenance=hyperplane\n'
        '# n=4\n'
        '# k=2\n'
        '# seed=\n'
        '# source_space=embedding\n'
        '# scaling=1.0,0.25\n'
        '# margin=0.125\n'
        '# hyperplane=1.0,-0.5;0.1,0.2\n'
        '# hyperplane=0.0,3.0;-1.0,1e-300\n'
        '0,1\n'
        '1,0\n'
        '2,-1\n'
        '3,1\n'
    ),
    'partition_random': (
        '# provenance=random\n'
        '# n=3\n'
        '# k=3\n'
        '# seed=11\n'
        '# source_space=raw\n'
        '0,2\n'
        '1,0\n'
        '2,1\n'
    ),
    'partition_supervised': (
        '# provenance=supervised\n'
        '# n=3\n'
        '# k=2\n'
        '# seed=\n'
        '# source_space=embedding\n'
        '0,0\n'
        '1,0\n'
        '2,1\n'
    ),
    'task_manifest': (
        '# dataset=ds.emb1\n'
        '# config:tool=metafew 0.1.0\n'
        '# config:command=test\n'
        '# config:out=x y.csv\n'
        '# fields=index;n;k;q;input_repr;split;partition;task_seed;source_ids;perm;train_indices;query_indices\n'
        '0;2;1;1;raw;meta-train;1;99;4,2;1,0;0,3;1,2\n'
        '1;3;1;1;embedding;;;;5,0,1;0,1,2;6,7,8;9,10,11\n'
    ),
    'report': (
        '# tool=metafew 0.1.0\n'
        '# command=test\n'
        '# out=x y.csv\n'
        '# learner=knn\n'
        '# fingerprint=ab12-cd34\n'
        '# seed=\n'
        'task_index,accuracy\n'
        '0,0.5\n'
        '1,1.0\n'
        '2,0.25\n'
        '# summary: tasks=3 mean=0.5833333333333334 ci95=0.4321393808072165\n'
    ),
    'comparison': (
        '# tool=metafew 0.1.0\n'
        '# command=test\n'
        '# out=x y.csv\n'
        'learner,mean,ci95,tasks,overlaps_with\n'
        'maml,0.75,0.125,3,knn;mlp\n'
        'knn,0.5,0.0625,3,\n'
    ),
    'dataset_csv': (
        'raw_0,raw_1,emb_0,label,attr_0,attr_1\n'
        '0.1,-2.0,1.5,0,1,0\n'
        '3.0,1e-300,-0.0,2,0,1\n'
    ),
    'partition_manifest': (
        '# tool=metafew 0.1.0\n'
        '# command=partition\n'
        '# P=2\n'
        '# data=ds.emb1\n'
        '# k=2\n'
        '# margin=0.0\n'
        '# max_iter=300\n'
        '# method=random\n'
        '# n_way=5\n'
        '# out_prefix=parts\n'
        '# pool_size=1000\n'
        '# r_min=6\n'
        '# retry_cap=100\n'
        '# seed=3\n'
        '# split=meta-train\n'
        '# tol=1e-08\n'
        'parts_000.part\n'
        'parts_001.part\n'
    ),
    'meta_train_log': (
        '# tool=metafew 0.1.0\n'
        '# command=meta-train\n'
        '# data=ds.emb1\n'
        '# first_order=false\n'
        '# hidden=64,64\n'
        '# inner_lr=0.05\n'
        '# inner_steps=5\n'
        '# input_repr=raw\n'
        '# k_shot=1\n'
        '# learner=maml\n'
        '# log=log.csv\n'
        '# meta_iterations=2\n'
        '# n_way=2\n'
        '# out=m.ckpt\n'
        '# outer_lr=0.001\n'
        '# partitions=\n'
        '# q_queries=1\n'
        '# resume=false\n'
        '# seed=0\n'
        '# source=labels\n'
        '# split=meta-train\n'
        '# task_batch_size=-1\n'
        '# val_every=0\n'
        '# val_tasks=40\n'
        'iteration,meta_loss,val_accuracy\n'
        '0,1.5,\n'
        '1,0.1,0.75\n'
    ),
}


def test_writers_keep_their_exact_bytes(tmp_path, monkeypatch):
    outputs = writer_outputs(tmp_path, monkeypatch)
    assert sorted(outputs) == sorted(PINNED)
    for name, text in PINNED.items():
        assert outputs[name] == text.encode(), name


def test_compare_writes_the_same_bytes_under_an_ascii_locale(tmp_path):
    assert main(["synth", f"out={tmp_path / 'ds.emb1'}", "classes=3", "per_class=6",
                 "d_in=2", "d_z=2"]) == 0
    report = tmp_path / "a.csv"
    assert main(["evaluate", f"data={tmp_path / 'ds.emb1'}", f"out={report}",
                 "learner=knn", "split=meta-train", "tasks=3", "n_way=2",
                 "k_shot=1", "q_queries=1"]) == 0
    # a learner name that an ASCII stdout cannot hold
    report.write_text(report.read_text(encoding="utf-8").replace(
        "# learner=knn\n", "# learner=knn\u00e9\n"), encoding="utf-8")
    (tmp_path / "é").mkdir()
    table = tmp_path / "é" / "t.csv"
    env = {k: v for k, v in os.environ.items()
           if k not in ("LANG", "LANGUAGE", "PYTHONUTF8") and not k.startswith("LC_")}
    env["PYTHONPATH"] = os.pathsep.join(sys.path)
    written, printed = {}, {}
    for mode, extra in (("utf8=1", {}),
                        ("utf8=0", {"LC_ALL": "C", "PYTHONCOERCECLOCALE": "0"})):
        run = subprocess.run([sys.executable, "-X", mode, "-m", "metafew.cli", "compare",
                              "a.csv", "out=é/t.csv"], cwd=tmp_path, env={**env, **extra},
                             capture_output=True, encoding="utf-8")
        assert run.returncode == 0, run.stderr
        written[mode], printed[mode] = table.read_bytes(), run.stdout
        table.unlink()
    assert written["utf8=0"] == written["utf8=1"]
    assert b"# out=\xc3\xa9/t.csv\n" in written["utf8=1"]
    assert b"knn\xc3\xa9," in written["utf8=1"]
    assert "knn\u00e9" in printed["utf8=1"] and "knn\\xe9" in printed["utf8=0"]
