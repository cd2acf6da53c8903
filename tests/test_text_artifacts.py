"""The text artifacts: each writer's exact bytes, and the same bytes under
an ASCII locale."""

import hashlib
import os
import subprocess
import sys

import numpy as np
import pytest

from metafew import cli
from metafew.cli import main
from helpers import save_dataset_csv
from metafew.data import DataSet
from metafew.evaluation import (ComparisonRow, EvalReport, write_comparison_csv,
                                write_report_csv)
from metafew.partition import Hyperplane, Partition, load_partition, save_partition
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
        '0\n'
        '1\n'
        '0\n'
        '-1\n'
        '1\n'
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
        '1\n'
        '0\n'
        '-1\n'
        '1\n'
    ),
    'partition_random': (
        '# provenance=random\n'
        '# n=3\n'
        '# k=3\n'
        '# seed=11\n'
        '# source_space=raw\n'
        '2\n'
        '0\n'
        '1\n'
    ),
    'partition_supervised': (
        '# provenance=supervised\n'
        '# n=3\n'
        '# k=2\n'
        '# seed=\n'
        '# source_space=embedding\n'
        '0\n'
        '0\n'
        '1\n'
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


# the `partition` runs whose files are pinned below, all on one synth dataset
# split 60/20/20 into meta-train, meta-val and meta-test
PARTITION_RUNS = {
    "kmeans": ["method=kmeans", "P=2", "k=4", "seed=9"],
    "kmeans_meta_test": ["method=kmeans", "P=2", "k=3", "seed=4", "split=meta-test",
                         "max_iter=5"],
    "pixel": ["method=pixel", "P=2", "k=4", "seed=9"],
    "random": ["method=random", "P=2", "k=5", "seed=3"],
    "random_meta_val": ["method=random", "P=1", "k=3", "seed=3", "split=meta-val"],
    "hyperplane": ["method=hyperplane", "P=2", "n_way=3", "r_min=3", "margin=0.05",
                   "pool_size=16", "seed=7"],
}

# sha256 of every file each run writes, by file name
PARTITION_DIGESTS = {
    'hyperplane': {
        'hyperplane_000.part':
            '144e426f7105fcece6855da12b00dd040a7447ab17a6f7e72e2a3de3543ee8af',
        'hyperplane_001.part':
            'edc321502d05c70a8865ee7ee89ba5822e7fe55ae1e39c6c35c00248e8908a17',
        'hyperplane_manifest.txt':
            '43f2deab1d6dba2b1a4dcec635d0ff45d7244a8fd52148ee867b150391d451e5',
    },
    'kmeans': {
        'kmeans_000.part':
            '8fcd2e46bb8afd3bd191af4c271e283c65b8df551164bc1e45c9096585fc6ae7',
        'kmeans_001.part':
            '81a6082d748025e0c04ae5d40ebd782b5e1619d027d9e67551c5d109afa17a94',
        'kmeans_manifest.txt':
            '90f8b7241e5276953bf0610ad20e3970808d695c4cd65f68b4b063d6530cb771',
    },
    'kmeans_meta_test': {
        'kmeans_meta_test_000.part':
            '18700ad9b993f0e6bd2839825030ab312a3e72f332ff78c15f89e81d191555de',
        'kmeans_meta_test_001.part':
            'd59b1e398ec24955c63e8c33b049a2b0a071ed27c9a29752683e8617253839be',
        'kmeans_meta_test_manifest.txt':
            'b53056e71881127f3090fc974386a3210109f83df7b12596f621563662d0eceb',
    },
    'pixel': {
        'pixel_000.part':
            'fd710af54e36771590fce1bce0abadcfd9db0ea9bb707f1e82a545363c50eb4d',
        'pixel_001.part':
            '8e841ed1e0815e6e5110595504a8e618c1fbbfa68c0ec216056db1de62d5a437',
        'pixel_manifest.txt':
            'a4f636a510566493c43857916f894cbb9b73d6966e3412c827848da269da9d36',
    },
    'random': {
        'random_000.part':
            'b5197931f8867c02de41454e73b720e7da830aecb3a9eec3e5a6dd61d42075f5',
        'random_001.part':
            'cfe49cc99c7dc194708be91a06284234305dc5a64de85eb817ee37c3e0ff2494',
        'random_manifest.txt':
            '17f6a8100e179f2a75337ad670ed74c44c11812dc01065374d5f1be3f1aad969',
    },
    'random_meta_val': {
        'random_meta_val_000.part':
            '8cc00f6839fdf68d5a7419cfb64612f1be24f42a55daa07f27398e65716c7b54',
        'random_meta_val_manifest.txt':
            '42bc83f43f1313dd20e9e3627076f6b1146ece60e5a9ae6dd3039ccd33733d06',
    },
}

# sha256 of each partition file's loaded assignment as <i8 bytes, by file
# name; taken from the files of the two-column `index,cluster` format, so
# they show that the one-column files hold the same assignments
ASSIGNMENT_DIGESTS = {
    'hyperplane': {
        'hyperplane_000.part':
            'eca77b296edd61b2a2dc7f76b7684ad93d5550a971cf6ce1f2dfeaf1a9999d1b',
        'hyperplane_001.part':
            '2b171e421461b57555d31b498ecb5bcc5c2bac3a1dc668fc1262cf3496cba275',
    },
    'kmeans': {
        'kmeans_000.part':
            '8e0183c5bedb56076c89528b0dd19a6e095e17a4fb4c5364a9e5a40e5210fc72',
        'kmeans_001.part':
            '1d8957a2a0925bb9800e63d76e720a685f4ceae419371c28cc06f214b50bc0f6',
    },
    'kmeans_meta_test': {
        'kmeans_meta_test_000.part':
            '27f6395bdd75280958b6aa7688b1340a376ed7666c6558aae89db968def27e7f',
        'kmeans_meta_test_001.part':
            '9be57ffc36551df1ac5ec764b499e912863e4583b566e74b4000ac1c50f3d3af',
    },
    'pixel': {
        'pixel_000.part':
            '964edc2d836fba5e04a859e2ef8fae3e9da5e0af1fb1198c2c204aea2dcc2b81',
        'pixel_001.part':
            'b473c61ca9de5a19d8fab428e22aeb0652ea0cb7d60684b606107d409f63fa0b',
    },
    'random': {
        'random_000.part':
            '8fa6ac51f3ed61e84d1bf59443cb2e9fa7d0387d0e600a3884fa05566987fdff',
        'random_001.part':
            'affd50d1eebc9f93407eb23fa10ecf19aa087a12f0c1e78e0dece5a891da0dcd',
    },
    'random_meta_val': {
        'random_meta_val_000.part':
            'da5dd614d7c2476b45eef8012b74a322927e37da69ef5656e4f2d7302e938c47',
    },
}


def partition_digests(tmp_path, monkeypatch, run: str) -> tuple[dict, dict]:
    """sha256 of every file the run writes, and of each partition file's
    loaded assignment, by file name."""
    monkeypatch.chdir(tmp_path)
    assert main(["synth", "out=ds.emb1", "classes=5", "per_class=20", "d_in=4",
                 "d_z=3", "noise=0.3", "seed=5", "split_mode=by_fraction",
                 "train_frac=0.6", "val_frac=0.2", "test_frac=0.2"]) == 0
    assert main(["partition", "data=ds.emb1", f"out_prefix={run}",
                 *PARTITION_RUNS[run]]) == 0
    files = {path.name: hashlib.sha256(path.read_bytes()).hexdigest()
             for path in sorted(tmp_path.glob(f"{run}_*"))}
    assignments = {path.name: hashlib.sha256(
        load_partition(path).assignment.astype("<i8").tobytes()).hexdigest()
        for path in sorted(tmp_path.glob(f"{run}_*.part"))}
    return files, assignments


@pytest.mark.parametrize("run", sorted(PARTITION_RUNS))
def test_partition_command_keeps_its_bytes(tmp_path, monkeypatch, run):
    files, assignments = partition_digests(tmp_path, monkeypatch, run)
    assert files == PARTITION_DIGESTS[run]
    assert assignments == ASSIGNMENT_DIGESTS[run]
