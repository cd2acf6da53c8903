"""Chunked evaluation: every learner gives the same per-task accuracies at
any chunk budget, worker count and BLAS thread count, and the same as its
2-d reference on task sets that mix shapes."""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import metafew
from metafew import evaluation
from helpers import reference_cluster_matching, reference_knn
from metafew.baselines import (linear_fit, linear_predict, mlp_dropout_fit,
                               mlp_dropout_predict, train_from_scratch)
from metafew.data import synth_mixture
from metafew.errors import DataError
from metafew.evaluation import evaluate, per_task, task_chunks
from metafew.ioutil import stable_rng
from metafew.learners import LEARNER_IDS, make_learner
from metafew.metalearn import (build_maml_model, build_protonet_model, maml_predict,
                               protonet_predict)
from metafew.partition import kmeans
from metafew.tasks import (TaskStreamConfig, make_supervised_task_stream,
                           read_task_manifest, write_task_manifest)

SMALL = dict(adapt_steps=4, mlp_steps=15, linear_max_iter=40, hidden=(8, 8))


@pytest.fixture(scope="module")
def ds():
    return synth_mixture(8, 20, 6, 4, noise=0.6, seed=150)


@pytest.fixture(scope="module")
def mixed_tasks(ds):
    """Two task shapes, 1-shot and 2-shot, interleaved in runs."""
    def stream(k_shot, seed):
        cfg = TaskStreamConfig(tasks=7, n_way=3, k_shot=k_shot, q_queries=2, seed=seed)
        return list(make_supervised_task_stream(cfg, ds))
    one, two = stream(1, 151), stream(2, 152)
    return one[:3] + two[:2] + one[3:4] + two[2:6] + one[4:] + two[6:]


def models(ds):
    rng = np.random.default_rng(153)
    return {"maml": build_maml_model(ds.d_in, 3, rng, hidden=(8, 8)),
            "protonet": build_protonet_model(ds.d_in, rng, hidden=(8,))}


def cluster_partition(ds):
    return kmeans(ds.embeddings, 8, seed=154)


@pytest.fixture(scope="module")
def learners(ds):
    params = models(ds)
    part = cluster_partition(ds)
    return {lid: make_learner(lid, ds, params=params.get(lid), partition=part, **SMALL)
            for lid in LEARNER_IDS}


@pytest.mark.parametrize("learner_id", LEARNER_IDS)
def test_accuracies_independent_of_chunk_budget(learner_id, learners, mixed_tasks,
                                                monkeypatch):
    predict = learners[learner_id]
    runs = []
    for rows, chunks in ((1, 14), (24, 9), (10 ** 6, 6)):
        monkeypatch.setattr(evaluation, "CHUNK_ROWS", rows)
        assert len(task_chunks(mixed_tasks)) == chunks
        runs.append(evaluate(predict, mixed_tasks, seed=3).accuracies)
    for acc in runs[1:]:
        assert acc.tobytes() == runs[0].tobytes()


def two_d_reference(learner_id, ds, params):
    """The learner as one 2-d call per task, without stacking."""
    def emb(idx):
        return ds.embeddings[idx]
    if learner_id == "linear":
        return per_task(lambda t, rng: linear_predict(
            linear_fit(emb(t.train_indices), t.train_labels_int(), t.n_way,
                       max_iter=SMALL["linear_max_iter"]), emb(t.query_indices)))
    if learner_id == "mlp":
        return per_task(lambda t, rng: mlp_dropout_predict(
            mlp_dropout_fit(emb(t.train_indices), t.train_labels_int(), t.n_way, rng,
                            steps=SMALL["mlp_steps"]), emb(t.query_indices)))
    if learner_id == "scratch":
        return per_task(lambda t, rng: train_from_scratch(t, rng, hidden=SMALL["hidden"],
                                                          steps=SMALL["adapt_steps"]))
    if learner_id == "protonet":
        return per_task(lambda t, rng: protonet_predict(params, t))
    if learner_id == "knn":
        return per_task(lambda t, rng: reference_knn(
            emb(t.train_indices), t.train_labels_int(), emb(t.query_indices),
            min(t.k_shot, 5)))
    if learner_id == "cluster-match":
        part = cluster_partition(ds)
        return per_task(lambda t, rng: reference_cluster_matching(part, t, ds.embeddings))
    return per_task(lambda t, rng: maml_predict(params, t, 0.05, SMALL["adapt_steps"]))


@pytest.mark.parametrize("learner_id", ["linear", "mlp", "scratch", "maml", "protonet",
                                        "knn", "cluster-match"])
def test_mixed_shape_manifest_matches_per_task_reference(
        learner_id, ds, learners, mixed_tasks, tmp_path, monkeypatch):
    path = tmp_path / "tasks.txt"
    write_task_manifest(mixed_tasks, path)
    tasks = read_task_manifest(path, ds)
    monkeypatch.setattr(evaluation, "CHUNK_ROWS", 40)
    assert len(task_chunks(tasks)) < len(tasks)
    got = evaluate(learners[learner_id], tasks, seed=5)
    params = models(ds).get(learner_id)
    want = evaluate(two_d_reference(learner_id, ds, params), tasks, seed=5)
    assert got.accuracies.tobytes() == want.accuracies.tobytes()


def test_chunks_hold_consecutive_tasks_of_one_shape(mixed_tasks, monkeypatch):
    monkeypatch.setattr(evaluation, "CHUNK_ROWS", 24)  # 2-shot tasks: 12 rows
    chunks = task_chunks(mixed_tasks)
    assert [t for c in chunks for t in c] == mixed_tasks
    for chunk in chunks:
        assert len({t.train_x.shape for t in chunk}) == 1
        assert sum(t.train_x.shape[0] + t.query_x.shape[0] for t in chunk) <= 24


def test_wrong_shape_prediction_from_a_chunk_is_a_data_error(mixed_tasks):
    with pytest.raises(DataError, match="predictions for"):
        evaluate(lambda tasks, rngs: [np.zeros(1, dtype=int)] * len(tasks),
                 mixed_tasks)
    with pytest.raises(DataError, match="chunk of"):
        evaluate(lambda tasks, rngs: [t.query_labels_int() for t in tasks[1:]],
                 mixed_tasks)


def test_chunk_learners_get_each_task_its_own_generator(mixed_tasks):
    seen = []

    def record(tasks, rngs):
        seen.extend(r.integers(2 ** 62) for r in rngs)
        return [t.query_labels_int() for t in tasks]

    evaluate(record, mixed_tasks, seed=9)
    want = [stable_rng(9, t.task_seed).integers(2 ** 62) for t in mixed_tasks]
    assert seen == want


# run in an empty directory: relative paths keep the echoed config, and so
# the report bytes, independent of where it runs
# the partition clusters the meta-train rows at k=125, so cluster-match
# assigns every evaluated meta-test row through nearest_centroids; a k=8
# partition feeds a few stacked meta-iterations of each learner (second
# order for maml), whose gradients are strided (B, in, out) views
BITS_SCRIPT = """
import hashlib, io, contextlib
from metafew.cli import main
LEARNERS = ("linear", "mlp", "scratch", "knn", "cluster-match")
with contextlib.redirect_stdout(io.StringIO()):
    assert main(["synth", "out=ds.emb1", "classes=10", "per_class=40", "d_in=24",
                 "d_z=12", "noise=0.8", "seed=3", "split_mode=by_class_counts",
                 "train_classes=5", "test_classes=5"]) == 0
    assert main(["partition", "data=ds.emb1", "out_prefix=km", "method=kmeans",
                 "k=125", "P=1", "seed=5"]) == 0
    for learner in LEARNERS:
        assert main(["evaluate", "data=ds.emb1", f"out={learner}.csv",
                     f"learner={learner}", "tasks=8", "n_way=5", "k_shot=20",
                     "q_queries=5", "seed=4", "mlp_steps=60",
                     "partition=km_000.part"]) == 0
    assert main(["partition", "data=ds.emb1", "out_prefix=km8", "method=kmeans",
                 "k=8", "P=1", "seed=5"]) == 0
    for learner in ("maml", "protonet"):
        assert main(["meta-train", "data=ds.emb1", "partitions=km8_manifest.txt",
                     f"out={learner}.ckpt", f"learner={learner}",
                     "meta_iterations=3", "task_batch_size=4", "q_queries=5",
                     "seed=6"]) == 0
for name in [f"{learner}.csv" for learner in LEARNERS] + ["maml.ckpt", "protonet.ckpt"]:
    with open(name, "rb") as fh:
        print(name, hashlib.sha256(fh.read()).hexdigest())
"""


def test_reports_independent_of_blas_threads(tmp_path):
    src = str(Path(metafew.__file__).resolve().parent.parent)
    digests = []
    for threads in ("1", "2"):
        out = tmp_path / threads
        out.mkdir()
        path = [src] + [p for p in [os.environ.get("PYTHONPATH")] if p]
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads,
                   PYTHONPATH=os.pathsep.join(path))
        run = subprocess.run([sys.executable, "-c", BITS_SCRIPT], cwd=out, env=env,
                             capture_output=True, text=True, timeout=300)
        assert run.returncode == 0, run.stderr
        digests.append(run.stdout.split())
    assert len(digests[0]) == 14 and digests[0] == digests[1]
