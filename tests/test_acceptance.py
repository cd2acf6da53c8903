"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

The ordering experiment (criteria 4 and 6) trains three learners on a
fixed synthetic benchmark and is shared through a session fixture; every
other criterion runs standalone. Run with `pytest -s tests/test_acceptance.py`
to watch the lines stream.
"""

import contextlib
import hashlib
import math
import time

import numpy as np
import pytest

from helpers import (brute_force_two_means, finite_difference_grad, per_task,
                     relative_error, sample_supervised_task, task_from_arrays)
from metafew.baselines import cluster_matching_classify, cluster_membership
from metafew.cli import main
from metafew.data import SplitSpec, split_dataset, synth_mixture
from metafew.evaluation import evaluate, read_report_csv
from metafew.ioutil import default_workers
from metafew.learners import make_learner
from metafew.metalearn import (MetaConfig, build_maml_model, build_protonet_model,
                               meta_train, protonet_classify,
                               protonet_loss_grad, protonet_prototypes)
from metafew.network import (apply_sgd, forward, grad_through_adaptation,
                             init_mlp, xent_loss_grad)
from metafew.partition import (_lift, generate_partitions, kmeans,
                               partition_from_labels, random_partition)
from metafew.tasks import (TaskStreamConfig, make_supervised_task_stream,
                           make_task_stream, validate_task)


@contextlib.contextmanager
def criterion(number: int, label: str):
    start = time.time()
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {number} [FAIL] {label} ({time.time() - start:.1f}s)")
        raise
    print(f"ACCEPTANCE {number} [PASS] {label} ({time.time() - start:.1f}s)")


# -- criterion 1: gradient correctness ------------------------------------------

def random_task_for(rng, d_in, n_way, k, q):
    perm = rng.permutation(n_way)
    return task_from_arrays(rng.standard_normal((n_way * k, d_in)),
                            rng.standard_normal((n_way * q, d_in)), perm, k, q)


def test_criterion_1_gradient_correctness():
    with criterion(1, "gradients match finite differences (50 nets, tol 1e-4)"):
        start = time.time()
        for trial in range(50):
            rng = np.random.default_rng(9000 + trial)
            d_in = int(rng.integers(2, 5))
            hidden = int(rng.integers(4, 33))
            n_way = int(rng.integers(2, 4))
            net = init_mlp([d_in, hidden, n_way], rng)
            emb_net = init_mlp([d_in, hidden, int(rng.integers(2, 6))], rng,
                               activations=["relu", "relu"])
            for p in (net, emb_net):
                for layer in p.layers:
                    layer.bias[...] = rng.uniform(-0.3, 0.3, layer.bias.shape)
            x = rng.standard_normal((4, d_in))
            y = np.eye(n_way)[rng.integers(0, n_way, 4)]

            _, g = xent_loss_grad(net, x, y)
            fd = finite_difference_grad(lambda p: xent_loss_grad(p, x, y)[0], net)
            assert relative_error(g, fd) <= 1e-4

            task = random_task_for(rng, d_in, n_way, 2, 3)
            _, pg = protonet_loss_grad(emb_net, task)

            def proto_loss(p):
                es = forward(p, task.train_x)
                eq = forward(p, task.query_x)
                logits = protonet_classify(protonet_prototypes(es, task.train_y), eq)
                shifted = logits - logits.max(axis=1, keepdims=True)
                logp = shifted - np.log(np.exp(shifted).sum(axis=1, keepdims=True))
                return float(-(logp * task.query_y).sum(axis=1).mean())

            assert relative_error(pg, finite_difference_grad(proto_loss, emb_net)) <= 1e-4

            steps, lr = 2, 0.15
            _, mg = grad_through_adaptation(net, (task.train_x[:, :d_in], task.train_y),
                                            (task.query_x, task.query_y), lr, steps)

            def meta_loss(p):
                theta = p
                for _ in range(steps):
                    _, gi = xent_loss_grad(theta, task.train_x, task.train_y)
                    theta = apply_sgd(theta, gi, lr)
                return xent_loss_grad(theta, task.query_x, task.query_y)[0]

            # finer stencil: the unrolled trajectory can sit closer to a relu
            # kink than any single forward pass
            fd_meta = finite_difference_grad(meta_loss, net, h=1e-6)
            assert relative_error(mg, fd_meta) <= 1e-4
        assert time.time() - start < 60.0


# -- criterion 2: k-means oracle equivalence ---------------------------------------

def test_criterion_2_kmeans_oracle_equivalence():
    with criterion(2, "Lloyd matches brute-force local optima (200 instances)"):
        start = time.time()
        for trial in range(200):
            rng = np.random.default_rng(20000 + trial)
            n = int(rng.integers(4, 9))
            pts = rng.standard_normal((n, 2))
            scaling = rng.uniform(0.2, 1.0, 2)
            part = kmeans(pts, 2, scaling=scaling, seed=int(rng.integers(1 << 31)))
            # objective nonincreasing across every Lloyd iteration
            assert np.all(np.diff(part.objective_trace) <= 1e-9)
            # re-evaluating the returned assignment cannot beat the objective
            re_obj = 0.0
            for c, members in enumerate(part.clusters):
                mu = pts[members].mean(axis=0)
                re_obj += float((scaling * (pts[members] - mu) ** 2).sum())
            assert part.objective <= re_obj + 1e-9
            # fixed point: nearest-centroid reassignment changes nothing
            d2 = ((pts[:, None, :] - part.centroids[None, :, :]) ** 2 * scaling).sum(axis=2)
            assert np.array_equal(d2.argmin(axis=1), part.assignment)
            # the objective appears among the enumeration's local optima
            _, fixed = brute_force_two_means(pts, scaling)
            assert any(abs(part.objective - f) <= 1e-9 for f in fixed)
        assert time.time() - start < 60.0


# -- criterion 3: episode validity ---------------------------------------------------

def test_criterion_3_episode_validity():
    with criterion(3, "10,000 tasks across four provenances pass the validator"):
        start = time.time()
        ds = synth_mixture(12, 40, 6, 4, noise=0.4, seed=31000)
        km = generate_partitions(ds, 4, 12, seed=31001)
        hyp = generate_partitions(ds, 4, seed=31002, method="hyperplane", n_way=4,
                                  margin=0.05, r_min=5, pool_size=128)
        rows = ds.split_indices("meta-train")
        rnd = [_lift(random_partition(rows.size, 12, np.random.default_rng(31003 + i)),
                     rows, ds.n) for i in range(4)]
        sup = [partition_from_labels(ds)]
        count = 0
        for seed, parts in ((31010, km), (31011, hyp), (31012, rnd), (31013, sup)):
            cfg = TaskStreamConfig(tasks=2500, n_way=4, k_shot=1, q_queries=4,
                                   seed=seed)
            for task in make_task_stream(cfg, parts, ds):
                validate_task(task, ds, partition=parts[task.partition_index])
                count += 1
        assert count == 10000
        assert time.time() - start < 60.0


# -- criteria 4 and 6: the ordering experiment ------------------------------------------

BENCH = dict(classes=40, per_class=60, d_in=32, d_z=8, noise=1.1, emb_noise=0.25,
             data_seed=400, train_classes=30, test_classes=10,
             partitions=10, k=30, partition_seed=300, random_partition_seed=3000,
             iterations=2000, outer_lr=0.0035, eval_tasks=500, eval_seed=777)


@pytest.fixture(scope="session")
def ordering_experiment():
    b = BENCH
    ds = synth_mixture(b["classes"], b["per_class"], b["d_in"], b["d_z"],
                       noise=b["noise"], seed=b["data_seed"],
                       emb_noise=b["emb_noise"])
    split = SplitSpec("by_class", class_lists=(
        list(range(b["train_classes"])), [],
        list(range(b["train_classes"], b["classes"]))))
    ds = split_dataset(ds, split, np.random.default_rng(b["data_seed"]))

    cluster_parts = generate_partitions(ds, b["partitions"], b["k"],
                                       seed=b["partition_seed"])
    rows = ds.split_indices("meta-train")
    random_parts = [
        _lift(random_partition(rows.size, b["k"],
                               np.random.default_rng(b["random_partition_seed"] + i)),
              rows, ds.n)
        for i in range(b["partitions"])]

    def train_maml(parts, seed):
        stream_cfg = TaskStreamConfig(tasks=b["iterations"] * 8, n_way=5, k_shot=1,
                                      q_queries=5, seed=seed)
        cfg = MetaConfig(meta_iterations=b["iterations"], task_batch_size=8,
                         n_way=5, outer_lr=b["outer_lr"], seed=seed)
        init = build_maml_model(ds.d_in, 5, np.random.default_rng(seed))
        return meta_train(cfg, make_task_stream(stream_cfg, parts, ds), init)

    def train_protonet(parts, seed):
        stream_cfg = TaskStreamConfig(tasks=b["iterations"], n_way=5, k_shot=1,
                                      q_queries=15, seed=seed)
        cfg = MetaConfig(learner="protonet", meta_iterations=b["iterations"],
                         task_batch_size=1, n_way=5, q_queries=15,
                         outer_lr=b["outer_lr"], seed=seed)
        init = build_protonet_model(ds.d_in, np.random.default_rng(seed))
        return meta_train(cfg, make_task_stream(stream_cfg, parts, ds), init)

    start = time.time()
    cluster_maml = train_maml(cluster_parts, 41)
    random_maml = train_maml(random_parts, 43)
    cluster_proto = train_protonet(cluster_parts, 42)

    def tasks_at(k_shot):
        cfg = TaskStreamConfig(tasks=b["eval_tasks"], n_way=5, k_shot=k_shot,
                               q_queries=5, seed=b["eval_seed"], split="meta-test")
        return list(make_supervised_task_stream(cfg, ds))

    tasks1 = tasks_at(1)
    cluster_maml_predict = make_learner("maml", ds, params=cluster_maml)
    workers = default_workers()  # the maml reports' bits do not depend on it
    reports = {
        "cluster-maml": evaluate(cluster_maml_predict, tasks1,
                                 learner_id="cluster-maml", workers=workers),
        "random-maml": evaluate(make_learner("maml", ds, params=random_maml),
                                tasks1, learner_id="random-maml", workers=workers),
        "cluster-protonet": evaluate(make_learner("protonet", ds, params=cluster_proto),
                                     tasks1, learner_id="cluster-protonet"),
    }
    sweep = {1: reports["cluster-maml"]}
    for k_shot in (5, 20, 50):
        sweep[k_shot] = evaluate(cluster_maml_predict, tasks_at(k_shot),
                                 learner_id=f"cluster-maml@{k_shot}", workers=workers)
    return {"reports": reports, "sweep": sweep, "train_seconds": time.time() - start}


def test_criterion_4_ordering_experiment(ordering_experiment):
    with criterion(4, "cluster-task learners beat chance by 20 points and "
                      "random-task training lands near chance"):
        reports = ordering_experiment["reports"]
        chance = 0.20
        cluster_maml = reports["cluster-maml"]
        cluster_proto = reports["cluster-protonet"]
        random_maml = reports["random-maml"]
        for r in reports.values():
            print(f"    {r.summary()}")
        print(f"    (training time {ordering_experiment['train_seconds']:.0f}s)")
        # (a) both cluster-task learners at least 20 points above chance
        assert cluster_maml.mean >= chance + 0.20
        assert cluster_proto.mean >= chance + 0.20
        # (b) each cluster-task learner beats the random-task learner, CIs disjoint
        for r in (cluster_maml, cluster_proto):
            assert r.interval()[0] > random_maml.interval()[1]
        # (c) random-partition MAML within 10 points of chance
        assert abs(random_maml.mean - chance) <= 0.10


def test_criterion_6_shot_robustness(ordering_experiment):
    with criterion(6, "1-shot-trained model is nondecreasing in evaluation shot"):
        sweep = ordering_experiment["sweep"]
        shots = sorted(sweep)
        means = [sweep[k].mean for k in shots]
        cis = [sweep[k].ci95 for k in shots]
        print("    " + "  ".join(f"K={k}: {m:.4f}+-{c:.4f}"
                                 for k, m, c in zip(shots, means, cis)))
        for i in range(len(shots) - 1):
            # ties permitted within overlapping confidence intervals
            assert means[i + 1] >= means[i] - (cis[i] + cis[i + 1])


# -- criterion 5: cluster-matching sanity ----------------------------------------------

def test_criterion_5_cluster_matching_sanity():
    with criterion(5, "cluster matching >= 0.95 with k = true class count"):
        start = time.time()
        ds = synth_mixture(10, 40, 8, 6, noise=0.05, seed=50000)
        rows = ds.split_indices("meta-train")
        part = kmeans(ds.embeddings[rows], 10, seed=50001, plusplus=True,
                      restarts=8)
        membership = cluster_membership(part, ds.embeddings[rows])
        rng = np.random.default_rng(50002)
        accs = []
        for _ in range(200):
            task = sample_supervised_task(ds, "meta-train", 10, 1, 5, rng,
                                          input_repr="embedding")
            pred = cluster_matching_classify(part, membership, task)
            accs.append(float((pred == task.query_labels_int()).mean()))
        assert float(np.mean(accs)) >= 0.95
        assert time.time() - start < 60.0


# -- criterion 7: CLI determinism ---------------------------------------------------------

def test_criterion_7_cli_determinism(tmp_path):
    with criterion(7, "re-running every CLI stage yields byte-identical artifacts"):
        paths = {
            "data": tmp_path / "ds.emb1",
            "tasks": tmp_path / "tasks.txt",
            "ckpt": tmp_path / "model.ckpt",
            "log": tmp_path / "train.csv",
            "maml_report": tmp_path / "maml.csv",
            "knn_report": tmp_path / "knn.csv",
            "table": tmp_path / "table.csv",
        }
        part_prefix = tmp_path / "parts"

        def pipeline():
            assert main(["synth", f"out={paths['data']}", "classes=8",
                         "per_class=12", "d_in=5", "d_z=3", "noise=0.4", "seed=7",
                         "split_mode=by_class_counts", "train_classes=6",
                         "val_classes=0", "test_classes=2"]) == 0
            assert main(["partition", f"data={paths['data']}",
                         f"out_prefix={part_prefix}", "method=kmeans", "P=2",
                         "k=6", "seed=8"]) == 0
            assert main(["gen-tasks", f"data={paths['data']}",
                         f"partitions={part_prefix}_manifest.txt",
                         f"out={paths['tasks']}", "tasks=6", "n_way=2",
                         "k_shot=1", "q_queries=3", "seed=9"]) == 0
            assert main(["meta-train", f"data={paths['data']}",
                         f"partitions={part_prefix}_manifest.txt",
                         f"out={paths['ckpt']}", f"log={paths['log']}",
                         "learner=maml", "meta_iterations=6", "task_batch_size=2",
                         "n_way=2", "inner_steps=2", "seed=10"]) == 0
            assert main(["evaluate", f"data={paths['data']}",
                         f"out={paths['maml_report']}", "learner=maml",
                         f"checkpoint={paths['ckpt']}", "tasks=10", "n_way=2",
                         "k_shot=1", "q_queries=3", "seed=11", "adapt_steps=5"]) == 0
            assert main(["evaluate", f"data={paths['data']}",
                         f"out={paths['knn_report']}", "learner=knn",
                         "tasks=10", "n_way=2", "k_shot=1", "q_queries=3",
                         "seed=11"]) == 0
            assert main(["compare", str(paths["maml_report"]),
                         str(paths["knn_report"]), f"out={paths['table']}"]) == 0
            return {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
                    for p in sorted(tmp_path.iterdir()) if p.is_file()}

        first = pipeline()
        second = pipeline()
        assert first == second
        assert len(first) >= 9


# -- criterion 8: statistics --------------------------------------------------------------

def test_criterion_8_statistics(tmp_path):
    with criterion(8, "report statistics recompute exactly; two-task CI is 0.980"):
        ds = synth_mixture(6, 20, 4, 3, noise=0.3, seed=80000)
        cfg = TaskStreamConfig(tasks=37, n_way=4, k_shot=1, q_queries=5, seed=80001)
        tasks = list(make_supervised_task_stream(cfg, ds))
        report = evaluate(
            per_task(lambda t, rng: rng.integers(0, t.n_way, t.query_y.shape[0])),
            tasks, learner_id="random", seed=80002)
        from metafew.evaluation import write_report_csv
        path = tmp_path / "r.csv"
        write_report_csv(report, path)
        loaded, summary = read_report_csv(path)
        # recompute from the CSV rows with correctly rounded arithmetic
        acc = [float(line.split(",")[1]) for line in path.read_text().splitlines()
               if line and not line.startswith(("#", "task_index"))]
        n = len(acc)
        mean = math.fsum(acc) / n
        var = math.fsum((a - mean) ** 2 for a in acc) / (n - 1)
        ci = 1.96 * math.sqrt(var) / math.sqrt(n)
        assert mean == float(summary["mean"]) == report.mean
        assert ci == float(summary["ci95"]) == report.ci95
        assert n == int(summary["tasks"]) == report.task_count
        # the {0, 1} two-task example
        from metafew.evaluation import EvalReport
        two = EvalReport(np.array([0.0, 1.0]))
        assert two.mean == 0.5
        assert round(two.ci95, 3) == 0.980
