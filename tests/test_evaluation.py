import threading

import numpy as np
import pytest

from metafew import evaluation
from metafew.data import synth_mixture
from metafew.errors import ConfigError
from metafew.evaluation import (EvalReport, ci95_half_width, compare, evaluate,
                                format_comparison, per_task, read_report_csv,
                                task_set_fingerprint, write_report_csv)
from metafew.tasks import TaskStreamConfig, make_supervised_task_stream


@pytest.fixture(scope="module")
def tasks():
    ds = synth_mixture(6, 20, 4, 3, noise=0.3, seed=140)
    cfg = TaskStreamConfig(tasks=40, n_way=4, k_shot=1, q_queries=5, seed=141)
    return list(make_supervised_task_stream(cfg, ds))


@per_task
def oracle_learner(task, rng):
    return task.query_labels_int()

@per_task
def random_learner(task, rng):
    return rng.integers(0, task.n_way, task.query_y.shape[0])


def test_perfect_learner_mean_one_ci_zero(tasks):
    report = evaluate(oracle_learner, tasks, learner_id="oracle")
    assert report.mean == 1.0
    assert report.ci95 == 0.0
    assert report.task_count == len(tasks)

def test_two_task_ci_example():
    report = EvalReport(np.array([0.0, 1.0]))
    assert report.mean == 0.5
    assert report.ci95 == pytest.approx(0.980, abs=5e-4)

def test_single_task_ci_is_zero():
    assert ci95_half_width(np.array([0.7])) == 0.0

def test_random_predictor_converges_to_chance(tasks):
    report = evaluate(random_learner, tasks * 10, learner_id="random", seed=5)
    n_way = tasks[0].n_way
    se = report.accuracies.std(ddof=1) / np.sqrt(report.task_count)
    assert abs(report.mean - 1 / n_way) <= 3 * se + 1e-9

def test_evaluation_invariant_to_task_order(tasks):
    a = evaluate(random_learner, tasks, seed=7)
    order = np.random.default_rng(0).permutation(len(tasks))
    b = evaluate(random_learner, [tasks[i] for i in order], seed=7)
    # per-task accuracies permute exactly; aggregates agree to rounding
    assert np.array_equal(np.sort(a.accuracies), np.sort(b.accuracies))
    assert a.mean == pytest.approx(b.mean, rel=1e-12)

def test_evaluate_predicts_on_the_calling_thread(tasks, monkeypatch):
    monkeypatch.setattr(evaluation, "CHUNK_ROWS", 24)  # one task per chunk
    threads = set()

    @per_task
    def recording_learner(task, rng):
        threads.add(threading.get_ident())
        return task.query_labels_int()

    assert evaluate(recording_learner, tasks).mean == 1.0
    assert threads == {threading.get_ident()}

def test_report_csv_round_trip_exact(tmp_path, tasks):
    report = evaluate(random_learner, tasks, learner_id="rnd", seed=3)
    path = tmp_path / "report.csv"
    write_report_csv(report, path, config_text="command=evaluate")
    loaded, summary = read_report_csv(path)
    assert np.array_equal(loaded.accuracies, report.accuracies)
    assert loaded.learner_id == "rnd"
    assert loaded.fingerprint == report.fingerprint
    # the stored summary reproduces exactly from the per-task rows
    assert float(summary["mean"]) == loaded.mean
    assert float(summary["ci95"]) == loaded.ci95
    assert int(summary["tasks"]) == loaded.task_count

def test_fingerprint_distinguishes_task_sets(tasks):
    assert task_set_fingerprint(tasks) == task_set_fingerprint(list(tasks))
    assert task_set_fingerprint(tasks[:10]) != task_set_fingerprint(tasks[10:20])

def test_compare_single_report_echoes_it():
    r = EvalReport(np.array([0.5, 0.6]), learner_id="only", fingerprint="f")
    rows = compare([r])
    assert len(rows) == 1 and rows[0].learner_id == "only"

def test_compare_flags_overlap_and_orders_by_mean():
    f = "shared"
    strong = EvalReport(np.full(100, 0.9), learner_id="strong", fingerprint=f)
    weak = EvalReport(np.linspace(0.1, 0.3, 100), learner_id="weak", fingerprint=f)
    close = EvalReport(np.linspace(0.05, 0.35, 100), learner_id="close", fingerprint=f)
    rows = compare([weak, strong, close])
    assert [r.learner_id for r in rows] == ["strong", "weak", "close"]
    strong_row = rows[0]
    assert strong_row.overlaps_with == []  # disjoint -> significant
    weak_row = rows[1]
    assert "close" in weak_row.overlaps_with
    table = format_comparison(rows)
    assert "strong" in table.splitlines()[1]

def test_compare_rejects_mismatched_fingerprints():
    a = EvalReport(np.array([0.5]), learner_id="a", fingerprint="x")
    b = EvalReport(np.array([0.5]), learner_id="b", fingerprint="y")
    with pytest.raises(ConfigError, match="incomparable"):
        compare([a, b])
