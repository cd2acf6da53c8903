from dataclasses import fields

import numpy as np
import pytest

from helpers import (reference_clusters, reference_task_from_partition,
                     sample_supervised_task)
from metafew.data import DataSet, synth_mixture
from metafew.errors import ConfigError, DataError, InfeasibleError, TaskRejected
from metafew.partition import (Partition, generate_partitions, partition_from_labels,
                               random_partition)
from metafew.tasks import (Task, TaskStreamConfig, eligible_clusters,
                           make_task_stream,
                           read_task_manifest, sample_attribute_task,
                           sample_eligible_attribute_task,
                           sample_task_from_partition, validate_task,
                           write_task_manifest)


@pytest.fixture(scope="module")
def ds():
    return synth_mixture(8, 30, 5, 3, noise=0.3, seed=70)


@pytest.fixture(scope="module")
def partitions(ds):
    return generate_partitions(ds, 3, 8, seed=71)


# -- single-task sampling ------------------------------------------------------

def test_exact_fit_uses_every_member(ds):
    # the first three label clusters, shrunk to exactly R members
    r = 4
    assignment = np.full(ds.n, -1, dtype=np.int64)
    for c, members in enumerate(partition_from_labels(ds).clusters[:3]):
        assignment[members[:r]] = c
    part = Partition(assignment, provenance="supervised")
    rng = np.random.default_rng(72)
    task = sample_task_from_partition(part, 3, 1, 3, rng, ds)
    used = np.sort(np.concatenate([task.train_indices, task.query_indices]))
    expect = np.sort(np.concatenate(part.clusters))
    assert np.array_equal(used, expect)

@pytest.mark.parametrize("input_repr", ["raw", "embedding"])
def test_sampled_task_equals_cluster_by_cluster_reference(ds, partitions, input_repr):
    for part in (partitions[0], partition_from_labels(ds, "meta-train")):
        for seed in range(5):
            got = sample_task_from_partition(part, 3, 2, 3, np.random.default_rng(seed),
                                             ds, input_repr, split="meta-train")
            want = reference_task_from_partition(
                reference_clusters(part.assignment), 3, 2, 3,
                np.random.default_rng(seed), ds, input_repr, split="meta-train")
            for f in fields(Task):
                a, b = getattr(got, f.name), getattr(want, f.name)
                if isinstance(b, np.ndarray):
                    assert (a.dtype, a.shape, a.tobytes()) == (b.dtype, b.shape, b.tobytes())
                else:
                    assert a == b

def test_counts_two_way(ds, partitions):
    rng = np.random.default_rng(73)
    task = sample_task_from_partition(partitions[0], 2, 1, 5, rng, ds)
    assert task.train_x.shape[0] == 2
    assert task.query_x.shape[0] == 10
    validate_task(task, ds)

def test_paper_scale_episode_shape():
    ds20 = synth_mixture(25, 8, 4, 3, noise=0.2, seed=74)
    part = partition_from_labels(ds20)
    rng = np.random.default_rng(75)
    task = sample_task_from_partition(part, 20, 1, 5, rng, ds20)
    assert task.train_x.shape == (20, 4)
    assert task.query_x.shape == (100, 4)
    validate_task(task, ds20)

def test_infeasible_partition_reports_counts(ds):
    part = random_partition(ds.n, 40, np.random.default_rng(76))
    with pytest.raises(InfeasibleError, match="clusters"):
        sample_task_from_partition(part, 30, 5, 20, np.random.default_rng(0), ds)

def test_embedding_input_repr(ds, partitions):
    rng = np.random.default_rng(77)
    task = sample_task_from_partition(partitions[0], 3, 2, 2, rng, ds,
                                      input_repr="embedding")
    assert task.train_x.shape[1] == ds.d_z
    validate_task(task, ds)


# -- streams ----------------------------------------------------------------------

def test_single_partition_stream_equals_partition_sampling(ds, partitions):
    cfg = TaskStreamConfig(tasks=5, n_way=3, k_shot=1, q_queries=2, seed=78)
    stream_tasks = list(make_task_stream(cfg, [partitions[0]], ds))
    assert len(stream_tasks) == 5
    for t in stream_tasks:
        assert t.partition_index == 0
        validate_task(t, ds)

def test_stream_deterministic(ds, partitions):
    cfg = TaskStreamConfig(tasks=6, n_way=3, k_shot=1, q_queries=2, seed=79)
    a = list(make_task_stream(cfg, partitions, ds))
    b = list(make_task_stream(cfg, partitions, ds))
    for ta, tb in zip(a, b):
        assert np.array_equal(ta.train_indices, tb.train_indices)
        assert np.array_equal(ta.label_perm, tb.label_perm)
        assert ta.task_seed == tb.task_seed

def test_partition_choice_roughly_uniform(ds, partitions):
    cfg = TaskStreamConfig(tasks=10000, n_way=2, k_shot=1, q_queries=1, seed=80)
    counts = np.zeros(len(partitions))
    for t in make_task_stream(cfg, partitions, ds):
        counts[t.partition_index] += 1
    freq = counts / counts.sum()
    assert np.abs(freq - 1 / len(partitions)).max() < 0.02

def test_infeasible_partitions_warn_and_all_excluded_errors(ds, partitions):
    tiny = random_partition(ds.n, 200, np.random.default_rng(81))
    cfg = TaskStreamConfig(tasks=3, n_way=3, k_shot=1, q_queries=7, seed=82)
    with pytest.warns(UserWarning, match="excluded"):
        tasks = list(make_task_stream(cfg, [partitions[0], tiny], ds))
    assert all(t.partition_index == 0 for t in tasks)
    big = TaskStreamConfig(tasks=3, n_way=3, k_shot=40, q_queries=40, seed=83)
    with pytest.warns(UserWarning), pytest.raises(ConfigError, match="infeasible"):
        make_task_stream(big, partitions, ds)

def test_hyperplane_streams_hold_partition_for_blocks(ds):
    parts = generate_partitions(ds, 6, seed=84, method="hyperplane", n_way=3,
                                margin=0.0, r_min=3, pool_size=32)
    cfg = TaskStreamConfig(tasks=250, n_way=3, k_shot=1, q_queries=2, seed=85)
    tasks = list(make_task_stream(cfg, parts, ds))
    first_block = {t.partition_index for t in tasks[:100]}
    second_block = {t.partition_index for t in tasks[100:200]}
    assert len(first_block) == 1 and len(second_block) == 1
    for t in tasks[:20]:
        validate_task(t, ds, partition=parts[t.partition_index])


# -- supervised and attribute tasks ---------------------------------------------------

def test_supervised_task_uses_all_classes_at_full_way(ds):
    rng = np.random.default_rng(86)
    task = sample_supervised_task(ds, "meta-train", 8, 1, 2, rng)
    assert np.unique(task.source_ids).size == 8
    validate_task(task, ds)

def test_task_labels_decouple_from_dataset_labels(ds):
    t1 = sample_supervised_task(ds, "meta-train", 4, 1, 2, np.random.default_rng(87))
    t2 = sample_supervised_task(ds, "meta-train", 4, 1, 2, np.random.default_rng(97))
    # same generator protocol, different permutations across seeds
    assert not np.array_equal(t1.label_perm, t2.label_perm) or \
        not np.array_equal(t1.source_ids, t2.source_ids)

def attribute_dataset(n=200, seed=88):
    rng = np.random.default_rng(seed)
    attrs = rng.integers(0, 2, (n, 6)).astype(bool)
    return DataSet(raw=rng.standard_normal((n, 3)), attributes=attrs)

def test_attribute_task_counts_and_patterns():
    ds = attribute_dataset()
    rng = np.random.default_rng(89)
    task = sample_attribute_task(ds, "meta-train", [0, 2, 4], [True, False, True],
                                 5, 5, rng)
    assert task.n_way == 2
    assert task.train_x.shape[0] == 10 and task.query_x.shape[0] == 10
    validate_task(task, ds)
    pattern = ds.attributes[task.train_indices][:, [0, 2, 4]]
    slot = task.train_y.argmax(axis=1)
    class0 = pattern[slot == task.label_perm[0]]
    class1 = pattern[slot == task.label_perm[1]]
    assert np.all(class0 == [True, False, True])
    assert np.all(class1 == [False, True, False])

def test_attribute_task_rejection_signal():
    ds = attribute_dataset(n=12)
    with pytest.raises(TaskRejected):
        sample_attribute_task(ds, "meta-train", [0, 1, 2], [True, True, True],
                              5, 5, np.random.default_rng(90))

def test_engineered_attributes_partition_all_rows():
    rng = np.random.default_rng(91)
    half = np.zeros((40, 3), dtype=bool)
    half[20:] = True  # rows match (F,F,F) or (T,T,T) exactly
    ds = DataSet(raw=rng.standard_normal((40, 2)), attributes=half)
    task = sample_attribute_task(ds, "meta-train", [0, 1, 2],
                                 [False, False, False], 2, 2, rng)
    used = np.concatenate([task.train_indices, task.query_indices])
    assert used.size == 8
    validate_task(task, ds)

def test_eligible_attribute_resampling():
    ds = attribute_dataset(n=400, seed=92)
    task = sample_eligible_attribute_task(ds, "meta-train", 5, 5,
                                          np.random.default_rng(93))
    validate_task(task, ds)

@pytest.mark.parametrize("pool, error, message", [
    ([0, 1, 6], ConfigError, "attribute index 6 outside 0..5"),
    ([0, 1, -1], ConfigError, "attribute index -1 outside 0..5"),
    ([0, 1], ConfigError, "at least 3 indices"),
    (None, DataError, "attribute tasks require attributes"),
])
def test_eligible_attribute_task_checks_its_pool(pool, error, message):
    ds = attribute_dataset() if error is ConfigError else DataSet(raw=np.zeros((4, 2)))
    with pytest.raises(error, match=message):
        sample_eligible_attribute_task(ds, "meta-train", 1, 1,
                                       np.random.default_rng(94), attr_pool=pool)


# -- invariants ----------------------------------------------------------------------

def test_every_stream_task_validates_across_provenances(ds, partitions):
    rng = np.random.default_rng(98)
    rnd = [random_partition(ds.n, 10, rng) for _ in range(2)]
    hyp = generate_partitions(ds, 2, seed=99, method="hyperplane", n_way=3,
                              margin=0.05, r_min=4, pool_size=32)
    sup = [partition_from_labels(ds)]
    for parts in (partitions, rnd, hyp, sup):
        cfg = TaskStreamConfig(tasks=40, n_way=3, k_shot=1, q_queries=3, seed=100)
        for t in make_task_stream(cfg, parts, ds):
            validate_task(t, ds, partition=parts[t.partition_index])

def test_label_permutation_uniform_over_slots(ds, partitions):
    cfg = TaskStreamConfig(tasks=4000, n_way=2, k_shot=1, q_queries=1, seed=101)
    hits = sum(int(t.label_perm[0] == 0) for t in make_task_stream(cfg, [partitions[0]], ds))
    assert abs(hits / 4000 - 0.5) < 0.03

def test_eligibility_monotone_in_queries(partitions):
    part = partitions[0]
    counts = [eligible_clusters(part, 1 + q).size for q in range(1, 40)]
    assert all(a >= b for a, b in zip(counts, counts[1:]))

def test_within_task_indices_unique_across_many_draws(ds, partitions):
    cfg = TaskStreamConfig(tasks=300, n_way=4, k_shot=2, q_queries=3, seed=102)
    for t in make_task_stream(cfg, partitions, ds):
        idx = np.concatenate([t.train_indices, t.query_indices])
        assert np.unique(idx).size == idx.size


# -- manifest ---------------------------------------------------------------------------

def test_manifest_round_trip(tmp_path, ds, partitions):
    cfg = TaskStreamConfig(tasks=12, n_way=3, k_shot=2, q_queries=4, seed=103)
    tasks = list(make_task_stream(cfg, partitions, ds))
    path = tmp_path / "tasks.txt"
    write_task_manifest(tasks, path, dataset_ref="ds.emb1", config_text="seed=103")
    loaded = read_task_manifest(path, ds)
    assert len(loaded) == len(tasks)
    for a, b in zip(tasks, loaded):
        assert np.array_equal(a.train_indices, b.train_indices)
        assert np.array_equal(a.query_indices, b.query_indices)
        assert np.array_equal(a.label_perm, b.label_perm)
        assert np.array_equal(a.train_x, b.train_x)
        assert a.task_seed == b.task_seed
        validate_task(b, ds)
