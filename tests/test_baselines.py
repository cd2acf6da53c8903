import numpy as np
import pytest

from helpers import (reference_cluster_matching, reference_knn,
                     sample_supervised_task)
from metafew.baselines import (cluster_matching_classify, cluster_membership,
                               knn_classify, linear_fit, linear_predict,
                               mlp_dropout_fit, mlp_dropout_predict,
                               train_from_scratch)
from metafew.data import SplitSpec, split_dataset, synth_mixture
from metafew.errors import ConfigError, DataError, NumericError, ShapeError
from metafew.learners import make_learner
from metafew.partition import (Partition, generate_partitions, kmeans,
                               nearest_centroids, partition_from_labels)
from metafew.tasks import (TaskStreamConfig, make_supervised_task_stream,
                           stack_tasks)
from test_metalearn import toy_task


# -- knn ---------------------------------------------------------------------

def test_knn_query_on_train_point_returns_its_label():
    rng = np.random.default_rng(0)
    x = rng.standard_normal((10, 4))
    y = rng.integers(0, 3, 10)
    pred = knn_classify(x, y, x[4:5], k_nn=1)
    assert pred[0] == y[4]

def test_knn_majority_vote():
    x = np.array([[0.0], [0.1], [5.0]])
    y = np.array([0, 0, 1])
    assert knn_classify(x, y, np.array([[0.05]]), k_nn=3)[0] == 0

def test_knn_with_all_points_is_global_plurality():
    x = np.concatenate([np.zeros((4, 2)), np.ones((3, 2)) * 9])
    y = np.array([0] * 4 + [1] * 3)
    pred = knn_classify(x, y, np.array([[100.0, 100.0]]), k_nn=7)
    assert pred[0] == 0  # 4 votes beat 3 regardless of distance

def test_knn_tie_breaks_by_summed_distance_then_label():
    x = np.array([[0.0], [2.0]])
    y = np.array([1, 0])
    # one vote each; label 1 is closer to the query at 0.5
    assert knn_classify(x, y, np.array([[0.5]]), k_nn=2)[0] == 1
    # perfectly symmetric: lower label index wins
    assert knn_classify(x, y, np.array([[1.0]]), k_nn=2)[0] == 0

def test_knn_matches_brute_force_single_neighbor():
    rng = np.random.default_rng(1)
    x = rng.standard_normal((30, 3))
    y = rng.integers(0, 4, 30)
    q = rng.standard_normal((12, 3))
    pred = knn_classify(x, y, q, k_nn=1)
    for i in range(12):
        d = ((x - q[i]) ** 2).sum(axis=1)
        assert pred[i] == y[d.argmin()]

def test_knn_validates_inputs():
    with pytest.raises(DataError):
        knn_classify(np.zeros((0, 2)), np.zeros(0, dtype=int), np.zeros((1, 2)), 1)
    with pytest.raises(ConfigError):
        knn_classify(np.zeros((3, 2)), np.zeros(3, dtype=int), np.zeros((1, 2)), 5)
    with pytest.raises(ShapeError):
        knn_classify(np.zeros((2, 3, 2)), np.zeros((2, 3), dtype=int),
                     np.zeros((3, 1, 2)), 1)

def test_knn_tie_of_eight_votes_each_sums_like_numpy():
    # 16 neighbors, 8 per label: numpy sums 8 values pairwise, not in
    # neighbor order, and here the two orders disagree on the smaller sum
    a = np.array([0.728, 0.781, 1.061, 1.129, 1.136, 1.244, 1.342, 1.379])
    b = a.copy()
    b[1], b[5] = np.nextafter(b[1], 2.0), np.nextafter(b[5], 0.0)
    x = np.concatenate([a, b])[:, None]
    y = np.repeat([0, 1], 8)
    q = np.zeros((1, 1))
    assert reference_knn(x, y, q, 16)[0] == 1
    assert knn_classify(x, y, q, 16)[0] == 1
    assert knn_classify(x[None], y[None], q[None], 16)[0, 0] == 1

@pytest.mark.parametrize("B", [1, 3, 8])
@pytest.mark.parametrize("k_nn", [1, 3, 5, 7, 8, 16])
@pytest.mark.parametrize("grid", [True, False])
def test_stacked_knn_equals_per_query_reference(B, k_nn, grid):
    # a small integer grid gives equally distant neighbors; 16 neighbors of
    # two balanced labels always tie, with 8 distances summed per label
    rng = np.random.default_rng(100 + k_nn)
    labels = 2 if k_nn >= 8 else 3
    y = np.stack([rng.permutation(np.arange(16) % labels) for _ in range(B)])
    if grid:
        x = rng.integers(-2, 3, (B, 16, 2)).astype(float)
        q = rng.integers(-2, 3, (B, 12, 2)).astype(float)
    else:
        x, q = rng.standard_normal((B, 16, 3)), rng.standard_normal((B, 12, 3))
    got = knn_classify(x, y, q, k_nn)
    assert got.shape == (B, 12)
    ties = 0
    for b in range(B):
        want = reference_knn(x[b], y[b], q[b], k_nn)
        assert np.array_equal(got[b], want)
        assert np.array_equal(knn_classify(x[b], y[b], q[b], k_nn), want)
        for i in range(12):
            d2 = ((x[b] - q[b, i]) ** 2).sum(axis=1)
            votes = np.bincount(y[b][np.argsort(d2, kind="stable")[:k_nn]])
            ties += (votes == votes.max()).sum() > 1
    if k_nn > 1:
        assert ties > 0


# -- linear classifier ------------------------------------------------------------

def test_linear_separable_task_reaches_full_train_accuracy():
    rng = np.random.default_rng(2)
    x = np.concatenate([rng.standard_normal((10, 3)) + 4.0,
                        rng.standard_normal((10, 3)) - 4.0])
    y = np.array([0] * 10 + [1] * 10)
    model = linear_fit(x, y, 2)
    assert np.array_equal(linear_predict(model, x), y)

def test_linear_duplicate_training_point_as_query():
    rng = np.random.default_rng(3)
    x = np.concatenate([rng.standard_normal((8, 2)) + 3.0,
                        rng.standard_normal((8, 2)) - 3.0])
    y = np.array([0] * 8 + [1] * 8)
    model = linear_fit(x, y, 2)
    assert linear_predict(model, x[3:4])[0] == 0

def test_linear_identical_embeddings_collapse_to_one_class():
    x = np.ones((6, 3))
    y = np.array([0, 1, 2, 0, 1, 2])
    model = linear_fit(x, y, 3)
    pred = linear_predict(model, np.ones((4, 3)))
    assert np.unique(pred).size == 1

def test_linear_requires_enough_examples():
    with pytest.raises(ConfigError):
        linear_fit(np.zeros((2, 2)), np.array([0, 1]), 3)


# -- dropout MLP ---------------------------------------------------------------------

def test_mlp_dropout_zero_matches_plain_training():
    rng = np.random.default_rng(4)
    x = rng.standard_normal((20, 3))
    y = rng.integers(0, 2, 20)
    a = mlp_dropout_fit(x, y, 2, np.random.default_rng(7), dropout=0.0, steps=50)
    b = mlp_dropout_fit(x, y, 2, np.random.default_rng(7), dropout=0.0, steps=50)
    q = rng.standard_normal((10, 3))
    assert np.array_equal(mlp_dropout_predict(a, q), mlp_dropout_predict(b, q))
    # identical trajectories: weights agree exactly
    for la, lb in zip(a.params.layers, b.params.layers):
        assert np.array_equal(la.weights, lb.weights)

def test_mlp_hidden_width_default_is_128():
    rng = np.random.default_rng(5)
    x = rng.standard_normal((12, 4))
    y = rng.integers(0, 3, 12)
    model = mlp_dropout_fit(x, y, 3, np.random.default_rng(8), steps=5)
    assert model.params.layers[0].weights.shape == (4, 128)

def test_inverted_dropout_preserves_expected_preactivation():
    rng = np.random.default_rng(6)
    h = rng.uniform(0.5, 1.5, size=(1, 64))
    w2 = rng.uniform(0.5, 1.5, size=(64, 3))
    keep = 0.5
    masks = (np.random.default_rng(9).random((10000, 64)) < keep) / keep
    mc = ((h * masks) @ w2).mean(axis=0)
    expected = (h @ w2)[0]
    assert np.abs(mc - expected).max() <= 0.01 * np.abs(expected).min()

def test_mlp_learns_separable_task():
    rng = np.random.default_rng(10)
    x = np.concatenate([rng.standard_normal((15, 3)) + 3.0,
                        rng.standard_normal((15, 3)) - 3.0])
    y = np.array([0] * 15 + [1] * 15)
    model = mlp_dropout_fit(x, y, 2, np.random.default_rng(11), dropout=0.3, steps=200)
    assert (mlp_dropout_predict(model, x) == y).mean() >= 0.95


# -- cluster matching ---------------------------------------------------------------

@pytest.fixture(scope="module")
def separable():
    return synth_mixture(10, 20, 6, 4, noise=0.05, seed=20)

def test_supervised_partition_matching_is_perfect(separable):
    part = partition_from_labels(separable)
    membership = cluster_membership(part, separable.embeddings)
    rng = np.random.default_rng(21)
    for _ in range(10):
        task = sample_supervised_task(separable, "meta-train", 5, 1, 5, rng,
                                      input_repr="embedding")
        pred = cluster_matching_classify(part, membership, task)
        assert np.array_equal(pred, task.query_labels_int())

def test_query_in_unlabeled_cluster_falls_through_to_nearest_labeled():
    # three clusters; train shots label clusters 0 and 2 only; cluster 1's
    # centroid is nearer to cluster 0's; row 6 is in no cluster
    assignment = np.array([0, 0, 1, 1, 2, 2, -1])
    centroids = np.array([[0.0], [1.0], [5.0]])
    part = Partition(assignment=assignment, centroids=centroids, provenance="kmeans")
    embeddings = np.array([[0.0], [0.0], [1.0], [1.0], [5.0], [5.0], [4.9]])
    membership = cluster_membership(part, embeddings)
    assert np.array_equal(membership, [0, 0, 1, 1, 2, 2, 2])
    task = toy_task(np.random.default_rng(22), n_way=2, k=1, q=1, d=1)
    task.train_indices = np.array([0, 4])   # clusters 0 and 2
    task.query_indices = np.array([2, 6])   # cluster 1, and the unassigned row
    task.train_y = np.eye(2)
    task.query_y = np.eye(2)
    pred = cluster_matching_classify(part, membership, task)
    assert pred[0] == 0  # unlabeled cluster 1 -> nearest labeled centroid 0
    assert pred[1] == 1  # unassigned row -> nearest centroid 2 -> label 1
    # labeled centroids equally far from cluster 1: the lower cluster wins,
    # whichever shot comes first
    part.centroids = np.array([[0.0], [1.0], [2.0]])
    task.train_indices = np.array([4, 0])   # clusters 2 and 0
    assert cluster_matching_classify(part, membership, task)[0] == 1

def test_all_shots_discarded_is_an_error():
    part = Partition(assignment=np.array([-1, -1, 0, 0]), provenance="hyperplane")
    task = toy_task(np.random.default_rng(23), n_way=2, k=1, q=1, d=1)
    task.train_indices = np.array([0, 1])
    task.query_indices = np.array([2, 3])
    membership = cluster_membership(part, np.zeros((4, 1)))
    with pytest.raises(DataError, match="labeled"):
        cluster_matching_classify(part, membership, task)

def test_matching_high_accuracy_with_true_cluster_count(separable):
    rows = separable.split_indices("meta-train")
    part = kmeans(separable.embeddings[rows], 10, seed=24, plusplus=True,
                  restarts=8)
    membership = cluster_membership(part, separable.embeddings[rows])
    rng = np.random.default_rng(25)
    accs = []
    for _ in range(30):
        task = sample_supervised_task(separable, "meta-train", 10, 1, 5, rng,
                                      input_repr="embedding")
        pred = cluster_matching_classify(part, membership, task)
        accs.append((pred == task.query_labels_int()).mean())
    assert np.mean(accs) >= 0.95


@pytest.fixture(scope="module")
def split_mixture():
    """Meta-train rows are clustered; the other splits' rows are in no
    cluster and go to their nearest centroid."""
    ds = synth_mixture(12, 15, 5, 4, noise=0.4, seed=30)
    return split_dataset(ds, SplitSpec("by_fraction", fractions=(0.6, 0.1, 0.3)),
                         np.random.default_rng(31))

@pytest.fixture(scope="module")
def split_kmeans(split_mixture):
    return generate_partitions(split_mixture, 1, 20, seed=32)[0]

def split_tasks(ds, split, count, k_shot=1, seed=33):
    cfg = TaskStreamConfig(tasks=count, n_way=3, k_shot=k_shot, q_queries=4,
                           seed=seed, split=split, input_repr="embedding")
    return list(make_supervised_task_stream(cfg, ds))

@pytest.mark.parametrize("B", [1, 3, 8])
@pytest.mark.parametrize("split", ["meta-train", "meta-test"])
def test_stacked_cluster_matching_equals_per_point_reference(
        split_mixture, split_kmeans, B, split):
    ds, part = split_mixture, split_kmeans
    tasks = split_tasks(ds, split, B)
    membership = cluster_membership(part, ds.embeddings)
    got = cluster_matching_classify(part, membership, stack_tasks(tasks))
    assert got.shape == (B, 12)
    for task, row in zip(tasks, got):
        want = reference_cluster_matching(part, task, ds.embeddings)
        assert np.array_equal(row, want)
        assert np.array_equal(cluster_matching_classify(part, membership, task), want)
    if split == "meta-test":
        assert (part.assignment[tasks[0].query_indices] < 0).all()
    fallbacks = sum(np.isin(membership[t.query_indices],
                            membership[t.train_indices], invert=True).sum()
                    for t in tasks)
    assert fallbacks > 0  # queries in unlabeled clusters

def test_stacked_cluster_matching_without_centroids(split_mixture):
    ds = split_mixture
    part = partition_from_labels(ds, "meta-train")
    part.centroids = None
    membership = cluster_membership(part, ds.embeddings)
    assert np.array_equal(membership, part.assignment)
    tasks = split_tasks(ds, "meta-train", 3, k_shot=2)
    # a shot in no cluster does not vote; its class keeps its other shot
    tasks[1].train_indices = tasks[1].train_indices.copy()
    tasks[1].train_indices[0] = ds.split_indices("meta-test")[0]
    got = cluster_matching_classify(part, membership, stack_tasks(tasks))
    for task, row in zip(tasks, got):
        assert np.array_equal(row, reference_cluster_matching(part, task, ds.embeddings))
        assert np.array_equal(row, task.query_labels_int())
    # a query in no cluster has no centroid to fall back on
    tasks[2].query_indices = tasks[2].query_indices.copy()
    tasks[2].query_indices[0] = ds.split_indices("meta-test")[0]
    with pytest.raises(DataError, match="fall back"):
        cluster_matching_classify(part, membership, stack_tasks(tasks))

def test_one_task_of_a_stack_with_every_shot_discarded_is_an_error(
        split_mixture, split_kmeans):
    ds = split_mixture
    part = Partition(split_kmeans.assignment, provenance="hyperplane")
    tasks = split_tasks(ds, "meta-train", 3)
    tasks[1].train_indices = ds.split_indices("meta-test")[:3]
    membership = cluster_membership(part, ds.embeddings)
    with pytest.raises(DataError, match="labeled"):
        cluster_matching_classify(part, membership, stack_tasks(tasks))

def test_partition_of_another_size_is_a_data_error(split_mixture, split_kmeans):
    ds = split_mixture
    with pytest.raises(DataError, match="rows"):
        cluster_membership(split_kmeans, ds.embeddings[:-1])
    with pytest.raises(DataError, match="rows"):
        make_learner("cluster-match", synth_mixture(3, 5, 5, 4, 0.1, seed=34),
                     partition=split_kmeans)

def test_nearest_centroids_equals_brute_force_argmin():
    rng = np.random.default_rng(35)
    points = rng.standard_normal((300, 6))
    centroids = rng.standard_normal((70, 6))
    centroids[50] = centroids[20]  # a tie goes to the lower index
    points[:5] = centroids[20]
    scaling = 1.0 - rng.random(6)
    got = nearest_centroids(points, centroids, scaling)
    brute = (scaling * (points[:, None, :] - centroids[None]) ** 2).sum(axis=-1)
    assert np.array_equal(got, brute.argmin(axis=1))
    assert (got[:5] == 20).all()
    plain = ((points[:, None, :] - centroids[None]) ** 2).sum(axis=-1)
    assert np.array_equal(nearest_centroids(points, centroids), plain.argmin(axis=1))
    with pytest.raises(ShapeError):
        nearest_centroids(points, centroids[:, :5])
    with pytest.raises(ShapeError):
        nearest_centroids(points, centroids, scaling[:5])


# -- training from scratch --------------------------------------------------------------

def test_scratch_zero_steps_is_chance_level(separable):
    cfg = TaskStreamConfig(tasks=200, n_way=4, k_shot=1, q_queries=5, seed=26)
    tasks = list(make_supervised_task_stream(cfg, separable))
    rng = np.random.default_rng(27)
    accs = [
        (train_from_scratch(t, rng, steps=0) == t.query_labels_int()).mean()
        for t in tasks
    ]
    assert abs(np.mean(accs) - 0.25) < 0.05

def test_scratch_separable_task_reaches_full_train_accuracy():
    from metafew.metalearn import maml_adapt, build_maml_model
    from metafew.network import forward
    rng = np.random.default_rng(28)
    task = toy_task(rng, n_way=2, k=5, separation=4.0)
    params = build_maml_model(3, 2, rng)
    adapted = maml_adapt(params, task, inner_lr=0.05, steps=100)
    assert (forward(adapted, task.train_x).argmax(axis=1)
            == task.train_labels_int()).all()

def test_scratch_deterministic_given_rng():
    task = toy_task(np.random.default_rng(29), n_way=3, k=2, q=4)
    a = train_from_scratch(task, np.random.default_rng(30), steps=10)
    b = train_from_scratch(task, np.random.default_rng(30), steps=10)
    assert np.array_equal(a, b)


# -- stacked fits: B tasks in one pass equal B 2-d fits -----------------------------

def stacked_inputs(seed, B, n=10, d=6, classes=4):
    rng = np.random.default_rng(seed)
    # per-task scales make the tasks converge at different speeds
    x = rng.standard_normal((B, n, d)) * rng.uniform(0.3, 3.0, (B, 1, 1))
    y = np.stack([rng.permutation(np.arange(n) % classes) for _ in range(B)])
    return x, y, classes

@pytest.mark.parametrize("B", [1, 3, 8])
def test_stacked_linear_fit_equals_per_task_fits(B):
    x, y, c = stacked_inputs(40, B)
    model = linear_fit(x, y, c, max_iter=200)
    pred = linear_predict(model, x)
    for i in range(B):
        ref = linear_fit(x[i], y[i], c, max_iter=200)
        assert model.weights[i].tobytes() == ref.weights.tobytes()
        assert model.bias[i].tobytes() == ref.bias.tobytes()
        assert model.task_iters[i] == ref.n_iter
        assert np.array_equal(pred[i], linear_predict(ref, x[i]))
    assert model.n_iter == model.task_iters.max()

def test_stacked_linear_fit_stops_each_task_at_its_own_iteration():
    x, y, c = stacked_inputs(41, 8)
    kw = dict(max_iter=800, tol=1e-2)
    model = linear_fit(x, y, c, **kw)
    refs = [linear_fit(x[i], y[i], c, **kw) for i in range(8)]
    iters = [r.n_iter for r in refs]
    # the stack mixes tasks reaching tol at different iterations with tasks
    # stopped by the cap
    assert kw["max_iter"] in iters and len(set(iters)) >= 4
    assert model.task_iters.tolist() == iters
    for i, ref in enumerate(refs):
        assert model.weights[i].tobytes() == ref.weights.tobytes()
        assert model.bias[i].tobytes() == ref.bias.tobytes()

def test_divergence_in_one_task_of_a_stack_raises():
    x, y, c = stacked_inputs(42, 3)
    x[1] *= 1e306  # task 1 overflows within a few iterations; the others do not
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(NumericError, match="diverged"):
            linear_fit(x, y, c)
        with pytest.raises(NumericError):
            linear_fit(x[1], y[1], c)
        linear_fit(np.delete(x, 1, axis=0), np.delete(y, 1, axis=0), c)

@pytest.mark.parametrize("B", [1, 3, 8])
@pytest.mark.parametrize("dropout", [0.5, 0.0])
def test_stacked_mlp_fit_equals_per_task_fits(B, dropout):
    x, y, c = stacked_inputs(43, B)
    model = mlp_dropout_fit(x, y, c, [np.random.default_rng(50 + i) for i in range(B)],
                            hidden=16, dropout=dropout, steps=25)
    pred = mlp_dropout_predict(model, x)
    for i in range(B):
        ref = mlp_dropout_fit(x[i], y[i], c, np.random.default_rng(50 + i),
                              hidden=16, dropout=dropout, steps=25)
        for got, want in zip(model.params.layers, ref.params.layers):
            assert got.weights[i].tobytes() == want.weights.tobytes()
            assert got.bias[i].tobytes() == want.bias.tobytes()
        assert np.array_equal(pred[i], mlp_dropout_predict(ref, x[i]))

def test_stacked_fit_needs_one_generator_per_task():
    x, y, c = stacked_inputs(44, 3)
    with pytest.raises(ShapeError, match="generators"):
        mlp_dropout_fit(x, y, c, [np.random.default_rng(0)] * 2, steps=1)

@pytest.mark.parametrize("B", [1, 3, 8])
def test_stacked_train_from_scratch_equals_per_task_calls(B, separable):
    cfg = TaskStreamConfig(tasks=B, n_way=4, k_shot=2, q_queries=3, seed=45)
    tasks = list(make_supervised_task_stream(cfg, separable))
    got = train_from_scratch(stack_tasks(tasks),
                             [np.random.default_rng(60 + i) for i in range(B)],
                             hidden=(16, 12), steps=15)
    for i, task in enumerate(tasks):
        want = train_from_scratch(task, np.random.default_rng(60 + i),
                                  hidden=(16, 12), steps=15)
        assert np.array_equal(got[i], want)
