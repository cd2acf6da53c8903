import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import metafew
import metafew.partition as partition_module
from metafew import ioutil
from helpers import (brute_force_two_means, reference_assign, reference_centroids,
                     reference_clusters, reference_hyperplane_partition,
                     reference_label_clusters, reference_lifted_clusters,
                     scaled_objective)
from metafew.data import DataSet, synth_mixture
from metafew.errors import ConfigError, DataError, InfeasibleError, ShapeError
from metafew.ioutil import stable_rng
from metafew.partition import (Hyperplane, _lift, generate_partitions,
                               hyperplane_partition, kmeans, load_partition,
                               partition_by_hyperplanes, partition_from_labels,
                               random_partition, sample_hyperplanes, save_partition,
                               signed_distance)


def split_all_train(ds):
    return ds  # synth_mixture tags everything meta-train already


# -- k-means ---------------------------------------------------------------------

def test_k_equals_n_gives_zero_objective():
    rng = np.random.default_rng(0)
    pts = rng.standard_normal((6, 2))
    part = kmeans(pts, 6, seed=1)
    assert part.objective == pytest.approx(0.0, abs=1e-12)
    assert sorted(len(c) for c in part.clusters) == [1] * 6
    part.validate()

def test_two_cluster_line_instance():
    pts = np.array([[0.0], [1.0], [10.0], [11.0]])
    part = kmeans(pts, 2, seed=2)
    groups = sorted(tuple(sorted(c)) for c in part.clusters)
    assert groups == [(0, 1), (2, 3)]
    assert part.objective == pytest.approx(1.0, rel=1e-12)
    assert sorted(part.centroids[:, 0].tolist()) == pytest.approx([0.5, 10.5])
    # brute-force enumeration confirms 1.0 is the optimum
    best, fixed = brute_force_two_means(pts)
    assert best == pytest.approx(1.0)
    assert any(abs(part.objective - f) < 1e-9 for f in fixed)

def test_kmeans_rejects_points_too_large_for_distances_or_non_finite():
    # 200 distinct points: the message once blamed too few distinct points
    pts = np.random.default_rng(5).standard_normal((200, 3))
    kmeans(pts * 1e150, 5, seed=0).validate()
    with pytest.raises(DataError, match=r"entry of magnitude \d\.\d+e\+155; above"):
        kmeans(pts * 1e155, 5, seed=0)
    pts[17, 1] = np.nan
    with pytest.raises(DataError, match="non-finite"):
        kmeans(pts, 5, seed=0)

def test_objective_trace_nonincreasing():
    rng = np.random.default_rng(3)
    pts = rng.standard_normal((200, 5))
    part = kmeans(pts, 8, seed=4)
    trace = part.objective_trace
    assert np.all(np.diff(trace) <= 1e-9)

def test_result_is_fixed_point():
    rng = np.random.default_rng(5)
    pts = rng.standard_normal((100, 3))
    scaling = rng.uniform(0.2, 1.0, 3)
    part = kmeans(pts, 5, scaling=scaling, seed=6)
    d2 = ((pts[:, None, :] - part.centroids[None, :, :]) ** 2 * scaling).sum(axis=2)
    assert np.array_equal(d2.argmin(axis=1), part.assignment)

def test_centroids_are_member_means():
    rng = np.random.default_rng(7)
    pts = rng.standard_normal((60, 4))
    part = kmeans(pts, 4, scaling=rng.uniform(0.1, 1.0, 4), seed=8)
    for c, members in enumerate(part.clusters):
        assert np.allclose(part.centroids[c], pts[members].mean(axis=0))

def test_uniform_scaling_leaves_assignments_identical():
    rng = np.random.default_rng(9)
    pts = rng.standard_normal((80, 3))
    a = kmeans(pts, 5, scaling=np.ones(3), seed=10)
    b = kmeans(pts, 5, scaling=4.0 * np.ones(3), seed=10)
    assert np.array_equal(a.assignment, b.assignment)
    assert b.objective == pytest.approx(4.0 * a.objective, rel=1e-12)

def test_equidistant_tie_breaks_to_lowest_cluster_index():
    # seed 1 initializes centroid 0 at -1 and centroid 1 at +1, so the
    # middle point is exactly equidistant and must join cluster 0
    pts = np.array([[-1.0], [1.0], [0.0]])
    part = kmeans(pts, 2, seed=1, max_iter=1)
    assert part.assignment[2] == 0

def test_infeasible_and_bad_input():
    with pytest.raises(InfeasibleError):
        kmeans(np.zeros((3, 2)), 4, seed=0)
    with pytest.raises(DataError):
        kmeans(np.array([[np.nan, 0.0]]), 1, seed=0)
    with pytest.raises(ConfigError):
        kmeans(np.ones((4, 2)), 2, scaling=np.array([1.0, -1.0]), seed=0)

@pytest.mark.parametrize("entry", [np.nan, np.inf, 0.0, -1.0])
def test_kmeans_scaling_must_be_finite_and_positive(entry):
    pts = np.random.default_rng(3).standard_normal((20, 3))
    with pytest.raises(ConfigError, match="finite and > 0"):
        kmeans(pts, 3, scaling=np.array([entry, 1.0, 1.0]), seed=0)

def test_no_empty_clusters_on_adversarial_instances():
    rng = np.random.default_rng(11)
    for trial in range(30):
        n = int(rng.integers(5, 30))
        k = int(rng.integers(2, min(n, 8)))
        pts = rng.standard_normal((n, 2))
        pts[: n // 2] = pts[0]  # heavy duplication stresses empty repair
        part = kmeans(pts, min(k, np.unique(pts, axis=0).shape[0]), seed=int(rng.integers(1e6)))
        assert all(len(c) > 0 for c in part.clusters)
        part.validate()

# k=250 makes the default block 262 rows, a width at which an unpadded
# product rounds differently at 1 and 2 OpenBLAS threads; 2000 rows leave
# the hyperplane pass a last block of 976, which is padded to 1024
BITS_SCRIPT = """
import hashlib
import numpy as np
from metafew.partition import (kmeans, nearest_centroids, partition_by_hyperplanes,
                               sample_hyperplanes)
rng = np.random.default_rng(0)
pts = rng.standard_normal((2000, 16))
part = kmeans(pts, 250, seed=1, max_iter=30)
near = nearest_centroids(pts, part.centroids, rng.uniform(0.5, 1.0, 16))
planes = sample_hyperplanes(pts, 3, rng)
hyper = partition_by_hyperplanes(pts, planes, margin=0.2, r_min=5)
print(hashlib.sha256(part.assignment.tobytes() + part.objective_trace.tobytes()
                     + near.tobytes() + hyper.assignment.tobytes()).hexdigest())
"""


def test_kmeans_bits_independent_of_blas_threads():
    src = str(Path(metafew.__file__).resolve().parent.parent)
    digests = []
    for threads in ("1", "2"):
        path = [src] + [p for p in [os.environ.get("PYTHONPATH")] if p]
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads,
                   PYTHONPATH=os.pathsep.join(path))
        run = subprocess.run([sys.executable, "-c", BITS_SCRIPT], env=env,
                             capture_output=True, text=True, timeout=120)
        assert run.returncode == 0, run.stderr
        digests.append(run.stdout.strip())
    assert digests[0] == digests[1]

def test_kmeans_bits_independent_of_block_size(monkeypatch):
    pts = np.random.default_rng(0).standard_normal((2000, 16))
    ref = kmeans(pts, 250, seed=1, max_iter=30)
    for rows in (16, 64, 262, 2000):
        monkeypatch.setattr(partition_module, "BLOCK_ELEMS", rows * 250)
        part = kmeans(pts, 250, seed=1, max_iter=30)
        assert np.array_equal(part.assignment, ref.assignment)
        assert part.objective_trace.tobytes() == ref.objective_trace.tobytes()

def assign_cases():
    """(y, centroids) pairs: random rows; rows and centroids with repeats,
    whose distance rounds to <= 0 on several centroids at once; and
    integer-valued ones, whose repeats are exactly 0 apart."""
    rng = np.random.default_rng(5)
    for trial in range(12):
        n, d = int(rng.integers(1, 700)), int(rng.integers(1, 20))
        k = int(rng.integers(1, min(n, 60) + 1))
        y = rng.standard_normal((n, d)) * rng.uniform(0.01, 3, d)
        if trial % 3:
            y[rng.integers(0, n, n // 2)] = y[0]
        centroids = y[rng.choice(n, k, replace=False)].copy()
        if trial % 3 and k > 1:
            centroids[rng.integers(0, k, k // 2)] = centroids[0]
        if trial % 4 == 3:
            y, centroids = np.round(y), np.round(centroids)
        yield y, centroids

def test_assign_equals_six_pass_reference_at_any_block_size(monkeypatch):
    clamped = 0
    for y, centroids in assign_cases():
        sq_y = (y * y).sum(axis=1)
        want, want_d2 = reference_assign(y, sq_y, centroids)
        clamped += int((want_d2 == 0.0).sum())
        for elems in (1, 64 * 7, 1 << 12, 1 << 16):
            monkeypatch.setattr(partition_module, "BLOCK_ELEMS", elems)
            got, got_d2 = partition_module._assign(y, sq_y, centroids)
            assert np.array_equal(got, want)
            assert got_d2.tobytes() == want_d2.tobytes()
    assert clamped > 100  # the minimum <= 0 path ran

def test_assign_clamps_a_nonpositive_minimum_to_first_index_and_plus_zero():
    # a point on two equal centroids rounds to <= 0 on both; as with every
    # entry clamped first, the lower index wins at +0.0 (a -0.0 would too)
    y = np.array([[0.1, 0.7, -0.3], [2.0, 2.0, 2.0]])
    centroids = np.array([[5.0, 5.0, 5.0], y[0], y[0], y[1]])
    assign, min_d2 = partition_module._assign(y, (y * y).sum(axis=1), centroids)
    assert assign.tolist() == [1, 3]
    assert min_d2.tolist() == [0.0, 0.0] and not np.signbit(min_d2).any()

def test_member_means_have_the_bits_of_per_cluster_means():
    rng = np.random.default_rng(6)
    for d in (1, 2, 64):
        for n, k in ((9, 3), (3000, 40)):
            y = rng.standard_normal((n, d)) * 100 + rng.uniform(-50, 50, d)
            y[rng.integers(0, n, n // 3)] = -0.0
            assign = np.concatenate([np.arange(k), rng.integers(0, k, n - k)])
            assign[: n // 2] = 0  # one large cluster
            want = np.stack([y[assign == c].mean(axis=0) for c in range(k)])
            got = partition_module._member_means(np.ascontiguousarray(y.T), assign, k)
            assert got.tobytes() == want.tobytes()

@pytest.mark.parametrize("seed", range(5))
def test_small_instances_match_brute_force_local_optima(seed):
    rng = np.random.default_rng(200 + seed)
    n = int(rng.integers(4, 9))
    pts = rng.standard_normal((n, 2))
    scaling = rng.uniform(0.2, 1.0, 2)
    part = kmeans(pts, 2, scaling=scaling, seed=int(rng.integers(1e6)))
    recomputed = scaled_objective(pts, part.assignment, scaling)
    assert part.objective <= recomputed + 1e-9
    _, fixed = brute_force_two_means(pts, scaling)
    assert any(abs(part.objective - f) < 1e-9 for f in fixed)


# -- partition generation --------------------------------------------------------

def test_generate_partitions_equal_kmeans_under_their_drawn_metric():
    ds = synth_mixture(5, 20, 4, 3, noise=0.3, seed=30)
    parts = generate_partitions(ds, 2, 5, seed=31)
    for p, part in enumerate(parts):
        rng = stable_rng(31, p)
        direct = kmeans(ds.embeddings, 5, scaling=1.0 - rng.random(3), seed=rng)
        assert np.array_equal(part.assignment, direct.assignment)
        assert np.array_equal(part.scaling, direct.scaling)

def test_generate_partitions_differ_across_indices():
    ds = synth_mixture(6, 25, 4, 3, noise=0.4, seed=32)
    parts = generate_partitions(ds, 2, 6, seed=33)
    assert not np.array_equal(parts[0].assignment, parts[1].assignment)
    for p in parts:
        p.validate()
        assert np.all(p.scaling > 0) and np.all(p.scaling <= 1.0)

def test_generate_partitions_at_paper_count():
    ds = synth_mixture(4, 15, 3, 2, noise=0.3, seed=34)
    parts = generate_partitions(ds, 50, 4, seed=35)
    assert len(parts) == 50

def fields(parts):
    """Every field of every partition, arrays as bytes, for exact equality."""
    return [[(k, v.tobytes() if isinstance(v, np.ndarray) else repr(v))
             for k, v in vars(part).items()] for part in parts]


def test_failed_fork_builds_every_partition_in_process(monkeypatch):
    ds = synth_mixture(5, 20, 4, 3, noise=0.3, seed=30)
    want = fields(generate_partitions(ds, 3, 5, seed=31))

    def no_fork():
        raise OSError("no more processes")

    monkeypatch.setattr(os, "fork", no_fork)
    assert fields(generate_partitions(ds, 3, 5, seed=31, workers=2)) == want


def test_partitions_are_serial_without_a_blas_thread_setter(monkeypatch):
    ds = synth_mixture(5, 20, 4, 3, noise=0.3, seed=30)
    want = fields(generate_partitions(ds, 3, 5, seed=31))

    def fork():
        raise AssertionError("forked without a BLAS thread setter")

    monkeypatch.setattr(partition_module, "openblas_threads", lambda: None)
    monkeypatch.setattr(os, "fork", fork)
    assert fields(generate_partitions(ds, 3, 5, seed=31, workers=2)) == want


def numpy_blas_is_openblas():
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return "openblas" in blas["name"].lower()


def test_openblas_thread_setter_is_found():
    # without it partitions are built serially, which no other test notices
    if not numpy_blas_is_openblas():
        pytest.skip("numpy's BLAS is not OpenBLAS")
    assert ioutil.openblas_threads() is not None


def test_forked_parts_run_one_blas_thread_and_restore_the_count():
    blas = ioutil.openblas_threads()
    if blas is None:
        pytest.skip("numpy's BLAS thread count cannot be set")
    get, put = blas
    before = get()
    try:
        put(2)  # above one even on a single CPU
        seen = ioutil.fork_map(lambda part: [(os.getpid(), get())], range(3), 3)
        assert len({pid for pid, _ in seen}) == 3 and [n for _, n in seen] == [1] * 3
        assert get() == 2
        ds = synth_mixture(5, 20, 4, 3, noise=0.3, seed=30)
        generate_partitions(ds, 3, 5, seed=31, workers=2)
        assert get() == 2
        with pytest.raises(InfeasibleError):  # the part built here fails
            generate_partitions(ds, 2, seed=41, method="hyperplane", n_way=64,
                                r_min=30, retry_cap=0, workers=2)
        assert get() == 2
        assert ioutil.fork_map(lambda part: [get()], range(3), 1) == [2]
    finally:
        put(before)


def test_partitions_respect_split():
    ds = synth_mixture(4, 10, 3, 2, noise=0.2, seed=36)
    tags = ds.split.copy()
    tags[:20] = 2  # move two classes to meta-test
    ds = DataSet(ds.raw, ds.embeddings, ds.labels, ds.attributes, tags)
    parts = generate_partitions(ds, 1, 2, seed=37)
    covered = np.flatnonzero(parts[0].assignment >= 0)
    assert np.all(ds.split[covered] == 0)


# -- signed distance and hyperplanes ------------------------------------------------

def test_signed_distance_examples():
    h = Hyperplane(np.array([3.0, 4.0]), np.zeros(2))
    assert signed_distance(h, np.zeros(2)) == 0.0
    assert signed_distance(h, np.array([3.0, 4.0])) == pytest.approx(5.0)
    h2 = Hyperplane(np.array([30.0, 40.0]), np.zeros(2))
    z = np.array([0.3, -1.2])
    assert signed_distance(h, z) == pytest.approx(signed_distance(h2, z), rel=1e-12)

def test_zero_normal_rejected():
    with pytest.raises(DataError):
        Hyperplane(np.zeros(2), np.zeros(2))

def pool(pts, seed):
    """20 hyperplanes through the points, from their own generator."""
    return sample_hyperplanes(pts, 20, np.random.default_rng(seed))

def test_hyperplane_count_for_five_ways():
    rng = np.random.default_rng(40)
    pts = rng.standard_normal((400, 6))
    part = hyperplane_partition(pts, 5, margin=0.0, r_min=2, seed=41, pool=pool(pts, 41))
    assert len(part.hyperplanes) == 3  # ceil(log2 5)
    assert part.num_clusters <= 8
    part.validate()

def test_zero_margin_discards_nothing_before_pruning():
    rng = np.random.default_rng(42)
    pts = rng.standard_normal((100, 3))
    planes = sample_hyperplanes(pts, 2, rng)
    part = partition_by_hyperplanes(pts, planes, margin=0.0, r_min=1)
    assert np.all(part.assignment >= 0)

def test_margin_keeps_far_points_only():
    pts = np.array([[-2.0], [-1.0], [1.0], [2.0]])
    plane = Hyperplane(np.array([1.0]), np.zeros(1))
    part = partition_by_hyperplanes(pts, [plane], margin=1.5, r_min=1)
    kept = {tuple(sorted(c)) for c in part.clusters}
    assert kept == {(0,), (3,)}
    assert part.assignment[1] == -1 and part.assignment[2] == -1

def test_margin_property_holds_for_all_kept_points():
    rng = np.random.default_rng(43)
    pts = rng.standard_normal((500, 4))
    part = hyperplane_partition(pts, 4, margin=0.2, r_min=3, seed=44, pool=pool(pts, 44))
    kept = np.flatnonzero(part.assignment >= 0)
    for h in part.hyperplanes:
        assert np.all(np.abs(signed_distance(h, pts[kept])) >= 0.2)

def test_small_subsets_pruned():
    rng = np.random.default_rng(45)
    pts = rng.standard_normal((60, 2))
    planes = sample_hyperplanes(pts, 2, rng)
    part = partition_by_hyperplanes(pts, planes, margin=0.0, r_min=10)
    assert all(len(c) >= 10 for c in part.clusters)

def test_infeasible_margin_reports_kept_fraction():
    rng = np.random.default_rng(46)
    pts = rng.standard_normal((50, 2))
    with pytest.raises(InfeasibleError, match="%"):
        hyperplane_partition(pts, 4, margin=50.0, r_min=2, seed=47,
                             pool=pool(pts, 47), retry_cap=5)

def test_hyperplane_slicing_equals_all_rows_reference(monkeypatch):
    # row counts are multiples of 64: the all-rows product of the reference
    # rounds the rows of a last partial group of 4 its own way
    rng = np.random.default_rng(70)
    for trial in range(8):
        n, d, h = 64 * int(rng.integers(1, 40)), int(rng.integers(1, 40)), 3
        pts = rng.standard_normal((n, d)) * rng.uniform(0.1, 3, d)
        planes = sample_hyperplanes(pts, h, rng)
        if trial % 2:  # axis planes through integer points: many points on a plane
            pts = np.round(pts)
            planes = [Hyperplane(np.eye(d)[j % d] * (j + 1), pts[int(rng.integers(n))])
                      for j in range(h)]
        # a margin met exactly by one of the last rows, which close the last
        # block of every plane after the first
        on_margin = [float(abs(signed_distance(planes[j], pts[r])))
                     for j in (0, h - 1) for r in (int(rng.integers(n)), n - 1, n - 2, n - 3)]
        for margin in [0.0, 0.3] + on_margin:
            want, want_clusters = reference_hyperplane_partition(pts, planes,
                                                                 margin, r_min=3)
            for rows in (64, 256, 1024, 4096):
                monkeypatch.setattr(partition_module, "SLICE_ROWS", rows)
                got = partition_by_hyperplanes(pts, planes, margin, r_min=3)
                assert np.array_equal(got.assignment, want)
                assert len(got.clusters) == len(want_clusters)
                for a, b in zip(got.clusters, want_clusters):
                    assert np.array_equal(a, b)

@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_hyperplane_slicing_rejects_non_finite_points(bad):
    pts = np.random.default_rng(71).standard_normal((300, 4))
    pts[17, 2] = bad
    plane = Hyperplane(np.array([1.0, 0.0, 0.0, 0.0]), np.zeros(4))
    with pytest.raises(DataError, match="non-finite"):
        partition_by_hyperplanes(pts, [plane], margin=0.1, r_min=1)
    with pytest.raises(DataError, match="non-finite"):
        hyperplane_partition(pts, 2, margin=0.1, r_min=1, seed=0, pool=[plane])
    with pytest.raises(ShapeError, match="plane dim"):
        partition_by_hyperplanes(pts[:, :3], [plane], margin=0.1, r_min=1)

def test_pool_based_generation():
    ds = synth_mixture(5, 30, 4, 3, noise=0.3, seed=48)
    parts = generate_partitions(ds, 4, seed=49, method="hyperplane", n_way=4,
                                margin=0.05, r_min=3, pool_size=64)
    assert len(parts) == 4
    for p in parts:
        p.validate()
        assert p.num_clusters >= 4


# -- random / pixel / supervised -----------------------------------------------------

def test_random_partition_rejects_k_one():
    with pytest.raises(ConfigError):
        random_partition(10, 1, np.random.default_rng(0))

def test_random_partition_deterministic():
    a = random_partition(40, 5, np.random.default_rng(50))
    b = random_partition(40, 5, np.random.default_rng(50))
    assert np.array_equal(a.assignment, b.assignment)
    a.validate()

def test_random_partition_sizes_roughly_uniform():
    from scipy.stats import chisquare
    part = random_partition(5000, 5, np.random.default_rng(51))
    stat = chisquare(part.cluster_sizes)
    assert stat.pvalue > 0.01

def test_pixel_partition_clusters_raw_space():
    ds = synth_mixture(4, 25, 6, 2, noise=0.05, seed=52)
    part = kmeans(ds.raw, 4, seed=53, plusplus=True)
    part.validate()
    # informative raw features recover components
    from scipy.optimize import linear_sum_assignment
    confusion = np.zeros((4, 4))
    for c, members in enumerate(part.clusters):
        for m in members:
            confusion[c, ds.labels[m]] += 1
    rows, cols = linear_sum_assignment(-confusion)
    assert confusion[rows, cols].sum() / ds.n >= 0.95

def test_pixel_partition_on_noise_raw_is_chance():
    from scipy.optimize import linear_sum_assignment
    rng = np.random.default_rng(54)
    ds = synth_mixture(4, 50, 6, 2, noise=0.05, seed=55)
    shuffled = DataSet(rng.standard_normal(ds.raw.shape), ds.embeddings,
                       ds.labels, None, ds.split)
    part = kmeans(shuffled.raw, 4, seed=56)
    confusion = np.zeros((4, 4))
    for c, members in enumerate(part.clusters):
        for m in members:
            confusion[c, shuffled.labels[m]] += 1
    rows, cols = linear_sum_assignment(-confusion)
    accuracy = confusion[rows, cols].sum() / ds.n
    assert accuracy < 0.5  # chance is 0.25

def test_partition_from_labels():
    ds = synth_mixture(10, 7, 3, 2, noise=0.2, seed=57)
    part = partition_from_labels(ds)
    assert part.num_clusters == 10
    assert part.provenance == "supervised"
    hist = np.bincount(ds.labels)
    assert np.array_equal(np.sort(part.cluster_sizes), np.sort(hist))
    part.validate()

def test_partition_from_labels_requires_labels():
    ds = DataSet(raw=np.zeros((4, 2)))
    with pytest.raises(DataError):
        partition_from_labels(ds)


# -- well-formedness and serialization --------------------------------------------------

@given(st.integers(0, 2 ** 31 - 1), st.integers(2, 6))
@settings(max_examples=30, deadline=None)
def test_partition_wellformed_for_every_provenance(seed, k):
    rng = np.random.default_rng(seed)
    pts = rng.standard_normal((40, 3))
    kmeans(pts, k, seed=rng).validate()
    random_partition(40, k, rng).validate()
    part = partition_by_hyperplanes(pts, sample_hyperplanes(pts, 2, rng),
                                    margin=0.1, r_min=1)
    if part.num_clusters:
        part.validate()

def assert_clusters_and_centroids(part, clusters, centroids=None):
    assert len(part.clusters) == len(clusters) == part.num_clusters
    for got, want in zip(part.clusters, clusters):
        assert got.tolist() == want.tolist()
    assert part.cluster_sizes.tolist() == [len(c) for c in clusters]
    if centroids is not None:
        assert part.centroids.tobytes() == centroids.tobytes()

def test_every_builder_has_the_hand_built_clusters_and_centroids(tmp_path):
    ds = synth_mixture(6, 40, 5, 4, noise=0.3, seed=80)
    rows = np.flatnonzero(np.arange(ds.n) % 3 > 0)
    pts = ds.embeddings[rows]
    km = kmeans(pts, 7, scaling=np.random.default_rng(81).uniform(0.2, 1, 4), seed=82)
    assert_clusters_and_centroids(km, reference_clusters(km.assignment),
                                  reference_centroids(pts, reference_clusters(km.assignment)))
    for seed in range(5):
        hp = hyperplane_partition(pts, 4, margin=0.05, r_min=3, seed=seed,
                                  pool=pool(pts, seed))
        assert_clusters_and_centroids(
            hp, reference_hyperplane_partition(pts, hp.hyperplanes, 0.05, 3)[1])
    rnd = random_partition(rows.size, 9, np.random.default_rng(83))
    lifted = _lift(rnd, rows, ds.n)
    assert_clusters_and_centroids(
        lifted, reference_lifted_clusters(reference_clusters(rnd.assignment), rows))
    for split in (None, "meta-train"):
        label_rows = np.arange(ds.n) if split is None else ds.split_indices(split)
        want = reference_label_clusters(ds.labels, label_rows)
        assert_clusters_and_centroids(partition_from_labels(ds, split), want,
                                      reference_centroids(ds.embeddings, want))
    for part in (_lift(km, rows, ds.n), lifted):
        save_partition(part, tmp_path / "p.part")
        loaded = load_partition(tmp_path / "p.part", points=ds.embeddings)
        want = reference_clusters(part.assignment)
        assert_clusters_and_centroids(loaded, want, reference_centroids(ds.embeddings, want))

def test_lift_leaves_its_input_unchanged():
    part = random_partition(30, 4, np.random.default_rng(84))
    before = (part.assignment.copy(), [c.copy() for c in part.clusters],
              part.cluster_sizes.copy())
    rows = np.arange(0, 60, 2)
    lifted = _lift(part, rows, 60)
    assert lifted is not part and lifted.n == 60 and part.n == 30
    assert np.array_equal(part.assignment, before[0])
    assert np.array_equal(part.cluster_sizes, before[2])
    for got, want in zip(part.clusters, before[1], strict=True):
        assert np.array_equal(got, want)
    assert np.array_equal(lifted.cluster_sizes, part.cluster_sizes)

def test_save_load_round_trip(tmp_path):
    ds = synth_mixture(4, 20, 3, 2, noise=0.3, seed=60)
    part = generate_partitions(ds, 1, 4, seed=61)[0]
    path = tmp_path / "p.part"
    save_partition(part, path)
    loaded = load_partition(path, points=ds.embeddings)
    assert np.array_equal(loaded.assignment, part.assignment)
    assert loaded.provenance == "kmeans"
    assert np.allclose(loaded.scaling, part.scaling)
    assert loaded.seed == part.seed
    # centroids recomputed from points equal member means
    for c, members in enumerate(loaded.clusters):
        assert np.allclose(loaded.centroids[c], ds.embeddings[members].mean(axis=0))

def test_save_load_hyperplane_partition(tmp_path):
    rng = np.random.default_rng(62)
    pts = rng.standard_normal((120, 3))
    part = hyperplane_partition(pts, 4, margin=0.1, r_min=2, seed=63, pool=pool(pts, 63))
    path = tmp_path / "h.part"
    save_partition(part, path)
    loaded = load_partition(path)
    assert loaded.margin == part.margin
    assert len(loaded.hyperplanes) == len(part.hyperplanes)
    assert np.array_equal(loaded.assignment, part.assignment)
    for ha, hb in zip(loaded.hyperplanes, part.hyperplanes):
        assert np.array_equal(ha.normal, hb.normal)
        assert np.array_equal(ha.point, hb.point)

def test_saved_body_lists_every_point_in_order(tmp_path):
    rng = np.random.default_rng(64)
    pts = rng.standard_normal((90, 3))
    part = hyperplane_partition(pts, 4, margin=0.2, r_min=2, seed=65, pool=pool(pts, 65))
    assert np.any(part.assignment == -1)
    path = tmp_path / "b.part"
    save_partition(part, path)
    body = [l for l in path.read_text().splitlines() if not l.startswith("#")]
    assert body == [str(c) for c in part.assignment]

def test_clusters_are_ascending_members_of_each_id(tmp_path):
    rng = np.random.default_rng(66)
    assignment = rng.integers(-1, 5, size=200)
    path = tmp_path / "c.part"
    path.write_text("# provenance=random\n# n=200\n"
                    + "".join(f"{c}\n" for c in assignment))
    loaded = load_partition(path)
    assert len(loaded.clusters) == 5
    for c, members in enumerate(loaded.clusters):
        assert np.array_equal(members, np.flatnonzero(assignment == c))

def test_load_skips_blank_lines_and_reads_headers_anywhere(tmp_path):
    rng = np.random.default_rng(67)
    pts = rng.standard_normal((40, 3))
    part = hyperplane_partition(pts, 3, margin=0.1, r_min=2, seed=68, pool=pool(pts, 68))
    path = tmp_path / "h.part"
    save_partition(part, path)
    lines = path.read_text().splitlines()
    head = [l for l in lines if l.startswith("#")]
    body = [l for l in lines if not l.startswith("#")]
    # indented headers inside the body, empty and whitespace-only lines, an
    # indented body line with a trailing comment, no final newline
    path.write_text("\n".join(head[:2] + ["", "  \t"] + body[:10]
                              + ["  " + h for h in head[2:]] + ["\f"]
                              + [" " + body[10] + "  # note"] + body[11:]))
    loaded = load_partition(path)
    assert np.array_equal(loaded.assignment, part.assignment)
    assert (loaded.seed, loaded.margin) == (part.seed, part.margin)
    for ha, hb in zip(loaded.hyperplanes, part.hyperplanes, strict=True):
        assert np.array_equal(ha.normal, hb.normal)
        assert np.array_equal(ha.point, hb.point)

# bodies after the header `# n=2`, and the message after the path; the
# old_form cases are `index,cluster` bodies, which are never read as ids
# (a later header line wins, so the one-row file declares n=1)
BAD_BODIES = {
    "bad_value": ("1\n# k=2\nx\n", "bad assignment line: could not convert "
                                   "string 'x' to int64 at row 1, column 1"),
    "three_fields": ("0,1,5\n1,0,5\n", "assignment lines need 1 field, got 3"),
    "old_form": ("0,1\n1,0\n", "assignment lines need 1 field, got 2"),
    "old_form_one_row": ("# n=1\n0,3\n", "assignment lines need 1 field, got 2"),
    "count": ("\n1\n  \n", "1 assignment lines, header says n=2"),
    "no_body": ("# k=1\n", "0 assignment lines, header says n=2"),
    "all_discarded": ("-1\n-1\n", "every point is discarded (cluster -1)"),
}

@pytest.mark.parametrize("case", sorted(BAD_BODIES))
def test_load_errors_name_path_and_fault(tmp_path, case):
    body, message = BAD_BODIES[case]
    path = tmp_path / "bad.part"
    path.write_text("# provenance=random\n# n=2\n" + body)
    with pytest.raises(DataError) as info:
        load_partition(path)
    assert str(info.value).startswith(f"{path}: {message}")
