"""Independent oracles shared by the test suite: central finite
differences, models built from layer lists and their list mean,
exhaustive 2-cluster k-means enumeration, a scalar Adam trace, per-query kNN and per-point cluster matching, the earlier
forms of the k-means assignment and hyperplane slicing kernels that pin
their bits, the hand-built cluster lists and centroids of every partition
builder, and the per-task episode assembly. These never call the code
paths they check. Last come the test-only adapters: per-task learners in
chunk form, label-derived episodes, and the CSV dataset fixture writer."""

import dataclasses
import itertools

import numpy as np

from metafew.data import DataSet
from metafew.ioutil import fmt_float, write_text
from metafew.network import ModelParams
from metafew.partition import partition_from_labels
from metafew.tasks import Task, sample_task_from_partition


def finite_difference_grad(loss_fn, params: ModelParams, h: float = 1e-5) -> ModelParams:
    """Central finite differences of a scalar loss over every parameter."""
    theta = params.vector
    grad = np.zeros_like(theta)
    for j in range(theta.size):
        up, down = theta.copy(), theta.copy()
        up[j] += h
        down[j] -= h
        grad[j] = (loss_fn(ModelParams(up, params.spec))
                   - loss_fn(ModelParams(down, params.spec))) / (2 * h)
    return ModelParams(grad, params.spec)


def relative_error(a: ModelParams, b: ModelParams) -> float:
    va, vb = a.vector, b.vector
    return float(np.linalg.norm(va - vb) / max(np.linalg.norm(vb), 1e-12))


def model_from_layers(layers) -> ModelParams:
    """A model whose vector holds each Layer's weights then bias, in order."""
    return ModelParams(
        np.concatenate([np.concatenate([np.ravel(l.weights), np.ravel(l.bias)])
                        for l in layers]),
        [(*np.shape(l.weights), l.activation) for l in layers])


def params_mean(items: list[ModelParams]) -> ModelParams:
    """Mean of single models as a list: a running sum from zero, scaled by
    1/len, as meta-training once averaged its per-task gradients."""
    acc = np.zeros_like(items[0].vector)
    for item in items:
        acc = acc + item.vector
    return ModelParams((1.0 / len(items)) * acc, items[0].spec)


def scaled_objective(points, assignment, scaling=None):
    """Objective of an assignment with centroids at member means."""
    scaling = np.ones(points.shape[1]) if scaling is None else scaling
    total = 0.0
    for c in np.unique(assignment):
        members = points[assignment == c]
        mu = members.mean(axis=0)
        total += float((scaling * (members - mu) ** 2).sum())
    return total


def brute_force_two_means(points, scaling=None):
    """Enumerate every assignment of points into two nonempty clusters.

    Returns (best objective, list of objectives of Lloyd fixed points).
    A fixed point reassigns every point to its nearest member-mean
    centroid (ties toward cluster 0) without change.
    """
    n = points.shape[0]
    scaling = np.ones(points.shape[1]) if scaling is None else scaling
    best = np.inf
    fixed_point_objectives = []
    for bits in itertools.product((0, 1), repeat=n):
        assignment = np.array(bits)
        if assignment.min() == assignment.max():
            continue
        obj = scaled_objective(points, assignment, scaling)
        best = min(best, obj)
        mus = np.stack([points[assignment == c].mean(axis=0) for c in (0, 1)])
        d2 = ((points[:, None, :] - mus[None, :, :]) ** 2 * scaling).sum(axis=2)
        if np.array_equal(d2.argmin(axis=1), assignment):
            fixed_point_objectives.append(obj)
    return best, fixed_point_objectives


def scalar_adam_trace(g_sequence, w0=0.0, lr=0.001, beta1=0.9, beta2=0.999,
                      eps=1e-8):
    """Pure-python Adam on one scalar parameter; returns parameter after
    each step."""
    w, m, v, out = w0, 0.0, 0.0, []
    for t, g in enumerate(g_sequence, start=1):
        m = beta1 * m + (1 - beta1) * g
        v = beta2 * v + (1 - beta2) * g * g
        m_hat = m / (1 - beta1 ** t)
        v_hat = v / (1 - beta2 ** t)
        w = w - lr * m_hat / (v_hat ** 0.5 + eps)
        out.append(w)
    return out


def reference_knn(train_embs, train_labels, query_embs, k_nn):
    """Per-query kNN: plurality vote of the k_nn nearest train points (ties
    by train index), vote ties to the smaller summed distance, then the
    lower label."""
    x, y, q = train_embs, train_labels, query_embs
    d2 = ((q[:, None, :] - x[None, :, :]) ** 2).sum(axis=2)
    out = np.empty(q.shape[0], dtype=np.int64)
    for i in range(q.shape[0]):
        order = np.lexsort((np.arange(x.shape[0]), d2[i]))[:k_nn]
        votes = np.bincount(y[order])
        tied = np.flatnonzero(votes == votes.max())
        if tied.size > 1:
            sums = np.array([d2[i][order][y[order] == lab].sum() for lab in tied])
            tied = tied[sums == sums.min()]
        out[i] = tied.min()
    return out


def reference_cluster_matching(partition, task, embeddings):
    """Per-point cluster matching of one 2-d task over dataset embeddings:
    an assigned row keeps its cluster, any other row goes to its nearest
    centroid by the element-wise scaled distance; a query in an unlabeled
    cluster takes the closest labeled centroid's label."""
    centroids = partition.centroids
    scale = (np.ones(embeddings.shape[1]) if partition.scaling is None
             else partition.scaling)

    def membership(indices):
        out = np.full(len(indices), -1, dtype=np.int64)
        for i, idx in enumerate(indices):
            if partition.assignment[idx] >= 0:
                out[i] = partition.assignment[idx]
            elif centroids is not None:
                d2 = (scale * (centroids - embeddings[idx]) ** 2).sum(axis=1)
                out[i] = int(d2.argmin())
        return out

    votes = np.zeros((partition.num_clusters, task.n_way), dtype=np.int64)
    for c, lab in zip(membership(task.train_indices), task.train_labels_int()):
        if c >= 0:
            votes[c, lab] += 1
    labeled = np.flatnonzero(votes.sum(axis=1) > 0)
    if labeled.size == 0:
        raise ValueError("no labeled clusters")
    cluster_label = np.full(partition.num_clusters, -1, dtype=np.int64)
    cluster_label[labeled] = votes[labeled].argmax(axis=1)
    query_clusters = membership(task.query_indices)
    out = np.empty(len(query_clusters), dtype=np.int64)
    for i, c in enumerate(query_clusters):
        if c >= 0 and cluster_label[c] >= 0:
            out[i] = cluster_label[c]
            continue
        if centroids is None or c < 0:
            raise ValueError("no centroid to fall back on")
        dc = ((centroids[labeled] - centroids[c]) ** 2).sum(axis=1)
        out[i] = cluster_label[labeled[int(dc.argmin())]]
    return out


def reference_assign(y, sq_y, centroids, block_elems=1 << 16, gemm_align=64):
    """The six-pass k-means assignment step that the three-pass kernel
    replaced: per block of 64-padded rows, the product centroids @ y.T
    copied to row order, the sum |y|^2 + |c|^2 minus twice the product,
    every entry clamped at zero, then argmin."""
    n, k = y.shape[0], centroids.shape[0]
    cc = (centroids * centroids).sum(axis=1)
    assign = np.empty(n, dtype=np.int64)
    min_d2 = np.empty(n)
    rows = max(1, block_elems // k // gemm_align) * gemm_align
    for lo in range(0, n, rows):
        block = slice(lo, min(lo + rows, n))
        m = block.stop - lo
        yb = y[block]
        if m % gemm_align:
            yb = np.zeros((m - m % gemm_align + gemm_align, y.shape[1]))
            yb[:m] = y[block]
        prod = np.ascontiguousarray((centroids @ yb.T)[:, :m].T)
        d2 = (sq_y[block, None] + cc) - 2.0 * prod
        np.maximum(d2, 0.0, out=d2)
        best = d2.argmin(axis=1)
        assign[block] = best
        min_d2[block] = d2[np.arange(m), best]
    return assign, min_d2


def reference_hyperplane_partition(points, hyperplanes, margin, r_min):
    """Hyperplane slicing with every plane's distances taken over all rows
    at once, (points - point) @ unit normal, as the plane-by-plane kernel
    replaced: (assignment, member lists), the surviving buckets numbered in
    ascending sign-pattern order."""
    dists = np.stack([(points - h.point) @ (h.normal / np.linalg.norm(h.normal))
                      for h in hyperplanes], axis=1)
    kept = (np.abs(dists) >= margin).all(axis=1)
    pattern = (dists >= 0).astype(np.int64) @ (1 << np.arange(len(hyperplanes)))
    assignment = np.full(points.shape[0], -1, dtype=np.int64)
    clusters = []
    for pat in range(1 << len(hyperplanes)):
        members = np.flatnonzero(kept & (pattern == pat))
        if members.size >= r_min:
            assignment[members] = len(clusters)
            clusters.append(members)
    return assignment, clusters


def reference_clusters(assignment):
    """Ascending member indices of clusters 0..max(assignment), found by
    sorting the assignment; discarded (-1) points belong to none."""
    k = int(assignment.max()) + 1 if assignment.size and assignment.max() >= 0 else 0
    order = np.argsort(assignment, kind="stable")
    bounds = np.searchsorted(assignment[order], np.arange(k + 1))
    return [order[lo:hi] for lo, hi in zip(bounds[:-1], bounds[1:])]


def reference_label_clusters(labels, rows):
    """One member list per label value among rows, in ascending value
    order, each listing its rows in the order given."""
    return [rows[labels[rows] == value] for value in np.unique(labels[rows])]


def reference_lifted_clusters(clusters, rows):
    """Member lists of a partition of a row subset, in dataset indices."""
    return [rows[m] for m in clusters]


def reference_centroids(points, clusters):
    """Member mean of each cluster."""
    return np.stack([points[m].mean(axis=0) for m in clusters])


def reference_task_from_partition(clusters, n_way, k_shot, q_queries, rng, ds,
                                  input_repr="raw", split=None):
    """One episode drawn cluster by cluster, as sample_task_from_partition
    assembled it inline: N eligible clusters, a slot permutation, then K+Q
    members without replacement from each chosen cluster in turn."""
    r = k_shot + q_queries
    ok = np.flatnonzero(np.array([len(c) for c in clusters]) >= r)
    chosen = rng.choice(ok, size=n_way, replace=False)
    perm = rng.permutation(n_way)
    train_idx, query_idx = [], []
    for c in chosen:
        picked = rng.choice(clusters[int(c)], size=r, replace=False)
        train_idx.append(picked[:k_shot])
        query_idx.append(picked[k_shot:])
    train_idx = np.concatenate(train_idx)
    query_idx = np.concatenate(query_idx)
    return Task(n_way=n_way, k_shot=k_shot, q_queries=q_queries,
                train_indices=train_idx, query_indices=query_idx,
                label_perm=perm, source_ids=np.asarray(chosen, dtype=np.int64),
                ds=ds, input_repr=input_repr, split=split)


def task_from_arrays(train_x, query_x, perm, k_shot, q_queries):
    """The Task with these train and query inputs and slot permutation, over
    a dataset of its own holding the train rows, then the query rows."""
    n_way = len(perm)
    return Task(n_way=n_way, k_shot=k_shot, q_queries=q_queries,
                train_indices=np.arange(n_way * k_shot),
                query_indices=n_way * k_shot + np.arange(n_way * q_queries),
                label_perm=perm, source_ids=np.arange(n_way),
                ds=DataSet(np.concatenate([train_x, query_x])))


def on_one_dataset(tasks):
    """The same tasks over one dataset holding their datasets' rows in
    turn, so that they stack."""
    ds = DataSet(np.concatenate([t.ds.raw for t in tasks]))
    offsets = np.cumsum([0] + [t.ds.n for t in tasks])
    return [dataclasses.replace(t, ds=ds, train_indices=t.train_indices + offset,
                                query_indices=t.query_indices + offset)
            for t, offset in zip(tasks, offsets)]


def per_task(predict_fn):
    """The chunk form of a per-task learner predict_fn(task, rng): it
    predicts each task of the chunk alone."""
    def predict_chunk(tasks, rngs):
        return [predict_fn(task, rng) for task, rng in zip(tasks, rngs)]
    return predict_chunk


def sample_supervised_task(ds, split, n_way, k_shot, q_queries, rng,
                           input_repr="raw"):
    """One episode over the ground-truth classes of a split."""
    return sample_task_from_partition(partition_from_labels(ds, split), n_way,
                                      k_shot, q_queries, rng, ds, input_repr,
                                      split=split)


def save_dataset_csv(ds, path):
    """The CSV form load_dataset reads: raw_*, emb_*, label, attr_* columns."""
    header = [f"raw_{j}" for j in range(ds.d_in)]
    header += [f"emb_{j}" for j in range(ds.d_z)]
    if ds.labels is not None:
        header.append("label")
    header += [f"attr_{j}" for j in range(ds.num_attributes)]
    rows = [header]
    for i in range(ds.n):
        row = [fmt_float(v) for v in ds.raw[i]]
        if ds.embeddings is not None:
            row += [fmt_float(v) for v in ds.embeddings[i]]
        if ds.labels is not None:
            row.append(str(int(ds.labels[i])))
        if ds.attributes is not None:
            row += [str(int(v)) for v in ds.attributes[i]]
        rows.append(row)
    write_text(path, (), "".join(",".join(row) + "\n" for row in rows))
