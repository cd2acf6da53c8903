"""Comparison methods that consume the same embeddings and tasks: nearest
neighbors, linear classifier, dropout MLP, cluster matching, and training
from scratch."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, DataError, NumericError, ShapeError
from .metalearn import build_maml_model, sgd_in_place
from .network import Layer, ModelParams, forward, params_stack, softmax
from .partition import Partition
from .tasks import Task


def knn_classify(train_embs: np.ndarray, train_labels: np.ndarray,
                 query_embs: np.ndarray, k_nn: int) -> np.ndarray:
    """Plurality vote of the k_nn Euclidean-nearest train points. Vote ties
    break toward the smaller summed neighbor distance, then the lower label."""
    x = np.asarray(train_embs, dtype=np.float64)
    y = np.asarray(train_labels, dtype=np.int64)
    q = np.asarray(query_embs, dtype=np.float64)
    if x.shape[0] == 0:
        raise DataError("empty train set")
    if not 1 <= k_nn <= x.shape[0]:
        raise ConfigError(f"k_nn={k_nn} outside [1, {x.shape[0]}]")
    d2 = ((q[:, None, :] - x[None, :, :]) ** 2).sum(axis=2)
    out = np.empty(q.shape[0], dtype=np.int64)
    for i in range(q.shape[0]):
        order = np.lexsort((np.arange(x.shape[0]), d2[i]))[:k_nn]
        votes = np.bincount(y[order])
        best = votes.max()
        tied = np.flatnonzero(votes == best)
        if tied.size > 1:
            sums = np.array([d2[i][order][y[order] == lab].sum() for lab in tied])
            tied = tied[sums == sums.min()]
        out[i] = tied.min()
    return out


@dataclass
class LinearModel:
    weights: np.ndarray    # (d, n_classes), or (B, d, n_classes) for a stack
    bias: np.ndarray       # (n_classes,), or (B, n_classes)
    l2: float
    n_iter: int            # iterations run: the most any task of a stack ran
    task_iters: np.ndarray  # iterations each task ran, shaped like the stack


def linear_fit(train_embs: np.ndarray, train_labels: np.ndarray, n_classes: int,
               l2: float = 1e-4, lr: float = 0.5, max_iter: int = 500,
               tol: float = 1e-5) -> LinearModel:
    """Multinomial logistic regression by full-batch gradient descent from a
    zero init, run to gradient-norm tolerance or the iteration cap.

    A (B, n, d) stack with (B, n) labels fits B tasks in one pass. A task
    that reaches the tolerance leaves the stack, so each task's weights,
    bias and iteration count equal those of its own 2-d fit."""
    x, y_int, stack = _stacked_inputs(train_embs, train_labels)
    if x.shape[-2] < n_classes:
        raise ConfigError(f"{x.shape[-2]} examples for {n_classes} classes")
    y = np.eye(n_classes)[y_int]
    weights = np.zeros((len(x), x.shape[-1], n_classes))
    bias = np.zeros((len(x), n_classes))
    iters = np.full(len(x), max_iter)
    live = np.arange(len(x))  # tasks still descending, and their state
    w, b = weights.copy(), bias.copy()
    for it in range(1, max_iter + 1):
        p = softmax(x @ w + b[:, None, :])
        g = (p - y) / x.shape[-2]
        gw = x.swapaxes(1, 2) @ g + l2 * w
        gb = g.sum(axis=-2)
        if not (np.isfinite(gw).all() and np.isfinite(gb).all()):
            raise NumericError(f"linear fit diverged at iteration {it}")
        done = np.sqrt(_task_sq_sum(gw) + _task_sq_sum(gb)) < tol
        if done.any():
            weights[live[done]], bias[live[done]] = w[done], b[done]
            iters[live[done]] = it
            go = ~done
            live, x, y, w, b, gw, gb = (a[go] for a in (live, x, y, w, b, gw, gb))
            if not live.size:
                break
        w -= lr * gw
        b -= lr * gb
    weights[live], bias[live] = w, b
    return LinearModel(_unstack(weights, stack), _unstack(bias, stack), l2,
                       int(iters.max()), _unstack(iters, stack))


def _stacked_inputs(train_embs, train_labels):
    """Inputs as a (B, n, d) stack and labels as (B, n), one task being a
    stack of one, plus the task shape to restore: () or (B,)."""
    x = np.asarray(train_embs, dtype=np.float64)
    y = np.asarray(train_labels, dtype=np.int64)
    if x.ndim not in (2, 3) or y.shape != x.shape[:-1]:
        raise ShapeError(f"train inputs {x.shape} vs train labels {y.shape}")
    return x.reshape(-1, *x.shape[-2:]), y.reshape(-1, y.shape[-1]), x.shape[:-2]


def _unstack(a: np.ndarray, stack: tuple) -> np.ndarray:
    return a.reshape(stack + a.shape[1:])


def _task_sq_sum(a: np.ndarray) -> np.ndarray:
    # per task, the same pairwise sum as (a ** 2).sum() over one task's array
    return (a ** 2).reshape(len(a), -1).sum(axis=-1)


def _task_rngs(rng, stack: tuple) -> list:
    """rng itself for one task; for a stack of B tasks, B generators."""
    rngs = list(rng) if stack else [rng]
    if len(rngs) != (stack[0] if stack else 1):
        raise ShapeError(f"{len(rngs)} generators for a stack of {stack[0]} tasks")
    return rngs


def linear_predict(model: LinearModel, query_embs: np.ndarray) -> np.ndarray:
    q = np.asarray(query_embs, dtype=np.float64)
    if q.shape[-1] != model.weights.shape[-2]:
        raise ShapeError(f"query width {q.shape[-1]} != model width "
                         f"{model.weights.shape[-2]}")
    return (q @ model.weights + model.bias[..., None, :]).argmax(axis=-1)


@dataclass
class MLPModel:
    params: ModelParams
    dropout: float


def mlp_dropout_fit(train_embs: np.ndarray, train_labels: np.ndarray, n_classes: int,
                    rng: np.random.Generator | list[np.random.Generator],
                    hidden: int = 128, dropout: float = 0.5,
                    lr: float = 0.1, steps: int = 300) -> MLPModel:
    """One relu hidden layer trained with inverted dropout on the hidden
    units: kept activations are scaled by 1/(1-rate) during training so
    prediction needs no rescaling.

    A (B, n, d) stack with (B, n) labels and a sequence of B generators
    fits B tasks in one pass. Each task draws its init and then one dropout
    mask per step from its own generator, as its own 2-d fit does, and gets
    that fit's bits."""
    x, labels, stack = _stacked_inputs(train_embs, train_labels)
    if not 0.0 <= dropout < 1.0:
        raise ConfigError(f"dropout rate {dropout} outside [0, 1)")
    rngs = _task_rngs(rng, stack)
    y = np.eye(n_classes)[labels]
    tasks, batch, d = x.shape
    bound1 = np.sqrt(6.0 / (d + hidden))
    bound2 = np.sqrt(6.0 / (hidden + n_classes))
    w1 = np.empty((tasks, d, hidden))
    w2 = np.empty((tasks, hidden, n_classes))
    for r, w1_task, w2_task in zip(rngs, w1, w2):
        w1_task[...] = r.uniform(-bound1, bound1, size=(d, hidden))
        w2_task[...] = r.uniform(-bound2, bound2, size=(hidden, n_classes))
    b1 = np.zeros((tasks, hidden))
    b2 = np.zeros((tasks, n_classes))
    keep = 1.0 - dropout
    # per-step hidden-layer buffers, reused across steps
    z1, hd, gh = (np.empty((tasks, batch, hidden)) for _ in range(3))
    mask = np.empty_like(z1) if dropout > 0.0 else None
    for _ in range(steps):
        np.matmul(x, w1, out=z1)
        z1 += b1[:, None, :]
        np.maximum(z1, 0.0, out=hd)
        if dropout > 0.0:
            for r, mask_task in zip(rngs, mask):
                r.random(out=mask_task)
            np.divide(mask < keep, keep, out=mask)
            hd *= mask
        logits = hd @ w2
        logits += b2[:, None, :]
        g = (softmax(logits) - y) / batch
        gw2 = hd.swapaxes(1, 2) @ g
        gb2 = g.sum(axis=-2)
        np.matmul(g, w2.swapaxes(1, 2), out=gh)
        if dropout > 0.0:
            gh *= mask
        gh *= z1 > 0
        gw1 = x.swapaxes(1, 2) @ gh
        gb1 = gh.sum(axis=-2)
        if not np.isfinite(logits).all():
            raise NumericError("mlp fit diverged")
        for param, grad in ((w1, gw1), (b1, gb1), (w2, gw2), (b2, gb2)):
            grad *= lr
            param -= grad
    params = ModelParams([Layer(_unstack(w1, stack), _unstack(b1, stack), "relu"),
                          Layer(_unstack(w2, stack), _unstack(b2, stack), "identity")])
    return MLPModel(params, dropout)


def mlp_dropout_predict(model: MLPModel, query_embs: np.ndarray) -> np.ndarray:
    # dropout disabled at prediction
    return forward(model.params, np.asarray(query_embs, dtype=np.float64)).argmax(axis=-1)


def cluster_matching_classify(partition: Partition, centroids: np.ndarray | None,
                              task: Task, train_embs: np.ndarray | None = None,
                              query_embs: np.ndarray | None = None) -> np.ndarray:
    """Label clusters by plurality vote of the task's train shots, then
    classify queries by their cluster's label.

    Points still indexed by the partition use their stored assignment;
    anything else maps to the nearest centroid under the partition's
    metric. Queries landing in an unlabeled cluster take the label of the
    closest labeled cluster (Euclidean between centroids).
    """
    if centroids is None:
        centroids = partition.centroids
    if train_embs is None or query_embs is None:
        if task.input_repr != "embedding":
            raise DataError("cluster matching needs embeddings; pass train_embs/"
                            "query_embs or build the task with input_repr='embedding'")
        train_embs = task.train_x if train_embs is None else train_embs
        query_embs = task.query_x if query_embs is None else query_embs

    scale = np.ones(train_embs.shape[1]) if partition.scaling is None else partition.scaling

    def membership(indices, embs):
        out = np.full(len(indices), -1, dtype=np.int64)
        for i, idx in enumerate(indices):
            if 0 <= idx < partition.n and partition.assignment[idx] >= 0:
                out[i] = partition.assignment[idx]
            elif centroids is not None:
                d2 = (scale * (centroids - embs[i]) ** 2).sum(axis=1)
                out[i] = int(d2.argmin())
        return out

    train_clusters = membership(task.train_indices, train_embs)
    shot_labels = task.train_labels_int()
    votes = np.zeros((partition.num_clusters, task.n_way), dtype=np.int64)
    for c, lab in zip(train_clusters, shot_labels):
        if c >= 0:
            votes[c, lab] += 1
    labeled = np.flatnonzero(votes.sum(axis=1) > 0)
    if labeled.size == 0:
        raise DataError("no labeled clusters: every train shot was discarded")
    cluster_label = np.full(partition.num_clusters, -1, dtype=np.int64)
    cluster_label[labeled] = votes[labeled].argmax(axis=1)  # ties -> lower label

    query_clusters = membership(task.query_indices, query_embs)
    out = np.empty(len(query_clusters), dtype=np.int64)
    for i, c in enumerate(query_clusters):
        if c >= 0 and cluster_label[c] >= 0:
            out[i] = cluster_label[c]
            continue
        if centroids is None:
            raise DataError("query in unlabeled cluster and no centroids to fall "
                            "back on")
        if c >= 0:
            dc = ((centroids[labeled] - centroids[c]) ** 2).sum(axis=1)
        else:  # discarded/unknown point: nearest labeled centroid directly
            dc = (scale * (centroids[labeled] - query_embs[i]) ** 2).sum(axis=1)
        out[i] = cluster_label[labeled[int(dc.argmin())]]
    return out


def train_from_scratch(task: Task, rng: np.random.Generator | list[np.random.Generator],
                       hidden: tuple[int, ...] = (64, 64), steps: int = 50,
                       lr: float = 0.05) -> np.ndarray:
    """Fresh random init, SGD on the train shots, predict the queries; the
    same protocol as MAML evaluation but without meta-learned weights.

    A stacked task (see stack_tasks) with a sequence of B generators trains
    each task from its own init in one pass and returns one prediction row
    per task, each equal to its own call's."""
    stack = task.train_x.shape[:-2]
    models = [build_maml_model(task.d_in, task.n_way, r, hidden)
              for r in _task_rngs(rng, stack)]
    params = params_stack(models) if stack else models[0]
    del models  # the stack holds copies; keep one set of weights alive
    return forward(sgd_in_place(params, task, lr, steps), task.query_x).argmax(axis=-1)
