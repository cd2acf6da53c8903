"""Comparison methods that consume the same embeddings and tasks: nearest
neighbors, linear classifier, dropout MLP, cluster matching, and training
from scratch."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, DataError, NumericError, ShapeError
from .metalearn import build_maml_model, sgd_in_place
from .network import ModelParams, forward, softmax
from .partition import Partition, nearest_centroids
from .tasks import Task


def knn_classify(train_embs: np.ndarray, train_labels: np.ndarray,
                 query_embs: np.ndarray, k_nn: int) -> np.ndarray:
    """Plurality vote of the k_nn Euclidean-nearest train points. Vote ties
    break toward the smaller summed neighbor distance, then the lower label.

    A (B, n, d) stack with (B, n) labels and (B, m, d) queries classifies B
    tasks in one pass; each task gets the predictions of its own 2-d call."""
    x, y, stack = _stacked_inputs(train_embs, train_labels)
    q = np.asarray(query_embs, dtype=np.float64)
    if q.shape[:-2] != stack or q.shape[-1] != x.shape[-1]:
        raise ShapeError(f"queries {q.shape} vs train inputs {x.shape}")
    q = q.reshape(len(x), *q.shape[-2:])
    if x.shape[-2] == 0:
        raise DataError("empty train set")
    if not 1 <= k_nn <= x.shape[-2]:
        raise ConfigError(f"k_nn={k_nn} outside [1, {x.shape[-2]}]")
    # squared in place: the (B, m, n, d) difference is the largest temporary
    diff = q[..., :, None, :] - x[..., None, :, :]
    d2 = np.square(diff, out=diff).sum(axis=-1)
    # a stable sort orders equally distant neighbors by train index
    order = np.argsort(d2, axis=-1, kind="stable")[..., :k_nn]
    near_d2 = np.take_along_axis(d2, order, axis=-1)
    near_y = np.take_along_axis(y[:, None, :], order, axis=-1)
    is_label = near_y[..., None] == np.arange(y.max() + 1)  # (B, m, k_nn, labels)
    votes = is_label.sum(axis=-2)
    tied = votes == votes.max(axis=-1, keepdims=True)
    # each label's summed neighbor distance, added in neighbor order: the
    # bits of a 1-d numpy sum of fewer than 8 values
    sums = np.zeros(votes.shape)
    for j in range(k_nn):
        sums += np.where(is_label[..., j, :], near_d2[..., j, None], 0.0)
    long_ties = (tied.sum(axis=-1) > 1) & (votes.max(axis=-1) >= 8)
    for b, i in zip(*np.nonzero(long_ties)):  # longer numpy sums are pairwise
        for lab in np.flatnonzero(tied[b, i]):
            sums[b, i, lab] = near_d2[b, i][is_label[b, i, :, lab]].sum()
    sums[~tied] = np.inf
    best = tied & (sums == sums.min(axis=-1, keepdims=True))
    return _unstack(best.argmax(axis=-1), stack)  # the lowest such label


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
    zero init: max_iter steps, fewer for a task whose gradient norm falls
    below tol. At the CLI's l2=1e-4, lr=0.5 and max_iter=500, tol=1e-5 is out
    of reach (the cap binds on every eval-sweep chunk): a linear report
    measures 500 steps of early-stopped descent, not the optimum.

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
    stack = x.shape[:-2]
    tasks = math.prod(stack)
    return x.reshape(tasks, *x.shape[-2:]), y.reshape(tasks, y.shape[-1]), stack


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
    params = ModelParams.zeros(((d, hidden, "relu"), (hidden, n_classes, "identity")),
                               (tasks,))
    (w1, b1), (w2, b2) = ((layer.weights, layer.bias) for layer in params.layers)
    for r, w1_task, w2_task in zip(rngs, w1, w2):
        w1_task[...] = r.uniform(-bound1, bound1, size=(d, hidden))
        w2_task[...] = r.uniform(-bound2, bound2, size=(hidden, n_classes))
    keep = 1.0 - dropout
    # per-step gradient and hidden-layer buffers, reused across steps
    grads = ModelParams(np.empty_like(params.vector), params.spec)
    (gw1, gb1), (gw2, gb2) = ((layer.weights, layer.bias) for layer in grads.layers)
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
        np.matmul(hd.swapaxes(1, 2), g, out=gw2)
        g.sum(axis=-2, out=gb2)
        np.matmul(g, w2.swapaxes(1, 2), out=gh)
        if dropout > 0.0:
            gh *= mask
        gh *= z1 > 0
        np.matmul(x.swapaxes(1, 2), gh, out=gw1)
        gh.sum(axis=-2, out=gb1)
        if not np.isfinite(logits).all():
            raise NumericError("mlp fit diverged")
        grads.vector *= lr
        params.vector -= grads.vector
    return MLPModel(ModelParams(_unstack(params.vector, stack), params.spec), dropout)


def mlp_dropout_predict(model: MLPModel, query_embs: np.ndarray) -> np.ndarray:
    # dropout disabled at prediction
    return forward(model.params, np.asarray(query_embs, dtype=np.float64)).argmax(axis=-1)


def cluster_membership(partition: Partition, embeddings: np.ndarray | None) -> np.ndarray:
    """The cluster of every dataset row, from the rows' embeddings: a row's
    stored assignment when it has one, else its nearest centroid under the
    partition's metric (the k-means rule, see nearest_centroids), else -1
    when the partition has no centroids."""
    if embeddings is None:
        raise DataError("cluster matching needs embeddings but the dataset has none")
    if len(embeddings) != partition.n:
        raise DataError(f"partition of {partition.n} points, but the dataset has "
                        f"{len(embeddings)} rows")
    table = partition.assignment.copy()
    free = np.flatnonzero(table < 0)
    if free.size and partition.centroids is not None:
        table[free] = nearest_centroids(embeddings[free], partition.centroids,
                                        partition.scaling)
    return table


def cluster_matching_classify(partition: Partition, membership: np.ndarray,
                              task: Task) -> np.ndarray:
    """Label clusters by plurality vote of the task's train shots (a tie
    goes to the lower label), then classify queries by their cluster's
    label. membership holds the cluster of every dataset row, as
    cluster_membership gives it; shots in no cluster do not vote. A query
    in an unlabeled cluster takes the label of the closest labeled cluster,
    by Euclidean distance between centroids (the lower cluster on a tie).

    A stacked task (see stack_tasks) classifies its B tasks in one pass and
    returns one prediction row per task, each equal to its own call's."""
    stack = task.train_indices.shape[:-1]
    tasks = math.prod(stack)
    train_c = membership[task.train_indices].reshape(tasks, -1)
    query_c = membership[task.query_indices].reshape(tasks, -1)
    shots = task.train_labels_int().reshape(train_c.shape)
    k, n_way = partition.num_clusters, task.n_way
    slot = (np.arange(tasks)[:, None] * k + train_c) * n_way + shots
    votes = np.bincount(slot[train_c >= 0], minlength=tasks * k * n_way)
    votes = votes.reshape(tasks, k, n_way)
    labeled = votes.any(axis=-1)
    if not labeled.any(axis=-1).all():
        raise DataError("no labeled clusters: every train shot was discarded")
    cluster_label = np.where(labeled, votes.argmax(axis=-1), -1)
    rows = np.arange(tasks)[:, None]
    out = np.where(query_c >= 0, cluster_label[rows, query_c], -1)
    b, i = np.nonzero(out < 0)
    if b.size:
        if partition.centroids is None or (query_c[b, i] < 0).any():
            raise DataError("query outside every labeled cluster and no centroid "
                            "to fall back on")
        # the labeled clusters of a task are the clusters of its kept shots
        cand = train_c[b]
        cent = partition.centroids
        diff = cent[cand]  # a fresh gather, so updated in place
        diff -= cent[query_c[b, i]][:, None, :]
        d2 = np.square(diff, out=diff).sum(axis=-1)
        d2[cand < 0] = np.inf
        closest = (cand >= 0) & (d2 == d2.min(axis=-1, keepdims=True))
        out[b, i] = cluster_label[b, np.where(closest, cand, k).min(axis=-1)]
    return _unstack(out, stack)


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
    params = (ModelParams(np.stack([m.vector for m in models]), models[0].spec)
              if stack else models[0])
    del models  # the stack holds copies; keep one set of weights alive
    return forward(sgd_in_place(params, task, lr, steps), task.query_x).argmax(axis=-1)
