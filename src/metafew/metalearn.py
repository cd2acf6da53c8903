"""Episodic meta-training and adaptation: MAML (exact second-order by
default) and prototypical networks over task streams."""

from __future__ import annotations

from dataclasses import dataclass
from itertools import islice
from typing import Callable, Iterator

import numpy as np

from .errors import ConfigError, DataError, NumericError, ShapeError
from .ioutil import stable_rng
from .network import (ModelParams, _backward, _forward_cached, _mean_xent,
                      apply_adam, apply_sgd, forward, grad_through_adaptation,
                      init_adam, init_mlp, log_softmax, xent_loss_grad)
from .tasks import Task, stack_tasks

DEFAULT_HIDDEN = (64, 64)


@dataclass
class MetaConfig:
    learner: str = "maml"
    outer_lr: float = 0.001
    inner_lr: float = 0.05
    task_batch_size: int = 8
    inner_steps_train: int = 5
    meta_iterations: int = 1000
    n_way: int = 5
    k_shot: int = 1
    q_queries: int = 5
    first_order: bool = False
    seed: int = 0
    hidden: tuple[int, ...] = DEFAULT_HIDDEN

    def __post_init__(self):
        if self.learner not in ("maml", "protonet"):
            raise ConfigError(f"unknown learner {self.learner!r}")
        if self.outer_lr <= 0 or self.inner_lr < 0:
            raise ConfigError("learning rates must be positive (inner may be 0)")
        if min(self.task_batch_size, self.meta_iterations + 1, self.n_way,
               self.k_shot, self.q_queries) < 1:
            raise ConfigError("counts must be positive")
        if self.inner_steps_train < 0:
            raise ConfigError("step counts must be >= 0")


def build_maml_model(d_in: int, n_way: int, rng: np.random.Generator,
                     hidden: tuple[int, ...] = DEFAULT_HIDDEN) -> ModelParams:
    """Relu MLP with an n_way classifier head."""
    return init_mlp([d_in, *hidden, n_way], rng)


def build_protonet_model(d_in: int, rng: np.random.Generator,
                         hidden: tuple[int, ...] = DEFAULT_HIDDEN) -> ModelParams:
    """Relu MLP whose last hidden layer is the embedding."""
    return init_mlp([d_in, *hidden], rng, activations=["relu"] * len(hidden))


def prune_head(params: ModelParams, n_way: int) -> ModelParams:
    """Restrict the classifier head to its first n_way output columns
    (pruning happens before the softmax, renormalizing the rest)."""
    d_in, width, act = params.spec[-1]
    if n_way > width:
        raise ShapeError(f"cannot prune head of width {width} to {n_way} ways")
    if n_way == width:
        return params
    pruned = ModelParams.zeros(params.spec[:-1] + ((d_in, n_way, act),),
                               params.task_shape)
    body = params.vector.shape[-1] - (d_in + 1) * width  # the layers before the head
    pruned.vector[..., :body] = params.vector[..., :body]
    head = params.layers[-1]
    pruned.layers[-1].weights[...] = head.weights[..., :n_way]
    pruned.layers[-1].bias[...] = head.bias[..., :n_way]
    return pruned


# -- meta-training -----------------------------------------------------------------

def meta_train(cfg: MetaConfig, task_stream: Iterator[Task], init_params: ModelParams,
               log_cb: Callable[[int, float, float | None], None] | None = None,
               val_fn: Callable[[ModelParams], float] | None = None,
               val_every: int = 0) -> ModelParams:
    """Fixed number of meta-iterations. Each stacks a batch of equally
    shaped tasks, takes the learner's per-task losses and gradients in one
    pass (the exact adaptation meta-gradient for maml, the prototype loss
    gradient for protonet) and applies one Adam step to their mean. The
    optional val_fn is monitoring only and never stops training early."""
    if cfg.learner == "maml":
        def loss_grad(params, batch):
            return grad_through_adaptation(
                params, (batch.train_x, batch.train_y),
                (batch.query_x, batch.query_y), cfg.inner_lr,
                cfg.inner_steps_train, cfg.first_order)
    else:
        loss_grad = protonet_loss_grad
    stream = iter(task_stream)
    params = init_params.copy()
    state = init_adam(params, cfg.outer_lr)
    for it in range(cfg.meta_iterations):
        tasks = list(islice(stream, cfg.task_batch_size))
        if len(tasks) < cfg.task_batch_size:
            raise ConfigError(
                f"task stream exhausted at meta-iteration {it}: need "
                f"{cfg.meta_iterations * cfg.task_batch_size} tasks")
        try:
            losses, grads = loss_grad(params, stack_tasks(tasks))
        except (ShapeError, NumericError) as exc:
            raise type(exc)(f"meta-iteration {it}: {exc}") from None
        if not (np.isfinite(losses).all() and np.isfinite(grads.vector).all()):
            raise NumericError(f"meta-iteration {it}: non-finite loss/gradient")
        # the sum times 1/B: np.mean divides by B, which rounds differently
        mean = ModelParams((1.0 / len(tasks)) * grads.vector.sum(axis=0), grads.spec)
        params, state = apply_adam(params, mean, state)
        if not np.isfinite(params.vector).all():
            raise NumericError(f"meta-iteration {it}: non-finite parameters")
        if log_cb is not None:
            val = None
            if val_fn is not None and val_every and (it + 1) % val_every == 0:
                val = val_fn(params)
            log_cb(it, float(np.mean(losses)), val)
    return params


# -- MAML -----------------------------------------------------------------------

def maml_adapt(params: ModelParams, task: Task, inner_lr: float = 0.05,
               steps: int = 50) -> ModelParams:
    """SGD on the task's train set starting from params; params untouched.

    A stacked task (see stack_tasks) adapts its B tasks in one pass and
    returns B per-task models; a single params broadcasts over the stack
    on the first step. Each task gets the bits of its own 2-d call."""
    if task.d_in != params.in_dim:
        raise ShapeError(f"task input width {task.d_in} != model "
                         f"in_dim {params.in_dim}")
    if task.n_way != params.out_dim:
        raise ShapeError(f"task way {task.n_way} != model head width "
                         f"{params.out_dim}; prune_head first")
    if steps < 1:
        return params
    _, g = xent_loss_grad(params, task.train_x, task.train_y)
    theta = apply_sgd(params, g, inner_lr)  # this call's own copy from here on
    del g
    return sgd_in_place(theta, task, inner_lr, steps - 1)


def sgd_in_place(params: ModelParams, task: Task, inner_lr: float,
                 steps: int) -> ModelParams:
    """SGD on the task's train set, updating params, which the caller owns,
    in place; each step has the bits of apply_sgd. Returns params."""
    for _ in range(steps):
        _, g = xent_loss_grad(params, task.train_x, task.train_y)
        g.vector *= -inner_lr
        params.vector += g.vector
        del g  # free it before the next step's gradient
    return params


def maml_predict(params: ModelParams, task: Task, inner_lr: float = 0.05,
                 steps: int = 50) -> np.ndarray:
    """Adapt on the train set (pruning extra head columns if the model is
    wider than the task) and return query label predictions, one row per
    task for a stacked task."""
    adapted = maml_adapt(prune_head(params, task.n_way), task, inner_lr, steps)
    return forward(adapted, task.query_x).argmax(axis=-1)


# -- prototypical networks ---------------------------------------------------------

def protonet_prototypes(embedded: np.ndarray, onehot_labels: np.ndarray) -> np.ndarray:
    """Per-class arithmetic means of the embedded train shots, one set per
    task for a (B, n, d) stack."""
    e = np.asarray(embedded, dtype=np.float64)
    y = np.asarray(onehot_labels, dtype=np.float64)
    if e.shape[:-1] != y.shape[:-1]:
        raise ShapeError(f"embeddings {e.shape} vs label rows {y.shape}")
    counts = y.sum(axis=-2)
    if np.any(counts < 1):
        missing = np.unique(np.nonzero(counts < 1)[-1]).tolist()
        raise DataError(f"classes {missing} have no train shots")
    return (y.swapaxes(-1, -2) @ e) / counts[..., None]


def protonet_classify(prototypes: np.ndarray, embedded_queries: np.ndarray) -> np.ndarray:
    """Logits are negative squared Euclidean distances to each prototype."""
    p = np.asarray(prototypes, dtype=np.float64)
    q = np.asarray(embedded_queries, dtype=np.float64)
    if p.shape[-1] != q.shape[-1]:
        raise ShapeError(f"prototype width {p.shape[-1]} != query width {q.shape[-1]}")
    return -((q[..., :, None, :] - p[..., None, :, :]) ** 2).sum(axis=-1)


def protonet_predict(params: ModelParams, task: Task) -> np.ndarray:
    """Nearest-prototype query labels, one row per task for a stacked task."""
    protos = protonet_prototypes(forward(params, task.train_x), task.train_y)
    return protonet_classify(protos, forward(params, task.query_x)).argmax(axis=-1)


def protonet_loss_grad(params: ModelParams,
                       task: Task) -> tuple[float | np.ndarray, ModelParams]:
    """Softmax cross-entropy over negative squared distances on the query
    set, with exact gradients through both query embeddings and the
    prototype means of the support embeddings. A stacked task gives one
    loss and one gradient per task, each equal to its own 2-d call."""
    pre_s, acts_s = _forward_cached(params, task.train_x)
    pre_q, acts_q = _forward_cached(params, task.query_x)
    es, eq = acts_s[-1], acts_q[-1]
    s = task.train_y
    protos = protonet_prototypes(es, s)
    logits = protonet_classify(protos, eq)
    y = task.query_y
    logp = log_softmax(logits)
    g = (np.exp(logp) - y) / logits.shape[-2]        # dL/dlogits
    d_eq = -2.0 * (eq * g.sum(axis=-1, keepdims=True) - g @ protos)
    d_protos = 2.0 * (g.swapaxes(-1, -2) @ eq - protos * g.sum(axis=-2)[..., None])
    d_es = s @ (d_protos / s.sum(axis=-2)[..., None])
    grads = _backward(params, pre_q, acts_q, d_eq)
    grads.vector += _backward(params, pre_s, acts_s, d_es).vector
    return _mean_xent(logp, y), grads


def initial_model(cfg: MetaConfig, d_in: int) -> ModelParams:
    rng = stable_rng(cfg.seed, 0x0DE1)
    if cfg.learner == "maml":
        return build_maml_model(d_in, cfg.n_way, rng, cfg.hidden)
    return build_protonet_model(d_in, rng, cfg.hidden)
