"""Adapters turning trained models and baselines into the uniform
predict(tasks, rngs) chunk interface used by the evaluation harness."""

from __future__ import annotations

import numpy as np

from .baselines import (cluster_matching_classify, cluster_membership, knn_classify,
                        linear_fit, linear_predict, mlp_dropout_fit,
                        mlp_dropout_predict, train_from_scratch)
from .data import DataSet
from .errors import ConfigError, DataError
from .metalearn import maml_predict, protonet_predict
from .network import ModelParams
from .partition import Partition
from .tasks import Task, stack_tasks

LEARNER_IDS = ("maml", "protonet", "scratch", "knn", "linear", "mlp", "cluster-match")


def _embedded(tasks: list[Task]) -> tuple[Task, np.ndarray, np.ndarray]:
    """The stacked chunk and its train and query rows of the embeddings."""
    stacked = stack_tasks(tasks)
    embeddings = stacked.ds.embeddings
    if embeddings is None:
        raise DataError("learner needs embeddings but the dataset has none")
    return stacked, embeddings[stacked.train_indices], embeddings[stacked.query_indices]


def make_learner(learner_id: str, ds: DataSet, *,
                 params: ModelParams | None = None,
                 partition: Partition | None = None,
                 inner_lr: float = 0.05, adapt_steps: int = 50,
                 k_nn: int | None = None, mlp_dropout: float = 0.5,
                 mlp_steps: int = 300, mlp_lr: float = 0.1,
                 linear_l2: float = 1e-4, linear_lr: float = 0.5,
                 linear_max_iter: int = 500,
                 hidden: tuple[int, ...] = (64, 64)):
    """Build predict(tasks, rngs) for any learner id the CLI accepts: it
    takes a chunk of equally shaped tasks with one generator each, as
    evaluate passes them, and returns one prediction array per task. Every
    learner predicts the whole chunk in one stacked pass. cluster-match
    looks up each dataset row's cluster in a table built here, once."""
    if learner_id == "maml":
        if params is None:
            raise ConfigError("maml learner needs a checkpoint")
        return lambda tasks, rngs: maml_predict(params, stack_tasks(tasks),
                                                inner_lr, adapt_steps)
    if learner_id == "protonet":
        if params is None:
            raise ConfigError("protonet learner needs a checkpoint")
        return lambda tasks, rngs: protonet_predict(params, stack_tasks(tasks))
    if learner_id == "scratch":
        return lambda tasks, rngs: train_from_scratch(
            stack_tasks(tasks), rngs, hidden=hidden, steps=adapt_steps, lr=inner_lr)
    if learner_id == "knn":
        def predict_knn(tasks, rngs):
            stacked, tr, qu = _embedded(tasks)
            # default: majority vote over min(K, 5) neighbors
            k = min(stacked.k_shot, 5) if k_nn is None else k_nn
            return knn_classify(tr, stacked.train_labels_int(), qu, k)
        return predict_knn
    if learner_id == "linear":
        def predict_linear(tasks, rngs):
            stacked, tr, qu = _embedded(tasks)
            model = linear_fit(tr, stacked.train_labels_int(), stacked.n_way,
                               l2=linear_l2, lr=linear_lr, max_iter=linear_max_iter)
            return linear_predict(model, qu)
        return predict_linear
    if learner_id == "mlp":
        def predict_mlp(tasks, rngs):
            stacked, tr, qu = _embedded(tasks)
            model = mlp_dropout_fit(tr, stacked.train_labels_int(), stacked.n_way,
                                    rngs, dropout=mlp_dropout, lr=mlp_lr,
                                    steps=mlp_steps)
            return mlp_dropout_predict(model, qu)
        return predict_mlp
    if learner_id == "cluster-match":
        if partition is None:
            raise ConfigError("cluster-match learner needs a partition")
        membership = cluster_membership(partition, ds.embeddings)
        return lambda tasks, rngs: cluster_matching_classify(
            partition, membership, stack_tasks(tasks))
    raise ConfigError(f"unknown learner {learner_id!r}; expected one of {LEARNER_IDS}")
