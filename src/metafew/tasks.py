"""N-way K-shot episode assembly from partitions, labels, and attribute
annotations, plus lazy task streams."""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field
from functools import cached_property
from typing import Iterator

import numpy as np

from .data import SPLITS, DataSet, split_code
from .errors import (ConfigError, DataError, InfeasibleError, ShapeError,
                     TaskRejected)
from .ioutil import (body_lines, naming, parse_field, read_text, stable_rng,
                     write_text)
from .partition import Partition, partition_from_labels, signed_distance

INPUT_REPRS = ("raw", "embedding")

# hyperplane streams reuse one sampled partition for this many consecutive
# tasks; other provenances resample a partition per task
HYPERPLANE_TASKS_PER_PARTITION = 100


@dataclass
class Task:
    """One episode: K train and Q query rows of a dataset for each of N
    classes, slot i labelled by one-hot column label_perm[i]. A task holds
    only these indices; its inputs (rows of the block input_repr names) and
    one-hot labels are computed on first use and kept."""

    n_way: int
    k_shot: int
    q_queries: int
    train_indices: np.ndarray
    query_indices: np.ndarray
    label_perm: np.ndarray          # slot -> one-hot column
    source_ids: np.ndarray          # cluster/class id per slot
    ds: DataSet = field(repr=False)
    input_repr: str = "raw"
    split: str | None = None
    partition_index: int | None = None
    task_seed: int | None = None

    def __post_init__(self):
        if self.input_repr not in INPUT_REPRS:
            raise ConfigError(f"unknown input_repr {self.input_repr!r}")
        if self.input_repr == "embedding" and self.ds.embeddings is None:
            raise DataError("input_repr=embedding but dataset has no embeddings")

    @property
    def block(self) -> np.ndarray:
        return self.ds.raw if self.input_repr == "raw" else self.ds.embeddings

    @property
    def d_in(self) -> int:
        return self.block.shape[1]

    @cached_property
    def train_x(self) -> np.ndarray:
        return self.block[self.train_indices]

    @cached_property
    def query_x(self) -> np.ndarray:
        return self.block[self.query_indices]

    @cached_property
    def train_y(self) -> np.ndarray:
        return np.eye(self.n_way)[self.train_labels_int()]

    @cached_property
    def query_y(self) -> np.ndarray:
        return np.eye(self.n_way)[self.query_labels_int()]

    def train_labels_int(self) -> np.ndarray:
        return self.label_perm.repeat(self.k_shot, axis=-1)

    def query_labels_int(self) -> np.ndarray:
        return self.label_perm.repeat(self.q_queries, axis=-1)


_STACKED_FIELDS = ("train_indices", "query_indices", "label_perm", "source_ids")


def stack_key(task: Task) -> tuple:
    """Tasks of one dataset with equal keys stack: their arrays share shapes."""
    return (task.n_way, task.k_shot, task.q_queries, task.input_repr)


def stack_tasks(tasks: list[Task]) -> Task:
    """One Task whose index, permutation and source arrays carry a leading
    task axis, so that learners adapt B equally shaped tasks of one dataset
    in one pass on (B, n, d) inputs, each gathered by one fancy index.
    Per-task provenance fields are dropped."""
    keys = {stack_key(t) for t in tasks}
    if len(keys) > 1:
        raise ShapeError(f"tasks differ in shape: {sorted(keys)}")
    first = tasks[0]
    if any(t.ds is not first.ds for t in tasks):
        raise DataError("tasks index rows of different datasets")
    return Task(first.n_way, first.k_shot, first.q_queries,
                *(np.stack([getattr(t, f) for t in tasks]) for f in _STACKED_FIELDS),
                first.ds, first.input_repr)


def _draw_shots(groups, k_shot: int, q_queries: int, rng: np.random.Generator):
    """K+Q rows without replacement from each group in turn, split into
    the train rows (K per group) and the query rows (Q per group)."""
    picked = [rng.choice(members, size=k_shot + q_queries, replace=False)
              for members in groups]
    return (np.concatenate([p[:k_shot] for p in picked]),
            np.concatenate([p[k_shot:] for p in picked]))


def eligible_clusters(partition: Partition, r_min: int) -> np.ndarray:
    """Clusters holding at least r_min members (K + Q draws without
    replacement must fit)."""
    return np.flatnonzero(partition.cluster_sizes >= r_min)


def sample_task_from_partition(partition: Partition, n_way: int, k_shot: int,
                               q_queries: int, rng: np.random.Generator,
                               ds: DataSet, input_repr: str = "raw",
                               split: str | None = None) -> Task:
    """Sample N distinct eligible clusters uniformly without replacement
    (never proportional to size), then K+Q member rows without replacement
    per cluster, then a permutation of one-hot labels."""
    if n_way < 2 or k_shot < 1 or q_queries < 1:
        raise ConfigError(f"need n_way >= 2, k_shot >= 1, q_queries >= 1; "
                          f"got {n_way}/{k_shot}/{q_queries}")
    r = k_shot + q_queries
    ok = eligible_clusters(partition, r)
    if ok.size < n_way:
        raise InfeasibleError(
            f"partition has {ok.size} clusters with >= {r} members "
            f"(of {partition.num_clusters} total), need {n_way}")
    chosen = rng.choice(ok, size=n_way, replace=False)
    perm = rng.permutation(n_way)
    train_idx, query_idx = _draw_shots([partition.clusters[c] for c in chosen],
                                       k_shot, q_queries, rng)
    return Task(n_way, k_shot, q_queries, train_idx, query_idx, perm,
                np.asarray(chosen, dtype=np.int64), ds, input_repr, split)


def sample_attribute_task(ds: DataSet, split: str, attr_indices, attr_values,
                          k_shot: int, q_queries: int, rng: np.random.Generator,
                          input_repr: str = "raw") -> Task:
    """Binary task defined by three attributes and an ordering of three
    booleans: one class matches the pattern on all three, the other its
    full negation. Raises TaskRejected when either side is too small."""
    if ds.attributes is None:
        raise DataError("attribute tasks require attributes")
    attr_indices = np.asarray(attr_indices, dtype=np.int64)
    attr_values = np.asarray(attr_values, dtype=bool)
    if attr_indices.shape != (3,) or attr_values.shape != (3,):
        raise ConfigError("exactly 3 attribute indices and 3 booleans required")
    if np.unique(attr_indices).size != 3:
        raise ConfigError("attribute indices must be distinct")
    rows = ds.split_indices(split)
    block = ds.attributes[rows][:, attr_indices]
    pos = rows[(block == attr_values).all(axis=1)]
    neg = rows[(block == ~attr_values).all(axis=1)]
    r = k_shot + q_queries
    if pos.size < r or neg.size < r:
        raise TaskRejected(f"attribute pattern sides have {pos.size}/{neg.size} "
                           f"members, need {r} each")
    perm = rng.permutation(2)
    train_idx, query_idx = _draw_shots((pos, neg), k_shot, q_queries, rng)
    pattern_id = int((attr_values << np.arange(3)).sum())
    return Task(2, k_shot, q_queries, train_idx, query_idx, perm,
                np.array([pattern_id, 7 - pattern_id]), ds, input_repr, split)


def sample_eligible_attribute_task(ds: DataSet, split: str, k_shot: int,
                                   q_queries: int, rng: np.random.Generator,
                                   attr_pool=None, input_repr: str = "raw",
                                   max_tries: int = 1000) -> Task:
    """Resample random attribute triples from the pool (every attribute
    when None) until one has enough members on both sides."""
    if ds.attributes is None:
        raise DataError("attribute tasks require attributes")
    count = ds.num_attributes
    pool = np.arange(count) if attr_pool is None else np.asarray(attr_pool, dtype=np.int64)
    outside = pool[(pool < 0) | (pool >= count)]
    if outside.size:
        raise ConfigError(f"attribute index {outside[0]} outside 0..{count - 1}")
    if pool.size < 3:
        raise ConfigError("attribute pool must hold at least 3 indices")
    for _ in range(max_tries):
        idx = rng.choice(pool, size=3, replace=False)
        vals = rng.integers(0, 2, size=3).astype(bool)
        try:
            return sample_attribute_task(ds, split, idx, vals, k_shot, q_queries,
                                         rng, input_repr)
        except TaskRejected:
            continue
    raise InfeasibleError(f"no eligible attribute task found in {max_tries} tries")


# -- streams -------------------------------------------------------------------

@dataclass
class TaskStreamConfig:
    tasks: int
    n_way: int
    k_shot: int
    q_queries: int
    input_repr: str = "raw"
    seed: int = 0
    split: str = "meta-train"

    def __post_init__(self):
        if self.n_way < 2 or self.k_shot < 1 or self.q_queries < 1:
            raise ConfigError(f"need n_way >= 2, k_shot >= 1, q_queries >= 1; got "
                              f"{self.n_way}/{self.k_shot}/{self.q_queries}")
        if self.input_repr not in INPUT_REPRS:
            raise ConfigError(f"unknown input_repr {self.input_repr!r}")


def make_task_stream(cfg: TaskStreamConfig, partitions: list[Partition],
                     ds: DataSet) -> Iterator[Task]:
    """Lazy sequence of cfg.tasks tasks. Each task first samples a partition
    uniformly, then clusters and members; hyperplane partitions are held
    fixed for blocks of consecutive tasks instead of resampled per task."""
    if not partitions:
        raise ConfigError("no partitions given")
    r = cfg.k_shot + cfg.q_queries
    usable = [(i, p) for i, p in enumerate(partitions)
              if eligible_clusters(p, r).size >= cfg.n_way]
    excluded = len(partitions) - len(usable)
    if excluded:
        warnings.warn(f"{excluded} of {len(partitions)} partitions have fewer than "
                      f"{cfg.n_way} clusters with >= {r} members and were excluded",
                      stacklevel=2)
    if not usable:
        raise ConfigError(f"all {len(partitions)} partitions are infeasible for "
                          f"N={cfg.n_way}, K+Q={r}")
    per_block = (HYPERPLANE_TASKS_PER_PARTITION
                 if partitions[0].provenance == "hyperplane" else 1)

    def generate() -> Iterator[Task]:
        for t in range(cfg.tasks):
            rng = stable_rng(cfg.seed, t)  # any task is reproducible alone
            if per_block > 1:
                block_rng = stable_rng(cfg.seed, t // per_block, 1)
                slot = int(block_rng.integers(len(usable)))
            else:
                slot = int(rng.integers(len(usable)))
            index, part = usable[slot]
            task = sample_task_from_partition(part, cfg.n_way, cfg.k_shot,
                                              cfg.q_queries, rng, ds,
                                              cfg.input_repr, split=cfg.split)
            task.partition_index = index
            task.task_seed = int(rng.integers(2 ** 62))
            yield task

    return generate()


def make_supervised_task_stream(cfg: TaskStreamConfig, ds: DataSet) -> Iterator[Task]:
    """Stream of label-derived tasks from the configured split."""
    part = partition_from_labels(ds, cfg.split)
    return make_task_stream(cfg, [part], ds)


# -- validation ------------------------------------------------------------------

def validate_task(task: Task, ds: DataSet | None = None,
                  partition: Partition | None = None) -> None:
    """Assert every Task invariant (given a dataset, that the task indexes
    its rows); used by tests on each emitted task."""
    n, k, q = task.n_way, task.k_shot, task.q_queries
    if task.train_indices.shape != (n * k,) or task.query_indices.shape != (n * q,):
        raise DataError(f"{task.train_indices.shape} train and "
                        f"{task.query_indices.shape} query indices inconsistent "
                        f"with N={n}, K={k}, Q={q}")
    if sorted(task.label_perm.tolist()) != list(range(n)):
        raise DataError(f"label_perm {task.label_perm} is not a permutation of 0..{n - 1}")
    if ds is not None and ds is not task.ds:
        raise DataError("task indexes rows of another dataset")
    all_idx = np.concatenate([task.train_indices, task.query_indices])
    if all_idx.min() < 0 or all_idx.max() >= task.ds.n:
        raise DataError("task indices outside dataset")
    _check_rows(all_idx, task.ds, task.split)
    if partition is not None and partition.hyperplanes:
        margin = partition.margin or 0.0
        pts = task.ds.embeddings[all_idx]
        for h in partition.hyperplanes:
            if np.any(np.abs(signed_distance(h, pts)) < margin):
                raise DataError("task point violates the hyperplane margin")


def _check_rows(rows: np.ndarray, ds: DataSet, split: str | None) -> None:
    """A task's dataset rows must be distinct and all of the task's declared
    split (when it declares one)."""
    if np.unique(rows).size != rows.size:
        raise DataError("duplicate datapoint index within task")
    if split is not None and not np.all(ds.split[rows] == split_code(split)):
        raise DataError(f"task points leave the declared split {split!r}")


# -- manifests --------------------------------------------------------------------

def write_task_manifest(tasks: list[Task], path, dataset_ref: str = "",
                        config_text: str | None = None) -> None:
    """Text manifest referencing dataset rows; tasks never embed data.
    Per task: source ids, member indices, permutation, provenance fields."""
    header = [f"dataset={dataset_ref}",
              *(f"config:{line}" for line in (config_text or "").splitlines()),
              "fields=index;n;k;q;input_repr;split;partition;task_seed;"
              "source_ids;perm;train_indices;query_indices"]
    body = "".join(";".join([
        str(i), str(t.n_way), str(t.k_shot), str(t.q_queries),
        t.input_repr, t.split or "",
        "" if t.partition_index is None else str(t.partition_index),
        "" if t.task_seed is None else str(t.task_seed),
        *(",".join(str(int(v)) for v in ids) for ids in
          (t.source_ids, t.label_perm, t.train_indices, t.query_indices)),
    ]) + "\n" for i, t in enumerate(tasks))
    write_text(path, header, body)


_MANIFEST_FIELDS = 12


def read_task_manifest(path, ds: DataSet) -> list[Task]:
    """Tasks of a manifest over the dataset's rows. A wrong field count, a
    non-integer field, an unknown input_repr or split, a wrong number of
    indices or source ids, an index outside the dataset, a row listed twice
    or outside the declared split, a label_perm that is not a permutation, or
    embedding inputs of a dataset without them is a DataError naming the line."""
    tasks = []
    for lineno, line in body_lines(read_text(path)):
        where = f"{path}:{lineno}"
        fields = line.split(";")
        if len(fields) != _MANIFEST_FIELDS:
            raise DataError(f"{where}: {len(fields)} fields, expected {_MANIFEST_FIELDS}")
        (_, n, k, q, repr_, split, part_idx, task_seed,
         source, perm, train_idx, query_idx) = fields
        n, k, q = (parse_field(where, name, v, int)
                   for name, v in (("n", n), ("k", k), ("q", q)))
        part_idx = parse_field(where, "partition", part_idx, int) if part_idx else None
        task_seed = parse_field(where, "task_seed", task_seed, int) if task_seed else None
        if min(n, k, q) < 1:
            raise DataError(f"{where}: n, k and q must be positive, got {n}/{k}/{q}")
        if repr_ not in INPUT_REPRS:
            raise DataError(f"{where}: input_repr {repr_!r} is not one of "
                            f"{INPUT_REPRS}")
        if split and split not in SPLITS:
            raise DataError(f"{where}: split {split!r} is not one of {SPLITS}")
        train_indices = parse_field(where, "train indices", train_idx, _ints)
        query_indices = parse_field(where, "query indices", query_idx, _ints)
        label_perm = parse_field(where, "label_perm", perm, _ints)
        source_ids = parse_field(where, "source ids", source, _ints)
        if train_indices.size != n * k or query_indices.size != n * q:
            raise DataError(f"{where}: {train_indices.size} train and "
                            f"{query_indices.size} query indices for N={n}, "
                            f"K={k}, Q={q}")
        for name, idx in (("train", train_indices), ("query", query_indices)):
            bad = idx[(idx < 0) | (idx >= ds.n)]
            if bad.size:
                raise DataError(f"{where}: {name} index {bad[0]} outside the "
                                f"dataset's {ds.n} rows")
        if source_ids.size != n:
            raise DataError(f"{where}: {source_ids.size} source ids for N={n}")
        if not np.array_equal(np.sort(label_perm), np.arange(n)):
            raise DataError(f"{where}: label_perm {perm!r} is not a permutation "
                            f"of 0..{n - 1}")
        with naming(where):
            _check_rows(np.concatenate([train_indices, query_indices]), ds, split or None)
            tasks.append(Task(n, k, q, train_indices, query_indices, label_perm,
                              source_ids, ds, repr_, split or None, part_idx, task_seed))
    if not tasks:
        raise DataError(f"{path}: no task lines")
    return tasks


def _ints(text: str) -> np.ndarray:
    return np.array([int(v) for v in text.split(",")], dtype=np.int64)
