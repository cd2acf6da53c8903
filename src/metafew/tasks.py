"""N-way K-shot episode assembly from partitions, labels, and attribute
annotations, plus lazy task streams."""

from __future__ import annotations

import warnings
from dataclasses import dataclass
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
    """One episode: K train and Q query pairs for each of N classes, with
    labels given by a sampled permutation of one-hot vectors. Inputs are
    copies; indices reference rows of the originating dataset."""

    n_way: int
    k_shot: int
    q_queries: int
    train_x: np.ndarray
    train_y: np.ndarray
    query_x: np.ndarray
    query_y: np.ndarray
    train_indices: np.ndarray
    query_indices: np.ndarray
    label_perm: np.ndarray          # slot -> one-hot column
    source_ids: np.ndarray          # cluster/class id per slot
    input_repr: str = "raw"
    split: str | None = None
    partition_index: int | None = None
    task_seed: int | None = None

    @property
    def d_in(self) -> int:
        return self.train_x.shape[-1]

    def train_labels_int(self) -> np.ndarray:
        return self.train_y.argmax(axis=-1)

    def query_labels_int(self) -> np.ndarray:
        return self.query_y.argmax(axis=-1)


_STACKED_FIELDS = ("train_x", "train_y", "query_x", "query_y", "train_indices",
                   "query_indices", "label_perm", "source_ids")


def stack_key(task: Task) -> tuple:
    """Tasks with equal keys stack: their array fields share shapes."""
    return (task.train_x.shape, task.query_x.shape, task.train_y.shape,
            task.input_repr)


def stack_tasks(tasks: list[Task]) -> Task:
    """One Task whose array fields carry a leading task axis, (B, n, d)
    inputs and (B, n, classes) labels, for learners that adapt B equally
    shaped tasks in one pass. Per-task provenance fields are dropped."""
    keys = {stack_key(t) for t in tasks}
    if len(keys) > 1:
        raise ShapeError(f"tasks differ in shape: {sorted(keys)}")
    first = tasks[0]
    return Task(first.n_way, first.k_shot, first.q_queries,
                *(np.stack([getattr(t, f) for t in tasks]) for f in _STACKED_FIELDS),
                input_repr=first.input_repr)


def _fetch_inputs(ds: DataSet, indices: np.ndarray, input_repr: str) -> np.ndarray:
    if input_repr == "raw":
        return ds.raw[indices].copy()
    if input_repr == "embedding":
        if ds.embeddings is None:
            raise DataError("input_repr=embedding but dataset has no embeddings")
        return ds.embeddings[indices].copy()
    raise ConfigError(f"unknown input_repr {input_repr!r}")


def _make_task(ds: DataSet, label_perm: np.ndarray, train_idx: np.ndarray,
               query_idx: np.ndarray, k_shot: int, q_queries: int,
               input_repr: str, **provenance) -> Task:
    """The Task whose slot i holds one-hot column label_perm[i], with its
    inputs fetched from the dataset's rows."""
    eye = np.eye(len(label_perm))
    return Task(n_way=len(label_perm), k_shot=k_shot, q_queries=q_queries,
                train_x=_fetch_inputs(ds, train_idx, input_repr),
                train_y=eye[label_perm.repeat(k_shot)],
                query_x=_fetch_inputs(ds, query_idx, input_repr),
                query_y=eye[label_perm.repeat(q_queries)],
                train_indices=train_idx, query_indices=query_idx,
                label_perm=label_perm, input_repr=input_repr, **provenance)


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
    return _make_task(ds, perm, train_idx, query_idx, k_shot, q_queries, input_repr,
                      source_ids=np.asarray(chosen, dtype=np.int64), split=split)


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
    return _make_task(ds, perm, train_idx, query_idx, k_shot, q_queries, input_repr,
                      source_ids=np.array([pattern_id, 7 - pattern_id]), split=split)


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
    """Assert every Task invariant; used by tests on each emitted task."""
    n, k, q = task.n_way, task.k_shot, task.q_queries
    if task.train_x.shape[0] != n * k or task.train_y.shape != (n * k, n):
        raise DataError(f"train set shapes {task.train_x.shape}/{task.train_y.shape} "
                        f"inconsistent with N={n}, K={k}")
    if task.query_x.shape[0] != n * q or task.query_y.shape != (n * q, n):
        raise DataError(f"query set shapes {task.query_x.shape}/{task.query_y.shape} "
                        f"inconsistent with N={n}, Q={q}")
    for name, y in (("train", task.train_y), ("query", task.query_y)):
        if not (np.isin(y, (0.0, 1.0)).all() and (y.sum(axis=1) == 1).all()):
            raise DataError(f"{name} labels are not one-hot rows")
    if sorted(task.label_perm.tolist()) != list(range(n)):
        raise DataError(f"label_perm {task.label_perm} is not a permutation of 0..{n - 1}")
    slots_train = task.train_y.argmax(axis=1).reshape(n, k)
    slots_query = task.query_y.argmax(axis=1).reshape(n, q)
    expect = task.label_perm
    if not (np.all(slots_train == expect[:, None]) and np.all(slots_query == expect[:, None])):
        raise DataError("labels do not follow the sampled slot permutation")
    all_idx = np.concatenate([task.train_indices, task.query_indices])
    if ds is not None and (all_idx.min() < 0 or all_idx.max() >= ds.n):
        raise DataError("task indices outside dataset")
    _check_rows(all_idx, ds, task.split)
    if ds is not None:
        want_train = _fetch_inputs(ds, task.train_indices, task.input_repr)
        want_query = _fetch_inputs(ds, task.query_indices, task.input_repr)
        if not (np.array_equal(want_train, task.train_x)
                and np.array_equal(want_query, task.query_x)):
            raise DataError("task inputs do not match dataset rows")
    if partition is not None and partition.hyperplanes:
        margin = partition.margin or 0.0
        pts = ds.embeddings[all_idx] if ds is not None else None
        if pts is None:
            raise DataError("margin check requires the dataset")
        for h in partition.hyperplanes:
            if np.any(np.abs(signed_distance(h, pts)) < margin):
                raise DataError("task point violates the hyperplane margin")


def _check_rows(rows: np.ndarray, ds: DataSet | None, split: str | None) -> None:
    """A task's dataset rows must be distinct and, given the dataset, all
    of the task's declared split (when it declares one)."""
    if np.unique(rows).size != rows.size:
        raise DataError("duplicate datapoint index within task")
    if (ds is not None and split is not None
            and not np.all(ds.split[rows] == split_code(split))):
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
    """Tasks of a manifest, with inputs fetched from the dataset's rows. A
    line with a wrong field count, a non-integer field, an unknown
    input_repr or split, a wrong number of indices or source ids, an index
    outside the dataset, a row listed twice, a row outside the declared
    split, or a label_perm that is not a permutation is a DataError."""
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
        with naming(where):
            _check_rows(np.concatenate([train_indices, query_indices]), ds, split or None)
        if source_ids.size != n:
            raise DataError(f"{where}: {source_ids.size} source ids for N={n}")
        if not np.array_equal(np.sort(label_perm), np.arange(n)):
            raise DataError(f"{where}: label_perm {perm!r} is not a permutation "
                            f"of 0..{n - 1}")
        tasks.append(_make_task(ds, label_perm, train_indices, query_indices, k, q,
                                repr_, source_ids=source_ids, split=split or None,
                                partition_index=part_idx, task_seed=task_seed))
    if not tasks:
        raise DataError(f"{path}: no task lines")
    return tasks


def _ints(text: str) -> np.ndarray:
    return np.array([int(v) for v in text.split(",")], dtype=np.int64)
