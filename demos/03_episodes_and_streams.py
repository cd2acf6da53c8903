"""Assemble N-way K-shot episodes from partitions, labels, and attributes,
and write them to a task manifest.

Run from the repository root:  python demos/03_episodes_and_streams.py
"""

import tempfile
from pathlib import Path

import numpy as np

from metafew import (DataSet, TaskStreamConfig, generate_partitions,
                     make_supervised_task_stream, make_task_stream,
                     sample_eligible_attribute_task, sample_task_from_partition,
                     synth_mixture, validate_task, write_task_manifest)

ds = synth_mixture(num_classes=8, per_class=30, d_in=10, d_z=4, noise=0.5,
                   seed=31)
parts = generate_partitions(ds, P=4, k=8, seed=33)

print("=" * 60)
print("1. one episode from a partition")
print("=" * 60)
rng = np.random.default_rng(35)
task = sample_task_from_partition(parts[0], n_way=3, k_shot=2, q_queries=4,
                                  rng=rng, ds=ds)
print(f"way={task.n_way} shot={task.k_shot} queries={task.q_queries}")
print(f"train inputs {task.train_x.shape}, query inputs {task.query_x.shape}")
print(f"clusters used: {task.source_ids}, label permutation: {task.label_perm}")
print("train labels (one-hot rows):")
print(task.train_y.astype(int))
validate_task(task, ds)
print("validator: ok (counts, permutation labels, no duplicate indices)")

print()
print("=" * 60)
print("2. streams resample a partition per task, uniformly")
print("=" * 60)
cfg = TaskStreamConfig(tasks=2000, n_way=3, k_shot=1, q_queries=3, seed=37)
counts = np.zeros(len(parts), dtype=int)
for t in make_task_stream(cfg, parts, ds):
    counts[t.partition_index] += 1
print(f"partition choice counts over {cfg.tasks} tasks: {counts}")

print()
print("=" * 60)
print("3. oracle stream from labels, and attribute-defined binary tasks")
print("=" * 60)
sup_cfg = TaskStreamConfig(tasks=3, n_way=4, k_shot=1, q_queries=2, seed=39)
for t in make_supervised_task_stream(sup_cfg, ds):
    print(f"oracle task over classes {t.source_ids}")

attr_rng = np.random.default_rng(41)
attrs = attr_rng.integers(0, 2, (400, 6)).astype(bool)
attr_ds = DataSet(raw=attr_rng.standard_normal((400, 8)), attributes=attrs)
t = sample_eligible_attribute_task(attr_ds, "meta-train", k_shot=5, q_queries=5,
                                   rng=attr_rng)
print(f"attribute task: 2-way, patterns {t.source_ids} "
      f"(3 attributes, pattern vs full negation), "
      f"{t.train_x.shape[0]} train / {t.query_x.shape[0]} query rows")

print()
print("=" * 60)
print("4. manifests reference rows, never copy data")
print("=" * 60)
tasks = list(make_task_stream(TaskStreamConfig(tasks=5, n_way=3, k_shot=1,
                                               q_queries=3, seed=49), parts, ds))
with tempfile.TemporaryDirectory() as tmp:
    path = Path(tmp) / "tasks.txt"
    write_task_manifest(tasks, path, dataset_ref="demo.emb1")
    print(path.read_text(encoding="utf-8")[:400] + "...")
