"""Evaluate every learner on one fixed task set and print the comparison
table with confidence-interval overlap flags.

Run from the repository root:  python demos/05_baselines_and_comparison.py  (~1 min)
"""

import numpy as np

from metafew import (MetaConfig, SplitSpec, TaskStreamConfig, build_maml_model,
                     compare, evaluate, format_comparison, generate_partitions,
                     make_supervised_task_stream, make_task_stream, make_learner,
                     meta_train, split_dataset, synth_mixture)

ds = synth_mixture(num_classes=20, per_class=50, d_in=24, d_z=8,
                   noise=0.9, emb_noise=0.25, seed=71)
ds = split_dataset(ds, SplitSpec("by_class", class_lists=(
    list(range(15)), [], list(range(15, 20)))), np.random.default_rng(71))
parts = generate_partitions(ds, P=6, k=15, seed=73)

print("meta-training the gradient learner on cluster tasks...")
cfg = MetaConfig(meta_iterations=600, task_batch_size=8, n_way=5,
                 outer_lr=0.0035, seed=75)
stream = make_task_stream(TaskStreamConfig(tasks=600 * 8, n_way=5, k_shot=1,
                                           q_queries=5, seed=75), parts, ds)
maml = meta_train(cfg, stream,
                  build_maml_model(ds.d_in, 5, np.random.default_rng(75)))

eval_cfg = TaskStreamConfig(tasks=200, n_way=5, k_shot=5, q_queries=5,
                            seed=77, split="meta-test")
tasks = list(make_supervised_task_stream(eval_cfg, ds))
print(f"evaluating on {len(tasks)} fixed 5-way 5-shot tasks from held-out classes\n")

reports = []
learners = {
    "meta-learned": make_learner("maml", ds, params=maml),
    "from-scratch": make_learner("scratch", ds),
    "embedding-knn": make_learner("knn", ds),
    "embedding-linear": make_learner("linear", ds),
    "embedding-mlp": make_learner("mlp", ds),
    "cluster-match": make_learner("cluster-match", ds, partition=parts[0]),
}
for name, predict in learners.items():
    report = evaluate(predict, tasks, learner_id=name, seed=79)
    print(report.summary())
    reports.append(report)

print()
print("=" * 60)
print("comparison (sorted by mean; overlapping intervals flagged)")
print("=" * 60)
print(format_comparison(compare(reports)))
