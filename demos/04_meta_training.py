"""Meta-train a gradient-based learner and a prototype learner on cluster
tasks, then adapt to held-out classes.

Run from the repository root:  python demos/04_meta_training.py  (~1 min)
"""

import numpy as np

from metafew import (MetaConfig, SplitSpec, TaskStreamConfig, build_maml_model,
                     build_protonet_model, generate_partitions,
                     grad_through_adaptation, maml_predict,
                     make_supervised_task_stream, make_task_stream, meta_train,
                     protonet_predict, split_dataset, synth_mixture)

ds = synth_mixture(num_classes=20, per_class=50, d_in=24, d_z=8,
                   noise=0.9, emb_noise=0.25, seed=51)
ds = split_dataset(ds, SplitSpec("by_class", class_lists=(
    list(range(15)), [], list(range(15, 20)))), np.random.default_rng(51))
parts = generate_partitions(ds, P=6, k=15, seed=53)

print("=" * 60)
print("1. the meta-gradient flows through the inner adaptation")
print("=" * 60)
net = build_maml_model(ds.d_in, 5, np.random.default_rng(55))
stream = make_task_stream(TaskStreamConfig(tasks=1, n_way=5, k_shot=1,
                                           q_queries=5, seed=57), parts, ds)
task = next(stream)
loss, full = grad_through_adaptation(net, (task.train_x, task.train_y),
                                     (task.query_x, task.query_y),
                                     inner_lr=0.05, inner_steps=5)
_, first = grad_through_adaptation(net, (task.train_x, task.train_y),
                                   (task.query_x, task.query_y),
                                   inner_lr=0.05, inner_steps=5, first_order=True)
def norm(g):
    return float(np.sqrt((g.vector ** 2).sum()))
print(f"query loss after 5 inner steps: {loss:.4f}")
print(f"|full meta-gradient| {norm(full):.4f} vs |first-order| {norm(first):.4f}")

print()
print("=" * 60)
print("2. meta-train both learners on cluster tasks (held-out classes unseen)")
print("=" * 60)
maml_cfg = MetaConfig(meta_iterations=600, task_batch_size=8, n_way=5,
                      outer_lr=0.0035, seed=59)
maml_stream = make_task_stream(TaskStreamConfig(tasks=600 * 8, n_way=5, k_shot=1,
                                                q_queries=5, seed=59), parts, ds)
losses = []
maml = meta_train(maml_cfg, maml_stream,
                  build_maml_model(ds.d_in, 5, np.random.default_rng(59)),
                  log_cb=lambda it, loss, val: losses.append(loss))
print(f"gradient learner: meta-loss {np.mean(losses[:50]):.3f} (first 50 iters) "
      f"-> {np.mean(losses[-50:]):.3f} (last 50)")

proto_cfg = MetaConfig(learner="protonet", meta_iterations=600, task_batch_size=1,
                       n_way=5, q_queries=15, outer_lr=0.0035, seed=61)
proto_stream = make_task_stream(TaskStreamConfig(tasks=600, n_way=5, k_shot=1,
                                                 q_queries=15, seed=61), parts, ds)
proto = meta_train(proto_cfg, proto_stream,
                   build_protonet_model(ds.d_in, np.random.default_rng(61)))
print("prototype learner: trained")

print()
print("=" * 60)
print("3. adapt to 5-way tasks over the five held-out classes")
print("=" * 60)
eval_cfg = TaskStreamConfig(tasks=100, n_way=5, k_shot=1, q_queries=5,
                            seed=63, split="meta-test")
tasks = list(make_supervised_task_stream(eval_cfg, ds))
for name, predict in (("gradient learner (50-step adaptation)",
                       lambda t: maml_predict(maml, t)),
                      ("prototype learner (nearest prototype)",
                       lambda t: protonet_predict(proto, t))):
    acc = np.mean([(predict(t) == t.query_labels_int()).mean() for t in tasks])
    print(f"{name}: {acc:.3f} accuracy (chance 0.200)")
