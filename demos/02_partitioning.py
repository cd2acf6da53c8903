"""Partition embeddings four ways: metric-scaled k-means, random hyperplane
slices with a margin, uniform random assignment, and raw-space clustering.

Run from the repository root:  python demos/02_partitioning.py
"""

import numpy as np

from metafew import (Hyperplane, generate_partitions, kmeans,
                     partition_from_labels, random_partition, signed_distance,
                     synth_mixture)

ds = synth_mixture(num_classes=10, per_class=50, d_in=12, d_z=5,
                   noise=0.4, seed=21)

def alignment(part):
    # fraction of points whose cluster's majority class matches their own
    hit = 0
    for members in part.clusters:
        labels = ds.labels[members]
        hit += int(np.bincount(labels).max())
    return hit / (part.assignment >= 0).sum()

print("=" * 60)
print("1. k-means under random diagonal metrics (the partition generator)")
print("=" * 60)
parts = generate_partitions(ds, P=5, k=10, seed=3)
for i, p in enumerate(parts):
    print(f"partition {i}: objective {p.objective:9.2f}  "
          f"sizes {np.sort(p.cluster_sizes)[::-1][:5]}...  "
          f"majority-class purity {alignment(p):.2f}")
print("each run draws a fresh scaling, so partitions disagree with each")
print(f"other: partitions 0 and 1 differ on "
      f"{(parts[0].assignment != parts[1].assignment).sum()} points")

print()
print("=" * 60)
print("2. Lloyd iterations never increase the objective")
print("=" * 60)
single = kmeans(ds.embeddings, k=10, seed=5)
trace = single.objective_trace
print(f"objective trace ({trace.size} iterations):")
print(np.array2string(trace, precision=2))

print()
print("=" * 60)
print("3. hyperplane slicing with a margin")
print("=" * 60)
h = Hyperplane(normal=np.array([3.0, 4.0]), point=np.zeros(2))
print(f"signed distance of (3, 4) to the plane: {signed_distance(h, np.array([3.0, 4.0])):.1f}")
for margin in (0.0, 0.2, 0.4):
    hp = generate_partitions(ds, P=1, seed=11, method="hyperplane", n_way=4,
                             margin=margin, r_min=6)[0]
    kept = (hp.assignment >= 0).sum()
    print(f"margin {margin:.1f}: {hp.num_clusters} subsets survive, "
          f"{kept}/{ds.n} points kept")

from metafew import InfeasibleError
try:
    generate_partitions(ds, P=1, seed=11, method="hyperplane", n_way=4,
                        margin=2.5, r_min=6)
except InfeasibleError as exc:
    print(f"margin 2.5 is rejected after the retry cap: {exc}")

print()
print("=" * 60)
print("4. degenerate and oracle partitions")
print("=" * 60)
rand = random_partition(ds.n, 10, np.random.default_rng(13))
print(f"random assignment purity:     {alignment(rand):.2f}  (no structure)")
pix = generate_partitions(ds, P=1, k=10, seed=17, method="pixel")[0]
print(f"raw-space k-means purity:     {alignment(pix):.2f}")
sup = partition_from_labels(ds)
print(f"label-derived (oracle) purity: {alignment(sup):.2f}")
