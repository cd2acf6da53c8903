"""Build a synthetic embedding dataset, split it, and whiten the embeddings.

Run from the repository root:  python demos/01_data_and_whitening.py
"""

import tempfile
from pathlib import Path

import numpy as np

from metafew import (SplitSpec, load_dataset, pca_whiten, save_dataset,
                     split_dataset, synth_mixture)

print("=" * 60)
print("1. synthetic mixture: 12 classes, 40 points each")
print("=" * 60)
ds = synth_mixture(num_classes=12, per_class=40, d_in=16, d_z=6,
                   noise=0.6, seed=7)
print(f"n={ds.n}  raw width={ds.d_in}  embedding width={ds.d_z}")
print(f"label histogram: {np.bincount(ds.labels)}")

print()
print("=" * 60)
print("2. class-disjoint split (8 train / 2 val / 2 test classes)")
print("=" * 60)
spec = SplitSpec("by_class", class_lists=(list(range(8)), [8, 9], [10, 11]))
ds = split_dataset(ds, spec, np.random.default_rng(0))
for split in ("meta-train", "meta-val", "meta-test"):
    rows = ds.split_indices(split)
    print(f"{split:12s} {rows.size:4d} rows, classes {sorted(set(ds.labels[rows].tolist()))}")

print()
print("=" * 60)
print("3. embedding covariance before and after whitening")
print("=" * 60)
rows = ds.split_indices("meta-train")
cov = np.cov(ds.embeddings[rows].T)
print(f"before: diagonal {np.round(np.diag(cov), 2)}")
print(f"        largest off-diagonal {np.abs(cov - np.diag(np.diag(cov))).max():.3f}")

white = pca_whiten(ds, d_out=4, stats_split="meta-train")
cov_w = np.cov(white.embeddings[rows].T)
print(f"after (top 4 components): diagonal {np.round(np.diag(cov_w), 6)}")
print(f"        largest off-diagonal {np.abs(cov_w - np.diag(np.diag(cov_w))).max():.2e}")
print("statistics come from the meta-train split only, so held-out rows")
print("are transformed without leaking their statistics")

print()
print("=" * 60)
print("4. binary round trip")
print("=" * 60)
with tempfile.TemporaryDirectory() as tmp:
    path = Path(tmp) / "demo_dataset.emb1"
    save_dataset(white, path)
    back = load_dataset(path)
print(f"round trip exact: {back.equals(white)}")
