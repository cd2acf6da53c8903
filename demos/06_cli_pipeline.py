"""Drive the full pipeline through the command-line tool: synthesize data,
partition, generate tasks, meta-train, evaluate two learners, and compare.

Every artifact embeds the effective config; re-running any stage with the
same config reproduces its file byte for byte.

Run from the repository root:  python demos/06_cli_pipeline.py
"""

import hashlib
import subprocess
import sys
import tempfile
from pathlib import Path

def run(*args):
    print("$ metafew " + " ".join(args))
    proc = subprocess.run([sys.executable, "-m", "metafew.cli", *args],
                          capture_output=True, text=True)
    sys.stdout.write(proc.stdout)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise SystemExit(proc.returncode)
    print()

with tempfile.TemporaryDirectory(prefix="metafew_demo_") as tmp:
    work = Path(tmp)
    print(f"working directory: {work} (removed at exit)\n")

    data = work / "mixture.emb1"
    run("synth", f"out={data}", "classes=12", "per_class=30", "d_in=12", "d_z=5",
        "noise=0.6", "seed=7", "split_mode=by_class_counts", "train_classes=9",
        "val_classes=0", "test_classes=3")

    prefix = work / "clusters"
    run("partition", f"data={data}", f"out_prefix={prefix}", "method=kmeans",
        "P=4", "k=9", "seed=11")

    tasks = work / "train_tasks.txt"
    run("gen-tasks", f"data={data}", f"partitions={prefix}_manifest.txt",
        f"out={tasks}", "tasks=10", "n_way=3", "k_shot=1", "q_queries=5", "seed=13")

    ckpt = work / "model.ckpt"
    run("meta-train", f"data={data}", f"partitions={prefix}_manifest.txt",
        f"out={ckpt}", f"log={work / 'training.csv'}", "learner=maml",
        "meta_iterations=150", "n_way=3", "seed=17", "outer_lr=0.003")

    maml_report = work / "maml.csv"
    run("evaluate", f"data={data}", f"out={maml_report}", "learner=maml",
        f"checkpoint={ckpt}", "tasks=100", "n_way=3", "k_shot=1", "q_queries=5",
        "seed=19")

    knn_report = work / "knn.csv"
    run("evaluate", f"data={data}", f"out={knn_report}", "learner=knn",
        "tasks=100", "n_way=3", "k_shot=1", "q_queries=5", "seed=19")

    run("compare", str(maml_report), str(knn_report), f"out={work / 'table.csv'}")

    digest = hashlib.sha256(ckpt.read_bytes()).hexdigest()
    run("meta-train", f"data={data}", f"partitions={prefix}_manifest.txt",
        f"out={ckpt}", f"log={work / 'training.csv'}", "learner=maml",
        "meta_iterations=150", "n_way=3", "seed=17", "outer_lr=0.003")
    same = hashlib.sha256(ckpt.read_bytes()).hexdigest() == digest
    print(f"re-run reproduced the checkpoint byte for byte: {same}")
