"""metafew benchmark: one workload through the real CLI, with every output
checked.

    python3 bench/run.py --workload cactus-small --seed 1 --seconds 30 --trace 0

Run from the root of a checkout; metafew is imported from its `src/`. The
workload's inputs come from --seed. Set-up (importing metafew and running
`synth`) is repeated in fresh processes and timed on its own. Then one
closed-loop client runs the workload's CLI stages in order, each starting
when the previous one has finished. A warm-up pass re-reads every output
through metafew's public loaders; timed passes over the same inputs follow
until --seconds is spent, and must reproduce the checked artifacts byte for
byte. Timings are medians over the timed passes.

With --trace 0 the last stdout line holds the end-to-end metrics. With
--trace 1, untraced passes alternate with traced passes, which time calls
into each module's public functions, and the last line holds the
per-module metrics. The line before it is an `info` object: environment,
artifact digests, per-report accuracies and the info-only end-to-end
metrics. Results and spans are also written under `.bench_out/`.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import math
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
OUT = ROOT / ".bench_out"

WORKLOAD_NAMES = ("cactus-small", "partition-paper", "eval-sweep")
LEARNERS = ("maml", "protonet", "knn", "linear", "mlp", "scratch", "cluster-match")

# (name, unit, better) of the end-to-end metrics every workload prints and
# the benchmark gates.
END_TO_END = [
    ("wall_s", "s", "lower"),
    ("setup_s", "s", "lower"),
    ("peak_rss_mb", "MiB", "lower"),
    ("partition_s", "s", "lower"),
    ("evaluate_s", "s", "lower"),
]
# End-to-end metrics printed in the info line only: meta-training runs in
# one workload, failures are the result's own `failed` count, and
# accuracies are recorded as information, not gated.
INFO_METRICS = [
    ("meta_train_s", "s", "lower"),
    ("failed_frac", "frac", "lower"),
    *[(f"acc.{name}", "frac", "higher") for name in LEARNERS],
]
SETUP_REPEATS = {"full": 5, "smoke": 2}


def _import_metafew() -> None:
    if not (SRC / "metafew" / "__init__.py").is_file():
        print(f"bench: no metafew sources at {SRC}; run from a full checkout",
              file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, str(SRC))


def run_cli(argv: list[str]) -> tuple[int | str, float, str]:
    """Run one CLI stage in this process: exit code (or the exception that
    escaped), seconds, captured output."""
    from metafew.cli import main

    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(out):
        start = time.perf_counter()
        try:
            rc: int | str = main(argv)
        except Exception:
            rc = "exception"
            traceback.print_exc()
        seconds = time.perf_counter() - start
    return rc, seconds, out.getvalue()


class Run:
    """Operations attempted and failed, and the digest of every artifact."""

    def __init__(self):
        self.attempted = 0
        self.failures: list[str] = []
        self.outputs: dict[str, list[str]] = {}
        self.reference: dict[str, str] = {}

    def operation(self, label: str, rc, output: str, check) -> None:
        """Count one operation: a stage's exit code plus its output check.

        The first time a stage succeeds, `check` re-reads its outputs
        through metafew's loaders. Later runs of the stage must reproduce
        those checked outputs byte for byte."""
        from workloads import digests

        self.attempted += 1
        if rc != 0:
            self.failures.append(f"{label}: exit {rc}: {output.strip()[-500:]}")
            return
        try:
            if label not in self.outputs:
                self.outputs[label] = check()
            found = digests(self.outputs[label])
        except Exception as exc:
            self.failures.append(f"{label}: check failed: {type(exc).__name__}: {exc}")
            return
        changed = [p for p, d in found.items() if self.reference.setdefault(p, d) != d]
        if changed:
            self.failures.append(f"{label}: artifacts differ from the checked "
                                 f"ones: {changed}")


def set_up(args, run: "Run") -> list[float]:
    """Import metafew and synthesize the inputs in fresh processes; each
    process reports its own time."""
    from workloads import Context, build

    synth, _ = build(args.workload, args.seed, args.size)
    times = []
    for _ in range(SETUP_REPEATS[args.size]):
        proc = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--setup-child",
             "--workload", args.workload, "--seed", str(args.seed),
             "--size", args.size],
            capture_output=True, text=True, timeout=150)
        lines = proc.stdout.strip().splitlines()
        child = json.loads(lines[-1]) if proc.returncode == 0 and lines else {}
        rc = child.get("rc", f"setup process exit {proc.returncode}")
        run.operation("setup.synth", rc, proc.stderr,
                      lambda: synth.check(Context(), synth))
        if "setup_s" in child:
            times.append(child["setup_s"])
    return times


def setup_child(args) -> None:
    """Body of one set-up process: time import plus `synth`."""
    start = time.perf_counter()
    _import_metafew()
    from workloads import build

    synth, _ = build(args.workload, args.seed, args.size)
    rc, _, output = run_cli(synth.argv)
    seconds = time.perf_counter() - start
    if rc != 0:
        print(output, file=sys.stderr)
    print(json.dumps({"rc": rc, "setup_s": seconds}))


def run_pass(stages, run: Run, tracer=None, run_id=None, synth=None) -> dict:
    """One closed-loop pass over the workload's stages."""
    from workloads import Context

    ctx = Context()
    kinds: dict[str, float] = {}
    stage_s: dict[str, float] = {}
    if tracer is not None:
        # traced only to measure dataset writes; set-up is not part of wall_s
        with tracer.installed(run_id), tracer.span("stage.synth"):
            rc, _, output = run_cli(synth.argv)
        run.operation("synth", rc, output, lambda: synth.check(ctx, synth))
    for st in stages:
        if tracer is None:
            rc, seconds, output = run_cli(st.argv)
        else:
            with tracer.installed(run_id), tracer.span(f"stage.{st.name}"):
                rc, seconds, output = run_cli(st.argv)
        stage_s[st.name] = seconds
        kinds[st.kind] = kinds.get(st.kind, 0.0) + seconds
        run.operation(st.name, rc, output, lambda st=st: st.check(ctx, st))
    return {"wall_s": sum(stage_s.values()), "kinds": kinds, "stages": stage_s,
            "reports": ctx.reports}


def accuracies(reports) -> dict[str, float]:
    """Mean report accuracy per learner, over the workload's reports."""
    by_learner: dict[str, list[float]] = {}
    for report in reports.values():
        by_learner.setdefault(report.learner_id, []).append(report.mean)
    return {f"acc.{k}": math.fsum(v) / len(v) for k, v in by_learner.items()}


def measure(args, stages, run: Run, synth):
    """A warm-up pass that checks every output, then timed passes until
    --seconds is spent. With tracing, untraced and traced passes alternate,
    at least one of each."""
    tracer = None
    if args.trace:
        from tracing import Tracer
        tracer = Tracer()
    warmup = run_pass(stages, run)
    plain, traced, took = [], [], []
    deadline = time.perf_counter() + args.seconds
    while True:
        started = time.perf_counter()
        if tracer is not None and len(traced) < len(plain):
            traced.append(run_pass(stages, run, tracer, len(traced), synth))
        else:
            plain.append(run_pass(stages, run))
        took.append(time.perf_counter() - started)
        if tracer is not None and not traced:
            continue
        if time.perf_counter() + max(took) > deadline:
            return warmup, plain, traced, tracer


def end_to_end(plain, setup_times, reports) -> tuple[dict, dict]:
    """The gated end-to-end metrics, and the info-only ones that apply."""
    kinds = {k for p in plain for k in p["kinds"]}
    values = {
        "wall_s": statistics.median(p["wall_s"] for p in plain),
        "setup_s": statistics.median(setup_times) if setup_times else 0.0,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    for kind in ("partition", "meta_train", "evaluate"):
        if kind in kinds:
            values[f"{kind}_s"] = statistics.median(p["kinds"].get(kind, 0.0) for p in plain)
    values.update(accuracies(reports))
    gated = {name: {"value": values.get(name, 0.0), "unit": unit}
             for name, unit, _ in END_TO_END}
    info = {name: {"value": values[name], "unit": unit}
            for name, unit, _ in INFO_METRICS if name in values}
    return gated, info


def per_layer(plain, traced, tracer) -> dict:
    """Per-module metrics: medians over the traced passes."""
    from metafew.ioutil import default_workers
    from tracing import PER_LAYER, layer_metrics, median_metrics

    workers = default_workers()
    untraced_wall = statistics.median(p["wall_s"] for p in plain)
    passes = []
    for run_id, p in enumerate(traced):
        spans = [s for s in tracer.spans if s[5] == run_id]
        m = layer_metrics(spans, p["wall_s"], workers)
        m["trace.wall_s"] = p["wall_s"]
        m["trace.untraced_wall_s"] = untraced_wall
        m["trace.overhead_s"] = p["wall_s"] - untraced_wall
        passes.append(m)
    values = median_metrics(passes)
    return {name: {"value": values[name], "unit": unit} for name, unit, _ in PER_LAYER}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=30.0,
                        help="time spent on timed passes, after set-up and warm-up")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "smoke"), default="full",
                        help="smoke: a tiny shape for the benchmark's own tests")
    parser.add_argument("--setup-child", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    if args.setup_child:
        setup_child(args)
        return 0
    _import_metafew()
    from envinfo import environment
    from workloads import build

    synth, stages = build(args.workload, args.seed, args.size)
    workdir = WORK / f"{args.workload}-{args.seed}-{os.getpid()}"
    if workdir.exists():
        shutil.rmtree(workdir)
    workdir.mkdir(parents=True)
    home = os.getcwd()
    run = Run()
    try:
        os.chdir(workdir)
        setup_times = set_up(args, run)
        warmup, plain, traced, tracer = measure(args, stages, run, synth)
    finally:
        os.chdir(home)
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):
            WORK.rmdir()  # only once no other run is using it

    gated, info_metrics = end_to_end(plain, setup_times, warmup["reports"])
    failed = len(run.failures)
    info_metrics["failed_frac"] = {"value": failed / run.attempted, "unit": "frac"}
    metrics = per_layer(plain, traced, tracer) if args.trace else gated
    result = {"correct": failed == 0, "attempted": run.attempted, "failed": failed,
              "metrics": metrics}
    info = {
        "workload": args.workload, "seed": args.seed, "size": args.size,
        "trace": args.trace, "passes": len(plain), "traced_passes": len(traced),
        "end_to_end": gated, "info_metrics": info_metrics,
        "warmup_wall_s": warmup["wall_s"],
        "wall_s_samples": [p["wall_s"] for p in plain],
        "kind_s_samples": [p["kinds"] for p in plain],
        "setup_s_samples": setup_times,
        "stage_s": {k: statistics.median(p["stages"][k] for p in plain) for k in warmup["stages"]},
        "reports": {k: {"mean": r.mean, "ci95": r.ci95, "tasks": r.task_count}
                    for k, r in warmup["reports"].items()},
        "digests": run.reference,
        "failures": run.failures,
        "environment": environment(ROOT),
    }
    OUT.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    with open(OUT / f"BENCH_{stem}.json", "w") as fh:
        json.dump({"result": result, "info": info}, fh, indent=1)
    if tracer is not None:
        tracer.write(str(OUT / f"spans-{args.workload}.jsonl"))
    for message in run.failures[:20]:
        print(f"FAILED {message}", file=sys.stderr)
    for name, m in {**metrics, **({} if args.trace else info_metrics)}.items():
        print(f"{name:48s} {m['value']:.6g} {m['unit']}")
    print(json.dumps({"info": info}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
