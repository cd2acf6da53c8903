"""Run learners over fixed task sets and report mean accuracy with 95%
confidence intervals; comparison tables and report CSV I/O."""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .errors import ConfigError, DataError
from .ioutil import (body_lines, fmt_float, fork_map, header_lines, header_text,
                     naming, parse_field, read_text, stable_rng, write_text)
from .tasks import Task, stack_key

Z95 = 1.96


def mean_accuracy(accuracies) -> float:
    """Correctly rounded mean, so recomputation from stored per-task values
    reproduces it bit for bit."""
    acc = [float(a) for a in accuracies]
    return math.fsum(acc) / len(acc)


def ci95_half_width(accuracies) -> float:
    """1.96 * sample standard deviation / sqrt(task count), with correctly
    rounded sums."""
    acc = [float(a) for a in accuracies]
    if len(acc) < 2:
        return 0.0
    mu = mean_accuracy(acc)
    var = math.fsum((a - mu) ** 2 for a in acc) / (len(acc) - 1)
    return Z95 * math.sqrt(var) / math.sqrt(len(acc))


@dataclass
class EvalReport:
    accuracies: np.ndarray
    learner_id: str = ""
    fingerprint: str = ""
    seed: int | None = None

    def __post_init__(self):
        self.accuracies = np.asarray(self.accuracies, dtype=np.float64)
        if self.accuracies.size and not (
                (self.accuracies >= 0).all() and (self.accuracies <= 1).all()):
            raise DataError("per-task accuracies must lie in [0, 1]")

    @property
    def task_count(self) -> int:
        return int(self.accuracies.size)

    @property
    def mean(self) -> float:
        return mean_accuracy(self.accuracies)

    @property
    def ci95(self) -> float:
        return ci95_half_width(self.accuracies)

    def interval(self) -> tuple[float, float]:
        return self.mean - self.ci95, self.mean + self.ci95

    def summary(self) -> str:
        return (f"{self.learner_id or 'learner'}: mean accuracy "
                f"{self.mean:.4f} +- {self.ci95:.4f} over {self.task_count} tasks")


def task_set_fingerprint(tasks: list[Task]) -> str:
    """Digest of task identities (indices, permutations, sizes); learners
    evaluated on identical task sets share it regardless of input_repr."""
    h = hashlib.sha256()
    for t in tasks:
        h.update(np.asarray([t.n_way, t.k_shot, t.q_queries], dtype="<i8").tobytes())
        h.update(np.ascontiguousarray(t.train_indices, dtype="<i8").tobytes())
        h.update(np.ascontiguousarray(t.query_indices, dtype="<i8").tobytes())
        h.update(np.ascontiguousarray(t.label_perm, dtype="<i8").tobytes())
    return h.hexdigest()[:16]


# Each evaluation part walks its tasks in chunks of consecutive, equally
# shaped tasks holding at most this many train plus query rows (and at least
# one task); results do not depend on it. Bigger chunks pay per-step Python
# overhead fewer times until their buffers leave the cache: eval-sweep's
# evaluate stages took 2663/2542/2809 ms at 512/1024/2048 rows (median of 5,
# 2-vCPU VM, one process); at 2048 its 20-shot MLP slowed from 1208 to
# 1578 ms.
CHUNK_ROWS = 1024


def task_chunks(tasks: list[Task]) -> list[list[Task]]:
    """Consecutive tasks with equal stack keys, up to CHUNK_ROWS rows each."""
    chunks: list[list[Task]] = []
    rows = 0
    for task in tasks:
        size = task.train_x.shape[0] + task.query_x.shape[0]
        if (chunks and rows + size <= CHUNK_ROWS
                and stack_key(task) == stack_key(chunks[-1][0])):
            chunks[-1].append(task)
            rows += size
        else:
            chunks.append([task])
            rows = size
    return chunks


def _evaluate_part(predict_fn: Callable, tasks: list[Task], seed: int) -> list[float]:
    """Per-task accuracies of predict_fn over tasks, chunk by chunk."""
    acc = []
    for chunk in task_chunks(tasks):
        rngs = [stable_rng(seed, t.task_seed if t.task_seed is not None else 0)
                for t in chunk]
        preds = predict_fn(chunk, rngs)
        if len(preds) != len(chunk):
            raise DataError(f"learner returned {len(preds)} predictions for a "
                            f"chunk of {len(chunk)} tasks")
        for task, pred in zip(chunk, preds):
            pred = np.asarray(pred)
            want = task.query_labels_int()
            if pred.shape != want.shape:
                raise DataError(f"learner returned {pred.shape} predictions for "
                                f"{want.shape} queries")
            acc.append(float((pred == want).mean()))
    return acc


def evaluate(predict_fn: Callable, tasks: list[Task], learner_id: str = "",
             fingerprint: str = "", seed: int = 0, workers: int = 1) -> EvalReport:
    """Per-task accuracy of predict_fn over a fixed task set.

    predict_fn(tasks, rngs) takes a chunk of equally shaped tasks (see
    task_chunks) with one generator each and returns one prediction array
    per task.

    The per-task generator is keyed to (seed, task.task_seed), so stochastic
    learners stay deterministic and invariant to task order and chunking.

    workers > 1 splits the task list into that many contiguous parts (at
    most one per task) and evaluates all but the first in forked child
    processes (see ioutil.fork_map); the report is the same bits as at
    workers=1.
    """
    tasks = list(tasks)
    if not tasks:
        raise ConfigError("no tasks to evaluate")
    if not fingerprint:
        fingerprint = task_set_fingerprint(tasks)
    acc = fork_map(lambda part: _evaluate_part(predict_fn, part, seed), tasks,
                   workers)
    return EvalReport(np.array(acc), learner_id=learner_id, fingerprint=fingerprint,
                      seed=seed)


# -- comparison -------------------------------------------------------------------

@dataclass
class ComparisonRow:
    learner_id: str
    mean: float
    ci95: float
    task_count: int
    overlaps_with: list[str] = field(default_factory=list)


def compare(reports: list[EvalReport]) -> list[ComparisonRow]:
    """Order reports by mean accuracy and flag pairs whose 95% intervals
    overlap; reports must share the task-generator fingerprint."""
    if not reports:
        raise ConfigError("no reports to compare")
    prints = {r.fingerprint for r in reports}
    if len(prints) > 1:
        raise ConfigError(f"incomparable reports: fingerprints {sorted(prints)}")
    ordered = sorted(reports, key=lambda r: r.mean, reverse=True)
    rows = []
    for r in ordered:
        lo, hi = r.interval()
        overlaps = [o.learner_id for o in ordered
                    if o is not r and o.interval()[0] <= hi and lo <= o.interval()[1]]
        rows.append(ComparisonRow(r.learner_id, r.mean, r.ci95, r.task_count, overlaps))
    return rows


def format_comparison(rows: list[ComparisonRow]) -> str:
    width = max([len(r.learner_id) for r in rows] + [7])
    lines = [f"{'learner':<{width}}  {'mean':>8}  {'ci95':>8}  tasks  overlapping CIs"]
    for r in rows:
        lines.append(f"{r.learner_id:<{width}}  {r.mean:>8.4f}  {r.ci95:>8.4f}  "
                     f"{r.task_count:>5}  {';'.join(r.overlaps_with) or '-'}")
    return "\n".join(lines)


def write_comparison_csv(rows: list[ComparisonRow], path,
                         config_text: str | None = None) -> None:
    body = "learner,mean,ci95,tasks,overlaps_with\n" + "".join(
        f"{r.learner_id},{fmt_float(r.mean)},{fmt_float(r.ci95)},"
        f"{r.task_count},{';'.join(r.overlaps_with)}\n" for r in rows)
    write_text(path, (config_text or "").splitlines(), body)


# -- report CSV --------------------------------------------------------------------

def _summary(report: EvalReport) -> dict[str, str]:
    return {"tasks": str(report.task_count), "mean": fmt_float(report.mean),
            "ci95": fmt_float(report.ci95)}


def write_report_csv(report: EvalReport, path, config_text: str | None = None) -> None:
    """One row per task plus a summary block; floats keep full precision so
    the summary can be recomputed exactly from the rows."""
    header = (config_text or "").splitlines() + [
        f"learner={report.learner_id}", f"fingerprint={report.fingerprint}",
        f"seed={'' if report.seed is None else report.seed}"]
    summary = " ".join(f"{k}={v}" for k, v in _summary(report).items())
    body = "task_index,accuracy\n" + "".join(
        f"{i},{fmt_float(a)}\n" for i, a in enumerate(report.accuracies))
    write_text(path, header, body + header_text([f"summary: {summary}"]))


def read_report_csv(path) -> tuple[EvalReport, dict[str, str]]:
    """Rebuild a report and its summary fields from its CSV. Rows must hold
    task_index 0..n-1 in order (n > 0) and accuracies in [0, 1], and the
    summary must match them."""
    text = read_text(path)
    meta: dict[str, str] = {}
    summary: dict[str, str] = {}
    for line in header_lines(text):
        if line.startswith("summary:"):
            summary = {key: value for key, _, value in
                       (item.partition("=") for item in line[len("summary:"):].split())}
        else:
            key, _, value = line.partition("=")
            meta[key] = value
    acc = []
    for lineno, line in body_lines(text):
        if line.startswith("task_index"):
            continue
        index, _, value = line.partition(",")
        if index != str(len(acc)):
            raise DataError(f"{path}:{lineno}: task_index {index!r}, expected "
                            f"{len(acc)}")
        acc.append(parse_field(f"{path}:{lineno}", "accuracy", value, float))
    if not acc:
        raise DataError(f"{path}: no task rows")
    # an unseeded report writes its seed empty
    seed = parse_field(path, "seed", meta["seed"], int) if meta.get("seed") else None
    with naming(path):
        report = EvalReport(np.array(acc), learner_id=meta.get("learner", ""),
                            fingerprint=meta.get("fingerprint", ""), seed=seed)
    if summary != _summary(report):
        raise DataError(f"{path}: summary {summary} does not match its rows, "
                        f"which give {_summary(report)}")
    return report, summary
