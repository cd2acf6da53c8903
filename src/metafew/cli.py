"""Command-line front end: synth | partition | gen-tasks | meta-train |
evaluate | compare.

Each subcommand takes an optional key=value config file followed by
key=value overrides (overrides win). Every output artifact embeds the
effective config and tool version, except the `.part` files of `partition`:
their manifest carries it. Exit codes: 0 success, 2 config error,
3 data error, 4 numeric failure (including floating-point overflow,
invalid values and division by zero).
"""

from __future__ import annotations

import hashlib
import os
import sys

import numpy as np

from . import __version__
from .data import (DataSet, SplitSpec, load_dataset, pca_whiten, save_dataset,
                   split_code, split_dataset, synth_mixture)
from .errors import ConfigError, DataError, MetafewError, NumericError
from .evaluation import (compare, evaluate, format_comparison, read_report_csv,
                         task_set_fingerprint, write_comparison_csv,
                         write_report_csv)
from .ioutil import (body_lines, default_workers, fmt_float, naming, read_text,
                     stable_rng, write_text)
from .learners import LEARNER_IDS, make_learner
from .metalearn import MetaConfig, initial_model, meta_train
from .network import load_checkpoint, save_checkpoint
from .partition import generate_partitions, load_partition, save_partition
from .tasks import (INPUT_REPRS, TaskStreamConfig, make_supervised_task_stream,
                    make_task_stream, read_task_manifest,
                    sample_eligible_attribute_task, write_task_manifest)

REQUIRED = object()

# Learners that fit a model per task, whose evaluation is split across
# default_workers() processes. A fork costs about 10 ms, more than knn,
# cluster-match and protonet gain from it: forked, partition-paper's knn and
# cluster-match stages went from 0.254 to 0.300 s.
FORKED_LEARNERS = ("maml", "scratch", "linear", "mlp")

# key -> (type, default, help); bool keys accept 1/0/true/false/yes/no
SCHEMAS: dict[str, dict[str, tuple]] = {
    "synth": {
        "out": (str, REQUIRED, "output dataset file (binary)"),
        "classes": (int, REQUIRED, "number of mixture components"),
        "per_class": (int, REQUIRED, "rows per component"),
        "d_in": (int, REQUIRED, "raw width"),
        "d_z": (int, REQUIRED, "embedding width"),
        "noise": (float, 0.1, "raw noise sigma"),
        "emb_noise": (float, -1.0, "embedding noise sigma (-1: same as noise)"),
        "center_scale": (float, 1.0, "component center sigma"),
        "seed": (int, 0, "generator seed"),
        "split_mode": (str, "none", "none | by_fraction | by_class_counts"),
        "train_frac": (float, 0.8, "by_fraction: meta-train share"),
        "val_frac": (float, 0.0, "by_fraction: meta-val share"),
        "test_frac": (float, 0.2, "by_fraction: meta-test share"),
        "train_classes": (int, 0, "by_class_counts: leading classes to meta-train"),
        "val_classes": (int, 0, "by_class_counts: next classes to meta-val"),
        "test_classes": (int, 0, "by_class_counts: trailing classes to meta-test"),
        "whiten": (bool, False, "PCA-whiten embeddings after splitting"),
        "whiten_dim": (int, 0, "whitened width (0: keep d_z)"),
        "whiten_stats": (str, "meta-train", "split for whitening statistics, or 'all'"),
    },
    "partition": {
        "data": (str, REQUIRED, "dataset file"),
        "out_prefix": (str, REQUIRED, "prefix for partition files and manifest"),
        "method": (str, REQUIRED, "kmeans | hyperplane | random | pixel"),
        "P": (int, 1, "number of partitions"),
        "k": (int, 0, "clusters per partition (kmeans/pixel/random)"),
        "seed": (int, 0, "generator seed"),
        "split": (str, "meta-train", "rows to partition"),
        "max_iter": (int, 300, "k-means iteration cap"),
        "tol": (float, 1e-8, "k-means relative objective tolerance"),
        "n_way": (int, 5, "hyperplane: ways the partitions must support"),
        "margin": (float, 0.0, "hyperplane: discard margin"),
        "r_min": (int, 6, "hyperplane: minimum members per subset (K+Q)"),
        "pool_size": (int, 1000, "hyperplane: precomputed pool size"),
        "retry_cap": (int, 100, "hyperplane: rejection cap per partition"),
    },
    "gen-tasks": {
        "data": (str, REQUIRED, "dataset file"),
        "out": (str, REQUIRED, "task manifest file"),
        "source": (str, "partitions", "partitions | labels | attributes"),
        "partitions": (str, "", "partition manifest (source=partitions)"),
        "tasks": (int, REQUIRED, "number of tasks"),
        "n_way": (int, 5, "classes per task"),
        "k_shot": (int, 1, "train shots per class"),
        "q_queries": (int, 5, "queries per class"),
        "input_repr": (str, "raw", "raw | embedding"),
        "split": (str, "meta-train", "split tasks draw from"),
        "seed": (int, 0, "stream seed"),
        "attr_pool": (str, "", "attributes: comma-separated candidate indices"),
    },
    "meta-train": {
        "data": (str, REQUIRED, "dataset file"),
        "out": (str, REQUIRED, "checkpoint file"),
        "log": (str, "", "training-log CSV"),
        "learner": (str, "maml", "maml | protonet"),
        "source": (str, "partitions", "partitions | labels (oracle)"),
        "partitions": (str, "", "partition manifest (source=partitions)"),
        "meta_iterations": (int, REQUIRED, "outer steps"),
        "outer_lr": (float, 0.001, "Adam learning rate"),
        "inner_lr": (float, 0.05, "inner SGD learning rate (maml)"),
        "task_batch_size": (int, -1, "tasks per outer step (-1: 8 maml / 1 protonet)"),
        "inner_steps": (int, 5, "inner adaptation steps (maml)"),
        "first_order": (bool, False, "drop second-order meta-gradient terms"),
        "n_way": (int, 5, "meta-training ways"),
        "k_shot": (int, 1, "meta-training shots"),
        "q_queries": (int, -1, "queries per class (-1: 5 maml / 15 protonet)"),
        "input_repr": (str, "raw", "raw | embedding"),
        "split": (str, "meta-train", "split tasks draw from"),
        "seed": (int, 0, "init + stream seed"),
        "hidden": (str, "64,64", "hidden layer widths"),
        "resume": (bool, False, "skip when the checkpoint already exists"),
        "val_every": (int, 0, "log meta-val accuracy every this many iterations"),
        "val_tasks": (int, 40, "meta-val tasks per monitoring point"),
    },
    "evaluate": {
        "data": (str, REQUIRED, "dataset file"),
        "out": (str, REQUIRED, "report CSV"),
        "learner": (str, REQUIRED, " | ".join(LEARNER_IDS)),
        "checkpoint": (str, "", "model checkpoint (maml/protonet)"),
        "partition": (str, "", "partition file (cluster-match)"),
        "tasks_manifest": (str, "", "evaluate on a pre-generated task manifest"),
        "tasks": (int, 1000, "number of evaluation tasks"),
        "n_way": (int, 5, "ways"),
        "k_shot": (int, 1, "shots"),
        "q_queries": (int, 5, "queries per class"),
        "split": (str, "meta-test",
                  "split tasks draw from; a manifest's tasks must match it"),
        "input_repr": (str, "raw", "raw | embedding"),
        "seed": (int, 0, "task + learner seed"),
        "inner_lr": (float, 0.05, "adaptation learning rate (maml/scratch)"),
        "adapt_steps": (int, 50, "adaptation steps (maml/scratch)"),
        "k_nn": (int, 0, "neighbors for knn (0: min(K, 5))"),
        "mlp_dropout": (float, 0.5, "mlp hidden dropout rate"),
        "mlp_steps": (int, 300, "mlp training steps"),
        "mlp_lr": (float, 0.1, "mlp learning rate"),
        "linear_l2": (float, 1e-4, "linear classifier L2"),
        "linear_lr": (float, 0.5, "linear classifier learning rate"),
        "linear_max_iter": (int, 500, "linear classifier iteration cap"),
        "hidden": (str, "64,64", "scratch model hidden widths"),
    },
    "compare": {
        "out": (str, "", "optional comparison CSV"),
    },
}

_BOOL_WORDS = {"1": True, "true": True, "yes": True,
               "0": False, "false": False, "no": False}


def _convert(command: str, key: str, raw: str):
    schema = SCHEMAS[command]
    if key not in schema:
        raise ConfigError(f"{command}: unknown config key {key!r}")
    typ = schema[key][0]
    try:
        if typ is bool:
            word = raw.strip().lower()
            if word not in _BOOL_WORDS:
                raise ValueError(f"not a boolean: {raw!r}")
            return _BOOL_WORDS[word]
        return typ(raw)
    except ValueError as exc:
        raise ConfigError(f"{command}: bad value for {key}: {exc}") from None


def load_config(command: str, config_path: str | None,
                overrides: list[str]) -> dict:
    """defaults <- config file <- key=value overrides; unknown keys rejected."""
    schema = SCHEMAS[command]
    cfg = {k: spec[1] for k, spec in schema.items()}
    pairs = []
    if config_path:
        try:
            text = read_text(config_path)
        except (DataError, OSError) as exc:
            raise ConfigError(f"bad config file: {exc}") from None
        for lineno, line in body_lines(text):
            if "=" not in line:
                raise ConfigError(f"{config_path}:{lineno}: expected key=value")
            pairs.append(tuple(line.split("=", 1)))
    for item in overrides:
        body = item[2:] if item.startswith("--") else item
        if "=" not in body:
            raise ConfigError(f"override {item!r} is not key=value")
        pairs.append(tuple(body.split("=", 1)))
    for key, value in pairs:
        cfg[key.strip()] = _convert(command, key.strip(), value.strip())
    missing = [k for k, v in cfg.items() if v is REQUIRED]
    if missing:
        raise ConfigError(f"{command}: missing required keys: {', '.join(sorted(missing))}")
    return cfg


def effective_config_text(command: str, cfg: dict) -> str:
    lines = [f"tool=metafew {__version__}", f"command={command}"]
    for key in sorted(cfg):
        value = cfg[key]
        if isinstance(value, bool):
            value = "true" if value else "false"
        elif isinstance(value, float):
            value = fmt_float(value)
        lines.append(f"{key}={value}")
    return "\n".join(lines)


def _require_file(path: str, what: str) -> str:
    if not path:
        raise ConfigError(f"{what} path required")
    if not os.path.exists(path):
        raise DataError(f"{what} not found: {path}")
    return path


def _parse_hidden(text: str) -> tuple[int, ...]:
    try:
        dims = tuple(int(v) for v in text.split(",") if v.strip())
    except ValueError:
        raise ConfigError(f"bad hidden spec {text!r}") from None
    if not dims or min(dims) < 1:
        raise ConfigError(f"hidden widths must be positive: {text!r}")
    return dims


def _file_digest(path: str) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        while block := fh.read(1 << 20):
            h.update(block)
    return h.hexdigest()


def _say(text: str) -> None:
    """Print a line on stdout. What stdout's encoding cannot hold, such as a
    name read from an artifact under an ASCII locale, is written as
    backslash escapes instead of raising."""
    encoding = sys.stdout.encoding or "utf-8"
    print(text.encode(encoding, "backslashreplace").decode(encoding))


# -- subcommands -----------------------------------------------------------------

def cmd_synth(cfg: dict, echo: str) -> int:
    ds = synth_mixture(cfg["classes"], cfg["per_class"], cfg["d_in"], cfg["d_z"],
                       cfg["noise"], cfg["seed"], center_scale=cfg["center_scale"],
                       emb_noise=None if cfg["emb_noise"] == -1 else cfg["emb_noise"])
    mode = cfg["split_mode"]
    if mode == "by_fraction":
        spec = SplitSpec("by_fraction",
                         fractions=(cfg["train_frac"], cfg["val_frac"], cfg["test_frac"]))
        ds = split_dataset(ds, spec, stable_rng(cfg["seed"], 0x59117))
    elif mode == "by_class_counts":
        t, v, e = cfg["train_classes"], cfg["val_classes"], cfg["test_classes"]
        if t + v + e != cfg["classes"]:
            raise ConfigError(f"class split {t}+{v}+{e} != classes={cfg['classes']}")
        spec = SplitSpec("by_class", class_lists=(
            list(range(t)), list(range(t, t + v)), list(range(t + v, t + v + e))))
        ds = split_dataset(ds, spec, stable_rng(cfg["seed"], 0x59117))
    elif mode != "none":
        raise ConfigError(f"unknown split_mode {mode!r}")
    if cfg["whiten"]:
        stats = None if cfg["whiten_stats"] == "all" else cfg["whiten_stats"]
        ds = pca_whiten(ds, cfg["whiten_dim"] or ds.d_z, stats_split=stats)
    save_dataset(ds, cfg["out"], config_text=echo)
    _say(f"wrote {cfg['out']}: n={ds.n} d_in={ds.d_in} d_z={ds.d_z}")
    return 0


def cmd_partition(cfg: dict, echo: str) -> int:
    ds = load_dataset(_require_file(cfg["data"], "dataset"))
    parts = generate_partitions(ds, cfg["P"], **{key: cfg[key] for key in (
        "k", "seed", "split", "method", "n_way", "margin", "r_min", "pool_size",
        "retry_cap", "max_iter", "tol")}, workers=default_workers())
    paths = [f"{cfg['out_prefix']}_{i:03d}.part" for i in range(len(parts))]
    for part, path in zip(parts, paths):
        save_partition(part, path)
    manifest = cfg["out_prefix"] + "_manifest.txt"
    write_text(manifest, echo.splitlines(),
               "".join(os.path.basename(path) + "\n" for path in paths))
    _say(f"wrote {len(paths)} partitions + {manifest}")
    return 0


def load_partition_manifest(path: str, n_rows: int) -> list:
    """The partitions a manifest lists; each must cover the dataset's rows."""
    base = os.path.dirname(os.path.abspath(path))
    parts = []
    for _, line in body_lines(read_text(path)):
        with naming(path):
            part = load_partition(os.path.join(base, line))
            if part.n != n_rows:
                raise DataError(f"{line}: partition of {part.n} points, but the "
                                f"dataset has {n_rows} rows")
        parts.append(part)
    if not parts:
        raise DataError(f"{path}: no partition files listed")
    return parts


def _build_stream(cfg: dict, ds: DataSet, tasks: int, n_way: int, k_shot: int,
                  q_queries: int):
    stream_cfg = TaskStreamConfig(tasks=tasks, n_way=n_way, k_shot=k_shot,
                                  q_queries=q_queries, input_repr=cfg["input_repr"],
                                  seed=cfg["seed"], split=cfg["split"])
    source = cfg["source"]
    if source == "partitions":
        parts = load_partition_manifest(_require_file(cfg["partitions"],
                                                      "partition manifest"), ds.n)
        return make_task_stream(stream_cfg, parts, ds)
    if source == "labels":
        return make_supervised_task_stream(stream_cfg, ds)
    raise ConfigError(f"unknown task source {source!r}")


def cmd_gen_tasks(cfg: dict, echo: str) -> int:
    ds = load_dataset(_require_file(cfg["data"], "dataset"))
    if cfg["source"] == "attributes":
        if cfg["n_way"] != 2:
            raise ConfigError("attribute tasks are binary; set n_way=2")
        try:
            pool = ([int(v) for v in cfg["attr_pool"].split(",") if v.strip()]
                    or None)
        except ValueError:
            raise ConfigError(f"bad attr_pool {cfg['attr_pool']!r}: expected "
                              f"comma-separated attribute indices") from None
        tasks = []
        for t in range(cfg["tasks"]):
            rng = stable_rng(cfg["seed"], t)
            task = sample_eligible_attribute_task(
                ds, cfg["split"], cfg["k_shot"], cfg["q_queries"], rng,
                attr_pool=pool, input_repr=cfg["input_repr"])
            task.task_seed = int(rng.integers(2 ** 62))
            tasks.append(task)
    else:
        tasks = list(_build_stream(cfg, ds, cfg["tasks"], cfg["n_way"],
                                   cfg["k_shot"], cfg["q_queries"]))
    write_task_manifest(tasks, cfg["out"], dataset_ref=cfg["data"], config_text=echo)
    _say(f"wrote {len(tasks)} tasks to {cfg['out']}")
    return 0


def cmd_meta_train(cfg: dict, echo: str) -> int:
    if cfg["resume"] and os.path.exists(cfg["out"]):
        load_checkpoint(cfg["out"])  # validate before declaring success
        _say(f"checkpoint {cfg['out']} already exists; resume=true, nothing to do")
        return 0
    ds = load_dataset(_require_file(cfg["data"], "dataset"))
    learner = cfg["learner"]
    batch = cfg["task_batch_size"]
    if batch < 0:
        batch = 8 if learner == "maml" else 1
    queries = cfg["q_queries"]
    if queries < 0:
        queries = 5 if learner == "maml" else 15
    meta_cfg = MetaConfig(
        learner=learner, outer_lr=cfg["outer_lr"], inner_lr=cfg["inner_lr"],
        task_batch_size=batch, inner_steps_train=cfg["inner_steps"],
        meta_iterations=cfg["meta_iterations"], n_way=cfg["n_way"],
        k_shot=cfg["k_shot"], q_queries=queries, first_order=cfg["first_order"],
        seed=cfg["seed"], hidden=_parse_hidden(cfg["hidden"]))
    d_in = ds.d_z if cfg["input_repr"] == "embedding" else ds.d_in
    if d_in == 0:
        raise DataError("input_repr=embedding but the dataset has no embeddings")
    total = meta_cfg.meta_iterations * meta_cfg.task_batch_size
    stream = _build_stream(cfg, ds, total, meta_cfg.n_way, meta_cfg.k_shot,
                           meta_cfg.q_queries) if total else iter(())
    val_fn = None
    if cfg["val_every"] > 0:
        # labeled meta-val tasks, monitoring only: never drives stopping
        val_cfg = TaskStreamConfig(tasks=cfg["val_tasks"], n_way=meta_cfg.n_way,
                                   k_shot=meta_cfg.k_shot, q_queries=5,
                                   input_repr=cfg["input_repr"],
                                   seed=cfg["seed"] + 1, split="meta-val")
        try:
            val_tasks = list(make_supervised_task_stream(val_cfg, ds))
        except (ConfigError, DataError) as exc:
            raise ConfigError(
                f"meta-val monitoring (val_every={cfg['val_every']}) cannot build "
                f"{meta_cfg.n_way}-way tasks from the meta-val split: {exc}") from None

        def val_fn(params):
            predict = make_learner(learner, ds, params=params, inner_lr=cfg["inner_lr"])
            report = evaluate(predict, val_tasks)
            return float(np.mean(report.accuracies))

    log_rows: list[tuple[int, float, float | None]] = []
    params = meta_train(meta_cfg, stream, initial_model(meta_cfg, d_in),
                        log_cb=lambda it, loss, val: log_rows.append((it, loss, val)),
                        val_fn=val_fn, val_every=cfg["val_every"])
    save_checkpoint(params, cfg["out"], config_text=echo)
    if cfg["log"]:
        write_text(cfg["log"], echo.splitlines(),
                   "iteration,meta_loss,val_accuracy\n" + "".join(
                       f"{it},{fmt_float(loss)},{'' if val is None else fmt_float(val)}\n"
                       for it, loss, val in log_rows))
    _say(f"wrote {cfg['out']} after {meta_cfg.meta_iterations} meta-iterations")
    return 0


def cmd_evaluate(cfg: dict, echo: str) -> int:
    data_path = _require_file(cfg["data"], "dataset")
    ds = load_dataset(data_path)
    if cfg["tasks_manifest"]:
        manifest = _require_file(cfg["tasks_manifest"], "task manifest")
        tasks = read_task_manifest(manifest, ds)
        split_code(cfg["split"])  # an unknown split is a config error
        if cfg["input_repr"] not in INPUT_REPRS:
            raise ConfigError(f"unknown input_repr {cfg['input_repr']!r}")
        for key in ("split", "input_repr"):
            stray = next((i for i, t in enumerate(tasks)
                          if getattr(t, key) != cfg[key]), None)
            if stray is not None:
                lineno = list(body_lines(read_text(manifest)))[stray][0]
                value = getattr(tasks[stray], key)
                held = (f"an empty {key} field" if value is None
                        else f"{key} {value!r}")
                raise DataError(f"{manifest}:{lineno}: task has {held}, but "
                                f"evaluate runs on {key} {cfg[key]!r}")
        echoed = dict(cfg, tasks=len(tasks))  # what ran, not the keys' values
        for key in ("n_way", "k_shot", "q_queries"):
            values = {getattr(t, key) for t in tasks}  # one, unless shapes mix
            echoed[key] = values.pop() if len(values) == 1 else ""
        echo = effective_config_text("evaluate", echoed)
    else:
        stream_cfg = TaskStreamConfig(
            tasks=cfg["tasks"], n_way=cfg["n_way"], k_shot=cfg["k_shot"],
            q_queries=cfg["q_queries"], input_repr=cfg["input_repr"],
            seed=cfg["seed"], split=cfg["split"])
        tasks = list(make_supervised_task_stream(stream_cfg, ds))
    learner_id = cfg["learner"]
    params = None
    if learner_id in ("maml", "protonet"):
        params = load_checkpoint(_require_file(cfg["checkpoint"], "checkpoint"))
    part = None
    if learner_id == "cluster-match":
        part = load_partition(_require_file(cfg["partition"], "partition"),
                              points=ds.embeddings)
    predict = make_learner(
        learner_id, ds, params=params, partition=part,
        inner_lr=cfg["inner_lr"], adapt_steps=cfg["adapt_steps"],
        k_nn=cfg["k_nn"] or None, mlp_dropout=cfg["mlp_dropout"],
        mlp_steps=cfg["mlp_steps"], mlp_lr=cfg["mlp_lr"],
        linear_l2=cfg["linear_l2"], linear_lr=cfg["linear_lr"],
        linear_max_iter=cfg["linear_max_iter"], hidden=_parse_hidden(cfg["hidden"]))
    fingerprint = f"{_file_digest(data_path)[:8]}-{task_set_fingerprint(tasks)}"
    workers = default_workers() if learner_id in FORKED_LEARNERS else 1
    report = evaluate(predict, tasks, learner_id=learner_id, fingerprint=fingerprint,
                      seed=cfg["seed"], workers=workers)
    write_report_csv(report, cfg["out"], config_text=echo)
    _say(report.summary())
    return 0


def cmd_compare(paths: list[str], cfg: dict, echo: str) -> int:
    if not paths:
        raise ConfigError("compare needs at least one report CSV")
    reports = [read_report_csv(_require_file(path, "report"))[0] for path in paths]
    rows = compare(reports)
    _say(format_comparison(rows))
    if cfg["out"]:
        write_comparison_csv(rows, cfg["out"], config_text=echo)
    return 0


COMMANDS = {
    "synth": cmd_synth,
    "partition": cmd_partition,
    "gen-tasks": cmd_gen_tasks,
    "meta-train": cmd_meta_train,
    "evaluate": cmd_evaluate,
}


def _usage() -> str:
    lines = [f"metafew {__version__} - unsupervised task construction, "
             "meta-training, and evaluation",
             "usage: metafew <command> [config-file] [key=value ...]",
             "       metafew compare <report.csv> [report.csv ...] [out=table.csv]",
             "commands:"]
    for name in (*COMMANDS, "compare"):
        lines.append(f"  {name}")
    lines.append("run `metafew <command> --help` to list config keys")
    return "\n".join(lines)


def _command_help(command: str) -> str:
    lines = [f"metafew {command} [config-file] [key=value ...]", "keys:"]
    for key, (typ, default, help_text) in SCHEMAS[command].items():
        mark = "required" if default is REQUIRED else f"default={default}"
        lines.append(f"  {key} ({typ.__name__}, {mark}): {help_text}")
    return "\n".join(lines)


def _dispatch(argv: list[str]) -> int:
    if not argv or argv[0] in ("-h", "--help"):
        _say(_usage())
        return 0
    command, rest = argv[0], argv[1:]
    if command not in SCHEMAS:
        raise ConfigError(f"unknown command {command!r}\n{_usage()}")
    if rest and rest[0] in ("-h", "--help"):
        _say(_command_help(command))
        return 0
    if command == "compare":
        paths = [a for a in rest if "=" not in a]
        overrides = [a for a in rest if "=" in a]
        cfg = load_config(command, None, overrides)
        return cmd_compare(paths, cfg, effective_config_text(command, cfg))
    config_path = None
    if rest and "=" not in rest[0]:
        config_path, rest = rest[0], rest[1:]
    cfg = load_config(command, config_path, rest)
    return COMMANDS[command](cfg, effective_config_text(command, cfg))


def main(argv: list[str] | None = None) -> int:
    try:
        # overflow, invalid values and division by zero end the run; a
        # result built on them would be silently wrong
        with np.errstate(over="raise", invalid="raise", divide="raise"):
            return _dispatch(sys.argv[1:] if argv is None else list(argv))
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except (DataError, OSError) as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return 3
    except (NumericError, FloatingPointError) as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return 4
    except MetafewError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
