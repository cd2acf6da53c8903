"""Every artifact reader fed bad bytes through the CLI.

Seeded mutation fuzzing: a cut,
flipped, grown, shrunk or reordered artifact must end in exit 0, 2, 3 or 4
with a typed message, never in a traceback. A data error names the mutated
file. A config error need not: a mutated dataset can still be well formed
and hold too few classes for the tasks asked of it. Nor need any error of a
config file: a value its reader accepts (a dataset path, a split name) can
fail later, on its own terms."""

import contextlib
import io

import pytest
from hypothesis import HealthCheck, given, seed, settings
from hypothesis import strategies as st

from metafew.cli import main
from metafew.data import load_dataset, save_dataset_csv

PREFIX = {2: "config error: ", 3: "data error: ", 4: "numeric failure: "}
TASK = ["n_way=2", "k_shot=1", "q_queries=2"]


@pytest.fixture(scope="module")
def artifacts(tmp_path_factory):
    """One intact artifact of each kind, in one directory."""
    d = tmp_path_factory.mktemp("artifacts")
    ds = d / "ds.emb1"
    assert main(["synth", f"out={ds}", "classes=6", "per_class=12", "d_in=4",
                 "d_z=3", "noise=0.3", "seed=5", "split_mode=by_class_counts",
                 "train_classes=4", "val_classes=0", "test_classes=2"]) == 0
    save_dataset_csv(load_dataset(ds), d / "ds.csv")
    assert main(["partition", f"data={ds}", f"out_prefix={d / 'parts'}",
                 "method=kmeans", "P=2", "k=4", "seed=9"]) == 0
    assert main(["gen-tasks", f"data={ds}", f"partitions={d / 'parts_manifest.txt'}",
                 f"out={d / 'tasks.txt'}", "tasks=3", *TASK, "seed=11"]) == 0
    assert main(["meta-train", f"data={ds}", f"partitions={d / 'parts_manifest.txt'}",
                 f"out={d / 'model.ckpt'}", "meta_iterations=1", "task_batch_size=1",
                 "inner_steps=1", "hidden=8", *TASK, "seed=13"]) == 0
    assert main(["evaluate", f"data={ds}", f"out={d / 'report.csv'}", "learner=knn",
                 "tasks=4", *TASK, "seed=3"]) == 0
    (d / "eval.cfg").write_text("# evaluation settings\ndata=ds.emb1\n"
                                "split=meta-test\ninput_repr=raw\nseed=3\n")
    return d


# artifact -> (its file, the command that reads a mutated copy at m from
# directory d). Keys that set the amount of work stay on the command line,
# where they override the config file.
CASES = {
    "emb1": ("ds.emb1", lambda m, d: ["evaluate", f"data={m}", f"out={d / 'o.csv'}",
                                      "learner=knn", "tasks=4", *TASK]),
    "csv": ("ds.csv", lambda m, d: ["evaluate", f"data={m}", f"out={d / 'o.csv'}",
                                    "learner=knn", "tasks=4", "split=meta-train",
                                    *TASK]),
    "cmp1": ("model.ckpt", lambda m, d: [
        "evaluate", f"data={d / 'ds.emb1'}", f"out={d / 'o.csv'}", "learner=maml",
        f"checkpoint={m}", "tasks=3", "adapt_steps=2", *TASK]),
    "partition": ("parts_000.part", lambda m, d: [
        "evaluate", f"data={d / 'ds.emb1'}", f"out={d / 'o.csv'}",
        "learner=cluster-match", f"partition={m}", "tasks=4", *TASK]),
    "partition_manifest": ("parts_manifest.txt", lambda m, d: [
        "gen-tasks", f"data={d / 'ds.emb1'}", f"partitions={m}",
        f"out={d / 'o.txt'}", "tasks=3", *TASK]),
    "task_manifest": ("tasks.txt", lambda m, d: [
        "evaluate", f"data={d / 'ds.emb1'}", f"out={d / 'o.csv'}", "learner=knn",
        f"tasks_manifest={m}", "split=meta-train"]),
    "report": ("report.csv", lambda m, d: ["compare", str(m)]),
    "config": ("eval.cfg", lambda m, d: [
        "evaluate", str(m), f"out={d / 'o.csv'}", "learner=knn", "tasks=4", "k_nn=0",
        *TASK]),
}


@st.composite
def mutations(draw, blob: bytes) -> bytes:
    """One cut, byte flip, insertion, deletion, or duplicated or shuffled
    lines."""
    kind = draw(st.sampled_from(["cut", "flip", "insert", "delete", "duplicate",
                                 "shuffle"]))
    at = draw(st.integers(0, len(blob)))
    if kind == "cut":
        return blob[:at]
    if kind == "flip":
        at = min(at, len(blob) - 1)
        return blob[:at] + bytes([blob[at] ^ draw(st.integers(1, 255))]) + blob[at + 1:]
    if kind == "insert":
        return blob[:at] + draw(st.binary(min_size=1, max_size=16)) + blob[at:]
    if kind == "delete":
        return blob[:at] + blob[at + draw(st.integers(1, 64)):]
    lines = blob.split(b"\n")
    if kind == "duplicate":
        i = draw(st.integers(0, len(lines) - 1))
        lines.insert(i, lines[i])
    else:
        lines = draw(st.permutations(lines))
    return b"\n".join(lines)


@pytest.mark.parametrize("case", sorted(CASES))
def test_mutated_artifact_ends_in_a_typed_exit(artifacts, case, monkeypatch):
    monkeypatch.chdir(artifacts)
    name, command = CASES[case]
    original = (artifacts / name).read_bytes()
    mutated = artifacts / f"mutated_{name}"

    @seed(1810_02334)
    @settings(max_examples=150, deadline=None, database=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(blob=mutations(original))
    def run(blob):
        mutated.write_bytes(blob)
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(command(mutated, artifacts))
        err = err.getvalue()
        assert code in (0, 2, 3, 4), err
        assert "Traceback" not in err + out.getvalue()
        if code:
            assert err.startswith(PREFIX[code]), err
        if code == 3 and case != "config":
            assert str(mutated) in err, err
    run()


TEXT_CASES = ["config", "csv", "partition", "partition_manifest", "report",
              "task_manifest"]


@pytest.mark.parametrize("case", TEXT_CASES)
def test_non_utf8_text_input_is_a_typed_error(artifacts, case, capsys, monkeypatch):
    monkeypatch.chdir(artifacts)
    name, command = CASES[case]
    lines = (artifacts / name).read_bytes().split(b"\n")
    lines[1] = b"\xff" + lines[1]
    mutated = artifacts / f"mutated_{name}"
    mutated.write_bytes(b"\n".join(lines))
    capsys.readouterr()
    code = main(command(mutated, artifacts))
    err = capsys.readouterr().err
    # a config file is configuration; every other text input is data
    assert code == (2 if case == "config" else 3)
    assert err.startswith(PREFIX[code]) and f"{mutated}: not UTF-8 text" in err
    assert "Traceback" not in err
