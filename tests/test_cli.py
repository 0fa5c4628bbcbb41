import json
import os
import pathlib
import re
import subprocess
import sys

import pytest

import cadlab
from cadlab.cli import main


def _write_json(path, payload):
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh)


@pytest.fixture()
def small_data(tmp_path):
    gen_cfg = tmp_path / "gen.json"
    _write_json(gen_cfg, {"n_pairs": 16, "n_ood": 12, "seed": 5})
    data_dir = tmp_path / "data"
    assert main(["generate", "--config", str(gen_cfg), "--out", str(data_dir)]) == 0
    return tmp_path, data_dir


def test_generate_creates_files(small_data, capsys):
    _, data_dir = small_data
    for name in ("train.jsonl", "ood.jsonl", "ood_stress.jsonl", "groups.json",
                 "generator_config.json"):
        assert (data_dir / name).exists()


def test_generate_determinism(tmp_path):
    cfg = tmp_path / "gen.json"
    _write_json(cfg, {"n_pairs": 10, "n_ood": 6, "seed": 42})
    assert main(["generate", "--config", str(cfg), "--out", str(tmp_path / "a")]) == 0
    assert main(["generate", "--config", str(cfg), "--out", str(tmp_path / "b")]) == 0
    for name in ("train.jsonl", "ood.jsonl", "ood_stress.jsonl", "groups.json"):
        assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()


def test_generate_bad_config_exit_1(tmp_path, capsys):
    cfg = tmp_path / "gen.json"
    for payload, message in (({"n_pairs": 0}, "n_pairs must be >= 1"),
                             ({"tokens_per_group": []}, "tokens_per_group must be an object")):
        _write_json(cfg, payload)
        assert main(["generate", "--config", str(cfg), "--out", str(tmp_path / "x")]) == 1
        assert f"error: bad generator config: {message}" in capsys.readouterr().err
    assert not (tmp_path / "x").exists()


def test_train_eval_probe_pipeline(small_data, capsys):
    tmp_path, data_dir = small_data
    train_cfg = tmp_path / "train.json"
    _write_json(train_cfg, {"alpha": 1.6, "beta": 0.1, "epochs": 1,
                            "batch_pairs": 8, "embed_dim": 4})
    out_dir = tmp_path / "run"
    rc = main(["train", "--config", str(train_cfg), "--data", str(data_dir),
               "--out", str(out_dir), "--seed", "3"])
    assert rc == 0
    assert (out_dir / "checkpoint.json").exists()
    assert (out_dir / "train_log.csv").exists()
    assert (out_dir / "epoch_summary.csv").exists()
    capsys.readouterr()

    rc = main(["eval", "--checkpoint", str(out_dir / "checkpoint.json"),
               "--data", str(data_dir / "ood.jsonl")])
    assert rc == 0
    report = json.loads(capsys.readouterr().out)
    assert 0.0 <= report["accuracy"] <= 1.0
    assert report["n"] == 12

    rc = main(["probe", "--checkpoint", str(out_dir / "checkpoint.json"),
               "--data", str(data_dir / "ood.jsonl")])
    assert rc == 0
    probe = json.loads(capsys.readouterr().out)
    assert set(probe["drops"]) == {"edited_causal", "nonedited_causal", "correlated"}


def test_train_is_byte_deterministic(small_data):
    tmp_path, data_dir = small_data
    train_cfg = tmp_path / "train.json"
    _write_json(train_cfg, {"alpha": 0.5, "beta": 0.1, "epochs": 1,
                            "batch_pairs": 8, "embed_dim": 4})
    for out in ("r1", "r2"):
        assert main(["train", "--config", str(train_cfg), "--data", str(data_dir),
                     "--out", str(tmp_path / out), "--seed", "7"]) == 0
    for name in ("checkpoint.json", "train_log.csv", "epoch_summary.csv"):
        assert (tmp_path / "r1" / name).read_bytes() == (tmp_path / "r2" / name).read_bytes()


def test_cli_flag_overrides_config(small_data, capsys):
    tmp_path, data_dir = small_data
    train_cfg = tmp_path / "train.json"
    _write_json(train_cfg, {"alpha": 1.6, "beta": 0.1, "epochs": 2,
                            "batch_pairs": 8, "embed_dim": 4})
    rc = main(["train", "--config", str(train_cfg), "--data", str(data_dir),
               "--out", str(tmp_path / "o"), "--seed", "1",
               "--alpha", "0.0", "--beta", "0.0", "--epochs", "1"])
    assert rc == 0
    ckpt = json.loads((tmp_path / "o" / "checkpoint.json").read_text())
    assert ckpt["extra"]["train_config"]["alpha"] == 0.0
    assert ckpt["extra"]["train_config"]["epochs"] == 1


def test_train_missing_data_exit_1(tmp_path, capsys):
    rc = main(["train", "--data", str(tmp_path / "nope"), "--out",
               str(tmp_path / "o"), "--seed", "1"])
    assert rc == 1


def test_train_runtime_failure_exit_2(small_data, capsys):
    tmp_path, data_dir = small_data
    rc = main(["train", "--data", str(data_dir), "--out", str(tmp_path / "o"),
               "--seed", "1", "--alpha", "0.0", "--beta", "0.0",
               "--lr", "1e307", "--epochs", "3"])
    assert rc == 2
    assert "runtime failure" in capsys.readouterr().err


@pytest.mark.parametrize("flag, config", [
    (["--embed-dim", "0"], {}),
    ([], {"n_classes": 0}),
])
def test_train_empty_model_dimension_exit_1(small_data, capsys, flag, config):
    tmp_path, data_dir = small_data
    cfg = tmp_path / "train.json"
    _write_json(cfg, config)
    rc = main(["train", "--config", str(cfg), "--data", str(data_dir),
               "--out", str(tmp_path / "o"), "--seed", "1", *flag])
    assert rc == 1
    assert "bad train config" in capsys.readouterr().err


def test_removed_train_config_keys_exit_1(small_data, capsys):
    """A config file that sets an option TrainConfig no longer has is rejected."""
    tmp_path, data_dir = small_data
    cfg = tmp_path / "train.json"
    for key, value in (("lp_mode", "union"), ("stop_grad_on_W_for_ocd", False),
                       ("checkpoint_rule", "best_train_accuracy"), ("adam_beta1", 0.9),
                       ("adam_beta2", 0.999), ("adam_eps", 1e-8)):
        _write_json(cfg, {"epochs": 1, key: value})
        rc = main(["train", "--config", str(cfg), "--data", str(data_dir),
                   "--out", str(tmp_path / "o"), "--seed", "1"])
        assert rc == 1
        assert f"unknown train config keys: ['{key}']" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


# (file in the data directory, its new content or None to delete it, message)
BROKEN_DATA_FILES = [
    pytest.param("generator_config.json", None, "generator_config.json: file not found",
                 id="generator_config-missing"),
    pytest.param("generator_config.json", "{not json", "generator_config.json: invalid JSON",
                 id="generator_config-invalid_json"),
    pytest.param("generator_config.json", "[]", "generator_config.json: expected a JSON object",
                 id="generator_config-not_object"),
    pytest.param("generator_config.json", '{"n_pairs": 0}',
                 "generator_config.json: n_pairs must be >= 1", id="generator_config-bad_value"),
    pytest.param("generator_config.json", '{"tokens_per_group": []}',
                 "generator_config.json: tokens_per_group must be an object",
                 id="generator_config-tokens_per_group_not_object"),
    pytest.param("groups.json", None, "groups.json: file not found", id="groups-missing"),
    pytest.param("groups.json", "{not json", "groups.json: invalid JSON",
                 id="groups-invalid_json"),
    pytest.param("groups.json", '{"noise": []}', "groups.json: feature groups lack",
                 id="groups-lacks_group"),
]

DATA_COMMANDS = {
    "train": ["--seed", "1"],
    "ablate": ["--seeds", "0,1"],
    "data-efficiency": ["--sizes", "4", "--seeds", "0"],
}


@pytest.mark.parametrize("command", sorted(DATA_COMMANDS))
@pytest.mark.parametrize("name, content, message", BROKEN_DATA_FILES)
def test_broken_dataset_file_exit_1(small_data, capsys, command, name, content, message):
    tmp_path, data_dir = small_data
    if content is None:
        (data_dir / name).unlink()
    else:
        (data_dir / name).write_text(content)
    out = tmp_path / "out"
    rc = main([command, "--data", str(data_dir), "--out", str(out), "--epochs", "1",
               *DATA_COMMANDS[command]])
    err = capsys.readouterr().err
    assert rc == 1, err
    assert err.startswith("error: ") and message in err
    assert not out.exists()


def test_eval_bad_checkpoint_exit_1(small_data, capsys):
    tmp_path, data_dir = small_data
    bad = tmp_path / "bad.json"
    bad.write_text("{}")
    rc = main(["eval", "--checkpoint", str(bad), "--data", str(data_dir / "ood.jsonl")])
    assert rc == 1


@pytest.fixture()
def trained(small_data):
    tmp_path, data_dir = small_data
    rc = main(["train", "--data", str(data_dir), "--out", str(tmp_path / "run"),
               "--seed", "1", "--epochs", "1", "--embed-dim", "4"])
    assert rc == 0
    return tmp_path, data_dir, tmp_path / "run" / "checkpoint.json"


def _set(path, value):
    """Checkpoint payload edit: set the value at a key path."""
    def edit(payload):
        *parents, last = path
        node = payload
        for key in parents:
            node = node[key]
        node[last] = value(node[last]) if callable(value) else value
        return payload
    return edit


def _drop(*path):
    """Checkpoint payload edit: delete the key at a key path."""
    def edit(payload):
        *parents, last = path
        node = payload
        for key in parents:
            node = node[key]
        del node[last]
        return payload
    return edit


def _nan_at(row, col):
    def value(matrix):
        matrix[row][col] = float("nan")
        return matrix
    return value


# one malformed checkpoint per row: (name, edit, expected exit code, message fragment)
MALFORMED_CHECKPOINTS = [
    ("truncated embedding", _set(("params", "embedding"), lambda m: m[:-1]), 1,
     "embedding has shape (32, 4), expected (33, 4)"),
    ("short embedding rows", _set(("params", "embedding"), lambda m: [r[:-1] for r in m]), 1,
     "embedding has shape (33, 3), expected (33, 4)"),
    ("ragged embedding", _set(("params", "embedding"), lambda m: [m[0][:-1]] + m[1:]), 1,
     "embedding is not a numeric array"),
    ("string weight", _set(("params", "enc_bias"), lambda v: ["w"] + v[1:]), 1,
     "enc_bias is not a numeric array"),
    ("NaN weight", _set(("params", "classifier"), _nan_at(1, 2)), 1,
     "classifier holds a non-finite value"),
    ("infinite bias", _set(("params", "out_bias"), lambda v: [float("inf")] + v[1:]), 1,
     "out_bias holds a non-finite value"),
    ("long out_bias", _set(("params", "out_bias"), lambda v: v + [0.0]), 1,
     "out_bias has shape (3,), expected (2,)"),
    ("null classifier", _set(("params", "classifier"), None), 1,
     "classifier has shape (), expected (2, 4)"),
    ("missing out_bias", _drop("params", "out_bias"), 1, "'out_bias'"),
    ("params not an object", _set(("params",), lambda v: list(v.values())), 1,
     'a checkpoint is a JSON object with a "params" object'),
    ("missing params", _drop("params"), 1, 'a checkpoint is a JSON object with a "params" object'),
    ("not an object", lambda payload: [payload], 1,
     'a checkpoint is a JSON object with a "params" object'),
    ("hidden layer the model lacks", _set(("params", "hidden"), [[0.0] * 4] * 4), 1,
     "hidden is given but the model has no hidden layer"),
    ("hidden layer missing", _set(("model", "use_hidden"), True), 1,
     "hidden has shape (), expected (4, 4)"),
    ("unknown model key", _set(("model", "depth"), 3), 1, "bad model config"),
    ("vocab mismatch", _set(("vocab",), lambda v: v[:-1]), 1,
     "checkpoint vocab does not match model vocab_size"),
    ("format version", _set(("format_version",), 2), 1,
     "unsupported checkpoint format version 2"),
]


@pytest.mark.parametrize("command", ["eval", "probe"])
@pytest.mark.parametrize("name, edit, code, message", MALFORMED_CHECKPOINTS,
                         ids=[row[0] for row in MALFORMED_CHECKPOINTS])
def test_malformed_checkpoint_exit_code(trained, capsys, command, name, edit, code, message):
    tmp_path, data_dir, ckpt = trained
    bad = tmp_path / "bad.json"
    _write_json(bad, edit(json.loads(ckpt.read_text())))
    capsys.readouterr()
    rc = main([command, "--checkpoint", str(bad), "--data", str(data_dir / "ood.jsonl")])
    err = capsys.readouterr().err
    assert rc == code, err
    assert err.startswith(f"error: bad checkpoint {bad}: ") and message in err, err


@pytest.mark.parametrize("command", ["eval", "probe"])
def test_label_outside_model_classes_exit_1(trained, capsys, command):
    tmp_path, data_dir, ckpt = trained
    lines = (data_dir / "ood.jsonl").read_text().splitlines()
    row = json.loads(lines[0])
    row["label"] = 7
    data = tmp_path / "bad_labels.jsonl"
    data.write_text("\n".join([lines[1], json.dumps(row)] + lines[2:]) + "\n")
    capsys.readouterr()
    groups = ["--groups", str(data_dir / "groups.json")] if command == "probe" else []
    rc = main([command, "--checkpoint", str(ckpt), "--data", str(data), *groups])
    err = capsys.readouterr().err
    assert rc == 1, err
    assert f"example {row['id']!r} has label 7, outside the model's 2 classes" in err, err


def test_ablate_cli_and_determinism(small_data, capsys):
    tmp_path, data_dir = small_data
    train_cfg = tmp_path / "train.json"
    _write_json(train_cfg, {"alpha": 1.6, "beta": 0.1, "epochs": 1,
                            "batch_pairs": 8, "embed_dim": 4})
    for out in ("ab1", "ab2"):
        rc = main(["ablate", "--config", str(train_cfg), "--data", str(data_dir),
                   "--seeds", "0,1", "--out", str(tmp_path / out)])
        assert rc == 0
    for name in ("ablation.csv", "ablation.json"):
        assert (tmp_path / "ab1" / name).read_bytes() == (tmp_path / "ab2" / name).read_bytes()
    payload = json.loads((tmp_path / "ab1" / "ablation.json").read_text())
    assert {r["arm"] for r in payload["rows"]} == {"full", "no_irm", "no_ocd", "neither"}

    rc = main(["ablate", "--config", str(train_cfg), "--data", str(data_dir),
               "--seeds", "0", "--out", str(tmp_path / "ab3")])
    assert rc == 1  # needs >= 2 seeds


def test_data_efficiency_cli(small_data, capsys):
    tmp_path, data_dir = small_data
    rc = main(["data-efficiency", "--data", str(data_dir), "--sizes", "8,16",
               "--seeds", "0", "--out", str(tmp_path / "de"),
               "--alpha", "1.6", "--beta", "0.1", "--epochs", "1",
               "--batch-pairs", "8", "--embed-dim", "4"])
    assert rc == 0
    payload = json.loads((tmp_path / "de" / "data_efficiency.json").read_text())
    assert len(payload["rows"]) == 6
    rc = main(["data-efficiency", "--data", str(data_dir), "--sizes", "7",
               "--seeds", "0", "--out", str(tmp_path / "de2")])
    assert rc == 1


# a learning rate that makes the first steps non-finite, and the runs to try it on
DIVERGING = ["--lr", "1e300", "--epochs", "3", "--batch-pairs", "4"]
RUNNER_ARGS = {
    "ablate": ["--seeds", "0,1"],
    "data-efficiency": ["--sizes", "8,16", "--seeds", "0,1"],
}


@pytest.mark.parametrize("command", sorted(RUNNER_ARGS))
def test_diverging_run_exits_2_at_any_worker_count(small_data, command):
    """A non-finite loss ends a runner with exit 2 and the message of its
    first failing run, forked or not. In a subprocess, so a hang fails."""
    tmp_path, data_dir = small_data
    env = {**os.environ, "PYTHONPATH": str(pathlib.Path(cadlab.__file__).parents[1])}
    failures = {}
    for workers in (1, 2):
        out = tmp_path / f"out{workers}"
        proc = subprocess.run(
            [sys.executable, "-m", "cadlab.cli", command, "--data", str(data_dir),
             "--out", str(out), "--workers", str(workers), *DIVERGING, *RUNNER_ARGS[command]],
            env=env, capture_output=True, text=True, timeout=120)
        assert proc.returncode == 2, proc.stderr
        failures[workers] = [line for line in proc.stderr.splitlines()
                             if line.startswith("runtime failure: ")]
        assert not out.exists()
    assert len(failures[1]) == 1
    assert re.fullmatch(r"runtime failure: step \d+: \w+ became non-finite \(.*\)",
                        failures[1][0])
    assert failures[2] == failures[1]


def test_bad_seed_list_exit_1(small_data, capsys):
    tmp_path, data_dir = small_data
    rc = main(["ablate", "--data", str(data_dir), "--seeds", "a,b",
               "--out", str(tmp_path / "x")])
    assert rc == 1
