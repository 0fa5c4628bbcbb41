import json
import os
import pathlib
import re
import shutil
import subprocess
import sys

import pytest

import cadlab
from cadlab import cli
from cadlab.cli import main


def _write_json(path, payload):
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh)


DIRECTORY = object()   # _put content: an empty directory in place of a file


def _put(path, content):
    """Replace what is at path: None leaves nothing, DIRECTORY an empty
    directory, and bytes or text a file that holds them."""
    if path.is_dir():
        shutil.rmtree(path)
    elif path.exists():
        path.unlink()
    if content is DIRECTORY:
        path.mkdir()
    elif isinstance(content, bytes):
        path.write_bytes(content)
    elif content is not None:
        path.write_text(content)


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
                             ({"tokens_per_group": []}, "tokens_per_group must be an object"),
                             ({"n_pairs": 10.5}, "n_pairs must be an int, got 10.5"),
                             ({"n_pairs": 4, "n_ood": -1},
                              "n_ood and correlated_per_sentence must be >= 0"),
                             ({"n_pairs": 4, "correlated_per_sentence": -3},
                              "n_ood and correlated_per_sentence must be >= 0"),
                             # random.Random(-5) is random.Random(5)
                             ({"n_pairs": 4, "seed": -5}, "seed must be >= 0"),
                             ({"n_pairs": 4, "tokens_per_group": {
                                 "edited": 4, "nonedited": 4, "correlated": 4, "noise": 8,
                                 "typo": 3}}, "unknown tokens_per_group keys: ['typo']"),
                             ({"n_pairs": 4, "rho_train": True},
                              "rho_train must be a finite number, got True"),
                             ({"n_pairs": 4, "rho_train": "0.9"},
                              "rho_train must be a finite number, got '0.9'"),
                             ({"n_pairs": 4, "rho_ood": False},
                              "rho_ood must be a finite number, got False"),
                             ({"n_pairs": 4, "edit_scope": None},
                              "edit_scope must be a finite number, got None")):
        _write_json(cfg, payload)
        assert main(["generate", "--config", str(cfg), "--out", str(tmp_path / "x")]) == 1
        assert f"error: bad generator config: {message}" in capsys.readouterr().err
    assert not (tmp_path / "x").exists()


def test_generate_seed_overrides_config_seed(tmp_path):
    cfg = tmp_path / "gen.json"
    _write_json(cfg, {"n_pairs": 10, "n_ood": 6, "seed": 42})
    assert main(["generate", "--config", str(cfg), "--out", str(tmp_path / "a"),
                 "--seed", "7"]) == 0
    assert main(["generate", "--config", str(cfg), "--out", str(tmp_path / "c")]) == 0
    _write_json(cfg, {"n_pairs": 10, "n_ood": 6, "seed": 7})
    assert main(["generate", "--config", str(cfg), "--out", str(tmp_path / "b")]) == 0
    assert json.loads((tmp_path / "a" / "generator_config.json").read_text())["seed"] == 7
    for name in ("train.jsonl", "ood.jsonl", "ood_stress.jsonl", "generator_config.json"):
        assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()
    config_seed = (tmp_path / "c" / "train.jsonl").read_bytes()
    assert (tmp_path / "a" / "train.jsonl").read_bytes() != config_seed


# the commands that read --config, and the other arguments each needs
CONFIG_COMMANDS = {
    "generate": ["--seed", "1"],
    "train": ["--seed", "1"],
    "ablate": ["--seeds", "0,1", "--epochs", "1"],
    "data-efficiency": ["--sizes", "4", "--seeds", "0", "--epochs", "1"],
}
# (what _put leaves at the config path, message)
BAD_CONFIG_FILES = [
    pytest.param(None, "cfg.json: file not found", id="missing"),
    pytest.param("{not json", "cfg.json: invalid JSON", id="invalid_json"),
    pytest.param("[]", "cfg.json: expected a JSON object", id="list"),
    pytest.param('"alpha"', "cfg.json: expected a JSON object", id="string"),
    pytest.param(b'{"alpha": "\xff"}', "cfg.json: not UTF-8 text", id="not_utf8"),
    pytest.param(DIRECTORY, "cfg.json: Is a directory", id="directory"),
]


@pytest.mark.parametrize("command", sorted(CONFIG_COMMANDS))
@pytest.mark.parametrize("content, message", BAD_CONFIG_FILES)
def test_bad_config_file_exit_1(small_data, capsys, command, content, message):
    tmp_path, data_dir = small_data
    cfg = tmp_path / "cfg.json"
    _put(cfg, content)
    data = [] if command == "generate" else ["--data", str(data_dir)]
    out = tmp_path / "out"
    rc = main([command, "--config", str(cfg), "--out", str(out), *data,
               *CONFIG_COMMANDS[command]])
    err = capsys.readouterr().err
    assert rc == 1, err
    assert err.startswith("error: ") and message in err and str(cfg) in err, err
    assert not out.exists()


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
    # no seed key: the fingerprint hashes the training config, its seed included
    assert set(report) == {"split", "accuracy", "n", "per_class_accuracy", "fingerprint"}
    extra = json.loads((out_dir / "checkpoint.json").read_text())["extra"]
    assert report["fingerprint"] == extra["fingerprint"]

    rc = main(["probe", "--checkpoint", str(out_dir / "checkpoint.json"),
               "--data", str(data_dir / "ood.jsonl")])
    assert rc == 0
    probe = json.loads(capsys.readouterr().out)
    assert set(probe["drops"]) == {"edited_causal", "nonedited_causal", "correlated"}


def test_three_class_data_runs_without_a_train_config(tmp_path, capsys):
    """The class count comes from the training labels, so a three-class
    dataset needs no train config."""
    gen_cfg = tmp_path / "gen.json"
    _write_json(gen_cfg, {"n_pairs": 18, "n_ood": 12, "n_classes": 3, "seed": 5})
    data_dir = tmp_path / "data"
    assert main(["generate", "--config", str(gen_cfg), "--out", str(data_dir)]) == 0
    out_dir = tmp_path / "run"
    rc = main(["train", "--data", str(data_dir), "--out", str(out_dir), "--seed", "3",
               "--epochs", "1"])
    assert rc == 0, capsys.readouterr().err
    checkpoint = json.loads((out_dir / "checkpoint.json").read_text())
    assert checkpoint["model"]["n_classes"] == 3
    assert "n_classes" not in checkpoint["extra"]["train_config"]
    capsys.readouterr()
    ckpt = str(out_dir / "checkpoint.json")
    assert main(["eval", "--checkpoint", ckpt, "--data", str(data_dir / "ood.jsonl")]) == 0
    assert set(json.loads(capsys.readouterr().out)["per_class_accuracy"]) == {"0", "1", "2"}
    assert main(["probe", "--checkpoint", ckpt, "--data", str(data_dir / "ood.jsonl")]) == 0
    assert json.loads(capsys.readouterr().out)["n"] == 12


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


def test_diverging_train_prints_only_the_failure_line(tmp_path):
    """Sums that overflow while the non-finite check runs warn nothing: the
    failure line is all a diverging train writes to stderr. In a subprocess,
    so numpy's own warning output is what is checked."""
    gen_cfg = tmp_path / "gen.json"
    _write_json(gen_cfg, {"n_pairs": 40, "n_ood": 12, "seed": 5})
    data_dir = tmp_path / "data"
    assert main(["generate", "--config", str(gen_cfg), "--out", str(data_dir)]) == 0
    env = {**os.environ, "PYTHONPATH": str(pathlib.Path(cadlab.__file__).parents[1])}
    proc = subprocess.run(
        [sys.executable, "-m", "cadlab.cli", "train", "--data", str(data_dir),
         "--out", str(tmp_path / "o"), "--seed", "1", "--alpha", "0", "--beta", "0",
         "--lr", "1e307", "--epochs", "3"],
        env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 2
    assert proc.stderr == "runtime failure: step 1: l_p became non-finite (inf)\n"


@pytest.mark.parametrize("flag, config", [
    (["--embed-dim", "0"], {}),
    ([], {"n_classes": 0}),
    (["--alpha", "nan"], {}),
    (["--lr", "nan"], {}),
    (["--beta", "inf"], {}),
    ([], {"batch_pairs": 2.5}),
    ([], {"epochs": True}),
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
                       ("adam_beta2", 0.999), ("adam_eps", 1e-8), ("use_hidden", False),
                       ("n_classes", 3)):
        _write_json(cfg, {"epochs": 1, key: value})
        rc = main(["train", "--config", str(cfg), "--data", str(data_dir),
                   "--out", str(tmp_path / "o"), "--seed", "1"])
        assert rc == 1
        assert f"unknown train config keys: ['{key}']" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


# (file in the data directory, what _put leaves there, message)
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
    pytest.param("generator_config.json", '{"n_pairs": 10.5}',
                 "generator_config.json: n_pairs must be an int", id="generator_config-float_count"),
    pytest.param("generator_config.json", '{"n_ood": -1}',
                 "generator_config.json: n_ood and correlated_per_sentence must be >= 0",
                 id="generator_config-negative_n_ood"),
    pytest.param("generator_config.json", '{"correlated_per_sentence": -3}',
                 "generator_config.json: n_ood and correlated_per_sentence must be >= 0",
                 id="generator_config-negative_correlated"),
    pytest.param("groups.json", None, "groups.json: file not found", id="groups-missing"),
    pytest.param("groups.json", "{not json", "groups.json: invalid JSON",
                 id="groups-invalid_json"),
    pytest.param("groups.json", '{"noise": []}', "groups.json: feature groups lack",
                 id="groups-lacks_group"),
    pytest.param("generator_config.json", b'{"seed": 1}\xff',
                 "generator_config.json: not UTF-8 text", id="generator_config-not_utf8"),
    pytest.param("groups.json", DIRECTORY, "groups.json: Is a directory", id="groups-directory"),
    pytest.param("train.jsonl", "5\n", "train.jsonl:1: expected a JSON object",
                 id="train-not_object_line"),
    pytest.param("train.jsonl", b'{"id": "\xff"}\n', "train.jsonl:1: not UTF-8 text",
                 id="train-not_utf8"),
    pytest.param("", "", "Not a directory", id="data_directory-a_file"),
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
    _put(data_dir / name, content)     # name "" is the data directory itself
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


def _with_hidden_layer(payload):
    """A checkpoint of a hidden-layer model, as earlier versions wrote them."""
    d = payload["model"]["embed_dim"]
    payload["model"]["use_hidden"] = True
    payload["params"].update(hidden=[[0.0] * d] * d, hidden_bias=[0.0] * d)
    return payload


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
     "the model has a hidden layer, which checkpoints no longer hold"),
    ("hidden-layer model", _with_hidden_layer, 1,
     "the model has a hidden layer, which checkpoints no longer hold"),
    ("unknown model key", _set(("model", "depth"), 3), 1, "bad model config"),
    ("float n_classes", _set(("model", "n_classes"), 2.0), 1,
     "bad model config: n_classes must be an int, got 2.0"),
    ("float vocab_size", _set(("model", "vocab_size"), 33.0), 1,
     "bad model config: vocab_size must be an int, got 33.0"),
    ("float embed_dim", _set(("model", "embed_dim"), 4.0), 1,
     "bad model config: embed_dim must be an int, got 4.0"),
    ("bool n_classes", _set(("model", "n_classes"), True), 1,
     "bad model config: n_classes must be an int, got True"),
    ("string use_hidden", _set(("model", "use_hidden"), "no"), 1,
     "bad model config: use_hidden must be a bool, got 'no'"),
    ("integer use_hidden", _set(("model", "use_hidden"), 0), 1,
     "bad model config: use_hidden must be a bool, got 0"),
    ("vocab mismatch", _set(("vocab",), lambda v: v[:-1]), 1,
     "checkpoint vocab does not match model vocab_size"),
    ("vocab a number", _set(("vocab",), 5), 1, '"vocab" is not a list of strings'),
    ("vocab of lists", _set(("vocab",), [[1], [1], [1]]), 1, '"vocab" is not a list of strings'),
    ("vocab a string", _set(("vocab",), "tokens"), 1, '"vocab" is not a list of strings'),
    # embedding row i belongs to the i-th sorted token, so another order would re-map the rows
    ("vocab reversed", _set(("vocab",), lambda v: v[::-1]), 1,
     '"vocab" is not in strictly increasing order'),
    ("vocab with a repeat", _set(("vocab",), lambda v: v[:1] + v[:-1]), 1,
     '"vocab" is not in strictly increasing order'),
    ("extra a list", _set(("extra",), []), 1, '"extra" is not an object'),
    ("extra a number", _set(("extra",), 5), 1, '"extra" is not an object'),
    ("extra a string", _set(("extra",), "x"), 1, '"extra" is not an object'),
    ("format version", _set(("format_version",), 2), 1,
     "unsupported checkpoint format version 2"),
    ("not UTF-8", lambda payload: json.dumps(payload).encode() + b"\xff", 1, "not UTF-8 text"),
    ("a directory", lambda payload: DIRECTORY, 1, "Is a directory"),
    ("deeply nested", lambda payload: b"[" * 100_000, 1, "invalid JSON: nested too deeply"),
]


@pytest.mark.parametrize("command", ["eval", "probe"])
@pytest.mark.parametrize("name, edit, code, message", MALFORMED_CHECKPOINTS,
                         ids=[row[0] for row in MALFORMED_CHECKPOINTS])
def test_malformed_checkpoint_exit_code(trained, capsys, command, name, edit, code, message):
    tmp_path, data_dir, ckpt = trained
    bad = tmp_path / "bad.json"
    edited = edit(json.loads(ckpt.read_text()))
    _put(bad, edited if edited is DIRECTORY or isinstance(edited, bytes) else json.dumps(edited))
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


# a groups.json whose edited_causal group is given as value
def _groups_with_edited(value):
    return json.dumps({"edited_causal": value, "nonedited_causal": ["c"], "correlated": ["r"],
                       "noise": ["n"]})


_LONG_LABEL = "1" * (sys.get_int_max_str_digits() + 1)

# (command, the argument given a bad path, what is there, message)
BAD_EVAL_INPUTS = [
    pytest.param(command, "--data", content, message, id=f"{command}-data-{case}")
    for command in ("eval", "probe")
    for case, content, message in (
        ("int_line", '{"id": "a", "text": "x", "label": 0, "pair_id": "a", '
                     '"variant": "original"}\n5\n', "bad.jsonl:2: expected a JSON object"),
        ("null_line", "null\n", "bad.jsonl:1: expected a JSON object"),
        ("not_utf8", b"\xff\n", "bad.jsonl:1: not UTF-8 text"),
        # a label longer than int() converts, on a line that dump_jsonl's format matches
        ("long_label", f'{{"id": "a", "label": {_LONG_LABEL}, "pair_id": "a", "text": "x", '
                       f'"variant": "original"}}\n',
         f"bad.jsonl:1: Exceeds the limit ({len(_LONG_LABEL) - 1} digits) for integer string"),
        # json's scanner raises RecursionError on it
        ("deep_nesting", "[" * 100_000 + "\n", "bad.jsonl:1: invalid JSON: nested too deeply"),
        ("directory", DIRECTORY, "Is a directory"))
] + [pytest.param("probe", "--groups", content, message, id=f"probe-groups-{case}")
     for case, content, message in (
         ("directory", DIRECTORY, "Is a directory"),
         ("deep_nesting", '{"edited_causal": ' + "[" * 100_000 + "}",
          "invalid JSON: nested too deeply"),
         # a string would become a set of its characters
         ("group_a_string", _groups_with_edited("edit0_0"),
          "feature group 'edited_causal' is not a list of strings"),
         ("group_of_ints", _groups_with_edited([0, 1]),
          "feature group 'edited_causal' is not a list of strings"))]


@pytest.mark.parametrize("command, arg, content, message", BAD_EVAL_INPUTS)
def test_bad_eval_input_exit_1(trained, capsys, command, arg, content, message):
    tmp_path, data_dir, ckpt = trained
    paths = {"--data": data_dir / "ood.jsonl", "--groups": data_dir / "groups.json"}
    paths[arg] = tmp_path / "bad.jsonl"
    _put(paths[arg], content)
    groups = ["--groups", str(paths["--groups"])] if command == "probe" else []
    capsys.readouterr()
    rc = main([command, "--checkpoint", str(ckpt), "--data", str(paths["--data"]), *groups])
    err = capsys.readouterr().err
    assert rc == 1, err
    assert err.startswith("error: ") and message in err and str(paths[arg]) in err, err


@pytest.mark.parametrize("command", ["eval", "probe"])
def test_out_file_holds_the_printed_report(trained, capsys, command):
    tmp_path, data_dir, ckpt = trained
    out = tmp_path / f"{command}.json"
    capsys.readouterr()
    rc = main([command, "--checkpoint", str(ckpt), "--data", str(data_dir / "ood.jsonl"),
               "--out", str(out)])
    assert rc == 0
    assert out.read_text() == capsys.readouterr().out


# (command, its other arguments, what --out names)
BAD_OUT = [
    pytest.param(command, args, bad, id=f"{command}-{bad}")
    for command, args, bads in (
        ("generate", [], ("existing_file", "under_a_file")),
        ("train", ["--data", "DATA", "--seed", "0"], ("existing_file", "under_a_file")),
        ("ablate", ["--data", "DATA", "--seeds", "0,1"], ("existing_file",)),
        ("data-efficiency", ["--data", "DATA", "--sizes", "8", "--seeds", "0"],
         ("existing_file",)),
        ("eval", ["--checkpoint", "CKPT", "--data", "OOD"], ("directory", "missing_parent")),
        ("probe", ["--checkpoint", "CKPT", "--data", "OOD"], ("directory", "missing_parent")))
    for bad in bads
]


@pytest.mark.parametrize("command, args, bad", BAD_OUT)
def test_bad_out_exit_1_before_any_work(trained, capsys, monkeypatch, command, args, bad):
    """A --out that cannot be written ends the command with exit 1 and the
    path in the message, before it trains, prints or creates anything."""
    tmp_path, data_dir, ckpt = trained
    (tmp_path / "a_file").write_text("kept\n")
    out = {"existing_file": tmp_path / "a_file", "under_a_file": tmp_path / "a_file" / "out",
           "directory": data_dir, "missing_parent": tmp_path / "missing" / "report.json"}[bad]
    for name in ("generate_cad", "train", "evaluate", "myopia_probe", "run_ablation",
                 "run_data_efficiency"):
        monkeypatch.setattr(cli, name, lambda *a, **k: pytest.fail("work began"))
    paths = {"DATA": str(data_dir), "CKPT": str(ckpt), "OOD": str(data_dir / "ood.jsonl")}
    before = sorted(tmp_path.rglob("*"))
    capsys.readouterr()
    rc = main([command, *[paths.get(a, a) for a in args], "--out", str(out)])
    printed = capsys.readouterr()
    assert rc == 1, printed.err
    assert printed.err.startswith("error: ") and str(out) in printed.err, printed.err
    assert printed.out == ""
    assert sorted(tmp_path.rglob("*")) == before
    assert (tmp_path / "a_file").read_text() == "kept\n"


def test_probe_takes_groups_from_groups_json_alone(trained, capsys):
    """Lines without a "groups" key probe; an older file whose lines carry the
    per-line annotation evaluates and probes byte-identically."""
    tmp_path, data_dir, ckpt = trained
    groups_path = data_dir / "groups.json"
    groups = json.loads(groups_path.read_text())
    rows = [json.loads(line) for line in (data_dir / "ood.jsonl").read_text().splitlines()]
    plain = [{k: v for k, v in row.items() if k != "groups"} for row in rows]

    def annotated(row):  # the annotation older generators wrote into every line
        tokens = row["text"].split()
        return {**row, "groups": {
            key: [t for t in tokens if t in groups[name]] for key, name in
            (("edited", "edited_causal"), ("nonedited", "nonedited_causal"),
             ("correlated", "correlated"))}}

    reports = {}
    for name, lines in (("plain", plain), ("legacy", [annotated(row) for row in plain])):
        (tmp_path / name).mkdir()
        data = tmp_path / name / "ood.jsonl"
        data.write_text("".join(json.dumps(row, sort_keys=True) + "\n" for row in lines))
        for command, extra in (("eval", []), ("probe", ["--groups", str(groups_path)])):
            out = tmp_path / name / f"{command}.json"
            rc = main([command, "--checkpoint", str(ckpt), "--data", str(data),
                       "--out", str(out), *extra])
            assert rc == 0, capsys.readouterr().err
            reports[name, command] = out.read_bytes()
    assert reports["plain", "eval"] == reports["legacy", "eval"]
    assert reports["plain", "probe"] == reports["legacy", "probe"]


def test_main_calls_the_command_function_the_module_holds_when_it_runs(trained, monkeypatch):
    """The parser is built once, but main looks each command's function up
    when it runs, so one replaced after a first call (as a timing wrapper
    does) is the one the next call runs."""
    _, data_dir, ckpt = trained
    assert cli.build_parser() is cli.build_parser()
    calls = []
    monkeypatch.setattr(cli, "cmd_eval", lambda args: calls.append(args.data) or 7)
    assert main(["eval", "--checkpoint", str(ckpt), "--data", str(data_dir / "ood.jsonl")]) == 7
    assert calls == [str(data_dir / "ood.jsonl")]


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
# two jobs per kind of run, the second with one seed
JOB_SEEDS = ",".join(str(seed) for seed in range(cadlab.evaluation.SEEDS_PER_JOB + 1))
RUNNER_ARGS = {
    "ablate": ["--seeds", JOB_SEEDS],
    "data-efficiency": ["--sizes", "8,16", "--seeds", JOB_SEEDS],
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


# runs go non-finite at planned steps of their stack, by the plan in argv[1]:
# (seed, arm) -> {step: component}, where an arm is named by its weights as in
# the ablation ("full" is also ecf_pairs, "neither" also both erm arms)
STACK_FAILS = """
import ast, sys
from cadlab import cli, training

PLAN = ast.literal_eval(sys.argv[1])
ARMS = {(1.6, 0.1): "full", (0.0, 0.1): "no_irm", (1.6, 0.0): "no_ocd", (0.0, 0.0): "neither"}
train_stack, step_of = training._train_stack, training.objective_and_grad
now = {}

def planned_stack(runs, *args):
    now.update(runs=[(c.seed, ARMS[c.alpha, c.beta]) for c in runs], step=0)
    return train_stack(runs, *args)

def planned_step(params, grads, *args):
    breakdowns = step_of(params, grads, *args)
    for r, run in enumerate(now["runs"]):
        component = PLAN.get(run, {}).get(now["step"])
        if component == "grad":
            grads.enc_bias[r, 0] = float("nan")
        elif component is not None:
            setattr(breakdowns[r], component, float("nan"))
    now["step"] += 1
    return breakdowns

training._train_stack, training.objective_and_grad = planned_stack, planned_step
sys.exit(cli.main(sys.argv[2:]))
"""
LAST_SEED = cadlab.evaluation.SEEDS_PER_JOB


def _planned_failures(small_data, plan, command, *args) -> list[str]:
    """The runtime failure line of the command, run under STACK_FAILS with
    plan, at 1 and 2 workers, where it must exit 2 and write nothing."""
    tmp_path, data_dir = small_data
    env = {**os.environ, "PYTHONPATH": str(pathlib.Path(cadlab.__file__).parents[1])}
    failures = []
    for workers in (1, 2):
        out = tmp_path / f"out{workers}"
        proc = subprocess.run(
            [sys.executable, "-c", STACK_FAILS, repr(plan), command, "--data", str(data_dir),
             "--out", str(out), "--workers", str(workers), "--seeds", JOB_SEEDS, *args],
            env=env, capture_output=True, text=True, timeout=120)
        assert proc.returncode == 2, proc.stderr
        failures += [line for line in proc.stderr.splitlines()
                     if line.startswith("runtime failure: ")]
        assert not out.exists()
    return failures


def test_stacked_arms_report_the_first_step_and_lowest_arm_at_any_worker_count(small_data):
    """Seed 0's no_ocd l_irm and neither gradient go non-finite at step 1 in
    the first job, and the last seed's full l_p at step 0, alone in the
    second job, so with two workers the second job fails first. The ablation
    reports the lowest failing seed, 0, at its first failing step, and in
    that step its lowest arm, at any worker count: as if each seed had
    trained alone. In a subprocess, so a hang fails."""
    plan = {(0, "no_ocd"): {1: "l_irm"}, (0, "neither"): {1: "grad"},
            (LAST_SEED, "full"): {0: "l_p"}}
    assert _planned_failures(small_data, plan, "ablate", "--epochs", "1",
                             "--batch-pairs", "4") == [
        "runtime failure: step 1: l_irm became non-finite (nan)"] * 2


@pytest.mark.parametrize("plan, failure", [
    # seed 0's erm_pairs fails at step 0 and its ecf_pairs at step 2, in one stack
    ({(0, "neither"): {0: "l_p"}, (0, "full"): {2: "l_ocd"}}, "step 2: l_ocd"),
    # seed 0's erm_pairs fails in the first job, the last seed's ecf_pairs in the second
    ({(0, "neither"): {0: "l_p"}, (LAST_SEED, "full"): {1: "l_irm"}}, "step 1: l_irm"),
], ids=["one-job", "two-jobs"])
def test_data_efficiency_reports_the_first_failing_run_in_row_order(small_data, plan, failure):
    """Rows come arm by arm before seed by seed, so a failing ecf_pairs run is
    reported before an erm_pairs run that fails earlier in a stack or in an
    earlier job, at any worker count. In a subprocess, so a hang fails."""
    assert _planned_failures(small_data, plan, "data-efficiency", "--sizes", "8",
                             "--epochs", "2", "--batch-pairs", "2") == [
        f"runtime failure: {failure} became non-finite (nan)"] * 2


@pytest.mark.parametrize("workers", ["0", "-2"])
@pytest.mark.parametrize("command", sorted(RUNNER_ARGS))
def test_workers_below_one_exit_1(small_data, capsys, command, workers):
    tmp_path, data_dir = small_data
    out = tmp_path / "out"
    rc = main([command, "--data", str(data_dir), "--out", str(out), "--epochs", "1",
               "--workers", workers, *RUNNER_ARGS[command]])
    assert rc == 1
    assert f"error: workers must be >= 1, got {workers}" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("command, args, message", [
    ("ablate", ["--seeds", "0,0"], "seeds must be distinct, got [0, 0]"),
    ("data-efficiency", ["--sizes", "8,8", "--seeds", "0"], "sizes must be distinct, got [8, 8]"),
    ("data-efficiency", ["--sizes", "8", "--seeds", "1,1"], "seeds must be distinct, got [1, 1]"),
], ids=["ablate-seeds", "data-efficiency-sizes", "data-efficiency-seeds"])
def test_repeated_seed_or_size_exit_1(small_data, capsys, command, args, message):
    """A repeated seed or size would count its runs twice in every mean."""
    tmp_path, data_dir = small_data
    out = tmp_path / "out"
    rc = main([command, "--data", str(data_dir), "--out", str(out), "--epochs", "1", *args])
    assert rc == 1
    assert f"error: {message}" in capsys.readouterr().err
    assert not out.exists()


def test_bad_seed_list_exit_1(small_data, capsys):
    tmp_path, data_dir = small_data
    sweep = ["--sizes", "4", "--epochs", "1"]
    for command, seeds, message in (
            ("ablate", "a,b", "seeds must be a comma-separated integer list"),
            # seed -3 would train seed 3's runs again, as a second seed
            ("ablate", "-3,3", "seed must be >= 0"),
            ("data-efficiency", "0,-1", "seed must be >= 0")):
        rc = main([command, "--data", str(data_dir), f"--seeds={seeds}",
                   "--out", str(tmp_path / "x"), *(sweep if command == "data-efficiency" else [])])
        assert rc == 1
        assert message in capsys.readouterr().err
    assert not (tmp_path / "x").exists()


def _keep_train_lines(data_dir, keep):
    """Rewrite train.jsonl with only the records for which keep(record) holds."""
    path = data_dir / "train.jsonl"
    records = [json.loads(line) for line in path.read_text().splitlines()]
    path.write_text("".join(json.dumps(r, sort_keys=True) + "\n" for r in records if keep(r)))


def _every_third_counterfactual_removed(record):
    return record["variant"] == "original" or int(record["pair_id"][1:]) % 3 != 2


def test_partly_augmented_training_data_goes_through_every_command(small_data, capsys):
    """A train.jsonl with every third counterfactual removed: 16 units, of
    which 11 are paired (pairs 2, 5, 8, 11 and 14 lost theirs)."""
    tmp_path, data_dir = small_data
    _keep_train_lines(data_dir, _every_third_counterfactual_removed)
    fast = ["--epochs", "1", "--batch-pairs", "4", "--embed-dim", "4"]
    rc = main(["train", "--data", str(data_dir), "--out", str(tmp_path / "t"), "--seed", "1",
               *fast])
    assert rc == 0, capsys.readouterr().err

    for workers in ("1", "2"):
        rc = main(["ablate", "--data", str(data_dir), "--seeds", JOB_SEEDS, "--workers", workers,
                   "--out", str(tmp_path / f"ab{workers}"), *fast])
        assert rc == 0, capsys.readouterr().err
    for name in ("ablation.csv", "ablation.json"):
        assert (tmp_path / "ab1" / name).read_bytes() == (tmp_path / "ab2" / name).read_bytes()

    # unit 2 is a lone original, which the pairs cells must skip
    rc = main(["data-efficiency", "--data", str(data_dir), "--sizes", "8,16", "--seeds", "0",
               "--out", str(tmp_path / "de"), *fast])
    assert rc == 0, capsys.readouterr().err
    rows = json.loads((tmp_path / "de" / "data_efficiency.json").read_text())["rows"]
    assert {row["arm"] for row in rows} == {"ecf_pairs", "erm_pairs", "erm_unaugmented"}
    for row in rows:
        assert row["n_train_examples"] == row["size"]
        pairs_arm = row["arm"] != "erm_unaugmented"
        assert row["n_counterfactuals"] == (row["size"] // 2 if pairs_arm else 0)
    capsys.readouterr()
    # 24 examples would need 12 pairs
    rc = main(["data-efficiency", "--data", str(data_dir), "--sizes", "8,24", "--seeds", "0",
               "--out", str(tmp_path / "de2"), *fast])
    assert rc == 1
    assert ("error: size 24 needs 12 pairs and 24 units, but the training data holds 11 pairs "
            "in 16 units") in capsys.readouterr().err
    assert not (tmp_path / "de2").exists()


@pytest.mark.parametrize("flags, code, message", [
    (["--alpha", "0", "--beta", "0"], 0, ""),
    (["--beta", "0"], 1, "environment 'e_cad' is empty but the invariance weight is 1.6"),
])
def test_unaugmented_training_data_trains_only_the_prediction_loss(small_data, capsys, flags,
                                                                   code, message):
    """An originals-only train.jsonl trains without the constraints; under
    alpha > 0 its empty e_cad is bad input. Under beta > 0 it is bad input too
    (test_training_data_that_cannot_train_exits_1)."""
    tmp_path, data_dir = small_data
    _keep_train_lines(data_dir, lambda record: record["variant"] == "original")
    out = tmp_path / "o"
    rc = main(["train", "--data", str(data_dir), "--out", str(out), "--seed", "1",
               "--epochs", "1", *flags])
    err = capsys.readouterr().err
    assert rc == code, err
    assert message in err and (err == "") == (code == 0)
    assert out.exists() == (code == 0)


@pytest.mark.parametrize("command", sorted(DATA_COMMANDS))
@pytest.mark.parametrize("keep, message", [
    (lambda record: False, "training requires at least one pair"),
    (lambda record: record["variant"] == "original",
     "beta > 0 requires counterfactual pairs in the training data"),
], ids=["empty", "originals_only"])
def test_training_data_that_cannot_train_exits_1(small_data, capsys, command, keep, message):
    """Under the default config (beta = 0.1), an empty or unaugmented
    train.jsonl is bad input to every training command: exit 1, not 2."""
    tmp_path, data_dir = small_data
    _keep_train_lines(data_dir, keep)
    out = tmp_path / "out"
    rc = main([command, "--data", str(data_dir), "--out", str(out), "--epochs", "1",
               *DATA_COMMANDS[command]])
    err = capsys.readouterr().err
    assert rc == 1, err
    if command == "data-efficiency":     # no size fits: the sweep never trains
        message = "needs 2 pairs and 4 units"
    assert err.startswith("error: ") and message in err, err
    assert not out.exists()


def _three_class_data(tmp_path):
    gen_cfg = tmp_path / "gen.json"
    _write_json(gen_cfg, {"n_pairs": 18, "n_ood": 12, "n_classes": 3, "seed": 5})
    data_dir = tmp_path / "data"
    assert main(["generate", "--config", str(gen_cfg), "--out", str(data_dir)]) == 0
    return data_dir


def test_data_efficiency_checks_every_sizes_labels_before_training(tmp_path, capsys,
                                                                    monkeypatch):
    """On three-class data a size-2 cell has no label 2, so its model could
    not score the OOD splits: exit 1 before any run, naming the size."""
    data_dir = _three_class_data(tmp_path)
    trained = []
    train_arms = cadlab.evaluation.train_arms
    monkeypatch.setattr(cadlab.evaluation, "train_arms",
                        lambda *a, **k: trained.append(1) or train_arms(*a, **k))
    capsys.readouterr()
    rc = main(["data-efficiency", "--data", str(data_dir), "--sizes", "4,2", "--seeds", "0",
               "--epochs", "1", "--out", str(tmp_path / "de")])
    assert rc == 1
    assert (capsys.readouterr().err
            == "error: size 2: the pairs subset lacks the OOD label 2\n")
    assert trained == [] and not (tmp_path / "de").exists()
    rc = main(["data-efficiency", "--data", str(data_dir), "--sizes", "4", "--seeds", "0",
               "--epochs", "1", "--out", str(tmp_path / "de")])
    assert rc == 0, capsys.readouterr().err
    assert trained


def test_ablate_checks_the_training_labels_before_training(tmp_path, capsys, monkeypatch):
    """On three-class data whose label-2 pairs were removed from
    train.jsonl, the models would have two classes and could not score the
    OOD splits: exit 1 before any run."""
    data_dir = _three_class_data(tmp_path)
    records = [json.loads(line) for line in (data_dir / "train.jsonl").read_text().splitlines()]
    with_label_2 = {r["pair_id"] for r in records if r["label"] == 2}
    _keep_train_lines(data_dir, lambda r: r["pair_id"] not in with_label_2)
    trained = []
    monkeypatch.setattr(cadlab.evaluation, "train_arms", lambda *a, **k: trained.append(1))
    capsys.readouterr()
    rc = main(["ablate", "--data", str(data_dir), "--seeds", "0,1", "--epochs", "1",
               "--out", str(tmp_path / "ablation")])
    assert rc == 1
    assert capsys.readouterr().err == "error: the training data lacks the OOD label 2\n"
    assert trained == [] and not (tmp_path / "ablation").exists()
