import json
import os
import pathlib
import re
import subprocess
import sys
from dataclasses import replace
from functools import partial

import pytest

from cadlab import evaluation
from cadlab.data import DataError, GeneratorConfig, Vocab, generate_cad
from cadlab.evaluation import (
    config_fingerprint, evaluate, myopia_probe, ood_eval_set, rows_to_csv, run_ablation,
    run_data_efficiency, run_single, sign_test_p, write_report,
)
from cadlab.model import ModelConfig, ModelParams
from cadlab.training import TrainConfig, train


def _dataset(**kw):
    defaults = dict(n_pairs=24, n_ood=40, seed=1)
    defaults.update(kw)
    return generate_cad(GeneratorConfig(**defaults))


def _zero_params(vocab, embed_dim=2):
    params = ModelParams(ModelConfig(vocab_size=vocab.size, embed_dim=embed_dim), seed=0)
    for p in params.flat():
        p.value = 0.0
    return params


def _edited_only_params(vocab, groups):
    """Analytic myopic model: the encoder reads edited-causal tokens only and
    maps class-c evidence onto axis c; the classifier is the identity."""
    params = _zero_params(vocab, embed_dim=2)
    for token, idx in vocab.index.items():
        if token in groups.edited_causal:
            cls = 0 if token.startswith("edit0") else 1
            params.embedding[idx][cls].value = 5.0
    params.classifier[0][0].value = 1.0
    params.classifier[1][1].value = 1.0
    return params


def test_evaluate_trivial_cases():
    ds = _dataset()
    vocab = Vocab.from_examples(ds.train_examples())
    params = _edited_only_params(vocab, ds.groups)
    snap = params.snapshot()

    report = evaluate(snap, ds.ood, vocab, split="ood")
    assert report.accuracy == 1.0
    assert report.n == len(ds.ood)
    assert set(report.per_class_accuracy) == {0, 1}

    flipped = [type(ex)(id=ex.id, tokens=ex.tokens, label=1 - ex.label,
                        pair_id=ex.pair_id, variant=ex.variant)
               for ex in ds.ood]
    assert evaluate(snap, flipped, vocab).accuracy == 0.0

    subset = ds.ood[:4]
    three_right = subset[:3] + [flipped[3]]
    assert evaluate(snap, three_right, vocab).accuracy == 0.75

    with pytest.raises(ValueError):
        evaluate(snap, [], vocab)


def test_evaluate_per_class_accuracy_and_label_range():
    ds = _dataset()
    vocab = Vocab.from_examples(ds.train_examples())
    snap = _edited_only_params(vocab, ds.groups).snapshot()
    relabel = lambda ex, label: type(ex)(id=ex.id, tokens=ex.tokens, label=label,
                                         pair_id=ex.pair_id, variant=ex.variant)
    # class 0 right 3/3; class 1 right 1/3 (two class-0 examples relabeled as 1)
    zeros = [ex for ex in ds.ood if ex.label == 0][:5]
    ones = [ex for ex in ds.ood if ex.label == 1][:1]
    examples = zeros[:3] + [relabel(ex, 1) for ex in zeros[3:]] + ones
    report = evaluate(snap, examples, vocab)
    assert report.per_class_accuracy == {0: 1.0, 1: 1 / 3}
    assert all(type(k) is int and type(v) is float for k, v in report.per_class_accuracy.items())
    assert report.accuracy == 4 / 6
    assert evaluate(snap, zeros, vocab).per_class_accuracy == {0: 1.0}
    for label in (2, 7, -1):
        with pytest.raises(DataError, match=f"has label {label}, outside the model's 2 classes"):
            evaluate(snap, zeros[:2] + [relabel(zeros[2], label)], vocab)


def test_evaluate_is_pure_and_deterministic():
    ds = _dataset()
    vocab = Vocab.from_examples(ds.train_examples())
    snap = _edited_only_params(vocab, ds.groups).snapshot()
    r1 = evaluate(snap, ds.ood, vocab, split="ood")
    r2 = evaluate(snap, ds.ood, vocab, split="ood")
    assert r1 == r2


def test_probe_constant_model_all_drops_zero():
    ds = _dataset()
    vocab = Vocab.from_examples(ds.train_examples())
    params = _zero_params(vocab)
    params.out_bias[0].value = 0.7   # constant prediction: class 0
    probe = myopia_probe(params.snapshot(), ds.ood, ds.groups, vocab)
    assert probe.drops == {"edited_causal": 0.0, "nonedited_causal": 0.0, "correlated": 0.0}


def test_probe_myopic_model_relies_on_edited_only():
    ds = _dataset(n_ood=200)
    vocab = Vocab.from_examples(ds.train_examples())
    snap = _edited_only_params(vocab, ds.groups).snapshot()
    probe = myopia_probe(snap, ds.ood, ds.groups, vocab)
    assert probe.baseline_accuracy == 1.0
    assert probe.drops["edited_causal"] > 0.3
    assert abs(probe.drops["nonedited_causal"]) < 1e-12
    assert abs(probe.drops["correlated"]) < 1e-12


def test_probe_does_not_mutate_dataset():
    ds = _dataset()
    vocab = Vocab.from_examples(ds.train_examples())
    snap = _edited_only_params(vocab, ds.groups).snapshot()
    before = [ex.tokens for ex in ds.ood]
    baseline1 = evaluate(snap, ds.ood, vocab).accuracy
    myopia_probe(snap, ds.ood, ds.groups, vocab)
    assert [ex.tokens for ex in ds.ood] == before
    assert evaluate(snap, ds.ood, vocab).accuracy == baseline1


def test_sign_test_values():
    assert sign_test_p(0, 0) == 1.0
    assert sign_test_p(10, 0) == pytest.approx(1 / 1024)
    assert sign_test_p(9, 1) == pytest.approx(11 / 1024)
    assert sign_test_p(8, 2) == pytest.approx(56 / 1024)
    assert sign_test_p(5, 5) > 0.5


def test_config_fingerprint_stability():
    a = config_fingerprint({"b": 1, "a": [1, 2]})
    b = config_fingerprint({"a": [1, 2], "b": 1})
    assert a == b
    assert len(a) == 16
    assert a != config_fingerprint({"a": [1, 2], "b": 2})


def _fast_config(**kw):
    defaults = dict(alpha=1.6, beta=0.1, epochs=1, batch_pairs=8, embed_dim=4, seed=0)
    defaults.update(kw)
    return TrainConfig(**defaults)


def test_run_single_row_shape():
    ds = _dataset(n_pairs=16, n_ood=20)
    vocab = Vocab.from_examples(ds.train_examples())
    [row] = run_single([_fast_config()], ds, vocab, ood_eval_set(ds, vocab))
    for key in ("seed", "alpha", "beta", "acc_ood", "acc_ood_stress", "mean_ood",
                "drop_edited_causal", "drop_nonedited_causal", "drop_correlated"):
        assert key in row
    assert row["mean_ood"] == pytest.approx((row["acc_ood"] + row["acc_ood_stress"]) / 2)


def test_run_ablation_structure_and_reduction():
    ds = _dataset(n_pairs=16, n_ood=20)
    result = run_ablation(_fast_config(), ds, seeds=[0, 1])
    assert len(result["rows"]) == 8  # 4 arms x 2 seeds
    arms = {r["arm"] for r in result["rows"]}
    assert arms == {"full", "no_irm", "no_ocd", "neither"}
    assert set(result["summary"]) == arms
    # the neither arm reproduces a standalone plain run bit-for-bit
    neither = [r for r in result["rows"] if r["arm"] == "neither" and r["seed"] == 0][0]
    vocab = Vocab.from_examples(ds.train_examples())
    [standalone] = run_single([_fast_config(alpha=0.0, beta=0.0)], ds, vocab,
                              ood_eval_set(ds, vocab))
    for key in ("acc_ood", "acc_ood_stress", "train_accuracy", "drop_edited_causal"):
        assert neither[key] == standalone[key]
    # each arm zeroes its own weights and keeps the other one
    for r in result["rows"]:
        assert r["alpha"] == (0.0 if r["arm"] in ("no_irm", "neither") else 1.6)
        assert r["beta"] == (0.0 if r["arm"] in ("no_ocd", "neither") else 0.1)

    with pytest.raises(ValueError):
        run_ablation(_fast_config(), ds, seeds=[0])


def test_run_ablation_parallel_matches_serial():
    ds = _dataset(n_pairs=12, n_ood=16)
    # three jobs, the last with one seed
    seeds = list(range(2 * evaluation.SEEDS_PER_JOB + 1))
    serial = run_ablation(_fast_config(epochs=1), ds, seeds=seeds, workers=1)
    # two children and an uneven split, three, and more workers than jobs
    for workers in (2, 3, 9):
        parallel = run_ablation(_fast_config(epochs=1), ds, seeds=seeds, workers=workers)
        assert serial == parallel, workers


def test_run_data_efficiency_parallel_matches_serial():
    ds = _dataset(n_pairs=12, n_ood=16)
    # per size, two jobs of each kind of subset, the second with one seed
    seeds = list(range(evaluation.SEEDS_PER_JOB + 1))
    serial = run_data_efficiency(_fast_config(epochs=1), ds, sizes=[4, 8], seeds=seeds,
                                 workers=1)
    # 8 jobs: two children, three, and more workers than jobs
    for workers in (2, 3, 13):
        parallel = run_data_efficiency(_fast_config(epochs=1), ds, sizes=[4, 8], seeds=seeds,
                                       workers=workers)
        assert serial == parallel, workers
        assert json.dumps(serial, sort_keys=True) == json.dumps(parallel, sort_keys=True)


# in a subprocess, so a parent that waits forever fails the test instead of hanging it
CHILD_DIES = """
import os
from cadlab import evaluation
from cadlab.data import GeneratorConfig, generate_cad
from cadlab.training import TrainConfig

train_and_score = evaluation.run_single
# two jobs, the second with one seed
seeds = list(range(evaluation.SEEDS_PER_JOB + 1))

def dies_on_the_last_seed(configs, *args):
    if configs[0].seed == seeds[-1]:
        os._exit(3)
    return train_and_score(configs, *args)

evaluation.run_single = dies_on_the_last_seed
ds = generate_cad(GeneratorConfig(n_pairs=12, n_ood=16, seed=1))
try:
    evaluation.run_ablation(TrainConfig(epochs=1, batch_pairs=8, embed_dim=4), ds, seeds,
                            workers=2)
except RuntimeError as e:
    print("RuntimeError:", e)
try:
    os.waitpid(-1, os.WNOHANG)
except ChildProcessError:
    print("no child left")
"""


def test_parallel_runner_fails_when_a_child_dies_without_a_result():
    env = {**os.environ, "PYTHONPATH": str(pathlib.Path(evaluation.__file__).parents[1])}
    proc = subprocess.run([sys.executable, "-c", CHILD_DIES], env=env, capture_output=True,
                          text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    assert re.fullmatch(r"RuntimeError: worker process \d+ exited with code 3 without "
                        r"sending its result", lines[0]), proc.stdout
    assert lines[1:] == ["no child left"]


def test_the_first_runner_call_holds_one_blas_thread_for_the_process(monkeypatch):
    """Through a fake getter and setter: a runner call that finds OpenBLAS
    at two threads sets one, once, and never restores the count; a runner
    call that finds one thread calls no setter. Serial and forked paths."""
    count, sets = [2], []

    def set_threads(n):
        sets.append(n)
        count[0] = n

    monkeypatch.setattr(evaluation, "_openblas_thread_calls",
                        lambda: (lambda: count[0], set_threads))
    train_and_score = evaluation.run_single

    def recording(*args):
        rows = train_and_score(*args)
        for row in rows:
            row["blas_threads"] = count[0]
        return rows

    monkeypatch.setattr(evaluation, "run_single", recording)
    ds = _dataset(n_pairs=12, n_ood=16)
    seeds = list(range(evaluation.SEEDS_PER_JOB + 1))    # two jobs per cell
    for workers in (1, 2):
        for runner in (partial(run_ablation, _fast_config(), ds, seeds, workers=workers),
                       partial(run_data_efficiency, _fast_config(), ds, sizes=[4], seeds=seeds,
                               workers=workers)):
            count[0], sets[:] = 2, []
            first = runner()
            assert sets == [1] and count[0] == 1
            second = runner()
            assert sets == [1] and count[0] == 1
            assert {row["blas_threads"] for row in first["rows"] + second["rows"]} == {1}


def test_a_runner_call_after_a_fork_does_not_call_the_blas_setter(monkeypatch):
    """OpenBLAS shuts its thread pool down at every fork, and a setter call
    after that re-creates the pool, which then spins. The count survives the
    fork, so a runner call after one (perfbench forks its speed probe after
    every operation) must leave the setter alone."""
    calls = evaluation._openblas_thread_calls()
    if calls is None:
        pytest.skip("no OpenBLAS thread getter and setter found")
    get_threads, set_threads = calls
    ds = _dataset(n_pairs=12, n_ood=16)
    run_ablation(_fast_config(), ds, seeds=[0, 1])
    pid = os.fork()
    if pid == 0:
        os._exit(0)
    os.waitpid(pid, 0)
    sets = []

    def recording_set(n):
        sets.append(n)
        set_threads(n)

    monkeypatch.setattr(evaluation, "_openblas_thread_calls",
                        lambda: (get_threads, recording_set))
    run_ablation(_fast_config(), ds, seeds=[0, 1], workers=2)
    assert sets == []
    assert get_threads() == 1


def test_a_job_is_one_cells_arms_over_the_next_five_seeds(monkeypatch):
    """Each run_single call is one job, which trains its configs as one
    stack, seed by seed in arm order (train_arms orders a stack by seed): an
    11-seed ablation is 3 jobs of 20, 20 and 4 runs, and a data-efficiency
    sweep is one job per size, kind of subset and seed chunk, each pairs job
    holding both pairs arms."""
    jobs = []
    train_and_score = evaluation.run_single

    def recording(configs, dataset, *args):
        units = dataset.train_pairs
        kind = "pairs" if units[0].counterfactual is not None else "unaugmented"
        stack = sorted(configs, key=lambda c: c.seed)
        jobs.append((len(units), kind, [(c.seed, c.alpha, c.beta) for c in stack]))
        return train_and_score(configs, dataset, *args)

    monkeypatch.setattr(evaluation, "run_single", recording)
    ds = _dataset(n_pairs=12, n_ood=16)
    base = _fast_config(epochs=1)

    def weights(changes):
        config = replace(base, **changes)
        return config.alpha, config.beta

    seeds = list(range(11))
    run_ablation(base, ds, seeds=seeds)
    assert [len(configs) for _, _, configs in jobs] == [20, 20, 4]
    assert [configs for _, _, configs in jobs] == [
        [(seed, *weights(changes)) for seed in chunk for _, changes in evaluation.ABLATION_ARMS]
        for chunk in (seeds[:5], seeds[5:10], seeds[10:])]

    jobs.clear()
    seeds = list(range(6))
    run_data_efficiency(base, ds, sizes=[4, 8], seeds=seeds)
    assert jobs == [
        (size // 2 if kind == "pairs" else size, kind,
         [(seed, *weights(changes)) for seed in chunk
          for _, changes, of in evaluation.DATA_EFFICIENCY_ARMS if of == kind])
        for size in (4, 8) for kind in ("pairs", "unaugmented")
        for chunk in (seeds[:5], seeds[5:])]


def test_run_single_scores_each_split_from_one_ood_eval_set():
    ds = _dataset(n_pairs=12, n_ood=16)
    vocab = Vocab.from_examples(ds.train_examples())
    config = _fast_config(epochs=3, learning_rate=0.05)
    [row] = run_single([config], ds, vocab, ood_eval_set(ds, vocab))
    assert row["acc_ood"] != row["acc_ood_stress"]   # so a swapped slice would show
    snap = train(config, ds.train_pairs, vocab=vocab)[0].snapshot
    assert row["acc_ood"] == evaluate(snap, ds.ood, vocab).accuracy
    assert row["acc_ood_stress"] == evaluate(snap, ds.ood_stress, vocab).accuracy
    probe = myopia_probe(snap, ds.ood + ds.ood_stress, ds.groups, vocab)
    assert {name: row[f"drop_{name}"] for name in probe.drops} == probe.drops


def test_run_data_efficiency_structure():
    ds = _dataset(n_pairs=24, n_ood=20)
    result = run_data_efficiency(_fast_config(), ds, sizes=[8, 16], seeds=[0, 1])
    rows = result["rows"]
    assert len(rows) == 12  # 2 sizes x 3 arms x 2 seeds
    for row in rows:
        assert row["n_train_examples"] == row["size"]
        if row["arm"] == "erm_unaugmented":
            assert row["n_counterfactuals"] == 0
        else:
            assert row["n_counterfactuals"] == row["size"] // 2
        if row["arm"] == "ecf_pairs":
            assert row["alpha"] == 1.6 and row["beta"] == 0.1
        else:
            assert row["alpha"] == 0.0 and row["beta"] == 0.0

    with pytest.raises(ValueError):
        run_data_efficiency(_fast_config(), ds, sizes=[7], seeds=[0])
    with pytest.raises(ValueError):
        run_data_efficiency(_fast_config(), ds, sizes=[999], seeds=[0])
    with pytest.raises(ValueError):
        run_data_efficiency(_fast_config(), ds, sizes=[], seeds=[0])


def test_runner_rows_follow_the_seed_list_across_jobs():
    """Two jobs per kind of run (the seed list is one longer than a job), in
    descending order: the rows keep the list's order."""
    ds = _dataset(n_pairs=12, n_ood=16)
    seeds = list(range(evaluation.SEEDS_PER_JOB, -1, -1))
    ablation = run_ablation(_fast_config(epochs=1), ds, seeds=seeds)
    assert [(r["seed"], r["arm"]) for r in ablation["rows"]] == [
        (seed, arm) for seed in seeds for arm, _ in evaluation.ABLATION_ARMS]
    sweep = run_data_efficiency(_fast_config(epochs=1), ds, sizes=[8, 4], seeds=seeds)
    assert [(r["size"], r["arm"], r["seed"]) for r in sweep["rows"]] == [
        (size, arm, seed) for size in (8, 4)
        for arm, _, _ in evaluation.DATA_EFFICIENCY_ARMS for seed in seeds]


def test_reports_are_deterministic(tmp_path):
    ds = _dataset(n_pairs=12, n_ood=16)
    result = run_ablation(_fast_config(epochs=1), ds, seeds=[0, 1])
    p1 = write_report(result, tmp_path / "r1", "ablation")
    p2 = write_report(result, tmp_path / "r2", "ablation")
    with open(p1["csv"], "rb") as f1, open(p2["csv"], "rb") as f2:
        assert f1.read() == f2.read()
    with open(p1["json"], "rb") as f1, open(p2["json"], "rb") as f2:
        assert f1.read() == f2.read()
    with open(p1["csv"], encoding="utf-8") as fh:
        csv_text = fh.read()
    assert csv_text.splitlines()[0].split(",")[0] == "acc_ood"
    assert len(csv_text.splitlines()) == 9


def test_rows_to_csv_empty():
    assert rows_to_csv([]) == "\n"
