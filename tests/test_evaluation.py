import json
import math
import os
import pathlib
import re
import subprocess
import sys
import threading
from dataclasses import replace
from functools import partial

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from cadlab import evaluation
from cadlab.data import (
    DataError, GeneratorConfig, PairedExample, TokenIds, Vocab, featurize_matrix, generate_cad,
)
from cadlab.evaluation import (
    ABLATION_ARMS, EvalSet, config_fingerprint, evaluate, myopia_probe, ood_eval_set,
    rows_to_csv, run_ablation, run_data_efficiency, run_single, sign_test_p, write_report,
)
from cadlab.model import ModelConfig, ModelParams, Snapshot, initial_values, top_class
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
    probe = myopia_probe(params.snapshot(), EvalSet.build(ds.ood, vocab, ds.groups))
    assert probe.drops == {"edited_causal": 0.0, "nonedited_causal": 0.0, "correlated": 0.0}


def test_probe_needs_an_eval_set_built_with_groups():
    ds = _dataset()
    vocab = Vocab.from_examples(ds.train_examples())
    snap = _edited_only_params(vocab, ds.groups).snapshot()
    with pytest.raises(ValueError, match="built with feature groups"):
        myopia_probe(snap, EvalSet.build(ds.ood, vocab))
    with pytest.raises(ValueError, match="non-empty example list"):
        EvalSet.build([], vocab, ds.groups)
    with pytest.raises(ValueError, match="non-empty ood and ood_stress splits"):
        ood_eval_set(replace(ds, ood_stress=[]), vocab)


def test_an_eval_sets_matrices_are_slices_of_one_block():
    """One featurize_matrix call gives an EvalSet its unmasked matrix and a
    masked one per probe group: slices 0 to G of one C-contiguous block."""
    ds = _dataset()
    vocab = Vocab.from_examples(ds.train_examples())
    for groups, names in ((ds.groups, list(evaluation.PROBE_GROUPS)), (None, [])):
        scored = EvalSet.build(ds.ood, vocab, groups)
        block = scored.features.base
        assert block.shape == (1 + len(names), len(ds.ood), vocab.size)
        assert block.flags.c_contiguous and list(scored.masked) == names
        for i, matrix in enumerate((scored.features, *scored.masked.values())):
            assert matrix.base is block and matrix.ctypes.data == block[i].ctypes.data


def test_probe_myopic_model_relies_on_edited_only():
    ds = _dataset(n_ood=200)
    vocab = Vocab.from_examples(ds.train_examples())
    snap = _edited_only_params(vocab, ds.groups).snapshot()
    probe = myopia_probe(snap, EvalSet.build(ds.ood, vocab, ds.groups))
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
    myopia_probe(snap, EvalSet.build(ds.ood, vocab, ds.groups))
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
    print(f"{type(e).__name__}: {e}")
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
    # the pool's BrokenProcessPool, a RuntimeError
    assert re.fullmatch(r"BrokenProcessPool: A process in the process pool was terminated "
                        r"abruptly .*", lines[0]), proc.stdout
    assert lines[1:] == ["no child left"]


def _locked_job(lock, i):
    with lock:
        return [{"job": i, "pid": os.getpid()}]


def test_parallel_jobs_reach_the_workers_by_fork_not_by_pickle():
    """A job that holds an unpicklable lock still runs in a worker and its
    rows come back in job order: the workers inherit the job list."""
    lock = threading.Lock()
    runs = [partial(_locked_job, lock, i) for i in range(7)]
    for workers in (2, 3):
        rows = evaluation._run_jobs(runs, workers)
        assert [row["job"] for row in rows] == list(range(7)), workers
        assert os.getpid() not in {row["pid"] for row in rows}, workers


def test_import_cadlab_loads_no_process_pool():
    """The pool is imported only when a runner forks, so importing cadlab.cli,
    which imports every module of the package, and every serial call do not
    pay for it. A bare `import cadlab` imports none of them, nor numpy."""
    env = {**os.environ, "PYTHONPATH": str(pathlib.Path(evaluation.__file__).parents[1])}
    for module, unwanted in (
            ("cadlab.cli", "m == 'concurrent.futures.process' "
                           "or m.split('.')[0] == 'multiprocessing'"),
            ("cadlab", "m.startswith('cadlab.') or m.split('.')[0] == 'numpy'")):
        code = f"import sys, {module}; print(sorted(m for m in sys.modules if {unwanted}))"
        proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                              text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == "[]\n", module


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
    stack, given seed by seed in arm order (train_arms lays the stack out
    term-major): an 11-seed ablation is 3 jobs of 20, 20 and 4 runs, and a
    data-efficiency sweep is one job per size, kind of subset and seed
    chunk, each pairs job holding both pairs arms."""
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


def test_each_cell_is_scored_on_its_own_ood_splits():
    """Two cells with equal vocabularies but different OOD splits (rho_ood
    0.1 and 0.5 on one generator seed): each cell's rows are the rows it
    gives alone, at one worker and at two."""
    cells = [(f"rho_ood {rho}", _dataset(n_pairs=300, n_ood=200, rho_ood=rho),
              ABLATION_ARMS[:2], {"cell": rho}) for rho in (0.1, 0.5)]
    vocabs = {Vocab.from_examples(ds.train_examples()).tokens for _, ds, _, _ in cells}
    assert len(vocabs) == 1
    base, seeds = _fast_config(epochs=1), [0, 1]
    alone = [row for cell in cells
             for row in evaluation._protocol_rows(base, [cell], seeds, workers=1)]
    # so scoring the second cell on the first cell's splits would show
    assert [r["acc_ood"] for r in alone[:4]] != [r["acc_ood"] for r in alone[4:]]
    for workers in (1, 2):
        assert evaluation._protocol_rows(base, cells, seeds, workers) == alone, workers


def test_each_cells_label_check_reads_its_own_ood_splits(monkeypatch):
    """A two-class cell, then a three-class cell whose training data lacks
    label 2: the second cell fails before any run, naming itself."""
    three = _dataset(n_pairs=18, n_ood=12, n_classes=3, seed=5)
    no_label_2 = [u for u in three.train_pairs if all(ex.label != 2 for ex in u.members())]
    cells = [("the two-class cell", _dataset(n_pairs=12, n_ood=16), ABLATION_ARMS, {}),
             ("the three-class cell", replace(three, train_pairs=no_label_2), ABLATION_ARMS, {})]
    trained = []
    train_arms = evaluation.train_arms
    monkeypatch.setattr(evaluation, "train_arms",
                        lambda *a, **k: trained.append(1) or train_arms(*a, **k))
    with pytest.raises(ValueError, match="^the three-class cell lacks the OOD label 2$"):
        evaluation._protocol_rows(_fast_config(epochs=1), cells, [0, 1], workers=1)
    assert trained == []


def test_the_ood_union_is_featurized_once_per_ood_splits_and_vocabulary(monkeypatch):
    """An ablation featurizes its OOD union once; a data-efficiency sweep,
    whose cells share the dataset's OOD splits, once per distinct training
    vocabulary among its cells."""
    built = []
    monkeypatch.setattr(evaluation, "ood_eval_set",
                        lambda ds, vocab: built.append(vocab.tokens) or ood_eval_set(ds, vocab))
    ds = _dataset(n_pairs=12, n_ood=16)
    run_ablation(_fast_config(epochs=1), ds, seeds=[0, 1])
    assert built == [Vocab.from_examples(ds.train_examples()).tokens]

    built.clear()
    ds, sizes = _dataset(n_pairs=24, n_ood=16), [8, 16, 24]
    run_data_efficiency(_fast_config(epochs=1), ds, sizes=sizes, seeds=[0])
    subsets = [*(ds.train_pairs[:s // 2] for s in sizes),
               *([PairedExample(u.original) for u in ds.train_pairs[:s]] for s in sizes)]
    vocabs = {Vocab.from_examples(replace(ds, train_pairs=pairs).train_examples()).tokens
              for pairs in subsets}
    # two of the six cells share a vocabulary, so one union more per cell would show
    assert len(vocabs) == 5 and sorted(built) == sorted(vocabs)


def test_run_single_scores_each_split_from_one_ood_eval_set():
    ds = _dataset(n_pairs=12, n_ood=16)
    vocab = Vocab.from_examples(ds.train_examples())
    config = _fast_config(epochs=3, learning_rate=0.05)
    [row] = run_single([config], ds, vocab, ood_eval_set(ds, vocab))
    assert row["acc_ood"] != row["acc_ood_stress"]   # so a swapped slice would show
    snap = train(config, ds.train_pairs, vocab=vocab)[0].snapshot
    assert row["acc_ood"] == evaluate(snap, ds.ood, vocab).accuracy
    assert row["acc_ood_stress"] == evaluate(snap, ds.ood_stress, vocab).accuracy
    probe = myopia_probe(snap, EvalSet.build(ds.ood + ds.ood_stress, vocab, ds.groups))
    assert {name: row[f"drop_{name}"] for name in probe.drops} == probe.drops


@settings(max_examples=40, deadline=None)
@given(runs=st.integers(1, 8), n_classes=st.sampled_from([2, 3]), seed=st.integers(0, 1000))
def test_a_stacked_snapshot_predicts_each_matrix_as_each_run_alone(runs, n_classes, seed):
    ds = _dataset(n_pairs=6, n_ood=9, n_classes=n_classes, seed=seed)
    vocab = Vocab.from_examples(ds.train_examples())
    ood = ood_eval_set(ds, vocab)
    config = ModelConfig(vocab_size=vocab.size, n_classes=n_classes, embed_dim=3)
    theta = np.array([initial_values(config, seed + r) for r in range(runs)])
    snapshots = [Snapshot.from_flat(config, theta[r].copy()) for r in range(runs)]
    assert len(ood.masked) == 3
    # each matrix the one featurize_matrix makes alone
    matrices = (ood.features, *ood.masked.values())
    ids = TokenIds.from_examples(ood.examples)
    for features, name in zip(matrices, (None, *ood.masked)):
        alone = featurize_matrix(ids, vocab, [getattr(ds.groups, name)] if name else [])[-1]
        assert features.tobytes() == alone.tobytes()
    # stacked copies, as run_single probes them, and views into the rows of
    # one matrix, as a training stack scores its train accuracy
    for stacked in (Snapshot.stack(snapshots), Snapshot.from_flat(config, theta)):
        for features in matrices:
            logits = stacked.logits_matrix(features)
            predictions = stacked.predict_matrix(features)
            assert predictions.shape == (runs, len(features))
            for r, snapshot in enumerate(snapshots):
                assert logits[r].tobytes() == snapshot.logits_matrix(features).tobytes()
                assert predictions[r].tobytes() == snapshot.predict_matrix(features).tobytes()


def _row_layout_logits(snapshot, features):
    """tanh(X @ E + b) @ Wᵀ + c with the examples on the rows: (…, n, K)."""
    h = features @ snapshot.embedding
    h += snapshot.enc_bias[..., None, :]
    z = np.tanh(h, out=h) @ np.swapaxes(snapshot.classifier, -1, -2)
    z += snapshot.out_bias[..., None, :]
    return z


@settings(max_examples=40, deadline=None)
@given(runs=st.integers(1, 8), n_classes=st.sampled_from([2, 3]), n_ood=st.integers(2, 40),
       scale=st.sampled_from([1.0, 30.0]), seed=st.integers(0, 1000))
def test_examples_last_scoring_is_the_row_layouts_bit_for_bit(runs, n_classes, n_ood, scale,
                                                              seed):
    """At the default embed_dim, the examples-last logits and predictions
    are the row layout's and np.argmax of them, for unmasked, masked and
    row-gathered matrices, stacked copies, views into a stack's rows and a
    Snapshot of one run."""
    ds = _dataset(n_pairs=6, n_ood=n_ood, n_classes=n_classes, seed=seed)
    vocab = Vocab.from_examples(ds.train_examples())
    ood = ood_eval_set(ds, vocab)
    config = ModelConfig(vocab_size=vocab.size, n_classes=n_classes)
    theta = scale * np.array([initial_values(config, seed + r) for r in range(runs)])
    rows = np.random.default_rng(seed).integers(0, len(ood.features), 3 * len(ood.features))
    snapshots = [Snapshot.from_flat(config, theta[r].copy()) for r in range(runs)]
    for snapshot in (Snapshot.stack(snapshots), Snapshot.from_flat(config, theta), snapshots[0]):
        for features in (ood.features, *ood.masked.values(), ood.features[rows]):
            expected = _row_layout_logits(snapshot, features)
            assert snapshot.logits_matrix(features).tobytes() == expected.tobytes()
            assert (snapshot.predict_matrix(features).tolist()
                    == np.argmax(expected, axis=-1).tolist())


_LOGIT = st.sampled_from([-np.inf, -1.0, 0.0, 0.5, 1.0, np.inf, np.nan])


@settings(max_examples=200, deadline=None)
@given(shape=st.tuples(st.integers(1, 3), st.integers(1, 4), st.integers(1, 4)),
       data=st.data())
def test_predict_matrix_takes_argmaxs_class_on_ties_infinities_and_nans(shape, data):
    """top_class on (…, K, n) logits, and predict_matrix through it on the
    (…, n, K) ones, pick np.argmax's class."""
    size = math.prod(shape)
    logits = np.array(data.draw(st.lists(_LOGIT, min_size=size, max_size=size))).reshape(shape)
    assert top_class(logits).tolist() == np.argmax(logits, axis=-2).tolist()
    snapshot = Snapshot.stack([_zero_params(Vocab(["a"])).snapshot()])
    snapshot.logits_matrix = lambda features: logits
    assert snapshot.predict_matrix(None).tolist() == np.argmax(logits, axis=-1).tolist()


@settings(max_examples=12, deadline=None)
@given(seeds=st.lists(st.integers(0, 50), min_size=1, max_size=2, unique=True),
       arms=st.integers(1, 4), n_classes=st.sampled_from([2, 3]))
def test_run_single_rows_are_each_runs_own_probe(seeds, arms, n_classes):
    """run_single probes every checkpoint of its stack at once; each row is
    what the run's own checkpoint, probed alone, gives."""
    ds = _dataset(n_pairs=9, n_ood=12, n_classes=n_classes)
    vocab = Vocab.from_examples(ds.train_examples())
    ood = ood_eval_set(ds, vocab)
    configs = [_fast_config(seed=seed, batch_pairs=4, **changes)
               for seed in seeds for _, changes in ABLATION_ARMS[:arms]]
    rows = run_single(configs, ds, vocab, ood)
    assert len(rows) == len(configs)
    n_ood, n_stress = len(ds.ood), len(ds.ood_stress)
    for config, row in zip(configs, rows):
        checkpoint, _ = train(config, ds.train_pairs, vocab=vocab)
        probe = myopia_probe(checkpoint.snapshot, ood)
        assert row["train_accuracy"] == checkpoint.train_accuracy
        assert row["checkpoint_epoch"] == checkpoint.epoch
        assert row["acc_ood"] == int(probe.correct[:n_ood].sum()) / n_ood
        assert row["acc_ood_stress"] == int(probe.correct[n_ood:].sum()) / n_stress
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
    with pytest.raises(ValueError, match="seeds must be non-empty"):
        run_data_efficiency(_fast_config(), ds, sizes=[8], seeds=[])


def test_run_data_efficiency_draws_its_pairs_cells_from_the_paired_units():
    """On partly augmented data the pairs arms take the first s/2 paired
    units and the unaugmented arm the originals of the first s units, so
    every arm still sees s examples; a size needs s/2 pairs and s units."""
    ds = _dataset(n_pairs=12, n_ood=16)
    # the first eight units lose their counterfactual: 4 paired units of 12
    units = [PairedExample(u.original) if i < 8 else u for i, u in enumerate(ds.train_pairs)]
    partly = replace(ds, train_pairs=units)
    rows = run_data_efficiency(_fast_config(epochs=1), partly, sizes=[8], seeds=[0])["rows"]
    assert [(r["arm"], r["n_train_examples"], r["n_counterfactuals"]) for r in rows] == [
        ("ecf_pairs", 8, 4), ("erm_pairs", 8, 4), ("erm_unaugmented", 8, 0)]
    # erm_pairs is the run on the paired units alone
    pairs_only = replace(ds, train_pairs=units[8:])
    vocab = Vocab.from_examples(pairs_only.train_examples())
    [alone] = run_single([_fast_config(epochs=1, alpha=0.0, beta=0.0)], pairs_only, vocab,
                         ood_eval_set(pairs_only, vocab))
    assert {key: rows[1][key] for key in alone} == alone
    with pytest.raises(ValueError, match="size 10 needs 5 pairs and 10 units, but the "
                                         "training data holds 4 pairs in 12 units"):
        run_data_efficiency(_fast_config(epochs=1), partly, sizes=[10], seeds=[0])


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
