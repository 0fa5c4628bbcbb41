"""Evaluation: accuracy reports, the feature-group reliance probe, and the
ablation / data-efficiency protocol runners.

The reliance probe quantifies which token groups a model exploits: for each
annotated group it removes that group's tokens before featurization,
re-evaluates on the same snapshot, and reports the accuracy drop against the
unmasked baseline. Probes and headline OOD numbers in the runners are
computed over both OOD variants together (the correlation-reversed split and
its stress variant with edited-causal tokens removed), so reliance on
non-edited features is visible even when edited features would otherwise
dominate.

Accuracy reports and probes score an ``EvalSet``: examples featurized once
under one vocabulary. A runner builds the EvalSet of that OOD union once per
call and vocabulary, before it forks, so a run costs its own training plus
four predictions: the unmasked union, which gives both split accuracies and
the probe baseline, and one masked matrix per probe group. Both runners
build one job list (``_protocol_rows``) from cells: a cell is a training
set, its arms and the tag its rows carry. An ablation is one cell, and a
data-efficiency sweep one cell per size and kind of training subset. A job
is one call of ``run_single``, which trains one stack: a cell's arms over
the next SEEDS_PER_JOB seeds of the list. So the job list depends on the
cells and the seed list alone, and a two-seed ablation is a single job,
which runs in process. Several jobs go to at most ``workers`` forked child
processes, which claim them one at a time, and the rows come back in job
order.
The first runner call sets OpenBLAS to one thread and leaves it there for
the rest of the process, serial or forked, so parallel runs do not
oversubscribe the cores. It is not restored: OpenBLAS shuts its thread pool
down at every fork, and each later setter call re-creates the pool, whose
new thread busy-waits for about 0.12 s of CPU.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import pickle
import traceback
from dataclasses import dataclass, field, replace
from functools import cache, partial

import numpy as np

from .data import (
    DataError, FeatureGroups, GeneratedDataset, PairedExample, TokenIds, Vocab,
    featurize_matrix,
)
from .model import Snapshot
# perfbench/spans.py wraps cadlab.evaluation.train by name
from .training import NonFiniteLossError, TrainConfig, train, train_arms

PROBE_GROUPS = ("edited_causal", "nonedited_causal", "correlated")

# (arm, changes to the base config)
ABLATION_ARMS = (
    ("full", {}),
    ("no_irm", {"alpha": 0.0}),
    ("no_ocd", {"beta": 0.0}),
    ("neither", {"alpha": 0.0, "beta": 0.0}),    # plain prediction loss
)

# row keys averaged per arm in an ablation summary, as "mean_<key>" (mean_ood as is)
SUMMARY_KEYS = ("mean_ood", "acc_ood", "acc_ood_stress", "drop_edited_causal",
                "drop_nonedited_causal", "drop_correlated")

# seeds per runner job, whose runs train as one stack; it depends on nothing
# but the seed list, so the jobs and the failure report do not depend on the
# worker count
SEEDS_PER_JOB = 5


def config_fingerprint(payload: dict) -> str:
    canonical = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()[:16]


@dataclass(frozen=True)
class EvalSet:
    """Examples featurized once under one vocabulary, to score any number of
    snapshots on: their labels, the unmasked feature matrix and, when built
    with groups, one matrix per probe group with that group's tokens removed
    before counting (the examples themselves are never mutated)."""
    examples: list
    labels: np.ndarray
    features: np.ndarray
    masked: dict[str, np.ndarray]

    @classmethod
    def build(cls, examples, vocab: Vocab, groups: FeatureGroups | None = None) -> "EvalSet":
        ids = TokenIds.from_examples(examples)
        labels = np.array([ex.label for ex in examples], dtype=np.intp)
        features = featurize_matrix(ids, vocab)
        masked = {} if groups is None else {
            name: featurize_matrix(ids, vocab, mask_tokens=groups.by_name(name))
            for name in PROBE_GROUPS}
        return cls(list(examples), labels, features, masked)

    def correct(self, snapshot: Snapshot, masked: str | None = None) -> np.ndarray:
        """Per example, whether the snapshot predicts its label: from the
        unmasked matrix, or from the one with probe group ``masked`` removed."""
        n_classes = snapshot.config.n_classes
        outside = np.flatnonzero((self.labels < 0) | (self.labels >= n_classes))
        if outside.size:
            ex = self.examples[outside[0]]
            raise DataError(f"example {ex.id!r} has label {ex.label}, outside the "
                            f"model's {n_classes} classes")
        features = self.features if masked is None else self.masked[masked]
        return snapshot.predict_matrix(features) == self.labels


def _accuracy(correct: np.ndarray) -> float:
    return int(correct.sum()) / len(correct)


@dataclass
class EvalReport:
    split: str
    accuracy: float
    n: int
    per_class_accuracy: dict[int, float]
    fingerprint: str

    def to_dict(self) -> dict:
        return {
            "split": self.split,
            "accuracy": self.accuracy,
            "n": self.n,
            "per_class_accuracy": {str(k): v for k, v in sorted(self.per_class_accuracy.items())},
            "fingerprint": self.fingerprint,
        }


def evaluate(snapshot: Snapshot, examples, vocab: Vocab, split: str = "",
             fingerprint: str = "") -> EvalReport:
    """Accuracy of a parameter snapshot on a list of examples (pure, read-only)."""
    if not examples:
        raise ValueError("evaluate needs a non-empty example list")
    scored = EvalSet.build(examples, vocab)
    correct = scored.correct(snapshot)
    labels = scored.labels
    n_classes = snapshot.config.n_classes
    n_per_class = np.bincount(labels, minlength=n_classes)
    correct_per_class = np.bincount(labels[correct], minlength=n_classes)
    per_class = {int(c): int(correct_per_class[c]) / int(n_per_class[c])
                 for c in np.flatnonzero(n_per_class)}
    return EvalReport(split=split, accuracy=_accuracy(correct), n=len(examples),
                      per_class_accuracy=per_class, fingerprint=fingerprint)


@dataclass
class RelianceProbe:
    baseline_accuracy: float
    drops: dict[str, float]      # group name -> baseline - masked accuracy
    n: int
    # per example, whether the unmasked baseline predicted it right
    correct: np.ndarray = field(repr=False, compare=False)

    def to_dict(self) -> dict:
        return {"baseline_accuracy": self.baseline_accuracy,
                "drops": dict(sorted(self.drops.items())), "n": self.n}


def myopia_probe(snapshot: Snapshot, examples, groups: FeatureGroups,
                 vocab: Vocab) -> RelianceProbe:
    """Per-group accuracy drop when that group's tokens are masked.

    examples is a list of examples or an EvalSet built from them with these
    groups and this vocabulary, which a caller that probes many snapshots on
    the same examples builds once. Masking happens at featurization time; the
    examples are never mutated. Each matrix is predicted once.
    """
    if not isinstance(examples, EvalSet):
        if not examples:
            raise ValueError("probe needs a non-empty example list")
        examples = EvalSet.build(examples, vocab, groups)
    correct = examples.correct(snapshot)
    baseline = _accuracy(correct)
    drops = {name: baseline - _accuracy(examples.correct(snapshot, name))
             for name in PROBE_GROUPS}
    return RelianceProbe(baseline_accuracy=baseline, drops=drops, n=len(correct),
                         correct=correct)


def sign_test_p(wins: int, losses: int) -> float:
    """One-sided sign test: P(X >= wins) for X ~ Binomial(wins + losses, 1/2)."""
    n = wins + losses
    if n == 0:
        return 1.0
    total = sum(math.comb(n, k) for k in range(wins, n + 1))
    return total / 2.0 ** n


# ---------------------------------------------------------------------------
# shared per-job machinery

def ood_eval_set(dataset: GeneratedDataset, vocab: Vocab) -> EvalSet:
    """The union ood + ood_stress under vocab, with the probe's masked
    matrices: what run_single scores."""
    if not dataset.ood or not dataset.ood_stress:
        raise ValueError("a run needs non-empty ood and ood_stress splits")
    return EvalSet.build(dataset.ood + dataset.ood_stress, vocab, dataset.groups)


def run_single(configs: list[TrainConfig], dataset: GeneratedDataset, vocab: Vocab,
               ood: EvalSet) -> list[dict]:
    """Train the configs as one stack (``train_arms``: they differ only in
    seed, alpha and beta), evaluate each checkpoint on both OOD variants, and
    run the reliance probe over their union. Returns one flat result row per
    config, in config order.

    ood is ood_eval_set(dataset, vocab), which runners build once for all
    their runs. The probe predicts the union once; its first len(dataset.ood)
    rows give acc_ood and the rest acc_ood_stress.
    """
    rows = []
    n_ood = len(dataset.ood)
    for config, (checkpoint, _) in zip(configs, train_arms(configs, dataset.train_pairs,
                                                           vocab=vocab)):
        probe = myopia_probe(checkpoint.snapshot, ood, dataset.groups, vocab)
        acc_ood = _accuracy(probe.correct[:n_ood])
        acc_stress = _accuracy(probe.correct[n_ood:])
        rows.append({
            "seed": config.seed,
            "alpha": config.alpha,
            "beta": config.beta,
            "train_accuracy": checkpoint.train_accuracy,
            "checkpoint_epoch": checkpoint.epoch,
            "acc_ood": acc_ood,
            "acc_ood_stress": acc_stress,
            "mean_ood": (acc_ood + acc_stress) / 2.0,
            "drop_edited_causal": probe.drops["edited_causal"],
            "drop_nonedited_causal": probe.drops["nonedited_causal"],
            "drop_correlated": probe.drops["correlated"],
        })
    return rows


@cache
def _openblas_thread_calls():
    """(get, set) of the thread count of the OpenBLAS that numpy links, or
    None if those symbols are not found; looked up once per process."""
    import ctypes
    try:
        from numpy._core import _multiarray_umath
        lib = ctypes.CDLL(_multiarray_umath.__file__)
    except (ImportError, OSError):
        return None
    for prefix, suffix in (("scipy_openblas", "64_"), ("scipy_openblas", ""),
                           ("openblas", "64_"), ("openblas", "")):
        get = getattr(lib, f"{prefix}_get_num_threads{suffix}", None)
        set_ = getattr(lib, f"{prefix}_set_num_threads{suffix}", None)
        if get is not None and set_ is not None:
            get.restype, get.argtypes = ctypes.c_int, []
            set_.restype, set_.argtypes = None, [ctypes.c_int]
            return get, set_
    return None


def _run_jobs(runs: list, workers: int) -> list[dict]:
    """Call every run (a function of no arguments that returns a list of
    rows) and return the rows in run order, so the reports do not depend on
    scheduling.

    With workers > 1 the runs go to min(workers, len(runs)) forked children.
    OpenBLAS is set to one thread here, before any fork, and the children
    inherit that: each child is one busy core. The count stays at one for
    the rest of the process, and the setter is called only when it is not
    one, since after a fork every setter call restarts OpenBLAS's thread
    pool, which then spins for about 0.12 s of CPU.
    """
    if workers < 1:
        raise ValueError(f"workers must be >= 1, got {workers}")
    calls = _openblas_thread_calls()
    if calls is not None and calls[0]() != 1:
        calls[1](1)
    if workers == 1 or len(runs) <= 1:
        results = [run() for run in runs]
    else:
        results = _fork_join(runs, min(workers, len(runs)))
    return [row for rows in results for row in rows]


def _take_baton(baton_r: int) -> int:
    return int.from_bytes(os.read(baton_r, 8), "little")


def _pass_baton(baton_w: int, index: int) -> None:
    os.write(baton_w, index.to_bytes(8, "little"))


def _fork_join(runs: list, n_children: int) -> list:
    """Call the runs in n_children forked child processes and return their
    results in run order.

    The children inherit everything the runs refer to. They claim runs one at
    a time through a baton: a pipe that holds exactly one 8-byte message, the
    index of the next unclaimed run, so a child that has read it holds the
    claim until it writes the following index back. A child whose run raises
    passes on len(runs), so every child stops after its current run, as the
    serial loop stops at the first failure. Each child pickles its results
    and its exception, if any, to its own pipe and always ends in os._exit.

    The parent waits for every child. It raises RuntimeError if a child ended
    without sending its result, and otherwise the exception of the earliest
    failed run, as itself.
    """
    n = len(runs)
    baton_r, baton_w = os.pipe()
    _pass_baton(baton_w, 0)
    children = []           # (pid, read end of the child's result pipe)
    exit_codes = {}
    try:
        for _ in range(n_children):
            r, w = os.pipe()
            try:
                pid = os.fork()
            except OSError:
                os.close(r)
                os.close(w)
                raise
            if pid == 0:
                _child(runs, [fd for _, fd in children] + [r], baton_r, baton_w, w)
            os.close(w)
            children.append((pid, r))
        payloads = []
        for _, r in children:
            with os.fdopen(r, "rb", closefd=False) as fh:
                payloads.append(fh.read())
    finally:
        for pid, r in children:
            os.close(r)
            exit_codes[pid] = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
        os.close(baton_r)
        os.close(baton_w)

    results = [None] * n
    failures = []
    for (pid, _), payload in zip(children, payloads):
        if exit_codes[pid] != 0:
            raise RuntimeError(f"worker process {pid} exited with code {exit_codes[pid]} "
                               "without sending its result")
        done, failure = pickle.loads(payload)
        for i, result in done:
            results[i] = result
        if failure is not None:
            failures.append(failure)
    if failures:
        raise min(failures, key=lambda f: f[0])[1]
    return results


def _child(runs: list, inherited: list[int], baton_r: int, baton_w: int, out: int):
    """The body of a forked child of _fork_join; it never returns."""
    code = 1
    try:
        for fd in inherited:
            os.close(fd)
        n = len(runs)
        done, failure = [], None
        while True:
            i = _take_baton(baton_r)
            _pass_baton(baton_w, min(i + 1, n))
            if i == n:
                break
            try:
                done.append((i, runs[i]()))
            except Exception as e:
                failure = (i, e)
                _take_baton(baton_r)
                _pass_baton(baton_w, n)
                break
        with os.fdopen(out, "wb") as fh:
            fh.write(pickle.dumps((done, failure)))
        code = 0
    except BaseException:
        traceback.print_exc()    # the parent can only report the exit code
        raise
    finally:
        os._exit(code)


# ---------------------------------------------------------------------------
# protocol runners

def _check_distinct(values: list[int], what: str) -> None:
    """A repeated seed or size would count its runs twice in every mean."""
    if len(set(values)) != len(values):
        raise ValueError(f"{what} must be distinct, got {list(values)}")


def _protocol_rows(base_config: TrainConfig, cells: list, seeds: list[int],
                   workers: int) -> list[dict]:
    """The rows of a protocol: one run per cell, arm and seed, where a cell
    is (dataset, arms, tag) and an arm is (name, changes to the base config).

    Each cell's vocabulary comes from its training split, and the OOD union
    is featurized once per distinct vocabulary. A job is one run_single call
    on one cell's arms over the next SEEDS_PER_JOB seeds of the list, with
    the configs seed by seed in arm order, so it trains them as one stack.
    The jobs go cell by cell through _run_jobs, and each row gets its arm
    and its cell's tag here in the parent.
    """
    ood_sets: dict[tuple[str, ...], EvalSet] = {}
    jobs, labels = [], []
    for dataset, arms, tag in cells:
        vocab = Vocab.from_examples(dataset.train_examples())
        if vocab.tokens not in ood_sets:
            ood_sets[vocab.tokens] = ood_eval_set(dataset, vocab)
        for i in range(0, len(seeds), SEEDS_PER_JOB):
            chunk = seeds[i:i + SEEDS_PER_JOB]
            jobs.append(partial(run_single, [replace(base_config, **changes, seed=seed)
                                             for seed in chunk for _, changes in arms],
                                dataset, vocab, ood_sets[vocab.tokens]))
            labels += [{"arm": arm, **tag} for _ in chunk for arm, _ in arms]
    rows = _run_jobs(jobs, workers)
    for row, label in zip(rows, labels):
        row.update(label)
    return rows


def run_ablation(base_config: TrainConfig, dataset: GeneratedDataset,
                 seeds: list[int], workers: int = 1) -> dict:
    """Four-arm ablation (full, no_irm, no_ocd, neither) over a seed list.

    Every arm trains on the same data with the same per-seed initialization;
    only the loss weights differ. The ablation is one cell of
    _protocol_rows, so each job trains the arms of the next SEEDS_PER_JOB
    seeds as one stack. Per-seed rows, in ABLATION_ARMS order within a seed,
    are always emitted alongside the per-arm means.
    """
    _check_distinct(seeds, "seeds")
    if len(seeds) < 2:
        raise ValueError("ablation needs at least 2 seeds")
    rows = _protocol_rows(base_config, [(dataset, ABLATION_ARMS, {})], seeds, workers)
    fingerprint = config_fingerprint({
        "protocol": "ablation",
        "config": base_config.to_dict(),
        "generator": dataset.config.to_dict(),
        "seeds": list(seeds),
    })
    summary = {}
    for arm, _ in ABLATION_ARMS:
        arm_rows = [r for r in rows if r["arm"] == arm]
        summary[arm] = {key if key == "mean_ood" else f"mean_{key}":
                        sum(r[key] for r in arm_rows) / len(arm_rows) for key in SUMMARY_KEYS}
    return {"fingerprint": fingerprint, "seeds": list(seeds), "rows": rows, "summary": summary}


# (arm, changes to the base config, kind of training subset)
DATA_EFFICIENCY_ARMS = (
    ("ecf_pairs", {}, "pairs"),
    ("erm_pairs", {"alpha": 0.0, "beta": 0.0}, "pairs"),
    ("erm_unaugmented", {"alpha": 0.0, "beta": 0.0}, "unaugmented"),
)


def run_data_efficiency(base_config: TrainConfig, dataset: GeneratedDataset,
                        sizes: list[int], seeds: list[int], workers: int = 1) -> dict:
    """Train-size sweep: at every size s, (a) s/2 pairs with the full
    objective, (b) s/2 pairs with the prediction loss only, and (c) s
    unaugmented originals with the prediction loss only, so every arm sees
    exactly s training examples. Each size and kind of subset is one cell of
    _protocol_rows, whose arms train on the same units, so each job trains
    them as one stack over the next SEEDS_PER_JOB seeds. Rows come size by
    size, arm by arm, seed by seed. A non-finite loss ends the sweep with
    the error of the first run, in row order, that fails when it trains
    alone: after a failure the runs train again one at a time, in that
    order, until one fails."""
    if not sizes:
        raise ValueError("sizes must be non-empty")
    n_pairs = len(dataset.train_pairs)
    for s in sizes:
        if s < 2 or s % 2 != 0:
            raise ValueError(f"size {s} must be an even count of training examples")
        if s > n_pairs:
            raise ValueError(f"size {s} exceeds the {n_pairs} available pairs "
                             "(the unaugmented arm draws one original per pair)")
    if not seeds:
        raise ValueError("seeds must be non-empty")
    _check_distinct(sizes, "sizes")
    _check_distinct(seeds, "seeds")

    cells = []
    for s in sizes:
        for kind in ("pairs", "unaugmented"):
            if kind == "pairs":
                pairs = dataset.train_pairs[:s // 2]
            else:
                pairs = [PairedExample(u.original, None) for u in dataset.train_pairs[:s]]
            members = [m for u in pairs for m in u.members()]
            tag = {"size": s, "n_train_examples": len(members),
                   "n_counterfactuals": sum(1 for m in members if m.variant == "counterfactual")}
            arms = [(arm, changes) for arm, changes, of in DATA_EFFICIENCY_ARMS if of == kind]
            cells.append((replace(dataset, train_pairs=pairs), arms, tag))
    try:
        rows = _protocol_rows(base_config, cells, seeds, workers)
    except NonFiniteLossError:
        # a stack reports its first failing seed; the sweep reports its
        # first failing run in row order
        _run_jobs([partial(train, replace(base_config, **changes, seed=seed), subset.train_pairs)
                   for subset, arms, _ in cells for _, changes in arms for seed in seeds], 1)
        raise
    arm_order = [arm for arm, _, _ in DATA_EFFICIENCY_ARMS]
    rows = sorted(rows, key=lambda row: (
        sizes.index(row["size"]), arm_order.index(row["arm"]), seeds.index(row["seed"])))

    fingerprint = config_fingerprint({
        "protocol": "data_efficiency",
        "config": base_config.to_dict(),
        "generator": dataset.config.to_dict(),
        "sizes": list(sizes),
        "seeds": list(seeds),
    })
    return {"fingerprint": fingerprint, "sizes": list(sizes), "seeds": list(seeds), "rows": rows}


# ---------------------------------------------------------------------------
# report files

def _format_cell(v) -> str:
    if isinstance(v, float):
        return repr(v)
    return str(v)


def rows_to_csv(rows: list[dict]) -> str:
    if not rows:
        return "\n"
    columns = sorted({k for row in rows for k in row})
    lines = [",".join(columns)]
    for row in rows:
        lines.append(",".join(_format_cell(row.get(c, "")) for c in columns))
    return "\n".join(lines) + "\n"


def write_report(result: dict, out_dir, name: str) -> dict:
    """Emit <name>.csv and <name>.json side by side; both byte-deterministic."""
    os.makedirs(out_dir, exist_ok=True)
    csv_path = os.path.join(out_dir, f"{name}.csv")
    json_path = os.path.join(out_dir, f"{name}.json")
    with open(csv_path, "w", encoding="utf-8") as fh:
        fh.write(rows_to_csv(result["rows"]))
    with open(json_path, "w", encoding="utf-8") as fh:
        json.dump(result, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return {"csv": csv_path, "json": json_path}
