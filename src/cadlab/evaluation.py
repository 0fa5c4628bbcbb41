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
call and vocabulary, before it forks, so a job costs the training of its
stack plus four predictions, each of one matrix for all the stack's runs at
once (a stacked ``Snapshot``): the unmasked union, which gives both split
accuracies and the probe baseline, and one masked matrix per probe group.
The labels are checked once per probe, not once per run. Both runners
build one job list (``_protocol_rows``) from cells: a cell is a training
set, its arms and the tag its rows carry. An ablation is one cell, and a
data-efficiency sweep one cell per size and kind of training subset. A job
is one call of ``run_single``, which trains one stack: a cell's arms over
the next SEEDS_PER_JOB seeds of the list. So the job list depends on the
cells and the seed list alone, and a two-seed ablation is a single job,
which runs in process. Several jobs go to the standard library's process
pool, with at most ``workers`` forked workers that inherit the job list,
and the rows come back in job order.
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
from dataclasses import dataclass, field, replace
from functools import cache, partial
from itertools import chain
from operator import attrgetter

import numpy as np

from .data import (
    DataError, FeatureGroups, GeneratedDataset, PairedExample, TokenIds, Vocab, csv_text,
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
SUMMARY_KEYS = ("mean_ood", "acc_ood", "acc_ood_stress",
                *(f"drop_{name}" for name in PROBE_GROUPS))

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
        if not examples:
            raise ValueError("scoring needs a non-empty example list")
        ids = TokenIds.from_examples(examples)
        labels = np.fromiter(map(attrgetter("label"), examples), np.intp, len(examples))
        features = featurize_matrix(ids, vocab)
        masked = {} if groups is None else {
            name: featurize_matrix(ids, vocab, mask_tokens=groups.by_name(name))
            for name in PROBE_GROUPS}
        return cls(list(examples), labels, features, masked)

    def correct(self, snapshot: Snapshot) -> list[np.ndarray]:
        """Per matrix, whether the snapshot predicts each example's label (an
        (R, n) array for a snapshot of R runs): the unmasked matrix first,
        then the masked ones in PROBE_GROUPS order, each predicted on its own."""
        n_classes = snapshot.config.n_classes
        outside = np.flatnonzero((self.labels < 0) | (self.labels >= n_classes))
        if outside.size:
            ex = self.examples[outside[0]]
            raise DataError(f"example {ex.id!r} has label {ex.label}, outside the "
                            f"model's {n_classes} classes")
        return [snapshot.predict_matrix(features) == self.labels
                for features in (self.features, *self.masked.values())]


def _accuracy(correct: np.ndarray) -> np.ndarray:
    """The share of correct examples, per run of an (R, n) array."""
    return np.add.reduce(correct, axis=-1) / correct.shape[-1]


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
    scored = EvalSet.build(examples, vocab)
    [correct] = scored.correct(snapshot)
    labels = scored.labels
    n_classes = snapshot.config.n_classes
    n_per_class = np.bincount(labels, minlength=n_classes)
    correct_per_class = np.bincount(labels[correct], minlength=n_classes)
    per_class = {int(c): int(correct_per_class[c]) / int(n_per_class[c])
                 for c in np.flatnonzero(n_per_class)}
    return EvalReport(split=split, accuracy=_accuracy(correct).tolist(), n=len(examples),
                      per_class_accuracy=per_class, fingerprint=fingerprint)


@dataclass
class RelianceProbe:
    """A probe's results; of a stacked snapshot, each accuracy and drop is a
    list with one value per run, and ``correct`` has one row per run."""
    baseline_accuracy: float | list[float]
    drops: dict[str, float | list[float]]      # group name -> baseline - masked accuracy
    n: int
    # per example, whether the unmasked baseline predicted it right
    correct: np.ndarray = field(repr=False, compare=False)

    def to_dict(self) -> dict:
        return {"baseline_accuracy": self.baseline_accuracy,
                "drops": dict(sorted(self.drops.items())), "n": self.n}


def myopia_probe(snapshot: Snapshot, evalset: EvalSet) -> RelianceProbe:
    """Per-group accuracy drop when that group's tokens are masked.

    evalset is built with the feature groups (EvalSet.build(examples, vocab,
    groups)), so its masked matrices are made once for any number of
    snapshots; the examples are never mutated. Each matrix is predicted once,
    for all the runs of a stacked snapshot at a time.
    """
    if not evalset.masked:
        raise ValueError("the probe needs an EvalSet built with feature groups")
    correct, *masked = evalset.correct(snapshot)
    baseline = _accuracy(correct)
    drops = {name: (baseline - _accuracy(c)).tolist() for name, c in zip(PROBE_GROUPS, masked)}
    return RelianceProbe(baseline_accuracy=baseline.tolist(), drops=drops,
                         n=correct.shape[-1], correct=correct)


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
    their runs. One probe scores all the checkpoints, stacked, and predicts
    the union once; its first len(dataset.ood) columns give acc_ood and the
    rest acc_ood_stress.
    """
    checkpoints = [checkpoint for checkpoint, _ in train_arms(configs, dataset.train_pairs,
                                                              vocab=vocab)]
    probe = myopia_probe(Snapshot.stack([c.snapshot for c in checkpoints]), ood)
    n_ood = len(dataset.ood)
    acc_ood = _accuracy(probe.correct[:, :n_ood]).tolist()
    acc_stress = _accuracy(probe.correct[:, n_ood:]).tolist()
    return [{
        "seed": config.seed,
        "alpha": config.alpha,
        "beta": config.beta,
        "train_accuracy": checkpoint.train_accuracy,
        "checkpoint_epoch": checkpoint.epoch,
        "acc_ood": acc_ood[r],
        "acc_ood_stress": acc_stress[r],
        "mean_ood": (acc_ood[r] + acc_stress[r]) / 2.0,
        **{f"drop_{name}": probe.drops[name][r] for name in PROBE_GROUPS},
    } for r, (config, checkpoint) in enumerate(zip(configs, checkpoints))]


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

    With workers > 1 the runs go to a pool of min(workers, len(runs)) forked
    worker processes. The workers inherit the run list through the fork, so
    only run indices go to them and only rows and errors come back; the
    error of the earliest failing run is raised as itself, and a worker
    that dies raises the pool's BrokenProcessPool, a RuntimeError. OpenBLAS
    is set to one thread here, before the pool forks, and the workers
    inherit that: each worker is one busy core. The count stays at one for
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
        # imported here, so a serial call and `import cadlab` do not pay for it
        import multiprocessing
        from concurrent.futures import ProcessPoolExecutor
        with ProcessPoolExecutor(min(workers, len(runs)),
                                 mp_context=multiprocessing.get_context("fork"),
                                 initializer=_inherit_runs, initargs=(runs,)) as pool:
            results = list(pool.map(_call_run, range(len(runs))))
    return [row for rows in results for row in rows]


_runs: list = []    # in a pool worker, the run list it inherited


def _inherit_runs(runs: list) -> None:
    global _runs
    _runs = runs


def _call_run(index: int) -> list[dict]:
    return _runs[index]()


# ---------------------------------------------------------------------------
# protocol runners

def _check_distinct(values: list[int], what: str) -> None:
    """A repeated seed or size would count its runs twice in every mean."""
    if len(set(values)) != len(values):
        raise ValueError(f"{what} must be distinct, got {list(values)}")


def _protocol_rows(base_config: TrainConfig, cells: list, seeds: list[int],
                   workers: int) -> list[dict]:
    """The rows of a protocol: one run per cell, arm and seed, where a cell
    is (name, dataset, arms, tag) and an arm is (name, changes to the base
    config). The cells share their OOD splits.

    Each cell's vocabulary comes from its training split. A run sizes its
    model from its training labels, so before any run, every cell whose
    training labels stop below the OOD splits' largest label fails, the
    first one in cell order; one walk over a cell's training examples gives
    both. The OOD union is featurized once per distinct vocabulary. A job is
    one run_single call on one cell's arms over the next SEEDS_PER_JOB seeds
    of the list, with the configs seed by seed in arm order, so it trains
    them as one stack. The jobs go cell by cell through _run_jobs, and each
    row gets its arm and its cell's tag here in the parent.
    """
    first = cells[0][1]
    top_ood = max(map(attrgetter("label"), first.ood + first.ood_stress), default=0)
    vocabs = []
    for what, dataset, _, _ in cells:
        # one walk: zip gives each Example field across the examples
        _, tokens, train_labels, _, _ = list(zip(*dataset.train_examples())) or [()] * 5
        if max(train_labels, default=top_ood) < top_ood:
            raise ValueError(f"{what} lacks the OOD label {top_ood}")
        vocabs.append(Vocab(chain.from_iterable(tokens)))
    ood_sets: dict[tuple[str, ...], EvalSet] = {}
    jobs, labels = [], []
    for (_, dataset, arms, tag), vocab in zip(cells, vocabs):
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
    are always emitted alongside the per-arm means. Training labels that
    stop below the OOD splits' largest fail before any run.
    """
    _check_distinct(seeds, "seeds")
    if len(seeds) < 2:
        raise ValueError("ablation needs at least 2 seeds")
    rows = _protocol_rows(base_config, [("the training data", dataset, ABLATION_ARMS, {})],
                          seeds, workers)
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
    """Train-size sweep: at every size s, (a) the first s/2 paired units with
    the full objective, (b) the same with the prediction loss only, and (c)
    the originals of the first s units with the prediction loss only, so
    every arm sees exactly s training examples. A cell whose labels stop
    below the OOD splits' largest fails before any run. Each size and kind
    of subset is one cell of _protocol_rows, whose arms train on the same
    units, so each job trains them as one stack over the next SEEDS_PER_JOB
    seeds. Rows come size by size, arm by arm, seed by seed. A non-finite
    loss ends the sweep with the error of the first run, in row order, that
    fails when it trains alone: after a failure the runs train again one at
    a time, in that order, until one fails."""
    if not sizes:
        raise ValueError("sizes must be non-empty")
    units = dataset.train_pairs
    paired = [u for u in units if u.counterfactual is not None]
    for s in sizes:
        if s < 2 or s % 2 != 0:
            raise ValueError(f"size {s} must be an even count of training examples")
        if s > len(units) or s // 2 > len(paired):
            raise ValueError(f"size {s} needs {s // 2} pairs and {s} units, but the training "
                             f"data holds {len(paired)} pairs in {len(units)} units")
    if not seeds:
        raise ValueError("seeds must be non-empty")
    _check_distinct(sizes, "sizes")
    _check_distinct(seeds, "seeds")

    cells = []
    for s in sizes:
        for kind in ("pairs", "unaugmented"):
            pairs = (paired[:s // 2] if kind == "pairs"
                     else [PairedExample(u.original) for u in units[:s]])
            tag = {"size": s, "n_train_examples": s,
                   "n_counterfactuals": s // 2 if kind == "pairs" else 0}
            arms = [(arm, changes) for arm, changes, of in DATA_EFFICIENCY_ARMS if of == kind]
            cells.append((f"size {s}: the {kind} subset", replace(dataset, train_pairs=pairs),
                          arms, tag))
    try:
        rows = _protocol_rows(base_config, cells, seeds, workers)
    except NonFiniteLossError:
        # a stack reports its first failing seed; the sweep reports its
        # first failing run in row order
        _run_jobs([partial(train, replace(base_config, **changes, seed=seed), subset.train_pairs)
                   for _, subset, arms, _ in cells for _, changes in arms for seed in seeds], 1)
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

def rows_to_csv(rows: list[dict]) -> str:
    """The CSV text of a protocol's rows: a column per key of any row, in
    sorted order, with an empty cell where a row lacks the key."""
    columns = sorted({k for row in rows for k in row})
    return csv_text(columns, [[row.get(c, "") for c in columns] for row in rows])


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
