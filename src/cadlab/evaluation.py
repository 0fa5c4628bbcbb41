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

The runners look up the token ids of that union once per call, before the
worker pool forks; each run featurizes its eval matrices (row slices of the
union) and its probe matrices from those ids, so only the training rows are
looked up per run.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
from dataclasses import dataclass, replace

import numpy as np

from .data import (
    DataError, FeatureGroups, GeneratedDataset, PairedExample, TokenIds, Vocab,
    featurize_matrix,
)
from .model import Snapshot
from .training import TrainConfig, train

PROBE_GROUPS = ("edited_causal", "nonedited_causal", "correlated")

# (arm, changes to the base config)
ABLATION_ARMS = (
    ("full", {}),
    ("no_irm", {"alpha": 0.0}),
    ("no_ocd", {"beta": 0.0}),
    ("neither", {"alpha": 0.0, "beta": 0.0}),    # plain prediction loss
)


def config_fingerprint(payload: dict) -> str:
    canonical = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()[:16]


@dataclass
class EvalReport:
    split: str
    accuracy: float
    n: int
    per_class_accuracy: dict[int, float]
    fingerprint: str
    seed: int

    def to_dict(self) -> dict:
        return {
            "split": self.split,
            "accuracy": self.accuracy,
            "n": self.n,
            "per_class_accuracy": {str(k): v for k, v in sorted(self.per_class_accuracy.items())},
            "fingerprint": self.fingerprint,
            "seed": self.seed,
        }


def evaluate(snapshot: Snapshot, examples, vocab: Vocab, split: str = "",
             fingerprint: str = "", seed: int = 0,
             mask_tokens=None, ids: TokenIds | None = None) -> EvalReport:
    """Accuracy of a parameter snapshot on a list of examples (pure, read-only).

    ids, when given, are the examples' TokenIds, so callers that score the
    same examples again do not look their tokens up again.
    """
    if not examples:
        raise ValueError("evaluate needs a non-empty example list")
    n_classes = snapshot.config.n_classes
    labels = np.array([ex.label for ex in examples], dtype=np.intp)
    outside = np.flatnonzero((labels < 0) | (labels >= n_classes))
    if outside.size:
        ex = examples[outside[0]]
        raise DataError(f"example {ex.id!r} has label {ex.label}, outside the "
                        f"model's {n_classes} classes")
    features = featurize_matrix(examples if ids is None else ids, vocab, mask_tokens=mask_tokens)
    correct = snapshot.predict_matrix(features) == labels
    n_per_class = np.bincount(labels, minlength=n_classes)
    correct_per_class = np.bincount(labels[correct], minlength=n_classes)
    per_class = {int(c): int(correct_per_class[c]) / int(n_per_class[c])
                 for c in np.flatnonzero(n_per_class)}
    return EvalReport(split=split, accuracy=int(correct.sum()) / len(examples), n=len(examples),
                      per_class_accuracy=per_class, fingerprint=fingerprint, seed=seed)


@dataclass
class RelianceProbe:
    baseline_accuracy: float
    drops: dict[str, float]      # group name -> baseline - masked accuracy
    n: int

    def to_dict(self) -> dict:
        return {"baseline_accuracy": self.baseline_accuracy,
                "drops": dict(sorted(self.drops.items())), "n": self.n}


def myopia_probe(snapshot: Snapshot, examples, groups: FeatureGroups,
                 vocab: Vocab, ids: TokenIds | None = None) -> RelianceProbe:
    """Per-group accuracy drop when that group's tokens are masked.

    Masking happens at featurization time; the examples are never mutated and
    the unmasked baseline stays recomputable afterwards. The tokens are looked
    up once (or taken from ids) and serve the baseline and every mask.
    """
    if not examples:
        raise ValueError("probe needs a non-empty example list")
    for ex in examples:
        if ex.groups is None:
            raise ValueError(f"example {ex.id!r} lacks group annotations")
    if ids is None:
        ids = TokenIds.from_examples(examples)
    baseline = evaluate(snapshot, examples, vocab, split="probe_baseline", ids=ids)
    drops = {}
    for name in PROBE_GROUPS:
        masked = evaluate(snapshot, examples, vocab, split=f"probe_mask_{name}",
                          mask_tokens=groups.by_name(name), ids=ids)
        drops[name] = baseline.accuracy - masked.accuracy
    return RelianceProbe(baseline_accuracy=baseline.accuracy, drops=drops, n=len(examples))


def sign_test_p(wins: int, losses: int) -> float:
    """One-sided sign test: P(X >= wins) for X ~ Binomial(wins + losses, 1/2)."""
    n = wins + losses
    if n == 0:
        return 1.0
    total = sum(math.comb(n, k) for k in range(wins, n + 1))
    return total / 2.0 ** n


# ---------------------------------------------------------------------------
# shared single-run machinery

def ood_token_ids(dataset: GeneratedDataset) -> TokenIds:
    """TokenIds of the union ood + ood_stress, the rows run_single scores."""
    return TokenIds.from_examples(dataset.ood + dataset.ood_stress)


def run_single(config: TrainConfig, dataset: GeneratedDataset,
               vocab: Vocab | None = None, ood_ids: TokenIds | None = None) -> dict:
    """Train one model, evaluate the checkpoint on both OOD variants, and run
    the reliance probe over their union. Returns one flat result row.

    ood_ids are ood_token_ids(dataset), which runners look up once for all
    their runs; each OOD split is a row slice of them.
    """
    if vocab is None:
        vocab = Vocab.from_examples(dataset.train_examples())
    if ood_ids is None:
        ood_ids = ood_token_ids(dataset)
    checkpoint, _ = train(config, dataset.train_pairs, vocab=vocab)
    snap = checkpoint.snapshot
    n_ood = len(dataset.ood)
    acc_ood = evaluate(snap, dataset.ood, vocab, split="ood",
                       ids=ood_ids.rows(0, n_ood)).accuracy
    acc_stress = evaluate(snap, dataset.ood_stress, vocab, split="ood_stress",
                          ids=ood_ids.rows(n_ood, len(ood_ids))).accuracy
    probe = myopia_probe(snap, dataset.ood + dataset.ood_stress, dataset.groups, vocab,
                         ids=ood_ids)
    return {
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
    }


_WORKER_DATASET: GeneratedDataset | None = None
_WORKER_VOCAB: Vocab | None = None
_WORKER_OOD_IDS: TokenIds | None = None


def _one_blas_thread() -> None:
    """Limit the BLAS that numpy links to one thread, if it is an OpenBLAS
    whose thread setter is found; otherwise do nothing."""
    import ctypes
    try:
        from numpy._core import _multiarray_umath
        lib = ctypes.CDLL(_multiarray_umath.__file__)
    except (ImportError, OSError):
        return
    for symbol in ("scipy_openblas_set_num_threads64_", "scipy_openblas_set_num_threads",
                   "openblas_set_num_threads64_", "openblas_set_num_threads"):
        setter = getattr(lib, symbol, None)
        if setter is not None:
            setter(1)
            return


def _worker_init(dataset: GeneratedDataset, vocab: Vocab, ood_ids: TokenIds,
                 pool_worker: bool = False) -> None:
    global _WORKER_DATASET, _WORKER_VOCAB, _WORKER_OOD_IDS
    _WORKER_DATASET = dataset
    _WORKER_VOCAB = vocab
    _WORKER_OOD_IDS = ood_ids
    if pool_worker:
        # one BLAS thread per worker, so nproc workers do not oversubscribe the cores
        _one_blas_thread()


def _worker_run(job: dict) -> dict:
    config = TrainConfig.from_dict(job["config"])
    subset = job.get("subset")
    if subset is None:
        dataset, vocab = _WORKER_DATASET, _WORKER_VOCAB
    else:
        # data-efficiency jobs slice their own training subset and build the
        # vocabulary from that subset alone
        kind, k = subset
        base = _WORKER_DATASET
        if kind == "pairs":
            pairs = base.train_pairs[:k]
        else:
            pairs = [PairedExample(u.original, None) for u in base.train_pairs[:k]]
        dataset = GeneratedDataset(train_pairs=pairs, ood=base.ood,
                                   ood_stress=base.ood_stress, groups=base.groups,
                                   config=base.config)
        vocab = Vocab.from_examples(dataset.train_examples())
    row = run_single(config, dataset, vocab, _WORKER_OOD_IDS)
    row.update(job["tags"])
    if subset is not None:
        members = [m for u in dataset.train_pairs for m in u.members()]
        row["n_train_examples"] = len(members)
        row["n_counterfactuals"] = sum(1 for m in members if m.variant == "counterfactual")
    return row


def _run_jobs(jobs: list[dict], dataset: GeneratedDataset, vocab: Vocab,
              workers: int = 1) -> list[dict]:
    """Run (config, tags) jobs in deterministic order, optionally in parallel.

    Each run owns its parameters; results are collected in job order so the
    emitted reports do not depend on scheduling. The OOD token ids are looked
    up once, before the pool forks, and every run featurizes from them.
    """
    ood_ids = ood_token_ids(dataset)
    if workers <= 1 or len(jobs) <= 1:
        _worker_init(dataset, vocab, ood_ids)
        return [_worker_run(job) for job in jobs]
    import multiprocessing as mp
    ctx = mp.get_context("fork")
    with ctx.Pool(processes=workers, initializer=_worker_init,
                  initargs=(dataset, vocab, ood_ids, True)) as pool:
        return pool.map(_worker_run, jobs)


# ---------------------------------------------------------------------------
# protocol runners

def run_ablation(base_config: TrainConfig, dataset: GeneratedDataset,
                 seeds: list[int], workers: int = 1) -> dict:
    """Four-arm ablation (full, no_irm, no_ocd, neither) over a seed list.

    Every arm trains on the same data with the same per-seed initialization;
    only the loss weights differ. Per-seed rows are always emitted alongside
    the per-arm means.
    """
    if len(seeds) < 2:
        raise ValueError("ablation needs at least 2 seeds")
    vocab = Vocab.from_examples(dataset.train_examples())
    jobs = []
    for seed in seeds:
        for arm, changes in ABLATION_ARMS:
            cfg = replace(base_config, **changes, seed=seed)
            jobs.append({"config": cfg.to_dict(), "tags": {"arm": arm}})
    rows = _run_jobs(jobs, dataset, vocab, workers)
    fingerprint = config_fingerprint({
        "protocol": "ablation",
        "config": base_config.to_dict(),
        "generator": dataset.config.to_dict(),
        "seeds": list(seeds),
    })
    summary = {}
    for arm, _ in ABLATION_ARMS:
        arm_rows = [r for r in rows if r["arm"] == arm]
        summary[arm] = {
            "mean_ood": sum(r["mean_ood"] for r in arm_rows) / len(arm_rows),
            "mean_acc_ood": sum(r["acc_ood"] for r in arm_rows) / len(arm_rows),
            "mean_acc_ood_stress": sum(r["acc_ood_stress"] for r in arm_rows) / len(arm_rows),
            "mean_drop_edited_causal": sum(r["drop_edited_causal"] for r in arm_rows) / len(arm_rows),
            "mean_drop_nonedited_causal": sum(r["drop_nonedited_causal"] for r in arm_rows) / len(arm_rows),
            "mean_drop_correlated": sum(r["drop_correlated"] for r in arm_rows) / len(arm_rows),
        }
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
    exactly s training examples."""
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

    jobs = []
    for s in sizes:
        for arm, changes, kind in DATA_EFFICIENCY_ARMS:
            subset = (kind, s // 2 if kind == "pairs" else s)
            for seed in seeds:
                cfg = replace(base_config, **changes, seed=seed)
                jobs.append({"config": cfg.to_dict(), "subset": subset,
                             "tags": {"arm": arm, "size": s}})
    rows = _run_jobs(jobs, dataset, None, workers)

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
