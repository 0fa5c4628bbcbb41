"""Deterministic mini-batch training loop with pair-preserving batching.

Both members of a counterfactual pair always land in the same step, so the
pairwise alignment term is computable. On partly augmented data a batch may
hold no counterfactual: an environment with no member in the batch adds
nothing to the invariance penalty, and a batch without a pair has a zero
alignment term.
The training data are featurized once, and their labels size the model:
classes 0 to the largest label. A batch is a list of unit indices; which of
its units are paired gives each step its rows, pairs and environments, for
all of an epoch's steps at once (``batch_index``), and the step takes the
loss values and gradient in closed form (``losses.objective_and_grad``).
Runs that differ only in seed, alpha and beta (an ablation's arms over its
seeds) train as one stack (``train_arms``): they share that preparation, the
runs of a seed share its batches and initial values, and each step gathers
every seed's rows and advances all the runs with one set of array calls. On
partly augmented data the seeds' batches differ in which units are paired,
and each seed is a stack of its own. A run's parameters are one float64
vector, a row of the stack's matrix, which Adam updates with array
operations. The list-based ``adam_step`` updates scalar
graph leaves and serves, with ``combined_loss`` and ``autodiff.grad``, as the
reference that the tests check this path against. Given (seed, config, data), every logged
number is reproducible bit-for-bit. The checkpoint is always the epoch with
the best train accuracy, the earliest on ties.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field, replace
from itertools import chain

import numpy as np

# perfbench/spans.py wraps cadlab.training.grad, .combined_loss and .partition_environments by name
from .autodiff import grad  # noqa: F401
from .data import (  # noqa: F401
    ENV_COUNTERFACTUAL, DictConfig, EmptyEnvironmentError, PairedExample, Vocab, featurize_matrix,
    is_int, is_number, partition_environments,
)
from .losses import LossBreakdown, combined_loss, objective_and_grad  # noqa: F401
from .model import ModelConfig, Snapshot, initial_values


class NonFiniteLossError(RuntimeError):
    """A loss component, the gradient ("grad") or the parameters ("params")
    became non-finite at a training step."""

    def __init__(self, step: int, component: str, value: float):
        super().__init__(f"step {step}: {component} became non-finite ({value!r})")
        self.step = step
        self.component = component
        self.value = value

    def __reduce__(self):
        # args holds only the message, so rebuild from the fields: a runner's
        # worker process sends the error to the parent pickled
        return type(self), (self.step, self.component, self.value)


@dataclass
class TrainConfig(DictConfig):
    KIND = "train"

    alpha: float = 1.6
    beta: float = 0.1
    learning_rate: float = 1e-3
    batch_pairs: int = 16          # each pair contributes 2 examples
    epochs: int = 100
    seed: int = 0
    # the only optimizer, kept because perfbench/run.py's train config sets it;
    # ROADMAP item 5 removes it together with that harness change
    optimizer: str = "adam"
    env_mode: str = "disjoint"     # | "overlap": e_cad additionally holds the originals
    embed_dim: int = 8

    def __post_init__(self):
        for name in ("batch_pairs", "epochs", "seed", "embed_dim"):
            if not is_int(getattr(self, name)):
                raise ValueError(f"{name} must be an int, got {getattr(self, name)!r}")
        for name in ("alpha", "beta", "learning_rate"):
            if not is_number(getattr(self, name)):
                raise ValueError(f"{name} must be a finite number, got {getattr(self, name)!r}")
        if self.seed < 0:
            # random.Random seeds with the absolute value: -3 would train seed 3's run
            raise ValueError("seed must be >= 0")
        if self.learning_rate <= 0.0:
            raise ValueError("learning_rate must be positive")
        for name in ("epochs", "batch_pairs", "embed_dim"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1")
        if self.alpha < 0.0 or self.beta < 0.0:
            raise ValueError("alpha and beta must be non-negative")
        if self.optimizer != "adam":
            raise ValueError(f"unknown optimizer {self.optimizer!r} (only 'adam')")
        if self.env_mode not in ("disjoint", "overlap"):
            raise ValueError(f"unknown env_mode {self.env_mode!r}")


@dataclass
class EpochSummary:
    epoch: int
    train_accuracy: float
    mean_l_p: float
    mean_l_irm: float
    mean_l_ocd: float
    mean_total: float

    CSV_HEADER = "epoch,train_accuracy,mean_l_p,mean_l_irm,mean_l_ocd,mean_total"

    def csv_row(self) -> str:
        return (f"{self.epoch},{self.train_accuracy!r},{self.mean_l_p!r},"
                f"{self.mean_l_irm!r},{self.mean_l_ocd!r},{self.mean_total!r}")


@dataclass
class TrainingLog:
    steps: list[LossBreakdown] = field(default_factory=list)
    epochs: list[EpochSummary] = field(default_factory=list)

    def step_csv(self) -> str:
        lines = [LossBreakdown.CSV_HEADER]
        lines += [b.csv_row(i) for i, b in enumerate(self.steps)]
        return "\n".join(lines) + "\n"

    def epoch_csv(self) -> str:
        lines = [EpochSummary.CSV_HEADER]
        lines += [e.csv_row() for e in self.epochs]
        return "\n".join(lines) + "\n"


@dataclass
class Checkpoint:
    snapshot: Snapshot
    epoch: int
    train_accuracy: float


def make_batches(units, batch_pairs: int, seed: int, epoch: int) -> list[list]:
    """Batches of whole units (PairedExamples or their indices) in a
    deterministic per-epoch shuffle order; the order depends only on
    len(units), seed and epoch. The final short batch is kept. A unit holds
    an original and its counterfactual, so each batch's originals and
    counterfactuals form the two environment sub-batches by construction.
    """
    order = list(units)
    # integer mixing only: string hashing is salted per process
    getrandbits = random.Random(seed * 1_000_003 + epoch).getrandbits
    # random.Random.shuffle(order), with the getrandbits calls it makes on
    # Python 3.10 to 3.13: position i swaps with an index below i + 1
    for i in range(len(order) - 1, 0, -1):
        k = (i + 1).bit_length()
        j = getrandbits(k)
        while j > i:
            j = getrandbits(k)
        order[i], order[j] = order[j], order[i]
    return [order[i:i + batch_pairs] for i in range(0, len(order), batch_pairs)]


@dataclass
class AdamState:
    m: list[float] | np.ndarray
    v: list[float] | np.ndarray
    t: int = 0

    @classmethod
    def zeros(cls, n: int) -> "AdamState":
        return cls(m=[0.0] * n, v=[0.0] * n)


def adam_step(flat_params, grads, state: AdamState, lr: float,
              beta1: float = 0.9, beta2: float = 0.999, eps: float = 1e-8) -> None:
    """Standard bias-corrected Adam update, in place on the parameter leaves."""
    if len(grads) != len(flat_params) or len(state.m) != len(flat_params):
        raise ValueError("optimizer state does not match parameter count")
    state.t += 1
    bc1 = 1.0 - beta1 ** state.t
    bc2 = 1.0 - beta2 ** state.t
    m, v = state.m, state.v
    for i, (p, g) in enumerate(zip(flat_params, grads)):
        m[i] = beta1 * m[i] + (1.0 - beta1) * g
        v[i] = beta2 * v[i] + (1.0 - beta2) * g * g
        p.value -= lr * (m[i] / bc1) / (math.sqrt(v[i] / bc2) + eps)


def adam_step_vector(theta: np.ndarray, g: np.ndarray, state: AdamState, lr: float,
                     beta1: float = 0.9, beta2: float = 0.999, eps: float = 1e-8) -> None:
    """adam_step on a parameter vector, or on every row of a stack of them,
    in place, rounding as adam_step does."""
    state.t += 1
    bc1 = 1.0 - beta1 ** state.t
    bc2 = 1.0 - beta2 ** state.t
    state.m *= beta1
    state.m += (1.0 - beta1) * g
    state.v *= beta2
    state.v += (1.0 - beta2) * g * g
    theta -= lr * (state.m / bc1) / (np.sqrt(state.v / bc2) + eps)


def train_accuracy(snapshot: Snapshot, features: np.ndarray, labels: np.ndarray) -> float:
    return int((snapshot.predict_matrix(features) == labels).sum()) / len(labels)


def unit_rows(units: list[PairedExample]) -> np.ndarray:
    """(original row, counterfactual row or -1) of each unit in the feature
    matrix of all units' members, unit after unit."""
    paired = np.array([u.counterfactual is not None for u in units], dtype=np.intp)
    first = np.cumsum(1 + paired) - 1 - paired
    return np.stack([first, np.where(paired, first + 1, -1)], axis=1)


def batch_index(units: np.ndarray, batches: list[list[list[int]]], env_mode: str
                ) -> list[tuple[np.ndarray, list[np.ndarray], np.ndarray]]:
    """The steps of S seeds, indexed at once from each seed's batches of unit
    indices (one list per seed, as make_batches gives them; the seeds'
    batches of a step are of one size). For each step: the (S, rows) feature
    rows of each seed's batch (each unit's original, then its
    counterfactual), the positions of each environment's members among them,
    in sorted name order (empty for an environment absent from the batch),
    and the (original, counterfactual) positions of each pair. e_ori holds
    the originals and e_cad the counterfactuals, or every row with env_mode
    "overlap", so all three follow from which of a batch's units are paired.
    The seeds share them, taken from the first seed's batches: their batches
    must be paired at the same positions, as they are on fully paired or
    fully unpaired data."""
    members = units[np.array([list(chain.from_iterable(seed)) for seed in batches])]
    pattern = members[0] >= 0
    rows = members[:, pattern]
    # each member's row among all the steps' rows; a step's positions are
    # those less the first row of its batch, the units and pairs before it
    positions = (np.cumsum(pattern) - 1).reshape(pattern.shape)
    pair_rows = positions[pattern[:, 1]]
    ends = np.cumsum([len(batch) for batch in batches[0]])
    bounds = [(0, 0), *zip(ends.tolist(), np.cumsum(pattern[:, 1])[ends - 1].tolist())]
    steps = []
    for (start, pairs_start), (end, pairs_end) in zip(bounds, bounds[1:]):
        first, last = start + pairs_start, end + pairs_end
        pairs = pair_rows[pairs_start:pairs_end] - first
        e_cad = np.arange(last - first) if env_mode == "overlap" else pairs[:, 1]
        steps.append((rows[:, first:last], [e_cad, positions[start:end, 0] - first], pairs))
    return steps


def _raise_if_non_finite(step: int, breakdowns: list[LossBreakdown], gradient: np.ndarray,
                         theta: np.ndarray) -> None:
    """NonFiniteLossError for the lowest run of the stack with a non-finite
    loss component, gradient or updated parameter, checked in that order."""
    # a sum is finite only if every term is; one that overflows falls
    # through to the checks, which find nothing (_train_stack runs under
    # np.errstate, so the overflow does not warn)
    if math.isfinite(sum(b.l_p + b.l_irm + b.l_ocd + b.total for b in breakdowns)
                     + np.add.reduce(gradient, None) + np.add.reduce(theta, None)):
        return
    grad_ok = np.isfinite(gradient).all(axis=1).tolist()
    params_ok = np.isfinite(theta).all(axis=1).tolist()
    for r, b in enumerate(breakdowns):
        for component, value in (("l_p", b.l_p), ("l_irm", b.l_irm),
                                 ("l_ocd", b.l_ocd), ("total", b.total)):
            if not math.isfinite(value):
                raise NonFiniteLossError(step, component, value)
        for component, ok, values in (("grad", grad_ok, gradient), ("params", params_ok, theta)):
            if not ok[r]:
                bad = values[r][~np.isfinite(values[r])]
                raise NonFiniteLossError(step, component, float(bad[0]))


def train(config: TrainConfig, pairs: list[PairedExample],
          vocab: Vocab | None = None) -> tuple[Checkpoint, TrainingLog]:
    """Run the full training loop and return the checkpoint of the epoch with
    the best train accuracy (the earliest on ties), with the log.

    The vocabulary is built from the training split unless one is supplied
    (runners share a vocab across arms so checkpoints stay comparable).
    """
    return train_arms([config], pairs, vocab)[0]


def train_arms(configs: list[TrainConfig], pairs: list[PairedExample],
               vocab: Vocab | None = None) -> list[tuple[Checkpoint, TrainingLog]]:
    """Train one run per config, in stacks, and return their results in config
    order. The configs agree on every field but seed, alpha and beta. A seed's
    runs share its batches and initial values; the seeds share the
    featurization. The seeds train as one stack when each has as many runs and
    the units are all paired or all unpaired, so that every seed's batch is
    paired at the same positions; otherwise (on partly augmented data) one
    seed at a time. Each step advances a stack's runs with one set of array
    calls. Each run keeps its own parameters, Adam state, log and checkpoint,
    and they are bit for bit those of the config trained alone. The model has
    one class per label value up to the largest training label.

    A non-finite value in any run stops training. The NonFiniteLossError
    raised is the one of the first seed, in config order, that fails when
    trained alone: its first non-finite step and, in that step, its lowest
    run. A failing stack of several seeds finds it by training them again
    one at a time on the same prepared data.
    """
    if not configs:
        raise ValueError("training requires at least one config")
    config = configs[0]
    shared = replace(config, seed=0, alpha=0.0, beta=0.0)
    if any(replace(run, seed=0, alpha=0.0, beta=0.0) != shared for run in configs):
        raise ValueError("stacked configs may differ only in seed, alpha and beta")
    if not pairs:
        raise ValueError("training requires at least one pair")
    all_examples = [m for unit in pairs for m in unit.members()]
    labels = np.array([ex.label for ex in all_examples], dtype=np.intp)
    units = unit_rows(pairs)
    paired = units[:, 1] >= 0
    if not paired.any():
        # no counterfactual: e_cad is empty in disjoint mode (e_ori never is)
        for run in configs:
            if run.beta > 0.0:
                raise ValueError("beta > 0 requires counterfactual pairs in the training data")
            if run.alpha > 0.0 and run.env_mode == "disjoint":
                raise EmptyEnvironmentError(f"environment {ENV_COUNTERFACTUAL!r} is empty but "
                                            f"the invariance weight is {run.alpha}")

    if vocab is None:
        vocab = Vocab.from_examples(all_examples)
    features = featurize_matrix(all_examples, vocab)

    model_cfg = ModelConfig(vocab_size=vocab.size, n_classes=int(labels.max()) + 1,
                            embed_dim=config.embed_dim)
    by_seed: dict[int, list[int]] = {}
    for i, run in enumerate(configs):
        by_seed.setdefault(run.seed, []).append(i)
    results = [None] * len(configs)

    def train_seeds(seeds: list[int]) -> None:
        order = [i for seed in seeds for i in by_seed[seed]]
        trained = _train_stack([configs[i] for i in order], units, features, labels, model_cfg)
        for i, result in zip(order, trained):
            results[i] = result

    if (len(by_seed) > 1 and len({len(runs) for runs in by_seed.values()}) == 1
            and (paired.all() or not paired.any())):
        try:
            train_seeds(list(by_seed))
            return results
        except NonFiniteLossError:
            pass    # the seeds train again one at a time, and the first that fails raises
    for seed in by_seed:
        train_seeds([seed])
    return results


# a step that overflows raises NonFiniteLossError, so numpy need not warn
@np.errstate(over="ignore", invalid="ignore")
def _train_stack(runs: list[TrainConfig], units: np.ndarray, features: np.ndarray,
                 labels: np.ndarray, model_cfg: ModelConfig) -> list[tuple[Checkpoint, TrainingLog]]:
    """Train the runs, seed by seed with as many runs per seed, each step on
    every seed's next batch from make_batches; the seeds' batches must be
    paired at the same positions (batch_index). Raises the
    NonFiniteLossError of the first step at which a run goes non-finite, for
    the lowest such run."""
    seeds = list(dict.fromkeys(run.seed for run in runs))
    theta = np.repeat(np.array([initial_values(model_cfg, seed) for seed in seeds]),
                      len(runs) // len(seeds), axis=0)
    gradient = np.zeros_like(theta)
    params = Snapshot.from_flat(model_cfg, theta)
    grads = Snapshot.from_flat(model_cfg, gradient)
    adam = AdamState(m=np.zeros_like(theta), v=np.zeros_like(theta))
    alpha = np.array([run.alpha for run in runs], dtype=np.float64)
    beta = np.array([run.beta for run in runs], dtype=np.float64)
    config = runs[0]

    logs = [TrainingLog() for _ in runs]
    best: list[Checkpoint | None] = [None] * len(runs)
    step = 0
    for epoch in range(config.epochs):
        first_step = step
        steps = batch_index(units, [make_batches(range(len(units)), config.batch_pairs, seed, epoch)
                                    for seed in seeds], config.env_mode)
        for rows, env_rows, pair_rows in steps:
            breakdowns = objective_and_grad(
                params, grads, features[rows], labels[rows], env_rows, pair_rows, alpha, beta)
            # a non-finite step raises below, so its update is never used
            adam_step_vector(theta, gradient, adam, config.learning_rate)
            _raise_if_non_finite(step, breakdowns, gradient, theta)
            for log, breakdown in zip(logs, breakdowns):
                log.steps.append(breakdown)
            step += 1

        for r, log in enumerate(logs):
            snap = Snapshot.from_flat(model_cfg, theta[r].copy())
            acc = train_accuracy(snap, features, labels)
            epoch_breakdowns = log.steps[first_step:]
            n = len(epoch_breakdowns)
            log.epochs.append(EpochSummary(
                epoch=epoch,
                train_accuracy=acc,
                mean_l_p=sum(b.l_p for b in epoch_breakdowns) / n,
                mean_l_irm=sum(b.l_irm for b in epoch_breakdowns) / n,
                mean_l_ocd=sum(b.l_ocd for b in epoch_breakdowns) / n,
                mean_total=sum(b.total for b in epoch_breakdowns) / n,
            ))
            # strict > keeps the earliest epoch on ties
            if best[r] is None or acc > best[r].train_accuracy:
                best[r] = Checkpoint(snapshot=snap, epoch=epoch, train_accuracy=acc)
    return list(zip(best, logs))
