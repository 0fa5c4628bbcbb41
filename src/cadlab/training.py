"""Deterministic mini-batch training loop with pair-preserving batching.

Both members of a counterfactual pair always land in the same step, so the
pairwise alignment term is computable and every step sees both environments.
The training data are featurized once; each step slices its rows and takes
the loss values and gradient in closed form (``losses.objective_and_grad``).
All parameters live in one float64 vector, which Adam or SGD updates with
array operations. The list-based ``adam_step`` and ``sgd_step`` update scalar
graph leaves and serve, with ``combined_loss`` and ``autodiff.grad``, as the
reference that the tests check this path against. Given (seed, config, data),
every logged number is reproducible bit-for-bit. The checkpoint is always
the epoch with the best train accuracy, the earliest on ties.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field

import numpy as np

# perfbench/spans.py wraps cadlab.training.grad and .combined_loss by name
from .autodiff import grad  # noqa: F401
from .data import PairedExample, Vocab, featurize_matrix, partition_environments
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
class TrainConfig:
    alpha: float = 1.6
    beta: float = 0.1
    learning_rate: float = 1e-3
    batch_pairs: int = 16          # each pair contributes 2 examples
    epochs: int = 100
    seed: int = 0
    optimizer: str = "adam"        # "adam" | "sgd"
    env_mode: str = "disjoint"     # | "overlap": e_cad additionally holds the originals
    n_classes: int = 2
    embed_dim: int = 8
    use_hidden: bool = False

    def __post_init__(self):
        if self.learning_rate <= 0.0:
            raise ValueError("learning_rate must be positive")
        if self.epochs < 1:
            raise ValueError("epochs must be >= 1")
        if self.batch_pairs < 1:
            raise ValueError("batch_pairs must be >= 1")
        if self.alpha < 0.0 or self.beta < 0.0:
            raise ValueError("alpha and beta must be non-negative")
        if self.optimizer not in ("adam", "sgd"):
            raise ValueError(f"unknown optimizer {self.optimizer!r}")
        if self.env_mode not in ("disjoint", "overlap"):
            raise ValueError(f"unknown env_mode {self.env_mode!r}")
        if self.n_classes < 1 or self.embed_dim < 1:
            raise ValueError("n_classes and embed_dim must be >= 1")

    def to_dict(self) -> dict:
        return {f: getattr(self, f) for f in self.__dataclass_fields__}

    @classmethod
    def from_dict(cls, d: dict) -> "TrainConfig":
        known = set(cls.__dataclass_fields__)
        unknown = set(d) - known
        if unknown:
            raise ValueError(f"unknown train config keys: {sorted(unknown)}")
        return cls(**d)


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


def make_batches(pairs: list[PairedExample], batch_pairs: int, seed: int,
                 epoch: int) -> list[list[PairedExample]]:
    """Whole-pair batches in a deterministic per-epoch shuffle order.

    The final short batch is kept. Batches contain PairedExample units, so
    each batch's originals and counterfactuals form the two environment
    sub-batches by construction.
    """
    order = list(pairs)
    # integer mixing only: string hashing is salted per process
    rng = random.Random(seed * 1_000_003 + epoch)
    rng.shuffle(order)
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


def sgd_step(flat_params, grads, lr: float) -> None:
    for p, g in zip(flat_params, grads):
        p.value -= lr * g


def adam_step_vector(theta: np.ndarray, g: np.ndarray, state: AdamState, lr: float,
                     beta1: float = 0.9, beta2: float = 0.999, eps: float = 1e-8) -> None:
    """adam_step on one parameter vector, in place, rounding as adam_step does."""
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


def _check_finite(step: int, component: str, values: np.ndarray) -> None:
    bad = values[~np.isfinite(values)]
    if bad.size:
        raise NonFiniteLossError(step, component, float(bad[0]))


def batch_rows(batch: list[PairedExample], alpha: float,
               env_mode: str) -> tuple[list, list[np.ndarray], np.ndarray]:
    """A batch's examples, the positions of each environment's members (in
    sorted environment-name order, from partition_environments) and the
    (original, counterfactual) positions of each pair."""
    examples = [m for unit in batch for m in unit.members()]
    position = {id(ex): j for j, ex in enumerate(examples)}
    envs = partition_environments(examples, alpha, env_mode) if alpha > 0.0 else {}
    env_rows = [np.array([position[id(ex)] for ex in envs[name]], dtype=np.intp)
                for name in sorted(envs)]
    pair_rows = np.array([(position[id(u.original)], position[id(u.counterfactual)])
                          for u in batch if u.counterfactual is not None],
                         dtype=np.intp).reshape(-1, 2)
    return examples, env_rows, pair_rows


def train(config: TrainConfig, pairs: list[PairedExample],
          vocab: Vocab | None = None) -> tuple[Checkpoint, TrainingLog]:
    """Run the full training loop and return the checkpoint of the epoch with
    the best train accuracy (the earliest on ties), with the log.

    The vocabulary is built from the training split unless one is supplied
    (runners share a vocab across arms so checkpoints stay comparable).
    """
    if not pairs:
        raise ValueError("training requires at least one pair")
    all_examples = [m for unit in pairs for m in unit.members()]
    for ex in all_examples:
        if ex.label >= config.n_classes:
            raise ValueError(f"label {ex.label} out of range for n_classes={config.n_classes}")
    if config.beta > 0.0 and not any(u.counterfactual is not None for u in pairs):
        raise ValueError("beta > 0 requires counterfactual pairs in the training data")
    if config.alpha > 0.0:
        # raises EmptyEnvironmentError when an environment would be empty
        partition_environments(all_examples, config.alpha, config.env_mode)

    if vocab is None:
        vocab = Vocab.from_examples(all_examples)
    features = featurize_matrix(all_examples, vocab)
    labels = np.array([ex.label for ex in all_examples], dtype=np.intp)
    row_of = {id(ex): i for i, ex in enumerate(all_examples)}

    model_cfg = ModelConfig(vocab_size=vocab.size, n_classes=config.n_classes,
                            embed_dim=config.embed_dim, use_hidden=config.use_hidden)
    theta = np.array(initial_values(model_cfg, config.seed))
    gradient = np.zeros_like(theta)
    params = Snapshot.from_flat(model_cfg, theta)
    grads = Snapshot.from_flat(model_cfg, gradient)
    adam = (AdamState(m=np.zeros_like(theta), v=np.zeros_like(theta))
            if config.optimizer == "adam" else None)

    log = TrainingLog()
    best: Checkpoint | None = None
    step = 0
    for epoch in range(config.epochs):
        epoch_breakdowns = []
        for batch in make_batches(pairs, config.batch_pairs, config.seed, epoch):
            batch_examples, env_rows, pair_rows = batch_rows(batch, config.alpha, config.env_mode)
            rows = [row_of[id(ex)] for ex in batch_examples]
            with np.errstate(over="ignore", invalid="ignore"):
                breakdown = objective_and_grad(
                    params, grads, features[rows], labels[rows], env_rows, pair_rows,
                    config.alpha, config.beta)
                for component, value in (("l_p", breakdown.l_p), ("l_irm", breakdown.l_irm),
                                         ("l_ocd", breakdown.l_ocd), ("total", breakdown.total)):
                    if not math.isfinite(value):
                        raise NonFiniteLossError(step, component, value)
                _check_finite(step, "grad", gradient)
                if adam is not None:
                    adam_step_vector(theta, gradient, adam, config.learning_rate)
                else:
                    theta -= config.learning_rate * gradient
                _check_finite(step, "params", theta)
            log.steps.append(breakdown)
            epoch_breakdowns.append(breakdown)
            step += 1

        snap = Snapshot.from_flat(model_cfg, theta.copy())
        acc = train_accuracy(snap, features, labels)
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
        if best is None or acc > best.train_accuracy:
            best = Checkpoint(snapshot=snap, epoch=epoch, train_accuracy=acc)
    return best, log
