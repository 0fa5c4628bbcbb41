"""Bag-of-words classifier: feature vector -> tanh encoder -> dot-product logits.

Each row of the output weight matrix acts as a label vector; the probability
of class k is softmax over the dot products of the sentence representation
with the label vectors. The parallel/orthogonal decomposition of the sentence
representation against its gold label vector feeds the pair-alignment loss.

Parameters have two forms. Training and evaluation use a Snapshot: numpy
arrays that can be views into one flat float64 vector, or into the rows of a
matrix that stacks several runs (``Snapshot.from_flat``), so an optimizer
updates them in place, and every prediction is ``Snapshot.predict_matrix``.
ModelParams holds the same values as scalar graph Nodes for the autodiff
reference, which checks the closed-form training gradient; only it has the
optional hidden layer. Both start from ``initial_values``.
"""

from __future__ import annotations

import json
import math
import random
from dataclasses import dataclass

import numpy as np

from .autodiff import Node, add, const, div, dot, exp, log, mul, nmax, nsum, sub, tanh, wsum
from .data import NESTED_TOO_DEEPLY, DictConfig, Vocab

CHECKPOINT_FORMAT_VERSION = 1

DEGENERATE_NORM_EPS = 1e-8


class DegenerateLabelVector(ValueError):
    """Label vector norm is below tolerance; callers skip the pair instead of dividing."""


@dataclass
class ModelConfig(DictConfig):
    KIND = "model"

    vocab_size: int            # including the OOV bucket
    n_classes: int = 2
    embed_dim: int = 8
    use_hidden: bool = False   # optional extra tanh layer (embed_dim -> embed_dim)

    def __post_init__(self):
        if self.vocab_size < 1 or self.n_classes < 1 or self.embed_dim < 1:
            raise ValueError("vocab_size, n_classes and embed_dim must be positive")

    def n_params(self) -> int:
        return sum(math.prod(shape) for shape in self.param_shapes().values())

    def param_shapes(self) -> dict[str, tuple[int, ...]]:
        """Shape of each parameter array, in ModelParams.flat() order."""
        V, K, d = self.vocab_size, self.n_classes, self.embed_dim
        shapes = {"embedding": (V, d), "enc_bias": (d,)}
        if self.use_hidden:
            shapes.update(hidden=(d, d), hidden_bias=(d,))
        shapes.update(classifier=(K, d), out_bias=(K,))
        return shapes


def initial_values(config: ModelConfig, seed: int) -> list[float]:
    """Seeded initial parameter values, in ModelParams.flat() order."""
    rng = random.Random(seed)
    return [rng.uniform(-0.1, 0.1) for _ in range(config.n_params())]


class ModelParams:
    """All trainable parameters as scalar graph leaves.

    embedding: vocab_size x d, enc_bias: d, optional hidden d x d (+ bias),
    classifier: n_classes x d whose row k is the label vector for class k,
    out_bias: n_classes.
    """

    def __init__(self, config: ModelConfig, seed: int):
        values = iter(initial_values(config, seed))
        d = config.embed_dim
        self.config = config
        u = lambda: const(next(values))
        self.embedding = [[u() for _ in range(d)] for _ in range(config.vocab_size)]
        self.enc_bias = [u() for _ in range(d)]
        if config.use_hidden:
            self.hidden = [[u() for _ in range(d)] for _ in range(d)]
            self.hidden_bias = [u() for _ in range(d)]
        else:
            self.hidden = None
            self.hidden_bias = None
        self.classifier = [[u() for _ in range(d)] for _ in range(config.n_classes)]
        self.out_bias = [u() for _ in range(config.n_classes)]

    def flat(self) -> list[Node]:
        out = [p for row in self.embedding for p in row]
        out += self.enc_bias
        if self.hidden is not None:
            out += [p for row in self.hidden for p in row]
            out += self.hidden_bias
        out += [p for row in self.classifier for p in row]
        out += self.out_bias
        return out

    def n_params(self) -> int:
        return len(self.flat())

    def snapshot(self) -> "Snapshot":
        """The values as a Snapshot; ValueError for a model with a hidden layer."""
        return Snapshot.from_flat(self.config, np.array([p.value for p in self.flat()]))


@dataclass
class Snapshot:
    """Detached f64 copy of the parameters of a model without a hidden layer,
    used for training, evaluation and checkpoints. Each array may carry a
    leading run axis: a stack of runs keeps run r's parameters at index r."""
    config: ModelConfig
    embedding: np.ndarray
    enc_bias: np.ndarray
    classifier: np.ndarray
    out_bias: np.ndarray

    @classmethod
    def from_flat(cls, config: ModelConfig, vector: np.ndarray) -> "Snapshot":
        """Arrays as views into a flat vector in ModelParams.flat() order, or
        into each row of an (R, n_params) matrix of R runs, so writes to the
        vector show through and vice versa."""
        if config.use_hidden:
            raise ValueError("a Snapshot holds no hidden layer")
        if vector.shape[-1:] != (config.n_params(),) or vector.ndim > 2:
            raise ValueError(f"expected {config.n_params()} parameters, got shape {vector.shape}")
        parts = {}
        start = 0
        for name, shape in config.param_shapes().items():
            size = math.prod(shape)
            parts[name] = vector[..., start:start + size].reshape(vector.shape[:-1] + shape)
            start += size
        return cls(config=config, **parts)

    def encode_matrix(self, features: np.ndarray) -> np.ndarray:
        return np.tanh(features @ self.embedding + self.enc_bias)

    def logits_matrix(self, features: np.ndarray) -> np.ndarray:
        return self.encode_matrix(features) @ self.classifier.T + self.out_bias

    def predict_matrix(self, features: np.ndarray) -> np.ndarray:
        # argmax breaks ties toward the lowest class index
        return np.argmax(self.logits_matrix(features), axis=1)


# ---------------------------------------------------------------------------
# graph-building forward ops

def encode(x_sparse: list[tuple[int, float]], params: ModelParams) -> list[Node]:
    """Sentence representation h from sparse (vocab index, weight) features."""
    d = params.config.embed_dim
    V = params.config.vocab_size
    weights = [w for _, w in x_sparse]
    for i, _ in x_sparse:
        if not 0 <= i < V:
            raise ValueError(f"feature index {i} out of range for vocab size {V}")
    h = []
    for j in range(d):
        rows = [params.embedding[i][j] for i, _ in x_sparse]
        h.append(tanh(add(wsum(rows, weights), params.enc_bias[j])))
    if params.hidden is not None:
        h2 = []
        for j in range(d):
            h2.append(tanh(add(dot(params.hidden[j], h), params.hidden_bias[j])))
        h = h2
    return h


def logits(h: list[Node], params: ModelParams) -> list[Node]:
    return [add(dot(row, h), b) for row, b in zip(params.classifier, params.out_bias)]


def cross_entropy(z: list[Node], label: int) -> Node:
    m = nmax(z)
    lse = add(m, log(nsum([exp(sub(zi, m)) for zi in z])))
    return sub(lse, z[label])


@dataclass
class Decomposition:
    h_par: list[Node]
    h_perp: list[Node]


def decompose(h: list[Node], label: int, params: ModelParams) -> Decomposition:
    """Split h into components parallel and orthogonal to the gold label vector.

    h_par = ((h . w_y) / (w_y . w_y)) w_y and h_perp = h - h_par. Raises
    DegenerateLabelVector when the label vector norm is at or below tolerance,
    so callers can skip the pair rather than divide by epsilon.
    """
    row = params.classifier[label]
    q = dot(row, row)
    if q.value <= DEGENERATE_NORM_EPS ** 2:
        raise DegenerateLabelVector(
            f"label vector {label} has norm {math.sqrt(max(q.value, 0.0)):.3e}")
    coef = div(dot(h, row), q)
    h_par = [mul(coef, w_j) for w_j in row]
    h_perp = [sub(h_j, p_j) for h_j, p_j in zip(h, h_par)]
    return Decomposition(h_par=h_par, h_perp=h_perp)


# ---------------------------------------------------------------------------
# checkpoints

def save_checkpoint(path, snap: Snapshot, vocab: Vocab, extra: dict | None = None) -> None:
    """JSON checkpoint; float values round-trip bit-exactly through repr."""
    payload = {
        "format_version": CHECKPOINT_FORMAT_VERSION,
        "model": snap.config.to_dict(),
        "vocab": list(vocab.tokens),
        "params": {
            "embedding": snap.embedding.tolist(),
            "enc_bias": snap.enc_bias.tolist(),
            # format version 1 names the hidden layer, which no Snapshot holds
            "hidden": None,
            "hidden_bias": None,
            "classifier": snap.classifier.tolist(),
            "out_bias": snap.out_bias.tolist(),
        },
    }
    if extra:
        payload["extra"] = extra
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, sort_keys=True)
        fh.write("\n")


def load_checkpoint(path) -> tuple[Snapshot, Vocab, dict]:
    """Load a checkpoint, checking every parameter array's shape against the
    model config, that every value is finite, that the vocabulary is a list
    of strings and the extra data an object (ValueError otherwise)."""
    try:
        with open(path, encoding="utf-8") as fh:
            payload = json.load(fh)
    except UnicodeDecodeError as e:
        raise ValueError(f"not UTF-8 text: {e.reason}") from e
    except RecursionError as e:
        raise ValueError(NESTED_TOO_DEEPLY) from e
    if not isinstance(payload, dict) or not isinstance(payload.get("params"), dict):
        raise ValueError("a checkpoint is a JSON object with a \"params\" object")
    version = payload.get("format_version")
    if version != CHECKPOINT_FORMAT_VERSION:
        raise ValueError(f"unsupported checkpoint format version {version!r}")
    try:
        config = ModelConfig.from_dict(payload["model"])
    except (TypeError, ValueError) as e:
        raise ValueError(f"bad model config: {e}") from e
    if config.use_hidden:
        raise ValueError("the model has a hidden layer, which checkpoints no longer hold")
    p = payload["params"]
    for name in ("hidden", "hidden_bias"):
        if p.get(name) is not None:
            raise ValueError(f"{name} is given but the model has no hidden layer")
    arrays = {}
    for name, shape in config.param_shapes().items():
        try:
            values = np.array(p[name], dtype=np.float64)
        except (TypeError, ValueError) as e:
            raise ValueError(f"{name} is not a numeric array: {e}") from e
        if values.shape != shape:
            raise ValueError(f"{name} has shape {values.shape}, expected {shape}")
        if not np.isfinite(values).all():
            raise ValueError(f"{name} holds a non-finite value")
        arrays[name] = values
    tokens, extra = payload["vocab"], payload.get("extra", {})
    if not isinstance(tokens, list) or not all(isinstance(t, str) for t in tokens):
        raise ValueError("the checkpoint's \"vocab\" is not a list of strings")
    if tokens != sorted(set(tokens)):
        # embedding row i belongs to the i-th token of the sorted vocabulary
        raise ValueError("the checkpoint's \"vocab\" is not in strictly increasing order")
    if not isinstance(extra, dict):
        raise ValueError("the checkpoint's \"extra\" is not an object")
    vocab = Vocab(tokens)
    if vocab.size != config.vocab_size:
        raise ValueError("checkpoint vocab does not match model vocab_size")
    return Snapshot(config=config, **arrays), vocab, extra
