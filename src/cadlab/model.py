"""Bag-of-words classifier: feature vector -> tanh encoder -> dot-product logits.

Each row of the output weight matrix acts as a label vector; the probability
of class k is softmax over the dot products of the sentence representation
with the label vectors. The parallel/orthogonal decomposition of the sentence
representation against its gold label vector feeds the pair-alignment loss.

Parameters have two forms. Training and evaluation use a Snapshot: numpy
arrays that can be views into one flat float64 vector, or into the rows of a
matrix that stacks several runs (``Snapshot.from_flat``, ``Snapshot.stack``),
so an optimizer updates them in place, and every prediction is
``Snapshot.predict_matrix``, which predicts for every run of a stack at once.
It puts the examples last, (…, d, n) and (…, K, n), so the biases, tanh and
``top_class``'s comparisons run along contiguous rows. ModelParams holds the
same values as scalar graph Nodes for the autodiff reference, which checks
the closed-form training gradient. Both start from ``initial_values`` and
lay it out by ``ModelConfig.param_shapes``, the one spelling of the layout.
"""

from __future__ import annotations

import json
import math
import random
from dataclasses import dataclass

import numpy as np

from .autodiff import Node, add, const, div, dot, exp, log, mul, nmax, nsum, sub, tanh, wsum
from .data import NESTED_TOO_DEEPLY, DictConfig, Vocab, is_int

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

    def __post_init__(self):
        for name in ("vocab_size", "n_classes", "embed_dim"):
            if not is_int(getattr(self, name)):
                raise ValueError(f"{name} must be an int, got {getattr(self, name)!r}")
        if self.vocab_size < 1 or self.n_classes < 1 or self.embed_dim < 1:
            raise ValueError("vocab_size, n_classes and embed_dim must be positive")

    def n_params(self) -> int:
        return sum(math.prod(shape) for shape in self.param_shapes().values())

    def param_shapes(self) -> dict[str, tuple[int, ...]]:
        """Shape of each parameter array, in the order of the flat parameter vector."""
        V, K, d = self.vocab_size, self.n_classes, self.embed_dim
        return {"embedding": (V, d), "enc_bias": (d,), "classifier": (K, d), "out_bias": (K,)}

    def split(self, vector: np.ndarray) -> dict[str, np.ndarray]:
        """Each parameter array as a view into a flat vector in param_shapes
        order, or into each row of an (R, n_params) matrix of R runs, so
        writes to the vector show through and vice versa."""
        if vector.shape[-1:] != (self.n_params(),) or vector.ndim > 2:
            raise ValueError(f"expected {self.n_params()} parameters, got shape {vector.shape}")
        parts, start = {}, 0
        for name, shape in self.param_shapes().items():
            size = math.prod(shape)
            parts[name] = vector[..., start:start + size].reshape(vector.shape[:-1] + shape)
            start += size
        return parts


def initial_values(config: ModelConfig, seed: int) -> list[float]:
    """Seeded initial parameter values, in param_shapes order: the draws of
    random.Random(seed).uniform(-0.1, 0.1), by uniform's own formula."""
    low, high, draw = -0.1, 0.1, random.Random(seed).random
    return [low + (high - low) * draw() for _ in range(config.n_params())]


class ModelParams:
    """All trainable parameters as scalar graph leaves, each array of
    ModelConfig.param_shapes as nested lists: embedding (vocab_size x d),
    enc_bias (d), classifier (n_classes x d, whose row k is the label vector
    for class k) and out_bias (n_classes)."""

    def __init__(self, config: ModelConfig, seed: int):
        self._lay_out(config, [const(v) for v in initial_values(config, seed)])

    @classmethod
    def from_leaves(cls, config: ModelConfig, leaves: list[Node]) -> "ModelParams":
        """The parameters that are these leaves, in flat() order."""
        params = cls.__new__(cls)
        params._lay_out(config, leaves)
        return params

    def _lay_out(self, config: ModelConfig, leaves: list[Node]) -> None:
        self.config, self._leaves = config, list(leaves)
        for name, part in config.split(np.array(self._leaves, dtype=object)).items():
            setattr(self, name, part.tolist())

    def flat(self) -> list[Node]:
        return list(self._leaves)

    def n_params(self) -> int:
        return len(self._leaves)

    def snapshot(self) -> "Snapshot":
        return Snapshot.from_flat(self.config, np.array([p.value for p in self._leaves]))


@dataclass
class Snapshot:
    """Detached f64 copy of the parameters, used for training, evaluation
    and checkpoints. Each array may carry a leading run axis: a stack of
    runs keeps run r's parameters at index r."""
    config: ModelConfig
    embedding: np.ndarray
    enc_bias: np.ndarray
    classifier: np.ndarray
    out_bias: np.ndarray

    @classmethod
    def from_flat(cls, config: ModelConfig, vector: np.ndarray) -> "Snapshot":
        """Arrays as views into a flat vector, or into each row of an (R,
        n_params) matrix of R runs (ModelConfig.split)."""
        return cls(config=config, **config.split(vector))

    @classmethod
    def stack(cls, snapshots: list["Snapshot"]) -> "Snapshot":
        """One Snapshot of several runs of one config: run r's arrays at index r."""
        config = snapshots[0].config
        return cls(config, **{name: np.stack([getattr(s, name) for s in snapshots])
                              for name in config.param_shapes()})

    # A stacked Snapshot gives one row of results per run: the (R, d, V) Eᵀ @
    # the (V, n) view features.T is R products, each the one the run's own
    # Snapshot makes. With numpy's OpenBLAS the logits equal the row layout's
    # tanh(X @ E + b) @ Wᵀ + c bit for bit at the default embed_dim of 8; among
    # widths 1-16, only 2-4, 9-12 and 16 differ, in the last bit.
    def logits_matrix(self, features: np.ndarray) -> np.ndarray:
        """(…, n, K) logits of the (n, V) features, a view of (…, K, n) ones."""
        h = self.embedding.swapaxes(-1, -2) @ features.T
        h += self.enc_bias[..., None]
        z = self.classifier @ np.tanh(h, out=h)
        z += self.out_bias[..., None]
        return z.swapaxes(-1, -2)

    def predict_matrix(self, features: np.ndarray) -> np.ndarray:
        """The class of each row's largest logit, as top_class gives it."""
        return top_class(self.logits_matrix(features).swapaxes(-1, -2))


def top_class(z: np.ndarray) -> np.ndarray:
    """The class of each column of (…, K, n) logits that np.argmax over the
    class axis gives: the lowest index on ties, and the first NaN if there is
    one, found with a comparison per class on contiguous rows."""
    pred = np.zeros(z.shape[:-2] + z.shape[-1:], dtype=np.intp)
    best = z[..., 0, :]
    for k in range(1, z.shape[-2]):
        # class k takes over unless it is <= the best, or the best is NaN
        take = ~(z[..., k, :] <= best) & (best == best)
        pred = np.where(take, k, pred)
        best = np.where(take, z[..., k, :], best)
    return pred


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

# format version 1 names the keys of a hidden layer, which no model has: a
# checkpoint holds them at these values, in its "model" and "params" objects
FORMAT_1_FIXED_KEYS = {"model": {"use_hidden": False},
                       "params": {"hidden": None, "hidden_bias": None}}


def save_checkpoint(path, snap: Snapshot, vocab: Vocab, extra: dict | None = None) -> None:
    """JSON checkpoint; float values round-trip bit-exactly through repr."""
    payload = {
        "format_version": CHECKPOINT_FORMAT_VERSION,
        "model": snap.config.to_dict(),
        "vocab": list(vocab.tokens),
        "params": {name: getattr(snap, name).tolist() for name in snap.config.param_shapes()},
    }
    for obj, fixed in FORMAT_1_FIXED_KEYS.items():
        payload[obj].update(fixed)
    if extra:
        payload["extra"] = extra
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, sort_keys=True)
        fh.write("\n")


def load_checkpoint(path) -> tuple[Snapshot, Vocab, dict]:
    """Load a checkpoint, checking its fixed keys, every parameter array's
    shape against the model config, that every value is finite, that the
    vocabulary is a list of strings and the extra data an object (ValueError
    otherwise)."""
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
    model, p = payload["model"], payload["params"]
    if not isinstance(model, dict):
        raise ValueError("bad model config: not a JSON object")
    for obj, fixed in FORMAT_1_FIXED_KEYS.items():
        # an absent key counts as its fixed value; json gives the one False and None
        if any(payload[obj].pop(key, value) is not value for key, value in fixed.items()):
            raise ValueError("format 1 holds no hidden layer: \"use_hidden\" is false "
                             "and \"hidden\", \"hidden_bias\" are null")
    try:
        config = ModelConfig.from_dict(model)
    except (TypeError, ValueError) as e:
        raise ValueError(f"bad model config: {e}") from e
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
