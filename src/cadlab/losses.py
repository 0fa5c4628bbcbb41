"""The training objective: prediction loss, environment-invariance penalty,
and the orthogonal-component-distance penalty on counterfactual pairs.

The prediction loss is the mean cross-entropy over the whole batch. The
invariance penalty squares the gradient of each environment's risk with
respect to a scalar dummy classifier fixed at 1.0 that multiplies the logits.
The pair-alignment penalty is differentiated through both the
representations and the label vectors it projects them against.

Two implementations compute the same objective. ``objective_and_grad`` gives
the loss values and the full parameter gradient of one step in closed form
with numpy; training uses it. A step does only the arithmetic that reads the
parameters: what depends only on its batch (each run's labels and their
one-hot, the environment blocks, the pairs' labels and rows) comes in a
``Batch``, built for a whole epoch at once, and what depends only on the
stack of runs (the weights and what follows from them, the parameter and
gradient views) in a ``Stack``, built once. ``combined_loss`` builds the objective as a
scalar graph: a differentiable backward pass computes the invariance
gradient, so the penalty itself stays differentiable, and ``autodiff.grad``
then gives the parameter gradient. It is the reference that checks the
closed form, on the same model: ``ModelParams`` holds a ``Snapshot``'s
parameters, laid out alike, as graph leaves.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .autodiff import Node, add, const, dot, grad, mul, nsum, scale, sub
from .data import Example, Vocab, featurize_sparse
from .model import (
    DEGENERATE_NORM_EPS, DegenerateLabelVector, ModelParams, Snapshot, cross_entropy,
    decompose, encode, logits,
)

log = logging.getLogger(__name__)


@dataclass
class ForwardExample:
    """Shared per-example forward state for one step: representation and logits."""
    example: Example
    h: list[Node]
    z: list[Node]

    @property
    def label(self) -> int:
        return self.example.label


def forward_examples(examples, vocab: Vocab, params: ModelParams) -> dict[int, ForwardExample]:
    """Encode each distinct example once; keyed by object identity so the same
    forward nodes are shared between the loss terms."""
    fwds: dict[int, ForwardExample] = {}
    for ex in examples:
        if id(ex) not in fwds:
            h = encode(featurize_sparse(ex.tokens, vocab), params)
            fwds[id(ex)] = ForwardExample(ex, h, logits(h, params))
    return fwds


@dataclass
class LossBreakdown:
    l_p: float
    l_irm: float
    l_ocd: float
    total: float
    n_pairs_used: int


def prediction_loss(fwds: list[ForwardExample]) -> Node:
    """Mean cross-entropy over all examples of the step (both environments)."""
    if not fwds:
        raise ValueError("prediction loss over an empty batch")
    ces = [cross_entropy(f.z, f.label) for f in fwds]
    return scale(nsum(ces), 1.0 / len(ces))


def env_risk_omega_grad(fwds: list[ForwardExample], omega: Node | None = None) -> Node:
    """d/d omega of the environment risk at omega = 1.0, as a differentiable Node.

    The risk is the mean cross-entropy with every logit multiplied by the
    scalar omega. Returned as a Node built by a differentiable backward pass,
    so it can be squared and differentiated again w.r.t. the parameters.
    """
    if not fwds:
        raise ValueError("environment risk over an empty batch")
    if omega is None:
        omega = const(1.0)
    ces = [cross_entropy([mul(zk, omega) for zk in f.z], f.label) for f in fwds]
    risk = scale(nsum(ces), 1.0 / len(ces))
    return grad(risk, [omega], differentiable=True)[0]


def irm_penalty(env_fwds: dict[str, list[ForwardExample]]) -> Node:
    """Sum over environments of the squared omega-gradient of the risk. An
    environment without members adds nothing."""
    omega = const(1.0)
    squares = []
    for name in sorted(env_fwds):
        members = env_fwds[name]
        if not members:
            continue
        g = env_risk_omega_grad(members, omega)
        squares.append(mul(g, g))
    return nsum(squares)


def ocd_loss(pair_fwds: list[tuple[ForwardExample, ForwardExample]],
             params: ModelParams) -> tuple[Node, int]:
    """Mean squared distance between the two sides' orthogonal components.

    Each side is decomposed against its own gold label vector. Pairs whose
    label vector is degenerate are skipped; if every pair is skipped the term
    contributes 0 and a warning is logged.
    """
    dists = []
    for fa, fb in pair_fwds:
        try:
            da = decompose(fa.h, fa.label, params)
            db = decompose(fb.h, fb.label, params)
        except DegenerateLabelVector:
            continue
        diff = [sub(a, b) for a, b in zip(da.h_perp, db.h_perp)]
        dists.append(dot(diff, diff))
    if not dists:
        if pair_fwds:
            log.warning("all %d pairs skipped in the pair-alignment term (degenerate label vectors)",
                        len(pair_fwds))
        return const(0.0), 0
    return scale(nsum(dists), 1.0 / len(dists)), len(dists)


def combined_loss(batch: list[Example],
                  pairs: list[tuple[Example, Example]],
                  env_batches: dict[str, list[Example]],
                  params: ModelParams,
                  vocab: Vocab,
                  alpha: float,
                  beta: float) -> tuple[Node, LossBreakdown]:
    """total = L_P + alpha * L_IRM + beta * L_OCD over one step's batch.

    The prediction loss is a uniform mean over the whole batch. env_batches
    is consulted only when alpha > 0, pairs only when beta > 0; all example
    lists must reference the same Example objects as ``batch`` so the
    forward graph is shared. An environment absent from the batch adds
    nothing to L_IRM, and a batch without pairs has L_OCD = 0.
    """
    if alpha < 0.0 or beta < 0.0:
        raise ValueError("alpha and beta must be non-negative")
    everything = list(batch)
    if alpha > 0.0:
        for members in env_batches.values():
            everything.extend(members)
    if beta > 0.0:
        for a, b in pairs:
            everything.append(a)
            everything.append(b)
    fwds = forward_examples(everything, vocab, params)

    l_p = prediction_loss([fwds[id(ex)] for ex in batch])
    total = l_p
    l_irm_value = 0.0
    l_ocd_value = 0.0
    n_pairs_used = 0
    if alpha > 0.0:
        env_fwds = {name: [fwds[id(ex)] for ex in members]
                    for name, members in env_batches.items()}
        l_irm = irm_penalty(env_fwds)
        l_irm_value = l_irm.value
        total = add(total, scale(l_irm, alpha))
    if beta > 0.0:
        pair_fwds = [(fwds[id(a)], fwds[id(b)]) for a, b in pairs]
        l_ocd, n_pairs_used = ocd_loss(pair_fwds, params)
        l_ocd_value = l_ocd.value
        total = add(total, scale(l_ocd, beta))

    breakdown = LossBreakdown(
        l_p=l_p.value,
        l_irm=l_irm_value,
        l_ocd=l_ocd_value,
        total=total.value,
        n_pairs_used=n_pairs_used,
    )
    return total, breakdown


# ---------------------------------------------------------------------------
# closed form

_SIDE_SIGNS = np.array([1.0, -1.0])   # the sign of each side's share of u
# ndarray.sum without its Python wrapper: the same reduction, one call fewer
_sum = np.add.reduce


class Stack:
    """What every step of a stack needs from the stack alone, built once per
    stack: R runs, seed by seed with R / S of them for each of S seeds.

    params and grads hold the runs' arrays along a leading run axis (views
    into the rows of (R, n_params) matrices, which the optimizer updates in
    place, so the views here stay valid); the embedding views are split by
    seed. alpha and beta hold each run's non-negative weights; with them go
    2 * alpha, the runs with alpha == 0, whose invariance terms are set to
    0, and the runs with beta > 0 with their share of the pair-alignment
    gradient per pair count."""

    def __init__(self, params: Snapshot, grads: Snapshot, alpha: np.ndarray, beta: np.ndarray,
                 n_seeds: int):
        runs = len(alpha)
        self.n_classes = params.classifier.shape[1]
        self.runs_per_seed = runs // n_seeds
        # (seed, run of the seed): splitting the run axis never copies, so
        # these are views too
        self.by_seed = (n_seeds, self.runs_per_seed)
        self.embedding = params.embedding.reshape(self.by_seed + params.embedding.shape[1:])
        self.grad_embedding = grads.embedding.reshape(self.by_seed + grads.embedding.shape[1:])
        self.enc_bias = params.enc_bias[:, None]
        self.classifier_t = params.classifier.transpose(0, 2, 1)
        self.out_bias = params.out_bias[:, None]
        self.run_index = np.arange(runs)
        self.zeros = np.zeros(runs)
        self.alpha = alpha
        self.beta = beta
        self.irm = bool(alpha.any())
        self.alpha2 = alpha[:, None] * 2.0
        # where a run has alpha == 0 its invariance terms are replaced by 0
        self.irm_kept = None if alpha.all() else (alpha > 0.0)[:, None, None, None]
        # the weights are never negative
        self.weighted = beta.nonzero()[0]
        self.weighted_at = self.weighted[:, None, None]
        self._side_factors: dict[int, np.ndarray] = {}

    def side_factor(self, group: np.ndarray, m: int) -> np.ndarray:
        """2 * beta / m of each run of the group, times each side's sign (+
        for the originals, - for the counterfactuals), shaped to scale the
        group's (runs, 2, m, d) distances; kept per pair count m for the
        runs with beta > 0."""
        if group is not self.weighted:
            return _side_factor(self.beta[group], m)
        factor = self._side_factors.get(m)
        if factor is None:
            factor = self._side_factors[m] = _side_factor(self.beta[group], m)
        return factor


def _side_factor(beta: np.ndarray, m: int) -> np.ndarray:
    return np.multiply.outer(beta * 2.0 / m, _SIDE_SIGNS)[..., None, None]


class Batch(NamedTuple):
    """What a step needs from its batch alone, for every run of a stack of R
    runs over S seeds (built by training.batch_index). The seeds' batches
    agree in structure, so every position below holds for each seed's n
    rows; run r trains on seed r // (R / S)'s rows. The environments come
    in sorted name order, e_cad then e_ori, and G counts the runs with
    beta > 0."""
    rows: np.ndarray          # (S, n): each seed's rows of the feature matrix
    y: np.ndarray             # (R, n): each run's labels
    one_hot: np.ndarray       # (R, n, K): y == k, for each class k
    gold: np.ndarray          # (R, n): each label's logit in the flattened (R, n, K) logits
    env_blocks: list          # (E, m) positions of E non-empty environments of m members
    pairs: np.ndarray         # (m, 2): the (original, counterfactual) positions of each pair
    pair_labels: np.ndarray   # (G, 2, m): the labels of the pairs' two sides, for each run
    pair_rows: np.ndarray     # (G, 2, m): those sides' rows in the flattened (R * n) rows


def objective_and_grad(params: Snapshot, grads: Snapshot, x: np.ndarray, batch: Batch,
                       stack: Stack) -> list[LossBreakdown]:
    """combined_loss and its gradient in closed form, for one step of a
    stack's runs: only the arithmetic that reads the parameters. What
    depends only on the batch (labels, environments, pairs) comes in batch,
    and what depends only on the stack (weights, parameter views) in stack,
    built from these params and grads.

    The gradient is written into grads, and x holds each seed's (S, n, V)
    feature rows. A run whose weight is 0 gets exactly 0 for that term and
    no share of its gradient, even where the term is not finite. Returns one
    LossBreakdown per run; the values are those of combined_loss.

    Environments of one non-empty size take the invariance penalty in one
    set of array calls (one block), others one at a time; both paths add
    the same numbers in the same order.

    Every run's arithmetic is that of the run alone, in the same order: each
    matmul is one (seed, run) slice, and each sum runs over a C-ordered array
    (gathers use take or index every axis, whose result is C-ordered, where
    a slice before a fancy index would not be), so it adds as it does on the
    one run's arrays.
    """
    runs, n = batch.y.shape
    w = params.classifier
    xe = x[:, None] @ stack.embedding
    h = np.tanh(xe.reshape(runs, n, -1) + stack.enc_bias)
    z = h @ stack.classifier_t + stack.out_bias
    # the largest logit, class by class: exact, and cheaper than a reduction
    z_max = z[:, :, :1]
    for k in range(1, stack.n_classes):
        z_max = np.maximum(z_max, z[:, :, k:k + 1])
    e = np.exp(z - z_max)
    e_sum = _sum(e, axis=2, keepdims=True)
    p = e / e_sum
    z_y = z.take(batch.gold)
    ce = np.subtract((z_max + np.log(e_sum))[:, :, 0], z_y, order="C")
    l_p = _sum(ce, axis=1) * (1.0 / n)

    # dz: gradient of the total with respect to the logits; subtracting the
    # one-hot labels (True counts as 1.0) changes only the gold entries, exactly
    dz = (p - batch.one_hot) * (1.0 / n)

    total = l_p
    l_irm = stack.zeros
    if stack.irm:
        # g_e = mean_i(sum_k p_ik z_ik - z_iy), the omega-gradient of the risk
        # at 1, for every run; dz holds no -0.0, so adding 0.0 where a run
        # has alpha == 0 leaves it as it was
        z_bar = _sum(p * z, axis=2)
        per_example = z_bar - z_y
        dg = p * (1.0 + z - z_bar[:, :, None]) - batch.one_hot
        for idx in batch.env_blocks:
            m = idx.shape[1]
            g = _sum(per_example.take(idx, axis=1), axis=2) * (1.0 / m)
            step = dg.take(idx, axis=1) * (stack.alpha2 * g / m)[..., None, None]
            if stack.irm_kept is not None:
                step = np.where(stack.irm_kept, step, 0.0)
            # adds in index order: environment after environment
            np.add.at(dz, (slice(None), idx), step)
            for g_e in (g * g).T:
                l_irm = l_irm + g_e
        if stack.irm_kept is not None:
            l_irm = np.where(stack.irm_kept[:, 0, 0, 0], l_irm, 0.0)
        # l_p is never -0.0, so adding a term of weight 0 leaves it as it was
        total = total + stack.alpha * l_irm

    dh = dz @ w
    grads.classifier[...] = dz.transpose(0, 2, 1) @ h
    n_pairs_used = [0] * runs
    groups, q_k = _ocd_groups(w, batch, stack)
    l_ocd = stack.zeros
    if groups:
        l_ocd = np.zeros(runs)
        h_rows, dh_rows = h.reshape(runs * n, -1), dh.reshape(runs * n, -1)
    for group, at, used, labels, rows in groups:
        m = len(used)
        for r in group.tolist():
            n_pairs_used[r] = m
        if m == 0:
            if len(batch.pairs):
                log.warning("all %d pairs skipped in the pair-alignment term "
                            "(degenerate label vectors)", len(batch.pairs))
            continue
        # both sides at once along axis 1: the originals' rows, then the
        # counterfactuals'; each is decomposed against its own label vector
        h_s = h_rows.take(rows, axis=0)
        w_y = w[at, labels]
        q = q_k[at, labels]
        s = _sum(h_s * w_y, axis=3)
        h_perp = h_s - (s / q)[..., None] * w_y
        diff = h_perp[:, 0] - h_perp[:, 1]
        l_ocd[group] = _sum(diff * diff, axis=(1, 2)) * (1.0 / m)
        # u = dL/dh_perp of each side; back through h_perp = h - (h.w / w.w) w
        u = diff[:, None] * stack.side_factor(group, m)
        t = _sum(u * w_y, axis=3)
        dh_rows[rows] += u - (t / q)[..., None] * w_y
        dw = ((2.0 * s * t / (q * q))[..., None] * w_y
              - (t[..., None] * h_s + s[..., None] * u) / q[..., None])
        np.add.at(grads.classifier, (at, labels), dw)

    if groups:
        total = total + stack.beta * l_ocd
    _sum(dz, axis=1, out=grads.out_bias)
    da = dh * (1.0 - h * h)
    stack.grad_embedding[...] = x.transpose(0, 2, 1)[:, None] @ da.reshape(
        stack.by_seed + da.shape[1:])
    _sum(da, axis=1, out=grads.enc_bias)
    return [LossBreakdown(*values) for values in zip(
        l_p.tolist(), l_irm.tolist(), l_ocd.tolist(), total.tolist(), n_pairs_used)]


def _ocd_groups(w: np.ndarray, batch: Batch, stack: Stack) -> tuple[list[tuple], np.ndarray]:
    """(runs, their run indices shaped to index a (runs, 2, m) array, the
    pairs they use, those pairs' labels and rows as in Batch) for the
    pair-alignment term, and w_k . w_k of each run's classes. Each run with
    beta > 0 uses the pairs whose two label vectors are both above the
    degenerate norm; the runs that use every pair form one group, and each
    other run a group of its own."""
    weighted = stack.weighted
    if not len(weighted):
        return [], None
    q_k = _sum(w * w, axis=2)
    usable = q_k > DEGENERATE_NORM_EPS ** 2
    if usable.all():
        return [(weighted, stack.weighted_at, batch.pairs, batch.pair_labels,
                 batch.pair_rows)], q_k
    y, pairs = batch.y, batch.pairs
    ok = usable[stack.run_index[:, None, None], y[:, pairs]].all(axis=2)
    every = ok.all(axis=1)[weighted]
    chosen = [(weighted[every], pairs)] if every.any() else []
    chosen += [(np.array([r]), pairs[ok[r]]) for r in weighted[~every].tolist()]
    groups = []
    for group, used in chosen:
        at, sides = group[:, None, None], used.T
        groups.append((group, at, used, y[at, sides], at * y.shape[1] + sides))
    return groups, q_k
