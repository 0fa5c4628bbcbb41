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
parameters: what depends only on its batch (each run's labels, their one-hot
and the step's pair count) comes in a ``Batch``, built for a whole epoch at
once, whose rows are side-major so that environments and pair sides are
slices; what depends only on the stack of runs (the weights, the parameter
and gradient views) comes in a ``Stack``, built once, its runs term-major
so that each weighted term reads one range of them. ``combined_loss``
builds the objective as a scalar graph: a differentiable backward pass
computes the invariance gradient, so the penalty itself stays
differentiable, and ``autodiff.grad`` then gives the parameter gradient. It
is the reference that checks the closed form, on the same model:
``ModelParams`` holds a ``Snapshot``'s parameters, laid out alike, as graph
leaves.
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

_SIDE_SIGNS = np.array([-1.0, 1.0])   # the sign of each side's share of u, side-major
_USABLE_NORM = DEGENERATE_NORM_EPS ** 2
# ndarray.sum without its Python wrapper: the same reduction, one call fewer
_sum = np.add.reduce


class Stack:
    """What every step of a stack needs from the stack alone, built once per
    stack: R runs, arm-major over S seeds (run r is arm r // S of seed r % S).

    params and grads hold the runs' arrays along a leading run axis (views
    into the rows of (R, n_params) matrices, which the optimizer updates in
    place, so the views here stay valid); the embedding views are split by
    arm and seed. alpha and beta hold each run's non-negative weights. irm
    and ocd are the ranges of runs with alpha > 0 and with beta > 0 (None if
    empty), which must be contiguous (training.train_arms sorts each seed's
    arms so), with 2 * alpha and 2 * beta of their runs; a step writes those
    runs' terms into l_irm and l_ocd, whose other runs stay 0."""

    def __init__(self, params: Snapshot, grads: Snapshot, alpha: np.ndarray, beta: np.ndarray,
                 n_seeds: int):
        runs = len(alpha)
        self.n_classes = params.classifier.shape[1]
        # (arm, seed): splitting the run axis never copies, so these are views too
        self.by_arm = (runs // n_seeds, n_seeds)
        self.embedding = params.embedding.reshape(self.by_arm + params.embedding.shape[1:])
        self.grad_embedding = grads.embedding.reshape(self.by_arm + grads.embedding.shape[1:])
        self.enc_bias = params.enc_bias[:, None]
        self.classifier_t = params.classifier.transpose(0, 2, 1)
        self.out_bias = params.out_bias[:, None]
        self.zeros = np.zeros(runs)
        self.alpha = alpha
        self.beta = beta
        self.irm, self.ocd = _weighted_runs(alpha), _weighted_runs(beta)
        self.l_irm, self.l_ocd = np.zeros(runs), np.zeros(runs)
        if self.irm is not None:
            self.alpha2 = alpha[self.irm, None] * 2.0
            self.l_irm_w = self.l_irm[self.irm]
        if self.ocd is not None:
            self.beta2 = beta[self.ocd] * 2.0
            self.l_ocd_w = self.l_ocd[self.ocd]


def _weighted_runs(weights: np.ndarray) -> slice | None:
    """The runs of weight > 0, a range of the run axis, or None if none."""
    hits = np.flatnonzero(weights > 0.0).tolist()
    if not hits:
        return None
    if hits[-1] - hits[0] >= len(hits):
        raise ValueError("the runs that weigh a term must lie side by side")
    return slice(hits[0], hits[-1] + 1)


def _over_classes(ufunc, a: np.ndarray) -> np.ndarray:
    """ufunc over a's last (class) axis at size 1, class by class: cheaper than a reduction."""
    out = a[..., :1]
    for k in range(1, a.shape[-1]):
        out = ufunc(out, a[..., k:k + 1])
    return out


def _at_label(a: np.ndarray, gold: np.ndarray) -> np.ndarray:
    """Each row's entry of a at its label (gold), class by class: exact, whatever the others."""
    out = a[..., 0]
    for k in range(1, a.shape[-1]):
        out = np.where(gold[..., k], a[..., k], out)
    return out


class Batch(NamedTuple):
    """What a step needs from its batch alone, for every run of a stack of R
    runs over S seeds (built by training.batch_index). Its n rows are
    side-major: [0, P) the counterfactuals of its P paired units, [P, 2P)
    those units' originals in the same order, [2P, n) its unpaired
    originals. So pair i is rows i and P + i, e_cad is rows [0, n_cad) and
    e_ori rows [P, n). The seeds' batches agree in structure, so this holds
    for each seed's rows; run r trains on seed r % S's rows (Stack)."""
    rows: np.ndarray          # (S, n): each seed's rows of the feature matrix
    y: np.ndarray             # (R, n): each run's labels
    one_hot: np.ndarray       # (R, n, K): 1.0 where y == k, else 0.0
    gold: np.ndarray          # (R, n, K): y == k
    n_pairs: int              # P
    n_cad: int                # P, or n with env_mode "overlap": e_cad holds every row


def _env_blocks(n: int, n_pairs: int, n_cad: int) -> list[tuple[int, int, int]]:
    """(first row, environments, rows of each) of each block of a step's
    non-empty environments, e_cad then e_ori: one block for both when they
    lie side by side at one size (fully paired, disjoint), else one each."""
    if n_cad == n_pairs and n == 2 * n_pairs:
        return [(0, 2, n_pairs)]
    return ([(0, 1, n_cad)] if n_cad else []) + [(n_pairs, 1, n - n_pairs)]


def objective_and_grad(params: Snapshot, grads: Snapshot, x: np.ndarray, batch: Batch,
                       stack: Stack) -> list[LossBreakdown]:
    """combined_loss's values (one LossBreakdown per run) and gradient, in
    closed form, for one step of a stack's runs: only the arithmetic that
    reads the parameters, given batch, and stack built from these params and
    grads. x holds each seed's (S, n, V) feature rows; the gradient goes into
    grads. Each weighted term is taken on its runs alone (stack.irm,
    stack.ocd), so a run whose weight is 0 gets exactly 0 for that term and
    no share of its gradient, even where the term is not finite.

    The rows are side-major (Batch), so environments and pair sides are
    slices: no gather, scatter or add.at. Label vectors, their norms and the
    classes' shares of the pair term come from one-hot matmuls, exact on the
    labels; pairs skipped for a degenerate label vector are masked. A run's
    arithmetic is that of the run alone (each matmul is one run's slice,
    each reduction runs along one run's contiguous axis), so step logs are
    reproducible bit for bit within a tree.
    """
    runs, n = batch.y.shape
    w = params.classifier
    xe = x[None] @ stack.embedding
    h = np.tanh(xe.reshape(runs, n, -1) + stack.enc_bias)
    hw = h @ stack.classifier_t
    z = hw + stack.out_bias
    # the largest logit, class by class: exact, and cheaper than a reduction
    z_max = _over_classes(np.maximum, z)
    e = np.exp(z - z_max)
    e_sum = _over_classes(np.add, e)
    p = e / e_sum
    z_y = _at_label(z, batch.gold)
    ce = (z_max + np.log(e_sum))[:, :, 0] - z_y
    l_p = _sum(ce, axis=1) * (1.0 / n)

    # dz: gradient of the total with respect to the logits; subtracting the
    # one-hot labels changes only the gold entries, exactly
    dz = (p - batch.one_hot) * (1.0 / n)

    total = l_p
    l_irm = stack.zeros
    if stack.irm is not None:
        # g_e = mean_i(sum_k p_ik z_ik - z_iy), the omega-gradient of the risk
        # at 1, taken for the runs of alpha > 0 (irm)
        irm, l_irm = stack.irm, stack.l_irm
        z_bar = _over_classes(np.add, p * z)
        per_example = z_bar[:, :, 0] - z_y
        dg = p * (1.0 + z - z_bar) - batch.one_hot
        stack.l_irm_w[...] = 0.0
        for first, count, m in _env_blocks(n, batch.n_pairs, batch.n_cad):
            last = first + count * m
            g = _sum(per_example[irm, first:last].reshape(-1, count, m), axis=2) * (1.0 / m)
            step = (dg[irm, first:last].reshape(g.shape + (m, -1))
                    * (stack.alpha2 * g / m)[..., None, None])
            # environment after environment: e_cad and e_ori overlap in overlap mode
            dz_block = dz[irm, first:last]
            dz_block += step.reshape(dz_block.shape)
            stack.l_irm_w += _sum(g * g, axis=1)
        # l_p is never -0.0, so adding a term of weight 0 leaves it as it was
        total = total + stack.alpha * l_irm

    dh = dz @ w
    grads.classifier[...] = dz.transpose(0, 2, 1) @ h
    l_ocd, n_pairs_used = stack.zeros, [0] * runs
    if stack.ocd is not None and batch.n_pairs:
        l_ocd = stack.l_ocd
        n_pairs_used[stack.ocd] = _pair_alignment(w, h, hw, dh, grads, batch, stack)
        total = total + stack.beta * l_ocd
    # the biases' gradients sum the rows, as a matmul: one gemv per run
    ones = np.ones((1, n))
    np.matmul(ones, dz, out=grads.out_bias[:, None])
    da = dh * (1.0 - h * h)
    stack.grad_embedding[...] = x.transpose(0, 2, 1) @ da.reshape(stack.by_arm + da.shape[1:])
    np.matmul(ones, da, out=grads.enc_bias[:, None])
    return [LossBreakdown(*values) for values in zip(
        l_p.tolist(), l_irm.tolist(), l_ocd.tolist(), total.tolist(), n_pairs_used)]


def _pair_alignment(w: np.ndarray, h: np.ndarray, hw: np.ndarray, dh: np.ndarray,
                    grads: Snapshot, batch: Batch, stack: Stack) -> list[int]:
    """The pairs used by each run with beta > 0 (stack.ocd), for a step with
    pairs: writes those runs' pair-alignment terms into stack.l_ocd and adds
    their gradient through beta into dh and grads.classifier. Reads those
    runs' first 2P rows: both sides of every pair, each against its label
    vector."""
    n_pairs, runs = batch.n_pairs, stack.ocd
    sides = slice(0, 2 * n_pairs)
    h_s, w = h[runs, sides], w[runs]
    by_side = h_s.shape[:-2] + (2, n_pairs)
    one_hot, gold = batch.one_hot[runs, sides], batch.gold[runs, sides]
    # each side's label vector w_y, its squared norm q and h . w_y, exactly
    w_y = one_hot @ w
    q_k = _sum(w * w, axis=-1)
    q = one_hot @ q_k[..., None]
    s = _at_label(hw[runs, sides], gold)[..., None]
    # the pairs whose two label vectors are both above the degenerate norm:
    # the rest are masked out of the same arithmetic
    masked = not np.minimum.reduce(q_k, axis=None) > _USABLE_NORM
    if masked:
        kept = np.logical_and.reduce(q.reshape(by_side) > _USABLE_NORM, axis=-2)
        counts = _sum(kept, axis=-1)
        used = counts > 0
        for _ in range(np.count_nonzero(~used)):
            log.warning("all %d pairs skipped in the pair-alignment term "
                        "(degenerate label vectors)", n_pairs)
        m = np.maximum(counts, 1)
        # a skipped pair divides by 1 rather than by a degenerate norm
        kept_rows = np.broadcast_to(kept[..., None, :], by_side).reshape(q.shape)
        q = np.where(kept_rows, q, 1.0)
    else:
        m = n_pairs
    c = s / q
    h_perp = h_s - c * w_y
    diff = h_perp[..., n_pairs:, :] - h_perp[..., :n_pairs, :]
    if masked:
        diff = np.where(kept[..., None], diff, 0.0)
    np.multiply(_sum(diff * diff, axis=(-2, -1)), 1.0 / m, out=stack.l_ocd_w)
    # u = dL/dh_perp of each side (+-2 beta / m times diff), back through
    # h_perp = h - c w_y with c = h . w_y / q: with tau = u . w_y / q, dh =
    # u - tau w_y and dw_y = -(c dh + tau h_perp), summed per class
    u = (diff[..., None, :, :] * np.multiply.outer(stack.beta2 / m, _SIDE_SIGNS)[
        ..., None, None]).reshape(h_s.shape)
    tau = (u[..., None, :] @ w_y[..., None])[..., 0] / q
    dh_pair = u - tau * w_y
    dw = c * dh_pair + tau * h_perp
    dw_class = one_hot.swapaxes(-1, -2) @ dw
    dh_s, classifier = dh[runs, sides], grads.classifier[runs]
    if masked:
        np.add(dh_s, dh_pair, out=dh_s, where=kept_rows)
        np.subtract(classifier, dw_class, out=classifier, where=used[..., None, None])
    else:
        dh_s += dh_pair
        classifier -= dw_class
    return counts.tolist() if masked else [n_pairs] * len(w)
