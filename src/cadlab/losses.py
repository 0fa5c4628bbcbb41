"""The training objective: prediction loss, environment-invariance penalty,
and the orthogonal-component-distance penalty on counterfactual pairs.

The prediction loss is the mean cross-entropy over the whole batch. The
invariance penalty squares the gradient of each environment's risk with
respect to a scalar dummy classifier fixed at 1.0 that multiplies the logits.
The pair-alignment penalty is differentiated through both the
representations and the label vectors it projects them against.

Two implementations compute the same objective. ``objective_and_grad`` gives
the loss values and the full parameter gradient of one step in closed form
with numpy; training uses it. ``combined_loss`` builds the objective as a
scalar graph: a differentiable backward pass computes the invariance
gradient, so the penalty itself stays differentiable, and ``autodiff.grad``
then gives the parameter gradient. It is the reference that checks the
closed form.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass

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

    CSV_HEADER = "step,l_p,l_irm,l_ocd,total,n_pairs_used"

    def csv_row(self, step: int) -> str:
        return f"{step},{self.l_p!r},{self.l_irm!r},{self.l_ocd!r},{self.total!r},{self.n_pairs_used}"


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


def objective_and_grad(params: Snapshot, grads: Snapshot, x: np.ndarray, y: np.ndarray,
                       envs: list[np.ndarray], pairs: np.ndarray,
                       alpha: np.ndarray, beta: np.ndarray) -> list[LossBreakdown]:
    """combined_loss and its gradient in closed form, for one step of R runs
    over the batches of S seeds.

    params and grads hold the R runs' arrays along a leading run axis (views
    into the rows of (R, n_params) matrices); the gradient is written into
    grads. alpha and beta hold each run's non-negative weights. The runs come
    seed by seed, R / S of them per seed, and each trains on its seed's rows:
    x holds the (S, n, V) feature rows and y their (S, n) labels. The seeds'
    batches agree in structure, so envs lists, in sorted environment-name
    order, the row positions of each environment in every seed's rows, and
    pairs is an (m, 2) array of the row positions of each (original,
    counterfactual) pair. The model has no hidden layer. A run whose weight
    is 0 gets exactly 0 for that term and no share of its gradient, even
    where the term is not finite. Returns one LossBreakdown per run; the
    values are those of combined_loss.

    Every run's arithmetic is that of the run alone, in the same order: each
    matmul is one (seed, run) slice, and each sum runs over a C-ordered array
    (gathers along a later axis use take or index every axis, whose result
    is C-ordered, where a slice before a fancy index would not be), so it
    adds as it does on the one run's arrays.
    """
    n_seeds, n = y.shape
    if n == 0:
        raise ValueError("prediction loss over an empty batch")
    runs = len(alpha)
    w = params.classifier
    # each run's labels, and the (seed, run of the seed) view of the run axis
    by_seed = (n_seeds, runs // n_seeds)
    if runs > n_seeds:
        y = np.repeat(y, by_seed[1], axis=0)
    # subtracting the one-hot labels (True counts as 1.0) changes only the
    # gold entries, exactly
    one_hot = y[:, :, None] == np.arange(w.shape[1])
    xe = x[:, None] @ params.embedding.reshape(by_seed + params.embedding.shape[1:])
    h = np.tanh(xe.reshape(runs, n, -1) + params.enc_bias[:, None])
    z = h @ w.transpose(0, 2, 1) + params.out_bias[:, None]
    z_max = z.max(axis=2, keepdims=True)
    e = np.exp(z - z_max)
    e_sum = e.sum(axis=2, keepdims=True)
    p = e / e_sum
    z_y = z[np.arange(runs)[:, None], np.arange(n), y]
    ce = np.subtract((z_max + np.log(e_sum))[:, :, 0], z_y, order="C")
    l_p = ce.sum(axis=1) * (1.0 / n)

    # dz: gradient of the total with respect to the logits
    dz = (p - one_hot) * (1.0 / n)

    total = l_p
    l_irm = np.zeros(runs)
    weights = alpha.tolist()
    if any(weights):
        # g_e = mean_i(sum_k p_ik z_ik - z_iy), the omega-gradient of the risk
        # at 1, for every run; dz holds no -0.0, so adding 0.0 where a run
        # has alpha == 0 leaves it as it was
        masked = None if all(weights) else (alpha > 0.0)[:, None, None]
        z_bar = (p * z).sum(axis=2)
        per_example = z_bar - z_y
        dg = p * (1.0 + z - z_bar[:, :, None]) - one_hot
        alpha2 = alpha * 2.0
        squares = []
        for idx in envs:
            if not len(idx):
                continue
            g = per_example.take(idx, axis=1).sum(axis=1) * (1.0 / len(idx))
            squares.append(g * g)
            step = dg[:, idx] * (alpha2 * g / len(idx))[:, None, None]
            if masked is not None:
                step = np.where(masked, step, 0.0)
            np.add.at(dz, (slice(None), idx), step)
        l_irm = sum(squares, l_irm)
        if masked is not None:
            l_irm = np.where(masked[:, 0, 0], l_irm, 0.0)
        # l_p is never -0.0, so adding a term of weight 0 leaves it as it was
        total = total + alpha * l_irm

    dh = dz @ w
    grads.classifier[...] = dz.transpose(0, 2, 1) @ h
    l_ocd = np.zeros(runs)
    n_pairs_used = [0] * runs
    groups, q_k = _ocd_groups(w, y, pairs, beta)
    for group, used in groups:
        m = len(used)
        for r in group.tolist():
            n_pairs_used[r] = m
        if m == 0:
            if len(pairs):
                log.warning("all %d pairs skipped in the pair-alignment term "
                            "(degenerate label vectors)", len(pairs))
            continue
        # both sides at once along axis 1: the originals' rows, then the
        # counterfactuals'; each is decomposed against its own label vector
        at, sides = group[:, None, None], used.T
        labels = y[at, sides]
        w_y = w[at, labels]
        h_s = h[at, sides]
        q = q_k[at, labels]
        s = (h_s * w_y).sum(axis=3)
        h_perp = h_s - (s / q)[..., None] * w_y
        diff = h_perp[:, 0] - h_perp[:, 1]
        l_ocd[group] = (diff * diff).sum(axis=(1, 2)) * (1.0 / m)
        # u = dL/dh_perp of each side (+ for the originals, - for the
        # counterfactuals); back through h_perp = h - (h.w / w.w) w
        signed = np.multiply.outer(beta[group] * 2.0 / m, _SIDE_SIGNS)
        u = diff[:, None] * signed[..., None, None]
        t = (u * w_y).sum(axis=3)
        dh[at, sides] += u - (t / q)[..., None] * w_y
        dw = ((2.0 * s * t / (q * q))[..., None] * w_y
              - (t[..., None] * h_s + s[..., None] * u) / q[..., None])
        np.add.at(grads.classifier, (at, labels), dw)

    if groups:
        total = total + beta * l_ocd
    grads.out_bias[...] = dz.sum(axis=1)
    da = dh * (1.0 - h * h)
    grads.embedding[...] = (x.transpose(0, 2, 1)[:, None]
                            @ da.reshape(by_seed + da.shape[1:])).reshape(grads.embedding.shape)
    grads.enc_bias[...] = da.sum(axis=1)
    return [LossBreakdown(*values) for values in zip(
        l_p.tolist(), l_irm.tolist(), l_ocd.tolist(), total.tolist(), n_pairs_used)]


def _ocd_groups(w: np.ndarray, y: np.ndarray, pairs: np.ndarray,
                beta: np.ndarray) -> tuple[list[tuple[np.ndarray, np.ndarray]], np.ndarray]:
    """(runs, the pairs they use) for the pair-alignment term, and w_k . w_k
    of each run's classes. y holds each run's labels. Each run with beta > 0
    uses the pairs whose two label vectors are both above the degenerate
    norm; the runs that use every pair form one group, and each other run a
    group of its own."""
    # the weights are never negative
    weighted = beta.nonzero()[0]
    if not len(weighted):
        return [], None
    q_k = (w * w).sum(axis=2)
    usable = q_k > DEGENERATE_NORM_EPS ** 2
    if usable.all():
        return [(weighted, pairs)], q_k
    ok = usable[np.arange(len(beta))[:, None, None], y[:, pairs]].all(axis=2)
    every = ok.all(axis=1)[weighted]
    groups = [(weighted[every], pairs)] if every.any() else []
    groups += [(np.array([r]), pairs[ok[r]]) for r in weighted[~every].tolist()]
    return groups, q_k
