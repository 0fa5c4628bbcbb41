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
    alpha: float
    beta: float
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
    """Sum over environments of the squared omega-gradient of the risk."""
    if not env_fwds:
        raise ValueError("invariance penalty needs at least one environment")
    omega = const(1.0)
    squares = []
    for name in sorted(env_fwds):
        members = env_fwds[name]
        if not members:
            raise ValueError(f"environment {name!r} is empty")
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
    forward graph is shared.
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
        if not env_batches:
            raise ValueError("alpha > 0 requires environment batches")
        env_fwds = {name: [fwds[id(ex)] for ex in members]
                    for name, members in env_batches.items()}
        l_irm = irm_penalty(env_fwds)
        l_irm_value = l_irm.value
        total = add(total, scale(l_irm, alpha))
    if beta > 0.0:
        if not pairs:
            raise ValueError("beta > 0 requires counterfactual pairs")
        pair_fwds = [(fwds[id(a)], fwds[id(b)]) for a, b in pairs]
        l_ocd, n_pairs_used = ocd_loss(pair_fwds, params)
        l_ocd_value = l_ocd.value
        total = add(total, scale(l_ocd, beta))

    breakdown = LossBreakdown(
        l_p=l_p.value,
        l_irm=l_irm_value,
        l_ocd=l_ocd_value,
        total=total.value,
        alpha=alpha,
        beta=beta,
        n_pairs_used=n_pairs_used,
    )
    return total, breakdown


# ---------------------------------------------------------------------------
# closed form

def objective_and_grad(params: Snapshot, grads: Snapshot, x: np.ndarray, y: np.ndarray,
                       envs: list[np.ndarray], pairs: np.ndarray,
                       alpha: float, beta: float) -> LossBreakdown:
    """combined_loss and its gradient in closed form, for one step.

    x holds the step's feature rows and y their labels. envs lists, in sorted
    environment-name order, the row positions of each environment; pairs is
    an (m, 2) array of the row positions of each (original, counterfactual)
    pair. The gradient is written into ``grads``, whose arrays are views into
    the gradient vector. Values and requirements are those of combined_loss.
    """
    if alpha < 0.0 or beta < 0.0:
        raise ValueError("alpha and beta must be non-negative")
    n = len(y)
    if n == 0:
        raise ValueError("prediction loss over an empty batch")
    rows = np.arange(n)
    w = params.classifier
    h1 = np.tanh(x @ params.embedding + params.enc_bias)
    h = h1 if params.hidden is None else np.tanh(h1 @ params.hidden.T + params.hidden_bias)
    z = h @ w.T + params.out_bias
    z_max = z.max(axis=1, keepdims=True)
    e = np.exp(z - z_max)
    e_sum = e.sum(axis=1, keepdims=True)
    p = e / e_sum
    ce = (z_max + np.log(e_sum))[:, 0] - z[rows, y]
    l_p = ce.sum() * (1.0 / n)
    total = l_p

    # dz: gradient of the total with respect to the logits
    dz = p.copy()
    dz[rows, y] -= 1.0
    dz *= 1.0 / n

    l_irm = 0.0
    if alpha > 0.0:
        if not envs:
            raise ValueError("alpha > 0 requires environment batches")
        # g_e = mean_i(sum_k p_ik z_ik - z_iy), the omega-gradient of the risk at 1
        z_bar = (p * z).sum(axis=1)
        per_example = z_bar - z[rows, y]
        dg = p * (1.0 + z - z_bar[:, None])
        dg[rows, y] -= 1.0
        squares = []
        for idx in envs:
            g = per_example[idx].sum() * (1.0 / len(idx))
            squares.append(g * g)
            np.add.at(dz, idx, dg[idx] * (alpha * 2.0 * g / len(idx)))
        l_irm = sum(squares)
        total = total + alpha * l_irm

    dh = dz @ w
    grads.classifier[...] = dz.T @ h
    l_ocd, n_pairs_used = 0.0, 0
    if beta > 0.0:
        if len(pairs) == 0:
            raise ValueError("beta > 0 requires counterfactual pairs")
        usable = (w * w).sum(axis=1) > DEGENERATE_NORM_EPS ** 2
        used = pairs[usable[y[pairs[:, 0]]] & usable[y[pairs[:, 1]]]]
        n_pairs_used = len(used)
        if n_pairs_used == 0:
            log.warning("all %d pairs skipped in the pair-alignment term (degenerate label vectors)",
                        len(pairs))
        else:
            sides = []
            for idx in (used[:, 0], used[:, 1]):
                w_y = w[y[idx]]
                q = (w_y * w_y).sum(axis=1)
                s = (h[idx] * w_y).sum(axis=1)
                sides.append((idx, w_y, q, s))
            h_perp = [h[idx] - (s / q)[:, None] * w_y for idx, w_y, q, s in sides]
            diff = h_perp[0] - h_perp[1]
            l_ocd = (diff * diff).sum() * (1.0 / n_pairs_used)
            total = total + beta * l_ocd
            # u = dL/dh_perp; back through h_perp = h - (h.w / w.w) w
            u_a = diff * (beta * 2.0 / n_pairs_used)
            for (idx, w_y, q, s), u in zip(sides, (u_a, -u_a)):
                t = (u * w_y).sum(axis=1)
                np.add.at(dh, idx, u - (t / q)[:, None] * w_y)
                dw = ((2.0 * s * t / (q * q))[:, None] * w_y
                      - (t[:, None] * h[idx] + s[:, None] * u) / q[:, None])
                np.add.at(grads.classifier, y[idx], dw)

    grads.out_bias[...] = dz.sum(axis=0)
    if params.hidden is not None:
        da = dh * (1.0 - h * h)
        grads.hidden[...] = da.T @ h1
        grads.hidden_bias[...] = da.sum(axis=0)
        dh = da @ params.hidden
    da = dh * (1.0 - h1 * h1)
    grads.embedding[...] = x.T @ da
    grads.enc_bias[...] = da.sum(axis=0)
    return LossBreakdown(l_p=float(l_p), l_irm=float(l_irm), l_ocd=float(l_ocd),
                         total=float(total), alpha=alpha, beta=beta,
                         n_pairs_used=n_pairs_used)
