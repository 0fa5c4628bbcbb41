import math
import random

import numpy as np
import pytest

from cadlab.autodiff import const, grad, finite_diff_check
from cadlab.data import (
    Example, GeneratorConfig, Vocab, generate_cad, partition_environments,
)
from cadlab.losses import (
    ForwardExample, LossBreakdown, combined_loss, env_risk_omega_grad,
    forward_examples, irm_penalty, ocd_loss, prediction_loss,
)
from cadlab.model import ModelConfig, ModelParams
from cadlab.training import TrainingLog


def _fwd_from_logits(logit_values, label):
    """ForwardExample with leaf logits, for logit-level loss tests."""
    ex = Example(id="x", tokens=("t",), label=label, pair_id="x", variant="original")
    z = [const(v) for v in logit_values]
    return ForwardExample(ex, h=[], z=z)


def _omega_grad_oracle(logit_rows, labels):
    """Closed form: mean over the batch of (sum_i p_i z_i - z_y)."""
    z = np.asarray(logit_rows, dtype=np.float64)
    zs = z - z.max(axis=1, keepdims=True)
    p = np.exp(zs)
    p /= p.sum(axis=1, keepdims=True)
    per_example = (p * z).sum(axis=1) - z[np.arange(len(labels)), labels]
    return per_example.mean()


def test_prediction_loss_values():
    f = _fwd_from_logits([0.0, 0.0], 0)
    assert prediction_loss([f]).value == pytest.approx(math.log(2.0), abs=1e-12)

    f = _fwd_from_logits([10.0, 0.0], 0)
    assert prediction_loss([f]).value == pytest.approx(math.log1p(math.exp(-10.0)), rel=1e-12)

    f1 = _fwd_from_logits([1.0, -0.5], 1)
    f2 = _fwd_from_logits([1.0, -0.5], 1)
    assert prediction_loss([f1, f2]).value == pytest.approx(prediction_loss([f1]).value, abs=1e-15)

    with pytest.raises(ValueError):
        prediction_loss([])


def test_env_risk_omega_grad_examples():
    g = env_risk_omega_grad([_fwd_from_logits([0.0, 0.0], 0)])
    assert g.value == pytest.approx(0.0, abs=1e-15)

    g = env_risk_omega_grad([_fwd_from_logits([1.0, 0.0], 0)])
    expected = math.e / (1.0 + math.e) - 1.0   # ~ -0.268941
    assert g.value == pytest.approx(expected, abs=1e-12)
    assert g.value == pytest.approx(-0.268941, abs=1e-6)

    # batch mean cancellation: mirrored margins give equal and opposite grads
    g = env_risk_omega_grad([
        _fwd_from_logits([1.0, 0.0], 0),
        _fwd_from_logits([0.0, 1.0], 0),
    ])
    g1 = _omega_grad_oracle([[1.0, 0.0]], [0])
    g2 = _omega_grad_oracle([[0.0, 1.0]], [0])
    assert g.value == pytest.approx((g1 + g2) / 2.0, abs=1e-12)

    with pytest.raises(ValueError):
        env_risk_omega_grad([])


def test_omega_grad_matches_closed_form_on_random_batches():
    rng = random.Random(101)
    for _ in range(100):
        n = rng.randrange(1, 9)
        k = rng.randrange(2, 5)
        rows = [[rng.uniform(-4.0, 4.0) for _ in range(k)] for _ in range(n)]
        labels = [rng.randrange(k) for _ in range(n)]
        fwds = [_fwd_from_logits(r, y) for r, y in zip(rows, labels)]
        g = env_risk_omega_grad(fwds)
        assert abs(g.value - _omega_grad_oracle(rows, labels)) < 1e-8


def test_omega_grad_matches_finite_difference_in_omega():
    # independent check of the differentiable-gradient path: perturb omega itself
    rng = random.Random(7)
    rows = [[rng.uniform(-3, 3) for _ in range(3)] for _ in range(5)]
    labels = [rng.randrange(3) for _ in range(5)]

    def risk_at(omega):
        total = 0.0
        for r, y in zip(rows, labels):
            z = np.array(r) * omega
            m = z.max()
            total += (m + math.log(np.exp(z - m).sum())) - z[y]
        return total / len(rows)

    eps = 1e-6
    numeric = (risk_at(1.0 + eps) - risk_at(1.0 - eps)) / (2 * eps)
    fwds = [_fwd_from_logits(r, y) for r, y in zip(rows, labels)]
    assert env_risk_omega_grad(fwds).value == pytest.approx(numeric, abs=1e-8)


def test_irm_penalty_values_and_symmetry():
    zero_env = [_fwd_from_logits([0.0, 0.0], 0)]
    assert irm_penalty({"e_ori": zero_env, "e_cad": zero_env}).value == pytest.approx(0.0, abs=1e-24)

    one = [_fwd_from_logits([1.0, 0.0], 0)]
    g = math.e / (1.0 + math.e) - 1.0
    pen = irm_penalty({"e_ori": one})
    assert pen.value == pytest.approx(g * g, abs=1e-12)
    assert pen.value == pytest.approx(0.072329, abs=1e-6)

    a = [_fwd_from_logits([0.7, -0.2], 0)]
    b = [_fwd_from_logits([-1.1, 0.4], 1)]
    p1 = irm_penalty({"e_ori": a, "e_cad": b})
    p2 = irm_penalty({"e_ori": b, "e_cad": a})
    assert p1.value == pytest.approx(p2.value, abs=1e-15)

    # an environment without members adds nothing
    assert irm_penalty({}).value == 0.0
    assert irm_penalty({"e_ori": []}).value == 0.0
    assert irm_penalty({"e_ori": one, "e_cad": []}).value == pen.value


def test_irm_penalty_nonnegative_random():
    rng = random.Random(11)
    for _ in range(100):
        envs = {}
        for name in ("e_ori", "e_cad"):
            envs[name] = [_fwd_from_logits([rng.uniform(-3, 3) for _ in range(2)], rng.randrange(2))
                          for _ in range(rng.randrange(1, 5))]
        assert irm_penalty(envs).value >= 0.0


def _pair_fwds_from_h(params, h_a, label_a, h_b, label_b):
    ex_a = Example(id="a", tokens=("t",), label=label_a, pair_id="p", variant="original")
    ex_b = Example(id="b", tokens=("t",), label=label_b, pair_id="p", variant="counterfactual")
    fa = ForwardExample(ex_a, h=[const(v) for v in h_a], z=[])
    fb = ForwardExample(ex_b, h=[const(v) for v in h_b], z=[])
    return [(fa, fb)]


def _params_with_classifier(rows):
    params = ModelParams(ModelConfig(vocab_size=3, n_classes=len(rows), embed_dim=len(rows[0])), seed=0)
    for prow, vals in zip(params.classifier, rows):
        for p, v in zip(prow, vals):
            p.value = float(v)
    return params


def test_ocd_loss_values():
    params = _params_with_classifier([[1.0, 0.0], [0.0, 1.0]])
    # identical perpendicular components -> 0
    pairs = _pair_fwds_from_h(params, [2.0, 3.0], 0, [5.0, 3.0], 0)
    loss, used = ocd_loss(pairs, params)
    assert used == 1
    assert loss.value == pytest.approx(0.0, abs=1e-15)

    # h_perp (0,1) vs (0,-1) -> squared distance 4
    pairs = _pair_fwds_from_h(params, [2.0, 1.0], 0, [0.5, -1.0], 0)
    loss, used = ocd_loss(pairs, params)
    assert loss.value == pytest.approx(4.0, abs=1e-12)

    # symmetry in the two sides
    pairs_swapped = _pair_fwds_from_h(params, [0.5, -1.0], 0, [2.0, 1.0], 0)
    assert ocd_loss(pairs_swapped, params)[0].value == pytest.approx(4.0, abs=1e-12)


def test_ocd_shift_invariance():
    rng = random.Random(12)
    params = _params_with_classifier([[0.6, -0.4, 1.1], [0.2, 0.9, -0.3]])
    for _ in range(50):
        ha = [rng.uniform(-2, 2) for _ in range(3)]
        hb = [rng.uniform(-2, 2) for _ in range(3)]
        lam = rng.uniform(-4, 4)
        base = ocd_loss(_pair_fwds_from_h(params, ha, 0, hb, 1), params)[0].value
        wy = [0.6, -0.4, 1.1]
        shifted = [v + lam * w for v, w in zip(ha, wy)]
        other = ocd_loss(_pair_fwds_from_h(params, shifted, 0, hb, 1), params)[0].value
        assert other == pytest.approx(base, abs=1e-9)
        assert base >= 0.0


def test_ocd_all_pairs_skipped(caplog):
    params = _params_with_classifier([[0.0, 0.0], [1.0, 0.0]])
    pairs = _pair_fwds_from_h(params, [1.0, 2.0], 0, [0.5, -1.0], 0)
    with caplog.at_level("WARNING"):
        loss, used = ocd_loss(pairs, params)
    assert used == 0
    assert loss.value == 0.0
    assert any("skipped" in rec.message for rec in caplog.records)

    # no pairs at all: silent zero
    loss, used = ocd_loss([], params)
    assert (loss.value, used) == (0.0, 0)


def test_loss_breakdown_arithmetic():
    b = LossBreakdown(l_p=0.5, l_irm=0.2, l_ocd=0.3, total=0.5 + 0.1 * 0.2 + 0.1 * 0.3,
                      n_pairs_used=4)
    assert b.total == pytest.approx(0.55, abs=1e-15)
    step_csv = TrainingLog(steps=[b] * 8).step_csv().splitlines()
    assert step_csv[0] == "step,l_p,l_irm,l_ocd,total,n_pairs_used"
    assert step_csv[-1].startswith("7,0.5,0.2,0.3,") and step_csv[-1].endswith(",4")


def _small_setup(seed=0, n_pairs=8, embed_dim=4):
    ds = generate_cad(GeneratorConfig(n_pairs=n_pairs, n_ood=4, sentence_length=8,
                                      tokens_per_group={"edited": 2, "nonedited": 2,
                                                        "correlated": 2, "noise": 3},
                                      seed=seed))
    examples = ds.train_examples()
    vocab = Vocab.from_examples(examples)
    params = ModelParams(ModelConfig(vocab_size=vocab.size, embed_dim=embed_dim), seed=seed)
    pairs = [(u.original, u.counterfactual) for u in ds.train_pairs]
    envs = partition_environments(examples, alpha=1.0)
    return ds, examples, vocab, params, pairs, envs


def test_combined_loss_reduces_to_prediction_loss():
    _, examples, vocab, params, pairs, envs = _small_setup()
    total, breakdown = combined_loss(examples, [], {}, params, vocab, 0.0, 0.0)
    fwds = forward_examples(examples, vocab, params)
    lp = prediction_loss([fwds[id(ex)] for ex in examples])
    assert total.value == lp.value
    assert breakdown.total == breakdown.l_p
    assert breakdown.l_irm == 0.0 and breakdown.l_ocd == 0.0


def test_combined_loss_accounting_invariant():
    _, examples, vocab, params, pairs, envs = _small_setup()
    total, b = combined_loss(examples, pairs, envs, params, vocab, 0.7, 0.25)
    assert b.total == pytest.approx(b.l_p + 0.7 * b.l_irm + 0.25 * b.l_ocd, abs=1e-12)
    assert b.l_irm >= 0.0 and b.l_ocd >= 0.0
    assert b.n_pairs_used == len(pairs)


def test_combined_loss_requirements():
    _, examples, vocab, params, pairs, envs = _small_setup()
    with pytest.raises(ValueError):
        combined_loss(examples, pairs, envs, params, vocab, -0.1, 0.0)
    # no environment or no pair in the batch: that term adds nothing
    _, b = combined_loss(examples, pairs, {}, params, vocab, 1.0, 0.0)
    assert b.l_irm == 0.0 and b.total == b.l_p
    _, b = combined_loss(examples, [], envs, params, vocab, 0.0, 0.1)
    assert b.l_ocd == 0.0 and b.n_pairs_used == 0 and b.total == b.l_p


def test_combined_loss_gradient_matches_finite_differences():
    """Analytic gradient of the full objective (including the second-order
    invariance path) against central differences on every parameter."""
    ds, examples, vocab, params, pairs, envs = _small_setup(seed=3, n_pairs=4)
    batch_pairs = ds.train_pairs[:4]
    batch = [m for u in batch_pairs for m in u.members()]
    step_pairs = [(u.original, u.counterfactual) for u in batch_pairs]
    step_envs = partition_environments(batch, alpha=0.1)

    cfg = params.config
    assert params.n_params() <= 1000

    def build(leaves):
        p2 = ModelParams.from_leaves(cfg, leaves)
        total, _ = combined_loss(batch, step_pairs, step_envs, p2, vocab, 0.1, 0.1)
        return total

    point = [p.value for p in params.flat()]
    err = finite_diff_check(build, point, 1e-4)
    assert err < 1e-4, f"max relative gradient error {err}"


def test_second_order_path_is_live():
    """The invariance penalty must backpropagate into the parameters through
    the omega-gradient, not treat it as a constant."""
    _, examples, vocab, params, pairs, envs = _small_setup(seed=5, n_pairs=4)
    batch = examples[:8]
    step_envs = partition_environments(batch, alpha=1.0)
    env_fwds = {name: [f for f in forward_examples(members, vocab, params).values()]
                for name, members in step_envs.items()}
    pen = irm_penalty(env_fwds)
    grads = grad(pen, params.flat())
    assert any(g != 0.0 for g in grads)
