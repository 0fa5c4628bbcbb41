import logging
import math
import pickle
import random

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from cadlab import training
from cadlab.autodiff import const, grad, nsum, scale
from cadlab.data import (
    EmptyEnvironmentError, GeneratorConfig, PairedExample, Vocab, featurize_matrix,
    generate_cad, partition_environments,
)
from cadlab.evaluation import evaluate
from cadlab.losses import combined_loss, objective_and_grad
from cadlab.model import ModelConfig, ModelParams, Snapshot, cross_entropy, encode, logits
from cadlab.data import featurize_sparse
from cadlab.training import (
    AdamState, Checkpoint, NonFiniteLossError, TrainConfig, adam_step, batch_rows,
    make_batches, sgd_step, train,
)

# closed form vs scalar autodiff: |difference| <= TOL * max(1, |reference|)
TOL = 1e-12


def _dataset(n_pairs=20, seed=0, **kw):
    return generate_cad(GeneratorConfig(n_pairs=n_pairs, n_ood=10, seed=seed, **kw))


def test_make_batches_partition_sizes():
    ds = _dataset(n_pairs=10)
    batches = make_batches(ds.train_pairs, 4, seed=1, epoch=0)
    assert [len(b) for b in batches] == [4, 4, 2]
    seen = {u.original.id for b in batches for u in b}
    assert len(seen) == 10


def test_make_batches_deterministic_and_epoch_varying():
    ds = _dataset(n_pairs=12)
    b1 = make_batches(ds.train_pairs, 5, seed=7, epoch=3)
    b2 = make_batches(ds.train_pairs, 5, seed=7, epoch=3)
    assert [[u.original.id for u in b] for b in b1] == [[u.original.id for u in b] for b in b2]
    b3 = make_batches(ds.train_pairs, 5, seed=7, epoch=4)
    assert [[u.original.id for u in b] for b in b1] != [[u.original.id for u in b] for b in b3]


def test_make_batches_whole_pairs():
    ds = _dataset(n_pairs=9)
    for batch in make_batches(ds.train_pairs, 4, seed=2, epoch=1):
        originals = [u.original for u in batch]
        counterfactuals = [u.counterfactual for u in batch]
        assert len(originals) == len(counterfactuals)
        assert all(c is not None for c in counterfactuals)


def test_adam_zero_gradient_keeps_params():
    params = [const(1.5), const(-0.5)]
    state = AdamState.zeros(2)
    adam_step(params, [0.0, 0.0], state, lr=0.1)
    assert [p.value for p in params] == [1.5, -0.5]
    assert state.t == 1


def test_adam_first_step_is_normalized():
    # after bias correction, m_hat/sqrt(v_hat) = g/|g| so the first update is
    # about -lr in the gradient direction
    for g in (0.3, -2.0, 1e-3):
        p = [const(0.0)]
        state = AdamState.zeros(1)
        adam_step(p, [g], state, lr=0.01)
        expected = -0.01 * g / (math.sqrt(g * g) + 1e-8)
        assert p[0].value == pytest.approx(expected, rel=1e-12)
        assert abs(p[0].value) == pytest.approx(0.01, rel=1e-4)


def test_adam_equal_gradients_equal_updates():
    p = [const(1.0), const(2.0)]
    state = AdamState.zeros(2)
    adam_step(p, [0.7, 0.7], state, lr=0.05)
    d0 = p[0].value - 1.0
    d1 = p[1].value - 2.0
    assert d0 == d1


def test_adam_state_dimension_check():
    with pytest.raises(ValueError):
        adam_step([const(0.0)], [1.0, 2.0], AdamState.zeros(1), lr=0.1)


def test_sgd_step():
    p = [const(1.0)]
    sgd_step(p, [0.5], lr=0.2)
    assert p[0].value == pytest.approx(0.9, abs=1e-15)


def test_train_config_validation():
    with pytest.raises(ValueError):
        TrainConfig(learning_rate=0.0)
    with pytest.raises(ValueError):
        TrainConfig(epochs=0)
    with pytest.raises(ValueError):
        TrainConfig(optimizer="rmsprop")
    with pytest.raises(ValueError):
        TrainConfig(env_mode="both")
    with pytest.raises(ValueError):
        TrainConfig(embed_dim=0)
    with pytest.raises(ValueError):
        TrainConfig(n_classes=0)
    with pytest.raises(ValueError):
        TrainConfig.from_dict({"alpha": 0.1, "bogus": 2})
    cfg = TrainConfig.from_dict(TrainConfig(alpha=0.3).to_dict())
    assert cfg.alpha == 0.3


def test_training_is_deterministic():
    ds = _dataset(n_pairs=16)
    cfg = TrainConfig(alpha=0.5, beta=0.1, epochs=2, batch_pairs=4, seed=11, embed_dim=4)
    ck1, log1 = train(cfg, ds.train_pairs)
    ck2, log2 = train(cfg, ds.train_pairs)
    assert log1.step_csv() == log2.step_csv()
    assert log1.epoch_csv() == log2.epoch_csv()
    assert ck1.snapshot.embedding.tolist() == ck2.snapshot.embedding.tolist()


def test_training_logs_account_for_components():
    ds = _dataset(n_pairs=12)
    cfg = TrainConfig(alpha=0.8, beta=0.2, epochs=1, batch_pairs=5, seed=3, embed_dim=4)
    _, log = train(cfg, ds.train_pairs)
    for b in log.steps:
        assert b.total == pytest.approx(b.l_p + cfg.alpha * b.l_irm + cfg.beta * b.l_ocd, abs=1e-12)
        assert b.l_irm >= 0.0 and b.l_ocd >= 0.0
        assert b.n_pairs_used == 5 or b.n_pairs_used == 2  # final short batch


def test_erm_reduction_small():
    """alpha=beta=0 must match a plain cross-entropy loop step for step."""
    ds = _dataset(n_pairs=10, seed=4)
    cfg = TrainConfig(alpha=0.0, beta=0.0, epochs=2, batch_pairs=4, seed=9, embed_dim=4)
    _, log = train(cfg, ds.train_pairs)

    # reference loop: same init, same batch order, straight-line CE only
    vocab = Vocab.from_examples(ds.train_examples())
    params = ModelParams(ModelConfig(vocab_size=vocab.size, embed_dim=4), seed=9)
    flat = params.flat()
    state = AdamState.zeros(len(flat))
    ref_losses = []
    for epoch in range(cfg.epochs):
        for batch in make_batches(ds.train_pairs, cfg.batch_pairs, cfg.seed, epoch):
            members = [m for u in batch for m in u.members()]
            ces = []
            for ex in members:
                h = encode(featurize_sparse(ex.tokens, vocab), params)
                ces.append(cross_entropy(logits(h, params), ex.label))
            loss = scale(nsum(ces), 1.0 / len(ces))
            ref_losses.append(loss.value)
            grads = grad(loss, flat)
            adam_step(flat, grads, state, cfg.learning_rate)
    assert len(ref_losses) == len(log.steps)
    for ref, got in zip(ref_losses, log.steps):
        assert abs(ref - got.total) <= 1e-12


def test_checkpoint_rule_prefers_best_then_earliest():
    ds = _dataset(n_pairs=16, seed=6)
    cfg = TrainConfig(alpha=0.0, beta=0.0, epochs=5, batch_pairs=4, seed=2, embed_dim=4)
    ck, log = train(cfg, ds.train_pairs)
    accs = [e.train_accuracy for e in log.epochs]
    assert ck.train_accuracy == max(accs)
    assert ck.epoch == accs.index(max(accs))  # earliest among ties


def test_train_requires_pairs_for_beta():
    ds = _dataset(n_pairs=6)
    singles = [PairedExample(u.original, None) for u in ds.train_pairs]
    cfg = TrainConfig(alpha=0.0, beta=0.1, epochs=1, batch_pairs=2, seed=1, embed_dim=4)
    with pytest.raises(ValueError):
        train(cfg, singles)


def test_train_requires_both_envs_for_alpha():
    ds = _dataset(n_pairs=6)
    singles = [PairedExample(u.original, None) for u in ds.train_pairs]
    cfg = TrainConfig(alpha=0.5, beta=0.0, epochs=1, batch_pairs=2, seed=1, embed_dim=4)
    with pytest.raises(EmptyEnvironmentError):
        train(cfg, singles)
    # ERM on unpaired originals is fine
    cfg = TrainConfig(alpha=0.0, beta=0.0, epochs=1, batch_pairs=2, seed=1, embed_dim=4)
    ck, _ = train(cfg, singles)
    assert isinstance(ck, Checkpoint)


def test_non_finite_abort_diagnostic():
    ds = _dataset(n_pairs=8)
    # Adam's first bias-corrected step jumps to ~lr, so an absurd rate pushes
    # the logits past the f64 ceiling within a step or two
    cfg = TrainConfig(alpha=0.0, beta=0.0, epochs=5, batch_pairs=4, seed=1,
                      embed_dim=4, learning_rate=1e307)
    with pytest.raises(NonFiniteLossError) as exc:
        train(cfg, ds.train_pairs)
    assert exc.value.component in ("l_p", "l_irm", "l_ocd", "total")
    assert exc.value.step >= 0
    # a runner's worker process sends the error to its parent pickled
    again = pickle.loads(pickle.dumps(exc.value))
    assert type(again) is NonFiniteLossError and str(again) == str(exc.value)
    assert (again.step, again.component, again.value) == (
        exc.value.step, exc.value.component, exc.value.value)


# ---------------------------------------------------------------------------
# the closed-form step against the scalar autodiff reference

def _close(got, ref) -> bool:
    return abs(got - ref) <= TOL * max(1.0, abs(ref))


def _assert_breakdowns_match(got, ref):
    for name in ("l_p", "l_irm", "l_ocd", "total"):
        assert _close(getattr(got, name), getattr(ref, name)), name
    assert got.n_pairs_used == ref.n_pairs_used


def _step_both_ways(units, params, vocab, alpha, beta, env_mode):
    """One step's loss breakdown and gradient from combined_loss plus
    autodiff.grad, and from objective_and_grad on the same batch."""
    batch, env_rows, pair_rows = batch_rows(units, alpha, env_mode)
    envs = partition_environments(batch, alpha, env_mode) if alpha > 0.0 else {}
    pairs = [(u.original, u.counterfactual) for u in units if u.counterfactual is not None]
    total, ref = combined_loss(batch, pairs, envs, params, vocab, alpha, beta)
    ref_grad = np.array(grad(total, params.flat()))
    theta = np.array([p.value for p in params.flat()])
    got_grad = np.zeros_like(theta)
    got = objective_and_grad(
        Snapshot.from_flat(params.config, theta), Snapshot.from_flat(params.config, got_grad),
        featurize_matrix(batch, vocab), np.array([ex.label for ex in batch]),
        env_rows, pair_rows, alpha, beta)
    return ref, ref_grad, got, got_grad


def _assert_grads_match(got_grad, ref_grad):
    worst = np.abs(got_grad - ref_grad).max()
    assert worst <= TOL * max(1.0, np.abs(ref_grad).max()), worst


@settings(max_examples=80, deadline=None)
@given(seed=st.integers(0, 2 ** 20), n_classes=st.sampled_from([2, 3]),
       use_hidden=st.booleans(), env_mode=st.sampled_from(["disjoint", "overlap"]),
       alpha=st.sampled_from([0.0, 0.4, 1.6]), beta=st.sampled_from([0.0, 0.1, 2.0]),
       n_paired=st.integers(1, 4), n_unpaired=st.integers(0, 3),
       spread=st.floats(0.05, 1.5), degenerate_class=st.sampled_from([None, 0, 1]))
def test_closed_form_step_matches_autodiff(seed, n_classes, use_hidden, env_mode, alpha, beta,
                                           n_paired, n_unpaired, spread, degenerate_class):
    rng = random.Random(seed)
    ds = generate_cad(GeneratorConfig(n_pairs=8, n_ood=2, n_classes=n_classes,
                                      sentence_length=7, seed=seed))
    chosen = rng.sample(ds.train_pairs, n_paired + n_unpaired)
    units = chosen[:n_paired] + [PairedExample(u.original, None) for u in chosen[n_paired:]]
    rng.shuffle(units)
    vocab = Vocab.from_examples([m for u in ds.train_pairs for m in u.members()])
    params = ModelParams(ModelConfig(vocab_size=vocab.size, n_classes=n_classes,
                                     embed_dim=3, use_hidden=use_hidden), seed=seed)
    for p in params.flat():
        p.value = rng.uniform(-spread, spread)
    if degenerate_class is not None:
        for p in params.classifier[degenerate_class]:
            p.value = 0.0

    ref, ref_grad, got, got_grad = _step_both_ways(
        units, params, vocab, alpha, beta, env_mode)
    _assert_breakdowns_match(got, ref)
    _assert_grads_match(got_grad, ref_grad)


def test_closed_form_step_skips_degenerate_pairs_like_reference(caplog):
    ds = _dataset(n_pairs=6, seed=2)
    vocab = Vocab.from_examples(ds.train_examples())
    params = ModelParams(ModelConfig(vocab_size=vocab.size, embed_dim=4), seed=3)
    for p in params.classifier[1]:
        p.value = 0.0               # every pair has one class-1 member
    with caplog.at_level(logging.WARNING, logger="cadlab.losses"):
        ref, ref_grad, got, got_grad = _step_both_ways(
            ds.train_pairs, params, vocab, 1.6, 0.1, "disjoint")
    assert ref.n_pairs_used == got.n_pairs_used == 0
    assert ref.l_ocd == got.l_ocd == 0.0
    _assert_breakdowns_match(got, ref)
    _assert_grads_match(got_grad, ref_grad)
    warnings = [r.getMessage() for r in caplog.records if "pairs skipped" in r.getMessage()]
    assert len(warnings) == 2 and warnings[0] == warnings[1]


def _reference_train(cfg, pairs):
    """The scalar reference loop: combined_loss, autodiff.grad and the
    list-based optimizer steps, with a snapshot after every epoch."""
    vocab = Vocab.from_examples([m for u in pairs for m in u.members()])
    params = ModelParams(ModelConfig(vocab_size=vocab.size, n_classes=cfg.n_classes,
                                     embed_dim=cfg.embed_dim, use_hidden=cfg.use_hidden),
                         seed=cfg.seed)
    flat = params.flat()
    state = AdamState.zeros(len(flat))
    steps, snapshots = [], []
    for epoch in range(cfg.epochs):
        for batch in make_batches(pairs, cfg.batch_pairs, cfg.seed, epoch):
            members = [m for u in batch for m in u.members()]
            envs = partition_environments(members, cfg.alpha, cfg.env_mode) if cfg.alpha > 0.0 else {}
            step_pairs = [(u.original, u.counterfactual) for u in batch
                          if u.counterfactual is not None]
            total, breakdown = combined_loss(
                members, step_pairs, envs, params, vocab, cfg.alpha, cfg.beta)
            grads = grad(total, flat)
            if cfg.optimizer == "adam":
                adam_step(flat, grads, state, cfg.learning_rate)
            else:
                sgd_step(flat, grads, cfg.learning_rate)
            steps.append(breakdown)
        snapshots.append(params.snapshot())
    return vocab, steps, snapshots


def _snapshot_vector(snap):
    parts = [snap.embedding, snap.enc_bias, snap.hidden, snap.hidden_bias,
             snap.classifier, snap.out_bias]
    return np.concatenate([a.ravel() for a in parts if a is not None])


@pytest.mark.parametrize("changes", [
    {},
    {"optimizer": "sgd", "learning_rate": 0.5},
    {"use_hidden": True},
    {"env_mode": "overlap"},
    {"beta": 2.0},
    {"n_classes": 3},
], ids=lambda c: ",".join(f"{k}={v}" for k, v in c.items()) or "default")
def test_train_matches_scalar_reference_loop(changes):
    """train() on the closed-form path follows the scalar reference step for
    step on the full objective, and keeps the same checkpoint."""
    n_classes = changes.get("n_classes", 2)
    ds = generate_cad(GeneratorConfig(n_pairs=14, n_ood=2, n_classes=n_classes, seed=21))
    train_part = ds.train_pairs[:10]
    cfg = TrainConfig(**{"alpha": 1.6, "beta": 0.1, "learning_rate": 0.05, "epochs": 3,
                         "batch_pairs": 4, "seed": 4, "embed_dim": 4, **changes})
    ck, log = train(cfg, train_part)

    vocab, ref_steps, ref_snaps = _reference_train(cfg, train_part)
    assert len(log.steps) == len(ref_steps)
    for got, ref in zip(log.steps, ref_steps):
        _assert_breakdowns_match(got, ref)
    train_examples = [m for u in train_part for m in u.members()]
    for summary, snap in zip(log.epochs, ref_snaps):
        assert summary.train_accuracy == evaluate(snap, train_examples, vocab).accuracy
    accs = [e.train_accuracy for e in log.epochs]
    assert ck.epoch == accs.index(max(accs))
    got_vec = _snapshot_vector(ck.snapshot)
    ref_vec = _snapshot_vector(ref_snaps[ck.epoch])
    assert np.abs(got_vec - ref_vec).max() <= TOL * max(1.0, np.abs(ref_vec).max())


@pytest.mark.parametrize("component, poison, optimizer, lr", [
    ("grad", float("nan"), "adam", 1e-3),
    ("params", 1e300, "sgd", 1e10),    # a finite gradient whose update overflows
])
def test_non_finite_grad_or_params_abort(monkeypatch, component, poison, optimizer, lr):
    real = training.objective_and_grad

    def poisoned(params, grads, *args, **kwargs):
        breakdown = real(params, grads, *args, **kwargs)
        grads.enc_bias[0] = poison
        return breakdown

    monkeypatch.setattr(training, "objective_and_grad", poisoned)
    ds = _dataset(n_pairs=8)
    cfg = TrainConfig(alpha=1.6, beta=0.1, epochs=1, batch_pairs=4, seed=1, embed_dim=4,
                      optimizer=optimizer, learning_rate=lr)
    with pytest.raises(NonFiniteLossError) as exc:
        train(cfg, ds.train_pairs)
    assert exc.value.component == component
    assert exc.value.step == 0
