import logging
import math
import pickle
import random
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from cadlab import training
from cadlab.autodiff import const, grad, nsum, scale
from cadlab.data import (
    ENV_COUNTERFACTUAL, ENV_ORIGINAL, EmptyEnvironmentError, GeneratorConfig, PairedExample,
    Vocab, featurize_matrix, generate_cad, partition_environments,
)
from cadlab.evaluation import evaluate
from cadlab.losses import combined_loss, objective_and_grad
from cadlab.model import (
    ModelConfig, ModelParams, Snapshot, cross_entropy, encode, initial_values, logits,
)
from cadlab.data import featurize_sparse
from cadlab.training import (
    AdamState, Checkpoint, NonFiniteLossError, TrainConfig, adam_step, batch_index,
    environment_masks, make_batches, train, train_arms, unit_rows,
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


def test_train_config_validation():
    with pytest.raises(ValueError):
        TrainConfig(learning_rate=0.0)
    with pytest.raises(ValueError):
        TrainConfig(epochs=0)
    for optimizer in ("rmsprop", "sgd"):
        with pytest.raises(ValueError):
            TrainConfig(optimizer=optimizer)
    with pytest.raises(ValueError):
        TrainConfig(env_mode="both")
    with pytest.raises(ValueError):
        TrainConfig(embed_dim=0)
    with pytest.raises(ValueError, match=r"unknown train config keys: \['bogus'\]"):
        TrainConfig.from_dict({"alpha": 0.1, "bogus": 2})
    # the class count comes from the training labels
    with pytest.raises(ValueError, match=r"unknown train config keys: \['n_classes'\]"):
        TrainConfig.from_dict({"n_classes": 3})
    for bad in ({"alpha": math.nan}, {"beta": math.inf}, {"learning_rate": math.nan},
                {"batch_pairs": 2.5}, {"epochs": True}, {"seed": "1"}):
        with pytest.raises(ValueError, match="must be an int|must be a finite"):
            TrainConfig.from_dict(bad)
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


def _batch_environments(members, alpha, env_mode):
    """The environments of a batch's examples as partition_environments forms
    them, with an environment absent from the batch left empty; none when
    alpha == 0."""
    if alpha == 0.0:
        return {}
    envs = partition_environments(members, 0.0, env_mode)
    return {name: envs.get(name, []) for name in (ENV_ORIGINAL, ENV_COUNTERFACTUAL)}


def _step_both_ways(units, batch, params, vocab, alpha, beta, env_mode):
    """One step on the units at the indices in batch: the loss breakdown and
    gradient from the batch's environments, combined_loss and autodiff.grad,
    and from objective_and_grad on the rows, environment positions and pair
    positions that train gathers with batch_index."""
    chosen = [units[i] for i in batch]
    members = [m for u in chosen for m in u.members()]
    envs = _batch_environments(members, alpha, env_mode)
    pairs = [(u.original, u.counterfactual) for u in chosen if u.counterfactual is not None]
    total, ref = combined_loss(members, pairs, envs, params, vocab, alpha, beta)
    ref_grad = np.array(grad(total, params.flat()))

    examples = [m for u in units for m in u.members()]
    rows, env_rows, pair_rows = batch_index(
        unit_rows(units), environment_masks(examples, alpha, env_mode), np.array([batch]))
    theta = np.array([[p.value for p in params.flat()]])
    got_grad = np.zeros_like(theta)
    [got] = objective_and_grad(
        Snapshot.from_flat(params.config, theta), Snapshot.from_flat(params.config, got_grad),
        featurize_matrix(examples, vocab)[rows], np.array([ex.label for ex in examples])[rows],
        env_rows, pair_rows, np.array([alpha]), np.array([beta]))
    return ref, ref_grad, got, got_grad[0]


def _assert_grads_match(got_grad, ref_grad):
    worst = np.abs(got_grad - ref_grad).max()
    assert worst <= TOL * max(1.0, np.abs(ref_grad).max()), worst


@settings(max_examples=80, deadline=None)
@given(seed=st.integers(0, 2 ** 20), n_classes=st.sampled_from([2, 3]),
       env_mode=st.sampled_from(["disjoint", "overlap"]),
       alpha=st.sampled_from([0.0, 0.4, 1.6]), beta=st.sampled_from([0.0, 0.1, 2.0]),
       n_paired=st.integers(0, 4), n_unpaired=st.integers(0, 3),
       spread=st.floats(0.05, 1.5), degenerate_class=st.sampled_from([None, 0, 1]))
def test_closed_form_step_matches_autodiff(seed, n_classes, env_mode, alpha, beta,
                                           n_paired, n_unpaired, spread, degenerate_class):
    assume(n_paired + n_unpaired > 0)
    rng = random.Random(seed)
    ds = generate_cad(GeneratorConfig(n_pairs=8, n_ood=2, n_classes=n_classes,
                                      sentence_length=7, seed=seed))
    # the batch: n_paired paired and n_unpaired unpaired units, shuffled, out
    # of a training set whose other units are paired or not at random, except
    # the first of them, which stays paired so that the set has both environments
    batch = rng.sample(range(8), n_paired + n_unpaired)
    others = [i for i in range(8) if i not in batch]
    unpaired = set(batch[n_paired:]) | {i for i in others[1:] if rng.random() < 0.5}
    units = [PairedExample(u.original, None) if i in unpaired else u
             for i, u in enumerate(ds.train_pairs)]
    rng.shuffle(batch)
    vocab = Vocab.from_examples([m for u in ds.train_pairs for m in u.members()])
    params = ModelParams(ModelConfig(vocab_size=vocab.size, n_classes=n_classes, embed_dim=3),
                         seed=seed)
    for p in params.flat():
        p.value = rng.uniform(-spread, spread)
    if degenerate_class is not None:
        for p in params.classifier[degenerate_class]:
            p.value = 0.0

    ref, ref_grad, got, got_grad = _step_both_ways(
        units, batch, params, vocab, alpha, beta, env_mode)
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
            ds.train_pairs, [4, 1, 3, 0, 5, 2], params, vocab, 1.6, 0.1, "disjoint")
    assert ref.n_pairs_used == got.n_pairs_used == 0
    assert ref.l_ocd == got.l_ocd == 0.0
    _assert_breakdowns_match(got, ref)
    _assert_grads_match(got_grad, ref_grad)
    warnings = [r.getMessage() for r in caplog.records if "pairs skipped" in r.getMessage()]
    assert len(warnings) == 2 and warnings[0] == warnings[1]


def _reference_train(cfg, pairs):
    """The scalar reference loop: combined_loss, autodiff.grad and the
    list-based Adam step, with a snapshot after every epoch. The model has
    one class per label value up to the largest training label."""
    examples = [m for u in pairs for m in u.members()]
    vocab = Vocab.from_examples(examples)
    n_classes = max(ex.label for ex in examples) + 1
    params = ModelParams(ModelConfig(vocab_size=vocab.size, n_classes=n_classes,
                                     embed_dim=cfg.embed_dim), seed=cfg.seed)
    flat = params.flat()
    state = AdamState.zeros(len(flat))
    steps, snapshots = [], []
    for epoch in range(cfg.epochs):
        for batch in make_batches(pairs, cfg.batch_pairs, cfg.seed, epoch):
            members = [m for u in batch for m in u.members()]
            envs = _batch_environments(members, cfg.alpha, cfg.env_mode)
            step_pairs = [(u.original, u.counterfactual) for u in batch
                          if u.counterfactual is not None]
            total, breakdown = combined_loss(
                members, step_pairs, envs, params, vocab, cfg.alpha, cfg.beta)
            grads = grad(total, flat)
            adam_step(flat, grads, state, cfg.learning_rate)
            steps.append(breakdown)
        snapshots.append(params.snapshot())
    return vocab, steps, snapshots


def _snapshot_vector(snap):
    parts = [snap.embedding, snap.enc_bias, snap.classifier, snap.out_bias]
    return np.concatenate([a.ravel() for a in parts])


@pytest.mark.parametrize("changes", [
    {},
    {"env_mode": "overlap"},
    {"beta": 2.0},
    {"n_classes": 3},
], ids=lambda c: ",".join(f"{k}={v}" for k, v in c.items()) or "default")
def test_train_matches_scalar_reference_loop(changes):
    """train() on the closed-form path follows the scalar reference step for
    step on the full objective, and keeps the same checkpoint. n_classes is
    the generator's; train takes the class count from the labels."""
    changes = dict(changes)
    n_classes = changes.pop("n_classes", 2)
    ds = generate_cad(GeneratorConfig(n_pairs=14, n_ood=2, n_classes=n_classes, seed=21))
    train_part = ds.train_pairs[:10]
    cfg = TrainConfig(**{"alpha": 1.6, "beta": 0.1, "learning_rate": 0.05, "epochs": 3,
                         "batch_pairs": 4, "seed": 4, "embed_dim": 4, **changes})
    ck, log = train(cfg, train_part)
    assert ck.snapshot.config.n_classes == n_classes

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


def test_batch_without_counterfactual_matches_reference(caplog):
    """On partly augmented data a batch may hold no counterfactual. Then e_cad
    adds nothing to L_IRM in disjoint mode, and L_OCD is 0 with no pair used
    and no warning. The closed form follows the reference on such batches,
    and train follows the reference loop with one unit per batch."""
    ds = _dataset(n_pairs=6)
    units = ds.train_pairs[:2] + [PairedExample(u.original, None) for u in ds.train_pairs[2:]]
    vocab = Vocab.from_examples([m for u in units for m in u.members()])
    params = ModelParams(ModelConfig(vocab_size=vocab.size, embed_dim=4), seed=3)
    with caplog.at_level(logging.WARNING, logger="cadlab.losses"):
        for env_mode in ("disjoint", "overlap"):
            for batch in ([3], [5, 2], [4, 0, 3], [1, 0]):
                ref, ref_grad, got, got_grad = _step_both_ways(
                    units, batch, params, vocab, 1.6, 0.1, env_mode)
                _assert_breakdowns_match(got, ref)
                _assert_grads_match(got_grad, ref_grad)
                if min(batch) >= 2:
                    assert got.l_ocd == 0.0 and got.n_pairs_used == 0
    assert not caplog.records

    # the e_ori term alone: what the reference gives without an e_cad entry
    originals = [units[i].original for i in (5, 2)]
    _, alone = combined_loss(originals, [], {ENV_ORIGINAL: originals}, params, vocab, 1.6, 0.0)
    ref, _, got, _ = _step_both_ways(units, [5, 2], params, vocab, 1.6, 0.0, "disjoint")
    assert ref.l_irm == alone.l_irm > 0.0 and _close(got.l_irm, alone.l_irm)

    cfg = TrainConfig(alpha=1.6, beta=0.1, learning_rate=0.05, epochs=2, batch_pairs=1,
                      seed=1, embed_dim=4)
    _, log = train(cfg, units)
    _, ref_steps, _ = _reference_train(cfg, units)
    assert len(log.steps) == len(ref_steps) == 12
    for got, ref in zip(log.steps, ref_steps):
        _assert_breakdowns_match(got, ref)
    assert sum(b.n_pairs_used == 0 for b in log.steps) == 8


@pytest.mark.parametrize("alpha, beta", [(1.6, 0.0), (0.0, 0.1), (1.6, 0.1)])
def test_train_completes_on_partly_augmented_data(alpha, beta):
    """One unit in five keeps its counterfactual, so some batches hold none."""
    ds = _dataset(n_pairs=200)
    units = [u if i % 5 == 0 else PairedExample(u.original, None)
             for i, u in enumerate(ds.train_pairs)]
    without_pair = 0
    for seed in range(5):
        _, log = train(TrainConfig(alpha=alpha, beta=beta, epochs=4, seed=seed), units)
        assert len(log.steps) == 4 * 13
        if beta > 0.0:
            without_pair += sum(b.n_pairs_used == 0 for b in log.steps)
    assert without_pair > 0 or beta == 0.0


@pytest.mark.parametrize("component, poison, lr", [
    ("grad", float("nan"), 1e-3),
    # a finite gradient whose Adam update overflows: lr * m_hat = 1e350
    ("params", 1e150, 1e200),
])
def test_non_finite_grad_or_params_abort(monkeypatch, component, poison, lr):
    real = training.objective_and_grad

    def poisoned(params, grads, *args, **kwargs):
        breakdown = real(params, grads, *args, **kwargs)
        grads.enc_bias[0] = poison
        return breakdown

    monkeypatch.setattr(training, "objective_and_grad", poisoned)
    ds = _dataset(n_pairs=8)
    cfg = TrainConfig(alpha=1.6, beta=0.1, epochs=1, batch_pairs=4, seed=1, embed_dim=4,
                      learning_rate=lr)
    with pytest.raises(NonFiniteLossError) as exc:
        train(cfg, ds.train_pairs)
    assert exc.value.component == component
    assert exc.value.step == 0


# ---------------------------------------------------------------------------
# a seed's arms trained as one stack

ARMS = ({}, {"alpha": 0.0}, {"beta": 0.0}, {"alpha": 0.0, "beta": 0.0})


@pytest.mark.parametrize("env_mode", ["disjoint", "overlap"])
@pytest.mark.parametrize("paired", ["all", "every_fifth"])
def test_each_run_of_a_stack_is_the_run_trained_alone(monkeypatch, env_mode, paired):
    """Bit for bit: the step and epoch logs, the checkpoint epoch and the
    bytes of the checkpoint's parameters, for every arm of one to three
    seeds. The configs come arm by arm, and the results in their order.
    Fully paired data trains the seeds as one stack; on partly paired data
    their batches differ in structure, and each seed is a stack of its own.
    With alpha 0 there are no environments, so only the pairing tells the
    seeds' batches apart."""
    ds = _dataset(n_pairs=60, seed=4)
    units = ds.train_pairs if paired == "all" else [
        u if i % 5 == 0 else PairedExample(u.original, None) for i, u in enumerate(ds.train_pairs)]
    base = TrainConfig(epochs=3, batch_pairs=8, embed_dim=4, learning_rate=0.02,
                       env_mode=env_mode)
    step, stacked_seeds = training.objective_and_grad, set()

    def recording(params, grads, x, *args):
        stacked_seeds.add(len(x))
        return step(params, grads, x, *args)

    for seeds in ((2,), (2, 0), (5, 1, 3)):
        for arms in (ARMS, ARMS[1::2]):
            configs = [replace(base, **changes, seed=seed) for changes in arms for seed in seeds]
            stacked_seeds.clear()
            with monkeypatch.context() as patch:
                patch.setattr(training, "objective_and_grad", recording)
                stacked = train_arms(configs, units)
            assert stacked_seeds == {len(seeds) if paired == "all" else 1}
            assert len(stacked) == len(configs)
            for config, (checkpoint, log) in zip(configs, stacked):
                alone, alone_log = train(config, units)
                assert log.step_csv() == alone_log.step_csv()
                assert log.epoch_csv() == alone_log.epoch_csv()
                assert checkpoint.epoch == alone.epoch
                assert _snapshot_vector(checkpoint.snapshot).tobytes() == \
                    _snapshot_vector(alone.snapshot).tobytes()


def test_stacked_configs_differ_only_in_the_weights():
    ds = _dataset(n_pairs=8)
    base = TrainConfig(epochs=1, batch_pairs=4, embed_dim=4)
    # seeds with as many runs stack; with fewer, each seed is a stack of its own
    for configs in ([base, replace(base, seed=1, alpha=0.0)],
                    [base, replace(base, seed=1), replace(base, seed=1, beta=0.0)]):
        for config, (checkpoint, log) in zip(configs, train_arms(configs, ds.train_pairs)):
            assert log.step_csv() == train(config, ds.train_pairs)[1].step_csv()
    for changes in ({"learning_rate": 0.01}, {"env_mode": "overlap"}, {"epochs": 2},
                    {"batch_pairs": 2}, {"embed_dim": 3}):
        with pytest.raises(ValueError, match="differ only in seed, alpha and beta"):
            train_arms([base, replace(base, seed=1, **changes)], ds.train_pairs)
    with pytest.raises(ValueError):
        train_arms([], ds.train_pairs)


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2 ** 20), n_classes=st.sampled_from([2, 3]),
       env_mode=st.sampled_from(["disjoint", "overlap"]), n_seeds=st.integers(1, 3),
       arms=st.lists(st.tuples(st.sampled_from([0.0, 0.4, 1.6]),
                               st.sampled_from([0.0, 0.1, 2.0]),
                               st.sampled_from([None, 0, 1])), min_size=1, max_size=4),
       n_paired=st.integers(0, 4), n_unpaired=st.integers(0, 3))
def test_stacked_step_matches_autodiff_for_each_run(seed, n_classes, env_mode, n_seeds, arms,
                                                    n_paired, n_unpaired):
    """One step of S seeds x A arms: each seed has its own batch (its own
    rows and labels, with paired and unpaired units at the same positions),
    and each run its own parameters and weights, zeros and a degenerate
    label vector included. Each run's loss values and gradient are those of
    combined_loss and autodiff.grad on that run and its seed's batch alone."""
    assume(n_paired + n_unpaired > 0)
    rng = random.Random(seed)
    ds = generate_cad(GeneratorConfig(n_pairs=8, n_ood=2, n_classes=n_classes,
                                      sentence_length=7, seed=seed))
    # unit 0 stays paired, so that the set has both environments
    n_alone = rng.randint(n_unpaired, 8 - max(n_paired, 1))
    unpaired = set(rng.sample(range(1, 8), n_alone))
    units = [PairedExample(u.original, None) if i in unpaired else u
             for i, u in enumerate(ds.train_pairs)]
    paired_at = [True] * n_paired + [False] * n_unpaired
    rng.shuffle(paired_at)
    batches = []
    for _ in range(n_seeds):
        paired = iter(rng.sample(sorted(set(range(8)) - unpaired), n_paired))
        alone = iter(rng.sample(sorted(unpaired), n_unpaired))
        batches.append([next(paired) if p else next(alone) for p in paired_at])
    vocab = Vocab.from_examples([m for u in ds.train_pairs for m in u.members()])
    config = ModelConfig(vocab_size=vocab.size, n_classes=n_classes, embed_dim=3)

    runs, all_params, references = [], [], []
    for batch in batches:
        for alpha, beta, degenerate_class in arms:
            params = ModelParams(config, seed=rng.randrange(2 ** 20))
            for p in params.flat():
                p.value = rng.uniform(-1.0, 1.0)
            if degenerate_class is not None:
                for p in params.classifier[degenerate_class]:
                    p.value = 0.0
            ref, ref_grad, _, _ = _step_both_ways(units, batch, params, vocab, alpha, beta,
                                                  env_mode)
            runs.append((alpha, beta))
            all_params.append(params)
            references.append((ref, ref_grad))

    examples = [m for u in units for m in u.members()]
    weights = max(alpha for alpha, _, _ in arms)
    rows, env_rows, pair_rows = batch_index(
        unit_rows(units), environment_masks(examples, weights, env_mode), np.array(batches))
    labels = np.array([ex.label for ex in examples])
    assert rows.shape[0] == n_seeds
    theta = np.array([[p.value for p in params.flat()] for params in all_params])
    gradient = np.zeros_like(theta)
    got = objective_and_grad(
        Snapshot.from_flat(config, theta), Snapshot.from_flat(config, gradient),
        featurize_matrix(examples, vocab)[rows], labels[rows],
        env_rows, pair_rows, np.array([r[0] for r in runs]), np.array([r[1] for r in runs]))
    assert len(got) == len(runs)
    for r, (ref, ref_grad) in enumerate(references):
        _assert_breakdowns_match(got[r], ref)
        _assert_grads_match(gradient[r], ref_grad)
        if runs[r][0] == 0.0:
            assert got[r].l_irm == 0.0
        if runs[r][1] == 0.0:
            assert got[r].l_ocd == 0.0 and got[r].n_pairs_used == 0


def test_a_non_finite_term_of_weight_zero_leaves_its_run_untouched():
    """A run whose class-2 logit is -inf has a finite prediction loss on a
    batch without class 2, but a NaN invariance penalty. With alpha == 0 in a
    stack beside a run with alpha > 0, its step is the one it takes alone."""
    ds = _dataset(n_pairs=6, seed=1)
    examples = ds.train_examples()
    vocab = Vocab.from_examples(examples)
    config = ModelConfig(vocab_size=vocab.size, n_classes=3, embed_dim=4)
    rows, env_rows, pair_rows = batch_index(
        unit_rows(ds.train_pairs), environment_masks(examples, 1.6, "disjoint"),
        np.array([[0, 1, 2]]))
    x, y = featurize_matrix(examples, vocab)[rows], np.array([ex.label for ex in examples])[rows]
    assert set(y.ravel().tolist()) == {0, 1}
    theta = np.array([initial_values(config, seed) for seed in (0, 1)])
    Snapshot.from_flat(config, theta[1]).out_bias[2] = -np.inf

    def step(thetas, alpha, beta):
        gradient = np.zeros_like(thetas)
        with np.errstate(invalid="ignore"):
            breakdowns = objective_and_grad(
                Snapshot.from_flat(config, thetas), Snapshot.from_flat(config, gradient),
                x, y, env_rows, pair_rows, np.array(alpha), np.array(beta))
        return breakdowns, gradient

    [poisoned], _ = step(theta[1:], [1.6], [0.1])
    assert math.isfinite(poisoned.l_p) and math.isnan(poisoned.l_irm)
    stacked, stacked_grad = step(theta, [1.6, 0.0], [0.1, 0.1])
    [alone], alone_grad = step(theta[1:], [0.0], [0.1])
    assert stacked[1] == alone and stacked[1].l_irm == 0.0
    assert math.isfinite(alone.total) and np.isfinite(alone_grad).all()
    assert stacked_grad[1].tobytes() == alone_grad[0].tobytes()
    [first], first_grad = step(theta[:1], [1.6], [0.1])
    assert stacked[0] == first and stacked_grad[0].tobytes() == first_grad[0].tobytes()


@pytest.mark.parametrize("plan, expected", [
    # the lowest run of the step, whatever its component
    ({1: {3: "grad", 2: "l_ocd"}}, (1, "l_ocd")),
    ({1: {2: "l_p", 1: "params"}}, (1, "params")),
    # within a run, the components in order
    ({0: {2: "grad", 3: "l_p"}, 2: {0: "l_p"}}, (0, "grad")),
    ({1: {1: "total"}}, (1, "total")),
    # the first step at which any run goes non-finite
    ({2: {0: "l_irm"}, 1: {3: "l_irm"}}, (1, "l_irm")),
])
def test_a_stack_stops_at_the_first_non_finite_step_and_reports_its_lowest_run(
        monkeypatch, plan, expected):
    real = training.objective_and_grad
    steps = []

    def planned(params, grads, *args):
        breakdowns = real(params, grads, *args)
        for run, component in plan.get(len(steps), {}).items():
            if component == "grad":
                grads.enc_bias[run, 0] = float("nan")
            elif component == "params":
                params.enc_bias[run, 0] = float("inf")
            else:
                setattr(breakdowns[run], component, float("nan"))
        steps.append(len(steps))
        return breakdowns

    monkeypatch.setattr(training, "objective_and_grad", planned)
    ds = _dataset(n_pairs=16)
    base = TrainConfig(epochs=1, batch_pairs=4, seed=1, embed_dim=4)
    with pytest.raises(NonFiniteLossError) as exc:
        train_arms([replace(base, **changes) for changes in ARMS], ds.train_pairs)
    assert (exc.value.step, exc.value.component) == expected
    assert len(steps) == expected[0] + 1


# (alpha, beta) of each of the ARMS of a default config
ARM_OF = {(1.6, 0.1): 0, (0.0, 0.1): 1, (1.6, 0.0): 2, (0.0, 0.0): 3}


@pytest.mark.parametrize("paired", ["all", "every_fifth"])
def test_a_cross_seed_stack_reports_the_first_seed_that_fails_alone(monkeypatch, paired):
    """Seed 3 goes non-finite at step 0, and seed 1 at step 2 in arms 1 and
    2. Whether the seeds train as one stack (fully paired) or one after
    another (partly paired), the error is seed 1's: the first seed in config
    order that fails, at its first non-finite step, in its lowest arm, as
    when each seed trains alone."""
    plan = {(3, 0): {0: "l_p"}, (1, 2): {2: "l_irm", 1: "grad"}}
    train_stack, step_of = training._train_stack, training.objective_and_grad
    now, stacks = {}, []

    def planned_stack(runs, *args):
        now.update(runs=[(run.seed, ARM_OF[run.alpha, run.beta]) for run in runs], step=0)
        stacks.append(sorted({run.seed for run in runs}))
        return train_stack(runs, *args)

    def planned_step(params, grads, *args):
        breakdowns = step_of(params, grads, *args)
        for r, (seed, arm) in enumerate(now["runs"]):
            component = plan.get((seed, now["step"]), {}).get(arm)
            if component == "grad":
                grads.enc_bias[r, 0] = float("nan")
            elif component is not None:
                setattr(breakdowns[r], component, float("nan"))
        now["step"] += 1
        return breakdowns

    monkeypatch.setattr(training, "_train_stack", planned_stack)
    monkeypatch.setattr(training, "objective_and_grad", planned_step)
    ds = _dataset(n_pairs=40, seed=3)
    units = ds.train_pairs if paired == "all" else [
        u if i % 5 == 0 else PairedExample(u.original, None) for i, u in enumerate(ds.train_pairs)]
    base = TrainConfig(epochs=1, batch_pairs=4, embed_dim=4)
    with pytest.raises(NonFiniteLossError) as exc:
        train_arms([replace(base, **changes, seed=seed) for seed in (1, 3) for changes in ARMS],
                   units)
    assert (exc.value.step, exc.value.component) == (2, "grad")
    assert stacks == ([[1, 3], [1]] if paired == "all" else [[1]])

