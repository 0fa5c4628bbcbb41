import itertools
import logging
import math
import pickle
import random
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from cadlab import losses, training
from cadlab.autodiff import const, grad, nsum, scale
from cadlab.data import (
    ENV_COUNTERFACTUAL, ENV_ORIGINAL, EmptyEnvironmentError, GeneratorConfig, PairedExample,
    Vocab, featurize_matrix, generate_cad, partition_environments,
)
from cadlab.evaluation import evaluate
from cadlab.losses import Stack, combined_loss, objective_and_grad
from cadlab.model import (
    ModelConfig, ModelParams, Snapshot, cross_entropy, encode, initial_values, logits,
)
from cadlab.data import featurize_sparse
from cadlab.training import (
    AdamState, Checkpoint, NonFiniteLossError, TrainConfig, TrainingLog, adam_step, batch_index,
    make_batches, train, train_arms, unit_rows,
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
    # the order is random.Random.shuffle's, draw for draw, at any length
    for n, seed, epoch in ((0, 0, 0), (1, 2, 0), (2, 0, 1), (33, 7, 3), (500, 2 ** 40, 9)):
        order = list(range(n))
        random.Random(seed * 1_000_003 + epoch).shuffle(order)
        assert [u for b in make_batches(range(n), 5, seed, epoch) for u in b] == order


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
    with pytest.raises(ValueError, match="alpha and beta must be non-negative"):
        TrainConfig(alpha=-1)
    with pytest.raises(ValueError, match=r"unknown train config keys: \['bogus'\]"):
        TrainConfig.from_dict({"alpha": 0.1, "bogus": 2})
    # the class count comes from the training labels
    with pytest.raises(ValueError, match=r"unknown train config keys: \['n_classes'\]"):
        TrainConfig.from_dict({"n_classes": 3})
    for bad in ({"alpha": math.nan}, {"beta": math.inf}, {"learning_rate": math.nan},
                {"batch_pairs": 2.5}, {"epochs": True}, {"seed": "1"}, {"alpha": True},
                {"beta": "0.1"}):
        with pytest.raises(ValueError, match="must be an int|must be a finite"):
            TrainConfig.from_dict(bad)
    # random.Random seeds with the absolute value, so seed -1 would be seed 1
    with pytest.raises(ValueError, match="seed must be >= 0"):
        TrainConfig(seed=-1)
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


def _stack(config, theta, alpha, beta, n_seeds=1):
    """The Stack of the runs whose parameters are the rows of theta, arm-major
    over n_seeds seeds, with their weights, the parameter and gradient
    Snapshots it was built from, and the gradient matrix."""
    gradient = np.zeros_like(theta)
    params, grads = Snapshot.from_flat(config, theta), Snapshot.from_flat(config, gradient)
    stack = Stack(params, grads, np.array(alpha, dtype=np.float64),
                  np.array(beta, dtype=np.float64), n_seeds)
    return stack, params, grads, gradient


def _term_major(arms, n_seeds):
    """Each run's alpha and beta, of the arms' (alpha, beta) sorted by the
    terms they weigh as train_arms sorts a seed's runs, arm-major over
    n_seeds seeds."""
    arms = sorted(arms, key=lambda arm: training._term_rank(arm[0], arm[1]))
    return ([arm[i] for arm in arms for _ in range(n_seeds)] for i in (0, 1))


def _index_stack(n_seeds, arms=((1.6, 0.1),), n_classes=2):
    """A term-major stack of the arms over n_seeds seeds, for batch_index alone."""
    config = ModelConfig(vocab_size=3, n_classes=n_classes, embed_dim=2)
    alpha, beta = _term_major(arms, n_seeds)
    theta = np.zeros((n_seeds * len(arms), config.n_params()))
    return _stack(config, theta, alpha, beta, n_seeds)[0]


def _labels(units):
    return np.array([m.label for u in units for m in u.members()])


def _assert_indexes_the_batches(units, batches, step, env_mode):
    """The rows of one step from batch_index hold, for each seed's batch, the
    counterfactuals of its paired units, then those units' originals in the
    same order, then its unpaired originals in batch order. So the step
    keeps the batch's pair count, and its slices [0, n_cad) and [n_pairs, n)
    are the environments, of the same members and sizes, that
    partition_environments forms of the batch (an environment absent from
    the batch is an empty slice)."""
    examples = [m for u in units for m in u.members()]
    assert step.rows.shape[0] == len(batches)
    n_pairs, n = step.n_pairs, step.rows.shape[1]
    for seed_rows, batch in zip(step.rows, batches):
        members = [examples[r] for r in seed_rows]
        chosen = [units[i] for i in batch]
        paired = [u for u in chosen if u.counterfactual is not None]
        assert (n_pairs, n) == (len(paired), len(chosen) + len(paired))
        assert members[:n_pairs] == [u.counterfactual for u in paired]
        assert members[n_pairs:2 * n_pairs] == [u.original for u in paired]
        assert members[2 * n_pairs:] == [u.original for u in chosen if u.counterfactual is None]
        envs = partition_environments(members, 0.0, env_mode)
        assert members[:step.n_cad] == envs.get(ENV_COUNTERFACTUAL, [])
        assert members[n_pairs:] == envs[ENV_ORIGINAL]


@pytest.mark.parametrize("env_mode", ["disjoint", "overlap"])
def test_batch_index_takes_the_environments_and_pairs_from_the_pairing(env_mode):
    """On partly augmented units, batch_index lays out each step's rows from
    the pairing. A batch without a counterfactual has no pairs, and in
    disjoint mode an empty e_cad, which the step skips."""
    units = _paired_every(_dataset(n_pairs=12, seed=4).train_pairs, 3)
    # units 0, 3, 6 and 9 are paired: two seeds' batches paired at the same
    # positions, and a batch of unpaired units alone
    for batches in ([[4, 0, 7, 3, 2], [1, 6, 8, 9, 5]], [[1, 2, 4, 5, 7]]):
        [step] = batch_index(unit_rows(units), [[b] for b in batches], env_mode,
                             _labels(units), _index_stack(len(batches)))
        _assert_indexes_the_batches(units, batches, step, env_mode)
    assert step.n_pairs == 0
    assert (step.n_cad == 0) == (env_mode == "disjoint")
    assert losses._env_blocks(5, step.n_pairs, step.n_cad) == (
        [(0, 1, 5)] if env_mode == "disjoint" else [(0, 1, 5), (0, 1, 5)])


@pytest.mark.parametrize("env_mode", ["disjoint", "overlap"])
@pytest.mark.parametrize("every", [1, 3])
def test_batch_index_indexes_every_step_of_an_epoch_at_once(env_mode, every):
    """Every step of the seeds' make_batches, the short last one too, is
    laid out as its batches alone are: on fully paired units for two seeds,
    and on partly augmented units (every third unit paired) for one."""
    units = _paired_every(_dataset(n_pairs=23, seed=5).train_pairs, every)
    seeds = (2, 0) if every == 1 else (2,)
    per_seed = [make_batches(range(len(units)), 4, seed, epoch=1) for seed in seeds]
    steps = batch_index(unit_rows(units), per_seed, env_mode, _labels(units),
                        _index_stack(len(seeds)))
    assert len(steps) == len(per_seed[0]) == 6
    for step, batches in zip(steps, zip(*per_seed)):
        _assert_indexes_the_batches(units, batches, step, env_mode)
        for seed, batch in zip(seeds, batches):
            [alone] = batch_index(unit_rows(units), [[batch]], env_mode, _labels(units),
                                  _index_stack(1))
            assert alone.rows[0].tolist() == step.rows[seeds.index(seed)].tolist()
            assert (alone.n_pairs, alone.n_cad) == (step.n_pairs, step.n_cad)


def _batches_paired_alike(units, batch_pairs, seeds, epoch):
    """Each seed's make_batches of the units, with the later seeds' units
    moved so that every seed's batches are paired at the first seed's
    positions: each later seed keeps its own order of the paired units and
    of the unpaired ones."""
    first = make_batches(range(len(units)), batch_pairs, seeds[0], epoch)
    per_seed = [first]
    for seed in seeds[1:]:
        order = [i for batch in make_batches(range(len(units)), batch_pairs, seed, epoch)
                 for i in batch]
        kinds = {kind: iter([i for i in order if (units[i].counterfactual is None) == kind])
                 for kind in (False, True)}
        per_seed.append([[next(kinds[units[i].counterfactual is None]) for i in batch]
                         for batch in first])
    return per_seed


@pytest.mark.parametrize("env_mode", ["disjoint", "overlap"])
@pytest.mark.parametrize("every, n_seeds", [(1, 1), (1, 3), (3, 1), (3, 2), (0, 2)])
def test_batch_index_builds_what_each_step_derived_from_its_rows(env_mode, every, n_seeds):
    """Each step's labels per run, one-hot labels and gold masks are what a
    step derives from its seeds' labels, and its environments and pair sides
    are slices: on fully paired, partly augmented (every third unit paired)
    and unpaired units of three classes, with a short last batch, for 1 to 3
    seeds of four arms, two of them with beta > 0, arm-major: run r trains on
    seed r % S's rows."""
    units = _paired_every(_dataset(n_pairs=23, seed=6, n_classes=3).train_pairs, every)
    labels = _labels(units)
    arms = ((0.0, 0.1), (1.6, 0.1), (1.6, 0.0), (0.0, 0.0))
    stack = _index_stack(n_seeds, arms, n_classes=3)
    per_seed = _batches_paired_alike(units, 4, list(range(n_seeds)), epoch=2)
    steps = batch_index(unit_rows(units), per_seed, env_mode, labels, stack)
    assert [len(b) for b in per_seed[0]] == [4] * 5 + [3]
    runs = n_seeds * len(arms)
    rng = np.random.default_rng(every)
    for step, batches in zip(steps, zip(*per_seed)):
        _assert_indexes_the_batches(units, batches, step, env_mode)
        n, n_pairs = step.rows.shape[1], step.n_pairs
        y = np.tile(labels[step.rows], (len(arms), 1))
        assert step.y.tolist() == y.tolist()
        assert step.one_hot.dtype == np.float64
        assert step.one_hot.tolist() == (y[:, :, None] == np.arange(3)).tolist()
        assert step.gold.tolist() == (y[:, :, None] == np.arange(3)).tolist()
        z = rng.normal(size=(runs, n, 3))
        assert (np.where(step.gold, z, 0.0).sum(axis=2).tolist()
                == z[np.arange(runs)[:, None], np.arange(n), y].tolist())
        # one block when both environments are of one size side by side (the
        # counterfactuals and originals of fully paired units), else one per
        # non-empty environment; each has the batch's size
        blocks = losses._env_blocks(n, n_pairs, step.n_cad)
        if every == 1 and env_mode == "disjoint":
            assert blocks == [(0, 2, len(batches[0]))]
        else:
            cad = [(0, 1, step.n_cad)] if step.n_cad else []
            assert blocks == cad + [(n_pairs, 1, len(batches[0]))]
        # each pair's sides, counterfactual and original, in one reshape
        sides = y[:, :2 * n_pairs].reshape(runs, 2, n_pairs)
        assert sides.tolist() == [[[units[i].counterfactual.label for i in batch if
                                    units[i].counterfactual is not None],
                                   [units[i].original.label for i in batch if
                                    units[i].counterfactual is not None]]
                                  for _ in arms for batch in batches]


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
    theta = np.array([[p.value for p in params.flat()]])
    stack, snapshot, grads, got_grad = _stack(params.config, theta, [alpha], [beta])
    [step] = batch_index(unit_rows(units), [[batch]], env_mode, _labels(units), stack)
    [got] = objective_and_grad(snapshot, grads, featurize_matrix(examples, vocab)[0][step.rows],
                               step, stack)
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
# (alpha, beta) of each of the ARMS of a default config
ARM_OF = {(1.6, 0.1): 0, (0.0, 0.1): 1, (1.6, 0.0): 2, (0.0, 0.0): 3}


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


@pytest.mark.parametrize("betas", [
    # the seeds' runs with beta > 0 come at different places in config order
    ((0.1, 0.0), (0.0, 0.1)),
    ((0.0, 0.1), (2.0, 0.0)),
    # every seed alike, with a run of beta == 0 before or between two of beta > 0
    ((0.0, 0.1, 2.0), (0.0, 0.1, 2.0)),
    ((0.1, 0.0, 2.0), (0.1, 0.0, 2.0)),
], ids=["crossed", "crossed-inside", "seed-span", "gap"])
def test_the_pair_term_reads_a_span_of_runs_and_each_run_is_the_run_alone(betas):
    """Sorted by the terms they weigh, a stack's runs with beta > 0 are one
    span, which the pair-alignment term reads. Whatever the runs' config
    order, each run's logs and checkpoint are bit for bit those of the run
    trained alone."""
    ds = _dataset(n_pairs=24, seed=3)
    base = TrainConfig(epochs=2, batch_pairs=4, embed_dim=4, learning_rate=0.02)
    configs = [replace(base, seed=seed, beta=beta) for seed, arms in zip((0, 1), betas)
               for beta in arms]
    for config, (checkpoint, log) in zip(configs, train_arms(configs, ds.train_pairs)):
        alone, alone_log = train(config, ds.train_pairs)
        assert log.step_csv() == alone_log.step_csv()
        assert checkpoint.epoch == alone.epoch
        assert _snapshot_vector(checkpoint.snapshot).tobytes() == \
            _snapshot_vector(alone.snapshot).tobytes()


@pytest.mark.parametrize("arms, seeds", [(ARMS, (0, 1)), (ARMS[::3], (0, 1, 2, 3, 4))],
                         ids=["ablation", "data-efficiency-pairs"])
def test_every_order_of_the_arms_returns_each_run_in_config_order(monkeypatch, arms, seeds):
    """Every order of the four ablation arms over two seeds, and of the
    data-efficiency pair cell's two arms over five seeds: the seeds train
    as one stack, whose runs that weigh either term are one range of the
    run axis, and each run comes back in config order, its logs and
    checkpoint bit for bit those of the run trained alone."""
    ds = _dataset(n_pairs=24, seed=3)
    base = TrainConfig(epochs=2, batch_pairs=4, embed_dim=4, learning_rate=0.02)

    def outputs(checkpoint, log):
        return (log.step_csv(), log.epoch_csv(), checkpoint.epoch,
                _snapshot_vector(checkpoint.snapshot).tobytes())

    configs = [replace(base, **changes, seed=seed) for seed in seeds for changes in arms]
    alone = {(c.seed, c.alpha, c.beta): outputs(*train(c, ds.train_pairs)) for c in configs}
    step, stacks = training.objective_and_grad, []

    def recording(params, grads, x, batch, stack):
        if not stacks or stacks[-1][1] is not stack:
            stacks.append((len(x), stack))
        return step(params, grads, x, batch, stack)

    monkeypatch.setattr(training, "objective_and_grad", recording)
    for order in itertools.permutations(arms):
        configs = [replace(base, **changes, seed=seed) for seed in seeds for changes in order]
        stacks.clear()
        results = train_arms(configs, ds.train_pairs)
        [(n_seeds, stack)] = stacks
        assert n_seeds == len(seeds)
        for weights, runs in ((stack.alpha, stack.irm), (stack.beta, stack.ocd)):
            hits = np.flatnonzero(weights > 0.0).tolist()
            assert hits == list(range(len(weights))[runs or slice(0)])
        for config, result in zip(configs, results):
            assert outputs(*result) == alone[config.seed, config.alpha, config.beta]


def test_a_stack_takes_each_weighted_term_on_one_range_of_runs():
    """Stack.irm and Stack.ocd are the ranges of runs with alpha > 0 and with
    beta > 0, None when no run weighs the term; runs that weigh a term apart
    from each other are refused."""
    model = ModelConfig(vocab_size=3, n_classes=2, embed_dim=2)

    def ranges(alpha, beta, n_seeds=1):
        theta = np.zeros((len(alpha), model.n_params()))
        stack = _stack(model, theta, alpha, beta, n_seeds)[0]
        return stack.irm, stack.ocd

    alpha, beta = _term_major([(1.6, 0.1), (0.0, 0.1), (1.6, 0.0), (0.0, 0.0)], 2)
    assert ranges(alpha, beta, 2) == (slice(2, 6), slice(0, 4))
    assert ranges([0.0, 0.0], [0.0, 0.0]) == (None, None)
    assert ranges([1.6], [0.1]) == (slice(0, 1), slice(0, 1))
    for alpha, beta in (([1.6, 0.0, 1.6], [0.0] * 3), ([0.0] * 3, [0.1, 0.0, 2.0])):
        with pytest.raises(ValueError, match="must lie side by side"):
            ranges(alpha, beta)


def test_stacked_configs_differ_only_in_the_weights(monkeypatch):
    ds = _dataset(n_pairs=8)
    base = TrainConfig(epochs=1, batch_pairs=4, embed_dim=4)
    train_stack, seen = training._train_stack, []

    def spy(runs, *args):
        seen.append([run.seed for run in runs])
        return train_stack(runs, *args)

    monkeypatch.setattr(training, "_train_stack", spy)
    # seeds stack when their runs weigh the same terms; when the terms differ
    # (full and no_irm), or a seed has fewer runs, each seed is a stack of its own
    for configs, stacks in (
            ([base, replace(base, seed=1, alpha=0.0)], [[0], [1]]),
            ([base, replace(base, seed=1), replace(base, seed=1, beta=0.0)], [[0], [1, 1]]),
            ([replace(base, alpha=0.4), replace(base, seed=1, beta=2.0)], [[0, 1]])):
        seen.clear()
        stacked = train_arms(configs, ds.train_pairs)
        assert seen == stacks
        for config, (checkpoint, log) in zip(configs, stacked):
            alone, alone_log = train(config, ds.train_pairs)
            assert log.step_csv() == alone_log.step_csv()
            assert _snapshot_vector(checkpoint.snapshot).tobytes() == \
                _snapshot_vector(alone.snapshot).tobytes()
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
    combined_loss and autodiff.grad on that run and its seed's batch alone.
    The runs are term-major, as train_arms lays them out."""
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
    arms = sorted(arms, key=lambda arm: training._term_rank(arm[0], arm[1]))
    for alpha, beta, degenerate_class in arms:
        for batch in batches:
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
    theta = np.array([[p.value for p in params.flat()] for params in all_params])
    stack, snapshot, grads, gradient = _stack(config, theta, [r[0] for r in runs],
                                              [r[1] for r in runs], n_seeds)
    [step] = batch_index(unit_rows(units), [[b] for b in batches], env_mode, _labels(units),
                         stack)
    assert step.rows.shape[0] == n_seeds
    got = objective_and_grad(snapshot, grads, featurize_matrix(examples, vocab)[0][step.rows],
                             step, stack)
    assert len(got) == len(runs)
    for r, (ref, ref_grad) in enumerate(references):
        _assert_breakdowns_match(got[r], ref)
        _assert_grads_match(gradient[r], ref_grad)
        if runs[r][0] == 0.0:
            assert got[r].l_irm == 0.0
        if runs[r][1] == 0.0:
            assert got[r].l_ocd == 0.0 and got[r].n_pairs_used == 0


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2 ** 20), n_classes=st.sampled_from([2, 3]),
       n_seeds=st.integers(1, 3), paired=st.booleans(),
       arms=st.lists(st.tuples(st.sampled_from([0.0, 0.4, 1.6]), st.sampled_from([0.0, 0.1, 2.0])),
                     min_size=1, max_size=4))
def test_both_invariance_paths_give_the_same_step_bit_for_bit(seed, n_classes, n_seeds, paired,
                                                              arms):
    """Environments of one size side by side take the invariance penalty in
    one set of calls: both of a fully paired batch in disjoint mode. Taking
    them one at a time instead gives every run the same breakdown and
    gradient, bit for bit, with arms of alpha 0 among them. The overlapping
    environments of an unpaired batch in overlap mode are one size too, but
    are the same rows, and take the per-environment loop either way."""
    rng = random.Random(seed)
    ds = _dataset(n_pairs=10, seed=seed, n_classes=n_classes)
    units = ds.train_pairs if paired else _paired_every(ds.train_pairs, 0)
    examples = [m for u in units for m in u.members()]
    vocab = Vocab.from_examples(examples)
    config = ModelConfig(vocab_size=vocab.size, n_classes=n_classes, embed_dim=3)
    batches = [[rng.sample(range(10), 6)] for _ in range(n_seeds)]
    theta = np.array([[rng.uniform(-1.0, 1.0) for _ in range(config.n_params())]
                      for _ in range(n_seeds * len(arms))])
    alpha, beta = _term_major(arms, n_seeds)
    [batch] = batch_index(unit_rows(units), batches, "disjoint" if paired else "overlap",
                          _labels(units), _stack(config, theta, alpha, beta, n_seeds)[0])
    blocks = losses._env_blocks(batch.rows.shape[1], batch.n_pairs, batch.n_cad)
    assert blocks == ([(0, 2, 6)] if paired else [(0, 1, 6), (0, 1, 6)])
    x = featurize_matrix(examples, vocab)[0][batch.rows]

    def step():
        stack, params, grads, gradient = _stack(config, theta.copy(), alpha, beta, n_seeds)
        breakdowns = objective_and_grad(params, grads, x, batch, stack)
        return TrainingLog(steps=breakdowns).step_csv(), gradient.tobytes()

    def one_at_a_time(*args):
        return [(first + i * m, 1, m) for first, count, m in blocks_of(*args)
                for i in range(count)]

    blocks_of = losses._env_blocks
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(losses, "_env_blocks", one_at_a_time)
        looped = step()
    assert step() == looped


def test_a_non_finite_term_of_weight_zero_leaves_its_run_untouched():
    """A run whose class-2 logit is -inf has a finite prediction loss on a
    batch without class 2, but a NaN invariance penalty. With alpha == 0 in a
    stack beside a run with alpha > 0, its step is the one it takes alone."""
    ds = _dataset(n_pairs=6, seed=1)
    examples = ds.train_examples()
    vocab = Vocab.from_examples(examples)
    config = ModelConfig(vocab_size=vocab.size, n_classes=3, embed_dim=4)
    theta = np.array([initial_values(config, seed) for seed in (0, 1)])
    Snapshot.from_flat(config, theta[1]).out_bias[2] = -np.inf

    def step(thetas, alpha, beta):
        stack, params, grads, gradient = _stack(config, thetas, alpha, beta)
        [batch] = batch_index(unit_rows(ds.train_pairs), [[[0, 1, 2]]], "disjoint",
                              _labels(ds.train_pairs), stack)
        assert set(batch.y.ravel().tolist()) == {0, 1}
        with np.errstate(invalid="ignore"):
            breakdowns = objective_and_grad(
                params, grads, featurize_matrix(examples, vocab)[0][batch.rows], batch, stack)
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
    # full comes first in config order, no_irm first in the stack
    ({1: {1: "l_p", 0: "grad"}}, (1, "grad")),
    ({0: {1: "params", 0: "total"}}, (0, "total")),
])
def test_a_stack_stops_at_the_first_non_finite_step_and_reports_its_lowest_run(
        monkeypatch, plan, expected):
    """A plan names each run by its arm, its place in config order (ARMS).
    The stack holds the arms sorted by the terms they weigh, no_irm before
    full, so the lowest run is taken in config order, not stack order."""
    real = training.objective_and_grad
    steps = []

    def planned(params, grads, x, batch, stack):
        breakdowns = real(params, grads, x, batch, stack)
        arms = [ARM_OF[run] for run in zip(stack.alpha.tolist(), stack.beta.tolist())]
        for arm, component in plan.get(len(steps), {}).items():
            run = arms.index(arm)
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


@pytest.mark.parametrize("paired", ["all", "every_fifth"])
def test_a_cross_seed_stack_reports_the_first_seed_that_fails_alone(monkeypatch, paired):
    """Seed 3 goes non-finite at step 0, and seed 1 at step 2 in arms 1 and
    2. Whether the seeds train as one stack (fully paired) or one after
    another (partly paired), the error is seed 1's: the first seed in config
    order that fails, at its first non-finite step, in its lowest arm, as
    when each seed trains alone. The seeds train again on the features
    already made."""
    plan = {(3, 0): {0: "l_p"}, (1, 2): {2: "l_irm", 1: "grad"}}
    train_stack, step_of = training._train_stack, training.objective_and_grad
    featurize = training.featurize_matrix
    now, stacks, featurized = {}, [], []

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

    def counted(*args, **kwargs):
        featurized.append(1)
        return featurize(*args, **kwargs)

    monkeypatch.setattr(training, "_train_stack", planned_stack)
    monkeypatch.setattr(training, "objective_and_grad", planned_step)
    monkeypatch.setattr(training, "featurize_matrix", counted)
    ds = _dataset(n_pairs=40, seed=3)
    units = ds.train_pairs if paired == "all" else [
        u if i % 5 == 0 else PairedExample(u.original, None) for i, u in enumerate(ds.train_pairs)]
    base = TrainConfig(epochs=1, batch_pairs=4, embed_dim=4)
    with pytest.raises(NonFiniteLossError) as exc:
        train_arms([replace(base, **changes, seed=seed) for seed in (1, 3) for changes in ARMS],
                   units)
    assert (exc.value.step, exc.value.component) == (2, "grad")
    assert stacks == ([[1, 3], [1]] if paired == "all" else [[1]])
    assert len(featurized) == 1


def _paired_every(units, k):
    """The units with only every k-th one keeping its counterfactual (none
    when k is 0)."""
    return [u if k and i % k == 0 else PairedExample(u.original, None)
            for i, u in enumerate(units)]


@pytest.mark.parametrize("every, arms, env_mode, runs_of_seed_5, stacks", [
    (1, ARMS, "disjoint", 4, [[5, 1, 3]]),
    # all unpaired: the erm_unaugmented shape, and alpha > 0 over the
    # originals in both environments
    (0, ({"alpha": 0.0, "beta": 0.0},), "disjoint", 1, [[5, 1, 3]]),
    (0, ({"beta": 0.0}, {"alpha": 0.0, "beta": 0.0}), "overlap", 2, [[5, 1, 3]]),
    (5, ARMS, "disjoint", 4, [[5], [1], [3]]),
    # seed 5 has a run fewer than the others
    (1, ARMS, "disjoint", 3, [[5], [1], [3]]),
], ids=["all-paired", "unpaired-erm", "unpaired-overlap", "every-fifth", "unequal-runs"])
def test_seeds_share_a_stack_when_their_data_is_all_paired_or_all_unpaired(
        monkeypatch, every, arms, env_mode, runs_of_seed_5, stacks):
    """Seeds with as many runs train as one stack on all-paired or
    all-unpaired units, and one stack each otherwise; either way each run is
    bit for bit the run trained alone."""
    units = _paired_every(_dataset(n_pairs=30, seed=2).train_pairs, every)
    base = TrainConfig(epochs=2, batch_pairs=4, embed_dim=4, env_mode=env_mode)
    configs = [replace(base, **changes, seed=seed) for seed in (5, 1, 3)
               for changes in arms[:runs_of_seed_5 if seed == 5 else len(arms)]]
    train_stack, seen = training._train_stack, []

    def spy(runs, *args):
        seen.append(list(dict.fromkeys(run.seed for run in runs)))
        return train_stack(runs, *args)

    monkeypatch.setattr(training, "_train_stack", spy)
    stacked = train_arms(configs, units)
    assert seen == stacks
    for config, (checkpoint, log) in zip(configs, stacked):
        alone, alone_log = train(config, units)
        assert log.step_csv() == alone_log.step_csv()
        assert log.epoch_csv() == alone_log.epoch_csv()
        assert _snapshot_vector(checkpoint.snapshot).tobytes() == \
            _snapshot_vector(alone.snapshot).tobytes()



# train's logs at the commit before the side-major layout, on 60 pairs with
# the acceptance weights, 3 epochs at learning rate 0.02: the checkpoint
# epoch, each step's l_p, l_irm, l_ocd and total and its pairs used, and
# each epoch's train accuracy and mean l_p, l_irm, l_ocd and total
RECORDED_LOGS = {
    ("disjoint", 1): (2, [
        (0.6936477100195445, 2.047132447330373e-05, 0.003911599538856825, 0.6940716240925875),
        (0.6921335816585443, 2.8798918279556037e-05, 0.007758137387214521, 0.6929554736665131),
        (0.6903070453822108, 1.8724045050400048e-05, 0.003330441047169804, 0.6906700479590084),
        (0.6882573380094736, 0.0003397740772319871, 0.002732664338352192, 0.68907424296688),
        (0.6854675527454054, 0.00032884470607966323, 0.002299637779593855, 0.6862236680530922),
        (0.6818594117795771, 0.00027598714026186863, 0.002210381579731017, 0.6825220293619693),
        (0.6773200818524692, 0.0005091273724222077, 0.0019849119894399404, 0.6783331768472887),
        (0.6715163340131334, 0.0009902112098749232, 0.002059170137633536, 0.6733065889626967),
        (0.6644393961462758, 0.0015935910274854906, 0.001538066920684518, 0.667142948482321),
        (0.6565930919063556, 0.0025541542484204885, 0.0010866746758195229, 0.6607884061714103),
        (0.6469223537351885, 0.004061461620999484, 0.0008349418710343545, 0.653504186515891),
        (0.6364026085434271, 0.006080533443842354, 0.0012539511229375066, 0.6462568571658686),
    ], [16, 16, 16, 12, 16, 16, 16, 12, 16, 16, 16, 12], [0.5, 0.9833333333333333, 1.0], [
        (0.6910864187674433, 0.00010194209125881173, 0.004433210577898335, 0.6916928471712473),
        (0.6790408450976462, 0.0005260426071596656, 0.002138525371599587, 0.6800963658062616),
        (0.6510893625828118, 0.0035724350851869544, 0.0011784086476189755, 0.6569230995838727),
    ]),
    ("overlap", 5): (1, [
        (0.6948749988893316, 1.9951227807703924e-05, 0.0032613222426941587, 0.6952330530780934),
        (0.6922141869665849, 2.1728204189711096e-06, 0.006717859780607788, 0.692889449457316),
        (0.6866703532996552, 7.047905513373044e-05, 0.0052212068515525185, 0.6873052404730244),
        (0.7023433903770635, 0.0002229665534261631, 0.010114299474743437, 0.7037115668100198),
        (0.670698801592748, 0.001229258478850828, 0.00357854249477263, 0.6730234694083866),
        (0.6763562437466631, 0.0008688228945141316, 0.005966606556973282, 0.678343021033583),
        (0.6668580539473874, 0.001357464287038171, 0.0049315588788365885, 0.6695231526945321),
        (0.6633651010902438, 0.0020623192439318716, 0.008519687932008982, 0.6675167806737358),
        (0.6498076450793806, 0.004339265797005363, 0.010548142035380785, 0.6578052845581273),
        (0.635888459787502, 0.007814698727213045, 0.015083070432385, 0.6499002847942813),
        (0.6179566902886118, 0.01220395748892886, 0.007332074542986941, 0.6382162297251966),
        (0.6156382476727292, 0.012697624437585995, 0.006529596615114043, 0.6366074064343782),
    ], [3, 6, 1, 2, 3, 5, 2, 2, 3, 3, 3, 3], [0.5, 0.9166666666666666, 0.9166666666666666], [
        (0.6940257323831588, 7.889241419664214e-05, 0.006328672087399475, 0.6947848274546133),
        (0.6693195500942606, 0.0013794662260837504, 0.005749098965647871, 0.6721016059525594),
        (0.6298227607070559, 0.009263886612683316, 0.009873220906466692, 0.6456323013779959),
    ]),
}


@pytest.mark.parametrize("env_mode, every", list(RECORDED_LOGS))
def test_train_logs_match_the_recorded_logs_to_rounding(env_mode, every):
    """The side-major layout moved only the rounding of a step's sums: every
    logged loss is within 1e-12 (relative) of the logs recorded before it,
    and the pairs used, train accuracies and checkpoint epoch are the same;
    fully paired in disjoint mode, and every fifth unit paired in overlap
    mode."""
    units = _paired_every(_dataset(n_pairs=60, seed=4).train_pairs, every)
    config = TrainConfig(alpha=1.6, beta=0.1, epochs=3, learning_rate=0.02, env_mode=env_mode)
    checkpoint, log = train(config, units)
    epoch, step_losses, used, accuracies, epoch_means = RECORDED_LOGS[env_mode, every]
    assert checkpoint.epoch == epoch
    assert [b.n_pairs_used for b in log.steps] == used
    assert [e.train_accuracy for e in log.epochs] == accuracies
    np.testing.assert_allclose([(b.l_p, b.l_irm, b.l_ocd, b.total) for b in log.steps],
                               step_losses, rtol=1e-12, atol=0.0)
    np.testing.assert_allclose(
        [(e.mean_l_p, e.mean_l_irm, e.mean_l_ocd, e.mean_total) for e in log.epochs],
        epoch_means, rtol=1e-12, atol=0.0)
