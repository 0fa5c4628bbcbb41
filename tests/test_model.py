import hashlib
import json
import math
import random
import re

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from cadlab.autodiff import const, finite_diff_check, grad, mul, nsum
from cadlab.data import GeneratorConfig, Vocab, featurize_matrix, featurize_sparse, generate_cad
from cadlab.model import (
    DegenerateLabelVector, ModelConfig, ModelParams, Snapshot,
    cross_entropy, decompose, encode, initial_values, load_checkpoint, logits, save_checkpoint,
)


def _params(vocab_size=5, n_classes=2, embed_dim=3, seed=0):
    return ModelParams(ModelConfig(vocab_size=vocab_size, n_classes=n_classes,
                                   embed_dim=embed_dim), seed=seed)


def _set_matrix(rows, values):
    for row, vals in zip(rows, values):
        for p, v in zip(row, vals):
            p.value = float(v)


def _set_vector(vec, values):
    for p, v in zip(vec, values):
        p.value = float(v)


@settings(max_examples=50, deadline=None)
@given(seed=st.integers(-2**70, 2**70), vocab_size=st.integers(1, 40),
       n_classes=st.integers(1, 3), embed_dim=st.integers(1, 8))
def test_initial_values_are_uniforms_draws_bit_for_bit(seed, vocab_size, n_classes, embed_dim):
    config = ModelConfig(vocab_size=vocab_size, n_classes=n_classes, embed_dim=embed_dim)
    rng = random.Random(seed)
    expected = [rng.uniform(-0.1, 0.1) for _ in range(config.n_params())]
    assert [v.hex() for v in initial_values(config, seed)] == [v.hex() for v in expected]
    # the scalar model holds them in that order, each array laid out as a Snapshot's
    params = ModelParams(config, seed)
    assert [p.value.hex() for p in params.flat()] == [v.hex() for v in expected]
    snap, value = params.snapshot(), np.vectorize(lambda p: p.value)
    for name, shape in config.param_shapes().items():
        nodes = np.array(getattr(params, name), dtype=object)
        assert nodes.shape == shape and np.array_equal(value(nodes), getattr(snap, name)), name


def test_encode_zero_input_zero_bias():
    params = _params()
    _set_vector(params.enc_bias, [0.0, 0.0, 0.0])
    h = encode([], params)
    assert [n.value for n in h] == [0.0, 0.0, 0.0]


def test_encode_picks_out_embedding_row():
    params = _params()
    _set_vector(params.enc_bias, [0.0, 0.0, 0.0])
    _set_matrix(params.embedding, [[0.3, -0.2, 0.5]] + [[9.0, 9.0, 9.0]] * 4)
    h = encode([(0, 1.0)], params)
    for hv, ev in zip(h, [0.3, -0.2, 0.5]):
        assert hv.value == pytest.approx(math.tanh(ev), abs=1e-15)


def test_encode_gradient_matches_finite_differences():
    cfg = ModelConfig(vocab_size=4, n_classes=2, embed_dim=3)
    x = [(0, 0.5), (2, 0.25), (3, 0.25)]

    def build(leaves):
        return nsum(encode(x, ModelParams.from_leaves(cfg, leaves)))

    base = ModelParams(cfg, seed=1)
    point = [p.value for p in base.flat()]
    assert finite_diff_check(build, point, 1e-4) < 1e-6


def test_softmax_shift_invariance():
    # cross_entropy is -log softmax_y through a max-subtracted log-sum-exp,
    # so shifting every logit by c leaves it unchanged
    rng = random.Random(4)
    for _ in range(200):
        z = [rng.uniform(-5, 5) for _ in range(3)]
        c = rng.uniform(-50, 50)
        for y in range(3):
            ce1 = cross_entropy([const(v) for v in z], y)
            ce2 = cross_entropy([const(v + c) for v in z], y)
            assert abs(math.exp(-ce1.value) - math.exp(-ce2.value)) < 1e-12


def test_decompose_axis_aligned():
    params = _params(embed_dim=2)
    _set_matrix(params.classifier, [[1.0, 0.0], [0.0, 1.0]])
    h = [const(3.0), const(4.0)]
    d = decompose(h, 0, params)
    assert [n.value for n in d.h_par] == pytest.approx([3.0, 0.0], abs=1e-15)
    assert [n.value for n in d.h_perp] == pytest.approx([0.0, 4.0], abs=1e-15)


def test_decompose_parallel_case():
    params = _params(embed_dim=2)
    _set_matrix(params.classifier, [[1.0, 1.0], [0.0, 1.0]])
    h = [const(2.0), const(2.0)]
    d = decompose(h, 0, params)
    assert [n.value for n in d.h_perp] == pytest.approx([0.0, 0.0], abs=1e-15)


def test_decompose_hand_computed_projection():
    # h=(1,2), h_Y=(1,1): h.h_Y=3, |h_Y|^2=2 -> h_par=(1.5,1.5), h_perp=(-0.5,0.5)
    params = _params(embed_dim=2)
    _set_matrix(params.classifier, [[1.0, 1.0], [0.2, 0.1]])
    h = [const(1.0), const(2.0)]
    d = decompose(h, 0, params)
    assert [n.value for n in d.h_par] == pytest.approx([1.5, 1.5], abs=1e-12)
    assert [n.value for n in d.h_perp] == pytest.approx([-0.5, 0.5], abs=1e-12)


def test_decompose_degenerate_label_vector():
    params = _params(embed_dim=2)
    _set_matrix(params.classifier, [[0.0, 0.0], [1.0, 0.0]])
    with pytest.raises(DegenerateLabelVector):
        decompose([const(1.0), const(1.0)], 0, params)


def test_decompose_random_suite():
    rng = random.Random(5)
    for _ in range(1000):
        d = rng.randrange(2, 65)
        params = _params(n_classes=2, embed_dim=d, seed=rng.randrange(10**6))
        wy = [rng.uniform(-2, 2) for _ in range(d)]
        _set_matrix(params.classifier, [wy, [rng.uniform(-2, 2) for _ in range(d)]])
        hv = [rng.uniform(-2, 2) for _ in range(d)]
        h = [const(v) for v in hv]
        dec = decompose(h, 0, params)
        norm_h = math.sqrt(sum(v * v for v in hv))
        norm_w = math.sqrt(sum(v * v for v in wy))
        # reconstruction
        for hj, pj, qj in zip(h, dec.h_par, dec.h_perp):
            assert abs(pj.value + qj.value - hj.value) <= 1e-9
        # orthogonality
        ortho = sum(qj.value * wj for qj, wj in zip(dec.h_perp, wy))
        assert abs(ortho) <= 1e-9 * norm_h * norm_w
        # gold-logit preservation: w_y . h == w_y . h_par
        gold = sum(wj * hj.value for wj, hj in zip(wy, h))
        gold_par = sum(wj * pj.value for wj, pj in zip(wy, dec.h_par))
        assert abs(gold - gold_par) <= 1e-9 * max(1.0, abs(gold))


def test_decompose_shift_invariance():
    rng = random.Random(6)
    for _ in range(200):
        d = rng.randrange(2, 17)
        params = _params(embed_dim=d, seed=rng.randrange(10**6))
        wy = [rng.uniform(-2, 2) for _ in range(d)]
        _set_matrix(params.classifier, [wy, [rng.uniform(-2, 2) for _ in range(d)]])
        hv = [rng.uniform(-2, 2) for _ in range(d)]
        lam = rng.uniform(-3, 3)
        d1 = decompose([const(v) for v in hv], 0, params)
        shifted = [const(v + lam * w) for v, w in zip(hv, wy)]
        d2 = decompose(shifted, 0, params)
        for a, b in zip(d1.h_perp, d2.h_perp):
            assert abs(a.value - b.value) < 1e-9


def test_decompose_gradient_reaches_classifier():
    params = _params(embed_dim=2)
    _set_matrix(params.classifier, [[1.0, 1.0], [0.2, 0.1]])
    h = [const(1.0), const(2.0)]
    dec = decompose(h, 0, params)
    out = nsum([mul(n, n) for n in dec.h_perp])
    g = grad(out, params.classifier[0])
    assert any(v != 0.0 for v in g)


def test_predict_tie_break_and_argmax():
    # a zero classifier makes the logits equal the output bias in every row
    features = np.array([[1.0, 0.0, 0.0, 0.0, 0.0], [0.0, 0.5, 0.0, 0.5, 0.0]])
    for out_bias, expected in (
            ([0.0, 0.0], 0),             # uniform -> lowest index
            ([1.0, 0.0], 0),
            ([0.0, 1.0], 1),
            ([0.0, 1.0, 1.0], 1),        # tie between the top two -> the lower of them
            ([2.0, 0.5, 2.0], 0),
            ([-1.0, 0.0, 0.0], 1)):
        snap = _params(n_classes=len(out_bias), embed_dim=2).snapshot()
        snap.classifier[...] = 0.0
        snap.out_bias[...] = out_bias
        assert snap.predict_matrix(features).tolist() == [expected, expected], out_bias


def test_cross_entropy_values():
    z = [const(0.0), const(0.0)]
    assert cross_entropy(z, 0).value == pytest.approx(math.log(2.0), abs=1e-12)
    z = [const(10.0), const(0.0)]
    assert cross_entropy(z, 0).value == pytest.approx(math.log1p(math.exp(-10.0)), rel=1e-12)


def test_snapshot_matches_graph_forward():
    ds = generate_cad(GeneratorConfig(n_pairs=20, n_ood=10, seed=8))
    vocab = Vocab.from_examples(ds.train_examples())
    params = ModelParams(ModelConfig(vocab_size=vocab.size, embed_dim=6), seed=3)
    snap = params.snapshot()
    [X] = featurize_matrix(ds.ood, vocab)
    z_np = snap.logits_matrix(X)
    for i, ex in enumerate(ds.ood):
        h = encode(featurize_sparse(ex.tokens, vocab), params)
        z = logits(h, params)
        for k in range(2):
            assert z[k].value == pytest.approx(z_np[i, k], abs=1e-12)


def test_checkpoint_roundtrip_bit_exact(tmp_path):
    rng = random.Random(9)
    params = ModelParams(ModelConfig(vocab_size=7, embed_dim=4), seed=rng.randrange(10**6))
    # scramble values so they are not just the init distribution
    for p in params.flat():
        p.value = rng.uniform(-3, 3) * math.pi
    snap = params.snapshot()
    vocab = Vocab([f"t{i}" for i in range(6)])
    path = tmp_path / "ckpt.json"
    save_checkpoint(path, snap, vocab, extra={"epoch": 3})
    loaded, loaded_vocab, extra = load_checkpoint(path)
    assert np.array_equal(loaded.embedding, snap.embedding)
    assert np.array_equal(loaded.enc_bias, snap.enc_bias)
    assert np.array_equal(loaded.classifier, snap.classifier)
    assert np.array_equal(loaded.out_bias, snap.out_bias)
    assert loaded_vocab.tokens == vocab.tokens
    assert extra == {"epoch": 3}


# sha256 of the format-1 checkpoint below: its values are initial_values'
# pure-Python floats, so the bytes are the same on every host
PINNED_CHECKPOINT_SHA256 = "a6b57521b08f5ff1e96f58a9bb08a313f87c45ddf576c09ec3a8814d44a73ead"


def test_checkpoint_bytes_are_pinned(tmp_path):
    config = ModelConfig(vocab_size=5, n_classes=3, embed_dim=3)
    snap = Snapshot.from_flat(config, np.array(initial_values(config, 7)))
    path = tmp_path / "ckpt.json"
    save_checkpoint(path, snap, Vocab(["a", "b", "c", "d"]), extra={"epoch": 2})
    assert hashlib.sha256(path.read_bytes()).hexdigest() == PINNED_CHECKPOINT_SHA256
    payload = json.loads(path.read_text())
    assert payload["model"]["use_hidden"] is False
    assert payload["params"]["hidden"] is None and payload["params"]["hidden_bias"] is None
    # a checkpoint without the hidden layer's keys loads as one with them
    del payload["model"]["use_hidden"], payload["params"]["hidden"], payload["params"]["hidden_bias"]
    path.write_text(json.dumps(payload))
    loaded, vocab, extra = load_checkpoint(path)
    for name in config.param_shapes():
        assert np.array_equal(getattr(loaded, name), getattr(snap, name)), name
    assert vocab.tokens == ("a", "b", "c", "d") and extra == {"epoch": 2}


def test_model_config_validation():
    with pytest.raises(ValueError, match="vocab_size, n_classes and embed_dim must be positive"):
        ModelConfig(vocab_size=0)
    config = ModelConfig(vocab_size=4, n_classes=2, embed_dim=3)
    assert config.n_params() == 4 * 3 + 3 + 2 * 3 + 2
    for shape in ((config.n_params() + 1,), (2, config.n_params() - 1)):
        with pytest.raises(ValueError, match=re.escape(f"expected 23 parameters, got shape {shape}")):
            config.split(np.zeros(shape))


def test_checkpoint_rejects_unknown_version(tmp_path):
    path = tmp_path / "ckpt.json"
    path.write_text('{"format_version": 99}')
    with pytest.raises(ValueError):
        load_checkpoint(path)
