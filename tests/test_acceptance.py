"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s`. The heavy experiment (the
four-arm ablation at 2000 pairs x 10 seeds) runs once in a session fixture
and backs two tests. C5 checks the myopia reproduction (C5a) and the
runtime budget, and passes. C6 checks the full objective against its
ablated arms: the non-edited reliance increase (C5b), the OOD improvement
over the plain arm (C5c) and the ablation directionality (C6). It fails,
because on exactly mirrored pairs no loss term can tell a non-edited causal
token from a spurious one (README, 'What the experiments show').

One more test pins a known defect rather than a criterion, as an expected
failure: the full objective's train accuracy collapses after it first fits
(ROADMAP item 2).
"""

import json
import math
import random
import time
from dataclasses import replace

import numpy as np
import pytest

from cadlab.autodiff import const, finite_diff_check, grad
from cadlab.cli import main as cli_main
from cadlab.data import (
    GeneratorConfig, Vocab, featurize_sparse, generate_cad, partition_environments,
)
from cadlab.evaluation import run_ablation, run_data_efficiency, sign_test_p
from cadlab.losses import ForwardExample, combined_loss, env_risk_omega_grad, irm_penalty
from cadlab.model import (
    ModelConfig, ModelParams, cross_entropy, decompose, encode, logits,
)
from cadlab.training import AdamState, TrainConfig, adam_step, make_batches, train, train_arms

SEEDS = list(range(10))
ACCEPT_GEN = GeneratorConfig(n_pairs=2000, rho_train=0.9, edit_scope=0.5,
                             n_ood=1000, seed=2024)
ACCEPT_TRAIN = TrainConfig(alpha=1.6, beta=0.1, learning_rate=1e-3,
                           batch_pairs=16, epochs=4, embed_dim=8,
                           env_mode="disjoint")


def _report(criterion: str, ok: bool, detail: str) -> bool:
    print(f"[{'PASS' if ok else 'FAIL'}] {criterion}: {detail}")
    return ok


@pytest.fixture(scope="session")
def ablation_result():
    dataset = generate_cad(ACCEPT_GEN)
    t0 = time.monotonic()
    result = run_ablation(ACCEPT_TRAIN, dataset, SEEDS, workers=2)
    result["elapsed_seconds"] = time.monotonic() - t0
    return result


# -------------------------------------------------------------------- C1

def test_c1_gradient_correctness_of_combined_loss():
    """Analytic gradient of the combined objective (alpha=beta=0.1) on a
    <=1000-parameter model and an 8-example whole-pair batch vs central
    finite differences at step 1e-4; max relative error < 1e-4, under 10 s."""
    t0 = time.monotonic()
    ds = generate_cad(GeneratorConfig(
        n_pairs=4, n_ood=4, sentence_length=8, seed=77,
        tokens_per_group={"edited": 2, "nonedited": 2, "correlated": 2, "noise": 4}))
    examples = ds.train_examples()
    vocab = Vocab.from_examples(examples)
    cfg = ModelConfig(vocab_size=vocab.size, embed_dim=6)
    params = ModelParams(cfg, seed=13)
    n_params = params.n_params()
    assert n_params <= 1000

    batch = examples                       # 4 pairs -> 8 examples
    pairs = [(u.original, u.counterfactual) for u in ds.train_pairs]
    envs = partition_environments(batch, alpha=0.1)

    def build(leaves):
        p2 = ModelParams.from_leaves(cfg, leaves)
        total, _ = combined_loss(batch, pairs, envs, p2, vocab, 0.1, 0.1)
        return total

    point = [p.value for p in params.flat()]
    err = finite_diff_check(build, point, 1e-4)
    elapsed = time.monotonic() - t0
    ok = err < 1e-4 and elapsed < 10.0
    assert _report("C1 gradient correctness",
                   ok, f"{n_params} params, max rel err {err:.3e} (<1e-4), {elapsed:.1f}s (<10s)")


# -------------------------------------------------------------------- C2

def _omega_grad_closed_form(rows, labels):
    z = np.asarray(rows, dtype=np.float64)
    zs = z - z.max(axis=1, keepdims=True)
    p = np.exp(zs)
    p /= p.sum(axis=1, keepdims=True)
    per = (p * z).sum(axis=1) - z[np.arange(len(labels)), labels]
    return per.mean()


def test_c2_irm_oracle_equivalence():
    """Autodiff omega-gradient vs the closed form on 100 random batches
    (<=1e-8 absolute) and penalty == sum of squared gradients (<=1e-12)."""
    rng = random.Random(2202)
    worst_g = 0.0
    worst_p = 0.0
    for _ in range(100):
        envs = {}
        gs = {}
        for name in ("e_ori", "e_cad"):
            n = rng.randrange(1, 9)
            k = rng.randrange(2, 5)
            rows = [[rng.uniform(-4, 4) for _ in range(k)] for _ in range(n)]
            labels = [rng.randrange(k) for _ in range(n)]
            fwds = []
            for r, y in zip(rows, labels):
                from cadlab.data import Example
                ex = Example(id="x", tokens=("t",), label=y, pair_id="x", variant="original")
                fwds.append(ForwardExample(ex, h=[], z=[const(v) for v in r]))
            envs[name] = fwds
            g_auto = env_risk_omega_grad(fwds).value
            g_oracle = _omega_grad_closed_form(rows, labels)
            worst_g = max(worst_g, abs(g_auto - g_oracle))
            gs[name] = g_auto
        pen = irm_penalty(envs).value
        worst_p = max(worst_p, abs(pen - (gs["e_ori"] ** 2 + gs["e_cad"] ** 2)))
    ok = worst_g < 1e-8 and worst_p <= 1e-12
    assert _report("C2 invariance-penalty oracle",
                   ok, f"max |autodiff - closed form| {worst_g:.2e} (<1e-8), "
                       f"max penalty mismatch {worst_p:.2e} (<=1e-12)")


# -------------------------------------------------------------------- C3

def test_c3_decomposition_suite():
    """1000 random (h, label vector) draws at d <= 64: reconstruction,
    orthogonality, gold-logit preservation, and shift invariance."""
    rng = random.Random(3303)
    worst_recon = worst_ortho = worst_gold = worst_shift = 0.0
    for _ in range(1000):
        d = rng.randrange(2, 65)
        params = ModelParams(ModelConfig(vocab_size=3, embed_dim=d), seed=rng.randrange(10**6))
        wy = [rng.uniform(-2, 2) for _ in range(d)]
        for p, v in zip(params.classifier[0], wy):
            p.value = v
        hv = [rng.uniform(-2, 2) for _ in range(d)]
        dec = decompose([const(v) for v in hv], 0, params)
        norm_h = math.sqrt(sum(v * v for v in hv))
        norm_w = math.sqrt(sum(v * v for v in wy))
        worst_recon = max(worst_recon, max(
            abs(p.value + q.value - h) for p, q, h in zip(dec.h_par, dec.h_perp, hv)))
        ortho = abs(sum(q.value * w for q, w in zip(dec.h_perp, wy)))
        worst_ortho = max(worst_ortho, ortho / max(norm_h * norm_w, 1e-30))
        gold = sum(w * h for w, h in zip(wy, hv))
        gold_par = sum(w * p.value for w, p in zip(wy, dec.h_par))
        worst_gold = max(worst_gold, abs(gold - gold_par))
        lam = rng.uniform(-3, 3)
        shifted = [const(h + lam * w) for h, w in zip(hv, wy)]
        dec2 = decompose(shifted, 0, params)
        worst_shift = max(worst_shift, max(
            abs(a.value - b.value) for a, b in zip(dec.h_perp, dec2.h_perp)))
    ok = worst_recon <= 1e-9 and worst_ortho <= 1e-9 and worst_gold <= 1e-9 * 64 and worst_shift <= 1e-9
    assert _report("C3 decomposition suite",
                   ok, f"recon {worst_recon:.1e}, ortho {worst_ortho:.1e}, "
                       f"gold-logit {worst_gold:.1e}, shift {worst_shift:.1e} (all <=1e-9 scale)")


# -------------------------------------------------------------------- C4

def test_c4_erm_reduction():
    """alpha=beta=0 training equals a plain cross-entropy reference loop
    step for step within 1e-12 over 3 epochs on 200 pairs."""
    ds = generate_cad(GeneratorConfig(n_pairs=200, n_ood=10, seed=404))
    cfg = TrainConfig(alpha=0.0, beta=0.0, learning_rate=1e-3, batch_pairs=16,
                      epochs=3, embed_dim=8, seed=5)
    _, log = train(cfg, ds.train_pairs)

    from cadlab.autodiff import nsum, scale
    vocab = Vocab.from_examples(ds.train_examples())
    params = ModelParams(ModelConfig(vocab_size=vocab.size, embed_dim=8), seed=5)
    flat = params.flat()
    state = AdamState.zeros(len(flat))
    ref = []
    for epoch in range(cfg.epochs):
        for batch in make_batches(ds.train_pairs, cfg.batch_pairs, cfg.seed, epoch):
            members = [m for u in batch for m in u.members()]
            ces = [cross_entropy(logits(encode(featurize_sparse(ex.tokens, vocab), params),
                                        params), ex.label)
                   for ex in members]
            loss = scale(nsum(ces), 1.0 / len(ces))
            ref.append(loss.value)
            adam_step(flat, grad(loss, flat), state, cfg.learning_rate)
    assert len(ref) == len(log.steps)
    worst = max(abs(r - b.total) for r, b in zip(ref, log.steps))
    ok = worst <= 1e-12
    assert _report("C4 plain-training reduction",
                   ok, f"{len(ref)} steps, max |loss diff| {worst:.2e} (<=1e-12)")


# -------------------------------------------------------------------- C5

def _arm_rows(ablation_result, arm):
    return {r["seed"]: r for r in ablation_result["rows"] if r["arm"] == arm}


def _checkpoint_epochs(rows):
    return {r["checkpoint_epoch"] for r in rows}


def test_c5_myopia_reproduction(ablation_result):
    """Default synthetic config, 10 seeds: (a) the plain-trained baseline
    (the `neither` arm) relies on edited features more than non-edited ones
    in >=8/10 seeds; the 4-arm ablation behind C5 and C6 runs within a
    5-minute budget. This is the paper's first claim, that CAD causes the
    myopia phenomenon, and it passes. Whether the constraints then recover
    non-edited reliance (C5b) and improve OOD accuracy (C5c) compares the
    full objective with an ablated arm, so it is checked in C6."""
    base = _arm_rows(ablation_result, "neither")
    elapsed = ablation_result["elapsed_seconds"]

    a_wins = sum(1 for s in SEEDS
                 if base[s]["drop_edited_causal"] > base[s]["drop_nonedited_causal"])
    ok_a = a_wins >= 8
    _report("C5a myopia in the baseline", ok_a,
            f"edited drop > non-edited drop in {a_wins}/10 seeds (>=8); "
            f"checkpoint epochs {_checkpoint_epochs(base.values())}")

    ok_t = elapsed < 300.0
    _report("C5 runtime", ok_t, f"{elapsed:.0f}s for the 4-arm superset (<300s)")

    assert ok_a and ok_t, (
        f"myopia reproduction failed: C5a {a_wins}/10 seeds (>=8), "
        f"runtime {elapsed:.0f}s (<300s)")


# -------------------------------------------------------------------- C6

def test_c6_ablation_directionality(ablation_result):
    """The full objective against its ablated arms, 10 seeds: (C5b) it
    increases mean non-edited reliance over the plain `neither` arm; (C5c) it
    beats `neither` on mean OOD accuracy in >=8/10 seeds with sign-test
    p < 0.05; (C6) its mean OOD accuracy is >= each single-constraint
    ablation (`no_irm`, `no_ocd`).

    This fails on the synthetic pairs, and the failure is the honest result
    (README, 'What the experiments show'): the pairs are exactly mirrored, so
    every kept token occurs equally often under both labels, and a non-edited
    token carries its class's label in e_ori and the other label in e_cad.
    No loss term can then tell a non-edited causal token from a rho=1
    spurious one; test_data.py checks that property of the data. Every run
    keeps its epoch-0 snapshot (train accuracy is 1.0 after one epoch and the
    earliest tied epoch wins), as the printed checkpoint epochs show."""
    full = _arm_rows(ablation_result, "full")
    base = _arm_rows(ablation_result, "neither")
    compared_epochs = _checkpoint_epochs([*full.values(), *base.values()])
    failures = []

    mean_full_u = sum(full[s]["drop_nonedited_causal"] for s in SEEDS) / len(SEEDS)
    mean_base_u = sum(base[s]["drop_nonedited_causal"] for s in SEEDS) / len(SEEDS)
    ok_b = mean_full_u > mean_base_u
    detail_b = f"mean non-edited drop {mean_full_u:+.4f} vs baseline {mean_base_u:+.4f}"
    _report("C5b non-edited reliance increase", ok_b,
            f"{detail_b}; checkpoint epochs {compared_epochs}")
    if not ok_b:
        failures.append(f"C5b {detail_b} (must be higher)")

    wins = sum(1 for s in SEEDS if full[s]["mean_ood"] > base[s]["mean_ood"])
    losses = sum(1 for s in SEEDS if full[s]["mean_ood"] < base[s]["mean_ood"])
    p = sign_test_p(wins, losses)
    ok_c = wins >= 8 and p < 0.05
    detail_c = f"wins {wins}/10 (>=8), sign-test p {p:.4f} (<0.05)"
    _report("C5c OOD improvement", ok_c,
            f"{detail_c}; checkpoint epochs {compared_epochs}")
    if not ok_c:
        failures.append(f"C5c {detail_c}")

    summary = ablation_result["summary"]
    full_ood = summary["full"]["mean_ood"]
    no_irm = summary["no_irm"]["mean_ood"]
    no_ocd = summary["no_ocd"]["mean_ood"]
    ok_6 = full_ood >= no_irm and full_ood >= no_ocd
    detail_6 = (f"full {full_ood:.4f} vs no_irm {no_irm:.4f} and no_ocd {no_ocd:.4f} "
                f"(neither {summary['neither']['mean_ood']:.4f})")
    _report("C6 ablation directionality", ok_6,
            f"{detail_6}; checkpoint epochs {_checkpoint_epochs(ablation_result['rows'])}")
    if not ok_6:
        failures.append(f"C6 {detail_6} (full must be >= no_irm and no_ocd)")

    assert not failures, (
        "; ".join(failures) + ". On exactly mirrored pairs no loss term rewards "
        "non-edited reliance; see README 'What the experiments show'")


# -------------------------------------------------------------------- C7

def test_c7_data_efficiency_runner():
    """Complete (size x arm x seed) table for sizes {100,200,400,800} with
    the structural guarantees on arm composition."""
    ds = generate_cad(ACCEPT_GEN)
    cfg = TrainConfig(alpha=1.6, beta=0.1, learning_rate=1e-3, batch_pairs=16,
                      epochs=2, embed_dim=8)
    sizes = [100, 200, 400, 800]
    seeds = [0, 1]
    result = run_data_efficiency(cfg, ds, sizes, seeds, workers=2)
    rows = result["rows"]
    ok = len(rows) == len(sizes) * 3 * len(seeds)
    combos = {(r["size"], r["arm"], r["seed"]) for r in rows}
    ok = ok and len(combos) == len(rows)
    for r in rows:
        ok = ok and r["n_train_examples"] == r["size"]
        if r["arm"] == "erm_unaugmented":
            ok = ok and r["n_counterfactuals"] == 0
        else:
            ok = ok and r["n_counterfactuals"] == r["size"] // 2
        ok = ok and 0.0 <= r["mean_ood"] <= 1.0
    assert _report("C7 data-efficiency runner", ok,
                   f"{len(rows)} rows = {len(sizes)} sizes x 3 arms x {len(seeds)} seeds, "
                   "sizes and augmentation accounting verified")


# -------------------------------------------------------------------- C8

def test_c8_cli_determinism(tmp_path):
    """Identical seed/config/data give byte-identical CSV/JSON artifacts."""
    gen_cfg = tmp_path / "gen.json"
    gen_cfg.write_text(json.dumps({"n_pairs": 24, "n_ood": 16, "seed": 88}))
    train_cfg = tmp_path / "train.json"
    train_cfg.write_text(json.dumps({"alpha": 1.6, "beta": 0.1, "epochs": 1,
                                     "batch_pairs": 8, "embed_dim": 4}))

    def run_everything(root):
        data = root / "data"
        assert cli_main(["generate", "--config", str(gen_cfg), "--out", str(data)]) == 0
        assert cli_main(["train", "--config", str(train_cfg), "--data", str(data),
                         "--out", str(root / "run"), "--seed", "9"]) == 0
        assert cli_main(["eval", "--checkpoint", str(root / "run" / "checkpoint.json"),
                         "--data", str(data / "ood.jsonl"),
                         "--out", str(root / "eval.json")]) == 0
        assert cli_main(["probe", "--checkpoint", str(root / "run" / "checkpoint.json"),
                         "--data", str(data / "ood.jsonl"),
                         "--out", str(root / "probe.json")]) == 0
        assert cli_main(["ablate", "--config", str(train_cfg), "--data", str(data),
                         "--seeds", "0,1", "--out", str(root / "ablation")]) == 0
        return [
            data / "train.jsonl", data / "ood.jsonl", data / "ood_stress.jsonl",
            data / "groups.json", root / "run" / "checkpoint.json",
            root / "run" / "train_log.csv", root / "run" / "epoch_summary.csv",
            root / "eval.json", root / "probe.json",
            root / "ablation" / "ablation.csv", root / "ablation" / "ablation.json",
        ]

    files1 = run_everything(tmp_path / "one")
    files2 = run_everything(tmp_path / "two")
    mismatched = [f1.name for f1, f2 in zip(files1, files2)
                  if f1.read_bytes() != f2.read_bytes()]
    ok = not mismatched
    assert _report("C8 deterministic reports", ok,
                   f"{len(files1)} artifacts byte-identical across reruns"
                   + (f"; mismatched: {mismatched}" if mismatched else ""))


@pytest.mark.xfail(strict=True, reason=(
    "FOUND in CHANGES.md: at alpha 1.6 the full objective's train accuracy collapses "
    "from 1.0 after it first fits, and the epoch-0 checkpoint hides it (ROADMAP item 2)"))
def test_train_accuracy_does_not_fall_after_it_first_fits():
    """Per-epoch train accuracy does not fall after the first epoch at which
    it reaches 1.0: alpha 1.6 against alpha 0 in one stack, on a small
    config where both fit. An expected failure until the collapse is fixed;
    never delete it."""
    dataset = generate_cad(replace(ACCEPT_GEN, n_pairs=400, n_ood=10))
    falls = []
    for seed in range(3):
        full = replace(ACCEPT_TRAIN, learning_rate=3e-3, epochs=8, seed=seed)
        configs = [full, replace(full, alpha=0.0)]
        for config, (_, log) in zip(configs, train_arms(configs, dataset.train_pairs)):
            accs = [e.train_accuracy for e in log.epochs]
            fitted = accs[accs.index(1.0):] if 1.0 in accs else []
            if min(fitted, default=1.0) < 1.0:
                falls.append((seed, config.alpha, accs))
    for seed, alpha, accs in falls:
        print(f"seed {seed}, alpha {alpha}: train accuracy by epoch {accs}")
    assert not falls
