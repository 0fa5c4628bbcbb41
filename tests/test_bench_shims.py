"""The benchmark's timing shims (perfbench/spans.py) patch cadlab functions by
name. These tests install them against the current package, so a rename or
deletion under src/ fails here instead of breaking the traced benchmark run."""

import importlib.util
import pathlib
from dataclasses import replace

import pytest

from cadlab import autodiff, cli, data, evaluation, losses, model, training
from cadlab.data import GeneratorConfig, Vocab, generate_cad, partition_environments
from cadlab.model import ModelConfig, ModelParams
from cadlab.training import TrainConfig

SPANS = pathlib.Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"

# a sample of the names the shims wrap, one or more per layer
WRAPPED = [
    (data, "generate_cad"), (data, "read_dataset"), (cli, "read_dataset"),
    (cli, "load_jsonl"), (training, "featurize_matrix"), (evaluation, "featurize_matrix"),
    (training, "partition_environments"), (losses, "featurize_sparse"),
    (losses, "forward_examples"), (model.ModelParams, "snapshot"),
    (model.Snapshot, "predict_matrix"), (cli, "save_checkpoint"), (cli, "load_checkpoint"),
    (training, "combined_loss"), (losses, "prediction_loss"), (losses, "irm_penalty"),
    (losses, "ocd_loss"), (training, "grad"), (losses, "grad"), (autodiff, "GradientTape"),
    (training, "train"), (evaluation, "train"), (cli, "train"), (training, "adam_step"),
    (training, "make_batches"), (training, "train_accuracy"), (evaluation, "run_single"),
    (evaluation, "evaluate"), (evaluation, "myopia_probe"), (evaluation, "run_ablation"),
    (cli, "cmd_generate"), (cli, "cmd_train"), (cli, "cmd_eval"), (cli, "cmd_probe"),
]


@pytest.fixture()
def spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture()
def shims(spans, tmp_path):
    shims = spans.Shims(spans.Tracer(str(tmp_path)))
    try:
        shims.install()
        yield shims
    finally:
        shims.remove()


def test_install_wraps_every_name_and_remove_restores_it(spans, tmp_path):
    before = {(owner, attr): getattr(owner, attr) for owner, attr in WRAPPED}
    shims = spans.Shims(spans.Tracer(str(tmp_path)))
    try:
        shims.install()          # raises AttributeError if a wrapped name is gone
        replaced = [(owner, attr, orig) for owner, attr, orig in shims._undo]
        for owner, attr in WRAPPED:
            assert getattr(owner, attr) is not before[(owner, attr)], f"{owner}.{attr}"
    finally:
        shims.remove()
    for owner, attr in WRAPPED:
        assert getattr(owner, attr) is before[(owner, attr)], f"{owner}.{attr}"
    for owner, attr, orig in replaced:
        assert getattr(owner, attr) is orig, f"{owner}.{attr}"


def test_shimmed_calls_record_spans(shims):
    """The span attributes read arguments and results by position; run the
    scalar reference step and a small ablation through them."""
    tracer = shims.tracer
    ds = generate_cad(GeneratorConfig(n_pairs=6, n_ood=4, seed=1))
    vocab = Vocab.from_examples(ds.train_examples())
    params = ModelParams(ModelConfig(vocab_size=vocab.size, embed_dim=3), seed=2)
    batch = ds.train_examples()
    pairs = [(u.original, u.counterfactual) for u in ds.train_pairs]
    envs = partition_environments(batch, 1.6, "disjoint")
    total, _ = training.combined_loss(batch, pairs, envs, params, vocab, 1.6, 0.1)
    training.grad(total, params.flat())
    config = TrainConfig(epochs=1, batch_pairs=2, embed_dim=3)
    result = evaluation.run_ablation(config, ds, [0, 1], workers=1)
    assert len(result["rows"]) == 8
    # the ablation trains each seed's arms as one stack, not through train
    for _, changes in evaluation.ABLATION_ARMS:
        training.train(replace(config, **changes), ds.train_pairs, vocab)

    by_name = {}
    for span in tracer.spans:
        by_name.setdefault(span[2], []).append(span)
    assert by_name["losses.l_ocd"][0][7] == {"used": len(pairs), "attempted": len(pairs)}
    assert by_name["losses.combined"][0][7] == {"examples": len(batch)}
    assert {"autodiff.grad", "autodiff.grad2", "autodiff.toposort", "autodiff.backward",
            "evaluation.run_single", "evaluation.probe", "model.predict_matrix",
            "training.make_batches", "training.train_accuracy",
            "data.featurize_matrix"} <= set(by_name)
    arms = {span[7]["arm"] for span in by_name["training.train"]}
    assert arms == {"full", "no_irm", "no_ocd", "neither"}
    assert not tracer.stack
