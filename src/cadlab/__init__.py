"""cadlab: a training laboratory for counterfactually-augmented text classification.

Scalar autodiff with second-order support, a synthetic counterfactual-pair
generator, a bag-of-words classifier, an environment-invariance penalty plus a
pairwise orthogonal-component alignment penalty, and deterministic experiment
runners with feature-reliance probes.
"""

from .autodiff import GradientTape, Node, finite_diff_check, grad
from .data import (
    Example, FeatureGroups, GeneratedDataset, GeneratorConfig, PairedExample,
    Vocab, featurize, generate_cad, load_jsonl, partition_environments,
    read_dataset, write_dataset,
)
from .evaluation import (
    EvalReport, RelianceProbe, evaluate, myopia_probe, run_ablation,
    run_data_efficiency, sign_test_p,
)
from .losses import LossBreakdown, combined_loss, env_risk_omega_grad, irm_penalty, ocd_loss
from .model import (
    Decomposition, ModelConfig, ModelParams, Snapshot, decompose,
    load_checkpoint, save_checkpoint,
)
from .training import Checkpoint, TrainConfig, adam_step, make_batches, train

__version__ = "0.1.0"

__all__ = [
    "Checkpoint", "Decomposition", "EvalReport", "Example", "FeatureGroups",
    "GeneratedDataset", "GeneratorConfig", "GradientTape", "LossBreakdown",
    "ModelConfig", "ModelParams", "Node", "PairedExample", "RelianceProbe",
    "Snapshot", "TrainConfig", "Vocab", "adam_step", "combined_loss",
    "decompose", "env_risk_omega_grad", "evaluate", "featurize",
    "finite_diff_check", "generate_cad", "grad", "irm_penalty", "load_checkpoint",
    "load_jsonl", "make_batches", "myopia_probe", "ocd_loss",
    "partition_environments", "read_dataset", "run_ablation",
    "run_data_efficiency", "save_checkpoint", "sign_test_p", "train",
    "write_dataset",
]
