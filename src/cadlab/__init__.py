"""cadlab: a training laboratory for counterfactually-augmented text classification.

Scalar autodiff with second-order support, a synthetic counterfactual-pair
generator, a bag-of-words classifier, an environment-invariance penalty plus a
pairwise orthogonal-component alignment penalty, and deterministic experiment
runners with feature-reliance probes.
"""

__version__ = "0.1.0"
