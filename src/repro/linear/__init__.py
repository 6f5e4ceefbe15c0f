"""Linear-model substrate: closed-form ridge regression.

A base learner for the meta-learner uplift baselines (S-/T-/X-learner,
through their ``base_factory``); ``partial_fit`` folds a new batch
into its sufficient statistics, so batched fits equal one-shot ones.
"""

from repro.linear.ridge import RidgeRegression

__all__ = ["RidgeRegression"]
