"""Tree-model substrate.

Implements the tree learners the paper's baselines depend on:

* :class:`DecisionTreeRegressor` — CART with variance-reduction splits;
* :class:`RandomForestRegressor` — bagged CART ensemble (base learner
  for the S-/T-/X-learner meta-baselines);
* :class:`CausalTree` / :class:`CausalForest` — honest trees splitting
  on treatment-effect heterogeneity (Athey & Imbens / Wager & Athey
  style), the TPM-CF baseline of the paper.
"""

from repro.trees.causal_forest import CausalForest
from repro.trees.causal_tree import CausalTree
from repro.trees.forest import RandomForestRegressor
from repro.trees.tree import DecisionTreeRegressor

__all__ = [
    "CausalForest",
    "CausalTree",
    "DecisionTreeRegressor",
    "RandomForestRegressor",
]
