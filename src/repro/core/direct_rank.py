"""Direct Rank (DR) baseline — Du, Lee & Ghaffarizadeh (2019).

DR learns a score ``s(x)`` whose *soft selection* ``w = σ(s)`` should
maximise the ratio of incremental reward to incremental cost of the
selected set:

    R(w) = (1/N₁) Σ_{t=1} w_i y_r,i − (1/N₀) Σ_{t=0} w_i y_r,i
    C(w) = (1/N₁) Σ_{t=1} w_i y_c,i − (1/N₀) Σ_{t=0} w_i y_c,i
    loss = − R(w) / (C(w) + κ)

The ratio objective is **non-convex**; as the paper notes (citing
Appendix E of the DRP paper), it need not recover the correct ROI
ranking at convergence — which is precisely why DR trails DRP in the
benchmarks.  ``κ`` keeps the denominator away from zero early in
training.
"""

from __future__ import annotations

import numpy as np

from repro.causal.base import TrainableModel

from repro.nn.activations import sigmoid, sigmoid_grad
from repro.nn.mc_dropout import mc_dropout_moments
from repro.nn.network import Network, mlp, stochastic_passes
from repro.nn.optimizers import Adam
from repro.utils.rng import as_generator
from repro.utils.validation import (
    check_1d,
    check_2d,
    check_binary,
    check_consistent_length,
)

__all__ = ["DirectRank", "dr_loss"]


def dr_loss(
    s: np.ndarray,
    t: np.ndarray,
    y_r: np.ndarray,
    y_c: np.ndarray,
    kappa: float = 0.05,
) -> tuple[float, np.ndarray]:
    """DR ratio loss and its gradient with respect to ``s``.

    Returns ``(value, grad)``; see the module docstring for the form.
    """
    s = np.asarray(s, dtype=float).ravel()
    t = np.asarray(t).ravel()
    y_r = np.asarray(y_r, dtype=float).ravel()
    y_c = np.asarray(y_c, dtype=float).ravel()
    n1 = max(int(np.sum(t == 1)), 1)
    n0 = max(int(np.sum(t == 0)), 1)
    a = np.where(t == 1, 1.0 / n1, -1.0 / n0)

    w = sigmoid(s)
    reward = float(np.sum(a * w * y_r))
    cost = float(np.sum(a * w * y_c))
    denom = cost + kappa
    if abs(denom) < 1e-12:
        denom = np.sign(denom) * 1e-12 if denom != 0 else 1e-12
    value = -reward / denom

    # d(-R/C)/dw_i = -(R'_i * denom - reward * C'_i) / denom^2
    d_reward = a * y_r
    d_cost = a * y_c
    grad_w = -(d_reward * denom - reward * d_cost) / (denom * denom)
    grad = grad_w * sigmoid_grad(s)
    return value, grad


class DirectRank(TrainableModel):
    """DR model: MLP scorer trained with the soft-selection ratio loss.

    The public surface mirrors :class:`~repro.core.drp.DRPModel` so the
    benchmark harness can treat both uniformly; ``predict_roi`` returns
    ``σ(ŝ)`` — DR scores have no ROI semantics, but their sigmoid is
    the ranking the method deploys.

    Parameters
    ----------
    hidden, dropout, epochs, batch_size, learning_rate, weight_decay:
        As in :class:`~repro.core.drp.DRPModel`.
    kappa:
        Denominator stabiliser of the ratio loss.
    """

    def __init__(
        self,
        hidden: int = 64,
        dropout: float = 0.1,
        epochs: int = 80,
        batch_size: int = 256,
        learning_rate: float = 1e-3,
        weight_decay: float = 1e-5,
        kappa: float = 0.05,
        random_state: int | np.random.Generator | None = None,
    ) -> None:
        if kappa <= 0:
            raise ValueError(f"kappa must be > 0, got {kappa}")
        self.hidden = int(hidden)
        self.dropout = float(dropout)
        self.epochs = int(epochs)
        self.batch_size = int(batch_size)
        self.learning_rate = float(learning_rate)
        self.weight_decay = float(weight_decay)
        self.kappa = float(kappa)
        self.random_state = random_state
        self.network_: Network | None = None
        self._n_features: int | None = None

    def fit(self, x, t, y_r, y_c) -> "DirectRank":
        x = check_2d(x)
        t = check_binary(t)
        y_r = check_1d(y_r, "y_r")
        y_c = check_1d(y_c, "y_c")
        check_consistent_length(x, t, y_r, y_c, names=("X", "t", "y_r", "y_c"))
        if np.all(t == 1) or np.all(t == 0):
            raise ValueError("Both treated and control samples are required to fit DR")
        self._n_features = x.shape[1]
        rng = as_generator(self.random_state)
        self.network_ = mlp(
            x.shape[1],
            [self.hidden],
            output_dim=1,
            activation="elu",
            dropout=self.dropout,
            rng=rng,
        )

        def batch_loss(pred: np.ndarray, batch: dict) -> tuple[float, np.ndarray]:
            value, grad = dr_loss(
                pred[:, 0], batch["t"], batch["y_r"], batch["y_c"], kappa=self.kappa
            )
            return value, grad.reshape(-1, 1)

        self.network_.fit(
            x,
            {"t": t, "y_r": y_r, "y_c": y_c},
            loss=batch_loss,
            optimizer=Adam(self.learning_rate, weight_decay=self.weight_decay),
            epochs=self.epochs,
            batch_size=self.batch_size,
            rng=rng,
        )
        return self

    def _checked(self, x) -> np.ndarray:
        if self.network_ is None:
            raise RuntimeError("DirectRank is not fitted; call fit() first")
        x = check_2d(x)
        if x.shape[1] != self._n_features:
            raise ValueError(
                f"X has {x.shape[1]} features but the model was fitted with {self._n_features}"
            )
        return x

    def predict_score(self, x) -> np.ndarray:
        x = self._checked(x)
        return self.network_.predict(x)[:, 0]

    def predict_roi(self, x) -> np.ndarray:
        """Ranking surrogate ``σ(ŝ)`` (no calibrated ROI semantics)."""
        return sigmoid(self.predict_score(x))

    def predict_roi_mc(
        self, x, n_samples: int = 30, std_floor: float = 1e-4
    ) -> tuple[np.ndarray, np.ndarray]:
        """MC-dropout mean/std of ``σ(ŝ)`` — the 'DR w/ MC' ablation arm."""
        x = self._checked(x)
        return mc_dropout_moments(
            lambda: sigmoid(stochastic_passes([self.network_], x, n_samples)), n_samples, std_floor
        )
