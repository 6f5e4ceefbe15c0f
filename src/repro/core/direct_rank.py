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

from repro.core.drp import DRPModel
from repro.nn.activations import sigmoid, sigmoid_grad

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


class DirectRank(DRPModel):
    """DR model: DRP's MLP scorer trained with the soft-selection ratio loss.

    Everything but the loss is :class:`~repro.core.drp.DRPModel`'s: the
    network (one ELU hidden layer, dropout after it), input checks,
    ``fit``, ``predict_score``, ``predict_roi`` (``σ(ŝ)``: DR scores have
    no ROI semantics, but their sigmoid is the ranking the method
    deploys) and ``predict_roi_mc`` (the 'DR w/ MC' ablation arm).  DR
    fixes the training regime: one network (``n_restarts=1``) on every
    row (``val_fraction=0``) for all ``epochs`` (``patience=None``).

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
        super().__init__(
            hidden=hidden,
            dropout=dropout,
            epochs=epochs,
            batch_size=batch_size,
            learning_rate=learning_rate,
            weight_decay=weight_decay,
            patience=None,
            val_fraction=0.0,
            n_restarts=1,
            random_state=random_state,
        )
        self.kappa = float(kappa)

    def _batch_loss(self, pred: np.ndarray, batch: dict) -> tuple[float, np.ndarray]:
        value, grad = dr_loss(pred[:, 0], batch["t"], batch["y_r"], batch["y_c"], kappa=self.kappa)
        return value, grad.reshape(-1, 1)
