"""Direct ROI Prediction (DRP) — Zhou et al., AAAI 2023, Eq. 2 here.

DRP trains a small MLP ``ŝ = ℏ(x)`` with the convex loss

    L(s) = −[ (1/N₁) Σ_{t=1} (y_r ln(roî/(1−roî)) + y_c ln(1−roî))
            − (1/N₀) Σ_{t=0} (y_r ln(roî/(1−roî)) + y_c ln(1−roî)) ],
    roî = σ(ŝ).

Using ``ln(roî/(1−roî)) = ŝ`` and ``ln(1−roî) = −softplus(ŝ)``, the
per-sample contribution is ``g(s) = y_r·s − y_c·softplus(s)`` and the
gradient is ``∂L/∂s_i = −w_i (y_{r,i} − y_{c,i} σ(s_i))`` with
``w_i = +1/N₁`` (treated) or ``−1/N₀`` (control).  Setting the pooled
population derivative to zero yields ``σ(s*) = τ_r/τ_c`` — the
unbiasedness at convergence the paper leans on, and the property
Algorithm 2's binary search exploits.
"""

from __future__ import annotations

import numpy as np

from repro.causal.base import TrainableModel

from repro.nn.activations import sigmoid, softplus
from repro.nn.mc_dropout import mc_dropout_moments
from repro.nn.network import Network, TrainingHistory, mlp, stochastic_passes
from repro.nn.optimizers import Adam
from repro.utils.rng import as_generator
from repro.utils.validation import (
    check_1d,
    check_2d,
    check_binary,
    check_consistent_length,
)

__all__ = ["DRPModel", "drp_loss", "drp_loss_gradient", "drp_pooled_derivative"]


def _group_weights(t: np.ndarray) -> np.ndarray:
    """Per-sample weights ``+1/N₁`` (treated) / ``−1/N₀`` (control)."""
    n1 = max(int(np.sum(t == 1)), 1)
    n0 = max(int(np.sum(t == 0)), 1)
    return np.where(t == 1, 1.0 / n1, -1.0 / n0)


def drp_loss(s: np.ndarray, t: np.ndarray, y_r: np.ndarray, y_c: np.ndarray) -> float:
    """Eq. 2 evaluated at per-sample scores ``s`` (numerically stable)."""
    s = np.asarray(s, dtype=float).ravel()
    w = _group_weights(np.asarray(t).ravel())
    contrib = np.asarray(y_r, dtype=float) * s - np.asarray(y_c, dtype=float) * softplus(s)
    return float(-np.sum(w * contrib))


def drp_loss_gradient(
    s: np.ndarray, t: np.ndarray, y_r: np.ndarray, y_c: np.ndarray
) -> np.ndarray:
    """``∂L/∂s_i = −w_i (y_{r,i} − y_{c,i} σ(s_i))``."""
    s = np.asarray(s, dtype=float).ravel()
    w = _group_weights(np.asarray(t).ravel())
    return -w * (np.asarray(y_r, dtype=float) - np.asarray(y_c, dtype=float) * sigmoid(s))


def drp_pooled_derivative(
    roi: float, t: np.ndarray, y_r: np.ndarray, y_c: np.ndarray
) -> float:
    """Derivative of the pooled loss at a shared score ``s = σ⁻¹(roi)``.

    Evaluates ``L'(s) = −τ̂_r + τ̂_c · roi`` where ``τ̂_r, τ̂_c`` are the
    difference-in-means uplift estimates on the given sample.  This is
    the quantity Algorithm 2 bisects: it is monotone increasing in
    ``roi`` whenever ``τ̂_c > 0`` (Assumption 4) and crosses zero at
    ``roi = τ̂_r / τ̂_c``.
    """
    tau_r, tau_c = _pooled_uplift(t, y_r, y_c)
    return -tau_r + tau_c * float(roi)


def _pooled_uplift(t: np.ndarray, y_r: np.ndarray, y_c: np.ndarray) -> tuple[float, float]:
    """The difference-in-means uplifts ``(τ̂_r, τ̂_c)`` of a pooled sample."""
    t = np.asarray(t).ravel()
    y_r = np.asarray(y_r, dtype=float).ravel()
    y_c = np.asarray(y_c, dtype=float).ravel()
    treated = t == 1
    control = ~treated
    n1 = int(np.count_nonzero(treated))
    n0 = treated.shape[0] - n1
    if not n1 or not n0:
        raise ValueError("Both treated and control samples are required")
    # each arm's mean is np.mean's own sum and division, without its
    # per-call overhead (the pacer computes these every refresh)
    tau_r = float(np.add.reduce(y_r[treated]) / n1 - np.add.reduce(y_r[control]) / n0)
    tau_c = float(np.add.reduce(y_c[treated]) / n1 - np.add.reduce(y_c[control]) / n0)
    return tau_r, tau_c


def _drp_batch_loss(pred: np.ndarray, batch: dict) -> tuple[float, np.ndarray]:
    """Adapter plugging Eq. 2 into :meth:`repro.nn.network.Network.fit`."""
    s = pred[:, 0]
    t = batch["t"]
    y_r = batch["y_r"]
    y_c = batch["y_c"]
    value = drp_loss(s, t, y_r, y_c)
    grad = drp_loss_gradient(s, t, y_r, y_c).reshape(-1, 1)
    return value, grad


class DRPModel(TrainableModel):
    """Direct ROI Prediction model.

    A one-hidden-layer MLP (10–100 units in the paper; default 64)
    trained with the convex Eq. 2 loss.  Dropout is placed after the
    hidden activation; it is inactive for point prediction and only
    sampled by :meth:`predict_roi_mc` (MC dropout, §IV-C2).

    Parameters
    ----------
    hidden:
        Hidden-layer width.
    dropout:
        Dropout rate used by MC-dropout inference.
    epochs, batch_size, learning_rate, weight_decay, patience:
        Training controls; ``patience`` enables early stopping with
        best-weights restoration.
    val_fraction:
        Fraction of the training data held out to monitor the Eq. 2
        loss for early stopping.  This matters for DRP specifically:
        the *per-sample* loss is linear in ``s`` and unbounded below
        (like logistic loss on separable data), so the training loss
        decreases forever while the network saturates its scores on
        outcome noise; only a held-out loss reveals the generalising
        convergence point.  Set to 0 to monitor the training loss.
    n_restarts:
        Number of independently initialised networks trained; point
        predictions average the networks' scores and MC-dropout passes
        pool across them.  Shallow nets on weak uplift signal
        occasionally converge to a bad basin (§IV-B2's "initial
        weights" sensitivity); a small restart ensemble removes that
        failure mode without changing the architecture.
    random_state:
        Seed/generator for weights, dropout and shuffling.
    """

    def __init__(
        self,
        hidden: int = 64,
        dropout: float = 0.1,
        epochs: int = 80,
        batch_size: int = 256,
        learning_rate: float = 1e-3,
        weight_decay: float = 1e-4,
        patience: int | None = 10,
        val_fraction: float = 0.2,
        n_restarts: int = 3,
        random_state: int | np.random.Generator | None = None,
    ) -> None:
        if not 10 <= hidden <= 512:
            raise ValueError(f"hidden should be a small MLP width (10..512), got {hidden}")
        if not 0.0 <= dropout < 1.0:
            raise ValueError(f"dropout must be in [0, 1), got {dropout}")
        if not 0.0 <= val_fraction < 0.5:
            raise ValueError(f"val_fraction must be in [0, 0.5), got {val_fraction}")
        if n_restarts < 1:
            raise ValueError(f"n_restarts must be >= 1, got {n_restarts}")
        self.n_restarts = int(n_restarts)
        self.hidden = int(hidden)
        self.dropout = float(dropout)
        self.epochs = int(epochs)
        self.batch_size = int(batch_size)
        self.learning_rate = float(learning_rate)
        self.weight_decay = float(weight_decay)
        self.patience = patience
        self.val_fraction = float(val_fraction)
        self.random_state = random_state
        self.network_: Network | None = None
        self.networks_: list[Network] = []
        self.history_: TrainingHistory | None = None
        self.histories_: list[TrainingHistory] = []
        self._n_features: int | None = None

    # ------------------------------------------------------------------
    def fit(self, x, t, y_r, y_c) -> "DRPModel":
        """Train on an RCT sample ``(x_i, t_i, y_r_i, y_c_i)``."""
        x = check_2d(x)
        t = check_binary(t)
        y_r = check_1d(y_r, "y_r")
        y_c = check_1d(y_c, "y_c")
        check_consistent_length(x, t, y_r, y_c, names=("X", "t", "y_r", "y_c"))
        if np.all(t == 1) or np.all(t == 0):
            raise ValueError("Both treated and control samples are required to fit DRP")
        self._n_features = x.shape[1]
        rng = as_generator(self.random_state)

        validation_data = None
        if self.val_fraction > 0 and x.shape[0] >= 50:
            perm = rng.permutation(x.shape[0])
            n_val = max(10, int(round(self.val_fraction * x.shape[0])))
            val_idx, fit_idx = perm[:n_val], perm[n_val:]
            # the validation half must contain both arms for Eq. 2
            if len(set(t[val_idx])) == 2 and len(set(t[fit_idx])) == 2:
                validation_data = (
                    x[val_idx],
                    {"t": t[val_idx], "y_r": y_r[val_idx], "y_c": y_c[val_idx]},
                )
                x, t, y_r, y_c = x[fit_idx], t[fit_idx], y_r[fit_idx], y_c[fit_idx]

        self.networks_ = []
        self.histories_ = []
        for _ in range(self.n_restarts):
            network = mlp(
                x.shape[1],
                [self.hidden],
                output_dim=1,
                activation="elu",
                dropout=self.dropout,
                rng=rng,
            )
            history = network.fit(
                x,
                {"t": t, "y_r": y_r, "y_c": y_c},
                loss=_drp_batch_loss,
                optimizer=Adam(self.learning_rate, weight_decay=self.weight_decay),
                epochs=self.epochs,
                batch_size=self.batch_size,
                rng=rng,
                validation_data=validation_data,
                patience=self.patience,
            )
            self.networks_.append(network)
            self.histories_.append(history)
        self.network_ = self.networks_[0]
        self.history_ = self.histories_[0]
        return self

    def _checked(self, x) -> np.ndarray:
        if not self.networks_:
            raise RuntimeError("DRPModel is not fitted; call fit() first")
        x = check_2d(x)
        if x.shape[1] != self._n_features:
            raise ValueError(
                f"X has {x.shape[1]} features but the model was fitted with {self._n_features}"
            )
        return x

    def predict_score(self, x) -> np.ndarray:
        """Raw scores ``ŝ = ℏ(x)`` (restart-ensemble mean)."""
        x = self._checked(x)
        score = np.zeros(x.shape[0])
        for network in self.networks_:
            score += network.predict(x)[:, 0]
        return score / len(self.networks_)

    def predict_roi(self, x) -> np.ndarray:
        """Point estimate ``roî = σ(ŝ) ∈ (0, 1)`` (Definition 2 scope)."""
        return sigmoid(self.predict_score(x))

    def predict_roi_mc(
        self, x, n_samples: int = 30, std_floor: float = 1e-4
    ) -> tuple[np.ndarray, np.ndarray]:
        """MC-dropout mean and std of the ROI estimate (§IV-C2).

        Runs ``n_samples`` stochastic passes distributed round-robin
        over the restart ensemble (pass ``i`` on restart ``i mod R``) as
        one stacked pass, and returns ``(mean, r(x))``; ``r(x)`` is
        floored so Eq. 3's division stays finite.
        """
        x = self._checked(x)
        return mc_dropout_moments(
            lambda: sigmoid(stochastic_passes(self.networks_, x, n_samples)), n_samples, std_floor
        )
