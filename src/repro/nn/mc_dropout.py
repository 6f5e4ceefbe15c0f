"""Monte Carlo dropout inference (Gal & Ghahramani, 2016).

rDRP needs a per-sample standard deviation ``r(x)`` of the DRP point
estimate without retraining or ensembling (§IV-C2 of the paper).  MC
dropout provides it: run ``T`` stochastic forward passes with dropout
masks *active at inference* and take the empirical mean/std of the
transformed outputs.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from repro.nn.network import Network

__all__ = ["mc_dropout_moments", "mc_dropout_statistics", "MCDropoutPredictor"]


def mc_dropout_moments(
    sample: Callable[[], np.ndarray], n_samples: int, std_floor: float
) -> tuple[np.ndarray, np.ndarray]:
    """Mean and floored ``std(ddof=1)`` over the passes of an MC stack.

    ``sample()`` returns the ``(n_samples, n, k)`` stack of pass
    outputs.  It runs only once both arguments pass their checks, so a
    rejected call draws nothing.  Eq. 3 divides by the std, hence a
    floor that is finite and > 0.  Single-output stacks (``k == 1``) are
    squeezed to ``(n,)``.
    """
    if n_samples < 2:
        raise ValueError(f"n_samples must be >= 2 to estimate a std, got {n_samples}")
    if not (np.isfinite(std_floor) and std_floor > 0):
        raise ValueError(f"std_floor must be finite and > 0, got {std_floor}")
    draws = sample()
    mean = draws.mean(axis=0)
    std = np.maximum(draws.std(axis=0, ddof=1), std_floor)
    if mean.shape[1] == 1:
        return mean[:, 0], std[:, 0]
    return mean, std


def mc_dropout_statistics(
    stochastic_forward: Callable[[np.ndarray], np.ndarray],
    x: np.ndarray,
    n_samples: int = 30,
    transform: Callable[[np.ndarray], np.ndarray] | None = None,
    std_floor: float = 1e-6,
) -> tuple[np.ndarray, np.ndarray]:
    """Mean and std over ``n_samples`` stochastic forward passes.

    Parameters
    ----------
    stochastic_forward:
        Callable running one dropout-active pass, e.g.
        ``network.forward_stochastic``.
    x:
        Input batch, shape ``(n, d)``.
    n_samples:
        Number of MC passes ``T`` (the paper uses 10–100).
    transform:
        Optional output transform applied per pass *before* the
        statistics (DRP applies ``sigmoid`` so the std is of the ROI,
        not the logit).
    std_floor:
        Lower bound on the returned std, finite and > 0 — Eq. 3 divides
        by ``r(x)``, so a hard floor keeps the conformal score finite
        even for inputs the dropout mask never perturbs.

    Returns
    -------
    (mean, std):
        Arrays of shape ``(n,)`` (single-output networks are squeezed).
    """

    def sample() -> np.ndarray:
        draws = []
        for _ in range(n_samples):
            out = stochastic_forward(x)
            if transform is not None:
                out = transform(out)
            draws.append(np.asarray(out, dtype=float).reshape(out.shape[0], -1))
        return np.stack(draws, axis=0)

    return mc_dropout_moments(sample, n_samples, std_floor)


class MCDropoutPredictor:
    """Bind a network + output transform into an ``r(x)`` estimator.

    Example
    -------
    >>> predictor = MCDropoutPredictor(net, transform=sigmoid, n_samples=50)
    >>> mean, std = predictor(x_test)
    """

    def __init__(
        self,
        network: Network,
        transform: Callable[[np.ndarray], np.ndarray] | None = None,
        n_samples: int = 30,
        std_floor: float = 1e-6,
    ) -> None:
        self.network = network
        self.transform = transform
        self.n_samples = int(n_samples)
        self.std_floor = float(std_floor)

    def __call__(self, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        return mc_dropout_statistics(
            self.network.forward_stochastic,
            x,
            n_samples=self.n_samples,
            transform=self.transform,
            std_floor=self.std_floor,
        )
