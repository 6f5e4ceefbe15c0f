"""Monte Carlo dropout inference (Gal & Ghahramani, 2016).

rDRP needs a per-sample standard deviation ``r(x)`` of the DRP point
estimate without retraining or ensembling (§IV-C2 of the paper).  MC
dropout provides it: run ``T`` stochastic forward passes with dropout
masks *active at inference* and take the empirical mean/std of the
transformed outputs.  :func:`~repro.nn.network.stochastic_passes`
runs the passes; :func:`mc_dropout_moments` reduces them.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

__all__ = ["mc_dropout_moments"]


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
