"""First-order optimizers operating on ``(parameters, gradients)`` pairs.

Parameters are updated **in place** so layers keep owning their arrays.
Weight decay is decoupled (applied directly to the parameter), matching
the L2-regularised training the uplift-modelling literature uses for
small RCT datasets.  State (momentum, moments) is keyed by the
parameter array and allocated on its first step only; every update is
elementwise, so :meth:`~repro.nn.network.Network.fit` hands over one
flat parameter and gets the floats a per-parameter update gives.
"""

from __future__ import annotations

import numpy as np

__all__ = ["Optimizer", "SGD", "Adam"]


class Optimizer:
    """Base optimizer interface."""

    def __init__(self, learning_rate: float = 1e-3, weight_decay: float = 0.0) -> None:
        if learning_rate <= 0:
            raise ValueError(f"learning_rate must be > 0, got {learning_rate}")
        if weight_decay < 0:
            raise ValueError(f"weight_decay must be >= 0, got {weight_decay}")
        self.learning_rate = float(learning_rate)
        self.weight_decay = float(weight_decay)

    def step(self, params: list[np.ndarray], grads: list[np.ndarray]) -> None:
        raise NotImplementedError

    def reset(self) -> None:
        """Clear internal state (momentum/moment buffers)."""


class SGD(Optimizer):
    """Stochastic gradient descent with classical momentum."""

    def __init__(
        self,
        learning_rate: float = 1e-2,
        momentum: float = 0.0,
        weight_decay: float = 0.0,
    ) -> None:
        super().__init__(learning_rate, weight_decay)
        if not 0.0 <= momentum < 1.0:
            raise ValueError(f"momentum must be in [0, 1), got {momentum}")
        self.momentum = float(momentum)
        self._velocity: dict[int, np.ndarray] = {}

    def step(self, params: list[np.ndarray], grads: list[np.ndarray]) -> None:
        for p, g in zip(params, grads):
            update = g + self.weight_decay * p
            if self.momentum > 0:
                v = self._velocity.get(id(p))
                if v is None:
                    v = self._velocity[id(p)] = np.zeros_like(p)
                v *= self.momentum
                v += update
                update = v
            p -= self.learning_rate * update

    def reset(self) -> None:
        self._velocity.clear()


class Adam(Optimizer):
    """Adam (Kingma & Ba) with bias-corrected moment estimates."""

    def __init__(
        self,
        learning_rate: float = 1e-3,
        beta1: float = 0.9,
        beta2: float = 0.999,
        eps: float = 1e-8,
        weight_decay: float = 0.0,
    ) -> None:
        super().__init__(learning_rate, weight_decay)
        if not 0.0 <= beta1 < 1.0 or not 0.0 <= beta2 < 1.0:
            raise ValueError(f"betas must be in [0, 1), got ({beta1}, {beta2})")
        self.beta1 = float(beta1)
        self.beta2 = float(beta2)
        self.eps = float(eps)
        self._m: dict[int, np.ndarray] = {}
        self._v: dict[int, np.ndarray] = {}
        self._t = 0

    def step(self, params: list[np.ndarray], grads: list[np.ndarray]) -> None:
        self._t += 1
        lr_t = self.learning_rate * (
            np.sqrt(1.0 - self.beta2**self._t) / (1.0 - self.beta1**self._t)
        )
        for p, g in zip(params, grads):
            g = g + self.weight_decay * p
            m = self._m.get(id(p))
            if m is None:
                m = self._m[id(p)] = np.zeros_like(p)
                self._v[id(p)] = np.zeros_like(p)
            v = self._v[id(p)]
            m *= self.beta1
            m += (1.0 - self.beta1) * g
            v *= self.beta2
            v += (1.0 - self.beta2) * g * g
            p -= lr_t * m / (np.sqrt(v) + self.eps)

    def reset(self) -> None:
        self._m.clear()
        self._v.clear()
        self._t = 0
