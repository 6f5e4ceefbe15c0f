"""Layer primitives with manual backpropagation.

Each layer implements

* ``forward(x, training)`` — compute the output, caching whatever the
  backward pass needs;
* ``backward(grad_out)`` — given dL/d(output), accumulate parameter
  gradients and return dL/d(input);
* ``parameters()`` / ``gradients()`` — flat lists consumed by the
  optimizers in :mod:`repro.nn.optimizers`;
* ``rebind(params, grads)`` — adopt same-shaped replacement arrays,
  which :meth:`~repro.nn.network.Network.fit` uses to move a layer's
  parameters into its flat training buffers (a layer with parameters
  must implement it to be trained by ``fit``).

Gradient correctness for every layer is verified by finite differences
in ``tests/test_nn_gradcheck.py``.
"""

from __future__ import annotations

import numpy as np

from repro.nn import activations as act
from repro.nn.initializers import glorot_uniform, he_normal
from repro.utils.rng import as_generator

__all__ = ["Layer", "Dense", "Dropout", "Activation"]

def _identity_grad(x: np.ndarray) -> np.ndarray:
    return np.ones_like(np.asarray(x, dtype=float))


# every entry must hold module-level callables: Activation layers pickle
# by name (fitted networks ship to scoring-shard worker processes)
_ACTIVATIONS = {
    "relu": (act.relu, act.relu_grad),
    "elu": (act.elu, act.elu_grad),
    "tanh": (act.tanh, act.tanh_grad),
    "sigmoid": (act.sigmoid, act.sigmoid_grad),
    "linear": (act.identity, _identity_grad),
}


class Layer:
    """Abstract layer interface."""

    def forward(self, x: np.ndarray, training: bool = False) -> np.ndarray:
        raise NotImplementedError

    def backward(self, grad_out: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def parameters(self) -> list[np.ndarray]:
        """Trainable parameter arrays (updated in place by optimizers)."""
        return []

    def gradients(self) -> list[np.ndarray]:
        """Gradient arrays aligned with :meth:`parameters`."""
        return []

    def zero_grad(self) -> None:
        for g in self.gradients():
            g[...] = 0.0

    def rebind(self, params: list[np.ndarray], grads: list[np.ndarray]) -> None:
        """Adopt ``params`` and ``grads`` as the layer's own arrays.

        They align with :meth:`parameters` and :meth:`gradients` and
        match them in shape; :meth:`~repro.nn.network.Network.fit`
        passes views into its flat training buffers.
        """
        if params or grads:
            raise NotImplementedError(f"{type(self).__name__} does not rebind its parameters")


class Dense(Layer):
    """Fully connected affine layer ``y = x W + b``.

    ``x`` may carry leading stack axes, ``(k, n, in_features)``: the
    product then broadcasts, slice by slice equal to the 2-D product.

    Parameters
    ----------
    in_features, out_features:
        Layer dimensions.
    init:
        ``"glorot"`` (default, for tanh/sigmoid nets) or ``"he"`` (for
        ReLU-family nets).
    rng:
        Seed or generator for weight initialisation.
    """

    def __init__(
        self,
        in_features: int,
        out_features: int,
        init: str = "glorot",
        rng: int | np.random.Generator | None = None,
    ) -> None:
        if init == "glorot":
            self.weight = glorot_uniform(in_features, out_features, rng)
        elif init == "he":
            self.weight = he_normal(in_features, out_features, rng)
        else:
            raise ValueError(f"Unknown init {init!r}; expected 'glorot' or 'he'")
        self.bias = np.zeros(out_features)
        self.grad_weight = np.zeros_like(self.weight)
        self.grad_bias = np.zeros_like(self.bias)
        self._x: np.ndarray | None = None

    @property
    def in_features(self) -> int:
        return self.weight.shape[0]

    @property
    def out_features(self) -> int:
        return self.weight.shape[1]

    def forward(self, x: np.ndarray, training: bool = False) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        if x.shape[-1] != self.in_features:
            raise ValueError(
                f"Dense expected input with {self.in_features} features, got {x.shape[-1]}"
            )
        self._x = x if training else None
        return x @ self.weight + self.bias

    def backward(self, grad_out: np.ndarray) -> np.ndarray:
        if self._x is None:
            raise RuntimeError("backward() called before a training-mode forward()")
        self.grad_weight += self._x.T @ grad_out
        self.grad_bias += grad_out.sum(axis=0)
        return grad_out @ self.weight.T

    def parameters(self) -> list[np.ndarray]:
        return [self.weight, self.bias]

    def gradients(self) -> list[np.ndarray]:
        return [self.grad_weight, self.grad_bias]

    def rebind(self, params: list[np.ndarray], grads: list[np.ndarray]) -> None:
        self.weight, self.bias = params
        self.grad_weight, self.grad_bias = grads


class Dropout(Layer):
    """Inverted dropout.

    During training, each unit is kept with probability ``1 - rate`` and
    scaled by ``1/(1-rate)``.  During plain inference the layer is the
    identity, but :func:`repro.nn.network.stochastic_passes` keeps it
    sampling to realise Gal & Ghahramani's Bayesian approximation — the
    mechanism rDRP uses for ``r(x)``.
    """

    def __init__(self, rate: float, rng: int | np.random.Generator | None = None) -> None:
        if not 0.0 <= rate < 1.0:
            raise ValueError(f"dropout rate must be in [0, 1), got {rate}")
        self.rate = float(rate)
        self._rng = as_generator(rng)
        self._mask: np.ndarray | None = None

    def forward(self, x: np.ndarray, training: bool = False) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        if not training or self.rate == 0.0:
            self._mask = None
            return x
        self._mask = self.keep_mask(self._rng.random(x.shape))
        return x * self._mask

    def keep_mask(self, uniforms: np.ndarray) -> np.ndarray:
        """Overwrite uniform draws with their mask and return it: ``1/(1-rate)``
        where a unit is kept, else 0."""
        keep = 1.0 - self.rate
        return np.divide(uniforms < keep, keep, out=uniforms)

    def backward(self, grad_out: np.ndarray) -> np.ndarray:
        if self._mask is None:
            return grad_out
        return grad_out * self._mask


class Activation(Layer):
    """Element-wise activation layer.

    Parameters
    ----------
    name:
        One of ``"relu"``, ``"elu"``, ``"tanh"``, ``"sigmoid"``,
        ``"linear"``.
    """

    def __init__(self, name: str) -> None:
        if name not in _ACTIVATIONS:
            raise ValueError(f"Unknown activation {name!r}; choose from {sorted(_ACTIVATIONS)}")
        self.name = name
        self._fn, self._grad_fn = _ACTIVATIONS[name]
        self._x: np.ndarray | None = None

    def forward(self, x: np.ndarray, training: bool = False) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        self._x = x if training else None
        return self._fn(x)

    def backward(self, grad_out: np.ndarray) -> np.ndarray:
        if self._x is None:
            raise RuntimeError("backward() called before a training-mode forward()")
        return grad_out * self._grad_fn(self._x)

    def __getstate__(self) -> dict:
        # the function pair is looked up from the name on load, and the
        # training cache has no business crossing a process boundary
        state = self.__dict__.copy()
        state.pop("_fn", None)
        state.pop("_grad_fn", None)
        state["_x"] = None
        return state

    def __setstate__(self, state: dict) -> None:
        self.__dict__.update(state)
        self._fn, self._grad_fn = _ACTIVATIONS[self.name]
