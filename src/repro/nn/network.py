"""Sequential network container and training loop.

:class:`Network` chains :class:`~repro.nn.layers.Layer` objects and
exposes ``forward``/``backward``/``parameters`` so composite
architectures (TARNet's shared representation + per-arm heads,
DragonNet's propensity head, SNet's factored representations) can be
built by wiring several ``Network`` instances together and chaining
their backward passes manually.

``fit`` implements the standard mini-batch loop used by every model in
the paper: shuffled batches, an arbitrary ``(pred, target) -> (value,
grad)`` loss, optional validation-based early stopping with
best-weights restoration, and gradient-norm clipping (small RCT
datasets make uplift losses noisy, cf. §IV-B2 of the paper).  It keeps
every parameter in one flat buffer, so a step costs a few numpy calls
on one array rather than a few per parameter.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Mapping, Sequence

import numpy as np

from repro.nn.layers import Activation, Dense, Dropout, Layer
from repro.nn.optimizers import Adam, Optimizer
from repro.utils.rng import as_generator

__all__ = ["Network", "TrainingHistory", "mlp", "stochastic_passes"]

# A loss consumes (predictions, batch_target) and returns (value, grad).
LossFn = Callable[[np.ndarray, object], tuple[float, np.ndarray]]

# Most elements one group's (passes, rows, units) stack may hold in
# stochastic_passes: 2**17 float64s, a 1 MiB buffer per group.
MC_STACK_ELEMENTS = 1 << 17


@dataclass
class TrainingHistory:
    """Per-epoch record of a :meth:`Network.fit` run."""

    train_loss: list[float] = field(default_factory=list)
    val_loss: list[float] = field(default_factory=list)
    stopped_epoch: int | None = None
    best_epoch: int | None = None

    @property
    def n_epochs(self) -> int:
        return len(self.train_loss)


def _packed(arrays: list[np.ndarray]) -> np.ndarray | None:
    """The 1-D buffer ``arrays`` view back to back, in order, or None."""
    base = arrays[0].base if arrays else None
    if not isinstance(base, np.ndarray) or base.ndim != 1 or base.size != sum(a.size for a in arrays):
        return None
    at = base.__array_interface__["data"][0]
    for a in arrays:
        if a.base is not base or not a.flags.c_contiguous or a.__array_interface__["data"][0] != at:
            return None
        at += a.nbytes
    return base


def _slice_target(target, idx: np.ndarray):
    """Slice a target that may be an array or a mapping of arrays."""
    if isinstance(target, Mapping):
        return {k: np.asarray(v)[idx] for k, v in target.items()}
    return np.asarray(target)[idx]


class Network:
    """A sequential stack of layers with manual backprop.

    Parameters
    ----------
    layers:
        Ordered layer list.  May be empty and extended with :meth:`add`.
    """

    def __init__(self, layers: Sequence[Layer] | None = None) -> None:
        self.layers: list[Layer] = list(layers) if layers is not None else []

    def add(self, layer: Layer) -> "Network":
        self.layers.append(layer)
        return self

    # ------------------------------------------------------------------
    # forward / backward
    # ------------------------------------------------------------------
    def forward(self, x: np.ndarray, training: bool = False) -> np.ndarray:
        """Run the full stack.  ``training=True`` enables caching + dropout."""
        out = np.asarray(x, dtype=float)
        if out.ndim == 1:
            out = out.reshape(-1, 1)
        for layer in self.layers:
            out = layer.forward(out, training=training)
        return out

    def forward_stochastic(self, x: np.ndarray) -> np.ndarray:
        """Inference pass with dropout *active* (MC dropout).

        Only :class:`Dropout` layers sample, and the other layers cache
        nothing, so this pass cannot be backpropagated — it exists
        purely to sample from the approximate posterior predictive.  It
        is the one-pass case of :func:`stochastic_passes`.
        """
        return stochastic_passes([self], x, 1)[0]

    def backward(self, grad_out: np.ndarray) -> np.ndarray:
        """Backpropagate dL/d(output); returns dL/d(input)."""
        grad = np.asarray(grad_out, dtype=float)
        for layer in reversed(self.layers):
            grad = layer.backward(grad)
        return grad

    def predict(self, x: np.ndarray) -> np.ndarray:
        """Deterministic inference pass (dropout disabled)."""
        return self.forward(x, training=False)

    # ------------------------------------------------------------------
    # parameter bookkeeping
    # ------------------------------------------------------------------
    def parameters(self) -> list[np.ndarray]:
        return [p for layer in self.layers for p in layer.parameters()]

    def gradients(self) -> list[np.ndarray]:
        return [g for layer in self.layers for g in layer.gradients()]

    def zero_grad(self) -> None:
        for layer in self.layers:
            layer.zero_grad()

    def num_parameters(self) -> int:
        return int(sum(p.size for p in self.parameters()))

    def _flat_buffers(self) -> tuple[np.ndarray, np.ndarray]:
        """Every parameter in one flat buffer, every gradient in another.

        The layers are rebound to same-shaped views into the buffers
        (values copied in), unless they already view one buffer back to
        back: a second ``fit`` hands its optimizer the same array.
        """
        params, grads = self.parameters(), self.gradients()
        flat_params, flat_grads = _packed(params), _packed(grads)
        if flat_params is not None and flat_grads is not None:
            return flat_params, flat_grads
        flat_params = np.concatenate([p.ravel() for p in params]) if params else np.empty(0)
        flat_grads = np.concatenate([g.ravel() for g in grads]) if grads else np.empty(0)
        start = 0
        for layer in self.layers:
            views, grad_views = [], []
            for p in layer.parameters():
                stop = start + p.size
                views.append(flat_params[start:stop].reshape(p.shape))
                grad_views.append(flat_grads[start:stop].reshape(p.shape))
                start = stop
            layer.rebind(views, grad_views)
        return flat_params, flat_grads

    def get_weights(self) -> list[np.ndarray]:
        """Deep copies of all parameters (for best-epoch restoration)."""
        return [p.copy() for p in self.parameters()]

    def set_weights(self, weights: Sequence[np.ndarray]) -> None:
        params = self.parameters()
        if len(weights) != len(params):
            raise ValueError(f"Expected {len(params)} weight arrays, got {len(weights)}")
        for p, w in zip(params, weights):
            if p.shape != w.shape:
                raise ValueError(f"Shape mismatch: {p.shape} vs {w.shape}")
            p[...] = w

    # ------------------------------------------------------------------
    # training loop
    # ------------------------------------------------------------------
    def fit(
        self,
        x: np.ndarray,
        target,
        loss: LossFn,
        optimizer: Optimizer | None = None,
        epochs: int = 100,
        batch_size: int = 256,
        shuffle: bool = True,
        rng: int | np.random.Generator | None = None,
        validation_data: tuple | None = None,
        patience: int | None = None,
        min_delta: float = 1e-6,
        clip_norm: float | None = 5.0,
        verbose: bool = False,
    ) -> TrainingHistory:
        """Mini-batch training.

        Parameters
        ----------
        x:
            Training inputs, shape ``(n, d)``.
        target:
            Loss target: an array or a mapping of arrays (all sliced
            per-batch along axis 0), e.g. ``{"t": ..., "yr": ..., "yc": ...}``
            for causal losses.
        loss:
            Callable ``(pred, batch_target) -> (value, grad_wrt_pred)``.
        optimizer:
            Defaults to :class:`~repro.nn.optimizers.Adam` at 1e-3.
        validation_data:
            Optional ``(x_val, target_val)`` monitored every epoch.
        patience:
            If set, stop after this many epochs without ``min_delta``
            improvement on the monitored loss (validation if provided,
            else training) and restore the best weights.
        clip_norm:
            Global gradient-norm clip; ``None`` disables.

        The optimizer sees one flat parameter: ``fit`` moves every
        layer's parameters and gradients into two flat buffers and keeps
        the layers on views into them, so each step zeroes the gradients
        with one fill and updates every parameter with one elementwise
        pass (per element the same floats as a per-parameter update).

        Returns
        -------
        TrainingHistory
        """
        x = np.asarray(x, dtype=float)
        if x.ndim == 1:
            x = x.reshape(-1, 1)
        n = x.shape[0]
        if epochs <= 0:
            raise ValueError(f"epochs must be positive, got {epochs}")
        if batch_size <= 0:
            raise ValueError(f"batch_size must be positive, got {batch_size}")
        gen = as_generator(rng)
        opt = optimizer if optimizer is not None else Adam()
        flat_params, flat_grads = self._flat_buffers()
        params, grads = [flat_params], [flat_grads]
        layer_grads = self.gradients()  # views: the clip norm sums them one by one
        history = TrainingHistory()
        best_loss = np.inf
        best_weights: list[np.ndarray] | None = None
        epochs_without_improvement = 0

        for epoch in range(epochs):
            order = gen.permutation(n) if shuffle else np.arange(n)
            epoch_loss = 0.0
            n_batches = 0
            for start in range(0, n, batch_size):
                idx = order[start : start + batch_size]
                batch_x = x[idx]
                batch_target = _slice_target(target, idx)
                flat_grads.fill(0.0)
                pred = self.forward(batch_x, training=True)
                value, grad = loss(pred, batch_target)
                self.backward(grad)
                if clip_norm is not None:
                    # np.sum's own reduction, without its wrapper
                    total = np.sqrt(sum(float(np.add.reduce(g * g, axis=None)) for g in layer_grads))
                    if total > clip_norm and total > 0:
                        flat_grads *= clip_norm / total
                opt.step(params, grads)
                epoch_loss += value
                n_batches += 1
            mean_loss = epoch_loss / max(n_batches, 1)
            history.train_loss.append(mean_loss)

            monitored = mean_loss
            if validation_data is not None:
                val_x, val_target = validation_data
                val_pred = self.forward(np.asarray(val_x, dtype=float), training=False)
                val_value, _ = loss(val_pred, val_target)
                history.val_loss.append(val_value)
                monitored = val_value

            if verbose:
                msg = f"epoch {epoch + 1}/{epochs} loss={mean_loss:.6f}"
                if validation_data is not None:
                    msg += f" val={history.val_loss[-1]:.6f}"
                print(msg)

            if patience is not None:
                if monitored < best_loss - min_delta:
                    best_loss = monitored
                    best_weights = self.get_weights()
                    history.best_epoch = epoch
                    epochs_without_improvement = 0
                else:
                    epochs_without_improvement += 1
                    if epochs_without_improvement >= patience:
                        history.stopped_epoch = epoch
                        break

        if patience is not None and best_weights is not None:
            self.set_weights(best_weights)
        return history


def stochastic_passes(networks: Sequence[Network], x: np.ndarray, n_passes: int) -> np.ndarray:
    """``n_passes`` dropout-active passes over ``x``, stacked ``(n_passes, n, out)``.

    Pass ``i`` runs on ``networks[i % len(networks)]`` and equals the
    one-pass :meth:`Network.forward_stochastic` the pass-by-pass loop
    made.  The layers before a network's first active :class:`Dropout`
    are deterministic and run once on the ``(n, d)`` batch; from that
    layer on, each network runs a ``(k, n, h)`` stack of its passes.
    The masks of ``k`` consecutive passes come from one draw of the
    networks' shared generator, the stream ``k`` one-pass draws give.
    Passes, not rows, are grouped so that a group's stack holds at most
    :data:`MC_STACK_ELEMENTS` elements: splitting rows would reorder the
    stream.  A later :class:`Dropout` draws over its whole stack, so
    with two active dropout layers only ``k = 1`` keeps the loop's
    stream.

    Raises ValueError unless every network reaches its first active
    dropout with one shape and draws from one shared generator, as the
    restarts of a model fitted from one seed do.
    """
    x = np.asarray(x, dtype=float)
    if x.ndim == 1:
        x = x.reshape(-1, 1)
    heads, drops, tails = [], [], []
    for network in networks:
        layers = network.layers
        split = next(
            (i for i, layer in enumerate(layers) if isinstance(layer, Dropout) and layer.rate > 0),
            len(layers),
        )
        head = x
        for layer in layers[:split]:
            head = layer.forward(head, training=False)
        heads.append(head)
        drops.append(layers[split] if split < len(layers) else None)
        tails.append(layers[split + 1 :])
    if len({(h.shape, None if d is None else id(d._rng)) for h, d in zip(heads, drops)}) > 1:
        raise ValueError(
            "round-robin passes need networks of one shape whose dropout shares one generator"
        )
    n_nets = len(networks)
    group = max(1, MC_STACK_ELEMENTS // max(heads[0].size, 1))
    passes = None
    for start in range(0, n_passes, group):
        k = min(group, n_passes - start)
        uniforms = None if drops[0] is None else drops[0]._rng.random((k, *heads[0].shape))
        for r in range(n_nets):
            # pass start + j runs on network (start + j) % n_nets
            rows = slice((r - start) % n_nets, k, n_nets)
            stack = heads[r]
            if uniforms is not None:
                # the masked passes overwrite the draws: one buffer per group
                drawn = uniforms[rows]
                stack = np.multiply(stack, drops[r].keep_mask(drawn), out=drawn)
            for layer in tails[r]:
                stack = layer.forward(stack, training=isinstance(layer, Dropout))
            if passes is None:
                passes = np.empty((n_passes, *stack.shape[-2:]))
            passes[start : start + k][rows] = stack
    return passes


def mlp(
    input_dim: int,
    hidden: Sequence[int],
    output_dim: int = 1,
    activation: str = "elu",
    dropout: float = 0.0,
    rng: int | np.random.Generator | None = None,
    output_activation: str | None = None,
) -> Network:
    """Build a standard MLP: ``Dense -> act -> [Dropout] -> ... -> Dense``.

    The paper's DRP network is ``mlp(d, [h], 1)`` with ``h`` in 10–100
    and a dropout layer used only at inference (MC dropout); we place
    the dropout after each hidden activation, which reduces to the
    paper's configuration for a single hidden layer.
    """
    if input_dim <= 0:
        raise ValueError(f"input_dim must be positive, got {input_dim}")
    gen = as_generator(rng)
    init = "he" if activation in ("relu", "elu") else "glorot"
    net = Network()
    prev = input_dim
    for width in hidden:
        net.add(Dense(prev, width, init=init, rng=gen))
        net.add(Activation(activation))
        if dropout > 0:
            net.add(Dropout(dropout, rng=gen))
        prev = width
    net.add(Dense(prev, output_dim, init="glorot", rng=gen))
    if output_activation is not None:
        net.add(Activation(output_activation))
    return net
