"""Neural-network substrate.

A small, from-scratch feed-forward framework built on numpy with manual
backpropagation.  The paper's models (DRP, DR, TARNet, DragonNet,
OffsetNet, SNet) are all shallow MLPs — DRP itself is a single hidden
layer of 10–100 units — so this substrate reproduces exactly the
function class and training dynamics the paper relies on, including
inference-time (Monte Carlo) dropout.

Design notes
------------
* Layers expose ``forward(x, training)`` / ``backward(grad)`` and
  accumulate parameter gradients; optimizers consume
  ``(parameters, gradients)`` pairs.
* Losses return ``(value, grad_wrt_predictions)`` so composite causal
  losses (Eq. 2 of the paper, DragonNet's targeted regularisation, the
  Direct Rank ratio loss) plug in uniformly.
* ``stochastic_passes`` keeps dropout active at inference and runs a
  model's ``T`` Monte Carlo passes as one stacked pass;
  ``mc_dropout_moments`` reduces them to the per-sample mean and the
  std ``r(x)`` used by the rDRP conformal score.
"""

from repro.nn.activations import (
    elu,
    elu_grad,
    identity,
    log_sigmoid,
    relu,
    relu_grad,
    sigmoid,
    sigmoid_grad,
    softmax,
    softplus,
    tanh,
    tanh_grad,
)
from repro.nn.initializers import glorot_uniform, he_normal, zeros_init
from repro.nn.layers import Activation, Dense, Dropout, Layer
from repro.nn.losses import (
    BinaryCrossEntropy,
    Loss,
    MeanSquaredError,
)
from repro.nn.gradcheck import check_network_gradients, numeric_gradient
from repro.nn.mc_dropout import mc_dropout_moments
from repro.nn.network import Network, TrainingHistory, mlp, stochastic_passes
from repro.nn.optimizers import SGD, Adam, Optimizer

__all__ = [
    "Activation",
    "Adam",
    "BinaryCrossEntropy",
    "Dense",
    "Dropout",
    "Layer",
    "Loss",
    "MeanSquaredError",
    "Network",
    "Optimizer",
    "SGD",
    "TrainingHistory",
    "check_network_gradients",
    "mlp",
    "numeric_gradient",
    "elu",
    "elu_grad",
    "glorot_uniform",
    "he_normal",
    "identity",
    "log_sigmoid",
    "mc_dropout_moments",
    "relu",
    "relu_grad",
    "sigmoid",
    "sigmoid_grad",
    "softmax",
    "softplus",
    "stochastic_passes",
    "tanh",
    "tanh_grad",
    "zeros_init",
]
