"""A small from-scratch neural-network substrate (numpy only).

The paper implements its value networks as tree convolution networks in
PyTorch (§7).  PyTorch is unavailable offline, so this package provides the
required pieces with explicit forward/backward passes:

- dense layers and ReLU (:mod:`repro.nn.layers`);
- mean-squared-error loss (:mod:`repro.nn.losses`);
- the Adam optimizer (:mod:`repro.nn.optim`);
- Neo-style tree convolution with dynamic max pooling
  (:mod:`repro.nn.tree_conv`);
- early stopping on a validation split (:mod:`repro.nn.early_stopping`),
  matching the paper's "sample 10% of experience data as a validation set for
  early stopping".
"""

from repro.nn.layers import Linear, Parameter, ReLU
from repro.nn.losses import mse_loss
from repro.nn.optim import Adam
from repro.nn.tree_conv import DynamicMaxPool, TreeBatch, TreeConvLayer
from repro.nn.early_stopping import EarlyStopping

__all__ = [
    "Linear",
    "Parameter",
    "ReLU",
    "mse_loss",
    "Adam",
    "DynamicMaxPool",
    "TreeBatch",
    "TreeConvLayer",
    "EarlyStopping",
]
