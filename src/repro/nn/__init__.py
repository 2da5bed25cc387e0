"""``repro.nn`` — a from-scratch, Caffe-equivalent DNN framework on numpy.

This is the reproduction's substitute for Caffe+cuDNN (paper §3.1): the same
layer vocabulary the Tonic networks need (convolution with groups, pooling,
LRN, inner product, DeepFace's locally-connected layers, the activations,
softmax, dropout), declarative network specs, forward inference, full
backpropagation, and an SGD solver.  Networks can be built *shape-only* so
the GPU performance model can cost 120M-parameter nets without allocating
them.
"""

from . import layers  # noqa: F401  (registers all layer types)
from .engine import ExecutionPlan, LayerCache, LayerCacheConfig, PlanError
from .gradcheck import check_layer_gradients, max_relative_error, numerical_gradient
from .graph import INPUT, GraphLayerSpec, GraphNet, GraphSpec
from .netspec import LayerSpec, NetSpec
from .network import Net
from .serialize import load_net, save_net
from .tensor import FLOAT_BYTES, Blob
from .train import SgdSolver, TrainLog, accuracy
from .workspace import LayerCost, NetCost, analyze, plan_footprint

__all__ = [
    "layers",
    "LayerSpec",
    "NetSpec",
    "Net",
    "Blob",
    "FLOAT_BYTES",
    "SgdSolver",
    "TrainLog",
    "accuracy",
    "LayerCost",
    "NetCost",
    "analyze",
    "check_layer_gradients",
    "max_relative_error",
    "numerical_gradient",
    "save_net",
    "load_net",
    "GraphNet",
    "GraphSpec",
    "GraphLayerSpec",
    "INPUT",
    "ExecutionPlan",
    "LayerCache",
    "LayerCacheConfig",
    "PlanError",
    "plan_footprint",
]
