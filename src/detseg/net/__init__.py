"""Differentiable network core: tensors, layers, model, optimizer, training."""

from .checkpoint import load_checkpoint, save_checkpoint
from .layers import (
    BatchNorm2d,
    Conv2d,
    DepthwiseConv2d,
    DepthwiseSeparableConv2d,
    Layer,
    MaxPool2x2,
    Param,
    ReLU,
    ResidualBlock,
    Sequential,
    TransposedConv2d,
)
from .model import DetSegModel, ModelConfig, flatten_per_anchor, unflatten_per_anchor
from .optim import AdamState, adam_step
from .tensor import Tensor
from .train import TrainResult, TrainSample, objective, prepare_targets, train_toy

__all__ = [
    "Tensor",
    "Param",
    "Layer",
    "Conv2d",
    "DepthwiseConv2d",
    "DepthwiseSeparableConv2d",
    "TransposedConv2d",
    "MaxPool2x2",
    "ReLU",
    "BatchNorm2d",
    "ResidualBlock",
    "Sequential",
    "ModelConfig",
    "DetSegModel",
    "flatten_per_anchor",
    "unflatten_per_anchor",
    "AdamState",
    "adam_step",
    "save_checkpoint",
    "load_checkpoint",
    "TrainSample",
    "TrainResult",
    "prepare_targets",
    "objective",
    "train_toy",
]
