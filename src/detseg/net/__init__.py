"""Differentiable network core: tensors, layers, model, optimizer, training."""
