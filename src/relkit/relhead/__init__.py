"""Differentiable relationship head: forward pipeline, loss, gradients,
training loop, and scene inference."""

from .model import (classify_objects, Example, forward_scene, ForwardTrace,
                    geometric_quad, loss_and_gradients, predict_relationship,
                    scene_loss, softmax)
from .params import (Dims, init_params, load_params, ModelParams, save_params,
                     Toggles)
from .train import (build_example, CandidateIndex, check_inputs,
                    draw_candidates, predict_batch, predict_scene, train,
                    TrainConfig)

__all__ = [
    "classify_objects", "Example", "forward_scene", "ForwardTrace",
    "geometric_quad", "loss_and_gradients", "predict_relationship",
    "scene_loss", "softmax", "Toggles",
    "Dims", "init_params", "load_params", "ModelParams", "save_params",
    "build_example", "CandidateIndex", "check_inputs", "draw_candidates",
    "predict_batch", "predict_scene", "train", "TrainConfig",
]
