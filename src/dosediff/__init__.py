"""Anatomy-conditioned diffusion model for radiotherapy dose prediction
on synthetic phantoms, built on a from-scratch autodiff engine, with
clinical dose-volume evaluation metrics and a deterministic experiment
harness.
"""

__version__ = "0.1.0"

from .config import FusionStrategy, ModelConfig
from .diffusion import (NoiseSchedule, make_schedule, p_sample_step, predict_x0,
                        q_sample, sample_loop, training_step)
from .networks import ConditionStack, DoseModel
from .optim import ParamStore, adam_step
from .phantom import PhantomSample, generate_phantom, normalize_batch, read_sample, write_sample
from .tensor import Tensor, backward, forward_op, no_grad

__all__ = [
    "__version__",
    "Tensor", "backward", "forward_op", "no_grad",
    "ParamStore", "adam_step",
    "NoiseSchedule", "make_schedule", "q_sample", "predict_x0",
    "p_sample_step", "training_step", "sample_loop",
    "ModelConfig", "FusionStrategy", "ConditionStack", "DoseModel",
    "PhantomSample", "generate_phantom", "normalize_batch",
    "read_sample", "write_sample",
]
