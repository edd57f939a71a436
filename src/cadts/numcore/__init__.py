"""Minimal dense-tensor arithmetic with reverse-mode autodiff and Adam."""

from .optim import AdamState, CosineSchedule, adam_step, cosine_lr
from .tensor import (
    Tape,
    Tensor,
    add,
    conv_rows,
    dense,
    dropout,
    matmul,
    mul,
    neg,
    reshape,
    softmax,
    square,
    sub,
    tmean,
    transpose,
    tsum,
)

__all__ = [
    "AdamState",
    "CosineSchedule",
    "Tape",
    "Tensor",
    "adam_step",
    "add",
    "conv_rows",
    "cosine_lr",
    "dense",
    "dropout",
    "matmul",
    "mul",
    "neg",
    "reshape",
    "softmax",
    "square",
    "sub",
    "tmean",
    "transpose",
    "tsum",
]
