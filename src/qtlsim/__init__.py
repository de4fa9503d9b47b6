"""Hybrid quantum-classical transfer-learning classifiers on an exact
statevector simulator: one batched kernel runs every circuit on (B, 2**n)
states with adjoint-differentiation gradients; two classifier heads, image
encoders and a seeded experiment CLI. The kernel is float64 only: complex
product states run as their real halves, and each layer of rotations is
one Kronecker step on any qubit count."""

__version__ = "0.1.0"

from .sim import Circuit, GateOp
from .embeddings import GrayImage, StateVector, amplitude_embed, frqi_decode, frqi_encode, neqr_decode, neqr_encode
from .vqc import VqcTemplate, build_layers, circuit_adjoint, circuit_expectations
from .hybrid import AdamState, Head, HybridModel, adam_step, cross_entropy, init_model, model_backward, model_forward, softmax
from .data import Dataset, SplitSpec, balanced_group_split, batches, load_feature_csv, synth_dataset
from .metrics import MetricRecord, accuracy, auroc_binary, auroc_macro_ovr, confusion_matrix
from .training import evaluate, train

__all__ = [
    "AdamState", "Circuit", "Dataset", "GateOp", "GrayImage", "Head",
    "HybridModel", "MetricRecord", "SplitSpec", "StateVector",
    "VqcTemplate", "accuracy", "adam_step", "amplitude_embed",
    "auroc_binary", "auroc_macro_ovr", "balanced_group_split",
    "batches", "build_layers", "circuit_adjoint", "circuit_expectations",
    "confusion_matrix", "cross_entropy", "evaluate",
    "frqi_decode", "frqi_encode", "init_model", "load_feature_csv",
    "model_backward", "model_forward", "neqr_decode", "neqr_encode",
    "softmax", "synth_dataset", "train",
]
