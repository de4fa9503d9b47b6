"""Hybrid quantum-classical transfer-learning classifiers on an exact
statevector simulator: feature/image embeddings, layered variational
circuits simulated on (B, 2**n) state batches with adjoint-differentiation
gradients, two classifier heads, and a seeded experiment CLI. Real circuits
run on float64 batches, one matmul per gate; others on complex128."""

__version__ = "0.1.0"

from .sim import Circuit, GateOp, StateVector, apply_gate, expectation_z, marginal_prob_one, probabilities, run_circuit
from .embeddings import GrayImage, amplitude_embed, angle_embed, dense_angle_embed, frqi_decode, frqi_encode, neqr_decode, neqr_encode
from .vqc import VqcTemplate, build_layers, circuit_adjoint, circuit_expectations
from .hybrid import AdamState, HybridModel, adam_step, cross_entropy, init_model, model_backward, model_forward, param_layout, softmax
from .data import Dataset, SplitSpec, balanced_group_split, batches, load_feature_csv, synth_dataset
from .metrics import MetricRecord, accuracy, auroc_binary, auroc_macro_ovr, confusion_matrix
from .training import evaluate, train

__all__ = [
    "AdamState", "Circuit", "Dataset", "GateOp", "GrayImage",
    "HybridModel", "MetricRecord", "SplitSpec", "StateVector",
    "VqcTemplate", "accuracy", "adam_step", "amplitude_embed", "angle_embed",
    "apply_gate", "auroc_binary", "auroc_macro_ovr", "balanced_group_split",
    "batches", "build_layers", "circuit_adjoint", "circuit_expectations",
    "confusion_matrix", "cross_entropy", "dense_angle_embed", "evaluate",
    "expectation_z", "frqi_decode", "frqi_encode", "init_model",
    "load_feature_csv", "marginal_prob_one", "model_backward", "model_forward",
    "neqr_decode", "neqr_encode", "param_layout", "probabilities", "run_circuit",
    "softmax", "synth_dataset", "train",
]
