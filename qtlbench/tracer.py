"""Outside-in tracer: times calls into qtlsim's public functions.

Nothing under ``src/`` knows about it. Each target function is wrapped
and the wrapper is bound in every ``qtlsim.*`` module namespace that
holds the original, because ``from .x import f`` copies the binding
(``training.model_backward``, ``hybrid.circuit_param_shift``,
``cli.init_model`` ...). Spans nest, so each target gets its self time:
its duration minus the time covered by the targets it called.
"""
from __future__ import annotations

import functools
import sys
import time
from collections import defaultdict

PACKAGE = "qtlsim"

# module -> public functions on the hot path, in the layer order of the
# README. A name missing from the program is reported as absent.
TARGETS = {
    "sim": ("run_circuit_raw",),
    "vqc": ("circuit_param_shift", "circuit_expectations", "zexp_from_amps"),
    "embeddings": ("amplitude_embed",),
    "hybrid": ("model_forward", "model_backward", "dense_forward", "adam_step",
               "model_with_vector", "grads_to_vector", "init_model"),
    "training": ("train", "evaluate"),
    "metrics": ("auroc_binary",),
    "data": ("load_feature_csv", "balanced_group_split", "batches"),
    "checkpoint": ("load_checkpoint", "save_checkpoint"),
    "config": ("load_config",),
    "cli": ("write_metrics_csv", "write_manifest"),
}

CIRCUIT_RUN = "sim.run_circuit_raw"
GRADIENT = "hybrid.model_backward"
BYTES_PER_AMPLITUDE = 16  # complex128


def package_modules():
    return [m for name, m in list(sys.modules.items())
            if m is not None and (name == PACKAGE or name.startswith(PACKAGE + "."))]


def rebind(original, replacement) -> list:
    """Point every qtlsim namespace binding of ``original`` at ``replacement``.

    Returns the (module, attribute) pairs changed, for ``restore``.
    """
    changed = []
    for module in package_modules():
        for attr, value in list(vars(module).items()):
            if value is original:
                setattr(module, attr, replacement)
                changed.append((module, attr))
    return changed


def restore(changed, original):
    for module, attr in changed:
        setattr(module, attr, original)


def _find_circuit(args, kwargs):
    for value in list(args) + list(kwargs.values()):
        if hasattr(value, "ops") and hasattr(value, "n_qubits"):
            return value
    return None


class Tracer:
    """Per-target call counts and self time, plus circuit work counters."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.calls = defaultdict(int)
        self.self_s = defaultdict(float)
        self.open = defaultdict(int)
        self.stack = []  # [start, time covered by child spans] per open span
        self.gates = 0
        self.bytes_computed = 0
        self.runs_in_gradient = 0
        self.absent = []
        self._installed = []

    def wrap(self, name, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if name == CIRCUIT_RUN:
                self._count_circuit(args, kwargs)
            frame = [self.clock(), 0.0]
            self.stack.append(frame)
            self.open[name] += 1
            try:
                return fn(*args, **kwargs)
            finally:
                duration = self.clock() - frame[0]
                self.open[name] -= 1
                self.stack.pop()
                self.calls[name] += 1
                self.self_s[name] += duration - frame[1]
                if self.stack:
                    self.stack[-1][1] += duration
        return traced

    def _count_circuit(self, args, kwargs):
        circuit = _find_circuit(args, kwargs)
        if circuit is not None:
            n_gates = len(circuit.ops)
            self.gates += n_gates
            # one read and one write of the state per gate
            self.bytes_computed += n_gates * (2 ** circuit.n_qubits) * BYTES_PER_AMPLITUDE * 2
        if self.open[GRADIENT]:
            self.runs_in_gradient += 1

    def install(self, targets=TARGETS):
        for module_name, functions in targets.items():
            module = sys.modules.get(f"{PACKAGE}.{module_name}")
            for fn_name in functions:
                name = f"{module_name}.{fn_name}"
                original = getattr(module, fn_name, None) if module else None
                if not callable(original):
                    self.absent.append(name)
                    continue
                changed = rebind(original, self.wrap(name, original))
                self._installed.append((changed, original))

    def uninstall(self):
        for changed, original in self._installed:
            restore(changed, original)
        self._installed = []

    def summary(self) -> dict:
        """Plain-data totals; every target appears, absent ones as zero."""
        names = [f"{m}.{f}" for m, fs in TARGETS.items() for f in fs]
        return {
            "calls": {n: self.calls.get(n, 0) for n in names},
            "self_s": {n: self.self_s.get(n, 0.0) for n in names},
            "gates": self.gates,
            "bytes_computed": self.bytes_computed,
            "runs_in_gradient": self.runs_in_gradient,
            "absent": list(self.absent),
        }
