"""Self-test of the benchmark: python3 qtlbench/selftest.py

Checks the tracer's self-time arithmetic and rebinding, that a broken
parameter-shift constant fails the gradient check, that a tiny run of
every workload emits every named metric, and that BENCHMARK.json names
exactly the metrics the benchmark prints.
"""
import contextlib
import io
import json
import os
import shutil
import subprocess
import sys
import tempfile
import unittest
from dataclasses import replace

import run  # sets single-threaded BLAS before numpy loads
import checks
import inputs
from tracer import Tracer

sys.path.insert(0, run.SRC)

import qtlsim.hybrid
import qtlsim.training
import qtlsim.vqc
from qtlsim.cli import main as qtlsim_main


def tiny(w: run.Workload) -> run.Workload:
    """The same command and head on inputs small enough for a self-test."""
    n_qubits = 4 if w.model["mode"] == "purevqc" else 2
    model = dict(w.model, in_dim=16, n_qubits=n_qubits, depth=1, epochs=1)
    return replace(w, name=w.name + "_tiny", model=model, rows=48, group_size=2,
                   fixture_rows=24)


class FakeClock:
    def __init__(self, times):
        self.times = iter(times)

    def __call__(self):
        return next(self.times)


class TracerTest(unittest.TestCase):
    def test_self_time_of_nested_calls(self):
        tracer = Tracer(clock=FakeClock([0.0, 1.0, 4.0, 5.0, 6.0, 10.0]))

        def inner():
            return 1

        traced_inner = tracer.wrap("m.inner", inner)

        def outer():
            return traced_inner() + traced_inner()

        self.assertEqual(tracer.wrap("m.outer", outer)(), 2)
        self.assertEqual(tracer.calls["m.inner"], 2)
        self.assertEqual(tracer.calls["m.outer"], 1)
        self.assertAlmostEqual(tracer.self_s["m.inner"], 3.0 + 1.0)
        self.assertAlmostEqual(tracer.self_s["m.outer"], 10.0 - 4.0)
        self.assertEqual(tracer.stack, [])

    def test_rebinds_every_copied_binding_and_restores(self):
        original = qtlsim.hybrid.model_backward
        tracer = Tracer()
        tracer.install()
        try:
            self.assertIsNot(qtlsim.hybrid.model_backward, original)
            self.assertIs(qtlsim.training.model_backward, qtlsim.hybrid.model_backward)
        finally:
            tracer.uninstall()
        self.assertIs(qtlsim.training.model_backward, original)
        self.assertIs(qtlsim.hybrid.model_backward, original)

    def test_absent_target_is_reported_not_raised(self):
        tracer = Tracer()
        tracer.install({"hybrid": ("no_such_function",), "no_such_module": ("f",)})
        tracer.uninstall()
        self.assertEqual(tracer.absent, ["hybrid.no_such_function", "no_such_module.f"])
        self.assertEqual(tracer.summary()["calls"]["sim.run_circuit_raw"], 0)

    def test_counts_gates_from_the_circuit_argument(self):
        circuit = qtlsim.vqc.build_layers(qtlsim.vqc.VqcTemplate(3, 2))
        tracer = Tracer()
        tracer.install({"sim": ("run_circuit_raw",)})
        try:
            qtlsim.vqc.circuit_expectations(circuit, [0.1] * circuit.n_params, [0])
        finally:
            tracer.uninstall()
        self.assertEqual(tracer.calls["sim.run_circuit_raw"], 1)
        self.assertEqual(tracer.gates, len(circuit.ops))
        self.assertEqual(tracer.bytes_computed, len(circuit.ops) * 8 * 16 * 2)


class ChecksTest(unittest.TestCase):
    def test_wrong_param_shift_fails_the_grad_check(self):
        w = tiny(run.BY_NAME["train_dqc_q4"])
        with tempfile.TemporaryDirectory(dir=prepare_work_root()) as work:
            prep = run.prepare(w, 3, work)
            out = os.path.join(work, "out")
            with contextlib.redirect_stdout(io.StringIO()):
                self.assertEqual(qtlsim_main(prep.argv + [out]), 0)
            checkpoint = os.path.join(out, "checkpoint.bin")
            ok, _ = checks.grad_check(checkpoint, prep.grad_features, prep.grad_label)
            self.assertTrue(ok)
            saved = qtlsim.vqc.PARAM_SHIFT
            qtlsim.vqc.PARAM_SHIFT = 1.0
            try:
                ok, message = checks.grad_check(checkpoint, prep.grad_features,
                                                prep.grad_label)
            finally:
                qtlsim.vqc.PARAM_SHIFT = saved
            self.assertFalse(ok, message)

    def test_inputs_follow_the_seed(self):
        def digest(seed):
            centres = inputs.class_centres(seed, 8, 2, 4.0)
            rows = inputs.cluster_rows(seed, 1, centres, 12, 3, "g")
            return rows[0].tolist(), rows[1], rows[2].tobytes()

        self.assertEqual(digest(5), digest(5))
        self.assertNotEqual(digest(5), digest(6))


class WorkloadTest(unittest.TestCase):
    def test_tiny_run_of_every_workload_emits_every_metric(self):
        for w in map(tiny, run.WORKLOADS):
            for trace, names in ((False, run.END_TO_END), (True, run.PER_LAYER)):
                with self.subTest(workload=w.name, trace=trace):
                    with contextlib.redirect_stdout(io.StringIO()):
                        result = run.run_workload(w, 1, 0.0, trace)
                    self.assertTrue(result["correct"], result)
                    self.assertEqual(result["failed"], 0)
                    self.assertEqual(sorted(result["metrics"]), sorted(n for n, _ in names))
                    if trace and w.command == "evaluate":
                        calls = result["metrics"]["vqc.circuit_param_shift.calls"]["value"]
                        self.assertEqual(calls, 0)

    def test_benchmark_json_names_the_printed_metrics(self):
        with open(os.path.join(run.ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
            spec = json.load(fh)
        self.assertEqual([w["name"] for w in spec["workloads"]], [w.name for w in run.WORKLOADS])
        for w in spec["workloads"]:
            self.assertEqual(w["why"], run.BY_NAME[w["name"]].why)
        self.assertEqual({(m["name"], m["unit"]) for m in spec["end_to_end"]}, set(run.END_TO_END))
        self.assertEqual({(m["name"], m["unit"]) for m in spec["per_layer"]}, set(run.PER_LAYER))

    def test_fails_without_the_program_sources(self):
        with tempfile.TemporaryDirectory(dir=prepare_work_root()) as bare:
            shutil.copy(os.path.join(run.ROOT, "BENCHMARK.json"), bare)
            shutil.copytree(run.BENCH_DIR, os.path.join(bare, "qtlbench"),
                            ignore=shutil.ignore_patterns("__pycache__"))
            proc = subprocess.run([sys.executable, "qtlbench/run.py", "--workload",
                                   run.WORKLOADS[0].name, "--seed", "0", "--seconds", "1",
                                   "--trace", "0"],
                                  cwd=bare, capture_output=True, text=True, timeout=60)
        self.assertNotEqual(proc.returncode, 0)
        self.assertEqual(proc.stdout, "")


def prepare_work_root() -> str:
    os.makedirs(run.WORK_ROOT, exist_ok=True)
    return run.WORK_ROOT


if __name__ == "__main__":
    unittest.main()
