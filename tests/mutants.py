"""Mutation gate: the test suite must fail on each of a table of small,
deliberate faults in ``src/qtlsim``.

Each mutant is one exact text edit: a file of the package, the old text
and the new text. The script copies ``src/``, ``tests/``,
``pyproject.toml`` and ``README.md`` into a temporary directory, runs
``pytest -x -q`` there once on the clean copy, which must pass, and then
once per mutant with its edit written into the copy. It exits 1 if the clean copy fails, if a
mutant's old text no longer occurs exactly once in its file (a stale
mutant), or if the suite passes with a mutant in place (a survivor).

Run it with ``python tests/mutants.py``; the file is not named
``test_*``, so pytest does not collect it. A mutant that survives calls
for a sharper test, not for a weaker mutant.
"""
from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

# (what the fault is, file under src/qtlsim, old text, new text)
MUTANTS = [
    ("low factor not transposed", "sim.py",
     "_kron(mats[split:].swapaxes(1, 2))",
     "_kron(mats[split:])"),
    ("sign of ROTATION_G['ry']", "sim.py",
     '"ry": np.array([[0.0, -1.0], [1.0, 0.0]])',
     '"ry": np.array([[0.0, 1.0], [-1.0, 0.0]])'),
    ("[1, -1] sign of product_state's halves", "sim.py",
     "h * [1.0, -1.0]",
     "h * [1.0, 1.0]"),
    ("imaginary half negated in product_state", "sim.py",
     "np.stack([low.real, low.imag], axis=1)",
     "np.stack([low.real, -low.imag], axis=1)"),
    ("the sweep applies the forward factors untransposed", "sim.py",
     "np.ascontiguousarray(f.T)",
     "np.ascontiguousarray(f)"),
    ("the sweep un-permutes with gather instead of inverse", "sim.py",
     "np.take(amps, step.inverse if adjoint else step.gather, axis=-1)",
     "np.take(amps, step.gather, axis=-1)"),
    ("the fold permutes the sign columns by gather instead of inverse", "sim.py",
     "signs[:, steps[-1].inverse]",
     "signs[:, steps[-1].gather]"),
    ("the component-major rotation swaps G's two off-diagonal entries", "sim.py",
     "s * v1 * g[0, 1], c * v1 + s * v0 * g[1, 0]",
     "s * v1 * g[1, 0], c * v1 + s * v0 * g[0, 1]"),
    ("the sweep transposes the low factor only", "sim.py",
     "for f in (high, low_t))",
     "for f in (high.T, low_t))"),
    ("bits of one qubit swapped in _kron_rows", "sim.py",
     "out=out[:, :, bit])",
     "out=out[:, :, 1 - bit])"),
    ("the prefix walk un-applies by M, not its transpose", "vqc.py",
     "m.swapaxes(-1, -2) @ cross[:, cols]",
     "m @ cross[:, cols]"),
    ("the prefix walk's right factor not conjugated", "vqc.py",
     "@ cross[:, cols] @ m.conj()",
     "@ cross[:, cols] @ m"),
    ("the prefix walk stops one layer too early", "vqc.py",
     "for layer in prefix[:0:-1]:",
     "for layer in prefix[:1:-1]:"),
    ("a fused term credited only to its run's first slot", "vqc.py",
     "for runs, slots in layer.by_position:",
     "for runs, slots in layer.by_position[:1]:"),
    ("a fused angle drops its run's last slot", "sim.py",
     "for runs, slots in later:",
     "for runs, slots in later[:-1]:"),
    ("the sweep infers the prefix from the number of steps", "vqc.py",
     "circuit.program[: program.start]",
     "circuit.program[: len(circuit.program) - len(program.steps)]"),
    ("lambda not conjugated at the prefix boundary", "vqc.py",
     "_qubit_cross(np.conj(lam)[None], phi[None])",
     "_qubit_cross(lam[None], phi[None])"),
    ("the halves joined as a - ib at the prefix boundary", "vqc.py",
     "h[0] + 1j * h[1]",
     "h[0] - 1j * h[1]"),
    ("sign of the adjoint's rx generator", "vqc.py",
     "g = ROTATION_G[layer.kind]",
     "g = ROTATION_G[layer.kind].conj()"),
    ("ANGLE_SCALE dropped from dpre_out", "hybrid.py",
     "dfull[:, n_q:] * ANGLE_SCALE * (1.0 - np.tanh(pre_out) ** 2)",
     "dfull[:, n_q:] * (1.0 - np.tanh(pre_out) ** 2)"),
    ("tanh derivative dropped from dpre_out", "hybrid.py",
     "dfull[:, n_q:] * ANGLE_SCALE * (1.0 - np.tanh(pre_out) ** 2)",
     "dfull[:, n_q:] * ANGLE_SCALE"),
    ("q and embedding gradient columns swapped", "hybrid.py",
     'dfull[:, :n_q].sum(axis=0)\n    if head.mode == "dqc":\n'
     '        dpre_out = dfull[:, n_q:]',
     'dfull[:, -n_q:].sum(axis=0)\n    if head.mode == "dqc":\n'
     '        dpre_out = dfull[:, :-n_q]'),
    ("the embedding columns of the angle matrix shifted by one", "hybrid.py",
     'params[:, p["q"].size :] = np.tanh(pre_out) * ANGLE_SCALE',
     'params[:, p["q"].size :] = np.roll(np.tanh(pre_out) * ANGLE_SCALE, 1, axis=1)'),
    ("prefix vectors start at |1>", "sim.py",
     "vectors[0] = 1.0",
     "vectors[1] = 1.0"),
    ("Adam bias correction removed", "hybrid.py",
     "m_hat = m / (1.0 - ADAM_BETA1**t)",
     "m_hat = m"),
    ("ties ranked without midranks", "metrics.py",
     "ranks[order] = np.repeat(0.5 * (starts + ends) + 1.0, ends - starts + 1)",
     "ranks[order] = np.arange(1.0, n + 1)"),
    ("the PGM token pattern ends a token at '#'", "embeddings.py",
     'rb"#[^\\r\\n]*|(\\S+)"',
     'rb"#[^\\r\\n]*|([^\\s#]+)"'),
    ("evaluate --split skips the checkpoint digest", "cli.py",
     'for key in ("checkpoint_sha256", "data_sha256")',
     'for key in ("data_sha256",)'),
    ("--out checked only where it is itself a file", "cli.py",
     "    while not os.path.isdir(ancestor):\n        if os.path.exists(ancestor):\n",
     "    if os.path.exists(args.out) and not os.path.isdir(args.out):\n        if True:\n"),
    ("evaluate's head comparison skips depth", "cli.py",
     "for f in fields(Head)}",
     'for f in fields(Head) if f.name != "depth"}'),
    ("the 16-qubit bound dropped", "hybrid.py",
     "if self.n_qubits > MAX_QUBITS:",
     "if False:"),
    ("evaluate digests the checkpoint file as the data", "cli.py",
     "_digests(args.checkpoint, config.data)",
     "_digests(args.checkpoint, args.checkpoint)"),
    ("NEQR color shifted by n, not 2n", "embeddings.py",
     "amps[(image.pixels << (2 * n)) | positions]",
     "amps[(image.pixels << n) | positions]"),
    ("Kronecker factors in reversed order", "sim.py",
     "4 * np.arange(k)[:, None, None]",
     "4 * np.arange(k)[::-1, None, None]"),
    ("_kron's product over the wrong axis", "sim.py",
     "[_kron_index(len(mats))].prod(axis=0)",
     "[_kron_index(len(mats))].prod(axis=1)"),
    ("the per-row refusal silenced", "sim.py",
     'if layer.kind != "ry" or rotations.ndim != 3:',
     'if layer.kind != "ry":'),
    ("the rx refusal silenced", "sim.py",
     'if layer.kind != "ry" or rotations.ndim != 3:',
     "if rotations.ndim != 3:"),
    ("z_signs reads the bits of the mirrored qubits", "sim.py",
     "factor_bits(n_qubits)[list(measured_qubits)]",
     "factor_bits(n_qubits)[::-1][list(measured_qubits)]"),
    ("fixed ry generator in the adjoint", "vqc.py",
     "g = ROTATION_G[layer.kind]",
     'g = {**ROTATION_G, "ry": np.array([[0.0, -1.0], [1.0, 0.0]])}[layer.kind]'),
    ("bit-flip table pointed at the diagonal", "vqc.py",
     "out[p, a, 1 - a] = rows * d + (rows ^ (1 << (k - 1 - p)))",
     "out[p, a, 1 - a] = rows * d + rows"),
    ("weight decay dropped", "hybrid.py",
     "g = grads + state.weight_decay * params",
     "g = grads"),
    ("cross_entropy's upper label bound loosened", "hybrid.py",
     "bad = labels[(labels < 0) | (labels >= p.shape[1])]",
     "bad = labels[(labels < 0) | (labels > p.shape[1])]"),
    ("cross_entropy's lower label bound loosened", "hybrid.py",
     "bad = labels[(labels < 0) | (labels >= p.shape[1])]",
     "bad = labels[(labels < -1) | (labels >= p.shape[1])]"),
    ("ties keep the latest validation epoch", "training.py",
     "return max(val, key=lambda rec: rec.auroc)",
     "return max(reversed(val), key=lambda rec: rec.auroc)"),
    ("SplitSpec accepts a zero ratio", "data.py",
     "all(r > 0 for r in self.ratios)",
     "all(r >= 0 for r in self.ratios)"),
    ("balance trim dropped", "data.py",
     "if len(of_class) > keep_per_class:",
     "if False:"),
    ("numpy's default comment handling in the CSV parse", "data.py",
     "comments=None)",
     'comments="#")'),
    ("a '#' in a str config value passes", "config.py",
     '("#" in value or value != value.strip()',
     '(value != value.strip()'),
    ("a config that is not UTF-8 escapes as a data error", "config.py",
     "except (OSError, UnicodeDecodeError) as exc:",
     "except OSError as exc:"),
    ("a feature CSV that is not UTF-8 escapes unnamed", "data.py",
     "    except UnicodeDecodeError:  # decoded in chunks",
     "    except KeyError:  # decoded in chunks"),
    ("the array size cap dropped", "config.py",
     "if values > MAX_ARRAY_VALUES:",
     "if False:"),
    ("a layer one qubit short of the width indexed whole", "sim.py",
     "slice(None) if len(self.runs) == n_qubits else self.targets",
     "slice(None) if len(self.runs) >= n_qubits - 1 else self.targets"),
    ("non-finite config floats pass", "config.py",
     'if f.type == "float" and not math.isfinite(value):',
     "if False:"),
]
# Dropped, each because the code it edited is deleted:
# - "transfer matrix refusal silenced": sim.transfer_matrix and its per-row
#   angle refusal are gone.
# - "transposed transfer matrix": model_forward no longer multiplies by T.
# - "adjoint branch ignored in layer_factors": layer_factors has no adjoint
#   branch; the sweep transposes the forward's factors.
# - "a shared row no longer broadcasts against per-row factors": kernel
#   factors are (d, d) only, so apply_step's reshape(amps.shape), the
#   mutant's text, is now the code.
# - "cumprod direction in _add_prefix_grads" and "sign of ROTATION_G['rx']
#   in _add_prefix_grads": the prefix's environment sweep is gone; the
#   prefix walks the sweep's per-qubit cross matrices instead.


def suite_passes(tree: Path) -> bool:
    """True when ``pytest -x -q`` passes in ``tree``; no bytecode or cache
    is written, so an edit is never shadowed by a stale compiled file."""
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")
    done = subprocess.run([sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider"],
                          cwd=tree, env=env, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
    return done.returncode == 0


def main() -> int:
    start = time.perf_counter()
    failed = []
    with tempfile.TemporaryDirectory() as tmp:
        tree = Path(tmp)
        for name in ("src", "tests"):
            shutil.copytree(ROOT / name, tree / name,
                            ignore=shutil.ignore_patterns("__pycache__", ".hypothesis"))
        for name in ("pyproject.toml", "README.md"):
            shutil.copy(ROOT / name, tree)
        if not suite_passes(tree):
            print("the unmutated copy fails its tests")
            return 1
        for fault, file, old, new in MUTANTS:
            path = tree / "src" / "qtlsim" / file
            text = path.read_text()
            if text.count(old) != 1:
                verdict = "STALE"
            else:
                path.write_text(text.replace(old, new))
                verdict = "SURVIVED" if suite_passes(tree) else "killed"
                path.write_text(text)
            print(f"{verdict:8}  {file}: {fault}", flush=True)
            if verdict != "killed":
                failed.append(fault)
    print(f"{len(MUTANTS) - len(failed)}/{len(MUTANTS)} mutants killed "
          f"in {time.perf_counter() - start:.0f} s")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
