"""Session-wide settings for every test run.

OpenBLAS picks its GEMM kernel from the CPU when numpy loads, and its
kernels round some products differently in the last bits, so the byte
pins in ``test_cli.py`` fix the kernel: the AVX2 one, which most x86-64
hosts can run. numpy is not yet imported when pytest loads this file, so
the variable takes effect for the whole session.

One hypothesis profile: derandomized, so the suite is deterministic, and
without a per-example deadline, so a slow host cannot fail a correct
example."""
import os

os.environ["OPENBLAS_CORETYPE"] = "Haswell"

from hypothesis import settings  # noqa: E402

settings.register_profile("qtlsim", derandomize=True, deadline=None)
settings.load_profile("qtlsim")
