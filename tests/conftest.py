"""One hypothesis profile for every test run: derandomized, so the suite
is deterministic, and without a per-example deadline, so a slow host
cannot fail a correct example."""
from hypothesis import settings

settings.register_profile("qtlsim", derandomize=True, deadline=None)
settings.load_profile("qtlsim")
