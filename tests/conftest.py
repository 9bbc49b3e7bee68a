"""Hypothesis runs the same examples on every run and keeps no example
database, so the suite is deterministic.  Hypothesis still writes its own
caches (``.hypothesis/constants/`` and the like) into the gitignored
``.hypothesis/``.

"The same examples" holds for one command line only.  Hypothesis 6.155
mixes into its draws literal constants collected from the local modules
imported so far, so the examples depend on which test files run: with
Hypothesis 6.155.2, ``pytest tests/test_jsonio.py`` alone draws other
examples than the full suite in 10 of that file's 66 tests (1e-07 where
the full suite draws 0.5, say), each way the same on every run.  Repeat a
failure with the command that showed it.

The suite also runs on one OpenBLAS thread, as the benchmark and CI do:
threaded LU rounds differently at different thread counts, and the byte
pins of LP-backed reports were recorded on one thread.  OpenBLAS reads the
setting once, when numpy is first imported, so this file must run first."""

import os
import sys

if "numpy" in sys.modules and os.environ.get("OPENBLAS_NUM_THREADS") != "1":
    raise RuntimeError("numpy was imported before tests/conftest.py could pin "
                       "OPENBLAS_NUM_THREADS=1; set it in the environment")
os.environ["OPENBLAS_NUM_THREADS"] = "1"

from hypothesis import settings  # noqa: E402

settings.register_profile("deterministic", derandomize=True, database=None)
settings.load_profile("deterministic")
