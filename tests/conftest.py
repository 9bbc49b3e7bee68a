"""Hypothesis runs the same examples on every run and keeps no example
database, so the suite is deterministic.  Hypothesis still writes its own
caches (``.hypothesis/constants/`` and the like) into the gitignored
``.hypothesis/``.

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
