"""Hypothesis runs the same examples on every run and keeps no example
database, so the suite is deterministic.  Hypothesis still writes its own
caches (``.hypothesis/constants/`` and the like) into the gitignored
``.hypothesis/``."""

from hypothesis import settings

settings.register_profile("deterministic", derandomize=True, database=None)
settings.load_profile("deterministic")
