"""Hypothesis runs the same examples on every run and keeps no database,
so the suite is deterministic and leaves no ``.hypothesis/`` behind."""

from hypothesis import settings

settings.register_profile("deterministic", derandomize=True, database=None)
settings.load_profile("deterministic")
