"""Every test run draws the same Hypothesis examples: one derandomized
profile, with no example database, is registered and loaded here."""

from hypothesis import settings

settings.register_profile("deterministic", derandomize=True, database=None)
settings.load_profile("deterministic")
