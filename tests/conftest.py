"""One hypothesis profile for the whole suite: every run draws the same
examples (no example database, no per-example deadline)."""
from hypothesis import settings

settings.register_profile("polarsec", derandomize=True, deadline=None, database=None)
settings.load_profile("polarsec")
