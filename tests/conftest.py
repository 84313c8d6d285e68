"""Hypothesis draws the same examples on every run.

`derandomize` seeds each property from its own source, and without an
example database no failure remembered in a local `.hypothesis/` directory
is replayed, so two checkouts run the same examples. Each test keeps its own
`max_examples`.
"""

from hypothesis import settings

settings.register_profile("reproducible", derandomize=True, database=None)
settings.load_profile("reproducible")
