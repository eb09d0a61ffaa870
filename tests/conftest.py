"""Shared test settings.

One hypothesis profile for the whole suite: examples are drawn from a fixed
seed (`derandomize`), so every run of the suite tests the same cases and a
failure reproduces; no example database is written and no per-example time
limit applies.  Tests set only `max_examples`.
"""

from hypothesis import settings

settings.register_profile("hymad", derandomize=True, deadline=None,
                          database=None)
settings.load_profile("hymad")
