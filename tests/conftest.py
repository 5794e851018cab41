"""One Hypothesis profile for every property test in the suite.

Derandomized, so every run draws the same examples, and without an example
database, so no run replays what an earlier one stored.
"""

from hypothesis import settings

settings.register_profile("qlinesearch", max_examples=100, deadline=None,
                          derandomize=True, database=None)
settings.load_profile("qlinesearch")
