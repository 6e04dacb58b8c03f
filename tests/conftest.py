"""Property tests draw the same examples on every host: derandomized, with no
example database and no per-example deadline.  Each test keeps its own
``max_examples`` bound."""

from hypothesis import settings

settings.register_profile("deterministic", derandomize=True, database=None, deadline=None)
settings.load_profile("deterministic")
