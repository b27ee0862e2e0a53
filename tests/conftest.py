"""Hypothesis profiles.  `HYPOTHESIS_PROFILE=ci` selects `ci`: the same
example counts, drawn from a fixed seed and with no per-example deadline,
so a failure on a shared runner reproduces and a slow runner does not fail."""

import os

from hypothesis import settings

settings.register_profile("ci", derandomize=True, deadline=None)
settings.load_profile(os.environ.get("HYPOTHESIS_PROFILE", "default"))
