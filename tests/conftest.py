"""Hypothesis profiles: ``HYPOTHESIS_PROFILE=ci`` draws the same examples on
every run and drops the per-example deadline, so fuzz tests cannot flake on
a slow or shared runner."""

import os

from hypothesis import settings

settings.register_profile("ci", derandomize=True, deadline=None)
settings.load_profile(os.environ.get("HYPOTHESIS_PROFILE", "default"))
