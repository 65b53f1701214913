"""Hypothesis profiles: ``HYPOTHESIS_PROFILE=ci`` draws the same examples on
every run and drops the per-example deadline, so fuzz tests cannot flake on
a slow or shared runner.

A failing ``@given`` test makes Hypothesis import its patch writer, which
imports libcst where it is installed. libcst raises mypy_extensions'
``DeprecationWarning`` inside pytest's report hook, and under ``-W error``
that ends the whole session (exit 3) before any later test runs. So the
module is imported once here with that one warning ignored; every other
warning stays an error."""

import os
import warnings

from hypothesis import settings

with warnings.catch_warnings():
    warnings.filterwarnings("ignore", message="mypy_extensions.TypedDict is deprecated", category=DeprecationWarning)
    try:
        import hypothesis.extra._patching  # noqa: F401
    except ImportError:  # no libcst: Hypothesis writes no patches
        pass

settings.register_profile("ci", derandomize=True, deadline=None)
settings.load_profile(os.environ.get("HYPOTHESIS_PROFILE", "default"))
