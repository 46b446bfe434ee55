"""Shared test configuration.

Hypothesis runs derandomized: each property draws the same examples on
every run, so a passing suite stays passing until the code or the test
changes.  Per-test ``@settings`` (``max_examples``, ``deadline``) and
``@example`` pins still apply on top of this profile.
"""

from hypothesis import settings

settings.register_profile("loopfwm", derandomize=True)
settings.load_profile("loopfwm")
