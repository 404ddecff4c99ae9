"""Test-session settings shared by every test module.

Hypothesis draws its examples from a seed derived from each test, so the
suite tests the same examples on every run; a test's own ``@settings``
still sets its example count and deadline.
"""

from hypothesis import settings

settings.register_profile("derandomized", derandomize=True)
settings.load_profile("derandomized")
