"""Test-session settings shared by every test module.

Hypothesis runs under one derandomized profile: each property test draws
the same examples on every run, seeded from the test itself, and no
example database carries failures from one run into the next.  A test's
own ``@settings`` still sets its example count and deadline.
"""

from hypothesis import settings

settings.register_profile("ybuskit", derandomize=True, database=None)
settings.load_profile("ybuskit")
