"""Test-session settings shared by every test module.

Hypothesis runs under one derandomized profile: each property test draws
the same examples on every run, seeded from the test itself, and no
example database carries failures from one run into the next.  A test's
own ``@settings`` still sets its example count and deadline.

Hypothesis's report hook imports ``hypothesis.extra._patching`` when a
property test fails, and that import (through ``libcst``) raises a
``DeprecationWarning`` from ``mypy_extensions``, an error under
``pyproject.toml``'s ``filterwarnings``: the session would stop with an
``INTERNALERROR`` instead of reporting the failure.  The module is
imported here once, with only that warning category ignored, so the hook
finds it already loaded.  Without ``libcst`` the import fails, and the
hook, which skips its patch then, has nothing to trip over.
"""

import contextlib
import warnings

from hypothesis import settings

with warnings.catch_warnings(), contextlib.suppress(ImportError):
    warnings.simplefilter("ignore", DeprecationWarning)
    import hypothesis.extra._patching  # noqa: F401

settings.register_profile("ybuskit", derandomize=True, database=None)
settings.load_profile("ybuskit")
