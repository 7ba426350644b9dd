"""Shared test settings.

Hypothesis runs under one derandomized profile with a bounded number of
examples and no example database, so every run of the suite draws the
same examples.  The library itself does not depend
on Hypothesis; without it the property tests are skipped.
"""

try:
    from hypothesis import settings
except ImportError:  # pragma: no cover
    pass
else:
    settings.register_profile(
        "symmline",
        derandomize=True,
        max_examples=30,
        database=None,
        deadline=None,
        print_blob=False,
    )
    settings.load_profile("symmline")
