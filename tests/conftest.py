"""Hypothesis profiles for the test suite.

Property tests run derandomized by default: the examples are a fixed
function of each test, so a tree passes or fails the same way on every run
and on every machine.  ``--hypothesis-profile explore`` draws fresh random
examples instead, to search beyond the fixed ones.
"""

from hypothesis import settings

settings.register_profile("derandomized", derandomize=True)
settings.register_profile("explore", derandomize=False)


def pytest_configure(config):
    if not config.getoption("--hypothesis-profile"):
        settings.load_profile("derandomized")
