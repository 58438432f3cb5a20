"""Suite-wide settings.

One hypothesis profile, loaded for every run: derandomized with a fixed
number of examples, so the same examples run every time, and with no
example database.  Hypothesis also caches the constants it reads from
local modules, during collection; that cache goes to a temporary
directory removed when the run ends, so no .hypothesis/ directory is
written into the checkout.
"""

import shutil
import tempfile

import pytest
from hypothesis import settings
from hypothesis.configuration import set_hypothesis_home_dir

settings.register_profile("tier1", derandomize=True, max_examples=200,
                          deadline=None, database=None)
settings.load_profile("tier1")

_HOME = pytest.StashKey[str]()


def pytest_configure(config):
    config.stash[_HOME] = tempfile.mkdtemp(prefix="hypothesis-")
    set_hypothesis_home_dir(config.stash[_HOME])


def pytest_unconfigure(config):
    set_hypothesis_home_dir(None)
    shutil.rmtree(config.stash[_HOME], ignore_errors=True)
