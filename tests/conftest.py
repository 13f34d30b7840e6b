import os
import warnings

import pytest
from hypothesis import settings

from thetakernels.curves import build_curve

# When a property fails, hypothesis' report hook imports its patch module,
# which imports libcst if that is installed; libcst's import raises a
# DeprecationWarning, and under -W error the report ends in an
# INTERNALERROR without the falsifying example.  Importing the patch module
# here, with DeprecationWarning ignored for this import only, keeps it.
with warnings.catch_warnings():
    warnings.simplefilter("ignore", DeprecationWarning)
    try:
        import hypothesis.extra._patching  # noqa: F401
    except ImportError:
        pass

# HYPOTHESIS_PROFILE=ci (set in the CI workflow) draws the same examples on
# every run and prints the blob that replays a failing one; local runs keep
# hypothesis' default random profile.
settings.register_profile("ci", derandomize=True, print_blob=True)
settings.load_profile(os.environ.get("HYPOTHESIS_PROFILE", "default"))


@pytest.fixture(scope="session")
def lemniscatic():
    """y^2 = x^3 - x, genus 1, square period lattice."""
    return build_curve([0, -1, 0, 1])


@pytest.fixture(scope="session")
def hexagonal():
    """y^2 = x^3 - 1, genus 1, hexagonal period lattice."""
    return build_curve([-1, 0, 0, 1])


@pytest.fixture(scope="session")
def genus2():
    """y^2 = x^5 - x, genus 2."""
    return build_curve([0, -1, 0, 0, 0, 1])
