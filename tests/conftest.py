import os
import warnings

import numpy as np
import pytest
from hypothesis import assume, settings
from hypothesis import strategies as st

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


@st.composite
def squarefree_polynomials(draw, close_pair=False):
    """Ascending complex coefficients of a squarefree f of degree 3 to 8:
    its roots lie in the square |Re|, |Im| <= 2, at least 0.3 apart, and
    its leading coefficient has modulus 0.5 to 2.  With ``close_pair``,
    the second root is then moved to 1e-7 to 1e-4 times the root scale
    max(1, |roots|) from the first, in any direction."""
    degree = draw(st.integers(3, 8))
    part = st.floats(-2.0, 2.0, allow_subnormal=False)
    roots = draw(st.lists(st.builds(complex, part, part),
                          min_size=degree, max_size=degree))
    gaps = np.abs(np.subtract.outer(roots, roots)) + 9 * np.eye(degree)
    assume(np.min(gaps) >= 0.3)
    if close_pair:
        scale = max(1.0, float(np.max(np.abs(roots))))
        roots[1] = roots[0] + 10.0 ** draw(st.floats(-7.0, -4.0)) * scale \
            * np.exp(1j * draw(st.floats(-np.pi, np.pi)))
    lead = draw(st.floats(0.5, 2.0)) * np.exp(1j * draw(st.floats(-3.1, 3.1)))
    return (lead * np.poly(roots))[::-1].tolist()


@pytest.fixture(scope="session")
def random_curves():
    """The hypothesis strategy of squarefree curves: draw from it with
    ``data.draw(random_curves)`` in a test given ``st.data()``."""
    return squarefree_polynomials().map(build_curve)


@pytest.fixture(scope="session")
def close_pair_polynomials():
    """The hypothesis strategy of squarefree_polynomials with one root pair
    1e-7 to 1e-4 times the root scale apart."""
    return squarefree_polynomials(close_pair=True)
