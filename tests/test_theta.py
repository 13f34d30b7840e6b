import itertools
import json
import math
import sys
import threading
import warnings
from pathlib import Path

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from thetakernels.errors import (NotPositiveDefinite, PointOnTheta,
                                 ToleranceTooSmall)
from thetakernels import theta as theta_module
from thetakernels.theta import (_TWO_PI_I, THETA_FLOOR, Characteristic,
                                RiemannMatrix, ScaledComplex, _check_tol,
                                _derivative_table, _enumerate_ellipsoid,
                                _quadratic_form, _tail_bound,
                                _truncation_radius, _upper_gamma,
                                derivative_indices, hessian_numerators,
                                log_theta_hessian, log_theta_hessians,
                                points_per_row, second_order_theta_basis,
                                theta_batch, theta_value)


def brute_theta(z, omega, char=None, deriv=None, box=10):
    """Independent oracle: direct sum over the integer box |n_i| <= box."""
    omega = np.asarray(omega, dtype=complex)
    g = omega.shape[0]
    z = np.asarray(z, dtype=complex).reshape(-1)
    if char is None:
        alpha = beta = np.zeros(g)
    else:
        alpha = np.asarray(char.alpha, float) / 2
        beta = np.asarray(char.beta, float) / 2
    if deriv is None:
        deriv = (0,) * g
    total = 0j
    for n in itertools.product(range(-box, box + 1), repeat=g):
        na = np.asarray(n, float) + alpha
        term = np.exp(1j * np.pi * na @ omega @ na
                      + 2j * np.pi * na @ (z + beta))
        for k, dk in enumerate(deriv):
            if dk:
                term *= (2j * np.pi * na[k]) ** dk
        total += term
    return total


def sc_value(x: ScaledComplex) -> complex:
    return x.value


def random_riemann(rng, g):
    """Random moderately reduced Riemann matrix with Im eigenvalues ~ 1."""
    a = rng.standard_normal((g, g))
    y = 0.25 * (a @ a.T) + np.eye(g)
    x = rng.uniform(-0.5, 0.5, (g, g))
    x = 0.5 * (x + x.T)
    return RiemannMatrix(x + 1j * y)


class TestRiemannMatrix:
    def test_symmetrized_and_pd(self):
        om = RiemannMatrix([[1e-3 + 1j, 0.2], [0.2 + 1e-12, 0.1 + 1.5j]])
        assert np.allclose(om.entries, om.entries.T, atol=0)
        assert np.all(np.linalg.eigvalsh(om.im) > 0)

    def test_rejects_non_pd(self):
        with pytest.raises(NotPositiveDefinite):
            RiemannMatrix([[1 - 1j]])
        with pytest.raises(NotPositiveDefinite):
            RiemannMatrix(np.array([[1j, 2j], [2j, 1j]]))

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf,
                                     complex(0.0, math.inf),
                                     complex(math.nan, 1.0)])
    def test_rejects_non_finite_entries(self, bad):
        # before any arithmetic: no RuntimeWarning, no failed SVD
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NotPositiveDefinite, match="finite"):
                RiemannMatrix([[bad]])
            with pytest.raises(NotPositiveDefinite, match="finite"):
                RiemannMatrix([[1j, 0.1], [bad, 2j]])


class TestLatticePoints:
    def test_g1_radius_pi(self):
        om = RiemannMatrix([[1j]])
        pts, _ = _enumerate_ellipsoid(om.chol, [0.0], [math.pi])
        assert [int(p[0]) for p in pts] == [-1, 0, 1]

    def test_empty_ellipsoid(self):
        om = RiemannMatrix([[1j]])
        # ||T * 0.5|| = sqrt(pi)/2 > 0.5
        pts, _ = _enumerate_ellipsoid(om.chol, [0.5], [0.5])
        assert list(pts) == []

    def test_g2_unit_ball(self):
        om = RiemannMatrix(1j * np.eye(2))
        pts, _ = _enumerate_ellipsoid(om.chol, [0.0, 0.0],
                                      [math.sqrt(math.pi)])
        got = {tuple(int(c) for c in p) for p in pts}
        # brute force over the |n|_inf <= 3 box
        T = om.chol
        expected = set()
        for n in itertools.product(range(-3, 4), repeat=2):
            if np.linalg.norm(T @ np.asarray(n, float)) <= math.sqrt(math.pi):
                expected.add(n)
        assert got == expected and len(got) == 5

    def test_lexicographic_order(self):
        om = RiemannMatrix(1j * np.eye(2))
        pts, _ = _enumerate_ellipsoid(om.chol, [0.1, -0.2], [4.0])
        tups = [tuple(int(c) for c in p) for p in pts]
        assert tups == sorted(tups)


def recursive_enumeration(T, center, radius):
    """The recursive Fincke-Pohst enumeration that the vectorised one
    replaced, kept verbatim as an oracle: a sorted list of tuples."""
    g = T.shape[0]
    out = []
    vec = [0] * g

    def descend(i, rem2, partial):
        if rem2 < 0:
            return
        t = T[i, i]
        s = partial[i]
        c = center[i]
        rad = math.sqrt(rem2) / abs(t)
        mid = -s / t - c
        lo = math.ceil(mid - rad - 1e-12)
        hi = math.floor(mid + rad + 1e-12)
        for n in range(lo, hi + 1):
            u = t * (n + c) + s
            rem2_next = rem2 - u * u
            if rem2_next < -1e-12 * max(1.0, rem2):
                continue
            vec[i] = n
            if i == 0:
                out.append(tuple(vec))
            else:
                nxt = partial.copy()
                nxt[:i] += T[:i, i] * (n + c)
                descend(i - 1, max(rem2_next, 0.0), nxt)

    descend(g - 1, radius * radius, np.zeros(g))
    out.sort()
    return out


class TestEnumerationProperty:
    @settings(max_examples=300, deadline=None)
    @given(data=st.data())
    def test_matches_recursive_enumeration(self, data):
        # one call with 1-4 roots; each root's group is the recursive
        # enumeration of that root alone
        g = data.draw(st.integers(1, 4), label="g")
        a = np.array(data.draw(st.lists(st.floats(-2, 2), min_size=g * g,
                                        max_size=g * g), label="a"))
        shift = data.draw(st.floats(0.25, 2), label="shift")
        spd = a.reshape(g, g) @ a.reshape(g, g).T + shift * np.eye(g)
        T = np.linalg.cholesky(math.pi * spd).T
        centers, radii = [], []
        for _ in range(data.draw(st.integers(1, 4), label="roots")):
            center = np.array(data.draw(st.lists(
                st.one_of(st.floats(-3, 3), st.sampled_from([0.0, 0.5, -0.5])),
                min_size=g, max_size=g), label="center"))
            if data.draw(st.booleans(), label="radius on a lattice point"):
                n = np.array(data.draw(st.lists(st.integers(-2, 2), min_size=g,
                                                max_size=g), label="n"))
                radius = float(np.linalg.norm(T @ (n + center))) or 1.0
            else:
                radius = data.draw(st.floats(0.01, 3.5), label="radius")
            centers.append(center)
            radii.append(radius)
        got, counts = _enumerate_ellipsoid(T, np.array(centers), radii)
        assert got.shape == (sum(counts), g) and len(counts) == len(radii)
        start = 0
        for center, radius, count in zip(centers, radii, counts):
            assert [tuple(v) for v in got[start:start + count].tolist()] == \
                recursive_enumeration(T, center, radius)
            start += count

    def test_unbounded_center_is_a_value_error(self):
        T = RiemannMatrix(1j * np.eye(2)).chol
        for bad in (math.nan, math.inf, 1e17):
            with pytest.raises(ValueError):
                _enumerate_ellipsoid(T, np.array([0.0, bad]), 2.0)

    @pytest.mark.parametrize("omega,z", [
        ([[1j]], [math.nan]), ([[1j]], [math.inf]), ([[1j]], [1j * math.inf]),
        ([[1j]], [1e300j]), ([[1j]], [-1e300]), ([[1j]], [2.0 ** 53]),
        ([[1e-300j]], [0.3 + 0.1j]),
    ])
    def test_unbounded_argument_is_a_value_error(self, omega, z):
        """Raised before any arithmetic on z can overflow or warn, for a
        single row and for a batch with one bad row."""
        om = RiemannMatrix(omega)
        char = Characteristic.zero(1)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for arg in (np.array([z], complex), np.array([[0.5], z], complex)):
                with pytest.raises(ValueError):
                    theta_batch(arg, om, [char] * len(arg), [0] * len(arg))
        assert theta_batch(np.zeros((0, 1)), om, [], []) == ([], [], [])


def levelwise_enumeration(T, centers, radii):
    """The level-by-level enumeration that copies every (M, g) array at
    each level and ends in a (g + 1)-key lexsort, kept verbatim as the
    reference for the one that rebuilds vectors from parent chains."""
    g = T.shape[0]
    centers = np.asarray(centers, dtype=float).reshape(-1, g)
    radii = np.asarray(radii, dtype=float).reshape(-1)
    root = np.arange(len(radii))
    vecs = np.zeros((len(radii), g), dtype=np.int64)
    rem2 = radii * radii
    partial = np.zeros((len(radii), g))
    for i in range(g - 1, -1, -1):
        t = T[i, i]
        c = centers[root, i]
        rad = np.sqrt(rem2) / abs(t)
        mid = -partial[:, i] / t - c
        lo = np.ceil(mid - rad - 1e-12)
        hi = np.floor(mid + rad + 1e-12)
        if not np.all(np.maximum(np.abs(lo), np.abs(hi)) < 2.0 ** 53):
            raise ValueError("lattice enumeration range is not finite "
                             "or exceeds 2**53")
        counts = np.maximum(hi - lo + 1, 0).astype(np.int64)
        parent = np.repeat(np.arange(len(lo)), counts)
        first = np.cumsum(counts) - counts
        n = np.arange(len(parent)) + np.repeat(lo - first, counts)
        rem2 = rem2[parent]
        c = c[parent]
        u = t * (n + c) + partial[parent, i]
        rem2_next = rem2 - u * u
        keep = rem2_next >= -1e-12 * np.maximum(1.0, rem2)
        parent, n, c = parent[keep], n[keep], c[keep]
        rem2 = np.maximum(rem2_next[keep], 0.0)
        root = root[parent]
        vecs = vecs[parent]
        vecs[:, i] = n
        partial = partial[parent]
        partial[:, :i] += T[:i, i] * (n + c)[:, None]
    order = np.lexsort((*vecs.T[::-1], root))
    return vecs[order], np.bincount(root, minlength=len(radii))


def assert_same_enumeration(T, centers, radii):
    got = _enumerate_ellipsoid(T, centers, radii)
    want = levelwise_enumeration(T, centers, radii)
    for a, b in zip(got, want):
        assert a.dtype == b.dtype and a.shape == b.shape
        assert np.array_equal(a, b)
    return got


def skewed_cholesky(y, steps):
    """Upper Cholesky factor of pi * U^T y U for the unimodular U made of
    the elementary column operations ``steps``: (i, j, k) adds k times
    column j to column i."""
    u = np.eye(len(y), dtype=np.int64)
    for i, j, k in steps:
        if i != j:
            u[:, i] += k * u[:, j]
    return np.linalg.cholesky(math.pi * (u.T @ y @ u)).T


def chain_cholesky(g, k):
    """Upper bidiagonal T with 1 on the diagonal and -k above it: the
    short vectors of ||T n|| have n_i near k n_{i+1}, so the coordinate
    ranges grow like k**(g-1-i)."""
    return np.eye(g) - k * np.eye(g, k=1)


class TestEnumerationAgainstLevelwise:
    @settings(max_examples=300, deadline=None)
    @given(data=st.data())
    def test_matches_levelwise_enumeration(self, data):
        g = data.draw(st.integers(1, 4), label="g")
        a = np.array(data.draw(st.lists(st.floats(-1, 1), min_size=g * g,
                                        max_size=g * g), label="a"))
        y = a.reshape(g, g) @ a.reshape(g, g).T + np.eye(g)
        steps = data.draw(st.lists(st.tuples(
            st.integers(0, g - 1), st.integers(0, g - 1), st.integers(-3, 3)),
            max_size=4), label="unimodular steps")
        T = skewed_cholesky(y, steps)
        centers, radii = [], []
        for _ in range(data.draw(st.integers(1, 5), label="roots")):
            centers.append(data.draw(st.lists(st.one_of(
                st.sampled_from([0.0, 0.5, -0.5]), st.floats(-3, 3),
                st.floats(-1e6, 1e6)), min_size=g, max_size=g),
                label="center"))
            radii.append(data.draw(st.floats(0.01, 4.0), label="radius"))
        assert_same_enumeration(T, np.array(centers), radii)

    def test_empty_result(self):
        T = RiemannMatrix(1j * np.eye(2)).chol
        vecs, counts = assert_same_enumeration(T, np.array([[0.5, 0.5]]),
                                               [0.1])
        assert vecs.shape == (0, 2) and counts.tolist() == [0]

    def test_zero_roots(self):
        T = RiemannMatrix(1j * np.eye(3)).chol
        vecs, counts = assert_same_enumeration(T, np.zeros((0, 3)), [])
        assert vecs.shape == (0, 3) and counts.shape == (0,)

    def test_key_overflowing_int64(self):
        # genus 7 with n_i near 3 n_{i+1} and three roots far apart: roots
        # times the spans of n_0, ..., n_5 exceed 2**63, so the sort falls
        # back from one packed key to the lexsort; digits up to 2 in base
        # 3 make lexicographic order differ from the reversed one
        T = chain_cholesky(7, 3.0)
        centers = np.array([[0.0] * 7, [0.5] * 7, [-1e4 - 0.25] * 7])
        vecs, counts = assert_same_enumeration(T, centers, [2.5, 1.5, 2.0])
        size = len(counts)
        for col in vecs.T[:-1].tolist():
            size *= max(col) - min(col) + 1
        assert size > 2 ** 63 and min(counts) > 0
        reversed_order = np.lexsort((*vecs.T, np.repeat([0, 1, 2], counts)))
        assert not np.array_equal(reversed_order, np.arange(len(vecs)))


class TestPointsPerRow:
    def test_is_the_mean_count_over_centres(self):
        # over centres uniform in a cell of Z^g, the mean number of lattice
        # points in the ellipsoid is its volume
        rng = np.random.default_rng(23)
        for g in (1, 2, 3, 4):
            om = random_riemann(rng, g)
            radius = _truncation_radius(om, 2, 1e-12, 0.0)
            centers = rng.uniform(-0.5, 0.5, (400, g))
            _, counts = _enumerate_ellipsoid(om.chol, centers,
                                             [radius] * len(centers))
            assert abs(counts.mean() / points_per_row(om, 2) - 1) < 0.1

    def test_at_least_one_and_tol_checked_as_theta_batch(self):
        assert points_per_row(RiemannMatrix(2000j * np.eye(2)), 2) == 1.0
        om = RiemannMatrix([[1j]])
        with pytest.raises(ValueError):
            points_per_row(om, 2, 0.0)
        with pytest.raises(ToleranceTooSmall):
            points_per_row(om, 2, 1e-15)


class TestQuadraticForm:
    @settings(max_examples=300, deadline=None)
    @given(data=st.data())
    def test_matches_einsum_bit_for_bit(self, data):
        g = data.draw(st.integers(1, 5), label="g")
        m_rows = data.draw(st.one_of(st.integers(1, 3),
                                     st.integers(4, 5000)), label="rows")
        seed = data.draw(st.integers(0, 2 ** 32 - 1), label="seed")
        rng = np.random.default_rng(seed)
        om = random_riemann(rng, g).entries
        alpha = rng.integers(0, 2, g) / 2.0
        na = rng.integers(-8, 9, (m_rows, g)) + alpha
        got = _quadratic_form(na, om)
        want = np.einsum("ij,jk,ik->i", na, om, na)
        assert [(v.real.hex(), v.imag.hex()) for v in got.tolist()] == \
            [(v.real.hex(), v.imag.hex()) for v in want.tolist()]


class TestThetaValues:
    def test_g1_lemniscatic_value(self):
        om = RiemannMatrix([[1j]])
        val = sc_value(theta_value([0.0], om))
        oracle = brute_theta([0.0], [[1j]])
        assert abs(val - oracle) < 1e-12
        # closed form: pi^(1/4) / Gamma(3/4)
        assert abs(val - math.pi ** 0.25 / math.gamma(0.75)) < 1e-12
        assert abs(val - 1.08643481121331) < 1e-12

    def test_matches_brute_force_g2(self):
        rng = np.random.default_rng(7)
        om = random_riemann(rng, 2)
        for _ in range(4):
            z = rng.standard_normal(2) + 1j * rng.uniform(-0.4, 0.4, 2)
            got = sc_value(theta_value(z, om))
            assert abs(got - brute_theta(z, om.entries)) < 1e-10

    def test_odd_characteristic_vanishes(self):
        rng = np.random.default_rng(3)
        for g in (1, 2):
            om = random_riemann(rng, g)
            for char in Characteristic.all(g):
                if char.parity == 1:
                    v = theta_value([0.0] * g, om, char=char)
                    assert abs(v.mantissa) * math.exp(min(v.exponent, 0.0)) < 1e-10

    def test_quasi_periodicity(self):
        rng = np.random.default_rng(11)
        for g in (1, 2):
            om = random_riemann(rng, g)
            z = rng.standard_normal(g) + 1j * rng.uniform(-0.3, 0.3, g)
            m = np.ones(g)
            n = np.ones(g)
            lhs = theta_value(z + om.entries @ m + n, om)
            factor = np.exp(-1j * np.pi * m @ om.entries @ m
                            - 2j * np.pi * m @ z)
            rhs = theta_value(z, om)
            ratio = lhs.ratio(rhs)
            assert abs(ratio - factor) / abs(factor) < 1e-10

    def test_parity(self):
        rng = np.random.default_rng(5)
        for g in (1, 2):
            om = random_riemann(rng, g)
            z = rng.standard_normal(g) + 1j * rng.uniform(-0.3, 0.3, g)
            for char in Characteristic.all(g):
                plus = theta_value(z, om, char=char)
                minus = theta_value(-z, om, char=char)
                sign = -1.0 if char.parity else 1.0
                num = minus.ratio(plus)
                assert abs(num - sign) < 1e-10

    def test_derivatives_match_finite_differences(self):
        rng = np.random.default_rng(13)
        om = random_riemann(rng, 2)
        z = rng.standard_normal(2) + 1j * rng.uniform(-0.2, 0.2, 2)
        h = 1e-4
        for k in range(2):
            dz = np.zeros(2)
            dz[k] = h
            fd = (sc_value(theta_value(z + dz, om))
                  - sc_value(theta_value(z - dz, om))) / (2 * h)
            d = [0, 0]
            d[k] = 1
            an = sc_value(theta_value(z, om, deriv=d))
            assert abs(fd - an) / abs(an) < 1e-6

    def test_third_derivative_against_brute(self):
        om = RiemannMatrix([[0.3 + 1.1j]])
        z = [0.17 + 0.05j]
        got = sc_value(theta_value(z, om, deriv=(3,)))
        assert abs(got - brute_theta(z, om.entries, deriv=(3,))) < 1e-9

    def test_truncation_certificate(self):
        # every value and derivative of a row of order 0 to 3 changes by
        # no more than tol (times exp(exponent)) when the sum runs to twice
        # the truncation radius, beyond a rounding allowance of 1e-14 times
        # the sum of the summands' moduli: random Omega, characteristics
        # and tol, |Im z| up to 10
        rng = np.random.default_rng(17)
        for order in range(4):
            for g in (1, 2, 3):
                for _ in range(8):
                    om = random_riemann(rng, g)
                    tol = 10.0 ** rng.uniform(-12, -6)
                    alpha, beta = rng.integers(0, 2, (2, g))
                    char = Characteristic(tuple(alpha.tolist()),
                                          tuple(beta.tolist()))
                    z = rng.standard_normal(g) + 1j * rng.uniform(-10, 10, g)
                    (vals,), (exponent,), _ = theta_batch(z[None], om, [char],
                                                          [order], tol)
                    c = om.im_inv @ z.imag
                    radius = 2 * _truncation_radius(om, order, tol,
                                                    float(np.linalg.norm(c)))
                    na = _enumerate_ellipsoid(om.chol, (alpha / 2 + c)[None],
                                              [radius])[0] + alpha / 2
                    terms = np.exp(1j * np.pi * _quadratic_form(na, om.entries)
                                   + 2j * np.pi * (na @ (z + beta / 2))
                                   - exponent)
                    for got, d in zip(vals, derivative_indices(g, order)[1]):
                        summands = terms * np.prod((2j * np.pi * na) ** d, 1)
                        assert abs(got - summands.sum()) <= \
                            tol + 1e-14 * np.abs(summands).sum(), (order, d)

    def test_tol_too_small(self):
        om = RiemannMatrix([[1j]])
        with pytest.raises(ToleranceTooSmall):
            theta_value((0j,), om, Characteristic.zero(1), (0,), 1e-16)

    def test_request_validation(self):
        om = RiemannMatrix([[1j]])
        with pytest.raises(ValueError):
            theta_value((0j,), om, Characteristic.zero(1), (4,), 1e-10)
        with pytest.raises(ValueError):
            theta_value((0j,), om, Characteristic.zero(1), (0,), -1.0)

    @pytest.mark.parametrize("deriv", [(1,), (0, 0, 1), (), (1, -1),
                                       (0.5, 0.5), (math.nan, 0),
                                       (math.inf, 0)])
    def test_multi_index_needs_g_integer_entries(self, genus2, deriv):
        with pytest.raises(ValueError, match="g entries"):
            theta_value((0.1j, 0.2), genus2.omega, deriv=deriv)

    def test_integral_floats_name_the_same_derivative(self, genus2):
        assert theta_value((0.1j, 0.2), genus2.omega, deriv=(1.0, 2.0)) == \
            theta_value((0.1j, 0.2), genus2.omega, deriv=(1, 2))


def test_package_exposes_theta_module():
    import thetakernels
    assert thetakernels.theta.Characteristic is thetakernels.Characteristic


def test_package_exports_what_it_imports():
    import types

    import thetakernels
    names = thetakernels.__all__
    assert all(hasattr(thetakernels, n) for n in names)
    assert names == sorted(names)
    imported = {n for n, v in vars(thetakernels).items()
                if not n.startswith("_") and not isinstance(v, types.ModuleType)}
    assert set(names) == imported


class TestTailBound:
    @pytest.mark.parametrize("s", [k / 2 for k in range(1, 16)])
    def test_upper_gamma_matches_mpmath(self, s):
        # relative 1e-12 while exp(-x) is a normal double; beyond x ~ 708
        # the value (< 1e-289) underflows and is checked absolutely
        xs = np.concatenate([np.geomspace(1e-8, 700.0, 120),
                             np.linspace(700.0, 1000.0, 31)[1:]])
        for x in map(float, xs):
            ref = float(mpmath.gammainc(s, x))
            got = _upper_gamma(s, x)
            if x <= 700.0:
                assert abs(got - ref) <= 1e-12 * ref, (s, x)
            else:
                assert abs(got - ref) <= 1e-300, (s, x)

    # steps of 0.25 beyond the starting radius rho/2 + sqrt((g+N)/2) + 1/2,
    # recorded with the earlier library incomplete gamma; rows are (Omega, N),
    # columns (tol, ||c||) over TOLS x NORMS
    OMEGAS = [
        [[1j]],
        [[0.3 + 1.1j]],
        [[0.1 + 1.2j, 0.3 + 0.4j], [0.3 + 0.4j, -0.2 + 0.9j]],
        [[2j, 0.5j, 0.1], [0.5j, 1.5j, 0.2 + 0.3j],
         [0.1, 0.2 + 0.3j, 0.4 + 0.8j]],
    ]
    TOLS = (1e-6, 1e-10, 1e-12)
    NORMS = (0.0, 0.5, 2.0)
    STEPS = [
        [10, 10, 10, 14, 14, 14, 16, 16, 16],
        [10, 10, 10, 14, 14, 14, 16, 16, 16],
        [10, 11, 11, 14, 14, 15, 16, 16, 16],
        [11, 11, 12, 15, 15, 15, 16, 17, 17],
        [9, 9, 9, 14, 14, 14, 16, 16, 16],
        [10, 10, 10, 14, 14, 14, 16, 16, 16],
        [10, 10, 11, 14, 14, 15, 16, 16, 16],
        [11, 11, 12, 15, 15, 15, 16, 17, 17],
        [10, 10, 10, 14, 14, 14, 16, 16, 16],
        [10, 10, 10, 14, 14, 14, 16, 16, 16],
        [11, 11, 11, 15, 15, 15, 16, 17, 17],
        [12, 12, 12, 15, 15, 16, 17, 17, 17],
        [10, 10, 10, 14, 14, 14, 16, 16, 16],
        [11, 11, 11, 14, 14, 15, 16, 16, 16],
        [11, 11, 12, 15, 15, 15, 17, 17, 17],
        [12, 12, 13, 16, 16, 16, 17, 17, 17],
    ]

    def test_truncation_radii_pinned(self):
        rows = iter(self.STEPS)
        for entries in self.OMEGAS:
            om = RiemannMatrix(entries)
            for order in range(4):
                r = om.shortest / 2.0 + math.sqrt(0.5 * (om.dim + order)) + 0.5
                got = [(_truncation_radius(om, order, tol, nc) - r) / 0.25
                       for tol in self.TOLS for nc in self.NORMS]
                assert np.allclose(got, next(rows), rtol=0, atol=1e-9), \
                    (entries, order)


def loop_truncation_radius(omega, order, tol, norm_c):
    """The 0.25-step walk from the start of the grid that the memoised
    radius replaced, kept verbatim as an oracle."""
    g, rho = omega.dim, omega.shortest
    R = rho / 2.0 + math.sqrt(0.5 * (g + order)) + 0.5
    while _tail_bound(omega, R, order, norm_c) > tol:
        R += 0.25
        if R > 80.0:
            raise ToleranceTooSmall(
                f"cannot certify tol={tol:g} within radius 80")
    return R


def _radius_or_error(fn, *args):
    try:
        return fn(*args).hex()
    except ToleranceTooSmall:
        return "ToleranceTooSmall"


class TestRadiusMemo:
    @settings(max_examples=200, deadline=None)
    @given(seed=st.integers(0, 2 ** 32 - 1), g=st.integers(1, 3),
           im_scale=st.sampled_from([1.0, 1.0, 1.0, 30.0, 3000.0, 7000.0,
                                     1e4]),
           log_tols=st.lists(st.floats(-14, -4), min_size=1, max_size=2),
           calls=st.lists(st.tuples(
               st.integers(0, 3), st.integers(0, 1),
               st.one_of(st.just(0.0), st.floats(0, 4), st.floats(0, 1e3))),
               min_size=1, max_size=8))
    def test_matches_the_loop(self, seed, g, im_scale, log_tols, calls):
        # one Omega and at most two tolerances per example, so later calls
        # take the memo that earlier calls of the same (order, tol) left
        om = random_riemann(np.random.default_rng(seed), g)
        om = RiemannMatrix(om.entries.real + 1j * im_scale * om.im)
        for order, k, norm_c in calls:
            tol = 10.0 ** log_tols[k % len(log_tols)]
            assert _radius_or_error(_truncation_radius, om, order, tol,
                                    norm_c) == \
                _radius_or_error(loop_truncation_radius, om, order, tol,
                                 norm_c), (order, tol, norm_c)

    def test_tolerance_too_small_still_raises(self):
        om = RiemannMatrix([[1e4j]])
        for order in range(4):
            with pytest.raises(ToleranceTooSmall):
                _truncation_radius(om, order, 1e-12, 0.0)
        # certified at ||c|| = 0 but not at ||c|| = 1e3
        om = RiemannMatrix([[7e3j]])
        assert _truncation_radius(om, 3, 1e-12, 0.0) == \
            loop_truncation_radius(om, 3, 1e-12, 0.0)
        with pytest.raises(ToleranceTooSmall):
            loop_truncation_radius(om, 3, 1e-12, 1e3)
        with pytest.raises(ToleranceTooSmall):
            _truncation_radius(om, 3, 1e-12, 1e3)

    def test_norms_that_passed_evaluate_no_bound(self, monkeypatch):
        om = RiemannMatrix([[0.3 + 1.1j, 0.2], [0.2, 0.1 + 1.4j]])
        start = _truncation_radius(om, 2, 1e-12, 0.0)
        assert _truncation_radius(om, 2, 1e-12, 0.5) == start
        calls = []

        def counted(*args):
            calls.append(args)
            return _tail_bound(*args)

        monkeypatch.setattr(theta_module, "_tail_bound", counted)
        for norm_c in (0.5, 0.25, 0.0, 0.5):
            assert _truncation_radius(om, 2, 1e-12, norm_c) == start
        assert points_per_row(om, 2) > 1.0
        assert calls == []
        # a norm that needs a larger radius walks, and leaves the memo as
        # it was; another order has its own memo
        far = _truncation_radius(om, 2, 1e-12, 40.0)
        assert far == loop_truncation_radius(om, 2, 1e-12, 40.0) > start
        assert calls
        calls.clear()
        assert _truncation_radius(om, 2, 1e-12, 0.5) == start
        assert calls == []
        assert _truncation_radius(om, 3, 1e-12, 0.0) == \
            loop_truncation_radius(om, 3, 1e-12, 0.0)
        assert calls

    def test_threads_sharing_one_matrix_get_the_loop_radii(self):
        rng = np.random.default_rng(11)
        entries = random_riemann(rng, 3).entries
        calls = [(int(order), float(norm_c)) for order, norm_c in zip(
            rng.integers(0, 4, 60),
            rng.choice([0.0, 0.3, 1.0, 3.0, 10.0, 30.0], 60)
            * rng.uniform(0.5, 1.5, 60))]
        om = RiemannMatrix(entries)
        want = {call: loop_truncation_radius(om, call[0], 1e-12, call[1])
                for call in calls}
        om = RiemannMatrix(entries)   # a fresh memo
        got, failures = [[] for _ in range(4)], []

        def work(k):
            try:
                for i in np.random.default_rng(k).permutation(len(calls)):
                    order, norm_c = calls[i]
                    got[k].append(((order, norm_c), _truncation_radius(
                        om, order, 1e-12, norm_c)))
            except Exception as exc:  # noqa: BLE001 - reported below
                failures.append(exc)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=work, args=(k,))
                       for k in range(4)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert failures == []
        for results in got:
            assert len(results) == len(calls)
            for call, radius in results:
                assert radius == want[call], call


class TestScaledComplex:
    def test_normalization(self):
        x = ScaledComplex.make(123.456 - 7j, 2.0)
        assert 0.5 <= abs(x.mantissa) < 2
        assert abs(x.value - (123.456 - 7j) * math.exp(2.0)) < 1e-9

    def test_zero(self):
        assert ScaledComplex.make(0j).mantissa == 0

    def test_no_overflow_deep_in_jacobian(self):
        # Im(Omega) eigenvalues spanning [1e-2, 1e2], ||Im z|| <= 10
        om = RiemannMatrix(np.diag([1e-2j, 1e2j]))
        z = np.array([7j, 7j])
        v = theta_value(z, om)
        assert np.isfinite(v.mantissa.real) and np.isfinite(v.mantissa.imag)
        assert 0.5 <= abs(v.mantissa) < 2


class TestLogThetaHessian:
    def test_derivative_order(self):
        combs, derivs = derivative_indices(3, 2)
        assert combs[1:4] == [(0,), (1,), (2,)]
        assert combs[4:] == [(0, 0), (0, 1), (0, 2), (1, 1), (1, 2), (2, 2)]
        assert derivs[:5] == [(0, 0, 0), (1, 0, 0), (0, 1, 0), (0, 0, 1),
                              (2, 0, 0)]
        assert derivs[5] == (1, 1, 0)
        assert len(derivative_indices(3, 3)[0]) == 20

    def test_g1_against_finite_differences(self):
        om = RiemannMatrix([[1j]])
        e = np.array([0.5 + 0j])
        c = log_theta_hessian(e, om)

        def logtheta(x):
            return np.log(sc_value(theta_value([x], om)))

        h = 1e-4
        fd2 = (logtheta(0.5 + h) - 2 * logtheta(0.5) + logtheta(0.5 - h)) / h ** 2
        fd2h = (logtheta(0.5 + 2 * h) - 2 * logtheta(0.5) + logtheta(0.5 - 2 * h)) / (2 * h) ** 2
        richardson = (4 * fd2 - fd2h) / 3
        assert abs(c[0, 0] - richardson) < 1e-7

    def test_even(self):
        rng = np.random.default_rng(23)
        om = random_riemann(rng, 2)
        e = rng.standard_normal(2) + 1j * rng.uniform(-0.3, 0.3, 2)
        c1 = log_theta_hessian(e, om)
        c2 = log_theta_hessian(-e, om)
        assert np.max(np.abs(c1 - c2)) < 1e-9
        assert np.max(np.abs(c1 - c1.T)) == 0

    def test_on_theta_raises(self):
        om = RiemannMatrix([[1j]])
        zero = np.array([(1 + 1j) / 2])  # theta zero in genus 1
        with pytest.raises(PointOnTheta):
            log_theta_hessian(zero, om)

    def test_underflowed_row_is_on_theta(self):
        # every lattice term at e = 500i underflows, so the row's scale is
        # 0 and theta is 0 within its certified absolute error
        from thetakernels.kernels import is_on_theta
        om = RiemannMatrix([[1000j]])
        e = np.array([500j])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            _, _, scales = theta_batch(e[None], om, [Characteristic.zero(1)],
                                       [2])
            assert scales == [0.0]
            with pytest.raises(PointOnTheta):
                log_theta_hessian(e, om)
            assert is_on_theta(e, om)


class TestSecondOrderBasis:
    def test_g1_components_against_brute(self):
        om = RiemannMatrix([[1j]])
        vals = second_order_theta_basis([0.0], om)
        assert len(vals) == 2
        b0 = brute_theta([0.0], [[2j]])
        b1 = brute_theta([0.0], [[2j]], char=Characteristic((1,), (0,)))
        assert abs(sc_value(vals[0]) - b0) < 1e-12
        assert abs(sc_value(vals[1]) - b1) < 1e-12

    def test_even(self):
        rng = np.random.default_rng(29)
        om = random_riemann(rng, 2)
        z = rng.standard_normal(2) + 1j * rng.uniform(-0.3, 0.3, 2)
        plus = second_order_theta_basis(z, om)
        minus = second_order_theta_basis(-z, om)
        for p, m in zip(plus, minus):
            assert abs(m.ratio(p) - 1) < 1e-10

    @pytest.mark.parametrize("g", [1, 2])
    def test_riemann_quadratic_identity(self, g):
        rng = np.random.default_rng(31 + g)
        om = random_riemann(rng, g)
        ratios = []
        for _ in range(10):
            z = rng.standard_normal(g) + 1j * rng.uniform(-0.3, 0.3, g)
            w = rng.standard_normal(g) + 1j * rng.uniform(-0.3, 0.3, g)
            lhs = (sc_value(theta_value(z + w, om))
                   * sc_value(theta_value(z - w, om)))
            tz = second_order_theta_basis(z, om)
            tw = second_order_theta_basis(w, om)
            rhs = sum(sc_value(a) * sc_value(b) for a, b in zip(tz, tw))
            ratios.append(lhs / rhs)
        ratios = np.array(ratios)
        const = ratios.mean()
        assert np.max(np.abs(ratios - const)) / abs(const) < 1e-8
        # the proportionality constant for this basis is 1
        assert abs(const - 1.0) < 1e-8


# ----------------------------------------------------------------------
# Bit-for-bit record of theta_batch
# ----------------------------------------------------------------------

THETA_RECORD = Path(__file__).parent / "data" / "theta_batch_hex.json"

#: The period matrix of each curve of the record, float.hex (re, im) of
#: its upper triangle row by row, as build_curve gave it when the
#: record was written: the record's inputs, kept apart from the period
#: quadrature so that changes there leave the record's values as they are.
THETA_RECORD_OMEGAS = (
    ("x^3-x", (
        ("-0x0.0p+0", "0x1.ffffffffffffap-1"),
    )),
    ("x^5-x", (
        ("-0x1.5555555555554p-2", "0x1.e2b7dddfefa66p-1"),
        ("0x1.5555555555556p-2", "0x1.e2b7dddfefa59p-2"),
        ("0x1.5555555555554p-1", "0x1.e2b7dddfefa5cp-1"),
    )),
    ("x^6+x+2", (
        ("0x1.ffffffffffffep-1", "0x1.c78366b204436p+0"),
        ("0x1.0000000000002p-1", "0x1.c47e0502c692ap-1"),
        ("0x1.ffffffffffffbp-1", "0x1.bedc85e3c404bp-1"),
    )),
    ("x^7-x", (
        ("-0x1.47ae147ae1486p-2", "0x1.3d70a3d70a3d6p+0"),
        ("0x1.47ae147ae147fp-2", "0x1.851eb851eb851p-1"),
        ("0x1.47ae147ae1488p-4", "0x1.c28f5c28f5c2ep-2"),
        ("-0x1.47ae147ae1477p-2", "0x1.3d70a3d70a3d8p+0"),
        ("-0x1.47ae147ae1470p-4", "0x1.1eb851eb851eep-1"),
        ("0x1.eb851eb851eb2p-2", "0x1.47ae147ae147dp-1"),
    )),
)


def record_omega(upper):
    """The RiemannMatrix whose upper triangle, row by row, is the float.hex
    pairs ``upper``."""
    g = (math.isqrt(8 * len(upper) + 1) - 1) // 2
    i, j = np.triu_indices(g)
    m = np.empty((g, g), dtype=complex)
    m[i, j] = m[j, i] = [complex(float.fromhex(re), float.fromhex(im))
                         for re, im in upper]
    return RiemannMatrix(m)


def theta_record_points(omega, seed):
    """Zero, four points a + Omega b of the fundamental domain, one far
    along the real axes and two with |Im z| = 10 and 1e3."""
    g = omega.dim
    rng = np.random.default_rng(seed)
    pts = [np.zeros(g, complex)]
    for _ in range(4):
        a, b = rng.uniform(-0.5, 0.5, (2, g))
        pts.append(a + omega.entries @ b)
    pts.append(rng.uniform(-9, 9, g) + 0j)
    for size in (10.0, 1e3):
        d = rng.uniform(-1, 1, g)
        pts.append(rng.uniform(-1, 1, g) + 1j * size * d / np.max(np.abs(d)))
    return np.array(pts)


def _hex(values):
    return [[complex(z).real.hex(), complex(z).imag.hex()] for z in values]


def theta_record_cases():
    """(key prefix, omega, characteristic, order, points) of every
    (curve, characteristic, order) in the record: genus 1-3 (the
    lemniscatic curve and the three benchmark curves, at the period
    matrices THETA_RECORD_OMEGAS), the zero and the first odd
    characteristic, derivative orders 0-3, at the points of
    :func:`theta_record_points`."""
    for k, (name, upper) in enumerate(THETA_RECORD_OMEGAS):
        omega = record_omega(upper)
        g = omega.dim
        odd = next(ch for ch in Characteristic.all(g) if ch.parity)
        pts = theta_record_points(omega, 100 + k)
        for char in (Characteristic.zero(g), odd):
            for order in range(4):
                yield (f"{name} char={char.alpha}{char.beta} order={order}",
                       omega, char, order, pts)


def theta_batch_record(batched):
    """float.hex of mantissas, exponent and scale of theta_batch at the
    cases of :func:`theta_record_cases`, a row holding every partial of
    its order and below.

    tests/data/theta_batch_hex.json was written by this function with one
    call per point while theta_batch still took a single point;
    ``batched`` makes one (N x g) call per case instead of one call per
    row.
    """
    out = {}
    for prefix, omega, char, order, pts in theta_record_cases():
        if batched:
            rows = zip(*theta_batch(pts, omega, [char] * len(pts),
                                    [order] * len(pts)))
        else:
            rows = (single_row(z, omega, char, order) for z in pts)
        for i, (vals, exponent, scale) in enumerate(rows):
            out[f"{prefix} point={i}"] = {
                "mantissas": _hex(vals),
                "exponent": exponent.hex(), "scale": scale.hex()}
    return out


class TestThetaBatchRecord:
    def test_single_points_match_record(self):
        assert theta_batch_record(batched=False) == \
            json.loads(THETA_RECORD.read_text())

    def test_batched_rows_match_record(self):
        assert theta_batch_record(batched=True) == \
            json.loads(THETA_RECORD.read_text())

    def test_theta_value_reads_the_record(self):
        """theta_value(z, char, d) for a multi-index d of exact order k is
        the recorded entry d of the order-k row, made a ScaledComplex."""
        record = json.loads(THETA_RECORD.read_text())
        checked = 0
        for prefix, omega, char, order, pts in theta_record_cases():
            derivs = derivative_indices(omega.dim, order)[1]
            for i, z in enumerate(pts):
                row = record[f"{prefix} point={i}"]
                exponent = float.fromhex(row["exponent"])
                for d, (re, im) in zip(derivs, row["mantissas"]):
                    if sum(d) != order:
                        continue
                    want = ScaledComplex.make(
                        complex(float.fromhex(re), float.fromhex(im)),
                        exponent)
                    got = theta_value(z, omega, char, d)
                    assert (_hex([got.mantissa]), got.exponent.hex()) == \
                        (_hex([want.mantissa]), want.exponent.hex()), \
                        (prefix, i, d)
                    checked += 1
        assert checked == 2 * 8 * (4 + 10 + 10 + 20)


def single_row(z, omega, char, order, tol=1e-12):
    """(mantissas, exponent, scale) of a theta_batch call with one row."""
    return next(zip(*theta_batch(np.asarray(z)[None], omega, [char], [order],
                                 tol)))


class TestThetaBatchRows:
    @settings(max_examples=150, deadline=None)
    @given(seed=st.integers(0, 2 ** 32 - 1), g=st.integers(1, 3),
           n=st.integers(1, 40), order=st.integers(0, 3),
           char_index=st.integers(0, 63), log_im=st.floats(-2, 3),
           log_tol=st.floats(-12, -4))
    def test_rows_equal_single_row_calls(self, seed, g, n, order,
                                         char_index, log_im, log_tol):
        rng = np.random.default_rng(seed)
        om = random_riemann(rng, g)
        char = list(Characteristic.all(g))[char_index % 4 ** g]
        z = (rng.uniform(-3, 3, (n, g))
             + 1j * 10.0 ** log_im * rng.uniform(-1, 1, (n, g)))
        tol = 10.0 ** log_tol
        mantissas, exponents, scales = theta_batch(z, om, [char] * n,
                                                   [order] * n, tol)
        assert len(mantissas) == len(exponents) == len(scales) == n
        for row, vals, exponent, scale in zip(z, mantissas, exponents,
                                              scales):
            one = single_row(row, om, char, order, tol)
            assert (_hex(vals), exponent.hex(), scale.hex()) == \
                (_hex(one[0]), one[1].hex(), one[2].hex())

    @settings(max_examples=150, deadline=None)
    @given(seed=st.integers(0, 2 ** 32 - 1), g=st.integers(1, 3),
           n=st.integers(1, 24), log_im=st.floats(-2, 3),
           log_tol=st.floats(-12, -4))
    def test_mixed_rows_equal_single_row_calls(self, seed, g, n, log_im,
                                               log_tol):
        """Rows with their own characteristic and order, value-only rows
        next to order-3 rows, each come out as a call with that row,
        characteristic and order alone, holding the derivatives
        derivative_indices(g, order)."""
        rng = np.random.default_rng(seed)
        om = random_riemann(rng, g)
        chars = list(Characteristic.all(g))
        row_chars = [chars[k] for k in rng.integers(0, len(chars), n)]
        row_orders = rng.integers(0, 4, n).tolist()
        z = (rng.uniform(-3, 3, (n, g))
             + 1j * 10.0 ** log_im * rng.uniform(-1, 1, (n, g)))
        tol = 10.0 ** log_tol
        mantissas, exponents, scales = theta_batch(z, om, row_chars,
                                                   row_orders, tol)
        assert len(mantissas) == len(exponents) == len(scales) == n
        for row, char, order, vals, exponent, scale in zip(
                z, row_chars, row_orders, mantissas, exponents, scales):
            one = single_row(row, om, char, order, tol)
            assert len(vals) == len(derivative_indices(g, order)[1])
            assert (_hex(vals), exponent.hex(), scale.hex()) == \
                (_hex(one[0]), one[1].hex(), one[2].hex())

    def test_value_row_keeps_its_own_radius(self, genus2):
        # theta(e) next to an order-3 row of the same point keeps the bits
        # of the order-0 call; at this e the order-3 radius changes them
        om = genus2.omega
        e = np.array([0.12881306 - 0.66068537j, -0.70553702 - 0.67220927j])
        zero = Characteristic.zero(2)
        value_only = single_row(e, om, zero, 0)[0]
        third = single_row(e, om, zero, 3)[0]
        assert _hex(value_only) != _hex(third[:1])
        vals, _, _ = theta_batch(np.array([e, e]), om, [zero, zero], [0, 3])
        assert _hex(vals[0]) == _hex(value_only)
        assert _hex(vals[1]) == _hex(third)

    def test_row_counts_must_match(self, genus2):
        zero = Characteristic.zero(2)
        z = np.zeros((3, 2), complex)
        for chars, orders in (([zero] * 2, [0] * 3), ([zero] * 3, [0] * 2),
                              ([zero] * 4, [0] * 4), ([zero] * 3, [])):
            with pytest.raises(ValueError, match="per row"):
                theta_batch(z, genus2.omega, chars, orders)
        with pytest.raises(ValueError, match="dimension mismatch"):
            theta_batch(z, genus2.omega, [zero, zero, Characteristic.zero(1)],
                        [0] * 3)
        for bad in (4, -1):
            with pytest.raises(ValueError, match="orders"):
                theta_batch(z, genus2.omega, [zero] * 3, [0, bad, 0])


def loop_theta_batch(z, omega, chars, orders, tol=1e-12):
    """theta_batch as it was before its rows were made cheaper, kept as an
    oracle: every radius walks with ``loop_truncation_radius``, every
    derivative row multiplies its complex factor up from np.ones, and
    every scale is a per-row maximum."""
    _check_tol(tol)
    z = np.asarray(z, dtype=complex)
    g = omega.dim
    if z.ndim != 2 or z.shape[1] != g or any(ch.dim != g for ch in chars):
        raise ValueError("dimension mismatch between z, char and Omega")
    if not len(chars) == len(orders) == len(z):
        raise ValueError("need one characteristic and one derivative order "
                         "per row")
    if not set(orders) <= {0, 1, 2, 3}:
        raise ValueError("derivative orders must lie in 0..3")
    if not np.maximum(abs(z.real), abs(z.imag)).max(initial=0.0) < 2.0 ** 53:
        raise ValueError("theta argument is not finite or exceeds 2**53")
    ab = np.array([ch.alpha + ch.beta for ch in chars],
                  float).reshape(-1, 2 * g) / 2.0
    alpha, beta = ab[:, :g], ab[:, g:]
    y = z.imag
    c = (omega.im_inv @ y[:, :, None])[:, :, 0]
    if not abs(c).max(initial=0.0) < 2.0 ** 53:
        raise ValueError("lattice enumeration centre exceeds 2**53")
    exponents = (math.pi * (y[:, None, :] @ c[:, :, None])[:, 0, 0]).tolist()
    radii = [loop_truncation_radius(omega, order, tol, norm_c)
             for order, norm_c in zip(orders, np.sqrt(
                 (c[:, None, :] @ c[:, :, None])[:, 0, 0]).tolist())]
    pts, counts = _enumerate_ellipsoid(omega.chol, alpha + c, radii)
    ends = np.cumsum(counts).tolist()
    na = pts + np.repeat(alpha, counts, axis=0)
    quad = _quadratic_form(na, omega.entries)
    zb = z + beta
    lin = np.empty(len(na), dtype=complex)
    start = 0
    for zr, end in zip(zb, ends):
        lin[start:end] = na[start:end] @ zr
        start = end
    terms = np.exp(1j * math.pi * quad + _TWO_PI_I * lin
                   - np.repeat(exponents, counts))
    table = _derivative_table(g, max(orders, default=0))[1]
    powers = {}
    prods = np.empty((len(table), len(na)), dtype=complex)
    for row, d in zip(prods, table):
        fac = np.ones(len(na), dtype=complex)
        for k, dk in enumerate(d):
            if dk:
                if (k, dk) not in powers:
                    powers[k, dk] = (_TWO_PI_I * na[:, k]) ** dk
                fac = fac * powers[k, dk]
        np.multiply(fac, terms, out=row)
    size = np.abs(terms)
    sizes = [len(_derivative_table(g, k)[1]) for k in range(4)]
    mantissas, scales = [], []
    for order, s, e in zip(orders, [0] + ends, ends):
        mantissas.append(
            np.add.reduce(prods[:sizes[order], s:e], axis=1).tolist())
        scales.append(float(size[s:e].max()) if e > s else 0.0)
    return mantissas, exponents, scales


def _batch_or_error(fn, *args):
    """The float.hex of every mantissa, exponent and scale, or the name
    of the error raised."""
    try:
        mantissas, exponents, scales = fn(*args)
    except (ToleranceTooSmall, ValueError) as exc:
        return type(exc).__name__
    return ([_hex(vals) for vals in mantissas], [x.hex() for x in exponents],
            [x.hex() for x in scales])


class TestThetaBatchAgainstLoop:
    @settings(max_examples=200, deadline=None)
    @given(seed=st.integers(0, 2 ** 32 - 1), g=st.integers(1, 3),
           n=st.integers(0, 12),
           im_scale=st.sampled_from([0.3, 1.0, 1.0, 30.0, 300.0, 1000.0,
                                     3000.0]),
           log_im=st.floats(-2, 3), log_tol=st.floats(-12, -4),
           at_zero=st.booleans())
    def test_bits_match_the_loop(self, seed, g, n, im_scale, log_im,
                                 log_tol, at_zero):
        """Random Omega (Im Omega from about 0.3, where lattice vectors
        reach +-4, to a few thousand, where terms and whole rows
        underflow), a characteristic and an order per row, Im z up to 1e3,
        or z = 0 with odd characteristics, whose values cancel to exact
        zeros."""
        rng = np.random.default_rng(seed)
        om = random_riemann(rng, g)
        om = RiemannMatrix(om.entries.real + 1j * im_scale * om.im)
        chars = list(Characteristic.all(g))
        if at_zero:
            chars = [ch for ch in chars if ch.parity] or chars
            z = np.zeros((n, g), dtype=complex)
        else:
            z = (rng.uniform(-3, 3, (n, g))
                 + 1j * 10.0 ** log_im * rng.uniform(-1, 1, (n, g)))
        row_chars = [chars[k] for k in rng.integers(0, len(chars), n)]
        row_orders = rng.integers(0, 4, n).tolist()
        tol = 10.0 ** log_tol
        assert _batch_or_error(theta_batch, z, om, row_chars, row_orders,
                               tol) == \
            _batch_or_error(loop_theta_batch, z, om, row_chars, row_orders,
                            tol)

    def test_exact_zeros_keep_their_bits(self):
        # odd characteristics at z = 0 sum to exact zeros, and at
        # Im Omega = 1000 one lattice point, n = 0, carries every row
        for entries in ([[1j, 0.5], [0.5, 1j]], [[1000j]], [[100j]]):
            om = RiemannMatrix(entries)
            g = om.dim
            chars = list(Characteristic.all(g))
            z = np.zeros((len(chars), g), dtype=complex)
            args = (z, om, chars, [3] * len(chars))
            got = _batch_or_error(theta_batch, *args)
            assert got == _batch_or_error(loop_theta_batch, *args)
            assert any(float.fromhex(part) == 0.0 for vals in got[0]
                       for pair in vals for part in pair)

    def test_three_factor_products_keep_their_order(self):
        # with lattice vectors up to +-4 the products (a_0 a_1) a_2 and
        # (a_2 a_1) a_0 of a d_0 d_1 d_2 row round differently
        om = RiemannMatrix([[0.1 + 0.3j, 0.05, 0.02], [0.05, 0.3j, 0.03],
                            [0.02, 0.03, -0.1 + 0.3j]])
        chars = list(Characteristic.all(3))
        rng = np.random.default_rng(0)
        z = (rng.uniform(-1, 1, (len(chars), 3))
             + 1j * rng.uniform(-1, 1, (len(chars), 3)))
        args = (z, om, chars, [3] * len(chars))
        assert _batch_or_error(theta_batch, *args) == \
            _batch_or_error(loop_theta_batch, *args)

    def test_zero_rows(self, genus2):
        assert theta_batch(np.zeros((0, 2)), genus2.omega, [], []) == \
            ([], [], [])


def loop_hessian(g, vals, scale, floor):
    """The one-row matrix of log_theta_hessian before it was built over
    rows, kept as an oracle: Python complex scalars, with
    theta_i * theta_j a product of numpy scalars."""
    th = vals[0]
    if abs(th) < floor * scale:
        raise PointOnTheta(f"|theta(e)| = {abs(th):.3e} under floor "
                           f"{floor:g} * {scale:.3e}")
    grad = np.array(vals[1:1 + g])
    m = np.empty((g, g), dtype=complex)
    pairs = _derivative_table(g, 2)[0][1 + g:]
    for (i, j), v in zip(pairs, vals[1 + g:]):
        m[i, j] = m[j, i] = th * v - grad[i] * grad[j]
    return m, m / (th * th)


class TestHessiansOverRows:
    @settings(max_examples=200, deadline=None)
    @given(seed=st.integers(0, 2 ** 32 - 1), g=st.integers(1, 3),
           n=st.integers(1, 20))
    def test_bits_match_one_row_at_a_time(self, seed, g, n):
        rng = np.random.default_rng(seed)
        size = len(derivative_indices(g, 2)[1])
        vals = ((rng.standard_normal((n, size))
                 + 1j * rng.standard_normal((n, size)))
                * 10.0 ** rng.uniform(-3, 3, (n, 1)))
        # about one row in four lies on the divisor
        scales = (np.abs(vals[:, 0])
                  * 10.0 ** rng.uniform(-1, 10.5, n)).tolist()
        vals = vals.tolist()
        theta, numerators = hessian_numerators(g, vals)
        matrices, errors = log_theta_hessians(g, vals, scales)
        assert len(errors) == n
        for row, scale, th, num, hess, error in zip(
                vals, scales, theta, numerators, matrices, errors):
            assert complex(th) == row[0]
            try:
                want_num, want = loop_hessian(g, row, scale, THETA_FLOOR)
            except PointOnTheta as exc:
                assert isinstance(error, PointOnTheta)
                assert str(error) == str(exc)
                assert np.isnan(hess).all()
                continue
            assert error is None
            assert _hex(num.ravel()) == _hex(want_num.ravel())
            assert _hex(hess.ravel()) == _hex(want.ravel())
