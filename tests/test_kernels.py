import functools
import importlib
import json
import math
import sys
import threading
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from thetakernels.curves import SurfacePoint, build_curve, lattice_coordinates
from thetakernels.errors import (ConstraintViolation, InadmissiblePoint,
                                 NotOnThetaSmoothLocus, OnDiagonal,
                                 PointOnTheta)
from thetakernels.kernels import (bergman_a_period, bergman_kernel,
                                  finiteness_probe, find_theta_zero,
                                  gauss_limit_check, is_on_theta,
                                  klein_coordinates, klein_kernel,
                                  prime_form, select_odd_characteristic,
                                  szego_kernel, wirtinger_connection)
from thetakernels.theta import (DEFAULT_TOL, Characteristic,
                                log_theta_hessians, theta_batch)

kernels_module = importlib.import_module("thetakernels.kernels")
theta_module = importlib.import_module("thetakernels.theta")


def weierstrass_p(z, tau, nterms=20):
    """Weierstrass elliptic function for the lattice Z + tau Z (q-series)."""
    u = np.exp(2j * np.pi * z)
    q = np.exp(2j * np.pi * tau)
    total = 1.0 / 12.0 + u / (1 - u) ** 2
    for n in range(1, nterms + 1):
        qn = q ** n
        total += qn * u / (1 - qn * u) ** 2
        total += qn / u / (1 - qn / u) ** 2
        total -= 2 * qn / (1 - qn) ** 2
    return (2j * np.pi) ** 2 * total


def weierstrass_p_lattice_sum(z, tau, box=60):
    """Direct lattice-sum evaluation (slowly convergent; coarse oracle)."""
    total = 1.0 / z ** 2
    for m in range(-box, box + 1):
        for n in range(-box, box + 1):
            if m == 0 and n == 0:
                continue
            w = m + n * tau
            total += 1.0 / (z - w) ** 2 - 1.0 / w ** 2
    return total


def theta1d(v, tau, a=0.0, b=0.0, box=12, deriv=0):
    """Independent one-dimensional theta sum with characteristic (a, b)."""
    total = 0j
    for n in range(-box, box + 1):
        na = n + a
        term = np.exp(1j * np.pi * tau * na * na + 2j * np.pi * na * (v + b))
        total += term * (2j * np.pi * na) ** deriv
    return total


def theta_bergman(curve, x, y, delta):
    """The theta path to the Bergman kernel, the oracle of Klein's closed
    form: minus the omega-contraction of the Hessian of log theta[delta]
    at A(x) - A(y), for a nonsingular odd characteristic delta."""
    w = (curve.abel_map(x) - curve.abel_map(y))[None]
    vals, _, scales = theta_batch(w, curve.omega, [delta], [2], DEFAULT_TOL)
    (hess,), (error,) = log_theta_hessians(curve.genus, vals, scales)
    assert error is None
    return -complex(curve.eval_differentials(x) @ hess
                    @ curve.eval_differentials(y))


class TestOddCharacteristic:
    def test_genus1_unique(self, lemniscatic):
        delta = select_odd_characteristic(lemniscatic)
        assert delta.alpha == (1,) and delta.beta == (1,)

    def test_genus2_six_odd_all_nonsingular(self, genus2):
        odd = [ch for ch in Characteristic.all(2) if ch.parity == 1]
        assert len(odd) == 6
        for ch in odd:
            vals, _, scales = theta_batch(np.zeros((1, 2)), genus2.omega,
                                          [ch], [1], 1e-12)
            grad = vals[0][1:]
            assert np.linalg.norm(grad) > 1e-8 * max(scales[0], 1.0)
        delta = select_odd_characteristic(genus2)
        assert delta == odd[0]  # lexicographic first


class TestPrimeForm:
    def test_antisymmetry(self, lemniscatic, genus2):
        rng = np.random.default_rng(3)
        for c in (lemniscatic, genus2):
            for _ in range(4):
                x = c.point(2.0 + rng.uniform(0, 1) + 1j * rng.uniform(-1, 1), 1)
                y = c.point(-2.0 + rng.uniform(0, 1) + 1j * rng.uniform(-1, 1), -1)
                e1 = prime_form(c, x, y).value
                e2 = prime_form(c, y, x).value
                assert abs(e1 + e2) < 1e-9 * abs(e1)

    def test_diagonal_normalization(self, lemniscatic):
        c = lemniscatic
        p = c.point(2.0, 1)
        vals = []
        for sep in (2e-3, 1e-3):
            y = c.point(2.0 + sep, 1)
            vals.append(prime_form(c, p, y).value / (p.x - y.x))
        richardson = 2 * vals[1] - vals[0]
        assert abs(richardson - 1.0) < 1e-6

    def test_nonvanishing_off_diagonal(self, lemniscatic):
        c = lemniscatic
        rng = np.random.default_rng(11)
        for _ in range(100):
            x = c.point(rng.uniform(1.5, 3) + 1j * rng.uniform(-1, 1),
                        rng.choice([-1, 1]))
            y = c.point(rng.uniform(-3, -1.5) + 1j * rng.uniform(-1, 1),
                        rng.choice([-1, 1]))
            assert abs(prime_form(c, x, y).value) > 1e-12

    def test_on_diagonal_raises(self, lemniscatic):
        p = lemniscatic.point(2.0, 1)
        with pytest.raises(OnDiagonal):
            prime_form(lemniscatic, p, p)


# On y^2 = x^5 - x, s2 = sum_i d_i theta[delta](0) omega_i crosses the
# negative real axis, the cut of its principal square root, on the segment
# from CUT_START to CUT_END (sheet 1).
QUINTIC = [0, -1, 0, 0, 0, 1]
CUT_START, CUT_END = -1.987 + 1.957j, -1.987 + 2.057j
PARTNER = -1.7 + 0.3j
SEGMENT = [CUT_START + (CUT_END - CUT_START) * k / 4 for k in range(5)]
SZEGO_CLASS = np.array([0.31 + 0.17j, -0.12 + 0.23j])
#: (kernel, x, y) evaluations on the segment: far pairs with PARTNER and
#: near pairs of neighbouring segment points
SEGMENT_TASKS = [(kind, x, y) for kind in ("prime", "szego")
                 for x, y in [(s, PARTNER) for s in SEGMENT]
                 + list(zip(SEGMENT, SEGMENT[1:]))]


def segment_value(curve, task):
    kind, x, y = task
    x, y = curve.point(x, 1), curve.point(y, 1)
    if kind == "prime":
        return prime_form(curve, x, y).value
    return szego_kernel(curve, SZEGO_CLASS, x, y).value


@functools.cache
def segment_values_in_order():
    curve = build_curve(QUINTIC)
    return [segment_value(curve, task) for task in SEGMENT_TASKS]


class TestHalfDensityIsPure:
    """Prime-form and Szego values depend on their arguments alone."""

    def test_warm_up_leaves_values_unchanged(self):
        def values(warm):
            curve = build_curve(QUINTIC)
            x, y = curve.point(CUT_END, 1), curve.point(PARTNER, 1)
            for k in range(20 if warm else 0):
                p = curve.point(CUT_START + (CUT_END - CUT_START) * k / 20, 1)
                prime_form(curve, p, y)
                szego_kernel(curve, SZEGO_CLASS, p, y)
            return (prime_form(curve, x, y).value,
                    szego_kernel(curve, SZEGO_CLASS, x, y).value)

        assert values(warm=True) == values(warm=False)

    def test_memo_hands_out_no_shared_arrays(self):
        curve = build_curve(QUINTIC)
        p = curve.point(PARTNER, 1)
        curve.abel_map(p)[:] = 0      # the miss
        curve.abel_map(p)[:] = 0      # a hit
        fresh = build_curve(QUINTIC)
        assert np.array_equal(curve.abel_map(p),
                              fresh.abel_map(fresh.point(PARTNER, 1)))
        delta = select_odd_characteristic(curve)
        grad = kernels_module._gradient_at_zero(curve, delta, DEFAULT_TOL)[0]
        with pytest.raises(ValueError):
            grad[0] = 0

    def test_diagonal_normalization_across_the_cut(self):
        curve = build_curve(QUINTIC)
        delta = select_odd_characteristic(curve)
        grad = kernels_module._gradient_at_zero(curve, delta, DEFAULT_TOL)[0]

        def s2(x):
            return complex(grad @ curve.eval_differentials(curve.point(x, 1)))

        lo, hi = CUT_START, CUT_END
        assert s2(lo).imag > 0 > s2(hi).imag and s2(lo).real < 0
        for _ in range(60):
            mid = 0.5 * (lo + hi)
            if s2(mid).imag > 0:
                lo = mid
            else:
                hi = mid
        # p and p + 2e-3j lie on opposite sides of the cut
        p = curve.point(lo - 5e-4j, 1)
        vals = []
        for sep in (2e-3j, 1e-3j):
            q = curve.point(p.x + sep, 1)
            vals.append(prime_form(curve, p, q).value / (p.x - q.x))
        assert abs(2 * vals[1] - vals[0] - 1.0) < 1e-6

    @settings(max_examples=50, deadline=None)
    @given(order=st.permutations(range(len(SEGMENT_TASKS))))
    def test_evaluation_order_leaves_values_unchanged(self, order):
        curve = build_curve(QUINTIC)
        got = {k: segment_value(curve, SEGMENT_TASKS[k]) for k in order}
        assert [got[k] for k in range(len(SEGMENT_TASKS))] \
            == segment_values_in_order()


class TestBergman:
    def test_symmetry(self, lemniscatic, genus2):
        for c in (lemniscatic, genus2):
            x = c.point(1.9 + 0.3j, 1)
            y = c.point(-1.8 + 0.7j, -1)
            a = bergman_kernel(c, x, y).value
            b = bergman_kernel(c, y, x).value
            assert abs(a - b) < 1e-9 * abs(a)

    def test_biresidue_one(self, lemniscatic, genus2):
        for c in (lemniscatic, genus2):
            p = c.point(2.1, 1)
            vals = []
            for sep in (2e-3, 1e-3):
                y = c.point(2.1 + sep, 1)
                vals.append(bergman_kernel(c, p, y).value * (p.x - y.x) ** 2)
            richardson = (4 * vals[1] - vals[0]) / 3
            assert abs(richardson - 1.0) < 1e-6

    def test_vanishing_a_periods(self, lemniscatic, genus2):
        for c in (lemniscatic, genus2):
            x = c.point(2.3 + 0.4j, 1)
            for k in range(c.genus):
                ap = bergman_a_period(c, x, k, 256)
                assert abs(ap) < 1e-7

    # a cut index of -1 would otherwise index the branch points from the end
    @pytest.mark.parametrize("cut,n_nodes", [(-1, 64), (2, 64), (0, 0)])
    def test_a_period_rejects_contours_out_of_range(self, genus2, cut,
                                                     n_nodes):
        x = genus2.point(2.3 + 0.4j, 1)
        with pytest.raises(ValueError, match="no cycle contour"):
            bergman_a_period(genus2, x, cut, n_nodes)

    def test_odd_characteristic_independence(self, genus2):
        # the theta path gives the closed form with every nonsingular odd
        # characteristic (all six are nonsingular on y^2 = x^5 - x)
        x = genus2.point(1.9, 1)
        y = genus2.point(-1.7 + 0.2j, -1)
        want = bergman_kernel(genus2, x, y).value
        odd = [ch for ch in Characteristic.all(2) if ch.parity == 1]
        assert len(odd) == 6
        for ch in odd:
            assert abs(theta_bergman(genus2, x, y, ch) - want) \
                < 1e-11 * abs(want)

    @pytest.mark.parametrize("f", [[0, -1, 0, 0, 0, 1], [2, 1, 0, 0, 0, 0, 1]])
    @pytest.mark.parametrize("dist", [0.0, 1e-9, 1e-6, 1e-4, 1e-2])
    def test_opposite_sheets_near_the_diagonal(self, f, dist):
        # there (2 y1 y2 + F) cancels; the conjugate form Q / (4 y1 y2
        # (F - 2 y1 y2)) keeps the value exact up to x1 = x2
        c = build_curve(f)
        delta = select_odd_characteristic(c)
        x = c.point(1.9 + 0.3j, 1)
        y = c.point(x.x + dist * (0.6 + 0.8j), -1)
        want = theta_bergman(c, x, y, delta)
        for a, b in ((x, y), (y, x)):
            got = bergman_kernel(c, a, b).value
            assert abs(got - want) < 1e-11 * abs(want)

    @pytest.mark.parametrize("x", [1e4, 1e4j, -3e5])
    def test_far_points(self, genus2, x):
        # beyond the reach of the Abel map: symmetric, with vanishing
        # A-periods relative to the size of the kernel there
        p, y = genus2.point(x, 1), genus2.point(2.0, 1)
        value = bergman_kernel(genus2, p, y).value
        assert abs(bergman_kernel(genus2, y, p).value - value) \
            <= 1e-12 * abs(value)
        for k in range(genus2.genus):
            assert abs(bergman_a_period(genus2, p, k)) <= 1e-10 * abs(value)


class TestSzego:
    def test_residue_one(self, lemniscatic):
        c = lemniscatic
        e = np.array([0.31 + 0.11j])
        p = c.point(2.0, 1)
        vals = []
        for sep in (2e-3, 1e-3):
            y = c.point(2.0 + sep, 1)
            vals.append(szego_kernel(c, e, p, y).value * (p.x - y.x))
        richardson = 2 * vals[1] - vals[0]
        assert abs(richardson - 1.0) < 1e-6

    def test_transpose_relation(self, lemniscatic, genus2):
        # sigma swap sends the kernel of e to minus the kernel of -e,
        # so the split product is swap-symmetric
        for c, e in ((lemniscatic, np.array([0.3 + 0.1j])),
                     (genus2, np.array([0.25 + 0.05j, -0.15 + 0.2j]))):
            x = c.point(2.2 + 0.3j, 1)
            y = c.point(-1.9 + 0.5j, -1)
            splus = szego_kernel(c, e, x, y).value
            sminus_sw = szego_kernel(c, -e, y, x).value
            assert abs(splus + sminus_sw) < 1e-9 * abs(splus)

    def test_on_theta_rejected(self, lemniscatic):
        tau = lemniscatic.omega.entries[0, 0]
        zero = np.array([(1 + tau) / 2])
        p = lemniscatic.point(2.0, 1)
        q = lemniscatic.point(-2.0, 1)
        with pytest.raises(PointOnTheta):
            szego_kernel(lemniscatic, zero, p, q)

    def test_genus1_oracle(self, lemniscatic):
        # independent evaluation through one-dimensional theta sums
        c = lemniscatic
        tau = c.omega.entries[0, 0]
        e = np.array([0.3 + 0.1j])
        x = c.point(2.0, 1)
        y = c.point(0.4 + 1.2j, -1)
        got = szego_kernel(c, e, x, y).value
        ax = c.abel_map(x)[0]
        ay = c.abel_map(y)[0]
        w = ay - ax
        hx2 = theta1d(0, tau, 0.5, 0.5, deriv=1) * c.eval_differentials(x)[0]
        hy2 = theta1d(0, tau, 0.5, 0.5, deriv=1) * c.eval_differentials(y)[0]
        prime = theta1d(ax - ay, tau, 0.5, 0.5) / np.sqrt(hx2) / np.sqrt(hy2)
        oracle = theta1d(w + e[0], tau) / (theta1d(e[0], tau) * prime)
        # the prime-form square roots are branch-ambiguous: compare up to sign
        assert min(abs(got - oracle), abs(got + oracle)) < 1e-9 * abs(got)


class TestKleinKernel:
    def test_swap_symmetry_and_kummer(self, lemniscatic):
        c = lemniscatic
        e = np.array([0.29 - 0.13j])
        x = c.point(1.8 + 0.2j, 1)
        y = c.point(-2.2 + 0.4j, -1)
        k1 = klein_kernel(c, [e, -e], x, y).value
        k2 = klein_kernel(c, [e, -e], y, x).value
        k3 = klein_kernel(c, [-e, e], x, y).value
        assert abs(k1 - k2) < 1e-9 * abs(k1)
        assert abs(k1 - k3) < 1e-12 * abs(k1)

    def test_sum_constraint(self, lemniscatic):
        e = np.array([0.3 + 0.1j])
        x = lemniscatic.point(1.8, 1)
        y = lemniscatic.point(-2.0, 1)
        with pytest.raises(ConstraintViolation):
            klein_kernel(lemniscatic, [e, 0.5 * e], x, y)

    def test_rank3_biresidue(self, lemniscatic):
        c = lemniscatic
        e1 = np.array([0.23 + 0.05j])
        e2 = np.array([-0.31 + 0.12j])
        e3 = -(e1 + e2)
        p = c.point(2.0, 1)
        vals = []
        for sep in (2e-3, 1e-3):
            y = c.point(2.0 + sep, 1)
            k = klein_kernel(c, [e1, e2, e3], p, y).value
            vals.append(k * (p.x - y.x) ** 3)
        richardson = 2 * vals[1] - vals[0]
        assert abs(richardson - 1.0) < 1e-6

    @pytest.mark.parametrize("curve_name", ["lemniscatic", "genus2"])
    def test_fay_identity(self, curve_name, request):
        c = request.getfixturevalue(curve_name)
        rng = np.random.default_rng(17)
        g = c.genus
        for _ in range(20):
            a = rng.uniform(-0.4, 0.4, g)
            b = rng.uniform(-0.4, 0.4, g)
            e = a + c.omega.entries @ b
            if is_on_theta(e, c.omega):
                continue
            x = c.point(rng.uniform(1.6, 2.6) + 1j * rng.uniform(-0.6, 0.6),
                        rng.choice([-1, 1]))
            y = c.point(rng.uniform(-2.6, -1.6) + 1j * rng.uniform(-0.6, 0.6),
                        rng.choice([-1, 1]))
            kl = klein_kernel(c, [e, -e], x, y).value
            wb = bergman_kernel(c, x, y).value
            cc = klein_coordinates(c, e).matrix
            ox = c.eval_differentials(x)
            oy = c.eval_differentials(y)
            rhs = wb + complex(ox @ cc @ oy)
            assert abs(kl - rhs) <= 1e-8 * abs(kl)


class TestKleinCoordinates:
    def test_even(self, genus2):
        e = np.array([0.21 + 0.13j, -0.34 + 0.22j])
        c1 = klein_coordinates(genus2, e).matrix
        c2 = klein_coordinates(genus2, -e).matrix
        assert np.max(np.abs(c1 - c2)) < 1e-9 * np.max(np.abs(c1))

    def test_vector_layout(self, genus2):
        e = np.array([0.21 + 0.13j, -0.34 + 0.22j])
        kc = klein_coordinates(genus2, e)
        assert len(kc.vector) == 3
        assert kc.vector[1] == kc.matrix[0, 1]

    def test_weierstrass_relation(self, lemniscatic):
        # c(e) + wp(e - (1+tau)/2) is constant in e (q-series oracle)
        tau = lemniscatic.omega.entries[0, 0]
        rng = np.random.default_rng(5)
        vals = []
        for _ in range(10):
            e = rng.uniform(-0.4, 0.4) + tau * rng.uniform(-0.4, 0.4)
            c = klein_coordinates(lemniscatic, [e]).matrix[0, 0]
            vals.append(c + weierstrass_p(e - (1 + tau) / 2, tau))
        vals = np.array(vals)
        assert np.max(np.abs(vals - vals.mean())) < 1e-8 * max(1, abs(vals.mean()))

    def test_oracle_self_consistency(self):
        # q-series evaluation agrees with the raw lattice sum
        tau = 1j
        z = 0.31 + 0.17j
        assert abs(weierstrass_p(z, tau) -
                   weierstrass_p_lattice_sum(z, tau)) < 2e-3

    def test_blowup_near_theta(self, lemniscatic):
        tau = lemniscatic.omega.entries[0, 0]
        zero = (1 + tau) / 2
        norms = []
        for t in [0.2, 0.1, 0.05, 0.025, 0.0125]:
            e = zero + t * (0.7 + 0.2j)
            norms.append(np.abs(klein_coordinates(lemniscatic, [e]).matrix[0, 0]))
        assert all(b > a for a, b in zip(norms, norms[1:]))

    def test_on_theta_raises(self, lemniscatic):
        tau = lemniscatic.omega.entries[0, 0]
        with pytest.raises(PointOnTheta):
            klein_coordinates(lemniscatic, [(1 + tau) / 2])


class TestWirtinger:
    def test_difference_law(self, lemniscatic):
        c = lemniscatic
        e1 = np.array([0.31 + 0.17j])
        e2 = np.array([0.12 - 0.28j])
        p = c.point(2.0, 1)
        r1 = wirtinger_connection(c, e1, p)
        r2 = wirtinger_connection(c, e2, p)
        m1 = klein_coordinates(c, e1).matrix
        m2 = klein_coordinates(c, e2).matrix
        om = c.eval_differentials(p)
        law = 6 * complex(om @ (m1 - m2) @ om)
        assert abs((r1 - r2) - law) < 1e-10 * max(1.0, abs(law))

    def test_flat_chart_invariance(self, lemniscatic):
        # transported to the flat chart z = A(t) the value is constant:
        # R_z = (R_t - S{A; t}) / A'(0)^2
        c = lemniscatic
        e = np.array([0.31 + 0.17j])
        vals = []
        for xv, sh in [(2.0, 1), (1.7, 1), (2.5, -1), (0.3 + 1.1j, 1)]:
            p = c.point(xv, sh)
            r = wirtinger_connection(c, e, p)
            # A'(x) = omega(p) is a constant times f^(-1/2), whose
            # Schwarzian is S{A; x} = 3 f'^2 / (8 f^2) - f'' / (2 f)
            f, f1, f2 = p.y ** 2, 3 * p.x ** 2 - 1, 6 * p.x
            schwarzian = 3 * f1 ** 2 / (8 * f ** 2) - f2 / (2 * f)
            a1 = c.eval_differentials(p)[0]
            vals.append((r - schwarzian) / a1 ** 2)
        vals = np.array(vals)
        assert np.max(np.abs(vals - vals[0])) < 1e-8 * max(1, abs(vals[0]))

    def test_linear_chart_covariance(self, lemniscatic):
        c = lemniscatic
        e = np.array([0.31 + 0.17j])
        r1 = wirtinger_connection(c, e, c.point(2.0, 1))
        r2 = wirtinger_connection(c, e, c.point(2.0, 1, chart_scale=2.0))
        assert abs(r2 - 4.0 * r1) < 1e-9 * abs(r1)

    def test_on_theta_rejected(self, lemniscatic):
        tau = lemniscatic.omega.entries[0, 0]
        with pytest.raises(PointOnTheta):
            wirtinger_connection(lemniscatic, [(1 + tau) / 2],
                                 lemniscatic.point(2.0, 1))


class TestErrorOrder:
    """Divisor and diagonal errors come in a fixed order: PointOnTheta for
    a class on the theta divisor before OnDiagonal for coinciding points."""

    @staticmethod
    def theta_zero(curve):
        if curve.genus == 1:
            return np.array([(1 + curve.omega.entries[0, 0]) / 2])
        return find_theta_zero(curve.omega, np.array([0.2 + 0.1j, -0.3 + 0.2j]),
                               np.array([1.0, 0.7 + 0.2j]))

    @staticmethod
    def evaluate(what, curve, e, x, y):
        if what == "szego":
            return szego_kernel(curve, e, x, y)
        if what == "klein":
            return klein_kernel(curve, [e, -e], x, y)
        return wirtinger_connection(curve, e, x)

    @pytest.mark.parametrize("curve_name", ["lemniscatic", "genus2"])
    @pytest.mark.parametrize("what,on_theta,diagonal,error", [
        (what, on_theta, diagonal, error)
        for what in ("szego", "klein", "wirtinger")
        for on_theta, diagonal, error in ((True, False, PointOnTheta),
                                          (False, True, OnDiagonal),
                                          (True, True, PointOnTheta))
        # the Wirtinger connection takes one point
        if what != "wirtinger" or not diagonal or on_theta])
    def test_error_type(self, curve_name, what, on_theta, diagonal, error,
                        request):
        c = request.getfixturevalue(curve_name)
        e = self.theta_zero(c) if on_theta else np.full(c.genus, 0.3 + 0.1j)
        x = c.point(2.0, 1)
        y = c.point(2.0, 1) if diagonal else c.point(-1.9 + 0.4j, -1)
        with pytest.raises(error):
            self.evaluate(what, c, e, x, y)

    def test_klein_checks_the_diagonal_after_the_first_class(self, genus2):
        # first class off the divisor, second on it, points coinciding
        c = genus2
        e1 = np.array([0.3 + 0.1j, -0.2 + 0.05j])
        e2 = self.theta_zero(c)
        x = c.point(2.0, 1)
        with pytest.raises(OnDiagonal):
            klein_kernel(c, [e1, e2, -e1 - e2], x, c.point(2.0, 1))
        with pytest.raises(PointOnTheta):
            klein_kernel(c, [e2, e1, -e1 - e2], x, c.point(2.0, 1))
        with pytest.raises(PointOnTheta):
            klein_kernel(c, [e1, e2, -e1 - e2], x, c.point(-1.9 + 0.4j, -1))

    @pytest.mark.parametrize("what", ["szego", "klein", "wirtinger"])
    def test_class_of_the_wrong_length(self, genus2, what):
        x, y = genus2.point(2.0, 1), genus2.point(-2.0, 1)
        with pytest.raises(ValueError, match="dimension mismatch"):
            self.evaluate(what, genus2, np.array([0.3 + 0.1j]), x, y)


class TestOneThetaCall:
    """Each kernel evaluation makes one theta_batch call once the curve's
    odd characteristic and Abel images are in its memo; the Bergman
    kernel and its A-periods, Klein's closed form, make none.  The Klein
    coordinates and the Wirtinger connection make one at a new class and
    none at the class whose c(e) the curve's "klein" slot holds.  The
    Szego and Klein kernels' calls carry the prime form's row only when
    the curve's "pair" slot lacks E(x, y).  The Klein kernel's call also
    carries the order-2 row of its first class when the "klein" slot
    lacks it and fills that slot, so the Szego, Bergman and Klein
    kernels, the Klein coordinates and the Wirtinger connection at a new
    class make two calls in all."""

    @pytest.mark.parametrize("what", ["szego", "klein", "wirtinger",
                                      "bergman", "bergman_a_period", "gauss",
                                      "basis"])
    def test_calls(self, genus2, what, monkeypatch):
        c = genus2
        e = np.array([0.3 + 0.1j, -0.2 + 0.05j])
        x, y = c.point(2.2 + 0.3j, 1), c.point(-1.9 + 0.4j, -1)
        e0 = TestErrorOrder.theta_zero(c)
        run = {
            "szego": lambda: szego_kernel(c, e, x, y).value,
            "klein": lambda: klein_kernel(c, [e, -e], x, y).value,
            "wirtinger": lambda: wirtinger_connection(c, e, x),
            "bergman": lambda: bergman_kernel(c, x, y).value,
            "bergman_a_period": lambda: bergman_a_period(c, x, 0, 64),
            "gauss": lambda: gauss_limit_check(
                c.omega, e0, np.array([0.5, 0.3 - 0.1j])).limit.tolist(),
            "basis": lambda: [v.value for v in
                              theta_module.second_order_theta_basis(e, c.omega)],
        }[what]
        want = run()
        calls = TestOddCharacteristicMemo.count_theta_batch(monkeypatch)
        assert run() == want
        repeat_free = what.startswith("bergman") or what == "wirtinger"
        assert len(calls) == (0 if repeat_free else 1)

    def test_new_class_makes_one_call(self, monkeypatch):
        c = build_curve([0, -1, 0, 0, 0, 1])
        e1 = np.array([0.3 + 0.1j, -0.2 + 0.05j])
        e2 = np.array([-0.1 + 0.2j, 0.25 - 0.1j])
        x, y = c.point(2.2 + 0.3j, 1), c.point(-1.9 + 0.4j, -1)
        wirtinger_connection(c, e1, x)
        calls = TestOddCharacteristicMemo.count_theta_batch(monkeypatch)
        for run, want in ((lambda: wirtinger_connection(c, e2, x), 1),
                          (lambda: wirtinger_connection(c, e2, y), 1),
                          (lambda: klein_coordinates(c, e2), 1),
                          (lambda: klein_coordinates(c, e1), 2),
                          (lambda: wirtinger_connection(c, e1, y), 2),
                          (lambda: wirtinger_connection(c, e2, x), 3)):
            run()
            assert len(calls) == want

    def test_kernel_op_at_a_new_class_makes_two_calls(self, monkeypatch):
        c = build_curve([0, -1, 0, 0, 0, 1])
        x, y = c.point(2.2 + 0.3j, 1), c.point(-1.9 + 0.4j, -1)
        e1 = np.array([0.3 + 0.1j, -0.2 + 0.05j])
        e2 = np.array([-0.1 + 0.2j, 0.25 - 0.1j])

        def op(e):
            return (szego_kernel(c, e, x, y).value,
                    bergman_kernel(c, x, y).value,
                    klein_kernel(c, [e, -e], x, y).value,
                    klein_coordinates(c, e).matrix.tolist(),
                    wirtinger_connection(c, e, x))

        op(e1)
        calls = TestOddCharacteristicMemo.count_theta_batch(monkeypatch)
        got = op(e2)
        # the prime form of the pair is held: Szego sends e2 and w + e2,
        # Klein those, -e2, w - e2 and the order-2 row at e2
        assert [len(args[0]) for args in calls] == [2, 5]
        assert got == op(e2)   # a repeat: Szego's call and Klein's
        assert [len(args[0]) for args in calls] == [2, 5, 2, 4]

    def test_klein_kernel_fills_the_slot_only_when_it_lacks_the_class(
            self, monkeypatch):
        c = build_curve([0, -1, 0, 0, 0, 1])
        x, y = c.point(2.2 + 0.3j, 1), c.point(-1.9 + 0.4j, -1)
        e1 = np.array([0.3 + 0.1j, -0.2 + 0.05j])
        e2 = np.array([-0.1 + 0.2j, 0.25 - 0.1j])
        klein_kernel(c, [e1, -e1], x, y)
        calls = TestOddCharacteristicMemo.count_theta_batch(monkeypatch)

        def rows():
            return [len(args[0]) for args in calls]

        # the curve's "pair" slot holds the prime form of (x, y)
        klein_kernel(c, [e1, -e1], x, y)
        assert rows() == [4]
        klein_kernel(c, [e2, -e2], x, y)
        assert rows() == [4, 5]
        klein_coordinates(c, e2)
        wirtinger_connection(c, e2, x)
        assert rows() == [4, 5]
        klein_kernel(c, [-e2, e2], x, y)   # e2 is not the first class
        assert rows() == [4, 5, 5]
        # Szego's own call never carries the row
        szego_kernel(c, e1, x, y)
        assert rows() == [4, 5, 5, 2]

    def test_klein_after_szego_at_a_pair_sends_five_rows(self, monkeypatch):
        # the Szego call leaves E(x, y) in the "pair" slot: the Klein
        # kernel of [e, -e] sends e, w + e, -e, w - e and the order-2 row
        # at e, and forms no half-densities
        c = build_curve([0, -1, 0, 0, 0, 1])
        x, y = c.point(2.2 + 0.3j, 1), c.point(-1.9 + 0.4j, -1)
        e = np.array([0.3 + 0.1j, -0.2 + 0.05j])
        want = klein_kernel(build_curve(c.coeffs), [e, -e], x, y).value
        szego_kernel(c, e, x, y)
        calls = TestOddCharacteristicMemo.count_theta_batch(monkeypatch)
        halves = []
        real = kernels_module._h_product
        monkeypatch.setattr(kernels_module, "_h_product",
                            lambda *args: halves.append(args) or real(*args))
        assert klein_kernel(c, [e, -e], x, y).value == want
        assert [len(args[0]) for args in calls] == [5]
        assert [list(args[3]) for args in calls] == [[0, 0, 0, 0, 2]]
        assert halves == []

    def test_a_period_sums_kernel_values(self, genus2):
        # each row of the batched call keeps the bits of bergman_kernel
        c, x, n = genus2, genus2.point(2.2 + 0.3j, 1), 64
        xs, ys, dxs = c.cycle_contour(0, n)
        total = 0j
        for xv, yv, dxv in zip(xs, ys, dxs):
            q = SurfacePoint(x=complex(xv), sheet=1, y=complex(yv),
                             chart_scale=1.0)
            total += bergman_kernel(c, x, q).value * dxv
        assert bergman_a_period(c, x, 0, n) == \
            total * (2 * math.pi / n) / (2 * math.pi)


def draw_point(data, curve):
    """A point of ``curve`` on either sheet in the square |Re x|, |Im x|
    <= 3, at least 0.3 from every branch point."""
    side = st.floats(-3.0, 3.0)
    x = complex(data.draw(side), data.draw(side))
    assume(np.min(np.abs(curve.branch_points - x)) > 0.3)
    return curve.point(x, data.draw(st.sampled_from([1, -1])))


def draw_class(data, curve):
    """A class a + Omega b, a and b in [-0.4, 0.4]^g, off the theta
    divisor."""
    ab = st.floats(-0.4, 0.4)
    a, b = (np.array([data.draw(ab) for _ in range(curve.genus)])
            for _ in range(2))
    e = a + curve.omega.entries @ b
    assume(not is_on_theta(e, curve.omega))
    return e


class TestRandomCurves:
    """Klein's closed form against theta on squarefree f of degree 3-8
    with complex coefficients."""

    @settings(max_examples=20, deadline=None)
    @given(data=st.data())
    def test_K_is_symmetric(self, random_curves, data):
        c = data.draw(random_curves)
        assert np.max(np.abs(c.K - c.K.T)) \
            <= 1e-10 * max(1.0, np.max(np.abs(c.K)))

    @settings(max_examples=10, deadline=None)
    @given(data=st.data())
    def test_bergman_matches_theta_path(self, random_curves, data):
        c = data.draw(random_curves)
        x, y = draw_point(data, c), draw_point(data, c)
        assume(abs(x.x - y.x) > 0.2)
        want = theta_bergman(c, x, y, select_odd_characteristic(c))
        assert abs(bergman_kernel(c, x, y).value - want) <= 1e-10 * abs(want)

    @settings(max_examples=8, deadline=None)
    @given(data=st.data())
    def test_wirtinger_difference_law(self, random_curves, data):
        # R(e1) - R(e2) = 6 omega^T (c(e1) - c(e2)) omega, and
        # R - 6 omega^T c omega is six times the constant term of B(p, q)
        # - 1/(x_q - x_p)^2 at q = p: the mean of B(p, q) over the circle
        # |x_q - x_p| = 0.1, q continued from p (no branch point within 0.3)
        c = data.draw(random_curves.filter(lambda c: c.genus >= 2))
        p = draw_point(data, c)
        e1, e2 = draw_class(data, c), draw_class(data, c)
        r1 = wirtinger_connection(c, e1, p)
        r2 = wirtinger_connection(c, e2, p)
        om = c.eval_differentials(p)
        c1 = klein_coordinates(c, e1).matrix
        law = 6 * complex(om @ (c1 - klein_coordinates(c, e2).matrix) @ om)
        assert abs((r1 - r2) - law) <= 1e-10 * max(1.0, abs(law))
        circle = p.x + 0.1 * np.exp(2j * np.pi * np.arange(64) / 64)
        near = [min((c.point(x, s) for s in (1, -1)),
                    key=lambda q: abs(q.y - p.y)) for x in circle]
        regular = 6 * np.mean([bergman_kernel(c, p, q).value for q in near])
        s_b = r1 - 6 * complex(om @ c1 @ om)
        assert abs(s_b - regular) <= 1e-10 * max(1.0, abs(s_b))

    @settings(max_examples=20, deadline=None)
    @given(data=st.data())
    def test_prime_form_is_antisymmetric(self, random_curves, data):
        c = data.draw(random_curves)
        x, y = draw_point(data, c), draw_point(data, c)
        assume(abs(x.x - y.x) > 0.05)
        exy = prime_form(c, x, y).value
        assert abs(exy + prime_form(c, y, x).value) <= 1e-10 * abs(exy)

    @settings(max_examples=12, deadline=None)
    @given(data=st.data())
    def test_fay_identity_at_far_points(self, random_curves, data):
        # K_klein(x, y) = B(x, y) + omega(x)^T c(e) omega(y) with x at
        # |x| from 1e3 to 1e6 in any direction, on either sheet
        c = data.draw(random_curves)
        r = 10.0 ** data.draw(st.floats(3.0, 6.0))
        phi = data.draw(st.floats(-math.pi, math.pi))
        x = c.point(r * complex(math.cos(phi), math.sin(phi)),
                    data.draw(st.sampled_from([1, -1])))
        y, e = draw_point(data, c), draw_class(data, c)
        want = bergman_kernel(c, x, y).value + complex(
            c.eval_differentials(x) @ klein_coordinates(c, e).matrix
            @ c.eval_differentials(y))
        got = klein_kernel(c, [e, -e], x, y).value
        assert abs(got - want) <= 1e-10 * abs(want)


class TestKleinSlot:
    """The curve's "klein" slot keeps c(e) of the last class asked for,
    also when the Klein kernel's theta call filled it, and its "pair"
    slot the prime form of the last pair; no value depends on which
    classes and pairs were asked for before."""

    @staticmethod
    def bits(value):
        return [float.hex(float(v)) for z in np.ravel(value)
                for v in (z.real, z.imag)]

    @staticmethod
    def evaluate(curve, op, classes, points):
        kind, k, j = op
        e, x, y = classes[k], points[j], points[(j + 1) % len(points)]
        if kind == "klein":
            return klein_coordinates(curve, e).matrix
        if kind == "klein_kernel":
            return klein_kernel(curve, [e, -e], x, y).value
        if kind == "szego":
            return szego_kernel(curve, e, x, y).value
        if kind == "prime":
            return prime_form(curve, x, y).value
        return wirtinger_connection(curve, e, x)

    @staticmethod
    def draw_points(data, curve):
        points = [draw_point(data, curve) for _ in range(3)]
        assume(all(abs(p.x - q.x) > 0.05
                   for i, p in enumerate(points) for q in points[:i]))
        return points

    def check_interleaving(self, coeffs, data, classes, points):
        # a pair index of -1 repeats the pair of the op before, so that
        # runs of ops meet the pair the "pair" slot holds
        drawn = data.draw(st.lists(
            st.tuples(st.sampled_from(["klein", "wirtinger", "klein_kernel",
                                       "szego", "prime"]),
                      st.integers(0, len(classes) - 1),
                      st.integers(-1, len(points) - 1)),
            min_size=2, max_size=10))
        ops, j = [], 0
        for kind, k, i in drawn:
            j = j if i < 0 else i
            ops.append((kind, k, j))
        curve = build_curve(coeffs)
        got = [self.bits(self.evaluate(curve, op, classes, points))
               for op in ops]
        fresh = {op: self.bits(self.evaluate(build_curve(coeffs), op,
                                             classes, points))
                 for op in set(ops)}
        assert got == [fresh[op] for op in ops]

    @settings(max_examples=15, deadline=None)
    @given(data=st.data())
    def test_interleaving_on_genus2(self, genus2, data):
        classes = [draw_class(data, genus2) for _ in range(2)]
        points = self.draw_points(data, genus2)
        self.check_interleaving(genus2.coeffs, data, classes, points)

    @settings(max_examples=10, deadline=None)
    @given(data=st.data())
    def test_interleaving_on_random_curves(self, random_curves, data):
        c = data.draw(random_curves)
        classes = [draw_class(data, c) for _ in range(2)]
        points = self.draw_points(data, c)
        self.check_interleaving(c.coeffs, data, classes, points)

    def test_class_on_theta_leaves_the_slot(self, monkeypatch):
        # every call at the theta zero computes and raises; the slot still
        # holds e afterwards, so its next use makes no theta_batch call
        c = build_curve([0, -1, 0, 1])
        e, p = np.array([0.31 + 0.17j]), c.point(2.0, 1)
        q = c.point(-1.9 + 0.4j, -1)
        zero = TestErrorOrder.theta_zero(c)
        want = wirtinger_connection(c, e, p)
        select_odd_characteristic(c)
        calls = TestOddCharacteristicMemo.count_theta_batch(monkeypatch)
        for _ in range(2):
            with pytest.raises(PointOnTheta):
                klein_coordinates(c, zero)
            with pytest.raises(PointOnTheta):
                wirtinger_connection(c, zero, p)
            with pytest.raises(PointOnTheta):
                klein_kernel(c, [zero, -zero], p, q)
        # the Klein kernel's call carried the order-2 row at the zero
        assert [len(args[0]) for args in calls] == [1, 1, 6] * 2
        assert wirtinger_connection(c, e, p) == want
        assert len(calls) == 6

    def test_writing_the_returned_matrix_changes_nothing(self):
        c = build_curve([0, -1, 0, 0, 0, 1])
        e = np.array([0.3 + 0.1j, -0.2 + 0.05j])
        p = c.point(2.2 + 0.3j, 1)
        want_c = self.bits(klein_coordinates(c, e).matrix)
        want_r = self.bits(wirtinger_connection(c, e, p))
        m = klein_coordinates(c, e).matrix
        assert m.flags.writeable
        m[...] = np.nan
        assert self.bits(wirtinger_connection(c, e, p)) == want_r
        assert self.bits(klein_coordinates(c, e).matrix) == want_c


class TestBranchPointContract:
    @pytest.mark.parametrize("what", ["bergman_x", "bergman_y",
                                      "bergman_a_period", "wirtinger",
                                      "prime_x", "prime_y", "szego",
                                      "klein"])
    def test_y_zero_is_inadmissible(self, genus2, what):
        c = genus2
        b = SurfacePoint(x=1 + 0j, sheet=1, y=0j)
        p = c.point(2.2 + 0.3j, 1)
        e = np.array([0.3 + 0.1j, -0.2 + 0.05j])
        run = {
            "bergman_x": lambda: bergman_kernel(c, b, p),
            "bergman_y": lambda: bergman_kernel(c, p, b),
            "bergman_a_period": lambda: bergman_a_period(c, b, 0, 64),
            "wirtinger": lambda: wirtinger_connection(c, e, b),
            "prime_x": lambda: prime_form(c, b, p),
            "prime_y": lambda: prime_form(c, p, b),
            "szego": lambda: szego_kernel(c, e, b, p),
            "klein": lambda: klein_kernel(c, [e, -e], p, b),
        }[what]
        with pytest.raises(InadmissiblePoint, match="y = 0"):
            run()


class TestGaussLimit:
    def test_genus1(self, lemniscatic):
        tau = lemniscatic.omega.entries[0, 0]
        e0 = np.array([(1 + tau) / 2])
        rep = gauss_limit_check(lemniscatic.omega, e0,
                                np.array([0.37 + 0.05j]))
        assert rep.max_relative_deviation < 1e-5

    def test_genus2(self, genus2):
        e0 = find_theta_zero(genus2.omega, np.array([0.2 + 0.1j, -0.3 + 0.2j]),
                             np.array([1.0, 0.7 + 0.2j]))
        rep = gauss_limit_check(genus2.omega, e0, np.array([0.5, 0.3 - 0.1j]))
        assert rep.max_relative_deviation < 1e-5
        assert rep.singular_value_ratio < 1e-4

    def test_not_on_divisor_rejected(self, lemniscatic):
        with pytest.raises(NotOnThetaSmoothLocus):
            gauss_limit_check(lemniscatic.omega, np.array([0.3 + 0.1j]),
                              np.array([1.0]))


class TestFinitenessProbe:
    def test_genus1_only_trivial_collisions(self, lemniscatic):
        rep = finiteness_probe(lemniscatic, 200, collision_tol=1e-6, seed=0)
        assert rep.n_nontrivial == 0
        assert len(rep.points) == 200

    def test_inserted_negation_pair_is_trivial(self, lemniscatic):
        e = np.array([0.31 + 0.17j])
        rep = finiteness_probe(lemniscatic, 2, seed=1,
                               extra_points=[e, -e])
        pairs = {(c.i, c.j): c for c in rep.collisions}
        assert (2, 3) in pairs
        assert pairs[(2, 3)].trivial and pairs[(2, 3)].kind == "negation"

    def test_deterministic(self, lemniscatic):
        r1 = finiteness_probe(lemniscatic, 20, seed=7)
        r2 = finiteness_probe(lemniscatic, 20, seed=7)
        assert r1.to_dict() == r2.to_dict()

    def test_sample_count_validation(self, lemniscatic):
        with pytest.raises(ValueError):
            finiteness_probe(lemniscatic, 1)


def all_pairs_collisions(rep, omega, lattice_tol=1e-6):
    """The scalar test of every pair, as (i, j, relative_distance,
    trivial, kind) tuples: the reference the candidate filter must match."""
    coords = [np.asarray(c) for c in rep.coordinates]
    points = [np.asarray(p) for p in rep.points]
    out = []
    n = len(points)
    for i in range(n):
        for j in range(i + 1, n):
            norm = max(np.linalg.norm(coords[i]), np.linalg.norm(coords[j]))
            dist = float(np.linalg.norm(coords[i] - coords[j]))
            if dist >= rep.collision_tol * max(norm, 1e-300):
                continue
            kind = "nontrivial"
            for sign, name in ((-1.0, "equal"), (1.0, "negation")):
                a, b = lattice_coordinates(points[i] + sign * points[j], omega)
                allc = np.concatenate([a, b])
                if np.max(np.abs(allc - np.round(allc))) < lattice_tol:
                    kind = name
                    break
            out.append((i, j, dist / max(norm, 1e-300), kind != "nontrivial",
                        kind))
    return out


class TestCollisionFilter:
    @staticmethod
    def probe(curve, n, collision_tol):
        rng = np.random.default_rng(11)
        g = curve.genus
        u = (rng.uniform(-0.4, 0.4, g)
             + curve.omega.entries @ rng.uniform(-0.4, 0.4, g))
        return finiteness_probe(curve, n, collision_tol=collision_tol, seed=5,
                                extra_points=[u, -u, u + 1.0])

    @pytest.mark.parametrize("collision_tol", [2.0, 0.3])
    def test_matches_all_pairs(self, genus2, collision_tol):
        n = 60
        rep = self.probe(genus2, n, collision_tol)
        got = [(c.i, c.j, c.relative_distance, c.trivial, c.kind)
               for c in rep.collisions]
        assert got == all_pairs_collisions(rep, genus2.omega)
        pairs = (n + 3) * (n + 2) // 2
        if collision_tol == 2.0:
            assert len(got) > 1800
        else:
            assert 0 < len(got) < pairs // 2
        kinds = {(c.i, c.j): c.kind for c in rep.collisions}
        assert kinds[(n, n + 1)] == "negation"
        assert kinds[(n, n + 2)] == "equal"
        assert kinds[(n + 1, n + 2)] == "negation"

    def test_equal_takes_precedence_over_negation(self, genus2):
        # h is a half period, so h - (h + 1) and h + (h + 1) both lie in
        # the lattice; the pair is reported as "equal"
        h = genus2.omega.entries[:, 0] / 2
        rep = finiteness_probe(genus2, 4, seed=2, extra_points=[h, h + 1.0])
        kinds = {(c.i, c.j): c.kind for c in rep.collisions}
        assert kinds[(4, 5)] == "equal"
        assert [(c.i, c.j, c.relative_distance, c.trivial, c.kind)
                for c in rep.collisions] == \
            all_pairs_collisions(rep, genus2.omega)

    @staticmethod
    def counted_rows(monkeypatch):
        """The row count of each theta_batch call the probe makes."""
        rows = []
        batch = kernels_module.theta_batch

        def counted(points, *args, **kwargs):
            rows.append(len(points))
            return batch(points, *args, **kwargs)

        monkeypatch.setattr(kernels_module, "theta_batch", counted)
        return rows

    def test_chunk_size_leaves_report_unchanged(self, genus2, monkeypatch):
        # floor 0.6 rejects about one sample in twelve, so the draw order
        # and the rejection count are exercised too; every draw is one
        # theta_batch call of all the samples still needed, whatever the
        # budget: one row per chunk, three, or all 40
        def report():
            rows.clear()
            return finiteness_probe(genus2, 40, collision_tol=0.3,
                                    seed=5).to_dict()

        monkeypatch.setattr(theta_module, "THETA_FLOOR", 0.6)
        rows = self.counted_rows(monkeypatch)
        want = report()
        assert want["n_rejected"] > 0 and len(rows) > 1
        want_rows = list(rows)
        per_row = theta_module.points_per_row(genus2.omega, 2)
        for budget in (1, 3.5 * per_row, 100 * per_row):
            monkeypatch.setattr(theta_module, "_CHUNK_POINTS", budget)
            assert report() == want
            assert rows == want_rows
            assert rows[0] == 40 and sum(rows) == 40 + want["n_rejected"]
            assert all(b < a for a, b in zip(rows, rows[1:]))

    def test_first_draw_carries_the_extra_points(self, genus2, monkeypatch):
        rows = self.counted_rows(monkeypatch)
        self.probe(genus2, 40, 0.3)
        assert rows == [43]

    def test_extra_point_errors(self, lemniscatic, monkeypatch):
        # a wrong length is refused up front; a point on the theta divisor
        # raises once every draw is done
        for bad in ([np.zeros(2)], [np.zeros(1), np.zeros(2)]):
            with pytest.raises(ValueError, match="dimension mismatch"):
                finiteness_probe(lemniscatic, 4, extra_points=bad)
        monkeypatch.setattr(theta_module, "THETA_FLOOR", 0.6)
        rows = self.counted_rows(monkeypatch)
        rep = finiteness_probe(lemniscatic, 30, seed=4)
        assert rep.n_rejected > 0
        want_rows = [rows[0] + 1] + rows[1:]
        rows.clear()
        zero = (1 + lemniscatic.omega.entries[0]) / 2
        with pytest.raises(PointOnTheta):
            finiteness_probe(lemniscatic, 30, seed=4, extra_points=[zero])
        assert rows == want_rows

    def test_exact_test_rejects_candidates_in_the_margin(self, lemniscatic,
                                                         monkeypatch):
        # Klein coordinates 1, 1 - d_out, 1 - d_in with d_out 3e-7 (relative)
        # outside the tolerance and d_in as far inside: the filter's 1e-6
        # margin passes (0, 1) on, and the exact test must drop it.
        tol = 1e-3
        values = iter([1.0, 1.0 - tol * (1 + 3e-7), 1.0 - tol * (1 - 3e-7)])
        monkeypatch.setattr(
            kernels_module, "log_theta_hessians",
            lambda g, vals, scales: (np.array([[[next(values)]] for _ in vals]),
                                     [None] * len(vals)))
        rep = finiteness_probe(lemniscatic, 3, collision_tol=tol, seed=0)
        assert list(kernels_module._collision_candidates(
            np.array(rep.coordinates), tol)) == [(0, 1), (0, 2), (1, 2)]
        assert [(c.i, c.j) for c in rep.collisions] == [(0, 2), (1, 2)]
        assert [(c.i, c.j, c.relative_distance, c.trivial, c.kind)
                for c in rep.collisions] == \
            all_pairs_collisions(rep, lemniscatic.omega)

    @pytest.mark.parametrize("scale", [1e-200, 1.0, 1e100])
    @pytest.mark.parametrize("collision_tol", [1e-160, 1e-6, 0.5])
    def test_candidates_cover_every_pair_that_passes(self, scale,
                                                     collision_tol):
        rng = np.random.default_rng(3)
        coords = scale * (rng.standard_normal((30, 3))
                          + 1j * rng.standard_normal((30, 3)))
        coords[5] = coords[2]
        coords[9] = coords[4] * (1 + 0.4 * collision_tol)
        cand = list(kernels_module._collision_candidates(coords, collision_tol))
        assert cand == sorted(set(cand)) and all(i < j for i, j in cand)
        for i in range(30):
            for j in range(i + 1, 30):
                norm = max(np.linalg.norm(coords[i]), np.linalg.norm(coords[j]))
                dist = float(np.linalg.norm(coords[i] - coords[j]))
                if dist < collision_tol * max(norm, 1e-300):
                    assert (i, j) in cand
        assert (2, 5) in cand and (4, 9) in cand

    def test_pairs_at_the_threshold_survive_norm_rounding(self):
        # radial partners a relative 0.999 tol apart: at tol = 1e-14 the
        # rounding of the two norms is a tenth of their difference, so a
        # sweep without slack for it drops some of the passing pairs
        tol = 1e-14
        rng = np.random.default_rng(0)
        base = rng.standard_normal((200, 3)) + 1j * rng.standard_normal((200, 3))
        coords = np.concatenate([base, base * (1 - 0.999 * tol)])
        cand = set(kernels_module._collision_candidates(coords, tol))
        passing = 0
        for i in range(200):
            a, b = coords[i], coords[i + 200]
            norm = max(np.linalg.norm(a), np.linalg.norm(b))
            if float(np.linalg.norm(a - b)) < tol * norm:
                passing += 1
                assert (i, i + 200) in cand
        assert passing > 100

    @pytest.mark.parametrize("collision_tol", [1e-160, 1e-6])
    def test_underflowing_norms_keep_pairs_at_zero_distance(self,
                                                            collision_tol):
        # the squares of these norms round to one and two subnormal ulps,
        # so the norms differ by about 1e-162, while the squared difference
        # underflows to 0 and the pair passes the exact test at any tol
        coords = np.array([[2.7e-162, 0.0], [2.75e-162, 0.0]], dtype=complex)
        assert np.linalg.norm(coords[0] - coords[1]) == 0.0
        norms = np.sqrt(np.sum(np.abs(coords) ** 2, axis=1))
        assert norms[1] - norms[0] > 5e-163
        assert list(kernels_module._collision_candidates(
            coords, collision_tol)) == [(0, 1)]

    def test_rows_near_norm_overflow_pair_with_every_row(self):
        # rows 1 and 3 have norms whose squares overflow, or come within a
        # factor 4 of it, where np.linalg.norm in the exact test can
        # overflow too and pass any pair at a finite distance; they stay
        # candidates with every row, the others only with each other
        coords = np.array([[1.0, 1.0], [1e160, 1e160], [1.0, 1.0 + 1e-9],
                           [2.0 ** 511, 0.0], [1e150, 0.0]], dtype=complex)
        with np.errstate(over="ignore"):
            cand = list(kernels_module._collision_candidates(coords, 1e-6))
        assert cand == [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (1, 4),
                        (2, 3), (3, 4)]


class TestOddCharacteristicMemo:
    @staticmethod
    def count_theta_batch(monkeypatch):
        calls = []
        real = theta_module.theta_batch

        def counted(*args, **kwargs):
            calls.append(args)
            return real(*args, **kwargs)

        monkeypatch.setattr(theta_module, "theta_batch", counted)
        monkeypatch.setattr(kernels_module, "theta_batch", counted)
        return calls

    def test_second_selection_makes_no_theta_call(self, monkeypatch):
        curve = build_curve([0, -1, 0, 0, 0, 1])
        first = select_odd_characteristic(curve)
        calls = self.count_theta_batch(monkeypatch)
        assert select_odd_characteristic(curve) == first
        assert calls == []

    def test_prime_form_reuses_the_gradient(self, monkeypatch):
        curve = build_curve([0, -1, 0, 0, 0, 1])
        x, y = curve.point(2.2 + 0.3j, 1), curve.point(-1.9 + 0.4j, -1)
        want = prime_form(curve, x, y).value
        calls = self.count_theta_batch(monkeypatch)
        assert prime_form(curve, x, y).value == want
        assert len(calls) == 0   # the curve's "pair" slot holds E(x, y)
        prime_form(curve, y, x)
        assert len(calls) == 1   # the numerator theta[delta](A(y) - A(x))


class TestConcurrency:
    def test_parallel_kernel_evaluations_agree(self, lemniscatic):
        # pure evaluations over an immutable curve are thread-safe
        from concurrent.futures import ThreadPoolExecutor
        c = lemniscatic
        e = np.array([0.3 + 0.1j])
        pts = [(c.point(1.6 + 0.1 * k, 1), c.point(-1.6 - 0.1 * k, -1))
               for k in range(8)]
        serial = [szego_kernel(c, e, x, y).value for x, y in pts]
        with ThreadPoolExecutor(max_workers=4) as pool:
            parallel = list(pool.map(
                lambda xy: szego_kernel(c, e, xy[0], xy[1]).value, pts))
        assert np.allclose(serial, parallel, rtol=1e-12)

    @staticmethod
    def race(values, coeffs, n):
        """values(curve, order) for a fresh curve and order 0..n-1, and
        from four threads that share one fresh curve, thread t starting at
        t; the threads start behind a barrier with a 1 us switch interval."""
        serial = values(build_curve(coeffs), range(n))
        curve = build_curve(coeffs)
        barrier = threading.Barrier(4, timeout=60)
        results = [None] * 4

        def worker(t):
            barrier.wait()
            results[t] = values(curve, [(t + k) % n for k in range(n)])

        threads = [threading.Thread(target=worker, args=(t,)) for t in range(4)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for th in threads:
                th.start()
            for th in threads:
                th.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(th.is_alive() for th in threads)
        return serial, results

    def test_first_use_from_four_threads(self):
        # no serial warm-up: the odd characteristic, its gradient and the
        # Abel images are all first computed by racing threads.  The points
        # are spaced 0.4 apart only to spread the Abel routes; the
        # half-density signs come from each pair alone, whatever the order.
        e = np.array([0.3 + 0.1j, -0.2 + 0.05j])
        xs = [(1.6 + 0.4 * k, -1.6 - 0.4 * k) for k in range(4)]

        def values(curve, order):
            out = {}
            for k in order:
                x = curve.point(xs[k][0], 1)
                y = curve.point(xs[k][1], -1)
                out[k] = szego_kernel(curve, e, x, y).value
            return out

        serial, results = self.race(values, [0, -1, 0, 0, 0, 1], 4)
        assert results == [serial] * 4

    def test_two_classes_from_four_threads(self):
        # the threads alternate two classes, so they keep replacing each
        # other's entry in the curve's "klein" slot
        es = [np.array([0.3 + 0.1j, -0.2 + 0.05j]),
              np.array([-0.1 + 0.2j, 0.25 - 0.1j])]
        bits = TestKleinSlot.bits

        def values(curve, order):
            out = {}
            for k in order:
                e, p = es[k % 2], curve.point(1.6 + 0.4 * (k % 4), 1)
                out[k] = (bits(klein_coordinates(curve, e).matrix),
                          bits(wirtinger_connection(curve, e, p)))
            return out

        serial, results = self.race(values, [0, -1, 0, 0, 0, 1], 8)
        assert results == [serial] * 4

    def test_szego_and_klein_at_two_pairs_from_four_threads(self):
        # the threads alternate two pairs, so they keep replacing each
        # other's entry in the curve's "pair" slot, while the Klein kernel
        # reads the prime form a Szego call left there
        es = [np.array([0.3 + 0.1j, -0.2 + 0.05j]),
              np.array([-0.1 + 0.2j, 0.25 - 0.1j])]
        pairs = [(1.6, -1.6), (2.2 + 0.3j, -1.9 + 0.4j)]
        bits = TestKleinSlot.bits

        def values(curve, order):
            out = {}
            for k in order:
                e = es[k % 2]
                x, y = (curve.point(v, s)
                        for v, s in zip(pairs[(k // 2) % 2], (1, -1)))
                out[k] = (bits(szego_kernel(curve, e, x, y).value),
                          bits(klein_kernel(curve, [e, -e], x, y).value),
                          bits(prime_form(curve, x, y).value))
            return out

        serial, results = self.race(values, [0, -1, 0, 0, 0, 1], 8)
        assert results == [serial] * 4

    def test_klein_kernel_and_coordinates_from_four_threads(self):
        # the Klein kernel's call fills the slot that the threads keep
        # replacing, and the Klein coordinates read it
        es = [np.array([0.3 + 0.1j, -0.2 + 0.05j]),
              np.array([-0.1 + 0.2j, 0.25 - 0.1j])]
        bits = TestKleinSlot.bits

        def values(curve, order):
            out = {}
            for k in order:
                e = es[k % 2]
                x = curve.point(1.6 + 0.4 * (k % 4), 1)
                y = curve.point(-1.6 - 0.4 * (k % 4), -1)
                out[k] = (bits(klein_kernel(curve, [e, -e], x, y).value),
                          bits(klein_coordinates(curve, e).matrix))
            return out

        serial, results = self.race(values, [0, -1, 0, 0, 0, 1], 8)
        assert results == [serial] * 4


class TestKernelValueCovariance:
    def test_weight_law_under_chart_rescaling(self, lemniscatic):
        c = lemniscatic
        lam = 4.0
        x1, y1 = c.point(2.0, 1), c.point(-2.1, -1)
        x2 = c.point(2.0, 1, chart_scale=lam)
        y2 = c.point(-2.1, -1, chart_scale=lam)
        for func, weight in ((lambda a, b: prime_form(c, a, b), -0.5),
                             (lambda a, b: bergman_kernel(c, a, b), 1.0),
                             (lambda a, b: szego_kernel(
                                 c, np.array([0.3 + 0.1j]), a, b), 0.5)):
            v1 = func(x1, y1)
            v2 = func(x2, y2)
            assert v1.weight[0] == weight
            factor = lam ** (v1.weight[0] + v1.weight[1])
            assert abs(v2.value - v1.value * factor) < 1e-9 * abs(v1.value * factor)


# ----------------------------------------------------------------------
# The Wirtinger connection against the germ path it replaced
# ----------------------------------------------------------------------

#: float.hex of twelve Wirtinger values of the diagonal-germ path (theta
#: jets composed with numerical local expansions), which the closed form
#: replaced; copied bit for bit from that path's record.
GERM_RECORD = Path(__file__).parent / "data" / "wirtinger_germ_hex.json"

RECORD_CURVES = (
    ("x^5-x", [0, -1, 0, 0, 0, 1], [0.31 + 0.17j, -0.12 + 0.23j]),
    ("x^6+x+2", [2, 1, 0, 0, 0, 0, 1], [0.27 - 0.14j, 0.19 + 0.08j]),
)
RECORD_POINTS = ((2.6 + 1.1j, 1), (-2.4 + 1.8j, -1), (0.4 - 2.9j, 1))


class TestGermRecord:
    def test_closed_form_matches_germ_path(self):
        record = json.loads(GERM_RECORD.read_text())
        seen = set()
        for name, f, e in RECORD_CURVES:
            c = build_curve(f)
            for x, sheet in RECORD_POINTS:
                for scale in (1.0, 2.0):
                    key = f"{name} x={x} sheet={sheet} scale={scale}"
                    re_, im_ = record[key]
                    want = complex(float.fromhex(re_), float.fromhex(im_))
                    got = wirtinger_connection(
                        c, np.array(e), c.point(x, sheet, chart_scale=scale))
                    assert abs(got - want) <= 1e-12 * abs(want), key
                    seen.add(key)
        assert seen == set(record)
