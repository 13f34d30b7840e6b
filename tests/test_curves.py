import cmath
import itertools
import json
import math
import re
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from thetakernels.curves import (_RULE_ORDERS, _RULE_TABLE, SurfacePoint,
                                 _gauss_legendre, _rule_halves, bivariate,
                                 build_curve, curve_from_spec,
                                 lattice_coordinates)
from thetakernels.errors import (DegreeTooSmall, InadmissiblePoint,
                                 NonSquarefree, PathThroughBranchPoint)
from thetakernels.theta import DEFAULT_TOL, Characteristic, theta_batch


def agm(a, b):
    for _ in range(80):
        a, b = 0.5 * (a + b), math.sqrt(a * b)
    return a


def integrality(v, omega):
    a, b = lattice_coordinates(v, omega)
    allc = np.concatenate([a, b])
    return float(np.max(np.abs(allc - np.round(allc))))


def routed_defect(c, q, p):
    """Distance from the lattice of A(p) - A(q) minus the integral along
    the routed path from q to p, y continued from q.y; where that path
    ends on the other sheet, p is replaced by its involute."""
    direct, y_end = c._integrate_paths([c._route(q.x, p.x)], q.y, 1e-13)[0]
    if abs(y_end - p.y) > abs(y_end + p.y):
        p = c.point(p.x, -p.sheet)
    assert abs(y_end - p.y) <= 1e-6 * max(1.0, abs(p.y))
    return integrality(c.abel_map(p) - c.abel_map(q) - direct, c.omega)


def draw_point(data, curve):
    """A point of ``curve`` on either sheet in the square |Re x|, |Im x|
    <= 3, at least 0.3 from every branch point."""
    side = st.floats(-3.0, 3.0)
    x = complex(data.draw(side), data.draw(side))
    assume(np.min(np.abs(curve.branch_points - x)) > 0.3)
    return curve.point(x, data.draw(st.sampled_from([1, -1])))


def draw_abel_point(data, curve):
    """A point of ``curve`` on either sheet: in the square |Re x|,
    |Im x| <= 3, at |x| from 10 to 1e6, or within 0.003 to 0.3 of a
    branch point b_j, j > 0, mostly beyond it as seen from b_0, where the
    route from b_0 takes a detour around b_j."""
    kind = data.draw(st.sampled_from(["square", "far", "behind"]))
    if kind == "square":
        side = st.floats(-3.0, 3.0)
        x = complex(data.draw(side), data.draw(side))
    elif kind == "far":
        x = 10.0 ** data.draw(st.floats(1.0, 6.0)) \
            * cmath.exp(1j * data.draw(st.floats(-math.pi, math.pi)))
    else:
        b0, b = curve.branch_points[0], data.draw(
            st.sampled_from(curve.branch_points[1:].tolist()))
        turn = cmath.exp(1j * data.draw(st.floats(-0.3, 0.3)))
        x = b + 10.0 ** data.draw(st.floats(-2.5, -0.5)) * turn \
            * (b - b0) / abs(b - b0)
    try:
        return curve.point(x, data.draw(st.sampled_from([1, -1])))
    except InadmissiblePoint:
        assume(False)


class TestBuildCurve:
    def test_genus1_branch_points(self, lemniscatic):
        c = lemniscatic
        assert c.genus == 1
        assert np.allclose(c.branch_points, [-1, 0, 1])
        assert c.odd_degree  # infinity is a branch point

    def test_genus2_branch_points(self, genus2):
        c = genus2
        assert c.genus == 2
        expected = sorted([0, 1, -1, 1j, -1j], key=lambda z: (z.real, z.imag))
        assert np.allclose(c.branch_points, expected)

    def test_double_root_rejected(self):
        with pytest.raises(NonSquarefree):
            build_curve([0, 1, -2, 1])  # x^3 - 2x^2 + x = x (x-1)^2

    @pytest.mark.parametrize("f", [
        [0, 2 + 2j, -5 + 3j, -1 - 4j, 1],    # x (x - i) (x - 2i) (x - 1 - i)
        [0, 2, -2 + 3j, -1 - 3j, 1],         # x (x - 1) (x - i) (x - 2i)
    ])
    def test_roots_on_a_vertical_line(self, f):
        # the root finder gives i and 2i real parts of rounding size and
        # either sign; sorted by those, a cut or gap ran through the third
        # root on the line and the periods failed to converge
        c = build_curve(f)
        line = [b for b in c.branch_points if abs(b.real) < 1e-9]
        assert np.allclose(line, [0, 1j, 2j])
        assert np.all(np.linalg.eigvalsh(c.omega.entries.imag) > 0)
        assert c.symmetry_residual < 1e-12

    @pytest.mark.parametrize("roots", [[0, -0.9j, 1e-5 - 1.7j, 0.5, -0.5 + 1.3j],
                                       [0, 1e-6 - 1j, -2j, 1]])
    def test_chain_keeps_clear_of_the_branch_points(self, roots):
        # the lexicographic chain has a segment that passes 1e-6 to 1e-5
        # from a branch point; the graded legs integrate it as it is
        c = build_curve(np.poly(roots)[::-1])
        lexicographic = sorted(roots, key=lambda z: (complex(z).real,
                                                     complex(z).imag))
        assert np.max(np.abs(c.branch_points - lexicographic)) < 1e-12
        assert np.all(np.linalg.eigvalsh(c.omega.entries.imag) > 0)
        assert c.symmetry_residual < 1e-12

    def test_degree_too_small(self):
        with pytest.raises(DegreeTooSmall):
            build_curve([1, 0, 1])

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf,
                                     complex(1.0, math.nan)])
    def test_non_finite_coefficient_rejected(self, bad):
        # a ValueError before any arithmetic, also for a leading
        # coefficient, not a failed root finder or NonSquarefree
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for f in ([0, -1, bad, 1], [0, -1, 0, bad]):
                with pytest.raises(ValueError, match="finite"):
                    build_curve(f)

    def test_from_spec(self):
        c = curve_from_spec({"f": [[0, 0], -1, 0, 1]})
        assert c.genus == 1

    def test_bad_spec(self):
        with pytest.raises(ValueError):
            curve_from_spec({"g": [1, 2]})
        with pytest.raises(ValueError):
            curve_from_spec({"f": [[1, 2, 3], 0, 0, 1]})
        for spec in (5, [0, -1, 0, 1], {"f": 5}, {"f": None}):
            with pytest.raises(ValueError):
                curve_from_spec(spec)

    @pytest.mark.parametrize("entry", [True, False, [True, 0], [0, False]])
    def test_boolean_entry_rejected(self, entry):
        # complex(True) is 1 + 0j; the message names the entry
        with pytest.raises(ValueError, match=f"got {re.escape(repr(entry))}"):
            curve_from_spec({"f": [0, -1, 0, 0, 0, entry]})


class TestDifferentials:
    def test_normalized_a_periods_are_identity(self, lemniscatic, genus2):
        # the A-periods of the normalized basis by the trapezoid rule on
        # the ellipse around each cut, as bergman_a_period takes them, on
        # test curves up to genus 3; the contour's y starts from the
        # principal root, so each period is +-1 in its own row
        genus3 = build_curve([0, -1, 0, 0, 0, 0, 0, 1])  # y^2 = x^7 - x
        for c in (lemniscatic, genus2, genus3):
            g = c.genus
            for k in range(g):
                x, y, dx = c.cycle_contour(k, 512)
                powers = np.vander(x, g, increasing=True).T
                period = c.diff_norm @ (powers * dx / y).sum(axis=1) \
                    * (2 * math.pi / 512)
                assert abs(abs(period[k]) - 1.0) < 1e-11
                assert np.max(np.abs(period - period[k] * np.eye(g)[k])) \
                    < 1e-11


class TestPeriods:
    def test_square_lattice(self, lemniscatic):
        tau = lemniscatic.omega.entries[0, 0]
        assert abs(tau - 1j) < 1e-9

    def test_hexagonal_lattice(self, hexagonal):
        tau = hexagonal.omega.entries[0, 0]
        assert abs(abs(tau) - 1.0) < 1e-9
        assert abs(tau.real - 0.5) < 1e-9

    def test_riemann_relations(self, genus2):
        om = genus2.omega.entries
        assert genus2.symmetry_residual < 1e-9
        assert np.max(np.abs(om - om.T)) == 0
        assert np.min(np.linalg.eigvalsh(om.imag)) > 0

    def test_even_degree_curve(self):
        # deg f = 2g + 2: no branch point at infinity, one extra finite cut
        c = build_curve([2, 1, 0, 0, 0, 0, 1])  # y^2 = x^6 + x + 2, genus 2
        assert c.genus == 2 and not c.odd_degree
        assert len(c.branch_points) == 6
        om = c.omega.entries
        assert np.max(np.abs(om - om.T)) == 0
        assert np.min(np.linalg.eigvalsh(om.imag)) > 0
        images = [c.abel_branch_point(i) for i in range(6)]
        for i in range(6):
            for j in range(i + 1, 6):
                assert integrality(2.0 * (images[i] - images[j]), c.omega) < 1e-8

    def test_agm_cross_check(self):
        rng = np.random.default_rng(0)
        done = 0
        while done < 5:
            r = np.sort(rng.uniform(-3, 3, 3))
            if np.min(np.diff(r)) < 0.3:
                continue
            coeffs = np.poly(r)[::-1]
            c = build_curve(list(coeffs))
            tau = c.omega.entries[0, 0]
            b0, b1, b2 = r
            tau_agm = 1j * agm(math.sqrt(b2 - b0), math.sqrt(b2 - b1)) \
                / agm(math.sqrt(b2 - b0), math.sqrt(b1 - b0))
            assert abs(tau - tau_agm) < 1e-9
            done += 1


class TestThomae:
    """Thomae's formula (Thomae 1870; Mumford, Tata Lectures on Theta II,
    ch. IIIa): theta[m](0)^4 = const * prod_{i<j in T} (b_i - b_j)
    * prod_{i<j not in T} (b_i - b_j), T a (g+1)-subset of the finite
    branch points for each even m, one subset per complementary pair at
    even degree.  Sorting both sides' moduli makes the check independent
    of the correspondence between characteristics and subsets, so it
    tests the period matrix, the homology basis and theta against the
    branch points alone."""

    @staticmethod
    def thomae_products(b, g):
        n = len(b)
        dist = np.abs(np.subtract.outer(b, b))

        def pairs(idx):
            return math.prod(dist[i, j] for i, j in
                             itertools.combinations(idx, 2))

        out = []
        for T in itertools.combinations(range(n), g + 1):
            rest = tuple(k for k in range(n) if k not in T)
            if n % 2 == 0 and 0 not in T:
                continue   # the complement of a subset already counted
            out.append(pairs(T) * pairs(rest))
        return np.sort(out)

    @classmethod
    def spread(cls, c):
        """(max - min) / max of theta[m](0)^4 over the Thomae products,
        both sorted, after checking that exactly the expected even theta
        constants vanish: all but the C(2g+2, g+1)/2 of the Thomae
        products, so none below genus 3, one at genus 3 and ten at 4."""
        g = c.genus
        evens = [m for m in Characteristic.all(g) if m.parity == 0]
        vals, expos, _ = theta_batch(np.zeros((len(evens), g)), c.omega,
                                     evens, [0] * len(evens), DEFAULT_TOL)
        fourth = np.sort([abs(v[0] * math.exp(x)) ** 4
                          for v, x in zip(vals, expos)])
        vanishing = len(evens) - math.comb(2 * g + 2, g + 1) // 2
        assert np.all(fourth[:vanishing] < 1e-40 * fourth[-1])
        assert fourth[vanishing] >= 1e-40 * fourth[-1]
        ratio = (fourth[vanishing:]
                 / cls.thomae_products(c.branch_points, g))
        return (np.max(ratio) - np.min(ratio)) / np.max(ratio)

    @settings(max_examples=16, deadline=None)
    @given(data=st.data())
    def test_even_theta_constants(self, random_curves, data):
        assert self.spread(data.draw(random_curves)) <= 1e-10

    @pytest.mark.parametrize("f", [[0, -1] + [0] * 7 + [1],   # x^9 - x
                                   [-1] + [0] * 9 + [1]])     # x^10 - 1
    def test_genus_4(self, f):
        assert self.spread(build_curve(f)) <= 1e-10


class TestCloseRootPairs:
    """Curves with one root pair 1e-7 to 1e-4 times the root scale apart,
    which the squarefree test accepts down to 1e-10.  On 1,000 such
    curves (250 each at 1e-4, 1e-5, 1e-6 and 1e-7, degree 3-8) the
    largest |Omega - Omega^T| was 2.6e-14 times max |Omega| and the
    largest Thomae spread 2.0e-12; the bounds leave a factor of about
    40, and the Thomae bound is the one of TestThomae."""

    @settings(max_examples=20, deadline=None)
    @given(data=st.data())
    def test_periods_and_thomae(self, close_pair_polynomials, data):
        c = build_curve(data.draw(close_pair_polynomials))
        om = c.omega.entries
        assert np.all(np.linalg.eigvalsh(om.imag) > 0)
        assert c.symmetry_residual <= 1e-12 * np.max(np.abs(om))
        assert TestThomae.spread(c) <= 1e-10


def gauss_legendre_table(orders=_RULE_ORDERS):
    """Positive nodes (row 0) and their weights (row 1) of numpy's
    leggauss(m) for each m of ``orders``, concatenated in that order.

    src/thetakernels/gauss_legendre.npy was written by
    ``np.save(_RULE_TABLE, gauss_legendre_table())``.
    """
    halves = [np.polynomial.legendre.leggauss(m) for m in orders]
    return np.array([np.concatenate([r[k][m // 2:]
                                     for m, r in zip(orders, halves)])
                     for k in (0, 1)])


def _hexes(values):
    return [float(v).hex() for v in values]


class TestQuadratureRules:
    def test_rules_match_leggauss(self):
        """Every tabulated order is numpy's leggauss rule bit for bit."""
        for m in _RULE_ORDERS:
            want = np.polynomial.legendre.leggauss(m)
            for got, ref in zip(_gauss_legendre(m), want):
                assert _hexes(got) == _hexes(ref), m

    def test_table_shape_and_ranges(self):
        assert np.load(_RULE_TABLE).shape == \
            (2, sum(m // 2 for m in _RULE_ORDERS))
        for m in _RULE_ORDERS:
            nodes, weights = _rule_halves()[m]
            assert nodes.shape == weights.shape == (m // 2,)
            assert 0.0 < nodes[0] and nodes[-1] < 1.0
            assert np.all(np.diff(nodes) > 0) and np.all(weights > 0)
            assert len(_gauss_legendre(m)[0]) == m

    @pytest.mark.parametrize("m", [0, 2, 13, 16, 32, 512, 768, 8192])
    def test_other_orders_refused(self, m):
        with pytest.raises(ValueError):
            _gauss_legendre(m)

    def test_rule_memoised_read_only(self):
        nodes, weights = _gauss_legendre(24)
        assert _gauss_legendre(24)[0] is nodes
        with pytest.raises(ValueError):
            nodes[0] = 0.0
        with pytest.raises(ValueError):
            weights[0] = 0.0


class TestSurfacePoints:
    def test_point_on_curve(self, lemniscatic):
        p = lemniscatic.point(2.0, 1)
        assert abs(p.y ** 2 - 6.0) < 1e-12
        m = lemniscatic.point(2.0, -1)
        assert abs(m.y + p.y) < 1e-12

    def test_margin_enforced(self, lemniscatic):
        x = 1.0 + 1e-5
        with pytest.raises(InadmissiblePoint):
            lemniscatic.point(x, 1)

    @pytest.mark.parametrize("sheet", [0, 2, -2, 1.5, 1, -1])
    def test_sheet_must_be_plus_or_minus_one(self, genus2, sheet):
        fx = genus2.f(2.0)
        if sheet in (1, -1):
            p = genus2.point(2.0, sheet)
            assert p.sheet == sheet
            assert abs(p.y ** 2 - fx) <= 1e-12 * abs(fx)
        else:
            with pytest.raises(InadmissiblePoint):
                genus2.point(2.0, sheet)

    @pytest.mark.parametrize("scale", [0.0, -1.0, float("nan"),
                                       float("inf")])
    def test_chart_scale_must_be_finite_and_positive(self, genus2, scale):
        with pytest.raises(InadmissiblePoint):
            genus2.point(2.0, 1, chart_scale=scale)
        p = genus2.point(2.0, 1)
        with pytest.raises(InadmissiblePoint):
            SurfacePoint(p.x, p.sheet, p.y, chart_scale=scale)

    @pytest.mark.parametrize("x", [float("nan"), float("inf"), 1e200,
                                   complex(1.0, float("-inf"))])
    def test_non_finite_point_rejected(self, genus2, x):
        # 1e200 is finite, but f(1e200) overflows
        with pytest.raises(InadmissiblePoint):
            genus2.point(x, 1)


class TestAbelMap:
    def test_zero_path(self, lemniscatic):
        p = lemniscatic.point(2.0, 1)
        assert np.max(np.abs(lemniscatic.abel_map(p, base=p))) == 0

    def test_involution(self, lemniscatic, genus2):
        for c in (lemniscatic, genus2):
            for xv, sh in [(2.0, 1), (0.5 + 1.3j, -1)]:
                p = c.point(xv, sh)
                ip = c.point(xv, -sh)
                s = c.abel_map(p) + c.abel_map(ip)
                assert integrality(s, c.omega) < 1e-9

    def test_path_independence(self, lemniscatic, genus2):
        # A(p) - A(q), both integrated from b_0, against the routed path
        # from q to p, on both sheets at p
        sextic = build_curve([2, 1, 0, 0, 0, 0, 1])
        for c in (lemniscatic, genus2, sextic):
            for xq, xp in [(-0.4 + 1.1j, 2.0), (0.5 - 1.3j, -2.2 + 0.4j),
                           (1.5 + 0.2j, 40 - 30j)]:
                q = c.point(xq, -1)
                for sheet in (1, -1):
                    assert routed_defect(c, q, c.point(xp, sheet)) < 1e-9

    @settings(max_examples=15, deadline=None)
    @given(data=st.data())
    def test_path_independence_on_random_curves(self, random_curves, data):
        c = data.draw(random_curves)
        q, p = draw_point(data, c), draw_point(data, c)
        assume(abs(p.x - q.x) > 0.1)
        assert routed_defect(c, q, p) < 1e-9

    def test_homotopic_paths_agree(self, lemniscatic):
        # same endpoints, slightly different waypoints in the same class
        c = lemniscatic
        p = c.point(2.0 + 0.5j, 1)
        q = c.point(2.5 - 0.4j, 1)
        direct, _ = c._integrate_paths([[q.x, p.x]], q.y, 1e-13)[0]
        mid = 0.5 * (q.x + p.x) + 0.15j
        bent, _ = c._integrate_paths([[q.x, mid, p.x]], q.y, 1e-13)[0]
        assert np.max(np.abs(direct - bent)) < 1e-9

    def test_weierstrass_two_torsion(self, lemniscatic, genus2):
        for c in (lemniscatic, genus2):
            n = len(c.branch_points)
            images = [c.abel_branch_point(i) for i in range(n)]
            for i in range(n):
                for j in range(i + 1, n):
                    v = 2.0 * (images[i] - images[j])
                    assert integrality(v, c.omega) < 1e-8

    @settings(max_examples=25, deadline=None)
    @given(data=st.data())
    def test_abel_images_match_single_points(self, random_curves, data):
        # one sweep over 1-4 points, some already in the memo, gives each
        # the bits that abel_map gives it alone on a fresh curve
        c = data.draw(random_curves)
        points = [draw_abel_point(data, c)
                  for _ in range(data.draw(st.integers(1, 4)))]
        for p in data.draw(st.lists(st.sampled_from(points), max_size=2)):
            c.abel_map(p)
        fresh = build_curve(c.coeffs)
        assert _hex(c.abel_images(points)) \
            == _hex([fresh.abel_map(p) for p in points])

    def test_a_failing_point_raises_and_the_others_are_kept(self, genus2):
        # a point off the curve fails the sheet check at its end; the
        # images of the points that succeed still go into the memo
        c = build_curve(genus2.coeffs)
        good = c.point(2.2 + 0.3j, 1)
        off = [SurfacePoint(x=x, sheet=1, y=3 * c.point(x).y)
               for x in (-1.9 + 0.4j, 0.5 - 1.2j)]
        for points in ((good, off[0]), (off[0], good), (off[1], off[0])):
            with pytest.raises(PathThroughBranchPoint,
                               match="sheet tracking"):
                c.abel_images(points)
        assert len(c._memo) == 1
        assert _hex(c.abel_images((good,))) == _hex(genus2.abel_map(good))

    def test_memo_keys_on_the_exact_point(self):
        # 4e-13 apart: the same point once x is rounded to 12 digits
        f = [0, -1, 0, 0, 0, 1]
        x, near = 0.5 + 0.3j, 0.5 + 0.3j + 4e-13
        warm = build_curve(f)
        warm.abel_map(warm.point(x, 1))
        got = warm.abel_map(warm.point(near, 1))
        fresh = build_curve(f)
        assert np.array_equal(got, fresh.abel_map(fresh.point(near, 1)))
        assert not np.array_equal(got, fresh.abel_map(fresh.point(x, 1)))

    def test_sheet_detour(self, lemniscatic):
        # the straight path from base to 2.5 ends on the other sheet than
        # the target, so the check goes through the target's involute
        c = lemniscatic
        base = c.point(2.0, 1)
        tgt = c.point(2.5, -1)
        direct, y_end = c._integrate_paths([[base.x, tgt.x]], base.y,
                                           1e-13)[0]
        assert abs(y_end + tgt.y) < 1e-9
        assert integrality(c.abel_map(tgt) - c.abel_map(base) - direct,
                           c.omega) > 0.1
        assert routed_defect(c, base, tgt) < 1e-9


class TestKleinPolynomials:
    """The coefficient matrices of F and Q that Klein's closed form of the
    Bergman kernel evaluates."""

    @pytest.mark.parametrize("f", [[0, -1, 0, 1], [2, 1, 0, 0, 0, 0, 1],
                                   [1 + 0.5j, -0.3j, 0.7, 0.2 - 0.1j, 1.1,
                                    0.4j, 0.9 + 0.2j, 1.0],
                                   [1, 0, 2j, 0, 0.5, 0, 0, 0, 1.3]])
    def test_defining_relations(self, f):
        c = build_curve(f)
        rng = np.random.default_rng(2)
        x1, x2 = rng.standard_normal((2, 20)) + 1j * rng.standard_normal((2, 20))
        F = bivariate(c.F_coeffs, x1, x2)
        assert np.allclose(bivariate(c.F_coeffs, x1, x1), 2 * c.f(x1),
                           rtol=1e-13, atol=0)
        assert np.allclose(F, bivariate(c.F_coeffs, x2, x1), rtol=1e-13,
                           atol=0)
        lhs = bivariate(c.Q_coeffs, x1, x2) * (x1 - x2) ** 2
        rhs = F * F - 4 * c.f(x1) * c.f(x2)
        scale = np.abs(F * F) + np.abs(4 * c.f(x1) * c.f(x2))
        assert np.all(np.abs(lhs - rhs) <= 1e-13 * scale)


class TestCycleContour:
    def test_contour_closes_and_circles_cut(self, genus2):
        x, ys, dx = genus2.cycle_contour(0, 128)
        assert len(x) == 128
        assert np.max(np.abs(ys ** 2 - genus2.f(x))) < 1e-8
        # winding of the contour around the cut endpoints is 1, and 0
        # around every other branch point
        xc = np.concatenate([x, x[:1]])
        for i, b in enumerate(genus2.branch_points):
            winding = np.sum(np.angle((xc[1:] - b) / (xc[:-1] - b))) / (2 * math.pi)
            expect = 1.0 if i < 2 else 0.0
            assert abs(winding - expect) < 1e-6


# ----------------------------------------------------------------------
# Bit-for-bit record of periods, cycle contours and Abel images
# ----------------------------------------------------------------------

CURVES_RECORD = Path(__file__).parent / "data" / "curves_hex.json"

CURVES_RECORD_CURVES = (
    ("x^7-x", [0, -1, 0, 0, 0, 0, 0, 1]),
    ("x^5-x", [0, -1, 0, 0, 0, 1]),
    ("x^6+x+2", [2, 1, 0, 0, 0, 0, 1]),
)

# points of y^2 = x^7 - x; the legs to 1 + 0.0011j (next to a branch
# point) and to 40 + 30j (a long leg) are cut into many graded pieces
CURVES_RECORD_ABEL = ((2.6 + 1.1j, 1), (-0.4 + 0.7j, -1), (0.3 - 1.9j, 1),
                      (1 + 0.0011j, -1), (40 + 30j, 1))


def _hex(values):
    return [[complex(z).real.hex(), complex(z).imag.hex()]
            for z in np.ravel(values)]


def curves_record():
    """float.hex of A, B, Omega and the 256-node cycle_contour of every
    cut on three curves of genus 2 and 3, odd and even degree, and of
    abel_map at the points CURVES_RECORD_ABEL of the genus-3 curve.
    tests/data/curves_hex.json was written by this function."""
    out = {}
    for name, f in CURVES_RECORD_CURVES:
        c = build_curve(f)
        out[f"{name} periods"] = {"A": _hex(c.A), "B": _hex(c.B),
                                  "omega": _hex(c.omega.entries)}
        for k in range(c.degree // 2):
            x, y, dx = c.cycle_contour(k, 256)
            out[f"{name} contour cut={k}"] = {"x": _hex(x), "y": _hex(y),
                                              "dx": _hex(dx)}
        if name == "x^7-x":
            for x, sheet in CURVES_RECORD_ABEL:
                out[f"{name} abel x={x} sheet={sheet}"] = _hex(
                    c.abel_map(c.point(x, sheet)))
    return out


class TestCurvesRecord:
    def test_periods_contours_and_abel_images_match_record(self):
        assert curves_record() == json.loads(CURVES_RECORD.read_text())
