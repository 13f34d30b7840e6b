"""Exact identities of the jet calculus (all tests are zero-residual)."""

import json
import math
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from thetakernels.errors import (DiagonalValueMismatch, NotMonic,
                                 NotMonicOn2Delta, TraceNotZero)
from thetakernels.jets import (ConnectionJet, DiffOperator, JetKernel,
                               build_oper, change_coordinate,
                               companion_connection, connection_from_kernel,
                               det_kernel, flat_extension,
                               gamma_from_projective, kernel_to_operator,
                               matrix_oper, mu_nu, operator_to_kernel,
                               projective_jet, quadratic_S, quadratic_S_jet,
                               rescale_shift, tensor_power, trace_map,
                               _chart_difference, _expansion_mul,
                               _gamma_from_chart, _mat_zero, _taylor_shift,
                               projective_chart)
from thetakernels.series import QC, Series

N = 16  # series truncation order for the exact battery


def poly(coeffs, n=N):
    return Series.from_coeffs([QC.of(c) for c in coeffs], n)


def rand_poly(rng, deg, n=N):
    return poly([complex(rng.integers(-5, 6), rng.integers(-5, 6)) for _ in range(deg + 1)], n)


def rng():
    import numpy as np
    return np.random.default_rng(42)


class TestMuLaws:
    def test_diagonal_is_one(self):
        for nu in range(-2, 5):
            m = mu_nu(nu, 4, N)
            assert m.scalar_coeff(m.diag_index) == Series.const(1, N)

    def test_sigma_parity(self):
        for nu in range(-2, 5):
            m = mu_nu(nu, 5, N)
            sw = m.swap()
            assert sw == m.scale(QC((-1) ** (nu % 2)))

    def test_tensor_power_law(self):
        for nu in range(-2, 5):
            power = tensor_power(mu_nu(1, 5, N), nu)
            assert (power.weight, power.pole) == (nu, nu)
            assert power == mu_nu(nu, 5, N)

    def test_swap_is_multiplicative(self):
        r = rng()
        a = JetKernel(1, 1, 1, [[[rand_poly(r, 3)]] for _ in range(4)])
        b = JetKernel(1, 2, 2, [[[rand_poly(r, 3)]] for _ in range(4)])
        assert (a * b).swap() == a.swap() * b.swap()


SMALL_QC = st.builds(QC, st.fractions(-3, 3, max_denominator=4),
                     st.fractions(-3, 3, max_denominator=4))


@st.composite
def small_series(draw, n, unit=False):
    """A Series of order n with small Gaussian-rational coefficients; with
    ``unit`` its constant term is nonzero."""
    c = draw(st.lists(SMALL_QC, min_size=n + 1, max_size=n + 1))
    if unit and not c[0]:
        c[0] = QC(1)
    return Series(c, n)


class TestExpansionAlgebra:
    """Rank-1 weight-0 jets are the u-expansions: one product, one power
    and one Taylor shift serve them."""

    @settings(max_examples=40, deadline=None)
    @given(st.data(), st.integers(-3, 3), st.integers(-3, 3))
    def test_power_law(self, data, j, k):
        m, n = data.draw(st.integers(1, 4)), data.draw(st.integers(2, 6))
        coeffs = [data.draw(small_series(n, unit=i == 0)) for i in range(m)]
        a = JetKernel(1, 0, 0, [[[s]] for s in coeffs])
        assert tensor_power(a, j) * tensor_power(a, k) == tensor_power(a, j + k)

    @settings(max_examples=40, deadline=None)
    @given(st.data())
    def test_shift_is_w_minus_u_times_difference(self, data):
        # w(z - u) = w(z) - u (w(z) - w(z - u)) / u
        m, n = data.draw(st.integers(1, 6)), data.draw(st.integers(6, 10))
        w = data.draw(small_series(n))
        shifted = JetKernel(1, 0, 0, _taylor_shift([[w]], m))
        difference = _taylor_shift([[w]], m, 1)
        u_times = JetKernel(1, 0, 0, [_mat_zero(1, n)] + difference[:m - 1])
        assert shifted == mu_nu(0, m, n).scale(w) - u_times

    @pytest.mark.parametrize("chart", [[0, 2], [0, 2, 1, -1]])
    @pytest.mark.parametrize("nu", range(-2, 5))
    def test_orders_hold_for_a_truncated_chart(self, nu, chart):
        # a polynomial chart of order n stands for any chart that agrees
        # with it up to z^n, so every claimed order must survive a z^(n+1)
        # term (a zero coefficient still bounds the orders it touches)
        n, m = 8, 5
        w = poly(chart, n)
        ext = poly(chart + [0] * (n + 1 - len(chart)) + [3 + 1j], n + 1)
        s = JetKernel(1, nu, max(nu, 0), [[[poly(c, n)]] for c in
                                         ([1], [0], [2, 1j], [0], [-1, 0, 2j])])
        for f in (lambda c: _gamma_from_chart(c, nu, m),
                  lambda c: change_coordinate(mu_nu(nu, m, n), c),
                  lambda c: change_coordinate(s, c)):
            a, b = f(w), f(ext)
            for x, y in zip(a.coeffs, b.coeffs):
                assert x[0][0].n <= y[0][0].n and x[0][0] == y[0][0]


def assert_identical(a, b):
    """Same shape, and every entry the same value at the same order."""
    assert (a.rank, a.weight, a.pole, a.order) == (b.rank, b.weight, b.pole, b.order)
    for x, y in zip(a.coeffs, b.coeffs):
        for row_x, row_y in zip(x, y):
            for s, t in zip(row_x, row_y):
                assert s.n == t.n and s.ints == t.ints


def qc_mul(a, b):
    """Series product from QC arithmetic, one coefficient at a time."""
    n = min(a.n, b.n)
    return Series([sum((a[i] * b[k - i] for i in range(k + 1)), QC())
                   for k in range(n + 1)], n)


def is_zero_matrix(mat):
    return all(x.is_zero() for row in mat for x in row)


def term_by_term_mul(a, b):
    """``a * b`` one Series product and one sum at a time: a zero
    coefficient matrix is skipped, and the slots start as zeros of the
    series order of ``a``."""
    m, r1, r2 = min(a.order, b.order), a.rank, b.rank
    rank = max(r1, r2)
    out = [_mat_zero(rank, a.series_order) for _ in range(m)]
    for i in range(m):
        for j in range(m - i):
            x, y = a.coeffs[i], b.coeffs[j]
            if is_zero_matrix(x) or is_zero_matrix(y):
                continue
            for p in range(rank):
                for q in range(rank):
                    if r1 == r2:
                        terms = [qc_mul(x[p][k], y[k][q]) for k in range(rank)]
                    elif r1 == 1:
                        terms = [qc_mul(y[p][q], x[0][0])]
                    else:
                        terms = [qc_mul(x[p][q], y[0][0])]
                    out[i + j][p][q] = sum(terms, out[i + j][p][q])
    return JetKernel(rank, a.weight + b.weight, a.pole + b.pole, out)


@st.composite
def random_jets(draw, rank):
    """A jet with some zero coefficient matrices, some zero entries and
    series orders that differ from entry to entry."""
    m = draw(st.integers(1, 4))
    coeffs = []
    for _ in range(m):
        zero = draw(st.booleans())
        coeffs.append([[Series.zero(draw(st.integers(2, 6))) if zero
                        or not draw(st.integers(0, 4)) else
                        draw(small_series(draw(st.integers(2, 6))))
                        for _ in range(rank)] for _ in range(rank)])
    return JetKernel(rank, draw(st.integers(0, 3)), draw(st.integers(0, 3)), coeffs)


class TestFusedProducts:
    """The fused products give the term-by-term values and truncation
    orders, zero-skipping included."""

    @settings(max_examples=60, deadline=None)
    @given(st.data(), st.sampled_from([(1, 1), (1, 2), (2, 1), (2, 2)]))
    def test_product_matches_term_by_term(self, data, ranks):
        a = data.draw(random_jets(ranks[0]), label="a")
        b = data.draw(random_jets(ranks[1]), label="b")
        want = term_by_term_mul(a, b)
        assert_identical(a * b, want)
        n = math.inf
        for k, mat in enumerate(want.coeffs):
            n = min([n] + [x.n for f in (a, b) for row in f.coeff(k) for x in row])
            want.coeffs[k] = [[x.truncate(min(n, x.n)) for x in row] for row in mat]
        assert_identical(_expansion_mul(a, b), want)


def per_slot_change_coordinate(s, w):
    """change_coordinate with a fresh power and composition per slot, and
    the binomial series of the weight factor summed to the last slot."""
    m = s.order
    dw = _chart_difference(w, m)
    total = JetKernel(1, 0, 0, [_mat_zero(1, w.n) for _ in range(m)])
    for j in range(m):
        aj = s.scalar_coeff(j)
        if not aj.is_zero():
            term = tensor_power(dw, j - s.pole).scale(aj.compose(w))
            shifted = ([_mat_zero(1, w.n)] * j + term.coeffs)[:m]
            total = total + JetKernel(1, 0, 0, shifted)
    wp = w.derivative()
    ratio = JetKernel(1, 0, 0, _taylor_shift([[wp]], m)).scale(wp.reciprocal())
    one = mu_nu(0, m, ratio.series_order)
    alpha = Fraction(s.weight, 2)
    prefactor = power = one
    for k in range(1, m):
        power = _expansion_mul(power, ratio - one)
        prefactor = prefactor + power.scale(
            math.prod(alpha - i for i in range(k)) / math.factorial(k))
    wp_nu = Series.const(1, wp.n)
    for _ in range(s.weight):
        wp_nu = wp_nu * wp
    return _expansion_mul(JetKernel(1, s.weight, s.pole, total.coeffs),
                          prefactor).scale(wp_nu)


class TestChangeCoordinate:
    @settings(max_examples=40, deadline=None)
    @given(st.data(), st.integers(0, 4), st.integers(0, 4))
    def test_matches_per_slot_reference(self, data, weight, pole):
        # weight 0 is alpha = 0 in the weight factor: the k = 1 term of its
        # binomial series is zero but still bounds the truncation orders
        n = data.draw(st.integers(4, 8), label="n")
        w = data.draw(small_series(n), label="w")
        w.c[0] = QC()
        if not w.c[1]:
            w.c[1] = QC(2)
        m = data.draw(st.integers(1, 5), label="m")
        coeffs = [Series.zero(n) if data.draw(st.booleans()) else
                  data.draw(small_series(data.draw(st.integers(n - 2, n))))
                  for _ in range(m)]
        s = JetKernel(1, weight, pole, [[[x]] for x in coeffs])
        assert_identical(change_coordinate(s, w), per_slot_change_coordinate(s, w))

    def test_mu_invariance_on_2delta(self):
        r = rng()
        for _ in range(20):
            deg = int(r.integers(2, 5))
            w = Series.zero(N)
            w.c[1] = QC.of(complex(r.integers(1, 4), r.integers(0, 3)))
            for k in range(2, deg + 1):
                w.c[k] = QC.of(complex(r.integers(-3, 4), r.integers(-3, 4)))
            nu = int(r.integers(-2, 5))
            out = change_coordinate(mu_nu(nu, 2, N), w)
            assert out == mu_nu(nu, 2, N)

    def test_linear_chart_homogeneity(self):
        lam = QC(3)
        w = Series.zero(N)
        w.c[1] = lam
        s = JetKernel(1, 2, 2, [[[poly([1])]], [[poly([0, 1])]], [[poly([2, 0, 1])]]])
        out = change_coordinate(s, w)
        # a_j(z) u^(j-p) with z = lam t, u = lam v picks up lam^(j-p) * lam^nu
        for j in range(3):
            scaled = s.scalar_coeff(j).compose(w) * lam ** (j - s.pole + s.weight)
            assert out.scalar_coeff(j) == scaled

    def test_round_trip(self):
        r = rng()
        w = Series.zero(N)
        w.c[1] = QC(2)
        w.c[2] = QC(1)
        w.c[3] = QC(0, 1)
        s = JetKernel(1, 3, 3, [[[rand_poly(r, 2)]] for _ in range(4)])
        s.coeffs[0][0][0] = Series.const(1, N)
        back = change_coordinate(change_coordinate(s, w), w.reversion())
        m = min(4, back.order)
        for j in range(m):
            got, want = back.scalar_coeff(j), s.scalar_coeff(j)
            lim = min(got.n, want.n, N - 6)
            assert got.truncate(lim) == want.truncate(lim)


class TestOperatorDictionary:
    def test_de_rham_anchor(self):
        L = kernel_to_operator(mu_nu(2, 2, N))
        f = poly([0, 0, 1])  # z^2
        assert L.apply(f) == poly([0, 2])  # 2z

    def test_mu_gives_plain_derivative(self):
        # residue pairing on monomials: mu_(n+1) acts as the n-th derivative
        for n in range(1, 5):
            L = kernel_to_operator(mu_nu(n + 1, n + 1, N))
            for k in range(6):
                f = Series.zero(N)
                f.c[k] = QC(1)
                expect = Series.zero(N)
                if k >= n:
                    expect.c[k - n] = QC(math.factorial(k) // math.factorial(k - n))
                assert L.apply(f) == expect

    def test_residue_pairing_matches_contour_integral(self):
        # independent oracle: numeric contour integral of f(z1) psi(z1, c) dz1
        import numpy as np
        a1 = poly([0, 1])        # z
        a2 = poly([QC(2), 0, QC(0, 1)])  # 2 + i z^2
        s = JetKernel(1, 3, 3, [[[poly([1])]], [[a1]], [[a2]]])
        L = kernel_to_operator(s)
        f = poly([1, 2, 0, 1])   # 1 + 2z + z^3
        got = L.apply(f)
        c = 0.31 - 0.17j
        # psi(z1, z2) = sum_j a_j(z1) (z1-z2)^(j-3); operator = 2! * residue
        ts = np.exp(2j * np.pi * np.arange(4096) / 4096)
        z1 = c + 0.05 * ts
        psi = (1.0 / (z1 - c) ** 3
               + z1 / (z1 - c) ** 2
               + (2 + 1j * z1 ** 2) / (z1 - c))
        fz = 1 + 2 * z1 + z1 ** 3
        residue = np.mean(fz * psi * 0.05 * ts)  # (1/2pi i) contour integral
        want = math.factorial(2) * residue
        got_val = complex(got.evaluate(QC.of(c)))
        assert abs(got_val - want) < 1e-10

    def test_round_trips_exact(self):
        r = rng()
        for n in range(1, 5):
            coeffs = [[[poly([1])]]]
            coeffs += [[[rand_poly(r, 3)]] for _ in range(n)]
            s = JetKernel(1, n + 1, n + 1, coeffs)
            L = kernel_to_operator(s)
            assert operator_to_kernel(L) == s
            L2 = kernel_to_operator(operator_to_kernel(L))
            for q1, q2 in zip(L.q, L2.q):
                assert q1[0][0] == q2[0][0]

    def test_round_trip_at_every_truncation_order(self):
        r = rng()
        q1, q2 = rand_poly(r, 3), rand_poly(r, 3)
        for order in range(2, 17):
            # the monic row is exact; the data rows carry the truncation
            s = JetKernel(1, 3, 3, [[[poly([1])]],
                                    [[q1.truncate(order)]],
                                    [[q2.truncate(order)]]])
            assert operator_to_kernel(kernel_to_operator(s)) == s

    def test_matrix_round_trip(self):
        r = rng()
        n, rk = 2, 2
        coeffs = [[[poly([1]) if i == j else poly([0]) for j in range(rk)]
                   for i in range(rk)]]
        for _ in range(n):
            coeffs.append([[rand_poly(r, 2) for _ in range(rk)] for _ in range(rk)])
        s = JetKernel(rk, n + 1, n + 1, coeffs)
        assert operator_to_kernel(kernel_to_operator(s)) == s

    def test_order_zero_identity_kernel(self):
        s = operator_to_kernel(DiffOperator(order=0, rank=1, q=[]))
        assert s.order == 1 and s.scalar_coeff(0) == Series.const(1, 16)

    def test_derivative_maps_to_mu2_pattern(self):
        L = DiffOperator(order=1, rank=1, q=[[[Series.zero(N)]]])
        assert operator_to_kernel(L) == mu_nu(2, 2, N)

    def test_non_monic_rejected(self):
        s = JetKernel(1, 2, 2, [[[poly([2])]], [[poly([0])]]])
        with pytest.raises(NotMonic):
            kernel_to_operator(s)


class TestConnections:
    def test_flat_extension_of_zero(self):
        kappa = flat_extension(ConnectionJet(1, [[Series.zero(N)]]), 5)
        assert kappa == mu_nu(0, 5, N)

    def test_constant_scalar_gives_exponential(self):
        c = QC(3)
        kappa = flat_extension(ConnectionJet(1, [[Series.const(3, N)]]), 6)
        # kappa = exp(c u): coefficients c^j / j!
        for j in range(6):
            expect = c ** j / QC(math.factorial(j))
            assert kappa.scalar_coeff(j).c[0] == expect
            assert all(not x for x in kappa.scalar_coeff(j).c[1:])

    def test_inverse_law(self):
        r = rng()
        gamma = [[rand_poly(r, 3) for _ in range(2)] for _ in range(2)]
        kappa = flat_extension(ConnectionJet(2, gamma), 6)
        prod = kappa * kappa.swap()
        ident = JetKernel(2, 0, 0, [ [[Series.const(1 if i == j else 0, N)
                                        for j in range(2)] for i in range(2)] ]
                          + [_mat_zero(2, N) for _ in range(5)])
        assert prod == ident

    def test_extract_connection_round_trip(self):
        r = rng()
        gamma = [[rand_poly(r, 3) for _ in range(2)] for _ in range(2)]
        kappa = flat_extension(ConnectionJet(2, gamma), 4)
        out = connection_from_kernel(kappa)
        for i in range(2):
            for j in range(2):
                assert out.gamma[i][j] == gamma[i][j]

    def test_specific_rank2_round_trip(self):
        gamma = [[Series.zero(N), poly([0, 1])], [poly([1]), Series.zero(N)]]
        kappa = flat_extension(ConnectionJet(2, gamma), 5)
        out = connection_from_kernel(kappa)
        assert out.gamma[0][1] == poly([0, 1]) and out.gamma[1][0] == poly([1])

    def test_sl_oper_kernel_has_trivial_connection(self):
        q = poly([1, 2, 3])
        gam = gamma_from_projective(q, 3, 4)
        conn = connection_from_kernel(gam)
        assert conn.gamma[0][0].is_zero()


class TestCompanion:
    def test_display_shape(self):
        q = poly([0, 1])
        L = DiffOperator(order=2, rank=1, q=[[[Series.zero(N)]], [[q]]])
        conn = companion_connection(L)
        assert conn.gamma[0][0].is_zero() and conn.gamma[0][1] == q
        assert conn.gamma[1][0] == Series.const(1, N)
        assert conn.gamma[1][1].is_zero()

    def test_order_one(self):
        q = poly([2, 1])
        L = DiffOperator(order=1, rank=1, q=[[[q]]])
        conn = companion_connection(L)
        assert conn.rank == 1 and conn.gamma[0][0] == q

    def test_solution_correspondence(self):
        r = rng()
        n = 3
        qs = [rand_poly(r, 2, 12) for _ in range(n)]
        L = DiffOperator(order=n, rank=1, q=[[[q]] for q in qs])
        f = L.solve([1, -2, QC(0, 1)], 12)
        conn = companion_connection(L)
        v = conn.solve([QC(0, 1), -2, 1], 10)  # (f'', f', f)
        assert v[n - 1] == f.truncate(10)
        fp = f.derivative()
        assert v[n - 2] == fp.truncate(10)
        # and L f = 0 as a series
        assert L.apply(f).truncate(12 - n).is_zero()


class TestProjective:
    def test_flat_structure_gives_mu(self):
        q = Series.zero(N)
        for nu in range(1, 5):
            assert gamma_from_projective(q, nu, 5) == mu_nu(nu, 5, N)

    def test_moebius_invariance(self):
        from thetakernels.jets import (_gamma_from_chart,
                                       sturm_liouville_solutions)
        q = poly([1, -2, 0, 1])
        f1, f2 = sturm_liouville_solutions(q, N)
        w = f2 / f1
        # another independent pair: (2 f2 + f1) / (f2 + f1)
        wt = (f2 * QC(2) + f1) / (f2 + f1)
        for nu in (1, 2, 3):
            assert _gamma_from_chart(w, nu, 5) == _gamma_from_chart(wt, nu, 5)

    def test_gamma_recovers_projective_data(self):
        q = poly([2, 1, QC(0, 1)])
        for n in range(1, 5):
            gam = gamma_from_projective(q, n + 1, 4)
            got = rescale_shift(gam.restrict(3), n + 1)
            lim = min(got.n, 8)
            assert got.truncate(lim) == q.truncate(lim)

    def test_rescaling_torsor_identity(self):
        # (rho + q)^(x k) restricted to third order = rho^(x k) + k q
        q = poly([1, 0, 2])
        rho = projective_jet(q, 1, nu=1, m=3)
        for k in (2, 3, 5):
            powered = tensor_power(rho, k).restrict(3)
            assert rescale_shift(powered, k) == q.truncate(8)

    def test_rescale_identity_and_composition(self):
        q = poly([3, 1])
        jet = projective_jet(q, 1, nu=1, m=3)
        assert rescale_shift(jet, 1) == q
        jet7 = projective_jet(q, 7, nu=7, m=3)
        assert rescale_shift(jet7, 7) == q

    def test_rescale_requires_monic(self):
        bad = mu_nu(2, 3, N).copy()
        bad.coeffs[1][0][0] = Series.const(1, N)
        with pytest.raises(NotMonicOn2Delta):
            rescale_shift(bad, 1)


class TestBuildOper:
    def test_trivial_inputs_give_mu(self):
        q = Series.zero(N)
        assert build_oper(q, {}, 3, 5) == mu_nu(4, 5, N)

    def test_restrictions(self):
        q = poly([1, 1])
        s = build_oper(q, {3: poly([0, 2])}, 3, 5)
        assert s.restrict(2) == mu_nu(4, 2, N)
        assert s.restrict(3) == gamma_from_projective(q, 4, 3)

    def test_additivity(self):
        q = poly([1, -1])
        v1 = {3: poly([2, 1])}
        v2 = {3: poly([0, 0, 1]), 4: poly([1])}
        both = {3: v1[3] + v2[3], 4: v2[4]}
        a = build_oper(q, v1, 4, 6)
        b = build_oper(q, both, 4, 6)
        diff = build_oper(q, v2, 4, 6) - build_oper(q, {}, 4, 6)
        assert a + diff == b

    def test_slot_recovery(self):
        q = poly([1, 2])
        n = 4
        for i in (3, 4):
            vi = poly([1, -3, 2])
            s = build_oper(q, {i: vi}, n, 6)
            base = build_oper(q, {}, n, 6)
            dev = (s - base).scalar_coeff(i)
            lim = min(dev.n, 8)
            assert dev.truncate(lim) == vi.truncate(lim)

    @pytest.mark.parametrize("n, m, i", [(4, 3, 3), (4, 4, 4), (5, 4, 5)])
    def test_slot_past_the_jet_is_dropped(self, n, m, i):
        q = poly([1, 2 + 1j, -3])
        assert_identical(build_oper(q, {i: poly([2, -1j, 1])}, n, m),
                         build_oper(q, {}, n, m))

    @pytest.mark.parametrize("n, m, i", [(3, 4, 3), (4, 5, 4), (5, 6, 5),
                                         (4, 6, 3), (5, 6, 4)])
    def test_restricted_power_matches_the_full_power(self, n, m, i):
        # slot degree i keeps m - i slots of dw^i (one for i = m - 1):
        # compare with the power taken over all m slots
        q, vi = poly([1, 2 + 1j, -3]), poly([2, -1j, 1])
        w = projective_chart(q, q.n)
        wp = w.derivative()
        term = tensor_power(_chart_difference(w, m), i).scale(vi / (wp ** i))
        mult = mu_nu(0, m, w.n) + JetKernel(
            1, 0, 0, ([_mat_zero(1, w.n)] * i + term.coeffs)[:m])
        assert_identical(build_oper(q, {i: vi}, n, m),
                         _gamma_from_chart(w, n + 1, m) * mult)

    def test_degree_two_slot_rejected(self):
        with pytest.raises(ValueError):
            build_oper(poly([1]), {2: poly([1])}, 3, 4)


class TestMatrixOper:
    def _conn(self, r):
        gen = rng()
        return ConnectionJet(2, [[rand_poly(gen, 2) for _ in range(2)]
                                 for _ in range(2)])

    def test_rank_one_factorization(self):
        gen = rng()
        gamma = [[rand_poly(gen, 2)]]
        conn = ConnectionJet(1, gamma)
        oper = build_oper(poly([1, 1]), {}, 2, 4)
        s = matrix_oper(conn, oper, {})
        assert s == flat_extension(conn, 4) * oper
        assert connection_from_kernel(s).gamma[0][0] == gamma[0][0]

    def test_zero_connection_zero_slots(self):
        conn = ConnectionJet(2, _mat_zero(2, N))
        oper = build_oper(poly([2]), {}, 2, 4)
        s = matrix_oper(conn, oper, {})
        for j in range(s.order):
            mat = s.coeff(j)
            assert mat[0][1].is_zero() and mat[1][0].is_zero()
            assert mat[0][0] == oper.scalar_coeff(j)

    def test_block_diagonal(self):
        g1 = [[poly([0, 1])]]
        g2 = [[poly([1])]]
        block = ConnectionJet(2, [[g1[0][0], Series.zero(N)],
                                  [Series.zero(N), g2[0][0]]])
        oper = build_oper(poly([1]), {}, 2, 4)
        s = matrix_oper(block, oper, {})
        s1 = matrix_oper(ConnectionJet(1, g1), oper, {})
        s2 = matrix_oper(ConnectionJet(1, g2), oper, {})
        for j in range(4):
            mat = s.coeff(j)
            assert mat[0][1].is_zero() and mat[1][0].is_zero()
            assert mat[0][0] == s1.scalar_coeff(j)
            assert mat[1][1] == s2.scalar_coeff(j)

    def test_connection_recovered_and_trace_projects(self):
        conn = self._conn(2)
        oper = build_oper(poly([1, 0, 2]), {3: poly([1, 1])}, 3, 5)
        eta = {2: [[poly([1]), poly([0, 1])], [poly([2]), poly([-1])]]}
        s = matrix_oper(conn, oper, eta)
        out = connection_from_kernel(s)
        for i in range(2):
            for j in range(2):
                assert out.gamma[i][j] == conn.gamma[i][j]
        assert trace_map_equals(s_no_eta(conn, oper), oper)

    def test_trace_rejects_nonzero_trace(self):
        conn = self._conn(2)
        oper = build_oper(poly([1]), {}, 2, 4)
        eta = {2: [[poly([1]), poly([0])], [poly([0]), poly([1])]]}
        with pytest.raises(TraceNotZero):
            matrix_oper(conn, oper, eta)


def s_no_eta(conn, oper):
    return matrix_oper(conn, oper, {})


def trace_map_equals(s, oper):
    from thetakernels.jets import trace_map
    return trace_map(s, "trace") == oper


class TestTraceAndDeterminant:
    def test_trace_map_projects_to_oper(self):
        gen = rng()
        conn = ConnectionJet(2, [[rand_poly(gen, 2) for _ in range(2)]
                                 for _ in range(2)])
        oper = build_oper(poly([1, 2]), {3: poly([0, 1])}, 3, 5)
        from thetakernels.jets import trace_map
        assert trace_map(matrix_oper(conn, oper, {}), "trace") == oper

    def test_trace_map_rank_one(self):
        from thetakernels.jets import trace_map
        # identity on SL-oper kernels (trivial connection) ...
        oper = build_oper(poly([1, 1]), {}, 2, 4)
        assert trace_map(oper, "trace") == oper
        # ... and the GL -> SL factorization otherwise
        conn = ConnectionJet(1, [[poly([2, 1])]])
        s = matrix_oper(conn, oper, {})
        assert trace_map(s, "trace") == oper

    def test_trace_map_block_diagonal_same_oper(self):
        oper = build_oper(poly([0, 3]), {}, 2, 4)
        g = poly([1, 1])
        block = ConnectionJet(2, [[g, Series.zero(N)], [Series.zero(N), g]])
        from thetakernels.jets import trace_map
        assert trace_map(matrix_oper(block, oper, {}), "trace") == oper

    def test_trace_map_det_selector(self):
        from thetakernels.jets import trace_map
        # rank 1: det of a 1x1 End factor is the identity selector
        oper = build_oper(poly([1, 2]), {}, 2, 4)
        assert trace_map(oper, "det") == trace_map(oper, "trace")
        # block diagonal of two copies of o with the zero connection:
        # the End-factor determinant is the square of the scalar part
        conn = ConnectionJet(2, _mat_zero(2, N))
        s = matrix_oper(conn, oper, {})
        got = trace_map(s, "det")
        square = oper * oper
        for j in range(got.order):
            assert got.scalar_coeff(j) == square.scalar_coeff(j)

    def test_det_of_block_diagonal_is_product(self):
        gen = rng()
        a = JetKernel(1, 1, 1, [[[poly([1])]], [[rand_poly(gen, 2)]],
                                [[rand_poly(gen, 2)]]])
        b = JetKernel(1, 1, 1, [[[poly([1])]], [[rand_poly(gen, 2)]],
                                [[rand_poly(gen, 2)]]])
        block = JetKernel(2, 1, 1,
                          [[[a.scalar_coeff(j), Series.zero(N)],
                            [Series.zero(N), b.scalar_coeff(j)]]
                           for j in range(3)])
        assert det_kernel(block) == a * b

    def test_det_of_identity_mu1(self):
        r = 3
        block = JetKernel(r, 1, 1,
                          [[[Series.const(1 if i == j else 0, N)
                             for j in range(r)] for i in range(r)],
                           _mat_zero(r, N), _mat_zero(r, N)])
        assert det_kernel(block) == mu_nu(r, 3, N)

    def test_det_of_connection_is_trace_connection(self):
        gen = rng()
        gamma = [[rand_poly(gen, 2) for _ in range(2)] for _ in range(2)]
        kappa = flat_extension(ConnectionJet(2, gamma), 4)
        det = det_kernel(kappa)
        conn_det = connection_from_kernel(det)
        assert conn_det.gamma[0][0] == gamma[0][0] + gamma[1][1]

    def test_determinant_frame_diagram_commutes(self):
        gen = rng()
        gamma = [[rand_poly(gen, 2) for _ in range(2)] for _ in range(2)]
        conn = ConnectionJet(2, gamma)
        oper = build_oper(poly([1, 1]), {}, 2, 4)
        s = matrix_oper(conn, oper, {2: [[poly([1]), poly([0, 1])],
                                         [poly([1, 1]), poly([-1])]]})
        kappa = flat_extension(conn, 4)
        lhs = det_kernel(s * kappa.swap())
        tr_conn = ConnectionJet(1, [[gamma[0][0] + gamma[1][1]]])
        rhs = det_kernel(s) * flat_extension(tr_conn, 4).swap()
        assert lhs == rhs


class TestQuadraticMap:
    def test_projection_anchor(self):
        gen = rng()
        for _ in range(10):
            q = rand_poly(gen, 2)
            gamma = [[rand_poly(gen, 1) for _ in range(2)] for _ in range(2)]
            rho = projective_jet(q, 2, nu=2, m=3)
            s = flat_extension(ConnectionJet(2, gamma), 3) * rho
            got = quadratic_S(s, 1)
            lim = min(got.n, 10)
            assert got.truncate(lim) == q.truncate(lim)

    def test_lambda_zero_nilpotent_vanishes(self):
        # eta = v w^T traceless with eta^2 = 0
        eta = [[poly([1]), poly([0, -1])],
               [None, None]]
        # build rank-1 nilpotent: [[a, b], [c, -a]] with a^2 + bc = 0
        a, b = poly([0, 1]), poly([0, 0, 1])
        c = (a * a) / b if False else None
        # use a = t, b = -t^2, c = 1 -> a^2 + b c = t^2 - t^2 = 0
        a, b, c = poly([0, 1]), poly([0, 0, -1]), poly([1])
        mat = [[a, b], [c, -a]]
        s = JetKernel(2, 2, 2, [_mat_zero(2, N), mat, _mat_zero(2, N)])
        out = quadratic_S(s, 0)
        assert out.is_zero()

    def test_lambda_zero_diagonal_higgs(self):
        a = poly([2, 1])
        mat = [[a, Series.zero(N)], [Series.zero(N), -a]]
        s = JetKernel(2, 2, 2, [_mat_zero(2, N), mat, _mat_zero(2, N)])
        out = quadratic_S(s, 0)
        expect = a * a * QC(2)
        lim = min(out.n, 10)
        assert out.truncate(lim) == expect.truncate(lim)

    def test_lambda_zero_output_vanishes_on_2delta(self):
        # the lambda = 0 image is purely a quadratic differential: the
        # full kernel jet of S vanishes to second order at the diagonal
        from thetakernels.jets import quadratic_S_jet
        a = poly([1, 2])
        mat = [[a, poly([0, 1])], [poly([3]), a * QC(-1)]]
        s = JetKernel(2, 2, 2, [_mat_zero(2, N), mat, _mat_zero(2, N)])
        big = quadratic_S_jet(s)
        d = big.diag_index
        assert big.scalar_coeff(d).is_zero()
        assert big.scalar_coeff(d + 1).is_zero()
        assert not big.scalar_coeff(d + 2).is_zero()

    def test_diagonal_mismatch_rejected(self):
        s = mu_nu(2, 3, N)
        with pytest.raises(DiagonalValueMismatch):
            quadratic_S(s, 2)


# ----------------------------------------------------------------------
# Exactness at workload size: the outputs are compared string for string
# with tests/data/jets_order20.json, which ``order20_record`` wrote with
# term-by-term Fraction arithmetic in every Series operation.
# ----------------------------------------------------------------------

ORDER20_RECORD = Path(__file__).parent / "data" / "jets_order20.json"


def _serialize_series(s):
    return [[str(c.re), str(c.im)] for c in s.c]


def _serialize_jet(s):
    return {"rank": s.rank, "weight": s.weight, "pole": s.pole,
            "coeffs": [[[_serialize_series(entry) for entry in row]
                        for row in mat] for mat in s.coeffs]}


def order20_record():
    """build_oper, matrix_oper -> trace_map and a chart round trip at order 20."""
    n = 20
    oper = build_oper(poly([1, 2 + 1j, -3], n), {3: poly([2, -1j, 1], n)}, 3, 5)
    conn = ConnectionJet(2, [[poly([1, 1j], n), poly([0, 2], n)],
                             [poly([-1, 1], n), poly([3j, -2], n)]])
    tr = trace_map(matrix_oper(conn, oper, {}), "trace")
    w = Series.zero(n)
    w.c[1], w.c[2], w.c[3] = QC(2), QC(1, -1), QC(-2, 3)
    s3 = JetKernel(1, 3, 3, [[[poly(c, n)]] for c in
                             ([1], [2, 1j, -1], [0, 3, 1 + 1j], [-1, 0, 2j])])
    there = change_coordinate(s3, w)
    winv = w.reversion()
    again = change_coordinate(there, winv)
    return {"oper": _serialize_jet(oper), "trace": _serialize_jet(tr),
            "there": _serialize_jet(there), "reversion": _serialize_series(winv),
            "again": _serialize_jet(again)}


ORDER20_OPS_RECORD = Path(__file__).parent / "data" / "jets_ops_order20.json"


def _serialize_matrices(mats):
    return [[[_serialize_series(entry) for entry in row] for row in mat]
            for mat in mats]


def ops_order20_record():
    """Solvers, the operator dictionary, rank-2 flat kernels, det, companion
    form, projective jets and the quadratic map at order 20.

    tests/data/jets_ops_order20.json was written by this function while
    jets still carried its float coefficient path, so the record pins
    the exact-only rewrite to the same values.
    """
    n = 20
    q = poly([1, 2 + 1j, -3], n)
    L3 = DiffOperator(3, 1, [[[poly([0, 1], n)]], [[q]], [[poly([2j, 0, 1], n)]]])
    conn = ConnectionJet(2, [[poly([1, 1j], n), poly([0, 2], n)],
                             [poly([-1, 1], n), poly([3j, -2], n)]])
    kappa = flat_extension(conn, 5)
    oper = build_oper(q, {3: poly([2, -1j, 1], n)}, 3, 5)
    L = kernel_to_operator(oper)
    companion = companion_connection(L)
    rho = projective_jet(q, 2, nu=2, m=3)
    s1 = flat_extension(conn, 3) * rho
    mat = [[poly([2, 1], n), poly([0, 1j], n)], [poly([3, -1], n), poly([-2, -1], n)]]
    s0 = JetKernel(2, 2, 2, [_mat_zero(2, n), mat, _mat_zero(2, n)])
    return {
        "solve": _serialize_series(L3.solve([1, QC(Fraction(1, 2), -1), 2j], n)),
        "flat_sections": [_serialize_series(v) for v in conn.solve([1, 1j], n)],
        "kappa": _serialize_jet(kappa),
        "swap": _serialize_jet(kappa.swap()),
        "trace": _serialize_jet(kappa.trace()),
        "det": _serialize_jet(det_kernel(kappa)),
        "operator": _serialize_matrices(L.q),
        "kernel": _serialize_jet(operator_to_kernel(L, 6)),
        "companion": _serialize_matrices([companion.gamma]),
        "companion_flat": _serialize_jet(flat_extension(companion, 4)),
        "projective_jet": _serialize_jet(projective_jet(q, 3, m=4)),
        "rescale_shift": _serialize_series(rescale_shift(oper, 4)),
        "S_lambda1": _serialize_series(quadratic_S(s1, 1)),
        "S_lambda2": _serialize_series(quadratic_S(s1.scale(2), 2)),
        "S_jet_lambda1": _serialize_jet(quadratic_S_jet(s1)),
        "S_lambda0": _serialize_series(quadratic_S(s0, 0)),
        "S_jet_lambda0": _serialize_jet(quadratic_S_jet(s0)),
    }


class TestExactRecord:
    def test_order20_pipeline_matches_record(self):
        assert order20_record() == json.loads(ORDER20_RECORD.read_text())

    def test_order20_operations_match_record(self):
        assert ops_order20_record() == json.loads(ORDER20_OPS_RECORD.read_text())
