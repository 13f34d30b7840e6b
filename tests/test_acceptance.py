"""Acceptance criteria, one test per criterion, at the stated tolerances.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one PASS line
per criterion with its measured residuals and runtime.
"""

import time

import numpy as np
from thetakernels.curves import build_curve
from thetakernels.kernels import (bergman_a_period, bergman_kernel,
                                  finiteness_probe, find_theta_zero,
                                  gauss_limit_check, is_on_theta,
                                  klein_coordinates, klein_kernel,
                                  szego_kernel)
from thetakernels.theta import (Characteristic, RiemannMatrix,
                                second_order_theta_basis, theta_value)


def report(n, label, detail, elapsed=None):
    timing = f" [{elapsed:.2f}s]" if elapsed is not None else ""
    print(f"\nACCEPTANCE {n}: PASS - {label}: {detail}{timing}")


def random_riemann(rng, g):
    a = rng.standard_normal((g, g))
    y = 0.25 * (a @ a.T) + np.eye(g)
    x = 0.5 * (a + a.T) * 0.2
    return RiemannMatrix(x + 1j * y)


def brute_theta_g1(z, om, box=10):
    return sum(np.exp(1j * np.pi * n * n * om + 2j * np.pi * n * z)
               for n in range(-box, box + 1))


class TestAcceptance:
    def test_1_theta_engine(self):
        t0 = time.perf_counter()
        om = RiemannMatrix([[1j]])
        val = theta_value([0.0], om).value
        oracle = brute_theta_g1(0.0, 1j)
        err_val = abs(val - oracle)
        assert err_val < 1e-12
        rng = np.random.default_rng(0)
        worst_q = worst_p = 0.0
        count = 0
        while count < 50:
            g = 1 + count % 3
            omg = random_riemann(rng, g)
            z = rng.standard_normal(g) + 1j * rng.uniform(-0.3, 0.3, g)
            m = np.ones(g)
            lhs = theta_value(z + omg.entries @ m + m, omg)
            fac = np.exp(-1j * np.pi * m @ omg.entries @ m
                         - 2j * np.pi * m @ z)
            rhs = theta_value(z, omg)
            worst_q = max(worst_q, abs(lhs.ratio(rhs) - fac) / abs(fac))
            char = Characteristic(tuple(rng.integers(0, 2, g)),
                                  tuple(rng.integers(0, 2, g)))
            plus = theta_value(z, omg, char=char)
            minus = theta_value(-z, omg, char=char)
            sign = -1.0 if char.parity else 1.0
            worst_p = max(worst_p, abs(minus.ratio(plus) - sign))
            count += 1
        elapsed = time.perf_counter() - t0
        assert worst_q <= 1e-10 and worst_p <= 1e-10
        assert elapsed < 5.0
        report(1, "theta engine",
               f"value err {err_val:.1e}, quasi-periodicity {worst_q:.1e}, "
               f"parity {worst_p:.1e}", elapsed)

    def test_2_periods(self):
        t0 = time.perf_counter()
        c1 = build_curve([0, -1, 0, 1])
        tau1 = c1.omega.entries[0, 0]
        assert abs(tau1 - 1j) < 1e-9
        c2 = build_curve([-1, 0, 0, 1])
        tau2 = c2.omega.entries[0, 0]
        assert abs(abs(tau2) - 1.0) < 1e-9
        assert abs(tau2.real - 0.5) < 1e-9
        c3 = build_curve([0, -1, 0, 0, 0, 1])
        om = c3.omega.entries
        sym = max(c3.symmetry_residual, float(np.max(np.abs(om - om.T))))
        min_eig = float(np.min(np.linalg.eigvalsh(om.imag)))
        assert sym < 1e-9 and min_eig > 0
        elapsed = time.perf_counter() - t0
        assert elapsed < 10.0
        report(2, "periods",
               f"|tau1 - i| = {abs(tau1-1j):.1e}, "
               f"|tau2| - 1 = {abs(abs(tau2)-1):.1e}, "
               f"genus-2 symmetry {sym:.1e}, min eig {min_eig:.3f}", elapsed)

    def test_3_fay_corollary(self, lemniscatic, genus2):
        t0 = time.perf_counter()
        worst = 0.0
        for c in (lemniscatic, genus2):
            rng = np.random.default_rng(17)
            g = c.genus
            count = 0
            while count < 20:
                a = rng.uniform(-0.4, 0.4, g)
                b = rng.uniform(-0.4, 0.4, g)
                e = a + c.omega.entries @ b
                if is_on_theta(e, c.omega):
                    continue
                x = c.point(rng.uniform(1.6, 2.6)
                            + 1j * rng.uniform(-0.6, 0.6), rng.choice([-1, 1]))
                y = c.point(rng.uniform(-2.6, -1.6)
                            + 1j * rng.uniform(-0.6, 0.6), rng.choice([-1, 1]))
                kl = klein_kernel(c, [e, -e], x, y).value
                wb = bergman_kernel(c, x, y).value
                cc = klein_coordinates(c, e).matrix
                rhs = wb + complex(c.eval_differentials(x) @ cc
                                   @ c.eval_differentials(y))
                worst = max(worst, abs(kl - rhs) / abs(kl))
                count += 1
        elapsed = time.perf_counter() - t0
        assert worst <= 1e-8
        assert elapsed < 60.0
        report(3, "Fay corollary identity (g=1 and g=2, 20 samples each)",
               f"max relative residual {worst:.1e}", elapsed)

    def test_4_kernel_normalizations(self, lemniscatic, genus2):
        t0 = time.perf_counter()
        details = []
        for c in (lemniscatic, genus2):
            p = c.point(2.0, 1)
            e = np.full(c.genus, 0.3) + 1j * np.linspace(0.1, 0.2, c.genus)
            sz, bg = [], []
            for sep in (2e-3, 1e-3):
                q = c.point(2.0 + sep, 1)
                sz.append(szego_kernel(c, e, p, q).value
                          * (p.x - q.x))
                bg.append(bergman_kernel(c, p, q).value
                          * (p.x - q.x) ** 2)
            err_s = abs(2 * sz[1] - sz[0] - 1.0)
            err_b = abs((4 * bg[1] - bg[0]) / 3 - 1.0)
            assert err_s < 1e-6 and err_b < 1e-6
            details.append(f"g={c.genus}: szego {err_s:.1e} bergman {err_b:.1e}")
        # rank-3 Klein kernel on the genus-1 curve
        c = lemniscatic
        e1, e2 = np.array([0.23 + 0.05j]), np.array([-0.31 + 0.12j])
        e3 = -(e1 + e2)
        p = c.point(2.0, 1)
        kv = []
        for sep in (2e-3, 1e-3):
            q = c.point(2.0 + sep, 1)
            kv.append(klein_kernel(c, [e1, e2, e3], p, q).value
                      * (p.x - q.x) ** 3)
        err_k = abs(2 * kv[1] - kv[0] - 1.0)
        assert err_k < 1e-6
        worst_ap = 0.0
        for c in (lemniscatic, genus2):
            x = c.point(2.3 + 0.4j, 1)
            for k in range(c.genus):
                worst_ap = max(worst_ap, abs(bergman_a_period(c, x, k, 256)))
        assert worst_ap <= 1e-7
        elapsed = time.perf_counter() - t0
        report(4, "kernel normalizations",
               "; ".join(details) + f"; rank-3 klein {err_k:.1e}; "
               f"bergman A-periods {worst_ap:.1e}", elapsed)

    def test_5_gauss_map_squared(self, lemniscatic, genus2):
        t0 = time.perf_counter()
        tau = lemniscatic.omega.entries[0, 0]
        rep1 = gauss_limit_check(lemniscatic.omega, np.array([(1 + tau) / 2]),
                                 np.array([0.37 + 0.05j]))
        assert rep1.max_relative_deviation < 1e-5
        e0 = find_theta_zero(genus2.omega,
                             np.array([0.2 + 0.1j, -0.3 + 0.2j]),
                             np.array([1.0, 0.7 + 0.2j]))
        rep2 = gauss_limit_check(genus2.omega, e0,
                                 np.array([0.5, 0.3 - 0.1j]))
        assert rep2.max_relative_deviation < 1e-5
        assert rep2.singular_value_ratio <= 1e-4
        elapsed = time.perf_counter() - t0
        report(5, "squared Gauss map limit",
               f"g=1 dev {rep1.max_relative_deviation:.1e}, "
               f"g=2 dev {rep2.max_relative_deviation:.1e}, "
               f"sv ratio {rep2.singular_value_ratio:.1e}", elapsed)

    def test_6_finiteness_probe(self, lemniscatic, genus2):
        t0 = time.perf_counter()
        rep1 = finiteness_probe(lemniscatic, 200, collision_tol=1e-6, seed=0)
        assert rep1.n_nontrivial == 0
        # Weierstrass-function oracle: c(e) = -wp(e - (1+tau)/2) + const,
        # a degree-2 map whose fibers are exactly {e, -e}
        tau = lemniscatic.omega.entries[0, 0]

        def wp(z, nterms=20):
            u = np.exp(2j * np.pi * z)
            q = np.exp(2j * np.pi * tau)
            tot = 1 / 12 + u / (1 - u) ** 2
            for k in range(1, nterms + 1):
                qk = q ** k
                tot += qk * u / (1 - qk * u) ** 2
                tot += qk / u / (1 - qk / u) ** 2
                tot -= 2 * qk / (1 - qk) ** 2
            return (2j * np.pi) ** 2 * tot

        consts = []
        for p in rep1.points[:5]:
            cm = klein_coordinates(lemniscatic, p).matrix[0, 0]
            consts.append(cm + wp(p[0] - (1 + tau) / 2))
        consts = np.array(consts)
        oracle_dev = float(np.max(np.abs(consts - consts.mean())))
        assert oracle_dev < 1e-7
        rep2 = finiteness_probe(genus2, 200, collision_tol=1e-6, seed=0)
        assert rep2.n_nontrivial == 0
        rep2b = finiteness_probe(genus2, 200, collision_tol=1e-6, seed=0)
        assert rep2.to_dict() == rep2b.to_dict()
        elapsed = time.perf_counter() - t0
        assert elapsed < 120.0
        report(6, "finiteness probe (200 samples, g=1 and g=2)",
               f"nontrivial collisions 0, oracle deviation {oracle_dev:.1e}, "
               f"deterministic", elapsed)

    def test_7_jet_calculus(self):
        t0 = time.perf_counter()
        from thetakernels.cli import _suite_jets, make_parser
        checks = _suite_jets(make_parser().parse_args(["verify", "jets"]))
        assert all(c["pass"] for c in checks)
        assert all(c["residual"] == 0.0 for c in checks)
        elapsed = time.perf_counter() - t0
        assert elapsed < 30.0
        report(7, "jet calculus exact battery",
               f"{len(checks)} identities, all residuals exactly 0", elapsed)

    def test_8_riemann_quadratic_identity(self):
        t0 = time.perf_counter()
        rng = np.random.default_rng(31)
        worst = 0.0
        for g in (1, 2):
            om = random_riemann(rng, g)
            ratios = []
            for _ in range(10):
                z = rng.standard_normal(g) + 1j * rng.uniform(-0.3, 0.3, g)
                w = rng.standard_normal(g) + 1j * rng.uniform(-0.3, 0.3, g)
                lhs = theta_value(z + w, om).value * theta_value(z - w, om).value
                tz = second_order_theta_basis(z, om)
                tw = second_order_theta_basis(w, om)
                rhs = sum(a.value * b.value for a, b in zip(tz, tw))
                ratios.append(lhs / rhs)
            ratios = np.array(ratios)
            worst = max(worst, float(np.max(np.abs(ratios - ratios.mean()))
                                     / abs(ratios.mean())))
        elapsed = time.perf_counter() - t0
        assert worst <= 1e-8
        report(8, "Riemann quadratic identity",
               f"max relative deviation from constancy {worst:.1e}", elapsed)
