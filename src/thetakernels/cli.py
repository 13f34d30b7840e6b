"""Command-line interface: curve ingestion, evaluation, verification, probes.

All reports are JSON on stdout (diagnostics on stderr); complex numbers
serialize as [re, im] pairs and matrices as row-major nested arrays.
Exit codes: 0 success, 1 failed verification check, 2 argument/curve
errors, 3 quadrature non-convergence, 4 evaluation on the theta divisor.

Options live in :func:`make_parser` alone: each command, each ``verify``
suite and each ``eval`` evaluator declares the flags it reads, with
their defaults, and the commands read the parsed namespace.  Complex
values are JSON (numbers or [re, im] pairs, read by
``curves._parse_complex``) or plain text such as ``0.3+0.1j,-0.2``.

Report schemas (stable):

* ``periods``: {genus, branch_points, A, B, Omega, symmetry_residual,
  min_im_eigenvalue}.
* ``verify``: {suite, checks: [{name, residual, tolerance, pass}], pass}.
* ``probe`` (json): {genus, n_samples, seed, collision_tol, floor,
  n_rejected, points, coordinates, collisions: [{i, j,
  relative_distance, trivial, kind}], n_nontrivial}; (csv): one row per
  sample with columns e_re_*/e_im_* then the upper-triangle Klein
  coordinates c_re_ij/c_im_ij.
* ``eval``: {what, value, ...} with chart metadata for kernel values;
  ``eval theta`` also reports {mantissa, exponent} with value =
  mantissa * exp(exponent), and value is null when it overflows a double.
"""

from __future__ import annotations

import argparse
import cmath
import json
import math
import sys

import numpy as np

from . import kernels
from .curves import (DEFAULT_QUADRATURE_TOL, _parse_complex, build_curve,
                     curve_from_spec)
from .errors import (PointOnTheta, QuadratureNonConvergent,
                     ThetaKernelsError)
from .kernels import (bergman_a_period, bergman_kernel, finiteness_probe,
                      find_theta_zero, gauss_limit_check, klein_coordinates,
                      klein_kernel, prime_form, szego_kernel,
                      wirtinger_connection)
from .theta import (DEFAULT_TOL, Characteristic, RiemannMatrix,
                    second_order_theta_basis, theta_value)


def cplx(z) -> list:
    z = complex(z)
    return [z.real, z.imag]


def plain_value(scaled):
    """cplx of a ScaledComplex's plain value, or None if it is not a finite double."""
    try:
        z = scaled.value
    except OverflowError:
        return None
    return cplx(z) if cmath.isfinite(z) else None


def cmat(m) -> list:
    return [[cplx(v) for v in row] for row in np.asarray(m)]


def read_json(text: str, what: str):
    """json.loads(text); ValueError naming ``what`` also when the JSON
    nests deeper than the parser's recursion limit."""
    try:
        return json.loads(text)
    except RecursionError:
        raise ValueError(f"{what} nests too deeply to read") from None


def parse_complex(text: str, vector: bool = False):
    """A complex number, or with ``vector`` a complex array, from JSON
    (a number or [re, im] pair each) or from plain text (comma-separated
    for a vector; spaces are ignored).  Raises ValueError otherwise."""
    text = text.strip()
    if text.startswith("["):
        data = read_json(text, "complex value")
        items = data if vector else [data]
    else:
        text = text.replace(" ", "")
        items = text.split(",") if vector else [text]
    values = [_parse_complex(item) for item in items]
    return np.asarray(values, dtype=complex) if vector else values[0]


def emit(report, args):
    """Write a report to --out if given and to stdout.  A dict is written
    as JSON to both; text (the probe CSV) goes to stdout only without --out."""
    is_json = isinstance(report, dict)
    text = (json.dumps(report, sort_keys=True, indent=1) + "\n" if is_json
            else report)
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text)
    if is_json or not args.out:
        sys.stdout.write(text)


def load_curve(args):
    if args.curve is None:
        raise ValueError("this command requires --curve")
    with open(args.curve) as fh:
        spec = read_json(fh.read(), f"curve file {args.curve}")
    return curve_from_spec(spec, quadrature_tol=args.quadrature_tol)


# ----------------------------------------------------------------------
# Commands
# ----------------------------------------------------------------------

def cmd_periods(args) -> int:
    curve = load_curve(args)
    om = curve.omega.entries
    report = {
        "genus": curve.genus,
        "branch_points": [cplx(b) for b in curve.branch_points],
        "A": cmat(curve.A),
        "B": cmat(curve.B),
        "Omega": cmat(om),
        "symmetry_residual": curve.symmetry_residual,
        "min_im_eigenvalue": float(np.min(np.linalg.eigvalsh(om.imag))),
    }
    emit(report, args)
    return 0


def cmd_probe(args) -> int:
    curve = load_curve(args)
    rep = finiteness_probe(curve, args.samples,
                           collision_tol=args.collision_tol,
                           seed=args.seed, tol=args.theta_tol)
    if args.format == "csv" or (args.out and args.out.endswith(".csv")):
        lines = [_probe_csv_header(curve.genus)]
        for p, c in zip(rep.points, rep.coordinates):
            cells = []
            for z in p:
                cells += [repr(z.real), repr(z.imag)]
            for z in c:
                cells += [repr(z.real), repr(z.imag)]
            lines.append(",".join(cells))
        emit("\n".join(lines) + "\n", args)
    else:
        emit(rep.to_dict(), args)
    return 0


def _probe_csv_header(g: int) -> str:
    cols = []
    for i in range(g):
        cols += [f"e_re_{i}", f"e_im_{i}"]
    for i in range(g):
        for j in range(i, g):
            cols += [f"c_re_{i}{j}", f"c_im_{i}{j}"]
    return ",".join(cols)


def _require(args, *names):
    """ValueError naming the flags among ``names`` that were not given."""
    missing = [f"--{name}" for name in names if getattr(args, name) is None]
    if missing:
        raise ValueError(f"eval {args.what} needs {' and '.join(missing)}")


def cmd_eval_theta(args) -> int:
    _require(args, "z")
    if args.omega and args.curve:
        raise ValueError("eval theta takes --omega or --curve, not both")
    if args.omega:
        om = RiemannMatrix(parse_omega(args.omega))
    else:
        om = load_curve(args).omega
    z = parse_complex(args.z, vector=True)
    val = theta_value(z, om, tol=args.theta_tol)
    emit({"what": "theta", "z": [cplx(v) for v in z],
          "value": plain_value(val),
          "mantissa": cplx(val.mantissa), "exponent": val.exponent}, args)
    return 0


def cmd_eval_wirtinger(args) -> int:
    _require(args, "e", "x1")
    curve = load_curve(args)
    e = parse_complex(args.e, vector=True)
    p = curve.point(parse_complex(args.x1), args.sheet1)
    val = wirtinger_connection(curve, e, p, tol=args.theta_tol)
    emit({"what": "wirtinger", "e": [cplx(v) for v in e],
          "x": cplx(p.x), "sheet": p.sheet, "value": cplx(val)}, args)
    return 0


def _curve_and_points(args):
    """The curve and the points (x1, sheet1) and (x2, sheet2) on it."""
    curve = load_curve(args)
    return (curve, curve.point(parse_complex(args.x1), args.sheet1),
            curve.point(parse_complex(args.x2), args.sheet2))


def _emit_kernel(kv, args) -> int:
    emit({"what": args.what, "value": cplx(kv.value),
          "weight": list(kv.weight),
          "chart_x": [cplx(kv.chart_x[0]), kv.chart_x[1], kv.chart_x[2]],
          "chart_y": [cplx(kv.chart_y[0]), kv.chart_y[1], kv.chart_y[2]]},
         args)
    return 0


def cmd_eval_szego(args) -> int:
    _require(args, "e", "x1", "x2")
    curve, x, y = _curve_and_points(args)
    return _emit_kernel(szego_kernel(curve, parse_complex(args.e, vector=True),
                                     x, y, tol=args.theta_tol), args)


def cmd_eval_klein(args) -> int:
    _require(args, "e", "x1", "x2")
    curve, x, y = _curve_and_points(args)
    e = parse_complex(args.e, vector=True)
    return _emit_kernel(klein_kernel(curve, [e, -e], x, y,
                                     tol=args.theta_tol), args)


def cmd_eval_bergman(args) -> int:
    _require(args, "x1", "x2")
    curve, x, y = _curve_and_points(args)
    return _emit_kernel(bergman_kernel(curve, x, y), args)


def parse_omega(text: str):
    """Period matrix from JSON rows of plain numbers or [re, im] pairs.

    A matrix of plain numbers only is read as i times itself (a purely
    imaginary Omega).  Raises ValueError when the input is not a matrix,
    has rows of different lengths or has an entry that is not finite.
    """
    data = read_json(text, "--omega")
    if not (isinstance(data, list) and data
            and all(isinstance(row, list) for row in data)):
        raise ValueError("--omega must be a JSON matrix (a list of rows)")
    if len({len(row) for row in data}) != 1:
        raise ValueError("--omega rows must all have the same length")
    m = np.array([[_parse_complex(v) for v in row] for row in data])
    if not np.all(np.isfinite(m)):
        raise ValueError("--omega entries must be finite")
    if not any(isinstance(v, list) for row in data for v in row):
        m = m.real * 1j
    return m


# ----------------------------------------------------------------------
# Verification suites
# ----------------------------------------------------------------------

def _check(name, residual, tolerance):
    return {"name": name, "residual": float(residual),
            "tolerance": float(tolerance),
            "pass": bool(residual <= tolerance)}


def _suite_theta(args):
    rng = np.random.default_rng(args.seed)
    checks = []
    val = theta_value([0.0], RiemannMatrix([[1j]]), tol=args.theta_tol)
    checks.append(_check("lemniscatic_value",
                         abs(val.value - math.pi ** 0.25 / math.gamma(0.75)),
                         1e-12))
    for g in (1, 2, 3):
        a = rng.standard_normal((g, g))
        om = RiemannMatrix(1j * (0.25 * (a @ a.T) + np.eye(g)))
        worst_q = 0.0
        worst_p = 0.0
        for _ in range(5):
            z = rng.standard_normal(g) + 1j * rng.uniform(-0.3, 0.3, g)
            m = np.ones(g)
            lhs = theta_value(z + om.entries @ m + m, om, tol=args.theta_tol)
            fac = np.exp(-1j * np.pi * m @ om.entries @ m - 2j * np.pi * m @ z)
            rhs = theta_value(z, om, tol=args.theta_tol)
            worst_q = max(worst_q, abs(lhs.ratio(rhs) - fac) / abs(fac))
            for char in Characteristic.all(g):
                plus = theta_value(z, om, char=char, tol=args.theta_tol)
                minus = theta_value(-z, om, char=char, tol=args.theta_tol)
                sign = -1.0 if char.parity else 1.0
                worst_p = max(worst_p, abs(minus.ratio(plus) - sign))
            if g > 2:
                break
        checks.append(_check(f"quasi_periodicity_g{g}", worst_q, 1e-10))
        checks.append(_check(f"parity_g{g}", worst_p, 1e-10))
    # Riemann quadratic identity, g = 2
    a = rng.standard_normal((2, 2))
    om = RiemannMatrix(1j * (0.25 * a @ a.T + np.eye(2)))
    ratios = []
    for _ in range(10):
        z = rng.standard_normal(2) + 1j * rng.uniform(-0.3, 0.3, 2)
        w = rng.standard_normal(2) + 1j * rng.uniform(-0.3, 0.3, 2)
        lhs = (theta_value(z + w, om, tol=args.theta_tol).value
               * theta_value(z - w, om, tol=args.theta_tol).value)
        tz = second_order_theta_basis(z, om, tol=args.theta_tol)
        tw = second_order_theta_basis(w, om, tol=args.theta_tol)
        rhs = sum(a_.value * b_.value for a_, b_ in zip(tz, tw))
        ratios.append(lhs / rhs)
    ratios = np.array(ratios)
    checks.append(_check("riemann_quadratic_identity",
                         np.max(np.abs(ratios - ratios.mean()))
                         / abs(ratios.mean()), 1e-8))
    return checks


def _suite_curve(args):
    """The curve of the kernels, fay and gauss suites: --curve, else
    y^2 = x^3 - x."""
    if args.curve:
        return load_curve(args)
    return build_curve([0, -1, 0, 1], quadrature_tol=args.quadrature_tol)


def _suite_kernels(args):
    curve = _suite_curve(args)
    checks = []
    x = curve.point(2.2 + 0.3j, 1)
    y = curve.point(-1.9 + 0.4j, -1)
    tol = args.theta_tol
    e1 = prime_form(curve, x, y, tol=tol).value
    e2 = prime_form(curve, y, x, tol=tol).value
    checks.append(_check("prime_form_antisymmetry",
                         abs(e1 + e2) / abs(e1), 1e-9))
    p = curve.point(2.0, 1)
    vals = []
    for sep in (2e-3, 1e-3):
        q = curve.point(2.0 + sep, 1)
        vals.append(prime_form(curve, p, q, tol=tol).value / (p.x - q.x))
    checks.append(_check("prime_form_diagonal",
                         abs(2 * vals[1] - vals[0] - 1.0), 1e-6))
    vals = []
    for sep in (2e-3, 1e-3):
        q = curve.point(2.0 + sep, 1)
        vals.append(bergman_kernel(curve, p, q).value
                    * (p.x - q.x) ** 2)
    checks.append(_check("bergman_biresidue",
                         abs((4 * vals[1] - vals[0]) / 3 - 1.0), 1e-6))
    wb1 = bergman_kernel(curve, x, y).value
    wb2 = bergman_kernel(curve, y, x).value
    checks.append(_check("bergman_symmetry", abs(wb1 - wb2) / abs(wb1), 1e-9))
    worst = 0.0
    for k in range(curve.genus):
        worst = max(worst, abs(bergman_a_period(curve, x, k, 256)))
    checks.append(_check("bergman_a_periods", worst, 1e-7))
    e = np.full(curve.genus, 0.3) + 1j * np.linspace(0.1, 0.2, curve.genus)
    vals = []
    for sep in (2e-3, 1e-3):
        q = curve.point(2.0 + sep, 1)
        vals.append(szego_kernel(curve, e, p, q, tol=tol).value
                    * (p.x - q.x))
    checks.append(_check("szego_residue", abs(2 * vals[1] - vals[0] - 1.0),
                         1e-6))
    return checks


def _suite_fay(args):
    curve = _suite_curve(args)
    rng = np.random.default_rng(args.seed)
    g = curve.genus
    worst = 0.0
    count = 0
    while count < 20:
        a = rng.uniform(-0.4, 0.4, g)
        b = rng.uniform(-0.4, 0.4, g)
        e = a + curve.omega.entries @ b
        if kernels.is_on_theta(e, curve.omega):
            continue
        x = curve.point(rng.uniform(1.6, 2.6) + 1j * rng.uniform(-0.6, 0.6),
                        rng.choice([-1, 1]))
        y = curve.point(rng.uniform(-2.6, -1.6) + 1j * rng.uniform(-0.6, 0.6),
                        rng.choice([-1, 1]))
        kl = klein_kernel(curve, [e, -e], x, y, tol=args.theta_tol).value
        wb = bergman_kernel(curve, x, y).value
        cc = klein_coordinates(curve, e, tol=args.theta_tol).matrix
        rhs = wb + complex(curve.eval_differentials(x) @ cc
                           @ curve.eval_differentials(y))
        worst = max(worst, abs(kl - rhs) / abs(kl))
        count += 1
    return [_check("fay_corollary_identity", worst, 1e-8)]


def _suite_gauss(args):
    om = _suite_curve(args).omega
    g = om.dim
    if g == 1:
        tau = om.entries[0, 0]
        e0 = np.array([(1 + tau) / 2])
        direction = np.array([0.37 + 0.05j])
    else:
        rng = np.random.default_rng(args.seed)
        start = rng.standard_normal(g) * 0.3 + 1j * rng.standard_normal(g) * 0.2
        e0 = find_theta_zero(om, start, rng.standard_normal(g)
                             + 0.3j * rng.standard_normal(g),
                             tol=args.theta_tol)
        direction = rng.standard_normal(g) + 1j * rng.standard_normal(g)
    rep = gauss_limit_check(om, e0, direction, tol=args.theta_tol)
    checks = [_check("gauss_square_limit", rep.max_relative_deviation, 1e-5)]
    if g > 1:
        checks.append(_check("gauss_rank_one", rep.singular_value_ratio, 1e-4))
    return checks


def _suite_jets(args):
    # imported here: no other command needs exact arithmetic
    from . import jets
    from .series import QC, Series

    n = args.order
    if n < 8:  # rescaling_torsor_k3 compares jets through order 8
        raise ValueError("verify jets needs --order >= 8")
    checks = []

    def poly(coeffs):
        return Series.from_coeffs([QC.of(c) for c in coeffs], n)

    def exact(name, ok):
        checks.append({"name": name, "residual": 0.0 if ok else 1.0,
                       "tolerance": 0.0, "pass": bool(ok)})

    mu2 = jets.mu_nu(2, 2, n)
    L = jets.kernel_to_operator(mu2)
    f = poly([0, 0, 1])
    exact("de_rham_anchor", L.apply(f) == poly([0, 2]))
    for nu in range(1, 5):
        exact(f"mu_tensor_power_{nu}",
              jets.tensor_power(jets.mu_nu(1, 4, n), nu) == jets.mu_nu(nu, 4, n))
        sw = jets.mu_nu(nu, 4, n).swap()
        exact(f"mu_sigma_parity_{nu}",
              sw == jets.mu_nu(nu, 4, n).scale(QC((-1) ** (nu % 2))))
    rng = np.random.default_rng(args.seed)

    def rpoly(deg):
        return poly([complex(rng.integers(-4, 5), rng.integers(-4, 5))
                     for _ in range(deg + 1)])

    w = Series.from_coeffs([0, 2, QC(1, 1)], n)
    exact("mu_coordinate_invariance",
          jets.change_coordinate(jets.mu_nu(3, 2, n), w) == jets.mu_nu(3, 2, n))
    s = jets.JetKernel(1, 3, 3, [[[poly([1])]], [[rpoly(2)]], [[rpoly(2)]]])
    exact("kernel_operator_round_trip",
          jets.operator_to_kernel(jets.kernel_to_operator(s)) == s)
    q = rpoly(2)
    rho = jets.projective_jet(q, 1, nu=1, m=3)
    exact("rescaling_torsor_k3",
          jets.rescale_shift(jets.tensor_power(rho, 3).restrict(3), 3)
          == q.truncate(8))
    L3 = jets.DiffOperator(order=3, rank=1, q=[[[rpoly(2)]] for _ in range(3)])
    f3 = L3.solve([1, QC(0, 1), -2], 12)
    conn = jets.companion_connection(L3)
    v = conn.solve([-2, QC(0, 1), 1], 10)
    exact("companion_solution_correspondence", v[2] == f3.truncate(10))
    gamma = [[rpoly(2) for _ in range(2)] for _ in range(2)]
    kappa = jets.flat_extension(jets.ConnectionJet(2, gamma), 4)
    det = jets.det_kernel(kappa)
    trace_conn = jets.connection_from_kernel(det)
    exact("det_of_connection_is_trace",
          trace_conn.gamma[0][0] == gamma[0][0] + gamma[1][1])
    a = jets.JetKernel(1, 1, 1, [[[poly([1])]], [[rpoly(2)]], [[rpoly(2)]]])
    b = jets.JetKernel(1, 1, 1, [[[poly([1])]], [[rpoly(2)]], [[rpoly(2)]]])
    block = jets.JetKernel(2, 1, 1,
                           [[[a.scalar_coeff(j), Series.zero(n)],
                             [Series.zero(n), b.scalar_coeff(j)]]
                            for j in range(3)])
    exact("det_multiplicativity", jets.det_kernel(block) == a * b)
    oper = jets.build_oper(rpoly(2), {3: rpoly(2)}, 3, 5)
    conn2 = jets.ConnectionJet(2, [[rpoly(1) for _ in range(2)]
                                   for _ in range(2)])
    mop = jets.matrix_oper(conn2, oper, {})
    exact("trace_projects_matrix_oper",
          jets.trace_map(mop, "trace") == oper)
    kp = jets.flat_extension(conn2, 4)
    lhs = jets.det_kernel(mop * kp.swap())
    tconn = jets.ConnectionJet(1, [[conn2.gamma[0][0] + conn2.gamma[1][1]]])
    rhs = jets.det_kernel(mop) * jets.flat_extension(tconn, 4).swap()
    exact("determinant_frame_diagram", lhs == rhs)
    q2 = rpoly(2)
    rho2 = jets.projective_jet(q2, 2, nu=2, m=3)
    s2 = jets.flat_extension(conn2, 3) * rho2
    got = jets.quadratic_S(s2, 1)
    exact("quadratic_projection_anchor",
          got.truncate(min(got.n, 8)) == q2.truncate(min(got.n, 8)))
    aa, bb, cc = poly([0, 1]), poly([0, 0, -1]), poly([1])
    nil = [[aa, bb], [cc, aa * QC(-1)]]
    zero_m = [[Series.zero(n), Series.zero(n)],
              [Series.zero(n), Series.zero(n)]]
    higgs = jets.JetKernel(2, 2, 2, [zero_m, nil, zero_m])
    exact("nilpotent_higgs_vanishes", jets.quadratic_S(higgs, 0).is_zero())
    diag = [[poly([2, 1]), Series.zero(n)],
            [Series.zero(n), poly([2, 1]) * QC(-1)]]
    higgs2 = jets.JetKernel(2, 2, 2, [zero_m, diag, zero_m])
    out = jets.quadratic_S(higgs2, 0)
    expect = poly([2, 1]) * poly([2, 1]) * QC(2)
    exact("quadratic_hitchin_reduction",
          out.truncate(min(out.n, 10)) == expect.truncate(min(out.n, 10)))
    return checks


def cmd_verify(args) -> int:
    checks = args.suite_checks(args)
    report = {"suite": args.suite, "checks": checks,
              "pass": all(c["pass"] for c in checks)}
    emit(report, args)
    return 0 if report["pass"] else 1


# ----------------------------------------------------------------------
# Entry point
# ----------------------------------------------------------------------

def _positive_float(text: str) -> float:
    value = float(text)
    if not 0 < value < math.inf:
        raise argparse.ArgumentTypeError(f"must be positive and finite, got {text}")
    return value


def make_parser() -> argparse.ArgumentParser:
    """The argument parser; each command, each verify suite and each
    evaluator declares exactly the flags it reads."""
    parser = argparse.ArgumentParser(
        prog="thetakernels",
        description="Kernel functions and jet calculus on hyperelliptic curves")
    sub = parser.add_subparsers(dest="command", required=True)

    def command(parent, name, summary, *flag_groups, **defaults):
        """A subcommand of ``parent`` with --out, the flags each of
        ``flag_groups`` adds, and ``defaults`` (func: what it runs)."""
        p = parent.add_parser(
            name, help=summary,
            formatter_class=argparse.ArgumentDefaultsHelpFormatter)
        p.set_defaults(**defaults)
        for add_flags in flag_groups:
            add_flags(p)
        p.add_argument("--out", help="also write the report to this path "
                       "(a CSV report goes there alone)")
        return p

    def curve_flags(p):
        p.add_argument("--curve", help="path to a curve spec JSON file")
        p.add_argument("--quadrature-tol", dest="quadrature_tol",
                       type=_positive_float, default=DEFAULT_QUADRATURE_TOL,
                       help="period/path quadrature doubling tolerance")

    def theta_tol(p):
        p.add_argument("--theta-tol", "--tol", dest="theta_tol",
                       type=_positive_float, default=DEFAULT_TOL,
                       help="certified truncation error of theta sums")

    def test_seed(p):
        p.add_argument("--seed", type=int, default=0,
                       help="seed of the random test points")

    command(sub, "periods", "period matrices of a curve", curve_flags,
            func=cmd_periods)

    suites = sub.add_parser("verify", help="run a verification suite") \
        .add_subparsers(dest="suite", required=True)
    command(suites, "theta", "theta quasi-periodicity, parity and Riemann's "
            "quadratic identity", test_seed, theta_tol,
            func=cmd_verify, suite_checks=_suite_theta)
    command(suites, "kernels", "prime form, Bergman and Szego kernels",
            curve_flags, theta_tol, func=cmd_verify,
            suite_checks=_suite_kernels)
    command(suites, "fay", "Fay's identity for Klein kernels of (e, -e)",
            curve_flags, theta_tol, test_seed, func=cmd_verify,
            suite_checks=_suite_fay)
    p = command(suites, "jets", "exact identities of the jet calculus",
                test_seed, func=cmd_verify, suite_checks=_suite_jets)
    p.add_argument("--order", type=int, default=16,
                   help="series truncation order (at least 8)")
    command(suites, "gauss", "squared Gauss map limit at a theta zero",
            curve_flags, theta_tol, test_seed, func=cmd_verify,
            suite_checks=_suite_gauss)

    p = command(sub, "probe", "finiteness probe of the Klein map",
                curve_flags, theta_tol, func=cmd_probe)
    p.add_argument("--samples", type=int, default=200,
                   help="number of samples (at least 2)")
    p.add_argument("--seed", type=int, default=0,
                   help="seed of the sample points")
    p.add_argument("--collision-tol", dest="collision_tol",
                   type=_positive_float, default=1e-6,
                   help="relative Klein-coordinate collision radius")
    p.add_argument("--format", choices=["json", "csv"], default="json",
                   help="report format (csv also when --out ends in .csv)")

    def jacobian_point(p):
        p.add_argument("--e", help="Jacobian point, complex vector")

    def first_point(p):
        p.add_argument("--x1", help="first point x-coordinate")
        p.add_argument("--sheet1", type=int, choices=(-1, 1), default=1,
                       help="sheet of the first point")

    def second_point(p):
        p.add_argument("--x2", help="second point x-coordinate")
        p.add_argument("--sheet2", type=int, choices=(-1, 1), default=1,
                       help="sheet of the second point")

    evals = sub.add_parser("eval", help="evaluate a kernel or theta value") \
        .add_subparsers(dest="what", required=True)
    p = command(evals, "theta", "theta value at z", curve_flags, theta_tol,
                func=cmd_eval_theta)
    p.add_argument("--omega", help="period matrix as JSON (instead of "
                   "--curve)")
    p.add_argument("--z", help="theta argument, complex vector")
    command(evals, "szego", "Szego kernel of the class e", curve_flags,
            theta_tol, jacobian_point, first_point, second_point,
            func=cmd_eval_szego)
    command(evals, "klein", "Klein kernel of the classes (e, -e)",
            curve_flags, theta_tol, jacobian_point, first_point,
            second_point, func=cmd_eval_klein)
    command(evals, "bergman", "Bergman kernel", curve_flags, first_point,
            second_point, func=cmd_eval_bergman)
    command(evals, "wirtinger", "Wirtinger connection of the class e",
            curve_flags, theta_tol, jacobian_point, first_point,
            func=cmd_eval_wirtinger)

    return parser


#: Options whose values may start with "-" (a complex number such as
#: -1.9+0.4j, which argparse would otherwise read as an option).
VALUE_OPTIONS = ("--z", "--e", "--x1", "--x2")


def _attach_values(argv):
    """Rewrite "--x2 -1.9+0.4j" as "--x2=-1.9+0.4j" for VALUE_OPTIONS."""
    out = []
    for token in argv:
        if out and out[-1] in VALUE_OPTIONS and token.startswith("-"):
            out[-1] += "=" + token
        else:
            out.append(token)
    return out


def main(argv=None) -> int:
    parser = make_parser()
    args = parser.parse_args(_attach_values(
        sys.argv[1:] if argv is None else argv))
    try:
        return args.func(args)
    except PointOnTheta as exc:
        sys.stderr.write(f"point on theta divisor: {exc}\n")
        return 4
    except QuadratureNonConvergent as exc:
        sys.stderr.write(f"quadrature failure: {exc}\n")
        return 3
    except MemoryError:
        sys.stderr.write("error: out of memory; use a smaller order or input\n")
        return 2
    except (ThetaKernelsError, ValueError, OSError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2


if __name__ == "__main__":
    sys.exit(main())
