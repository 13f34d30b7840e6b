"""Analytic kernels on a hyperelliptic curve.

Prime form, Bergman kernel, Szego kernels of line bundles off the theta
divisor, rank-n Klein kernels of split bundles, the Klein coordinate map
(second logarithmic derivatives of theta), the Wirtinger projective
connection, the squared-Gauss-map limit at smooth theta zeros, and a
sampling probe for fibers of the Klein coordinate map.

The Bergman kernel is Klein's closed form (Fay 1973, ch. III;
Buchstaber, Enolski & Leykin 1997), with no theta sum or Abel map: for
f = sum_i lam_i x^i and u_i = x^i dx / y (i < g),
B = (2 y1 y2 + F(x1, x2)) / (4 (x1 - x2)^2 y1 y2) dx1 dx2 + u(x1)^T K u(x2)
with F = sum_k (x1 x2)^k (2 lam_2k + lam_2k+1 (x1 + x2)) and the curve's
K = -eta A^-1 (:class:`HyperellipticCurve`).  The Wirtinger connection is
R(e, p) = S_B(p) + 6 omega(p)^T c(e) omega(p), S_B six times the regular
part of B on the diagonal and c(e) the Klein coordinates.  So Fay's
identity K_klein = B + omega^T c omega compares two constructions.

Kernel values are densities with respect to the chart parameters of the
two surface points; weights record the transformation law (a section of
weight (w1, w2) picks up chart_scale^w1 * chart_scale^w2).

A point is on the theta divisor when ``theta._on_divisor`` says so:
|theta| is below ``theta.THETA_FLOOR`` (read at call time) times the
scale of its lattice sum, or that scale is 0.  The curve's one odd
characteristic and its theta gradient at 0 are kept in the curve's memo
(:meth:`HyperellipticCurve.memo`), next to its Abel images.  The Klein
coordinates c(e) of the last class asked for are kept in the curve's
"klein" slot (:meth:`HyperellipticCurve.slot`), one g x g matrix that
:func:`klein_coordinates` and :func:`wirtinger_connection` share; the
Klein kernel's theta call also carries the order-2 row of its first
class when the slot lacks it, and fills the slot.  The "pair" slot
keeps the prime form E(x, y) of the last pair, so the Szego and Klein
kernels and the prime form at one pair share it, and the kernels' theta
calls carry the prime form's row only when the slot lacks it.  Both
Abel images of a pair come from one
:meth:`HyperellipticCurve.abel_images` call.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import theta
from .curves import (HyperellipticCurve, SurfacePoint, bivariate,
                     lattice_coordinates)
from .errors import (ConstraintViolation, InadmissiblePoint,
                     NoNonsingularOddCharacteristic, NotOnThetaSmoothLocus,
                     OnDiagonal, PointOnTheta, SquareRootBranchUnresolvable)
from .theta import (DEFAULT_TOL, Characteristic, RiemannMatrix,
                    ScaledComplex, _on_divisor, _triu_indices,
                    hessian_numerators, log_theta_hessian, log_theta_hessians,
                    theta_batch, theta_value)

GRADIENT_FLOOR = 1e-8


@dataclass(frozen=True)
class KernelValue:
    """Kernel density in the charts of the two evaluation points."""

    value: complex
    weight: tuple
    chart_x: tuple   # (x, sheet, chart_scale)
    chart_y: tuple


@dataclass(frozen=True)
class KleinCoordinates:
    """Symmetric matrix of second logarithmic theta derivatives at a point."""

    matrix: np.ndarray

    @property
    def vector(self):
        return _upper_triangle(self.matrix)


def _upper_triangle(c):
    """The entries c[i, j] with j >= i, row by row."""
    return c[_triu_indices(c.shape[0])]


def _chart(p: SurfacePoint):
    return (p.x, p.sheet, p.chart_scale)


def _class_vector(e, g):
    """e as a flat complex g-vector; ValueError when its length is not g
    or an entry is not finite."""
    e = np.asarray(e, dtype=complex).reshape(-1)
    if len(e) != g:
        raise ValueError(f"dimension mismatch: class of length {len(e)} "
                         f"on a curve of genus {g}")
    if not np.all(np.isfinite(e)):
        raise ValueError("class entries must be finite")
    return e


def _require_off_diagonal(x: SurfacePoint, y: SurfacePoint, what):
    if abs(x.x - y.x) < 1e-13 and x.sheet == y.sheet:
        raise OnDiagonal(f"{what} evaluated at coinciding points")


def _require_off_branch(*points: SurfacePoint):
    for p in points:
        if p.y == 0:
            raise InadmissiblePoint(f"x={p.x} is a branch point (y = 0)")


def is_on_theta(e, omega: RiemannMatrix, tol=DEFAULT_TOL) -> bool:
    """Whether e lies on the theta divisor, the test every kernel applies
    to its class."""
    e = np.asarray(e, dtype=complex).reshape(1, -1)
    vals, _, scales = theta_batch(e, omega, [Characteristic.zero(omega.dim)],
                                  [0], tol)
    return _on_divisor(vals[0][0], scales[0])


def select_odd_characteristic(curve: HyperellipticCurve) -> Characteristic:
    """First odd characteristic (lexicographic) with nonsingular gradient
    at 0 (at ``DEFAULT_TOL``), chosen once per curve: every kernel uses it,
    and any nonsingular odd one gives the same kernels (Fay 1973)."""
    def first_nonsingular():
        for char in Characteristic.all(curve.genus):
            if char.parity != 1:
                continue
            grad, scale = _gradient_at_zero(curve, char, DEFAULT_TOL)
            if np.linalg.norm(grad) > GRADIENT_FLOOR * max(scale, 1.0):
                return char
        raise NoNonsingularOddCharacteristic(
            "all odd characteristics have vanishing gradient")

    return curve.memo(("odd",), first_nonsingular)


def _gradient_at_zero(curve, char: Characteristic, tol):
    """(gradient, scale) of theta[char] at 0 from its order-1 theta_batch
    row, computed once per (curve, char, tol); the gradient is a
    read-only array."""
    def compute():
        vals, _, scales = theta_batch(np.zeros((1, curve.genus), complex),
                                      curve.omega, [char], [1], tol)
        grad = np.array(vals[0][1:])
        grad.flags.writeable = False
        return grad, scales[0]

    return curve.memo(("gradient", char, tol), compute)


def _h_factor(curve, delta: Characteristic, p: SurfacePoint, tol=DEFAULT_TOL):
    """Principal square root of s2(p) = sum_i d_i theta[delta](0) omega_i(p),
    times sqrt(chart_scale): the half-density h(p) up to sign."""
    grad = _gradient_at_zero(curve, delta, tol)[0]
    om_raw = curve.eval_differentials(
        SurfacePoint(p.x, p.sheet, p.y, chart_scale=1.0))
    s2 = complex(grad @ om_raw)
    if abs(s2) < 1e-14 * max(1.0, float(np.linalg.norm(grad))):
        raise SquareRootBranchUnresolvable(
            f"gradient half-density vanishes at x={p.x}")
    return complex(np.sqrt(s2)) * math.sqrt(p.chart_scale)


def _h_product(curve, delta: Characteristic, x: SurfacePoint, y: SurfacePoint,
               tol=DEFAULT_TOL):
    """h(x) h(y) for the prime form, a function of the pair alone.

    Both factors are principal roots (:func:`_h_factor`), except that for
    points on one sheet less than 0.25 * curve.scale apart h(y) takes the
    sign nearer h(x).  The test is symmetric in (x, y), and it keeps
    E(x,y)/(t(x)-t(y)) -> 1 as y -> x also where s2 crosses the cut of
    the principal root.
    """
    hx = _h_factor(curve, delta, x, tol)
    hy = _h_factor(curve, delta, y, tol)
    if (x.sheet == y.sheet and abs(x.x - y.x) < 0.25 * curve.scale
            and abs(-hy - hx) < abs(hy - hx)):
        hy = -hy
    return hx * hy


def prime_form(curve: HyperellipticCurve, x: SurfacePoint, y: SurfacePoint,
               tol=DEFAULT_TOL) -> KernelValue:
    """Prime form E(x,y) = theta[delta](A(x)-A(y)) / (h(x) h(y)).

    Antisymmetric, vanishing only on the diagonal, with
    E(x,y)/(t(x)-t(y)) -> 1 along the diagonal.  Weight (-1/2, -1/2).
    The signs of the half-densities come from the pair (x, y) alone
    (:func:`_h_product`), so a value never depends on earlier calls.
    The curve's "pair" slot keeps E of the last pair, keyed by
    (tol, x, y), which this reads and fills.  OnDiagonal for coinciding points,
    InadmissiblePoint for a point with y = 0.
    """
    _require_off_diagonal(x, y, "prime form")
    _require_off_branch(x, y)
    delta = select_odd_characteristic(curve)
    key = (tol, x, y)
    value = curve.held("pair", key)
    if value is None:
        ax, ay = curve.abel_images((x, y))
        th = theta_value(ax - ay, curve.omega, delta, tol=tol)
        value = _prime_form_value(curve, delta, x, y, th, tol)
        curve.hold("pair", key, value)
    return KernelValue(value=value, weight=(-0.5, -0.5),
                       chart_x=_chart(x), chart_y=_chart(y))


def _prime_form_value(curve, delta, x, y, th: ScaledComplex, tol):
    """E(x, y) from th = theta[delta](A(x) - A(y))."""
    hxy = _h_product(curve, delta, x, y, tol)
    return complex(th.mantissa * math.exp(th.exponent) / hxy)


def bergman_kernel(curve: HyperellipticCurve, x: SurfacePoint,
                   y: SurfacePoint) -> KernelValue:
    """Symmetric bidifferential with biresidue 1 and vanishing A-periods.

    Klein's closed form (:func:`_bergman_values` on the one pair), so it
    needs no theta sum and no Abel map.  Weight (1, 1).  OnDiagonal for
    coinciding points, InadmissiblePoint for a point with y = 0.
    """
    _require_off_diagonal(x, y, "Bergman kernel")
    _require_off_branch(x, y)
    val, = _bergman_values(curve, x, np.array([y.x]), np.array([y.y]))
    return KernelValue(value=complex(val * y.chart_scale), weight=(1.0, 1.0),
                       chart_x=_chart(x), chart_y=_chart(y))


def _bergman_values(curve, x: SurfacePoint, x2, y2):
    """B(x, q) in the chart of x and the x-chart of q, for the points
    q = (x2, y2) of complex arrays (y2 != 0, q off the diagonal),
    elementwise, so an entry is the one a single pair gives.

    Where |F - 2 y1 y2| > |F + 2 y1 y2| (q near x on the other sheet) the
    numerator 2 y1 y2 + F cancels, and the algebraic part takes the form
    Q / (4 y1 y2 (F - 2 y1 y2)), Q = (F^2 - 4 f(x1) f(x2)) / (x1 - x2)^2,
    exact up to x2 = x1.
    """
    x1, y1 = x.x, x.y
    yy = y1 * y2
    F = bivariate(curve.F_coeffs, x1, x2)
    plus, minus = F + 2.0 * yy, F - 2.0 * yy
    conj = np.abs(minus) > np.abs(plus)
    alg = np.empty_like(plus)
    d = x1 - x2[~conj]
    alg[~conj] = plus[~conj] / (4.0 * (d * d) * yy[~conj])
    if conj.any():
        q = bivariate(curve.Q_coeffs, x1, x2[conj])
        alg[conj] = q / (4.0 * yy[conj] * minus[conj])
    # u(x1)^T K u(x2) = (sum_j v_j x2^j) / y2 with v = u(x1)^T K
    v = (x1 ** curve.u_degrees / y1) @ curve.K
    poly = np.full_like(x2, v[-1])
    for vj in v[-2::-1]:
        poly = poly * x2 + vj
    return (alg + poly / y2) * x.chart_scale


def _bergman_regular_part(curve, p: SurfacePoint):
    """S_B(p): six times the regular part of B on the diagonal at p, in
    the chart of p.  With f, f', f'' and F_22 = d^2F/dx2^2 at (x, x), it
    is 6 [(F_22 - f'') / (8 f) + f'^2 / (16 f^2) + u(p)^T K u(p)] times
    chart_scale^2."""
    f, f1, f2 = (complex(np.polyval(d, p.x)) for d in curve.f_derivs)
    f22 = complex(bivariate(curve.F22_coeffs, p.x, p.x))
    u = p.x ** curve.u_degrees / p.y
    reg = (f22 - f2) / (8.0 * f) + f1 * f1 / (16.0 * f * f) \
        + complex(u @ curve.K @ u)
    return 6.0 * reg * p.chart_scale ** 2


def szego_kernel(curve: HyperellipticCurve, e, x: SurfacePoint,
                 y: SurfacePoint, tol=DEFAULT_TOL) -> KernelValue:
    """Szego kernel theta(A(y)-A(x)+e) / (theta(e) E(x,y)) of the class e.

    Requires e off the theta divisor; has a simple diagonal pole with
    residue normalization 1.  Weight (1/2, 1/2).  One ``theta_batch``
    call evaluates theta(e), theta(A(y)-A(x)+e) and, when the curve's
    "pair" slot lacks E(x, y), the prime form's theta[delta](A(x)-A(y))
    (:func:`_szego_values`).  InadmissiblePoint for a point with y = 0.
    """
    val, = _szego_values(curve, [_class_vector(e, curve.genus)], x, y, tol)
    return KernelValue(value=val, weight=(0.5, 0.5),
                       chart_x=_chart(x), chart_y=_chart(y))


def _szego_values(curve, es, x, y, tol, klein=False):
    """The Szego kernel value of each class of ``es`` at (x, y).

    One theta_batch call gives theta(e) and theta(A(y)-A(x)+e) for every
    class, theta[delta](A(x)-A(y)) for the prime form when the curve's
    "pair" slot lacks E(x, y) (which then fills it)
    and, with ``klein``, c(e) of the first class when the curve's "klein"
    slot lacks it (stored there unless e is on the theta divisor).  Both
    Abel images come from one ``abel_images`` call.  InadmissiblePoint
    for a y = 0 point comes before any Abel map; then, class by class,
    PointOnTheta for a class on the theta divisor, then OnDiagonal.
    """
    _require_off_branch(x, y)
    g = curve.genus
    delta = select_odd_characteristic(curve)
    ax, ay = curve.abel_images((x, y))
    w = ay - ax
    zero, n = Characteristic.zero(g), 2 * len(es)
    pair = (tol, x, y)
    prime = curve.held("pair", pair)
    rows = [v for e in es for v in (e, w + e)]
    chars = [zero] * n
    if prime is None:
        rows.append(ax - ay)
        chars.append(delta)
    key = _klein_key(es[0], tol)
    fill = int(klein and curve.held("klein", key) is None)  # 0 or 1 rows
    vals, expos, scales = theta_batch(
        np.array(rows + [es[0]] * fill), curve.omega,
        chars + [zero] * fill, [0] * len(rows) + [2] * fill, tol)
    if fill:
        (c,), (error,) = log_theta_hessians(g, vals[-1:], scales[-1:])
        if error is None:
            c.flags.writeable = False
            curve.hold("klein", key, c)
    out = []
    for k in range(0, n, 2):
        if _on_divisor(vals[k][0], scales[k]):
            raise PointOnTheta("Szego kernel undefined on the theta divisor")
        if prime is None:
            _require_off_diagonal(x, y, "prime form")
            prime = _prime_form_value(
                curve, delta, x, y,
                ScaledComplex.make(vals[n][0], expos[n]), tol)
            curve.hold("pair", pair, prime)
        num = ScaledComplex.make(vals[k + 1][0], expos[k + 1])
        out.append(complex(
            num.ratio(ScaledComplex.make(vals[k][0], expos[k])) / prime))
    return out


def klein_kernel(curve: HyperellipticCurve, e_list, x: SurfacePoint,
                 y: SurfacePoint, tol=DEFAULT_TOL) -> KernelValue:
    """Determinant kernel of a split bundle: the product of Szego kernels.

    ``e_list`` must sum to zero modulo the period lattice (each lattice
    coordinate within 1e-8 of an integer).  The result has an order-n
    diagonal pole with unit leading coefficient and weight (n/2, n/2).
    All its theta values, the prime form's only when the curve's "pair"
    slot lacks E(x, y), and c(e) of the first class when its "klein" slot
    lacks it, come from one ``theta_batch`` call (:func:`_szego_values`).
    InadmissiblePoint for a point with y = 0.
    """
    es = [_class_vector(e, curve.genus) for e in e_list]
    total = sum(es)
    a, b = lattice_coordinates(total, curve.omega)
    coords = np.concatenate([a, b])
    if np.max(np.abs(coords - np.round(coords))) > 1e-8:
        raise ConstraintViolation("classes do not sum to zero in the Jacobian")
    val = 1.0 + 0.0j
    for factor in _szego_values(curve, es, x, y, tol, klein=True):
        val *= factor
    n = len(es)
    return KernelValue(value=val, weight=(n / 2.0, n / 2.0),
                       chart_x=_chart(x), chart_y=_chart(y))


def klein_coordinates(curve: HyperellipticCurve, e,
                      tol=DEFAULT_TOL) -> KleinCoordinates:
    """Coordinates of the Klein kernel of e relative to the Bergman kernel:
    a writable copy of :func:`_klein_matrix`."""
    return KleinCoordinates(
        matrix=_klein_matrix(curve, _class_vector(e, curve.genus), tol).copy())


def _klein_matrix(curve, e, tol):
    """c(e), the log-theta Hessian at the class vector e, read-only.

    The curve keeps the matrix of the last class asked for in its
    "klein" slot (:meth:`HyperellipticCurve.slot`), keyed by
    :func:`_klein_key`, so the Klein coordinates, the Wirtinger connection
    and the Klein kernel of one class share one ``theta_batch`` call.
    A hit holds the bits a recompute gives, and a class on the theta
    divisor raises PointOnTheta on every call and leaves the slot as it was.
    """
    def compute():
        c = log_theta_hessian(e, curve.omega, tol=tol)
        c.flags.writeable = False
        return c

    return curve.slot("klein", _klein_key(e, tol), compute)


def _klein_key(e, tol):
    """The "klein" slot key of the class vector e: the divisor test reads
    ``theta.THETA_FLOOR`` at call time, so a changed floor misses."""
    return (tol, theta.THETA_FLOOR, e.tobytes())


# ----------------------------------------------------------------------
# Wirtinger projective connection
# ----------------------------------------------------------------------

def wirtinger_connection(curve: HyperellipticCurve, e, p: SurfacePoint,
                         tol=DEFAULT_TOL) -> complex:
    """Projective-connection value at p of the Klein kernel of (e, -e).

    The kernel at (x, y) = (p(t1), p(t2)) is 1/(t1-t2)^2 + R/6 + O(t1 -
    t2); R = S_B(p) + 6 omega(p)^T c(e) omega(p), with S_B from Klein's
    closed form and c(e) the Klein coordinates (:func:`_klein_matrix`:
    one ``theta_batch`` call, none when the curve's slot holds e).
    PointOnTheta for e on the theta divisor, InadmissiblePoint for a
    point with y = 0.
    """
    e = _class_vector(e, curve.genus)
    _require_off_branch(p)
    c = _klein_matrix(curve, e, tol)
    om = curve.eval_differentials(p)
    return _bergman_regular_part(curve, p) + 6.0 * complex(om @ c @ om)


# ----------------------------------------------------------------------
# Gauss limit at smooth theta zeros
# ----------------------------------------------------------------------

@dataclass
class GaussLimitReport:
    limit: np.ndarray
    target: np.ndarray
    max_relative_deviation: float
    singular_value_ratio: float
    steps: list


def find_theta_zero(omega: RiemannMatrix, start, direction, tol=DEFAULT_TOL):
    """Newton solve for s with theta(start + s*direction) = 0."""
    start = np.asarray(start, dtype=complex)
    direction = np.asarray(direction, dtype=complex)
    zero = Characteristic.zero(omega.dim)
    s = 0j
    for _ in range(80):
        e = start + s * direction
        vals, _, scales = theta_batch(e.reshape(1, -1), omega, [zero], [1],
                                      tol)
        th, grad = vals[0][0], np.array(vals[0][1:])
        if abs(th) < 1e-13 * max(scales[0], 1e-300):
            return e
        ds = th / complex(grad @ direction)
        s = s - ds
    raise NotOnThetaSmoothLocus("Newton iteration for a theta zero failed")


def gauss_limit_check(omega: RiemannMatrix, e0, direction,
                      tol=DEFAULT_TOL) -> GaussLimitReport:
    """Limit of theta(e_t)^2 * c(e_t) along e_t = e0 + t * direction.

    At a smooth zero e0 of theta the limit is the rank-one matrix
    -(grad theta)(grad theta)^T; the report carries the Richardson
    extrapolation 2 M(t/2) - M(t) of the matrix family at t = 1e-2 * 2^-6
    (the two values of t are ``steps``), the target and deviation
    measures.  One ``theta_batch`` call evaluates the gradient at e0 and
    the two Hessian jets.
    """
    e0 = np.asarray(e0, dtype=complex).reshape(-1)
    direction = np.asarray(direction, dtype=complex)
    g = omega.dim
    ts = [1e-2 * 0.5 ** k for k in (6, 7)]
    # the gradient at e0 and the Hessian jets at both steps, one call
    vals, _, scales = theta_batch(
        np.array([e0] + [e0 + t * direction for t in ts]), omega,
        [Characteristic.zero(g)] * 3, [1, 2, 2], tol)
    th0, grad0, scale = vals[0][0], np.array(vals[0][1:]), scales[0]
    if abs(th0) > 1e-6 * max(scale, 1e-300):
        raise NotOnThetaSmoothLocus("e0 is not a theta zero")
    if np.linalg.norm(grad0) < GRADIENT_FLOOR * max(scale, 1.0):
        raise NotOnThetaSmoothLocus("theta gradient vanishes at e0")
    target = -np.outer(grad0, grad0)
    _, mats = hessian_numerators(g, vals[1:])
    extrapolated = 2.0 * mats[-1] - mats[-2]
    sv = np.linalg.svd(extrapolated, compute_uv=False)
    ratio = float(sv[1] / sv[0]) if g > 1 else 0.0
    dev = float(np.max(np.abs(extrapolated - target))
                / max(np.max(np.abs(target)), 1e-300))
    return GaussLimitReport(limit=extrapolated, target=target,
                            max_relative_deviation=dev,
                            singular_value_ratio=ratio, steps=ts)


# ----------------------------------------------------------------------
# Finiteness probe
# ----------------------------------------------------------------------

@dataclass
class Collision:
    i: int
    j: int
    relative_distance: float
    trivial: bool
    kind: str   # "equal" | "negation" | "nontrivial"


@dataclass
class ProbeReport:
    genus: int
    n_samples: int
    seed: int
    collision_tol: float
    floor: float
    n_rejected: int
    points: list          # list of g-vectors (as lists of complex)
    coordinates: list     # list of Klein coordinate vectors
    collisions: list
    n_nontrivial: int

    def to_dict(self):
        def cplx(z):
            return [z.real, z.imag]

        return {
            "genus": self.genus,
            "n_samples": self.n_samples,
            "seed": self.seed,
            "collision_tol": self.collision_tol,
            "floor": self.floor,
            "n_rejected": self.n_rejected,
            "points": [[cplx(z) for z in p] for p in self.points],
            "coordinates": [[cplx(z) for z in c] for c in self.coordinates],
            "collisions": [{
                "i": c.i, "j": c.j,
                "relative_distance": c.relative_distance,
                "trivial": c.trivial, "kind": c.kind,
            } for c in self.collisions],
            "n_nontrivial": self.n_nontrivial,
        }


#: Rows per tile of the collision filter: its three float64 tile-sized
#: temporaries stay near 16 MB whatever the sample count.
_PAIR_TILE = 836

#: Lattice points per theta_batch call of the probe: enough to spread the
#: fixed cost of a call, few enough to keep the lattice arrays small.
_PROBE_POINTS = 8192


def _collision_candidates(coords, collision_tol):
    """Pairs (i, j), i < j, in ascending order, that may satisfy
    ||c_i - c_j|| < collision_tol * max(||c_i||, ||c_j||, 1e-300).

    Squared distances are summed component by component over square
    tiles of rows.  The squared threshold is widened by a relative 1e-6
    and raised to the smallest normal double, so rounding and underflow
    can only add candidates, never drop a pair that passes the exact test.
    """
    parts = np.concatenate([coords.real, coords.imag], axis=1)
    norms = np.sqrt(np.sum(parts * parts, axis=1))
    thr = collision_tol * np.maximum(norms, 1e-300)
    bound = np.maximum(thr * thr, np.finfo(float).tiny) * (1.0 + 1e-6)
    n = len(parts)
    ii, jj = [], []
    for i0 in range(0, n, _PAIR_TILE):
        rows = slice(i0, i0 + _PAIR_TILE)
        for j0 in range(i0, n, _PAIR_TILE):
            cols = slice(j0, j0 + _PAIR_TILE)
            sq = np.zeros((len(parts[rows]), len(parts[cols])))
            for x in parts.T:
                d = np.subtract.outer(x[rows], x[cols])
                d *= d
                sq += d
            # not (sq > bound), so a NaN distance stays a candidate
            i, j = np.nonzero(
                ~(sq > np.maximum.outer(bound[rows], bound[cols])))
            i += i0
            j += j0
            upper = j > i
            ii.append(i[upper])
            jj.append(j[upper])
    ii, jj = np.concatenate(ii), np.concatenate(jj)
    order = np.lexsort((jj, ii))
    return zip(ii[order].tolist(), jj[order].tolist())


def _klein_vectors(points, omega, tol):
    """Klein coordinate vector of each row of ``points``, or the
    :class:`PointOnTheta` it raises, from one theta_batch call."""
    g = omega.dim
    vals, _, scales = theta_batch(points, omega,
                                  [Characteristic.zero(g)] * len(points),
                                  [2] * len(points), tol)
    hessians, errors = log_theta_hessians(g, vals, scales)
    rows, cols = _triu_indices(g)
    return [c if error is None else error
            for c, error in zip(hessians[:, rows, cols], errors)]


def _collision_kinds(points, pairs, omega):
    """"equal", "negation" or "nontrivial" for each pair (i, j): whether
    e_i - e_j, else e_i + e_j, lies in the lattice (every lattice
    coordinate within 1e-6 of an integer).

    Both tests run on all pairs at once, with one lattice_coordinates
    call on the stacked differences and one on the stacked sums.
    """
    if not pairs:
        return []
    i, j = np.array(pairs).T
    on_lattice = []
    for sign in (-1.0, 1.0):
        a, b = lattice_coordinates(points[i] + sign * points[j], omega)
        allc = np.concatenate([a, b], axis=1)
        on_lattice.append(np.max(np.abs(allc - np.round(allc)), axis=1)
                          < 1e-6)
    return np.where(on_lattice[0], "equal",
                    np.where(on_lattice[1], "negation", "nontrivial")).tolist()


def finiteness_probe(curve: HyperellipticCurve, n_samples: int,
                     collision_tol: float = 1e-6, seed: int = 0,
                     tol=DEFAULT_TOL, extra_points=None) -> ProbeReport:
    """Sample the Klein coordinate map and report near-coincident values.

    Points e = a + Omega b are drawn uniformly from the fundamental
    domain (a, b in [-1/2, 1/2)^g), rejecting points on the theta
    divisor.  Every pair closer than ``collision_tol`` relative to the
    coordinate norms is reported and classified as trivial when
    e' = +-e modulo the lattice within 1e-6 in lattice coordinates.

    Samples are drawn in the order a single-point loop draws them and
    evaluated in chunks of about ``_PROBE_POINTS`` lattice points (at
    least one row) per theta_batch call, with the points per row from
    :func:`theta.points_per_row`; the extra points take one more call.
    Pairs are found by a candidate filter with bounded memory (see
    :func:`_collision_candidates`) followed by the exact relative test
    on the candidates only, in ascending (i, j) order, and classified
    all at once; the report is the one a test of every pair gives.
    """
    if n_samples < 2:
        raise ValueError("need at least two samples")
    omega = curve.omega
    g = omega.dim
    rows = max(1, int(_PROBE_POINTS / theta.points_per_row(omega, 2, tol)))
    rng = np.random.default_rng(seed)
    points = []
    coords = []
    rejected = 0
    while len(points) < n_samples:
        # a then b for each sample: the stream of per-sample draws
        ab = rng.uniform(-0.5, 0.5,
                         (min(rows, n_samples - len(points)), 2, g))
        # stacked products match omega.entries @ b row by row
        chunk = ab[:, 0] + (omega.entries @ ab[:, 1, :, None])[:, :, 0]
        for e, c in zip(chunk, _klein_vectors(chunk, omega, tol)):
            if isinstance(c, PointOnTheta):
                rejected += 1
                continue
            points.append(e)
            coords.append(c)
    extra = [] if extra_points is None else \
        [np.asarray(e, dtype=complex).reshape(-1) for e in extra_points]
    if extra:
        for e, c in zip(extra, _klein_vectors(np.array(extra), omega, tol)):
            if isinstance(c, PointOnTheta):
                raise c
            points.append(e)
            coords.append(c)
    pairs, rel = [], []
    with np.errstate(over="ignore"):  # overflow only adds candidates
        candidates = list(_collision_candidates(np.array(coords),
                                                collision_tol))
        norms = {k: np.linalg.norm(coords[k])
                 for pair in candidates for k in pair}
        for i, j in candidates:
            norm = max(norms[i], norms[j])
            dist = float(np.linalg.norm(coords[i] - coords[j]))
            if dist < collision_tol * max(norm, 1e-300):
                pairs.append((i, j))
                rel.append(dist / max(norm, 1e-300))
    kinds = _collision_kinds(np.array(points), pairs, omega)
    collisions = [Collision(i=i, j=j, relative_distance=r,
                            trivial=kind != "nontrivial", kind=kind)
                  for (i, j), r, kind in zip(pairs, rel, kinds)]
    return ProbeReport(
        genus=g, n_samples=n_samples, seed=seed,
        collision_tol=collision_tol, floor=theta.THETA_FLOOR,
        n_rejected=rejected,
        points=[list(p) for p in points],
        coordinates=[list(c) for c in coords],
        collisions=collisions,
        n_nontrivial=sum(1 for c in collisions if not c.trivial))


# ----------------------------------------------------------------------
# A-periods of the Bergman kernel (verification helper)
# ----------------------------------------------------------------------

def bergman_a_period(curve: HyperellipticCurve, x: SurfacePoint,
                     cut_index: int, n_nodes: int = 256) -> complex:
    """A-period in the second argument of the Bergman kernel (expected 0).

    The trapezoid rule on :meth:`HyperellipticCurve.cycle_contour`, with
    the kernel at every node from one :func:`_bergman_values` call, so
    each node's value is :func:`bergman_kernel`'s.  The contour nodes
    count as sheet 1 for the diagonal test.
    """
    _require_off_branch(x)
    xs, ys, dxs = curve.cycle_contour(cut_index, n_nodes)
    if x.sheet == 1 and np.any(np.abs(x.x - xs) < 1e-13):
        raise OnDiagonal("Bergman kernel evaluated at coinciding points")
    total = 0j
    for val, dxv in zip(_bergman_values(curve, x, xs, ys).tolist(), dxs):
        total += val * dxv
    return total * (2 * math.pi / n_nodes) / (2 * math.pi)
