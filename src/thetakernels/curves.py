"""Hyperelliptic curves y^2 = f(x): periods, Abel map, Klein's algebraic data.

Branch points are sorted lexicographically by (Re, Im) (see
:func:`_chain_order`) and paired consecutively into cuts (b_0 b_1),
(b_2 b_3), ...; the k-th A-cycle encircles the k-th cut and the k-th
B-cycle runs through cuts k..g+1 on both sheets.  Cycle integrals reduce
to integrals over the cut and gap segments of the chain, and every
integral, of a segment or of an Abel-map path, goes through one leg
integrator (:meth:`HyperellipticCurve._integrate_legs`).  A leg is
straight and cut up front into pieces no longer than ``_GRADING`` times
the distance from their start to the nearest branch point; one composite
Gauss-Legendre rule covers a leg, its order doubling until the leg's
total is stable, with rules read from the table ``gauss_legendre.npy``
(written from numpy's ``leggauss``, so the results do not depend on the
machine's eigenvalue solver).  A leg that starts at a branch point runs
in s, x = b + s^2 (z - b), which takes the square-root singularity out.
Every root of f along a leg comes from :func:`_sqrt_grids`, which
continues it along many grids at once.

A segment (b_j, b_j+1) is the two legs from its ends to its midpoint; a
single analytic branch of y is continued along the whole chain, through
each branch point by a small detour whose side is chosen
deterministically.  The Abel map integrates from the first branch point
along the legs of a route around the branch points; the images of
several points (:meth:`HyperellipticCurve.abel_images`) are integrated in
one sweep over the legs at each depth of their routes, and each keeps the
bits it gets alone.  Evaluation points keep a fixed margin of
``MARGIN_FACTOR`` times the root scale from the branch points.

The segment integrals give the A-periods of x^k dx / y up to k = 2g,
hence the matrix K of Klein's closed form of the Bergman kernel (see
:mod:`thetakernels.kernels`); the curve also keeps the coefficient
matrices of its polynomials F and Q, which :func:`bivariate` evaluates.
"""

from __future__ import annotations

import cmath
import functools
import math
import os
import threading
from dataclasses import dataclass

import numpy as np

from .errors import (DegreeTooSmall, InadmissiblePoint, NonSquarefree,
                     PathThroughBranchPoint, QuadratureNonConvergent)
from .theta import RiemannMatrix

DEFAULT_QUADRATURE_TOL = 1e-11
MARGIN_FACTOR = 1e-3
#: Longest piece of a leg, as a fraction of the distance from its start to
#: the nearest branch point.
_GRADING = 0.5


# ----------------------------------------------------------------------
# Quadrature rules
# ----------------------------------------------------------------------

#: Orders of the Gauss-Legendre rules in gauss_legendre.npy, ascending:
#: the orders m = 12, 24, ..., 384 that the node doubling of a leg can
#: reach.
_RULE_ORDERS = (12, 24, 48, 96, 192, 384)
_RULE_TABLE = os.path.join(os.path.dirname(__file__), "gauss_legendre.npy")


@functools.cache
def _rule_halves():
    """{m: (nodes, weights)} of the positive half of each m-point rule
    of _RULE_ORDERS, as read-only arrays.

    The table holds numpy's leggauss(m)[0][m // 2:] and [1][m // 2:] of
    every order, concatenated in ascending order, in two rows; leggauss
    makes its rules exactly symmetric, so the halves give the whole
    rules bit for bit.
    """
    table = np.load(_RULE_TABLE)
    table.flags.writeable = False
    ends = np.cumsum([m // 2 for m in _RULE_ORDERS])
    return {m: (table[0, end - m // 2:end], table[1, end - m // 2:end])
            for m, end in zip(_RULE_ORDERS, ends)}


@functools.cache
def _gauss_legendre(m):
    """Nodes (ascending) and weights of the m-point Gauss-Legendre rule on
    [-1, 1] for m in _RULE_ORDERS, built once per order from the table and
    returned as read-only arrays; ValueError for any other m."""
    halves = _rule_halves()
    if m not in halves:
        raise ValueError(f"no {m}-point Gauss-Legendre rule in the table "
                         f"(orders {', '.join(map(str, _RULE_ORDERS))})")
    x, w = halves[m]
    nodes = np.concatenate((-x[::-1], x))
    weights = np.concatenate((w[::-1], w))
    nodes.flags.writeable = False
    weights.flags.writeable = False
    return nodes, weights


# ----------------------------------------------------------------------
# Square-root continuation along ordered sample points
# ----------------------------------------------------------------------

def _sqrt_grids(func, grids, anchors):
    """sqrt(func) along each ascending grid of ``grids``, continued from
    the principal root at its first point (or from its anchor, when that
    is not None) once midpoints resolve the winding of func on the grid:
    every ratio of consecutive samples turns by at most pi/2.

    func(ts, grid) gives the samples at the points ts of the grids
    ``grid`` (an index per point), elementwise.  The grids that need
    samples get them from one call, one winding test and one np.sqrt of
    their ratios, while each grid keeps its own cumprod chain, so its
    roots are the ones a call with that grid alone gives.  Returns
    (refined grid, roots at its points) per grid; PathThroughBranchPoint
    when 40 rounds of midpoints leave a grid winding.
    """
    out = [None] * len(grids)
    grids = list(grids)
    todo = list(range(len(grids)))
    for _ in range(40):
        if not todo:
            return out
        sizes = [len(grids[i]) for i in todo]
        vals = func(np.concatenate([grids[i] for i in todo]),
                    np.repeat(todo, sizes))
        # the ratios across the border of two grids are never read
        ratios = vals[1:] / vals[:-1]
        # np.angle of the ratios
        bad = np.abs(np.arctan2(ratios.imag, ratios.real)) > 0.5 * math.pi
        ends = np.cumsum(sizes).tolist()
        bad[[end - 1 for end in ends[:-1]]] = False
        roots = np.sqrt(ratios)
        any_bad = bad.any()
        winding = []
        for i, start, end in zip(todo, [0] + ends, ends):
            grid = grids[i]
            worse = bad[start:end - 1]
            if any_bad and worse.any():
                mids = 0.5 * (grid[:-1][worse] + grid[1:][worse])
                grids[i] = np.sort(np.concatenate([grid, mids]))
                winding.append(i)
                continue
            first = cmath.sqrt(vals[start]) if anchors[i] is None \
                else anchors[i]
            out[i] = grid, np.concatenate(
                ([first], first * np.cumprod(roots[start:end - 1])))
        todo = winding
    if not todo:
        return out
    raise PathThroughBranchPoint("sample refinement failed to resolve winding")


_ZERO, _ONE = np.zeros(1), np.ones(1)


# ----------------------------------------------------------------------
# Surface points and local data
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class SurfacePoint:
    """A point (x, y) on the curve with a chart t: x = x0 + chart_scale * t."""

    x: complex
    sheet: int
    y: complex
    chart_scale: float = 1.0

    def __post_init__(self):
        if not 0.0 < self.chart_scale < math.inf:
            raise InadmissiblePoint(
                f"chart scale {self.chart_scale!r} is not finite and positive")

    def key(self):
        return (round(self.x.real, 12), round(self.x.imag, 12), self.sheet)


def bivariate(c, x1, x2):
    """sum_ab c[a, b] x1^a x2^b by Horner's rule: in x2 for every power
    of x1 at once, then in x1.  Elementwise in arrays x1 and x2 of one
    shape (or scalars), so each entry is the one a single pair gives."""
    x1, x2 = np.asarray(x1), np.asarray(x2)
    inner = np.zeros((c.shape[0],) + x2.shape, dtype=complex)
    for col in c.T[::-1]:
        inner = inner * x2 + col.reshape(col.shape + (1,) * x2.ndim)
    out = inner[-1]
    for row in inner[-2::-1]:
        out = out * x1 + row
    return out


def _divide_by_difference(p):
    """Coefficients (p[a, b] of x1^a x2^b) of P / (x1 - x2) for P(x, x) = 0:
    synthetic division in x1, with coefficients polynomials in x2."""
    rows, cols = p.shape
    q = np.zeros((rows - 1, cols + 1), dtype=complex)
    q[-1, :cols] = p[-1]
    for a in range(rows - 2, 0, -1):
        q[a - 1, :cols] = p[a]
        q[a - 1, 1:] += q[a, :-1]
    return q


def _klein_polynomials(lam, g):
    """Coefficient matrices of F (g + 2 square) and of
    Q = (F^2 - 4 f(x1) f(x2)) / (x1 - x2)^2 (2g + 1 square)."""
    n = len(lam) - 1
    m = g + 2
    F = np.zeros((m, m), dtype=complex)
    for k in range(n // 2 + 1):
        F[k, k] += 2.0 * lam[2 * k]
        if 2 * k + 1 <= n:
            F[k + 1, k] += lam[2 * k + 1]
            F[k, k + 1] += lam[2 * k + 1]
    p = np.zeros((2 * m - 1, 2 * m - 1), dtype=complex)
    p[:n + 1, :n + 1] = -4.0 * np.outer(lam, lam)
    for (a, b), c in np.ndenumerate(F):
        p[a:a + m, b:b + m] += c * F
    q = _divide_by_difference(_divide_by_difference(p))
    # Q is symmetric, so its degree in x2 is its degree 2g in x1; the
    # columns past it are rounding left by the divisions
    return F, q[:, :2 * g + 1]


def _chain_order(roots, scale):
    """Indices that order ``roots`` into the chain of cuts and gaps:
    lexicographically by (Re, Im), with real parts within 1e-9 of
    ``scale`` counted as equal, so that rounding noise cannot order the
    roots on one vertical line.  The chain is monotone in (Re, Im), so it
    never crosses itself and none of its segments runs through a root;
    the graded legs integrate a segment that passes close to one."""
    return np.lexsort((roots.imag, np.round(roots.real / (1e-9 * scale))))


class HyperellipticCurve:
    """Immutable curve data: branch points, homology chain, periods, memo."""

    def __init__(self, coeffs, quadrature_tol=DEFAULT_QUADRATURE_TOL):
        coeffs = np.asarray(coeffs, dtype=complex)
        if not np.all(np.isfinite(coeffs)):
            raise ValueError("coefficients of f must be finite")
        while len(coeffs) > 1 and coeffs[-1] == 0:
            coeffs = coeffs[:-1]
        degree = len(coeffs) - 1
        if degree < 3:
            raise DegreeTooSmall(f"deg f = {degree} < 3")
        self.coeffs = coeffs
        self.degree = degree
        self.genus = (degree - 1) // 2
        self.lead = coeffs[-1]
        roots = self._polished_roots()
        self.scale = max(1.0, float(np.max(np.abs(roots))))
        dmin = min(abs(a - b) for i, a in enumerate(roots)
                   for b in roots[i + 1:])
        if dmin <= 1e-10 * self.scale:
            raise NonSquarefree(f"min root separation {dmin:.2e}")
        self.branch_points = roots[_chain_order(roots, self.scale)]
        self.odd_degree = (degree % 2 == 1)
        self.margin = MARGIN_FACTOR * self.scale
        # how far Abel-map paths keep off the branch points
        self._clearance = max(3.0 * self.margin,
                              min(0.25 * dmin, 0.1 * self.scale))
        self.quadrature_tol = quadrature_tol
        self._lock = threading.Lock()
        self._memo = {}
        self._slots = {}
        self._compute_periods()

    def memo(self, key, compute):
        """The value stored under ``key``, from compute() on a miss: the
        kernels' odd characteristic and its theta gradient at 0, and the
        Abel images under ("abel", x, sheet), which :meth:`abel_images`
        reads and stores itself.  Entries are never dropped; data that
        depends on a class or a pair goes in a slot (:meth:`held`).

        compute() runs outside the lock; when two threads miss at once,
        both compute the same deterministic value and the first one
        stored is returned to both.
        """
        with self._lock:
            hit = self._memo.get(key)
        if hit is None:
            value = compute()
            with self._lock:
                hit = self._memo.setdefault(key, value)
        return hit

    def held(self, kind, key):
        """The value the ``kind`` slot holds for ``key``, or None when it
        holds another key or none.  A slot keeps the last (key, value)
        stored (:meth:`hold`), read and written as one pair under the
        lock, so threads asking for different keys each get their own
        key's value: the kernels keep c(e) of the last class under
        "klein" and E(x, y) of the last pair under "pair"."""
        with self._lock:
            hit = self._slots.get(kind)
        return hit[1] if hit is not None and hit[0] == key else None

    def hold(self, kind, key, value):
        """Make ``value`` (never None) the ``kind`` slot's entry, for
        ``key`` (:meth:`held`)."""
        with self._lock:
            self._slots[kind] = (key, value)

    # -- construction -----------------------------------------------------

    def _polished_roots(self):
        roots = np.roots(self.coeffs[::-1])
        dpoly = np.polyder(self.coeffs[::-1])
        for _ in range(3):
            num = np.polyval(self.coeffs[::-1], roots)
            den = np.polyval(dpoly, roots)
            step = np.where(np.abs(den) > 0, num / np.where(den == 0, 1, den), 0)
            roots = roots - step
        return roots

    def f(self, x):
        return np.polyval(self.coeffs[::-1], x)

    # -- segment chain -----------------------------------------------------

    def _deflated_f(self, offset, drop):
        """f(x) / (x - b_i) at x = b_i + offset, for each entry of the array
        ``offset`` and b_i the branch point whose index is the matching
        entry of the array ``drop``: the linear factors (b_i - b) + offset,
        which keep their relative precision next to a close root b,
        multiplied in one at a time, with 1 in place of the dropped one.
        Adding 0.0 makes every zero part +0, so the legs that start at one
        branch point from two directions take the same principal root
        there."""
        b = self.branch_points
        factors = (b[drop] - b[:, None]) + offset
        factors[drop, np.arange(len(offset))] = 1.0
        out = self.lead * factors[0]
        for row in factors[1:]:
            out = out * row
        return out + 0.0

    def _chain_signs(self, mids, ratios):
        """Sign of each segment's integral on the branch of y of the leg
        from its first end, given ``ratios``, the sign of that leg's y over
        the other leg's at the midpoint ``mids``; the first segment's is
        :meth:`_first_cut_sign`.

        The continuation through branch point b passes around it on an
        arc sweeping the principal angle between the incoming and the
        outgoing directions (ties resolved to +pi).  The legs on either
        side of b start from one principal root of f(x) / (x - b), so the
        incoming germ sqrt(x - b), turned through that angle, is the
        outgoing one up to the sign e^(i (turned - principal) / 2); the
        side of each segment on which the continuation runs (relative to
        a fixed reference side used by the cycle orientations) flips
        whenever the swept angle is negative.
        """
        b = self.branch_points
        eps = self._first_cut_sign()
        side = 1.0
        out = [eps]
        for j in range(len(mids) - 1):
            th_in = cmath.phase(mids[j] - b[j + 1])
            principal = cmath.phase(mids[j + 1] - b[j + 1]) - th_in
            delta = principal
            while delta <= -math.pi:
                delta += 2 * math.pi
            while delta > math.pi:
                delta -= 2 * math.pi
            if abs(abs(delta) - math.pi) < 1e-12:
                delta = math.pi
            turned = 1.0 if abs(delta - principal) < math.pi else -1.0
            eps = eps * ratios[j] * turned
            side = side * (1.0 if delta > 0 else -1.0)
            out.append(eps * side)
        return out

    def _first_cut_sign(self):
        """+1 or -1: the sign that takes the first leg's branch of y to
        the branch that orients every cycle.

        Near b_0 the first leg's y is sqrt(x - b_0) h, with h the principal
        root of f(x) / (x - b_0) at b_0, as the leg takes it.  The cycles
        are oriented by y = i e w(s) sqrt(1 - s^2) on the first cut
        x = mid + e s, with w the principal root of
        f(x) / ((x - b_0)(x - b_1)) at s = -1.  On a real curve that
        radicand lies on the negative real axis up to rounding, and its
        rounding picks w; it is evaluated at x = mid - e with the factors
        multiplied by np.prod, and the signs of A, B and every Abel image
        depend on that arithmetic, so it must not change.
        """
        b = self.branch_points
        mid, e = 0.5 * (b[0] + b[1]), 0.5 * (b[1] - b[0])
        x = mid + e * np.array([-1.0], dtype=complex)
        w = cmath.sqrt((self.lead * np.prod(x[:, None] - b[None, 2:],
                                            axis=1))[0])
        germ = np.sqrt(complex(mid - b[0])) * cmath.sqrt(
            self._deflated_f(np.zeros(1), np.zeros(1, int))[0])
        return 1.0 if (1j * e * math.sqrt(2.0) * w / germ).real > 0 else -1.0

    def _second_kind(self):
        """D with eta = D @ (A-periods of x^k dx / y, k <= 2g): row j holds
        dr_j = sum_k (k - j) lam_(k+j+2) x^k dx / (4y), k = j+1..2g-j."""
        g, lam = self.genus, self.coeffs
        D = np.zeros((g, 2 * g + 1), dtype=complex)
        for j in range(g):
            for k in range(j + 1, 2 * g - j + 1):
                if k + j + 2 <= self.degree:
                    D[j, k] = 0.25 * (k - j) * lam[k + j + 2]
        return D

    def _compute_periods(self):
        """A, B, Omega and the rest from the integrals of x^k dx / y,
        k <= 2g, over the segments of the chain, each the two legs from
        its ends to its midpoint, all in one sweep of
        :meth:`_integrate_legs`."""
        g, b = self.genus, self.branch_points
        mids = 0.5 * (b[:-1] + b[1:])
        legs = [(b[j + end], mid, None) for j, mid in enumerate(mids)
                for end in (0, 1)]
        totals, ys = zip(*self._integrate_legs(
            legs, max(self.quadrature_tol, 1e-13), np.eye(2 * g + 1)))
        ratios = [1.0 if (y0 / y1).real > 0 else -1.0
                  for y0, y1 in zip(ys[0::2], ys[1::2])]
        signs = self._chain_signs(mids, ratios)
        seg = [sign * (first - ratio * second) for sign, ratio, first, second
               in zip(signs, ratios, totals[0::2], totals[1::2])]
        A = np.empty((g, g), dtype=complex)
        B = np.empty((g, g), dtype=complex)
        for c in range(1, g + 1):
            A[:, c - 1] = 2.0 * seg[2 * (c - 1)][:g]
        for k in range(1, g + 1):
            B[:, k - 1] = 2.0 * sum(seg[2 * j - 1][:g]
                                    for j in range(k, g + 1))
        eta = self._second_kind() @ np.array([2.0 * seg[2 * c]
                                              for c in range(g)]).T
        self._segments_cache = [s[:g] for s in seg]
        omega = np.linalg.solve(A, B)
        self.symmetry_residual = float(np.max(np.abs(omega - omega.T)))
        omega = 0.5 * (omega + omega.T)
        eig = np.linalg.eigvalsh(omega.imag)
        if np.all(eig < 0):
            # opposite global orientation of the B-cycles; the segment
            # integrals themselves (hence Abel images) are unaffected
            B = -B
            omega = -omega
        elif not np.all(eig > 0):
            raise QuadratureNonConvergent(
                "period matrix imaginary part is indefinite; "
                "homology convention failed for this branch configuration")
        self.A = A
        self.B = B
        self.omega = RiemannMatrix(omega)
        # rows C with omega_i = sum_j C_ij x^j dx / y, so A-periods = Id
        self.diff_norm = np.linalg.inv(A)
        # the A-periods of B(x1, .) are u(x1)^T (eta + K A): zero
        self.K = -eta @ self.diff_norm
        self.F_coeffs, self.Q_coeffs = _klein_polynomials(self.coeffs, g)
        # f, f', f'', d^2F/dx2^2 and the powers of u = x^i / y, per curve
        self.f_derivs = tuple(np.polyder(self.coeffs[::-1], k)
                              for k in range(3))
        b = np.arange(2, g + 2)
        self.F22_coeffs = self.F_coeffs[:, 2:] * (b * (b - 1))
        self.u_degrees = np.arange(g)

    # -- differentials ------------------------------------------------------

    def eval_differentials(self, p: SurfacePoint):
        """Values omega_i(p)/dt in the chart of p."""
        powers = np.array([p.x ** j for j in range(self.genus)])
        return self.diff_norm @ powers / p.y * p.chart_scale

    # -- points -------------------------------------------------------------

    def _admissible_f(self, x: complex) -> complex:
        """f(x); InadmissiblePoint unless x and f(x) are finite and x
        keeps the margin from every branch point."""
        fx = math.nan
        if cmath.isfinite(x):
            with np.errstate(over="ignore", invalid="ignore"):
                fx = complex(self.f(x))
        if not cmath.isfinite(fx):
            raise InadmissiblePoint(f"x={x}: x and f(x) must be finite")
        if min(abs(x - b) for b in self.branch_points) < self.margin:
            raise InadmissiblePoint(
                f"x={x} within margin {self.margin:.2e} of a branch point")
        return fx

    def point(self, x, sheet=1, chart_scale=1.0) -> SurfacePoint:
        if sheet not in (-1, 1):
            raise InadmissiblePoint(f"sheet {sheet!r} is neither 1 nor -1")
        x = complex(x)
        y = sheet * np.sqrt(self._admissible_f(x))
        return SurfacePoint(x=x, sheet=int(sheet), y=complex(y),
                            chart_scale=float(chart_scale))

    # -- path routing and tracked integration --------------------------------

    def _route(self, a, b, depth=0):
        if depth > 12:
            raise PathThroughBranchPoint("no admissible detour found")
        a, b = complex(a), complex(b)
        d = b - a
        L2 = abs(d) ** 2
        clear = self._clearance
        worst, worst_dist = None, math.inf
        for r in self.branch_points:
            if abs(r - a) < 1e-14 or abs(r - b) < 1e-14:
                continue  # endpoint handled by singular quadrature
            t = ((r - a).real * d.real + (r - a).imag * d.imag) / L2 if L2 > 0 else 0.0
            if not 0.0 < t < 1.0:
                continue
            dist = abs(a + t * d - r)
            if dist < worst_dist:
                worst, worst_dist = (r, t), dist
        if worst is None or worst_dist >= 0.95 * clear:
            return [a, b]
        r, t = worst
        foot = a + t * d
        nvec = foot - r
        if abs(nvec) < 1e-13:
            nvec = 1j * d / abs(d)
        nvec = nvec / abs(nvec)
        detour = r + nvec * clear
        left = self._route(a, detour, depth + 1)
        right = self._route(detour, b, depth + 1)
        return left + right[1:]

    def _leg_breaks(self, z0, z1, others):
        """Break points 0 = t_0 < ... < t_k = 1 of the leg z0 + t (z1 - z0),
        fixed greedily: each piece is at most _GRADING times the distance
        from its start to the nearest of the branch points ``others``;
        PathThroughBranchPoint when the pieces stop advancing, at a leg
        that starts at, or runs into, one of them."""
        d = z1 - z0
        reach = _GRADING / abs(d)
        ts = [0.0]
        while ts[-1] < 1.0:
            x = z0 + ts[-1] * d
            t = min(1.0, ts[-1] + reach * min([abs(x - b) for b in others]))
            if t <= ts[-1]:
                raise PathThroughBranchPoint(
                    f"path leg {z0} -> {z1} meets a branch point")
            ts.append(t)
        return np.array(ts)

    def _integrate_legs(self, legs, tol, basis):
        """Integrals of the rows basis @ (x^0, x^1, ...) dx / y along each
        straight leg (z0, z1, y0) of ``legs``, and y at z1, continued from
        y(z0) = y0: the normalized differentials (basis diff_norm) for the
        Abel map, and x^k dx / y, k <= 2g (the identity) for the periods.

        Every piece between a leg's :meth:`_leg_breaks` gets the same
        m-point Gauss-Legendre rule, m running through _RULE_ORDERS until
        the leg's total agrees with the one before within tol, relative to
        its largest entry where that exceeds 1.
        With y0 = None the leg starts at the branch point z0 = b_i and runs
        in s, x = b_i + s^2 (z1 - b_i): then dx / y is the smooth
        2 sqrt(z1 - b_i) ds / h(x), with h the root of f(x) / (x - b_i)
        continued from its principal value at b_i.  Either every leg
        starts at a branch point or none does.

        The legs are swept together: the first round takes the rules of
        orders 12 and 24 of every leg, each later round the next order of
        every leg still open, and the grids of a round share one
        Vandermonde array and one :func:`_sqrt_grids` call.  Each grid
        keeps its own matrix products, whose BLAS bits depend on the
        column count, so every leg gets the bits it gets on its own.
        """
        b = self.branch_points.tolist()
        at_branch = legs[0][2] is None
        # the index of the branch point each leg starts at
        drops = np.array([b.index(z0) if at_branch else 0
                          for z0, _, _ in legs])
        rules = []  # per leg: piece starts, half widths, factor, end factor
        for k, (z0, z1, _) in enumerate(legs):
            d = z1 - z0
            if at_branch:
                i = drops[k]
                breaks = self._leg_breaks(z0, z1, b[:i] + b[i + 1:])
                breaks, root = np.sqrt(breaks), np.sqrt(complex(d))
                factors = 2.0 * root, root
            else:
                breaks = self._leg_breaks(z0, z1, b)
                factors = d, 1.0
            rules.append((breaks[:-1, None], 0.5 * np.diff(breaks)[:, None],
                          *factors))
        origins = np.array([z0 for z0, _, _ in legs], dtype=complex)
        steps = np.array([z1 - z0 for z0, z1, _ in legs], dtype=complex)
        out = [None] * len(legs)
        prev = [None] * len(legs)
        later = [iter(_RULE_ORDERS[2:]) for _ in legs]
        pending = [(k, m) for k in range(len(legs)) for m in _RULE_ORDERS[:2]]

        def path(ts, z0, d):
            return z0 + (ts * ts if at_branch else ts) * d

        def radicand(ts, z0, d, drop):
            if at_branch:
                return self._deflated_f(ts * ts * d, drop)
            return self.f(path(ts, z0, d))

        while pending:
            owner = [k for k, _ in pending]
            z0, d, drop = origins[owner], steps[owner], drops[owner]
            nodes, weights = [], []
            for k, m in pending:
                lo, half = rules[k][:2]
                u, w = _gauss_legendre(m)
                nodes.append((lo + half * (u + 1.0)).ravel())
                weights.append((half * w).ravel())
            # the grids [0, nodes, 1] of the round in one array
            ts = np.concatenate([part for n in nodes
                                 for part in (_ZERO, n, _ONE)])
            sizes = [len(n) + 2 for n in nodes]
            starts = np.cumsum([0] + sizes).tolist()
            x = path(ts, np.repeat(z0, sizes), np.repeat(d, sizes))
            powers = np.vander(x, basis.shape[1], increasing=True)
            roots = _sqrt_grids(
                lambda t, grid: radicand(t, z0[grid], d[grid], drop[grid]),
                [ts[a:a + size] for a, size in zip(starts, sizes)],
                [legs[k][2] for k in owner])
            for (k, _), (grid, r), n, w, a in zip(pending, roots, nodes,
                                                  weights, starts):
                at = r[1:-1] if len(grid) == len(n) + 2 \
                    else r[np.searchsorted(grid, n)]
                _, _, factor, end_factor = rules[k]
                total = factor * (((basis @ powers[a + 1:a + 1 + len(n)].T)
                                   / at) @ w)
                if prev[k] is not None and abs(total - prev[k]).max() \
                        <= tol * max(1.0, abs(total).max()):
                    out[k] = total, end_factor * r[-1]
                prev[k] = total
            pending = []
            for k in range(len(legs)):
                if out[k] is None:
                    m = next(later[k], None)
                    if m is None:
                        z0, z1, _ = legs[k]
                        raise QuadratureNonConvergent(
                            f"quadrature did not converge on the leg "
                            f"{z0} -> {z1}")
                    pending.append((k, m))
        return out

    def _integrate_paths(self, routes, y0, tol):
        """Integral of the normalized differentials along each polygon of
        ``routes``, and y at its end, continued from y0 at their common
        start (None when that is b_0, as in :meth:`_integrate_legs`); the
        legs at one depth of all the polygons make one sweep."""
        totals = [np.zeros(self.genus, dtype=complex) for _ in routes]
        ys = [y0] * len(routes)
        for depth in range(max(map(len, routes)) - 1):
            open_ = [k for k, route in enumerate(routes)
                     if depth < len(route) - 1]
            legs = [(routes[k][depth], routes[k][depth + 1], ys[k])
                    for k in open_]
            for k, (part, y) in zip(open_, self._integrate_legs(
                    legs, tol, self.diff_norm)):
                totals[k] += part
                ys[k] = y
        return list(zip(totals, ys))

    # -- Abel map -------------------------------------------------------------

    def abel_images(self, points):
        """Abel image of each of ``points``, modulo the period lattice, as
        fresh arrays.

        Images are integrated from the first branch point and memoised
        per exact (x, sheet); the ones the memo lacks are integrated in
        one :meth:`_integrate_paths` sweep, each with the bits it gets on
        its own.  When the sweep raises, the points go one at a time, so
        the first point that fails raises what it raises on its own.
        """
        keys = [("abel", p.x, p.sheet) for p in points]
        with self._lock:
            images = [self._memo.get(key) for key in keys]
        missing = {}
        for key, p, image in zip(keys, points, images):
            if image is None:
                missing.setdefault(key, p)
        if missing:
            todo = list(missing.values())
            try:
                found = self._abel_from_b0(todo)
            except (PathThroughBranchPoint, QuadratureNonConvergent):
                if len(todo) == 1:
                    raise
                for p in todo:
                    self.abel_images((p,))
                raise
            with self._lock:
                for key, image in zip(missing, found):
                    missing[key] = self._memo.setdefault(key, image)
            images = [missing.get(key, image)
                      for key, image in zip(keys, images)]
        return [image.copy() for image in images]

    def abel_map(self, p: SurfacePoint, base: SurfacePoint = None):
        """Abel image of p (minus that of base), modulo the period lattice:
        :meth:`abel_images` of p, or of p and base."""
        if base is None:
            image, = self.abel_images((p,))
            return image
        image, start = self.abel_images((p, base))
        image -= start
        return image

    def _abel_from_b0(self, points):
        """The Abel images of ``points``, integrated from b_0 together."""
        routes = [self._route(self.branch_points[0], p.x) for p in points]
        out = []
        for p, (total, y_end) in zip(points, self._integrate_paths(
                routes, None, max(self.quadrature_tol, 1e-13))):
            d_plus = abs(y_end - p.y)
            d_minus = abs(y_end + p.y)
            if min(d_plus, d_minus) > 1e-4 * max(1.0, abs(p.y)):
                raise PathThroughBranchPoint(
                    "sheet tracking inconsistent at target")
            out.append(-total if d_minus < d_plus else total)
        return out

    def abel_branch_point(self, i: int):
        """Abel image of the i-th branch point along the segment chain."""
        if i == 0:
            return np.zeros(self.genus, dtype=complex)
        total = sum(self._segments_cache[j] for j in range(i))
        return self.diff_norm @ np.asarray(total)

    # -- closed contours around cuts ------------------------------------------------

    def cycle_contour(self, cut_index: int, n_nodes: int = 256):
        """Points, y-values and dx/dtheta on an ellipse around the cut.

        The ellipse has foci at the cut endpoints and clears all other
        branch points; y is continued around by continuity (an even
        number of enclosed branch points makes it close up).  ValueError
        for a cut_index that names no cut (g of them for odd degree,
        g + 1 for even) or for fewer than one node.
        """
        cuts = len(self.branch_points) // 2
        if not (0 <= cut_index < cuts and n_nodes >= 1):
            raise ValueError(f"no cycle contour around cut {cut_index} with "
                             f"{n_nodes} nodes (cuts 0..{cuts - 1})")
        j = 2 * cut_index
        b = self.branch_points
        mid, e = 0.5 * (b[j] + b[j + 1]), 0.5 * (b[j + 1] - b[j])
        clear = min(abs(r - mid) - abs(e) for r in np.delete(b, [j, j + 1]))
        clear = max(min(0.5 * clear, abs(e)), 2 * self.margin)
        mu = math.asinh(clear / abs(e))
        theta = 2 * math.pi * np.arange(n_nodes) / n_nodes
        (grid, roots), = _sqrt_grids(
            lambda ths, _: self.f(mid + e * np.cosh(mu + 1j * ths)),
            [np.append(theta, 2 * math.pi)], [None])
        if abs(roots[-1] - roots[0]) > 1e-6 * max(abs(roots[0]), 1e-30):
            raise PathThroughBranchPoint("cycle contour did not close up")
        x = mid + e * np.cosh(mu + 1j * theta)
        dx = e * np.sinh(mu + 1j * theta) * 1j
        return x, roots[np.searchsorted(grid, theta)], dx

    def __repr__(self):
        return (f"HyperellipticCurve(degree={self.degree}, genus={self.genus})")


# ----------------------------------------------------------------------
# Public constructors and helpers
# ----------------------------------------------------------------------

def build_curve(f_coeffs,
                quadrature_tol=DEFAULT_QUADRATURE_TOL) -> HyperellipticCurve:
    """Curve y^2 = f(x) from ascending coefficients of a squarefree f."""
    return HyperellipticCurve(f_coeffs, quadrature_tol)


def curve_from_spec(spec: dict, **kwargs) -> HyperellipticCurve:
    """Curve from the JSON form {"f": [c0, c1, ...]}; entries may be
    plain numbers or [re, im] pairs."""
    if not (isinstance(spec, dict) and isinstance(spec.get("f"), list)):
        raise ValueError('curve spec must be an object with a list "f"')
    coeffs = [_parse_complex(c) for c in spec["f"]]
    return build_curve(coeffs, **kwargs)


def _parse_complex(c):
    """A number or an [re, im] pair as a complex; ValueError otherwise,
    also for a boolean (JSON true), which complex() would read as 1."""
    pair = isinstance(c, (list, tuple))
    if pair and len(c) != 2:
        raise ValueError(f"complex entries must be [re, im], got {c}")
    try:
        if any(isinstance(x, bool) for x in (c if pair else [c])):
            raise TypeError
        return complex(float(c[0]), float(c[1])) if pair else complex(c)
    except TypeError:
        raise ValueError(f"entries must be numbers or [re, im] pairs, "
                         f"got {c!r}") from None


def lattice_coordinates(z, omega: RiemannMatrix):
    """Real coordinates (a, b) with z = a + Omega b, for a g-vector z or
    for each row of an (N, g) array (then a and b are (N, g) too).

    Rows go through stacked matrix-vector products, which numpy makes
    with the same BLAS call as the product for a single vector, so each
    row is bit for bit the single-vector result.
    """
    z = np.asarray(z, dtype=complex)
    if z.ndim != 2:
        z = z.reshape(-1)
    b = (omega.im_inv @ z.imag[..., None])[..., 0]
    a = z.real - (omega.entries.real @ b[..., None])[..., 0]
    return a, b
