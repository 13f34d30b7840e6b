"""Exact jet calculus for kernel functions near the diagonal.

A kernel jet is a truncated expansion

    s = sum_{j=0}^{m-1} a_j(z1) * (z1 - z2)^(j - pole)
        * (dz1)^(weight/2) (dz2)^(weight/2)

of a two-point section on a formal disk, where the a_j are r x r
matrices of truncated power series in z1.  All operations (the
differential-operator dictionary, flat extensions of connections,
projective-structure kernels, matrix opers, trace/determinant maps and
the quadratic projection) are exact over Gaussian-rational coefficients:
every Series has :class:`~thetakernels.series.QC` coefficients.  A
scalar u-expansion sum_k b_k(z) u^k (a chart difference, a power of it,
one entry of a matrix jet) is a rank-1, weight-0, pole-0
:class:`JetKernel`, so one product, sum and power serve every expansion;
products of u-expansions also bound each slot's truncation order by
the orders of their factors (:func:`_expansion_mul`).

Index conventions: ``u = z1 - z2``; the restriction to the diagonal in
the canonical trivialization is the coefficient a_d with d = pole -
weight, so "monic" means a_j = 0 for j < d and a_d = Id.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction

from .errors import (DiagonalValueMismatch, NonInvertibleChart, NotMonic,
                     NotMonicOn2Delta, TraceNotZero, TruncationUnderflow,
                     WeightMismatch)
from .series import QC, Series, _compose, _dot, _power, _powers

DEFAULT_ORDER = 16


# ----------------------------------------------------------------------
# Small matrix helpers (entries are Series; ranks are tiny)
# ----------------------------------------------------------------------

def _mat_zero(r, n):
    return [[Series.zero(n) for _ in range(r)] for _ in range(r)]

def _mat_id(r, n, value=1):
    m = _mat_zero(r, n)
    for i in range(r):
        m[i][i] = Series.const(value, n)
    return m

def _mat_add(a, b):
    return [[x + y for x, y in zip(ra, rb)] for ra, rb in zip(a, b)]

def _mat_scale(a, s):
    return [[x * s for x in row] for row in a]

def _mat_dot(pairs, r, n):
    """Sum of the r x r products a b over the matrix pairs (a, b), a 1 x 1
    factor as a scalar: one ``series._dot`` (orders at most n) per entry."""
    def entry(a, b, i, j):
        if len(a) == len(b):
            return [(a[i][k], b[k][j]) for k in range(len(b))]
        return [(a[0][0], b[i][j])] if len(a) == 1 else [(a[i][j], b[0][0])]
    return [[_dot([x for a, b in pairs for x in entry(a, b, i, j)], n)
             for j in range(r)] for i in range(r)]

def _mat_deriv(a, k=1):
    for _ in range(k):
        a = [[x.derivative() for x in row] for row in a]
    return a

def _mat_trace(a):
    return sum((a[i][i] for i in range(1, len(a))), a[0][0])

def _mat_is_zero(a):
    return all(x.is_zero() for row in a for x in row)

def _mat_eq(a, b):
    return all(x == y for ra, rb in zip(a, b) for x, y in zip(ra, rb))


def _taylor_shift(mat, m, skip=0):
    """The matrices mat^(k+skip) (-1)^k / (k+skip)! for k < m.

    They are the u-expansion of mat(z - u) for ``skip`` 0 and of
    (mat(z) - mat(z - u)) / u for ``skip`` 1.
    """
    d = _mat_deriv(mat, skip)
    out = []
    for k in range(m):
        if k:
            d = _mat_deriv(d)
        out.append(_mat_scale(d, Fraction((-1) ** k, math.factorial(k + skip))))
    return out


# ----------------------------------------------------------------------
# Jet kernels
# ----------------------------------------------------------------------

class JetKernel:
    """Truncated kernel expansion along the diagonal (see module docstring)."""

    __slots__ = ("rank", "weight", "pole", "coeffs")

    def __init__(self, rank, weight, pole, coeffs):
        self.rank = rank
        self.weight = weight
        self.pole = pole
        self.coeffs = coeffs   # list (length m) of r x r matrices of Series

    @property
    def order(self):
        return len(self.coeffs)

    @property
    def diag_index(self):
        return self.pole - self.weight

    @property
    def series_order(self):
        return self.coeffs[0][0][0].n

    def copy(self):
        return JetKernel(self.rank, self.weight, self.pole,
                         [[[s.copy() for s in row] for row in mat]
                          for mat in self.coeffs])

    def coeff(self, j):
        if 0 <= j < len(self.coeffs):
            return self.coeffs[j]
        return _mat_zero(self.rank, self.series_order)

    def scalar_coeff(self, j):
        return self.coeff(j)[0][0]

    def restrict(self, m):
        """Restriction to the m-th order neighborhood (coefficient truncation)."""
        if m > self.order:
            raise TruncationUnderflow(
                f"jet of order {self.order} cannot be restricted to {m}")
        return JetKernel(self.rank, self.weight, self.pole, self.coeffs[:m])

    def diagonal(self):
        """Restriction to the diagonal in the canonical trivialization."""
        d = self.diag_index
        if d < 0:
            raise WeightMismatch("pole smaller than weight has no diagonal value")
        return self.coeff(d)

    def is_monic(self):
        d = self.diag_index
        if d < 0 or d >= self.order:
            return False
        for j in range(d):
            if not _mat_is_zero(self.coeffs[j]):
                return False
        return _mat_eq(self.coeffs[d], _mat_id(self.rank, self.series_order))

    def require_monic(self):
        if not self.is_monic():
            raise NotMonic("kernel does not restrict to the identity on the diagonal")

    # -- algebra ----------------------------------------------------------

    def __add__(self, other):
        p = max(self.pole, other.pole)
        a = self._with_pole(p)
        b = other._with_pole(p)
        if a.weight != b.weight:
            raise WeightMismatch("cannot add kernels of different weights")
        m = min(a.order, b.order)
        return JetKernel(a.rank, a.weight, p,
                         [_mat_add(a.coeffs[j], b.coeffs[j]) for j in range(m)])

    def __sub__(self, other):
        return self + other.scale(-1)

    def _with_pole(self, p):
        if p == self.pole:
            return self
        if p < self.pole:
            raise WeightMismatch("cannot lower the pole order")
        shift = p - self.pole
        pad = [_mat_zero(self.rank, self.series_order) for _ in range(shift)]
        return JetKernel(self.rank, self.weight, p, pad + self.coeffs)

    def scale(self, s):
        return JetKernel(self.rank, self.weight, self.pole,
                         [_mat_scale(mat, s) for mat in self.coeffs])

    def __mul__(self, other):
        """Tensor product of kernels: weights and poles add."""
        if not isinstance(other, JetKernel):
            return self.scale(other)
        m = min(self.order, other.order)
        r1, r2 = self.rank, other.rank
        if r1 != r2 and 1 not in (r1, r2):
            raise WeightMismatch("rank mismatch in kernel product")
        a = [(i, x) for i, x in enumerate(self.coeffs[:m]) if not _mat_is_zero(x)]
        b = [(j, y) for j, y in enumerate(other.coeffs[:m]) if not _mat_is_zero(y)]
        out = [_mat_dot([(x, y) for i, x in a for j, y in b if i + j == k],
                        max(r1, r2), self.series_order) for k in range(m)]
        return JetKernel(max(r1, r2), self.weight + other.weight,
                         self.pole + other.pole, out)

    def swap(self):
        """Pullback under (z1, z2) -> (z2, z1), no matrix transpose."""
        m = self.order
        out = [_mat_zero(self.rank, self.series_order) for _ in range(m)]
        for j, mat in enumerate(self.coeffs):
            if _mat_is_zero(mat):
                continue
            if (j - self.pole) % 2:
                mat = _mat_scale(mat, -1)
            for k, term in enumerate(_taylor_shift(mat, m - j)):
                out[j + k] = _mat_add(out[j + k], term)
        return JetKernel(self.rank, self.weight, self.pole, out)

    def trace(self, normalized=True):
        """Scalar kernel of (normalized) traces of the coefficients."""
        out = []
        for mat in self.coeffs:
            t = _mat_trace(mat)
            if normalized and self.rank > 1:
                t = t * Fraction(1, self.rank)
            out.append([[t]])
        return JetKernel(1, self.weight, self.pole, out)

    def __eq__(self, other):
        if not isinstance(other, JetKernel):
            return NotImplemented
        if self.rank != other.rank or self.weight != other.weight:
            return False
        p = max(self.pole, other.pole)
        a, b = self._with_pole(p), other._with_pole(p)
        m = min(a.order, b.order)
        return all(_mat_eq(a.coeffs[j], b.coeffs[j]) for j in range(m))

    def __repr__(self):
        return (f"JetKernel(rank={self.rank}, weight={self.weight}, "
                f"pole={self.pole}, order={self.order})")


def mu_nu(nu: int, m: int, order: int = DEFAULT_ORDER) -> JetKernel:
    """The canonical rank-1 jet dz^(nu/2) x dz^(nu/2) / (z1-z2)^nu on m-th order."""
    if m < 1:
        raise ValueError("m must be >= 1")
    coeffs = [_mat_id(1, order)] + [_mat_zero(1, order) for _ in range(m - 1)]
    return JetKernel(1, nu, nu, coeffs)


def _expansion_mul(a: JetKernel, b: JetKernel) -> JetKernel:
    """``a * b`` with slot k truncated to the lowest series order among the
    first k + 1 coefficients of ``a`` and ``b``: a zero coefficient of
    order n stands for an unknown O(z^(n+1)) term, which
    ``JetKernel.__mul__`` skips, so u-expansions multiply through here."""
    out = a * b
    n = math.inf
    for k, mat in enumerate(out.coeffs):
        n = min([n] + [x.n for f in (a, b) for row in f.coeff(k) for x in row])
        out.coeffs[k] = [[x.truncate(n) if x.n > n else x for x in row]
                         for row in mat]
    return out


def tensor_power(s: JetKernel, k: int) -> JetKernel:
    """s^k by binary powering: the weight-0 unit for k = 0, and for k < 0
    the power of the reciprocal of a rank-1 ``s``."""
    if k < 0:
        return tensor_power(_reciprocal(s), -k)
    if k == 0:
        return mu_nu(0, s.order, s.series_order)
    return _power(s, k, _expansion_mul)


def _reciprocal(s: JetKernel) -> JetKernel:
    """1/s for a rank-1 jet whose leading Series has a nonzero constant."""
    if s.rank != 1:
        raise WeightMismatch("only rank-1 jets have reciprocals")
    a = [mat[0][0] for mat in s.coeffs]
    n = a[0].n
    lead = a[0].reciprocal()
    out = [lead]
    for k in range(1, s.order):
        out.append(-(lead * _dot([(a[j], out[k - j]) for j in range(1, k + 1)], n)))
    return JetKernel(1, -s.weight, -s.pole, [[[x]] for x in out])


def _pow_fraction(s: JetKernel, alpha: Fraction) -> JetKernel:
    """s^alpha for a rank-1 weight-0 jet whose leading Series is 1."""
    one = mu_nu(0, s.order, s.series_order)
    if not s.scalar_coeff(0) == one.scalar_coeff(0):
        raise ValueError("fractional jet powers need leading coefficient 1")
    x = s - one
    out = term = one
    coeff = Fraction(alpha)
    fact = 1
    for k in range(1, s.order):
        term = _expansion_mul(term, x)
        fact *= k
        out = out + term.scale(coeff / fact)
        coeff *= (alpha - k)
        if not coeff:  # the later terms are zero, of the orders of x^1
            break
    return out


# ----------------------------------------------------------------------
# Differential operators
# ----------------------------------------------------------------------

def _common_denominator(entries):
    """(den, [(re, im, n)]): each Series c_k = (re[k] + i im[k]) / den."""
    den = math.lcm(*(s.ints[2] for s in entries))
    out = []
    for s in entries:
        re, im, d = s.ints
        out.append(([x * (den // d) for x in re], [x * (den // d) for x in im],
                    s.n))
    return den, out


@dataclass
class DiffOperator:
    """Monic operator D^n - q_1 D^(n-1) - ... - q_n with matrix coefficients.

    ``q`` is the list [q_1, ..., q_n] of r x r matrices of Series.  The
    operator acts between the weight-(1-n)/2 and weight-(1+n)/2 twists;
    only the order matters for the formal calculus here.
    """

    order: int
    rank: int
    q: list

    def apply(self, f):
        """Apply to a Series (rank 1) or a list of Series (column vector)."""
        scalar = not isinstance(f, list)
        vec = [f] if scalar else f
        derivs = [vec]
        for _ in range(self.order):
            derivs.append([s.derivative() for s in derivs[-1]])
        out = derivs[self.order]
        for i, qi in enumerate(self.q, start=1):
            d = derivs[self.order - i]
            term = [sum((qi[a][b] * d[b] for b in range(1, self.rank)),
                        qi[a][0] * d[0]) for a in range(self.rank)]
            out = [x - y for x, y in zip(out, term)]
        return out[0] if scalar else out

    def solve(self, initial, order_n: int):
        """Series solution with given jet (f(0), f'(0), ..., f^(n-1)(0)); rank 1."""
        if self.rank != 1:
            raise ValueError("series solve implemented for scalar operators")
        n = self.order
        facts = [1]
        for k in range(1, order_n + n + 1):
            facts.append(facts[-1] * k)
        # Taylor coefficients c[k] = f^(k)(0)/k! of f up to order_n, as
        # Gaussian-integer numerators cr + i ci over one running
        # denominator cd; the q_i share the denominator qd
        cr, ci, cd = Series([QC.of(v) * Fraction(1, facts[k])
                             for k, v in enumerate(initial)]).ints
        cr, ci = list(cr), list(ci)
        qd, qs = _common_denominator([self.q[i][0][0] for i in range(n)])
        for j in range(order_n - n + 1):
            # t^j coefficient of f^(n) equals sum_i [q_i f^(n-i)]_j
            sr = si = 0
            for i, (qr, qi, qn) in enumerate(qs, start=1):
                for a in range(min(j, qn) + 1):
                    b = j - a
                    # [f^(n-i)]_b = c[b + n - i] * (b+n-i)! / b!
                    idx = b + n - i
                    xr, xi = qr[a], qi[a]
                    if idx < len(cr) and (xr or xi):
                        f = facts[idx] // facts[b]
                        yr, yi = cr[idx], ci[idx]
                        sr += (xr * yr - xi * yi) * f
                        si += (xr * yi + xi * yr) * f
            # c[j + n] = rhs * j! / (j+n)!, rhs = (sr + i si) / (qd cd)
            sr, si, d = sr * facts[j], si * facts[j], qd * cd * facts[j + n]
            g = math.gcd(sr, si, d)
            sr, si, d = sr // g, si // g, d // g
            up = d // math.gcd(cd, d)
            if up != 1:
                cr = [x * up for x in cr]
                ci = [x * up for x in ci]
            cd *= up
            cr.append(sr * (cd // d))
            ci.append(si * (cd // d))
        return Series.from_ints(cr, ci, cd, order_n)


# ----------------------------------------------------------------------
# Kernel <-> operator dictionary
# ----------------------------------------------------------------------

def kernel_to_operator(s: JetKernel) -> DiffOperator:
    """Operator of order n = pole - 1 from a kernel jet via the residue pairing.

    Normalized so that the canonical weight-2 jet maps to the first
    derivative; with that calibration monic kernels give monic operators.
    """
    if s.pole != s.weight:
        raise WeightMismatch("operator extraction needs pole == weight")
    n = s.pole - 1
    if s.order < n + 1:
        raise TruncationUnderflow(f"need jet order {n + 1}, have {s.order}")
    r = s.rank
    # c_i = sum_j n!/(n-j)! * binom(n-j, i) * a_j^{(n-j-i)}
    cs = []
    for i in range(n + 1):
        acc = _mat_zero(r, s.series_order)
        for j in range(n - i + 1):
            factor = Fraction(math.factorial(n), math.factorial(n - j)) \
                * math.comb(n - j, i)
            acc = _mat_add(acc, _mat_scale(_mat_deriv(s.coeff(j), n - j - i), factor))
        cs.append(acc)
    lead = cs[n]
    if not _mat_eq(lead, _mat_id(r, s.series_order)):
        raise NotMonic("kernel is not monic; leading operator coefficient != Id")
    q = [_mat_scale(cs[n - i], -1) for i in range(1, n + 1)]
    return DiffOperator(order=n, rank=r, q=q)


def operator_to_kernel(L: DiffOperator, order: int = None) -> JetKernel:
    """Inverse of :func:`kernel_to_operator` on (n+1)-order jets."""
    n = L.order
    r = L.rank
    nser = max((q[i][k].n for q in L.q for i in range(r) for k in range(r)),
               default=DEFAULT_ORDER)
    cs = [_mat_scale(L.q[n - 1 - i], -1) for i in range(n)]
    # monicity is exact, so the identity row carries extra series order
    # and its derivatives never degrade the reconstruction
    cs.append(_mat_id(r, nser + n))
    a = [_mat_id(r, nser + n)]
    for j in range(1, n + 1):
        # c_{n-j} = (n!/(n-j)!) a_j + contributions from a_{j'} with j' < j
        acc = cs[n - j]
        for jp in range(j):
            factor = (Fraction(math.factorial(n), math.factorial(n - jp))
                      * math.comb(n - jp, n - j))
            acc = _mat_add(acc, _mat_scale(_mat_deriv(a[jp], j - jp), -factor))
        a.append(_mat_scale(acc, Fraction(math.factorial(n - j),
                                          math.factorial(n))))
    m = order or (n + 1)
    while len(a) < m:
        a.append(_mat_zero(r, nser))
    return JetKernel(r, n + 1, n + 1, a[:m])


# ----------------------------------------------------------------------
# Connections
# ----------------------------------------------------------------------

@dataclass
class ConnectionJet:
    """Connection nabla = d - Gamma dz on a formal disk; Gamma is r x r Series."""

    rank: int
    gamma: list

    def solve(self, initial, order_n: int):
        """Flat section v with v(0) = initial, v' = Gamma v."""
        # the components' coefficients as Gaussian-integer numerators over
        # one running denominator vd; the entries of Gamma share gd
        vr, vi, vd = Series([QC.of(v) for v in initial]).ints
        cols_r, cols_i = [[x] for x in vr], [[x] for x in vi]
        gd, gs = _common_denominator([x for row in self.gamma for x in row])
        for k in range(order_n):
            new = []
            for a in range(self.rank):
                sr = si = 0
                for b in range(self.rank):
                    gr, gi, gn = gs[a * self.rank + b]
                    col_r, col_i = cols_r[b], cols_i[b]
                    for i in range(min(k, gn) + 1):
                        xr, xi = gr[i], gi[i]
                        if xr or xi:
                            yr, yi = col_r[k - i], col_i[k - i]
                            sr += xr * yr - xi * yi
                            si += xr * yi + xi * yr
                # v_a[k + 1] = (sr + i si) / (gd vd (k + 1))
                d = gd * vd * (k + 1)
                g = math.gcd(sr, si, d)
                new.append((sr // g, si // g, d // g))
            up = math.lcm(vd, *(d for _, _, d in new)) // vd
            if up != 1:
                cols_r = [[x * up for x in col] for col in cols_r]
                cols_i = [[x * up for x in col] for col in cols_i]
            vd *= up
            for a, (sr, si, d) in enumerate(new):
                cols_r[a].append(sr * (vd // d))
                cols_i[a].append(si * (vd // d))
        return [Series.from_ints(col_r, col_i, vd, order_n)
                for col_r, col_i in zip(cols_r, cols_i)]


def connection_from_kernel(s: JetKernel) -> ConnectionJet:
    """Extract the connection from the order-1 jet of a monic kernel."""
    s.require_monic()
    d = s.diag_index
    return ConnectionJet(rank=s.rank, gamma=s.coeff(d + 1))


def flat_extension(conn: ConnectionJet, m: int) -> JetKernel:
    """Flat kernel kappa_m with kappa|_Delta = Id, solving the connection.

    Satisfies d/du kappa = kappa * Gamma(z1 - u); the nonlinearity in
    Gamma is exact over the rationals.
    """
    r = conn.rank
    nser = conn.gamma[0][0].n
    if m - 1 > nser:
        raise TruncationUnderflow("series order too small for flat extension")
    gs = _taylor_shift(conn.gamma, m)   # u-expansion of Gamma(z1 - u)
    a = [_mat_id(r, nser)]
    for j in range(m - 1):
        acc = _mat_dot([(a[i], gs[j - i]) for i in range(j + 1)], r, nser)
        a.append(_mat_scale(acc, Fraction(1, j + 1)))
    return JetKernel(r, 0, 0, a)


def companion_connection(L: DiffOperator) -> ConnectionJet:
    """Rank-n companion form: q_i across the first row, 1s on the subdiagonal."""
    if L.rank != 1:
        raise ValueError("companion form applies to scalar operators")
    n = L.order
    nser = L.q[0][0][0].n
    gamma = _mat_zero(n, nser)
    for i in range(n):
        gamma[0][i] = L.q[i][0][0].copy()
    for i in range(n - 1):
        gamma[i + 1][i] = Series.const(1, nser)
    return ConnectionJet(rank=n, gamma=gamma)


# ----------------------------------------------------------------------
# Coordinate changes
# ----------------------------------------------------------------------

def change_coordinate(s: JetKernel, w: Series) -> JetKernel:
    """Re-expand a rank-1 kernel in a new chart t with z = w(t).

    ``w`` must fix the center (w(0) = 0) and be invertible (w'(0) != 0).
    Only integer powers of w' and rational-coefficient correction series
    occur, so the result is exact.
    """
    if s.rank != 1:
        raise WeightMismatch("coordinate changes implemented for rank-1 kernels")
    if bool(w[0]) or not bool(w[1]):
        raise NonInvertibleChart("need w(0) = 0 and w'(0) != 0")
    m = s.order
    dw = _chart_difference(w, m)
    # dw^k and dw^-k, each one running product in ascending k
    unit = mu_nu(0, m, dw.series_order)
    powers = {1: [unit, dw], -1: [unit, _reciprocal(dw)]}
    w_powers = _powers(w, w.n)
    total = JetKernel(1, 0, 0, [_mat_zero(1, w.n) for _ in range(m)])
    for j in range(m):
        aj = s.scalar_coeff(j)
        if aj.is_zero():
            continue
        rel = j - s.pole
        run = powers[1 if rel >= 0 else -1]
        while len(run) <= abs(rel):
            run.append(_expansion_mul(run[-1], run[1]))
        term = run[abs(rel)].scale(_compose(aj, w_powers, min(aj.n, w.n)))
        total = total + _shift_up(term, j, w.n)
    return _weight_factor(JetKernel(1, s.weight, s.pole, total.coeffs), w)


def _chart_difference(w: Series, m: int) -> JetKernel:
    """The u-expansion of (w(t1) - w(t2)) / v, v = t1 - t2."""
    return JetKernel(1, 0, 0, _taylor_shift([[w]], m, 1))


def _shift_up(s: JetKernel, j: int, n: int) -> JetKernel:
    """u^j times rank-1 ``s`` at the same weight and pole: its coefficients
    moved up j slots, below them zeros of series order n (not the series
    order of ``s``, so that a sum keeps the orders of its lower slots);
    a sum cuts the j slots that it adds past those of ``s``."""
    return JetKernel(1, s.weight, s.pole, [_mat_zero(1, n) for _ in range(j)] + s.coeffs)


def _weight_factor(s: JetKernel, w: Series) -> JetKernel:
    """Rank-1 ``s`` times (w'(t1) w'(t2))^(nu/2), nu = s.weight."""
    wp = w.derivative()
    # (w'(t1) w'(t2))^(nu/2) = w'(t1)^nu * [w'(t1 - v)/w'(t1)]^(nu/2)
    ratio = JetKernel(1, 0, 0, _taylor_shift([[wp]], s.order)) \
        .scale(wp.reciprocal())
    prefactor = _pow_fraction(ratio, Fraction(s.weight, 2))
    return _expansion_mul(s, prefactor).scale(wp ** s.weight)


# ----------------------------------------------------------------------
# Projective structures and opers
# ----------------------------------------------------------------------

def sturm_liouville_solutions(q: Series, order_n: int):
    """Fundamental series solutions of f'' = q f with jets (1,0) and (0,1)."""
    L = DiffOperator(order=2, rank=1, q=[[[Series.zero(q.n)]], [[q]]])
    f1 = L.solve([1, 0], order_n)
    f2 = L.solve([0, 1], order_n)
    return f1, f2


def projective_chart(q: Series, order_n: int) -> Series:
    """Developing coordinate w = f2/f1 of the projective structure d^2 - q."""
    f1, f2 = sturm_liouville_solutions(q, order_n)
    return f2 / f1


def gamma_from_projective(q: Series, nu: int, m: int) -> JetKernel:
    """Kernel dw^(nu/2) x dw^(nu/2) / (w1 - w2)^nu of the structure d^2 - q.

    ``w`` is the ratio of two independent solutions of the
    Sturm-Liouville operator; the result is independent of the chosen
    solution pair (Moebius invariance of the construction).
    """
    w = projective_chart(q, q.n)
    return _gamma_from_chart(w, nu, m)


def _gamma_from_chart(w: Series, nu: int, m: int) -> JetKernel:
    core = tensor_power(_chart_difference(w, m), -nu)
    return _weight_factor(JetKernel(1, nu, nu, core.coeffs), w)


def rescale_shift(s: JetKernel, k: int) -> Series:
    """Projective-connection data of a third-order jet, normalized from scale k.

    Requires the jet to agree with the canonical jet up to second order
    (monic on 2 Delta); returns q with deviation = -k q / 6, the
    normalization in which the rank-1 kernel of d^2 - q has q itself as
    its projective data.
    """
    if s.rank != 1:
        raise WeightMismatch("projective extraction needs a rank-1 kernel")
    d = s.diag_index
    if s.order < d + 3:
        raise TruncationUnderflow("need a jet on the third-order neighborhood")
    one = Series.const(1, s.series_order)
    if not (s.scalar_coeff(d) == one) or not s.scalar_coeff(d + 1).is_zero():
        raise NotMonicOn2Delta("jet does not restrict to the canonical jet on 2 Delta")
    for j in range(d):
        if not s.scalar_coeff(j).is_zero():
            raise NotMonicOn2Delta("jet has extra singular terms")
    dev = s.scalar_coeff(d + 2)
    return dev * Fraction(-6, k)


def projective_jet(q: Series, k: int, nu: int = None, m: int = 3) -> JetKernel:
    """Inverse of :func:`rescale_shift`: the canonical jet plus deviation -k q/6."""
    nu = k if nu is None else nu
    base = mu_nu(nu, m, q.n)
    dev = q * Fraction(-k, 6)
    out = base.copy()
    out.coeffs[2][0][0] = out.coeffs[2][0][0] + dev
    return out


def build_oper(q: Series, v: dict, n: int, m: int) -> JetKernel:
    """SL_n-oper kernel over the projective structure d^2 - q.

    ``v`` maps slot degrees i (3 <= i <= n) to Series v_i, the
    polydifferential slots written in the base chart; degree-2 slots are
    carried by q itself and must not appear.  The jet restricts to the
    canonical jet on the second-order neighborhood and to the projective
    structure on the third-order one, and the slots act additively.
    """
    if any(i == 2 and not vi.is_zero() for i, vi in v.items()):
        raise ValueError("the degree-2 slot is carried by the projective structure")
    if any(i < 2 or i > n for i in v):
        raise ValueError(f"slot degrees must lie in 2..{n}")
    w = projective_chart(q, q.n)
    gamma = _gamma_from_chart(w, n + 1, m)
    dw = _chart_difference(w, m)
    wp = w.derivative()
    mult = mu_nu(0, m, w.n)
    for i, vi in sorted(v.items()):
        if i == 2 or i >= m or vi.is_zero():
            continue
        # v_i dz^i = (v_i / w'^i) dw^i, and dw^i = v^i ((w1 - w2) / v)^i;
        # after the shift by v^i only the first m - i slots of dw^i remain
        term = tensor_power(dw.restrict(m - i), i).scale(vi / (wp ** i))
        mult = mult + _shift_up(term, i, w.n)
    return gamma * mult


# ----------------------------------------------------------------------
# Matrix opers, trace and determinant maps
# ----------------------------------------------------------------------

def matrix_oper(conn: ConnectionJet, oper: JetKernel, eta: dict) -> JetKernel:
    """Matrix oper from a connection, a scalar oper kernel and traceless slots.

    ``eta`` maps slot degrees i (2 <= i <= n) to traceless r x r matrices
    of Series.  The kernel is kappa * (oper + slot corrections) in the
    flat frame of the connection: restriction to the diagonal is the
    identity, the induced connection is ``conn``, and the normalized
    trace with all slots zero returns ``oper``.
    """
    oper.require_monic()
    if oper.rank != 1:
        raise WeightMismatch("the oper factor must have rank 1")
    m = oper.order
    r = conn.rank
    kappa = flat_extension(conn, m)
    out = kappa * oper
    nser = out.series_order
    for i, mat in sorted(eta.items()):
        if not _mat_trace(mat).is_zero():
            raise TraceNotZero(f"slot {i} has nonzero trace")
        corr = [_mat_zero(r, nser) for _ in range(m)]
        idx = oper.diag_index + i
        if idx < m:
            corr[idx] = mat
            corr_jet = JetKernel(r, oper.weight, oper.pole, corr)
            out = out + kappa * corr_jet
    return out


def trace_map(s: JetKernel, p: str = "trace") -> JetKernel:
    """Scalar (shifted) oper jet from a matrix oper via an invariant polynomial.

    The kernel is transported to an End-valued jet with the flat kernel
    of its own induced connection; ``p`` is then applied valuewise
    ('trace' = normalized trace, 'det' = determinant of the End factor).
    """
    conn = connection_from_kernel(s)
    kappa = flat_extension(conn, s.order)
    g = s * kappa.swap()
    if p == "trace":
        return g.trace(normalized=True)
    if p == "det":
        # determinant of the End-factor: strip the canonical u-power first
        return _det_of_coefficients(g, g.pole, g.weight)
    raise ValueError(f"unknown invariant polynomial selector {p!r}")


def _permutations_with_sign(r):
    for perm in itertools.permutations(range(r)):
        inv = sum(perm[a] > perm[b] for a in range(r) for b in range(a + 1, r))
        yield perm, (-1) ** inv


def _det_of_coefficients(s: JetKernel, out_pole, out_weight) -> JetKernel:
    """Leibniz determinant of the coefficient matrix as a function jet."""
    m, nser = s.order, s.series_order
    total = JetKernel(1, 0, 0, [_mat_zero(1, nser) for _ in range(m)])
    for perm, sign in _permutations_with_sign(s.rank):
        prod = mu_nu(0, m, nser)
        for i, k in enumerate(perm):
            prod = _expansion_mul(
                prod, JetKernel(1, 0, 0, [[[mat[i][k]]] for mat in s.coeffs]))
        total = total + prod.scale(sign)
    return JetKernel(1, out_weight, out_pole, total.coeffs)


def det_kernel(s: JetKernel) -> JetKernel:
    """Exterior-power determinant: weight and pole multiply by the rank."""
    if s.order < 1:
        raise TruncationUnderflow("empty jet")
    r = s.rank
    return _det_of_coefficients(s, r * s.pole, r * s.weight)


# ----------------------------------------------------------------------
# The quadratic map and its deformation
# ----------------------------------------------------------------------

def quadratic_S(s: JetKernel, lam):
    """Trace of the square of a third-order kernel jet.

    Computes S(s) = (-1)^weight tr[s(z1,z2) s(z2,z1)] / rank on the
    third-order neighborhood (the sign makes S monic for every weight,
    compensating the swap parity of the canonical jet).  For lam != 0
    the second-order deviation is returned as a projective connection,
    renormalized by the torsor rescaling 2 lam (n+1); for lam = 0 the
    result is the quadratic differential tr(eta^2) of the underlying
    traceless slot.
    """
    lam_c = QC.of(lam)
    d = s.diag_index
    if s.order < d + 3:
        raise TruncationUnderflow("need a jet on the third-order neighborhood")
    diag = s.diagonal()
    expect = _mat_id(s.rank, s.series_order, value=lam_c)
    if not _mat_eq(diag, expect):
        raise DiagonalValueMismatch("s|_Delta != lam * Id")
    for j in range(d):
        if not _mat_is_zero(s.coeffs[j]):
            raise DiagonalValueMismatch("extra singular terms below the diagonal order")
    big = quadratic_S_jet(s)
    dev = big.scalar_coeff(big.diag_index + 2)
    if not lam_c:
        # quadratic Hitchin map: the raw deviation is -tr(eta^2)/rank
        return dev * -s.rank
    # S|_2Delta = lam^2 * canonical jet; the square-root identification
    # back to Proj(lam (n+1)) divides the deviation by 2 lam (n+1)
    return dev * Fraction(-6, 2 * s.pole) / lam_c


def quadratic_S_jet(s: JetKernel) -> JetKernel:
    """The full (sign-normalized) kernel jet of the quadratic map."""
    big = (s * s.swap()).trace(normalized=False)
    sign = (-1) ** (s.weight % 2)
    return big.scale(Fraction(sign, s.rank))
