"""Riemann theta functions with half-integer characteristics.

Evaluates

    theta[a,b](z, Omega) = sum_n exp(i pi (n+a)^T Omega (n+a)
                                      + 2 pi i (n+a)^T (z+b))

and its partial derivatives up to total order 3, with a certified
truncation bound.  The exponential growth factor exp(pi y^T Y^{-1} y)
(y = Im z, Y = Im Omega) is split off into the exponent of a
:class:`ScaledComplex`, so the lattice sum itself is uniformly bounded
and never overflows.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass

import numpy as np

from .errors import NotPositiveDefinite, PointOnTheta, ToleranceTooSmall

_TWO_PI_I = 2j * math.pi
_LN2 = math.log(2.0)
_EPS = float(np.finfo(float).eps)

DEFAULT_TOL = 1e-12

#: |theta| below ``THETA_FLOOR * max_term`` counts as "on the theta
#: divisor"; :func:`_on_divisor`, the one divisor test, reads it at call
#: time.
THETA_FLOOR = 1e-8

#: Expected lattice points per chunk of a :func:`theta_batch` call: the
#: call enumerates its rows in consecutive chunks of at most this many
#: points (a row that expects more is a chunk of its own), so its memory
#: is bounded whatever its row count.  A probe draw of 200 samples at
#: genus 2 or 40 at genus 3 (about 12k and 19k points) fits in one chunk.
_CHUNK_POINTS = 2 ** 15


class RiemannMatrix:
    """A symmetric g x g complex matrix with positive definite imaginary part.

    The matrix is symmetrized on construction; positive definiteness of
    the imaginary part is certified by a Cholesky factorization.  Derived
    data used by the theta sums (Cholesky factor of pi*Im(Omega), inverse
    of Im(Omega), shortest lattice vector) is precomputed and immutable.
    """

    __slots__ = ("entries", "dim", "im", "im_inv", "chol",
                 "shortest", "sigma_min", "_radii")

    def __init__(self, entries):
        m = np.array(entries, dtype=complex)
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise NotPositiveDefinite("period matrix must be square")
        # a non-finite entry stays so when symmetrized, and the
        # symmetrization and pi * Im(Omega) can overflow
        with np.errstate(over="ignore", invalid="ignore"):
            m = 0.5 * (m + m.T)
            scaled = math.pi * m.imag
        if not (np.all(np.isfinite(m)) and np.all(np.isfinite(scaled))):
            raise NotPositiveDefinite("period matrix entries must be finite, "
                                      "also when symmetrized and times pi")
        g = m.shape[0]
        y = m.imag
        try:
            lower = np.linalg.cholesky(scaled)
        except np.linalg.LinAlgError:
            raise NotPositiveDefinite(
                "imaginary part is not positive definite") from None
        self.entries = m
        self.dim = g
        self.im = y
        self.im_inv = np.linalg.inv(y)
        if not np.all(np.isfinite(self.im_inv)):
            raise NotPositiveDefinite("inverse of the imaginary part is not "
                                      "finite")
        self.chol = lower.T  # upper triangular T with T^T T = pi * Im(Omega)
        self.sigma_min = float(np.linalg.svd(self.chol, compute_uv=False)[-1])
        self.shortest = self._shortest_vector()
        # (order, tol) -> (radius at ||c|| = 0, largest ||c|| seen to pass
        # at that radius), see _truncation_radius; a thread that loses a
        # race to update an entry leaves a smaller ||c||, which is still
        # one that passed
        self._radii = {}

    def _shortest_vector(self) -> float:
        r0 = float(min(np.linalg.norm(self.chol[:, j]) for j in range(self.dim)))
        pts, _ = _enumerate_ellipsoid(self.chol, np.zeros((1, self.dim)),
                                      [r0 * (1 + 1e-12)])
        best = r0
        for n in pts:
            if any(n):
                best = min(best, float(np.linalg.norm(self.chol @ np.asarray(n, float))))
        return best

    def __repr__(self):
        return f"RiemannMatrix(g={self.dim})"


@dataclass(frozen=True)
class Characteristic:
    """Half-integer theta characteristic.

    ``alpha`` and ``beta`` hold the doubled entries, i.e. integers in
    {0, 1}; the actual characteristic is (alpha/2, beta/2).  Keeping
    integers makes the parity arithmetic exact.
    """

    alpha: tuple
    beta: tuple

    def __post_init__(self):
        if len(self.alpha) != len(self.beta):
            raise ValueError("alpha and beta must have equal length")
        if not all(a in (0, 1) for a in self.alpha + self.beta):
            raise ValueError("characteristic entries must be 0 or 1 (doubled halves)")

    @property
    def dim(self) -> int:
        return len(self.alpha)

    @property
    def parity(self) -> int:
        """0 for even, 1 for odd (= 4 a.b mod 2)."""
        return sum(a * b for a, b in zip(self.alpha, self.beta)) % 2

    @staticmethod
    def zero(g: int) -> "Characteristic":
        return Characteristic((0,) * g, (0,) * g)

    @staticmethod
    def all(g: int):
        """All 2^(2g) characteristics in lexicographic (alpha, beta) order."""
        for bits in itertools.product((0, 1), repeat=2 * g):
            yield Characteristic(bits[:g], bits[g:])


@dataclass(frozen=True)
class ScaledComplex:
    """A complex number stored as mantissa * exp(exponent).

    The mantissa is kept in [0.5, 2) in absolute value (unless the value
    is exactly zero), so a theta value deep in the Jacobian never
    overflows; :meth:`ratio` divides two of them as a plain complex.
    """

    mantissa: complex
    exponent: float

    @staticmethod
    def make(mantissa: complex, exponent: float = 0.0) -> "ScaledComplex":
        if mantissa == 0:
            return ScaledComplex(0j, 0.0)
        k = math.floor(math.log2(abs(mantissa)))
        return ScaledComplex(mantissa / (2.0 ** k), exponent + k * _LN2)

    @property
    def value(self) -> complex:
        """Plain complex value; may overflow if the exponent is huge."""
        return self.mantissa * math.exp(self.exponent)

    def ratio(self, other: "ScaledComplex") -> complex:
        """self / other as a plain complex number."""
        return (self.mantissa / other.mantissa) * math.exp(self.exponent - other.exponent)


# ----------------------------------------------------------------------
# Lattice enumeration
# ----------------------------------------------------------------------

def _enumerate_ellipsoid(T, centers, radii):
    """Integer vectors n with ||T (n + centers[r])|| <= radii[r], one set
    per root r, T upper triangular.

    Fincke-Pohst enumeration, one coordinate at a time from the last row
    of T up, carried out for all partial vectors of a level, of every
    root at once.  ``centers`` is (N, g) and ``radii`` has N entries.
    Returns ``(vecs, counts)``: an (M, g) integer array whose rows are
    grouped by root, each group in lexicographic order, and the N group
    sizes.  A root's group holds exactly the vectors, in the same order,
    that a call with that root alone gives.  Raises ValueError when a
    coordinate bound is not finite or exceeds 2**53 in absolute value.
    """
    g = T.shape[0]
    centers = np.asarray(centers, dtype=float).reshape(-1, g)
    radii = np.asarray(radii, dtype=float).reshape(-1)
    root = np.arange(len(radii))
    rem2 = radii * radii
    # partial[k] = sum_{j>i} T[k, j] * (n_j + center_j) for k <= i, one
    # entry per partial vector; a level keeps only (parent, n_i) per vector
    partial = [np.zeros(len(radii)) for _ in range(g)]
    levels = []
    for i in range(g - 1, -1, -1):
        t = T[i, i]
        c = centers[root, i]
        rad = np.sqrt(rem2) / abs(t)
        mid = -partial[i] / t - c
        lo = np.ceil(mid - rad - 1e-12)
        hi = np.floor(mid + rad + 1e-12)
        # a double holds every integer below 2**53; NaN fails the test too
        if not np.all(np.maximum(np.abs(lo), np.abs(hi)) < 2.0 ** 53):
            raise ValueError("lattice enumeration range is not finite "
                             "or exceeds 2**53")
        counts = np.maximum(hi - lo + 1, 0).astype(np.int64)
        parent = np.repeat(np.arange(len(lo)), counts)
        # n runs from lo to hi within each parent's block
        first = np.cumsum(counts) - counts
        n = np.arange(len(parent)) + np.repeat(lo - first, counts)
        rem2 = rem2[parent]
        nc = n + c[parent]
        u = t * nc + partial[i][parent]
        rem2_next = rem2 - u * u
        keep = rem2_next >= -1e-12 * np.maximum(1.0, rem2)
        parent, n, nc = parent[keep], n[keep], nc[keep]
        rem2 = np.maximum(rem2_next[keep], 0.0)
        root = root[parent]
        partial = [partial[k][parent] + T[k, i] * nc for k in range(i)]
        levels.append((parent, n))
    # cols[i] holds n_i of every vector, in tree order: by root, then
    # n_{g-1}, ..., n_0
    cols, idx = [], slice(None)
    for parent, n in reversed(levels):
        cols.append(n[idx])
        idx = parent[idx]
    # Equal (root, n_0, ..., n_{g-2}) leave n_{g-1} ascending in tree
    # order, so a stable sort of that key packed into one integer gives
    # the lexicographic order; a key of 16 bits or less is radix sorted.
    key, size = root, len(radii)
    for col in cols[:-1]:
        lo = col.min(initial=0.0)
        span = int(col.max(initial=0.0) - lo) + 1
        size *= span
        if size > 2 ** 63:  # the packed key would overflow int64
            order = np.lexsort((*cols[::-1], root))
            break
        key = key * span + (col - lo).astype(np.int64)
    else:
        order = np.argsort(key.astype(np.min_scalar_type(size - 1)),
                           kind="stable")
    vecs = np.empty((len(root), g), dtype=np.int64)
    for i, col in enumerate(cols):
        vecs[:, i] = col[order]
    return vecs, np.bincount(root, minlength=len(radii))


# ----------------------------------------------------------------------
# Truncation radius from the Gaussian tail bound
# ----------------------------------------------------------------------

def _upper_gamma(s: float, x: float) -> float:
    """Upper incomplete gamma function Gamma(s, x) for half-integer s >= 1/2.

    Starts from Gamma(1, x) = exp(-x) or Gamma(1/2, x) = sqrt(pi) erfc(sqrt x)
    and climbs with Gamma(a+1, x) = a Gamma(a, x) + x^a exp(-x).  Every
    term is positive, so each step costs at most a few ulps of relative
    error.  Values below the normal double range (x beyond about 708)
    underflow.
    """
    e = math.exp(-x)
    if float(s).is_integer():
        a, val = 1.0, e
    else:
        a, val = 0.5, math.sqrt(math.pi) * math.erfc(math.sqrt(x))
    while a < s:
        val = a * val + x ** a * e
        a += 1.0
    return val


def _tail_bound(omega: RiemannMatrix, R: float, order: int, norm_c: float) -> float:
    """Upper bound for the truncated tail of the (derivative) theta sum.

    Bounds sum_{||T(n+a)|| > R} (2 pi)^N ||n+alpha||^N exp(-||T(n+a)||^2)
    via disjoint balls of radius rho/2 around the lattice points and the
    radial incomplete-gamma integral.
    """
    g, rho, smin = omega.dim, omega.shortest, omega.sigma_min
    r0 = R - rho / 2.0
    if r0 <= 0:
        return math.inf
    total = 0.0
    pref = 0.5 * g * (2.0 / rho) ** g
    for j in range(order + 1):
        s = 0.5 * (g + j)
        gam = _upper_gamma(s, r0 * r0)
        shift = (R / r0) ** j          # (||u|| + rho/2)^j vs ||u||^j slack
        comb = math.comb(order, j) * (norm_c ** (order - j) if order > j else 1.0)
        total += comb * smin ** (-j) * shift * pref * gam
    return (2.0 * math.pi) ** order * total


def _truncation_radius(omega: RiemannMatrix, order: int, tol: float,
                       norm_c: float) -> float:
    """Smallest R on the grid rho/2 + sqrt((g + order)/2) + 1/2 + k/4
    with ``_tail_bound(omega, R, order, norm_c) <= tol``.

    The bound is nondecreasing in ||c||, also as rounded: ||c||**2 and
    ||c||**3 are within 0.52 ulp, while those of neighbouring doubles lie
    about two and three ulps apart, and its sums and products of
    nonnegative numbers round monotonically.  So no grid point below the
    answer at ||c|| = 0, the start, passes, and the start is the answer
    at every ||c|| up to one that passed there.  ``omega`` memoises, per
    (order, tol), the start and the largest ||c|| seen to pass: a call up
    to it evaluates no bound, and any other walks up from the start,
    which gives the walk from the start of the grid bit for bit.
    """
    key = (order, tol)
    memo = omega._radii.get(key)
    if memo is None:
        g, rho = omega.dim, omega.shortest
        start = _radius_walk(omega, order, tol, 0.0,
                             rho / 2.0 + math.sqrt(0.5 * (g + order)) + 0.5)
        memo = omega._radii[key] = (start, 0.0)
    start, passed = memo
    if norm_c <= passed:
        return start
    R = _radius_walk(omega, order, tol, norm_c, start)
    if R == start:
        omega._radii[key] = (start, norm_c)
    return R


def _radius_walk(omega, order, tol, norm_c, R):
    while _tail_bound(omega, R, order, norm_c) > tol:
        R += 0.25
        if R > 80.0:
            raise ToleranceTooSmall(
                f"cannot certify tol={tol:g} within radius 80")
    return R


def _check_tol(tol):
    if tol <= 0:
        raise ValueError("tol must be positive")
    if tol < 1e3 * _EPS:
        raise ToleranceTooSmall(
            f"tol={tol:g} below 1e3 * machine epsilon of the accumulated sum")


def points_per_row(omega: RiemannMatrix, order: int,
                   tol: float = DEFAULT_TOL) -> float:
    """Expected lattice points of a :func:`theta_batch` row of derivative
    order ``order`` at Im z = 0: :func:`_expected_points` at that row's
    truncation radius.  Raises as theta_batch does for a ``tol`` it
    rejects."""
    _check_tol(tol)
    return _expected_points(omega, _truncation_radius(omega, order, tol, 0.0))


def _expected_points(omega: RiemannMatrix, R: float) -> float:
    """Expected lattice points in ||T (n + c)|| <= R over the centres c:
    the volume of that ellipsoid, or 1 when that is smaller.  It never
    decreases with R: a volume that overflows counts as inf."""
    g = omega.dim
    vol = (math.pi ** (0.5 * g) / math.gamma(0.5 * g + 1)
           * math.prod(R / t for t in omega.chol.diagonal().tolist()))
    # not (vol > 1) also holds for NaN, from 0 * inf in the product, which
    # arises only where every smaller R gives a volume of 0
    return vol if vol > 1.0 else 1.0


# ----------------------------------------------------------------------
# Core batched sum
# ----------------------------------------------------------------------

def _quadratic_form(na, m):
    """na[r] @ m @ na[r] for each row r of the (M, g) array ``na``.

    Bit for bit ``np.einsum("ij,jk,ik->i", na, m, na)``: the same
    products and sums in the same order, j outer and k inner, at about
    half its cost.
    """
    quad = np.zeros(len(na), dtype=complex)
    for j in range(m.shape[0]):
        for k in range(m.shape[0]):
            quad += (na[:, j] * m[j, k]) * na[:, k]
    return quad


def theta_batch(z, omega: RiemannMatrix, chars, orders,
                tol: float = DEFAULT_TOL):
    """Evaluate theta[chars[r]] and its partial derivatives up to total
    order ``orders[r]`` (0 to 3) at each row r of the (N, g) array z.

    Row r holds the derivatives ``derivative_indices(g, orders[r])``, a
    prefix of the list for the call's highest order, and its truncation
    radius comes from its own order (:func:`_truncation_radius`, which
    evaluates no tail bound for most rows).  The rows are split into
    consecutive chunks, each of at least one row and, when it holds
    several, at most ``_CHUNK_POINTS`` expected lattice points
    (:func:`_expected_points` at each row's radius); the rows of a chunk
    share one lattice enumeration, so the call's memory is bounded by
    its largest chunk.  Each derivative is summed from a real product of
    powers of the lattice vectors times the terms.  Returns
    ``(mantissas, exponents, scales)``, three lists with one entry per
    row: ``value_k = mantissas[r][k] * exp(exponents[r])``, and
    ``scales[r]`` is the largest term magnitude of the row's order-zero
    sum (the reference of :func:`_on_divisor`), 0 for a row with no
    lattice points or whose terms all underflow.  Every row is bit for
    bit the result of a call with that row, its characteristic and its
    order alone.  Values are certified absolutely: the truncation error
    of value_k is at most ``tol * exp(exponents[r])``.  Raises
    ValueError, before any chunk is enumerated, when an entry of z, or of
    a row's lattice centre, is not finite or reaches 2**53 in absolute
    value, and for a row whose terms have lost every digit (a term above
    e, where each is at most 1 in exact arithmetic).
    """
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
    # from 2**53 on a double has no fractional bits, and the enumeration
    # cannot place a centre there; NaN fails the test too, and both tests
    # come before any arithmetic that could overflow
    if not np.maximum(abs(z.real), abs(z.imag)).max(initial=0.0) < 2.0 ** 53:
        raise ValueError("theta argument is not finite or exceeds 2**53")
    # both halves from one conversion of the per-row tuples, which costs
    # about half as much as two
    ab = np.array([ch.alpha + ch.beta for ch in chars],
                  float).reshape(-1, 2 * g) / 2.0
    alpha, beta = ab[:, :g], ab[:, g:]
    # stacked matrix-vector and dot products: numpy makes the same BLAS
    # call per row that im_inv @ y, y @ c and norm(c) make for one row
    y = z.imag
    c = (omega.im_inv @ y[:, :, None])[:, :, 0]
    if not abs(c).max(initial=0.0) < 2.0 ** 53:
        raise ValueError("lattice enumeration centre exceeds 2**53")
    exponents = (math.pi * (y[:, None, :] @ c[:, :, None])[:, 0, 0]).tolist()
    radii = [_truncation_radius(omega, order, tol, norm_c)
             for order, norm_c in zip(orders, np.sqrt(
                 (c[:, None, :] @ c[:, :, None])[:, 0, 0]).tolist())]
    # one matrix-vector product per row, as a single-row call makes it
    zb = z + beta
    bounds = [0]
    # the estimate grows with R, so a call within the budget at its
    # largest radius is one chunk, found without a walk over its rows
    if len(radii) * _expected_points(omega, max(radii, default=0.0)) \
            > _CHUNK_POINTS:
        # a chunk closes before the row that would take it past the budget
        expected = {R: _expected_points(omega, R) for R in set(radii)}
        points = 0.0
        for r, R in enumerate(radii):
            points += expected[R]
            if points > _CHUNK_POINTS and r > bounds[-1]:
                bounds.append(r)
                points = expected[R]
    bounds.append(len(radii))
    mantissas, scales = [], []
    for s, e in zip(bounds, bounds[1:]):
        m, sc = _theta_rows(omega, alpha[s:e], zb[s:e], c[s:e],
                            exponents[s:e], radii[s:e], orders[s:e])
        mantissas += m
        scales += sc
    return mantissas, exponents, scales


def _theta_rows(omega, alpha, zb, c, exponents, radii, orders):
    """The mantissas and scales of :func:`theta_batch` for the rows of
    one chunk, from one lattice enumeration: ``zb`` is z + beta and ``c``
    the lattice centre offset of each row."""
    g = omega.dim
    pts, counts = _enumerate_ellipsoid(omega.chol, alpha + c, radii)
    ends = np.cumsum(counts).tolist()
    na = pts + np.repeat(alpha, counts, axis=0)
    quad = _quadratic_form(na, omega.entries)
    lin = np.empty(len(na), dtype=complex)
    start = 0
    for zr, end in zip(zb, ends):
        lin[start:end] = na[start:end] @ zr
        start = end
    arg = (1j * math.pi * quad + _TWO_PI_I * lin
           - np.repeat(exponents, counts))
    # Re arg = -||T (n + a + c)||^2 <= 0 in exact arithmetic, but far from
    # the real subspace its parts cancel in large numbers.  A term above
    # e has no correct digit and its row raises, before exp, a power
    # product or a square of a sum can overflow; NaN fails the test too.
    if not arg.real.max(initial=-math.inf) <= 1.0:
        raise ValueError("theta terms are not finite or have no correct "
                         "digit: the argument lies too far from the real "
                         "subspace")
    terms = np.exp(arg)
    top = max(orders, default=0)
    table = _derivative_table(g, top)[1]
    # (2 pi i na_k)^d is i^d times the real power (2 pi na_k)^d, so the
    # factor of a multi-index d is i^|d| times a real product, taken in the
    # k order.  Each of its nonzero parts is then the rounded real product
    # that the complex products of a chain from 1 + 0j give; only the sign
    # of a zero can differ, and np.add.reduce, which starts from +0, never
    # passes that sign on to a sum.
    prods = np.empty((len(table), len(na)), dtype=complex)
    prods[0] = terms
    if top:
        tr, ti = terms.real, terms.imag
        ntr, nti = -tr, -ti
        # (Re, Im) of i^m * terms
        turns = [None, (nti, tr), (ntr, nti), (ti, ntr)]
        powers = {}
        for k in range(g):
            ak = (2.0 * math.pi) * na[:, k]
            powers[k, 1] = ak
            if top > 1:
                powers[k, 2] = ak * ak
            if top > 2:
                powers[k, 3] = ak * powers[k, 2]
        for row, d in zip(prods[1:], table[1:]):
            fac = None
            for k, dk in enumerate(d):
                if dk:
                    fac = powers[k, dk] if fac is None else fac * powers[k, dk]
            re, im = turns[sum(d)]
            np.multiply(fac, re, out=row.real)
            np.multiply(fac, im, out=row.imag)
    # a row of order k sums the first sizes[k] products
    sizes = [len(_derivative_table(g, k)[1]) for k in range(4)]
    mantissas = []
    for order, s, e in zip(orders, [0] + ends, ends):
        # summing each row of a 2-D slice is the np.sum of that row
        mantissas.append(
            np.add.reduce(prods[:sizes[order], s:e], axis=1).tolist())
    # the largest |term| of each row; a maximum is exact in any order, and
    # a row with no lattice points has scale 0
    scales = np.zeros(len(zb))
    filled = counts > 0
    scales[filled] = np.maximum.reduceat(np.abs(terms),
                                         (np.cumsum(counts) - counts)[filled])
    return mantissas, scales.tolist()


def theta_value(z, omega: RiemannMatrix, char: Characteristic = None,
                deriv=None, tol: float = DEFAULT_TOL) -> ScaledComplex:
    """Theta with characteristic ``char`` (default zero) at z, differentiated
    per the multi-index ``deriv`` (default none: g entries, total order at
    most 3).

    The absolute truncation error is at most ``tol * exp(exponent)``.
    """
    g = omega.dim
    deriv = (0,) * g if deriv is None else tuple(deriv)
    if len(deriv) != g or not all(float(d).is_integer() and d >= 0
                                  for d in deriv) or sum(deriv) > 3:
        raise ValueError("derivative multi-index must have g entries, "
                         "nonnegative integers of total order <= 3")
    deriv = tuple(int(d) for d in deriv)
    order = sum(deriv)
    if char is None:
        char = Characteristic.zero(g)
    z = np.asarray(z, dtype=complex).reshape(1, -1)
    vals, exponents, _ = theta_batch(z, omega, [char], [order], tol)
    k = _derivative_table(g, order)[1].index(deriv)
    return ScaledComplex.make(vals[0][k], exponents[0])


def derivative_indices(g: int, order: int):
    """Partial derivatives of total order <= ``order``, in the order value,
    gradient, upper-triangle Hessian, third order.

    Returns ``(combs, derivs)``: ``combs[k]`` lists the differentiated
    variables (``(0, 1)`` for d_0 d_1) and ``derivs[k]`` is the matching
    multi-index.  Both are fresh lists.  A :func:`theta_batch` row of
    order ``order`` holds these derivatives, in this order.
    """
    combs, derivs = _derivative_table(g, order)
    return list(combs), list(derivs)


@functools.cache
def _derivative_table(g: int, order: int):
    """:func:`derivative_indices` as tuples, built once per (g, order)."""
    combs = tuple(c for k in range(order + 1)
                  for c in itertools.combinations_with_replacement(range(g), k))
    return combs, tuple(tuple(c.count(i) for i in range(g)) for c in combs)


def log_theta_hessian(e, omega: RiemannMatrix, tol: float = DEFAULT_TOL):
    """Matrix of second logarithmic derivatives of theta at e.

    c_ij = (theta * theta_ij - theta_i * theta_j) / theta^2.  Raises
    :class:`PointOnTheta` when e lies on the theta divisor to working
    precision (:func:`_on_divisor`).
    """
    e = np.asarray(e, dtype=complex).reshape(1, -1)
    vals, _, scales = theta_batch(e, omega, [Characteristic.zero(omega.dim)],
                                  [2], tol)
    (hess,), (error,) = log_theta_hessians(omega.dim, vals, scales)
    if error is not None:
        raise error
    return hess


def log_theta_hessians(g: int, vals, scales):
    """The matrix of :func:`log_theta_hessian` for each order-2
    :func:`theta_batch` row of ``vals``, with that row's scale.

    Returns ``(matrices, errors)``: an (N, g, g) array and a list holding,
    per row, None or the :class:`PointOnTheta` that row raises when it
    lies on the theta divisor (its matrix is then NaN).  The divisor test
    is :func:`_on_divisor` of each row, and every quotient is the one a
    single row divides.
    """
    th, upper = _hessian_upper(g, vals)
    errors = [PointOnTheta(f"|theta(e)| = {abs(v[0]):.3e} under floor "
                           f"{THETA_FLOOR:g} * {scale:.3e}")
              if _on_divisor(v[0], scale) else None
              for v, scale in zip(vals, scales)]
    # a matrix entry and its mirror image have one numerator, so dividing
    # the upper triangle gives both quotients
    if not any(errors):
        quotients = upper / _python_product(th, th)[:, None]
    else:
        ok = np.array([error is None for error in errors], dtype=bool)
        quotients = np.full_like(upper, np.nan)
        quotients[ok] = upper[ok] / _python_product(th[ok], th[ok])[:, None]
    return _symmetric(g, quotients), errors


def _on_divisor(mantissa, scale) -> bool:
    """Whether a theta value lies on the theta divisor: its mantissa is
    below ``THETA_FLOOR`` times the scale of its lattice sum, or the
    scale is 0 (every term underflowed), where theta is 0 within the
    certified absolute error.  |theta| is Python's ``abs``; numpy's may
    round differently."""
    return scale == 0 or abs(mantissa) < THETA_FLOOR * scale


def hessian_numerators(g: int, vals):
    """theta and the symmetric matrix theta * theta_ij - theta_i * theta_j
    for each order-2 :func:`theta_batch` row of ``vals``: an (N,) and an
    (N, g, g) array.

    Products are formed as Python forms the product of two complex
    scalars, so each entry is the one a row computed on its own in
    Python scalars gives.
    """
    th, upper = _hessian_upper(g, vals)
    return th, _symmetric(g, upper)


def _hessian_upper(g, vals):
    """:func:`hessian_numerators` with the upper triangle of each matrix,
    row by row, as an (N, g (g + 1) / 2) array: each product is formed
    from real and imaginary parts as CPython forms it, (ac - bd) +
    i(ad + bc), and the two products of an entry are then subtracted."""
    v = np.array(vals)
    rows, cols = _triu_indices(g)
    re, im = v.real, v.imag
    t_re, t_im = re[:, :1], im[:, :1]
    h_re, h_im = re[:, 1 + g:1 + g + len(rows)], im[:, 1 + g:1 + g + len(rows)]
    a_re, a_im, b_re, b_im = re[:, 1 + rows], im[:, 1 + rows], \
        re[:, 1 + cols], im[:, 1 + cols]
    upper = np.empty(h_re.shape, dtype=complex)
    upper.real = (t_re * h_re - t_im * h_im) - (a_re * b_re - a_im * b_im)
    upper.imag = (t_re * h_im + t_im * h_re) - (a_re * b_im + a_im * b_re)
    return v[:, 0], upper


def _symmetric(g, upper):
    """The (N, g, g) symmetric matrices whose upper triangles, row by row,
    are the rows of ``upper``."""
    rows, cols = _triu_indices(g)
    m = np.empty((len(upper), g, g), dtype=complex)
    m[:, rows, cols] = upper
    m[:, cols, rows] = upper
    return m


@functools.cache
def _triu_indices(g):
    """np.triu_indices(g) as read-only arrays, computed once per g: the
    call costs about ten times the indexing it serves.  Its (i, j) run
    row by row, the order of the second derivatives in a row."""
    rows, cols = np.triu_indices(g)
    rows.flags.writeable = False
    cols.flags.writeable = False
    return rows, cols


def _python_product(a, b):
    """a * b for complex arrays, from separate real multiplies as CPython
    forms a complex product: (ac - bd) + i(ad + bc).  numpy's complex
    multiply can fuse a multiply and an add and round differently."""
    out = np.empty(np.broadcast_shapes(a.shape, b.shape), dtype=complex)
    out.real = a.real * b.real - a.imag * b.imag
    out.imag = a.real * b.imag + a.imag * b.real
    return out


def second_order_theta_basis(z, omega: RiemannMatrix, tol: float = DEFAULT_TOL):
    """The 2^g second-order theta functions Theta[sigma](z) = theta[(sigma,0)](2z, 2 Omega).

    Components are ordered lexicographically in sigma over {0, 1/2}^g and
    come from one theta_batch call, a row per characteristic.
    """
    g = omega.dim
    omega2 = RiemannMatrix(2.0 * omega.entries)
    z2 = 2.0 * np.asarray(z, dtype=complex).reshape(-1)
    chars = [Characteristic(bits, (0,) * g)
             for bits in itertools.product((0, 1), repeat=g)]
    vals, exponents, _ = theta_batch(np.tile(z2, (len(chars), 1)), omega2,
                                     chars, [0] * len(chars), tol)
    return [ScaledComplex.make(v[0], x) for v, x in zip(vals, exponents)]
