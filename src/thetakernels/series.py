"""Truncated power series over the Gaussian rationals: :class:`Series`.

A :class:`Series` holds coefficients c_0..c_n of a function germ modulo
t^(n+1) over :class:`QC` (Gaussian rationals, exact).  Arithmetic
truncates at the minimum order of the operands.

Exact series are stored the way FLINT's ``fmpq_poly`` stores a rational
polynomial: Gaussian-integer numerators re[k] + i im[k] over one shared
positive denominator, reduced so that no integer > 1 divides them all.
Every operation runs on those integers with plain ``int`` arithmetic; a
sum of products, a product and a composition each accumulate over one
common denominator and are reduced once per output series.  :class:`QC`
values and their Fractions are built only when a coefficient is read,
and a write to ``Series.c`` goes through to the integers.  Fractional
powers of jets are the binomial series of ``jets._pow_fraction``.

This is the exact-arithmetic module: only the jet calculus
(:mod:`thetakernels.jets`) and ``verify jets`` import it.  Numerically
computed germs are numpy arrays of complex coefficients, handled in
:mod:`thetakernels.curves`.
"""

from __future__ import annotations

import math
import numbers
import sys
from fractions import Fraction


_ZERO = Fraction(0)


class QC:
    """Gaussian rational: exact complex number with Fraction parts."""

    __slots__ = ("re", "im")

    def __init__(self, re=0, im=0):
        self.re = Fraction(re)
        self.im = Fraction(im)

    @staticmethod
    def of(x) -> "QC":
        if isinstance(x, QC):
            return x
        if isinstance(x, complex):
            return _qc(Fraction(x.real), Fraction(x.imag))
        return _qc(Fraction(x), _ZERO)

    def __add__(self, other):
        o = _operand(other)
        if o is None:
            return NotImplemented
        return _qc(self.re + o.re, self.im + o.im)

    __radd__ = __add__

    def __sub__(self, other):
        o = _operand(other)
        if o is None:
            return NotImplemented
        return _qc(self.re - o.re, self.im - o.im)

    def __rsub__(self, other):
        return QC.of(other) - self

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return _qc(self.re * other, self.im * other)
        o = _operand(other)
        if o is None:
            return NotImplemented
        return _qc(self.re * o.re - self.im * o.im,
                   self.re * o.im + self.im * o.re)

    __rmul__ = __mul__

    def __truediv__(self, other):
        o = _operand(other)
        if o is None:
            return NotImplemented
        d = o.re * o.re + o.im * o.im
        if d == 0:
            raise ZeroDivisionError("division by zero QC")
        return _qc((self.re * o.re + self.im * o.im) / d,
                   (o.re * self.im - o.im * self.re) / d)

    def __rtruediv__(self, other):
        return QC.of(other) / self

    def __neg__(self):
        return _qc(-self.re, -self.im)

    def __pow__(self, n: int):
        if n < 0:
            return QC(1) / self ** (-n)
        return _power(self, n, QC.__mul__) if n else QC(1)

    def __eq__(self, other):
        try:
            o = QC.of(other)
        except (TypeError, ValueError):
            return NotImplemented
        return self.re == o.re and self.im == o.im

    def __hash__(self):
        # the hash of the equal int, Fraction or complex
        if not self.im:
            return hash(self.re)
        width = sys.hash_info.width
        h = (hash(self.re) + sys.hash_info.imag * hash(self.im)) % (1 << width)
        return h - (1 << width) if h >> (width - 1) else h

    def __bool__(self):
        return self.re != 0 or self.im != 0

    def __complex__(self):
        return complex(float(self.re), float(self.im))

    def __repr__(self):
        if self.im == 0:
            return f"QC({self.re})"
        return f"QC({self.re}, {self.im})"


def _qc(re: Fraction, im: Fraction) -> QC:
    """QC from parts that are already Fractions, without re-wrapping them."""
    z = object.__new__(QC)
    z.re = re
    z.im = im
    return z


def _power(base, k, mul):
    """base^k, k >= 1, by binary powering with the product ``mul``: the
    first needed power starts the result, and no square goes unused."""
    out = None
    while True:
        if k & 1:
            out = base if out is None else mul(out, base)
        k >>= 1
        if not k:
            return out
        base = mul(base, base)


def _operand(x):
    """x as a QC, or None when x is not a number.

    A QC operator returns NotImplemented for None, so that ``QC op Series``
    falls through to the Series' reflected method.
    """
    if type(x) is QC:
        return x
    if isinstance(x, numbers.Number):
        return QC.of(x)
    return None


# -- Gaussian-integer kernel -------------------------------------------------
#
# A Series stores its coefficients as Gaussian-integer numerators
# re[k] + i im[k] over one shared denominator den, in canonical form:
# den > 0 and gcd(den, *re, *im) == 1 (FLINT's fmpq_poly layout).  The
# kernels below run on such lists with plain ``int`` arithmetic and never
# change a list held by a Series.  ``_dot`` is the one product kernel:
# schoolbook over the nonzero coefficients (jet products are small and
# sparse, so Kronecker substitution does not pay), every product of a
# sum over one denominator, and one gcd reduction per output series.

def _lift(coeffs):
    """(re, im, den), canonical, with coeffs[k] == (re[k] + i im[k]) / den."""
    ratios = []
    for x in coeffs:
        ratios.append(x.re.as_integer_ratio())
        ratios.append(x.im.as_integer_ratio())
    den = math.lcm(*[d for _, d in ratios])
    nums = [p * (den // d) for p, d in ratios]
    return nums[0::2], nums[1::2], den


def _lower(re, im, den):
    """The QC values (re[k] + i im[k]) / den."""
    return [_qc(Fraction(r, den) if r else _ZERO,
                Fraction(i, den) if i else _ZERO) for r, i in zip(re, im)]


def _scalar(x):
    """(re, im, den), canonical, of the number x."""
    if type(x) is int:
        return x, 0, 1
    if type(x) is Fraction:
        return x.numerator, 0, x.denominator
    (re,), (im,), den = _lift([QC.of(x)])
    return re, im, den


def _dot(pairs, n):
    """Sum of a * b over the Series pairs (a, b) modulo t^(m+1), m the
    lowest of n and the operands' orders, over the lcm of the a._den b._den."""
    n = min([n] + [x.n for pair in pairs for x in pair])
    den = math.lcm(*[a._den * b._den for a, b in pairs])
    cr = [0] * (n + 1)
    ci = [0] * (n + 1)
    for a, b in pairs:
        br, bi = b._re, b._im
        nonzero_b = [(j, br[j], bi[j]) for j in range(n + 1) if br[j] or bi[j]]
        if not nonzero_b:
            continue
        f = den // (a._den * b._den)
        for i, xr, xi in zip(range(n + 1), a._re, a._im):
            if not (xr or xi):
                continue
            if f != 1:
                xr, xi = xr * f, xi * f
            for j, yr, yi in nonzero_b:
                k = i + j
                if k > n:
                    break
                cr[k] += xr * yr - xi * yi
                ci[k] += xr * yi + xi * yr
    return _series(cr, ci, den, n)


def _reciprocal_ints(re, im, den, n):
    """Numerators and denominator of 1/f for f = (re + i im) / den, f_0 != 0.

    With A = f * den and a = A_0, the coefficients of 1/A are
    b_k / a^(k+1) for the Gaussian integers b_0 = 1 and
    b_k = -sum_{j=1..k} A_j a^(j-1) b_(k-j); 1/f = den / A.
    """
    a_re, a_im = re[0], im[0]
    scaled_re, scaled_im = [0] * (n + 1), [0] * (n + 1)
    p_re, p_im = 1, 0                     # a^(j-1)
    for j in range(1, n + 1):
        scaled_re[j] = re[j] * p_re - im[j] * p_im
        scaled_im[j] = re[j] * p_im + im[j] * p_re
        p_re, p_im = p_re * a_re - p_im * a_im, p_re * a_im + p_im * a_re
    b_re, b_im = [1] + [0] * n, [0] * (n + 1)
    for k in range(1, n + 1):
        sr = si = 0
        for j in range(1, k + 1):
            xr, xi = scaled_re[j], scaled_im[j]
            if xr or xi:
                yr, yi = b_re[k - j], b_im[k - j]
                sr += xr * yr - xi * yi
                si += xr * yi + xi * yr
        b_re[k], b_im[k] = -sr, -si
    # 1/f_k = den b_k / a^(k+1) = den b_k conj(a)^(k+1) norm^(n-k) / norm^(n+1)
    norm = a_re * a_re + a_im * a_im
    q_re, q_im = a_re * den, -a_im * den  # den conj(a)^(k+1)
    scale = norm ** n                     # norm^(n-k)
    out_re, out_im = [], []
    for yr, yi in zip(b_re, b_im):
        out_re.append((yr * q_re - yi * q_im) * scale)
        out_im.append((yr * q_im + yi * q_re) * scale)
        q_re, q_im = q_re * a_re + q_im * a_im, q_im * a_re - q_re * a_im
        scale //= norm
    return out_re, out_im, norm ** (n + 1)


def _series(re, im, den, n):
    """The Series (re[k] + i im[k]) / den, k <= n, reduced to canonical form."""
    g = math.gcd(den, *re, *im)
    if g != 1:
        re = [x // g for x in re]
        im = [x // g for x in im]
        den //= g
    return _canonical(re, im, den, n)


def _canonical(re, im, den, n):
    """The Series of numerators and denominator already in canonical form."""
    s = object.__new__(Series)
    s.n = n
    s._re = re
    s._im = im
    s._den = den
    s._c = None
    return s


def _powers(inner, n):
    """[1, inner, inner^2, ...] modulo t^(n+1), up to inner^n or the first
    zero power: one list serves every composition with inner."""
    out = [Series.const(1, n), inner.truncate(n)]
    while len(out) <= n and not out[-1].is_zero():
        out.append(out[-1] * inner)
    return out


def _compose(outer, powers, n):
    """outer(inner) modulo t^(n+1), from powers = _powers(inner, N), N >= n:
    one :func:`_dot` of the coefficients of outer with the powers."""
    re, im, den = outer._re, outer._im, outer._den
    return _dot([(p, _series([re[k]] + [0] * n, [im[k]] + [0] * n, den, n))
                 for k, p in enumerate(powers[:n + 1]) if re[k] or im[k]], n)


class _Coeffs(list):
    """``Series.c``: the QC coefficients, built on first read.

    An item or slice write is lifted through ``QC.of`` and goes through
    to the integers of the owning series.  The series keeps its n + 1
    coefficients: a slice write of another length raises ValueError, and
    the methods that add, remove or reorder items raise TypeError.
    """

    __slots__ = ("owner",)

    def __init__(self, owner, values):
        super().__init__(values)
        self.owner = owner

    def __setitem__(self, key, value):
        if isinstance(key, slice):
            value = [QC.of(x) for x in value]
            if len(range(*key.indices(len(self)))) != len(value):
                raise ValueError("a slice write must keep the n + 1 coefficients")
        else:
            value = QC.of(value)
        super().__setitem__(key, value)
        owner = self.owner
        owner._re, owner._im, owner._den = _lift(self)

    def _resize(self, *args, **kwargs):
        raise TypeError("a series keeps its n + 1 coefficients; "
                        "assign them by index")

    append = extend = insert = pop = remove = clear = _resize
    __delitem__ = __iadd__ = __imul__ = reverse = sort = _resize


class Series:
    """QC coefficients c[0..n] of a germ modulo t^(n+1).

    Stored as Gaussian-integer numerators over one denominator (see the
    kernel notes above); ``c`` is the list of QC coefficients, built on
    first read, and writes to it go through to the integers.
    """

    __slots__ = ("n", "_re", "_im", "_den", "_c")

    def __init__(self, coeffs, n=None):
        coeffs = [QC.of(x) for x in coeffs]
        if n is None:
            n = len(coeffs) - 1
        coeffs = (coeffs + [QC()] * (n + 1 - len(coeffs)))[:n + 1]
        self.n = n
        self._re, self._im, self._den = _lift(coeffs)
        self._c = None

    @property
    def c(self):
        """The coefficients c_0..c_n as a list of QC values."""
        if self._c is None:
            self._c = _Coeffs(self, _lower(self._re, self._im, self._den))
        return self._c

    @property
    def ints(self):
        """(re, im, den): c_k = (re[k] + i im[k]) / den in canonical form.

        The lists are the stored ones; do not change them.
        """
        return self._re, self._im, self._den

    # -- constructors ---------------------------------------------------

    @staticmethod
    def from_ints(re, im, den, n):
        """The series c_k = (re[k] + i im[k]) / den, k <= n (den > 0);
        numerators missing past the end of the lists are zero."""
        pad = [0] * (n + 1 - len(re))
        return _series(list(re[:n + 1]) + pad, list(im[:n + 1]) + pad, den, n)

    @staticmethod
    def zero(n):
        return _canonical([0] * (n + 1), [0] * (n + 1), 1, n)

    @staticmethod
    def const(value, n):
        re, im, den = _scalar(value)
        return _canonical([re] + [0] * n, [im] + [0] * n, den, n)

    @staticmethod
    def variable(n):
        s = Series.zero(n)
        if n >= 1:
            s._re[1] = 1
        return s

    @staticmethod
    def from_coeffs(coeffs, n):
        return Series(coeffs[:n + 1], n)

    def copy(self):
        return _canonical(self._re, self._im, self._den, self.n)

    def truncate(self, m):
        if m > self.n:
            raise ValueError(f"cannot extend truncation order {self.n} to {m}")
        return _series(self._re[:m + 1], self._im[:m + 1], self._den, m)

    def __getitem__(self, k):
        """c_k; zero past the truncation order."""
        if k < 0:
            raise IndexError("series coefficient index must be >= 0")
        if k > self.n:
            return QC()
        if self._c is not None:
            return self._c[k]
        return _lower(self._re[k:k + 1], self._im[k:k + 1], self._den)[0]

    def __iter__(self):
        """The n + 1 stored coefficients c_0..c_n."""
        return iter(self.c)

    def is_zero(self) -> bool:
        return not (any(self._re) or any(self._im))

    # -- ring operations -------------------------------------------------

    def __add__(self, other):
        return self._add(other, 1)

    __radd__ = __add__

    def __sub__(self, other):
        return self._add(other, -1)

    def __rsub__(self, other):
        return (-self) + other

    def _add(self, other, sign):
        """self + sign * other, over the lcm of the two denominators."""
        ar, ai, ad = self._re, self._im, self._den
        if isinstance(other, Series):
            n = min(self.n, other.n)
            br, bi, bd = other._re, other._im, other._den
        else:
            n = self.n
            sr, si, bd = _scalar(other)
            br, bi = [sr] + [0] * n, [si] + [0] * n
        g = math.gcd(ad, bd)
        fa, fb = bd // g, sign * (ad // g)
        if fa == 1 and fb == 1:
            re = [x + y for x, y in zip(ar, br)]
            im = [x + y for x, y in zip(ai, bi)]
        elif fa == 1 and fb == -1:
            re = [x - y for x, y in zip(ar, br)]
            im = [x - y for x, y in zip(ai, bi)]
        else:
            re = [x * fa + y * fb for x, y in zip(ar, br)]
            im = [x * fa + y * fb for x, y in zip(ai, bi)]
        return _series(re, im, ad * fa, n)

    def __neg__(self):
        return _canonical([-x for x in self._re], [-x for x in self._im],
                          self._den, self.n)

    def __mul__(self, other):
        if not isinstance(other, Series):
            return self._scaled(*_scalar(other))
        return _dot([(self, other)], self.n)

    __rmul__ = __mul__

    def _scaled(self, sr, si, sd):
        """self times the Gaussian rational (sr + i si) / sd."""
        ar, ai = self._re, self._im
        if si:
            re = [r * sr - i * si for r, i in zip(ar, ai)]
            im = [r * si + i * sr for r, i in zip(ar, ai)]
        else:
            re = [r * sr for r in ar]
            im = [i * sr for i in ai]
        return _series(re, im, self._den * sd, self.n)

    def reciprocal(self):
        if not (self._re[0] or self._im[0]):
            raise ZeroDivisionError("series with zero constant term is not invertible")
        return _series(*_reciprocal_ints(self._re, self._im, self._den, self.n),
                       self.n)

    def __truediv__(self, other):
        if not isinstance(other, Series):
            return self * (QC(1) / QC.of(other))
        return self * other.reciprocal()

    def __rtruediv__(self, other):
        return self.reciprocal() * other

    def __pow__(self, k: int):
        if k < 0:
            return self.reciprocal() ** (-k)
        out = _power(self, k, Series.__mul__) if k else Series.const(1, self.n)
        return out.copy() if out is self else out

    # -- calculus ---------------------------------------------------------

    def derivative(self):
        n = self.n
        if n == 0:
            return Series.zero(0)
        return _series([k * x for k, x in enumerate(self._re[1:], 1)],
                       [k * x for k, x in enumerate(self._im[1:], 1)],
                       self._den, n - 1)

    def compose(self, inner: "Series"):
        """self(inner(t)); requires inner(0) = 0."""
        if inner._re[0] or inner._im[0]:
            raise ValueError("composition requires inner constant term 0")
        n = min(self.n, inner.n)
        return _compose(self, _powers(inner, n), n)

    def reversion(self):
        """Functional inverse w with self(w(t)) = t; needs c0=0, c1 != 0."""
        re, im, den = self._re, self._im, self._den
        if re[0] or im[0] or not (re[1] or im[1]):
            raise ValueError("reversion requires c0 = 0 and c1 != 0")
        # [t^k] w^j, filled one order k at a time: [t^k] w^j for j >= 2
        # needs only w_1..w_{k-1}, and [t^k] self(w) = 0 then gives w_k
        # (Brent & Kung, J. ACM 1978); O(n^3) integer operations.  With
        # c_j = C_j / D and 1/c_1 = V / E (E > 0), w_k = W_k / (E^(2k-1)
        # D^(k-1)) and [t^k] w^j = P_jk / (E^(2k-j) D^(k-j)) for Gaussian
        # integers W_k and P_jk, so P_jk = sum_i W_i P_(j-1)(k-i) and
        # W_k = -V sum_j C_j P_jk (E D)^(j-2) need no division.
        n = self.n
        vr, vi, e = den * re[1], -den * im[1], re[1] ** 2 + im[1] ** 2
        g = math.gcd(vr, vi, e)
        vr, vi, e = vr // g, vi // g, e // g
        ed = e * den
        wr, wi = [0] * (n + 1), [0] * (n + 1)
        wr[1], wi[1] = vr, vi
        pr = [None, wr] + [[0] * (n + 1) for _ in range(2, n + 1)]
        pi = [None, wi] + [[0] * (n + 1) for _ in range(2, n + 1)]
        for k in range(2, n + 1):
            sr = si = 0
            scale = 1                     # (E D)^(j-2)
            for j in range(2, k + 1):
                prev_r, prev_i = pr[j - 1], pi[j - 1]
                xr = xi = 0
                for i in range(1, k - j + 2):
                    ar, ai = wr[i], wi[i]
                    br, bi = prev_r[k - i], prev_i[k - i]
                    xr += ar * br - ai * bi
                    xi += ar * bi + ai * br
                pr[j][k], pi[j][k] = xr, xi
                cr, ci = re[j], im[j]
                if cr or ci:
                    sr += (cr * xr - ci * xi) * scale
                    si += (cr * xi + ci * xr) * scale
                scale *= ed
            wr[k] = vi * si - vr * sr
            wi[k] = -(vr * si + vi * sr)
        # over the common denominator E^(2n-1) D^(n-1)
        step = e * ed
        scale = 1
        for k in range(n, 0, -1):
            wr[k] *= scale
            wi[k] *= scale
            scale *= step
        return _series(wr, wi, e ** (2 * n - 1) * den ** (n - 1), n)

    def evaluate(self, t):
        c = self.c
        acc = c[self.n]
        for k in range(self.n - 1, -1, -1):
            acc = acc * t + c[k]
        return acc

    def __eq__(self, other):
        if not isinstance(other, Series):
            return NotImplemented
        m = min(self.n, other.n) + 1
        ad, bd = self._den, other._den
        if ad == bd:
            return (self._re[:m] == other._re[:m]
                    and self._im[:m] == other._im[:m])
        return (all(x * bd == y * ad for x, y in zip(self._re[:m], other._re))
                and all(x * bd == y * ad for x, y in zip(self._im[:m], other._im)))

    def __repr__(self):
        shown = ", ".join(repr(x) for x in self.c[:5])
        more = ", ..." if self.n > 4 else ""
        return f"Series([{shown}{more}], n={self.n})"
