"""Truncated power series: exact :class:`Series` and complex coefficient lists.

A :class:`Series` holds coefficients c_0..c_n of a function germ modulo
t^(n+1) over :class:`QC` (Gaussian rationals, exact).  Arithmetic
truncates at the minimum order of the operands.

Exact products, reciprocals and scalar multiples run on an integer
kernel: the operands are lifted to Gaussian-integer numerators over one
common denominator, combined with plain ``int`` arithmetic, and one
normalised :class:`~fractions.Fraction` is built per output part.

Numerically computed germs (the local expansions of a curve and the
theta compositions of the Wirtinger connection) are plain lists of
Python ``complex`` coefficients; sums and scalings are list
comprehensions, and :func:`complex_mul` and :func:`complex_div` give the
truncated product and quotient.  They use CPython's complex arithmetic
on purpose: numpy's complex128 multiply rounds differently in the last
bit.
"""

from __future__ import annotations

import math
import numbers
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
        out = QC(1)
        base = self
        while n:
            if n & 1:
                out = out * base
            base = base * base
            n >>= 1
        return out

    def __eq__(self, other):
        try:
            o = QC.of(other)
        except (TypeError, ValueError):
            return NotImplemented
        return self.re == o.re and self.im == o.im

    def __hash__(self):
        return hash((self.re, self.im))

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
# A list of QC values is lifted to numerators re[k] + i im[k] (ints) over
# one common denominator; the kernels below work on such lifts and only
# the final conversion back builds Fractions (one gcd per part).

def _lift(coeffs):
    """(re, im, den) with coeffs[k] == (re[k] + i im[k]) / den."""
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


def _convolve(ar, ai, br, bi, n):
    """Gaussian-integer product of two coefficient lists modulo t^(n+1)."""
    cr = [0] * (n + 1)
    ci = [0] * (n + 1)
    nonzero_b = [(j, br[j], bi[j]) for j in range(n + 1) if br[j] or bi[j]]
    for i in range(n + 1):
        xr, xi = ar[i], ai[i]
        if not (xr or xi):
            continue
        for j, yr, yi in nonzero_b:
            k = i + j
            if k > n:
                break
            cr[k] += xr * yr - xi * yi
            ci[k] += xr * yi + xi * yr
    return cr, ci


def _reciprocal_lift(re, im, den, n):
    """QC coefficients of 1/f for f = (re + i im) / den with re[0] + i im[0] != 0.

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
    # 1/f_k = den b_k / a^(k+1) = den b_k conj(a)^(k+1) / |a|^(2k+2)
    norm = a_re * a_re + a_im * a_im
    q_re, q_im, q_den = a_re * den, -a_im * den, norm
    out = []
    for yr, yi in zip(b_re, b_im):
        out.append(_qc(Fraction(yr * q_re - yi * q_im, q_den),
                       Fraction(yr * q_im + yi * q_re, q_den)))
        q_re, q_im = q_re * a_re + q_im * a_im, q_im * a_re - q_re * a_im
        q_den *= norm
    return out


# -- complex coefficient lists -------------------------------------------------

def complex_mul(a, b):
    """Product of two complex coefficient lists, truncated to the shorter."""
    n = min(len(a), len(b)) - 1
    out = [0j] * (n + 1)
    for i in range(n + 1):
        ai = a[i]
        if not ai:
            continue
        for j in range(n + 1 - i):
            bj = b[j]
            if bj:
                out[i + j] = out[i + j] + ai * bj
    return out


def complex_div(a, b):
    """Quotient a / b of complex coefficient lists; needs b[0] != 0."""
    inv0 = (1 + 0j) / b[0]
    inv = [inv0] + [0j] * (len(b) - 1)
    for k in range(1, len(b)):
        acc = 0j
        for j in range(1, k + 1):
            acc = acc + b[j] * inv[k - j]
        inv[k] = -inv0 * acc
    return complex_mul(a, inv)


class Series:
    """QC coefficients c[0..n] of a germ modulo t^(n+1)."""

    __slots__ = ("c", "n")

    def __init__(self, coeffs, n=None):
        coeffs = list(coeffs)
        if n is None:
            n = len(coeffs) - 1
        if len(coeffs) < n + 1:
            coeffs = coeffs + [QC()] * (n + 1 - len(coeffs))
        self.c = coeffs[:n + 1]
        self.n = n

    # -- constructors ---------------------------------------------------

    @staticmethod
    def zero(n):
        return Series([QC()] * (n + 1), n)

    @staticmethod
    def const(value, n):
        s = Series.zero(n)
        s.c[0] = QC.of(value)
        return s

    @staticmethod
    def variable(n):
        s = Series.zero(n)
        if n >= 1:
            s.c[1] = QC(1)
        return s

    @staticmethod
    def from_coeffs(coeffs, n):
        return Series([QC.of(c) for c in coeffs[:n + 1]], n)

    def copy(self):
        return Series(list(self.c), self.n)

    def truncate(self, m):
        if m > self.n:
            raise ValueError(f"cannot extend truncation order {self.n} to {m}")
        return Series(self.c[:m + 1], m)

    def __getitem__(self, k):
        """c_k; zero past the truncation order."""
        if k < 0:
            raise IndexError("series coefficient index must be >= 0")
        return self.c[k] if k <= self.n else QC()

    def __iter__(self):
        """The n + 1 stored coefficients c_0..c_n."""
        return iter(self.c)

    def is_zero(self) -> bool:
        return not any(self.c)

    # -- ring operations -------------------------------------------------

    def __add__(self, other):
        if not isinstance(other, Series):
            out = self.copy()
            out.c[0] = out.c[0] + other
            return out
        n = min(self.n, other.n)
        return Series([self.c[k] + other.c[k] for k in range(n + 1)], n)

    __radd__ = __add__

    def __sub__(self, other):
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __neg__(self):
        return Series([-x for x in self.c], self.n)

    def __mul__(self, other):
        if not isinstance(other, Series):
            ar, ai, den = _lift(self.c)
            (sr,), (si,), sden = _lift([QC.of(other)])
            return Series(_lower([r * sr - i * si for r, i in zip(ar, ai)],
                                 [r * si + i * sr for r, i in zip(ar, ai)],
                                 den * sden), self.n)
        n = min(self.n, other.n)
        ar, ai, aden = _lift(self.c[:n + 1])
        br, bi, bden = _lift(other.c[:n + 1])
        cr, ci = _convolve(ar, ai, br, bi, n)
        return Series(_lower(cr, ci, aden * bden), n)

    __rmul__ = __mul__

    def reciprocal(self):
        if not self.c[0]:
            raise ZeroDivisionError("series with zero constant term is not invertible")
        return Series(_reciprocal_lift(*_lift(self.c), self.n), self.n)

    def __truediv__(self, other):
        if not isinstance(other, Series):
            return self * (QC(1) / QC.of(other))
        return self * other.reciprocal()

    def __rtruediv__(self, other):
        return self.reciprocal() * other

    def __pow__(self, k: int):
        if k < 0:
            return self.reciprocal() ** (-k)
        out = Series.const(1, self.n)
        base = self
        while k:
            if k & 1:
                out = out * base
            base = base * base
            k >>= 1
        return out

    def pow_fraction(self, alpha: Fraction):
        """(1 + x)^alpha by the binomial series; requires constant term 1."""
        if self.c[0] != QC(1):
            raise ValueError("fractional powers need constant term 1")
        x = self - QC(1)
        n = self.n
        out = Series.const(1, n)
        term = Series.const(1, n)
        coeff = Fraction(alpha)
        for k in range(1, n + 1):
            term = term * x
            if term.is_zero():
                break
            out = out + term * (coeff / math.factorial(k))
            coeff *= (alpha - k)
        return out

    # -- calculus ---------------------------------------------------------

    def derivative(self):
        n = self.n
        if n == 0:
            return Series([QC()], 0)
        return Series([self.c[k + 1] * (k + 1) for k in range(n)], n - 1)

    def integrate(self):
        """Antiderivative with zero constant term; order grows by one."""
        out = [QC()]
        for k, x in enumerate(self.c):
            out.append(x * Fraction(1, k + 1))
        return Series(out, self.n + 1)

    def compose(self, inner: "Series"):
        """self(inner(t)); requires inner(0) = 0."""
        if inner.c[0]:
            raise ValueError("composition requires inner constant term 0")
        n = min(self.n, inner.n)
        out = Series.const(self.c[0], n)
        power = Series.const(1, n)
        for k in range(1, n + 1):
            power = power * inner
            if power.is_zero():
                break
            out = out + power * self.c[k]
        return out

    def reversion(self):
        """Functional inverse w with self(w(t)) = t; needs c0=0, c1 != 0."""
        if self.c[0] or not self.c[1]:
            raise ValueError("reversion requires c0 = 0 and c1 != 0")
        # pw[j][k] = [t^k] w^j, filled one order k at a time: [t^k] w^j
        # for j >= 2 needs only w_1..w_{k-1}, and [t^k] self(w) = 0 then
        # gives w_k (Brent & Kung, J. ACM 1978); O(n^3) scalar operations.
        n = self.n
        c = self.c
        zero = QC()
        inv1 = QC(1) / c[1]
        w = [zero] * (n + 1)
        w[1] = inv1
        pw = [None, w] + [[zero] * (n + 1) for _ in range(2, n + 1)]
        for k in range(2, n + 1):
            acc = zero
            for j in range(2, k + 1):
                prev = pw[j - 1]
                p = zero
                for i in range(1, k - j + 2):
                    p = p + w[i] * prev[k - i]
                pw[j][k] = p
                if c[j]:
                    acc = acc + c[j] * p
            w[k] = -acc * inv1
        return Series(w, n)

    def evaluate(self, t):
        acc = self.c[self.n]
        for k in range(self.n - 1, -1, -1):
            acc = acc * t + self.c[k]
        return acc

    def shift_argument(self, a):
        """Series of f(t + a) to the same truncation order (a a QC)."""
        n = self.n
        out = [QC()] * (n + 1)
        # Horner in (t + a)
        for k in range(n, -1, -1):
            carry = out[:]
            out[0] = carry[0] * a + self.c[k]
            for j in range(1, n + 1):
                out[j] = carry[j] * a + carry[j - 1]
        return Series(out, n)

    def __eq__(self, other):
        if not isinstance(other, Series):
            return NotImplemented
        n = min(self.n, other.n)
        return all(self.c[k] == other.c[k] for k in range(n + 1))

    def __repr__(self):
        shown = ", ".join(repr(x) for x in self.c[:5])
        more = ", ..." if self.n > 4 else ""
        return f"Series([{shown}{more}], n={self.n})"
