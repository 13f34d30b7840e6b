from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from thetakernels.series import QC, Series, complex_mul


class TestQC:
    def test_field_operations(self):
        a = QC(Fraction(1, 3), 2)
        b = QC(-1, Fraction(1, 2))
        assert (a + b) - b == a
        assert (a * b) / b == a
        assert a * (QC(1) / a) == QC(1)
        assert (a ** 5) == a * a * a * a * a
        assert a ** -2 == QC(1) / (a * a)

    def test_exactness(self):
        x = QC(Fraction(1, 3))
        assert x + x + x == QC(1)

    def test_conversions(self):
        assert complex(QC(1, 2)) == 1 + 2j
        assert QC.of(0.5 + 0.25j) == QC(Fraction(1, 2), Fraction(1, 4))
        assert not QC()
        assert QC(0, 1)

    def test_operators_defer_to_series(self):
        s = Series.from_coeffs([1, QC(2, -1), Fraction(1, 3)], 4)
        k = QC(2)
        for got, want in [(k * s, s * k), (k + s, s + k), (k - s, -(s - k)),
                          (k / s, s.reciprocal() * k)]:
            assert isinstance(got, Series)
            assert got == want


class TestSeriesRing:
    def test_truncation_on_min_order(self):
        a = Series.from_coeffs([1, 2, 3], 8)
        b = Series.from_coeffs([1, 1], 3)
        assert (a * b).n == 3
        assert (a + b).n == 3

    def test_mul_and_reciprocal(self):
        x = Series.variable(10)
        f = (1 + x) ** 4
        assert f.c[2] == QC(6)
        g = f.reciprocal()
        prod = f * g
        assert prod.c[0] == QC(1) and all(not c for c in prod.c[1:])

    def test_division_requires_invertible_constant(self):
        x = Series.variable(6)
        with pytest.raises(ZeroDivisionError):
            (1 + x) / x

    def test_fractional_power(self):
        x = Series.variable(9)
        h = (1 + x).pow_fraction(Fraction(1, 2))
        assert h * h == 1 + x
        with pytest.raises(ValueError):
            (x + 2).pow_fraction(Fraction(1, 2))

    def test_compose_and_reversion(self):
        x = Series.variable(8)
        w = x + x * x * QC(2) + x ** 3 * QC(0, 1)
        winv = w.reversion()
        assert w.compose(winv) == Series.variable(8)
        assert winv.compose(w) == Series.variable(8)

    def test_derivative_integrate(self):
        f = Series.from_coeffs([5, 1, 3], 6)
        assert f.derivative().c[1] == QC(6)
        assert f.integrate().c[3] == QC(1)
        assert f.integrate().derivative() == f

    def test_shift_argument(self):
        f = Series.from_coeffs([1, 2, 3], 5)   # 1 + 2t + 3t^2
        g = f.shift_argument(QC(1))
        assert [g.c[0], g.c[1], g.c[2]] == [QC(6), QC(8), QC(3)]

    def test_evaluate(self):
        f = Series.from_coeffs([1, 0, 1], 4)
        assert f.evaluate(QC(2)) == QC(5)

    def test_iteration_and_indexing(self):
        # iteration stops after the n + 1 stored coefficients (it used to
        # fall back to __getitem__, which is zero forever past the order)
        s = Series.from_coeffs([1, 2], 1)
        assert list(s) == [QC(1), QC(2)]
        assert list(Series.from_coeffs([1, 2], 4)) == \
            [QC(1), QC(2), QC(), QC(), QC()]
        assert 2 in s
        assert 7 not in s
        assert s[5] == QC()
        with pytest.raises(IndexError):
            s[-1]


# ----------------------------------------------------------------------
# References: the schoolbook loops in term-by-term QC arithmetic, with
# the reference product in place of Series.__mul__, so the integer
# kernel is checked against code that shares none of it.
# ----------------------------------------------------------------------

def schoolbook_mul(a, b):
    if not isinstance(b, Series):
        return Series([x * b for x in a.c], a.n)
    n = min(a.n, b.n)
    out = [QC()] * (n + 1)
    for i in range(n + 1):
        ci = a.c[i]
        if not bool(ci):
            continue
        for j in range(n + 1 - i):
            cj = b.c[j]
            if bool(cj):
                out[i + j] = out[i + j] + ci * cj
    return Series(out, n)


def schoolbook_reciprocal(a):
    c0 = a.c[0]
    n = a.n
    inv0 = QC(1) / c0
    out = [inv0] + [QC()] * n
    for k in range(1, n + 1):
        acc = QC()
        for j in range(1, k + 1):
            acc = acc + a.c[j] * out[k - j]
        out[k] = -inv0 * acc
    return Series(out, n)


def schoolbook_compose(a, inner):
    n = min(a.n, inner.n)
    out = Series.const(a.c[0], n)
    power = Series.const(1, n)
    for k in range(1, n + 1):
        power = schoolbook_mul(power, inner)
        if power.is_zero():
            break
        out = out + schoolbook_mul(power, a.c[k])
    return out


def compose_reversion(a):
    n = a.n
    inv1 = QC(1) / a.c[1]
    w = Series.zero(n)
    if n >= 1:
        w.c[1] = inv1
    for k in range(2, n + 1):
        # choose w_k so that [t^k] a(w(t)) = 0
        comp = schoolbook_compose(a, w)
        w.c[k] = -comp.c[k] * inv1
    return w


def same(a, b):
    """Exact equality of order, values and Fraction parts."""
    return (a.n == b.n and all(
        type(x.re) is Fraction and type(x.im) is Fraction
        and (x.re, x.im) == (y.re, y.im) for x, y in zip(a.c, b.c)))


# mixed denominators: small, repeated, large coprime and beyond 2^64
DENOMINATORS = st.one_of(st.integers(1, 12), st.sampled_from(
    [1, 2, 4, 97, 2**61 - 1, 2**64 + 13, 3**45]))
NUMERATORS = st.one_of(st.integers(-20, 20), st.integers(-2**80, 2**80),
                       st.sampled_from([2**64, -2**64 - 1, 3**50]))
RATIONALS = st.builds(Fraction, NUMERATORS, DENOMINATORS)
GAUSSIAN = st.one_of(
    st.just(QC()),                                   # zero runs
    st.builds(QC, RATIONALS),                        # real
    st.builds(QC, RATIONALS, RATIONALS))


@st.composite
def series(draw, min_order=0, max_order=10):
    n = draw(st.integers(min_order, max_order), label="n")
    return Series(draw(st.lists(GAUSSIAN, min_size=n + 1, max_size=n + 1)), n)


class TestExactKernelProperties:
    @settings(max_examples=150, deadline=None)
    @given(series(), series())
    def test_product(self, a, b):
        assert same(a * b, schoolbook_mul(a, b))

    @settings(max_examples=100, deadline=None)
    @given(series(), st.one_of(GAUSSIAN, st.integers(-2**70, 2**70),
                               RATIONALS))
    def test_scalar_product(self, a, k):
        assert same(a * k, schoolbook_mul(a, k))
        if not isinstance(k, QC):
            assert same(k * a, schoolbook_mul(a, k))

    @settings(max_examples=100, deadline=None)
    @given(series())
    def test_reciprocal(self, a):
        assume(a.c[0])
        assert same(a.reciprocal(), schoolbook_reciprocal(a))

    @settings(max_examples=100, deadline=None)
    @given(series(), series())
    def test_division(self, a, b):
        assume(b.c[0])
        assert same(a / b, schoolbook_mul(a, schoolbook_reciprocal(b)))

    @settings(max_examples=60, deadline=None)
    @given(series(min_order=1, max_order=8))
    def test_reversion(self, f):
        f.c[0] = QC()
        assume(f.c[1])
        w = f.reversion()
        assert same(w, compose_reversion(f))
        t = Series.variable(f.n)
        assert f.compose(w) == t
        assert w.compose(f) == t

    @settings(max_examples=100, deadline=None)
    @given(st.data())
    def test_float_product_bit_for_bit(self, data):
        cplx = st.complex_numbers(max_magnitude=1e6, allow_nan=False,
                                  allow_infinity=False)
        a, b = (data.draw(st.lists(cplx, min_size=n + 1, max_size=n + 1))
                for n in data.draw(st.tuples(st.integers(0, 10),
                                             st.integers(0, 10))))
        n = min(len(a), len(b)) - 1
        want = [0j] * (n + 1)
        for i in range(n + 1):
            if a[i]:
                for j in range(n + 1 - i):
                    if b[j]:
                        want[i + j] = want[i + j] + a[i] * b[j]
        got = complex_mul(a, b)
        assert [(z.real.hex(), z.imag.hex()) for z in got] == \
            [(z.real.hex(), z.imag.hex()) for z in want]
