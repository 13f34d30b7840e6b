import math
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from thetakernels.jets import ConnectionJet, DiffOperator
from thetakernels.series import QC, Series, _compose, _dot, _powers


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

    def test_compose_and_reversion(self):
        x = Series.variable(8)
        w = x + x * x * QC(2) + x ** 3 * QC(0, 1)
        winv = w.reversion()
        assert w.compose(winv) == Series.variable(8)
        assert winv.compose(w) == Series.variable(8)

    def test_derivative_integrate(self):
        f = Series.from_coeffs([5, 1, 3], 6)
        assert f.derivative().c[1] == QC(6)

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


# ----------------------------------------------------------------------
# More term-by-term QC references: each reads the coefficient lists and
# builds its result from QC arithmetic alone.
# ----------------------------------------------------------------------

def schoolbook_add(a, b, sign=1):
    if not isinstance(b, Series):
        out = list(a.c)
        out[0] = out[0] + QC.of(b) * sign
        return Series(out, a.n)
    n = min(a.n, b.n)
    return Series([a.c[k] + b.c[k] * sign for k in range(n + 1)], n)


def schoolbook_neg(a):
    return Series([-x for x in a.c], a.n)


def schoolbook_derivative(a):
    if a.n == 0:
        return Series([QC()], 0)
    return Series([a.c[k + 1] * (k + 1) for k in range(a.n)], a.n - 1)


def schoolbook_eq(a, b):
    return all(a.c[k] == b.c[k] for k in range(min(a.n, b.n) + 1))


def schoolbook_reversion(a):
    """The table [t^k] w^j in QC, filled one order k at a time."""
    n, c = a.n, a.c
    inv1 = QC(1) / c[1]
    w = [QC()] * (n + 1)
    w[1] = inv1
    pw = [None, w] + [[QC()] * (n + 1) for _ in range(2, n + 1)]
    for k in range(2, n + 1):
        acc = QC()
        for j in range(2, k + 1):
            p = QC()
            for i in range(1, k - j + 2):
                p = p + w[i] * pw[j - 1][k - i]
            pw[j][k] = p
            acc = acc + c[j] * p
        w[k] = -acc * inv1
    return Series(w, n)


def qc_operator_solve(q, initial, order_n):
    """Taylor solution of f^(n) = sum_i q_i f^(n-i) in QC arithmetic."""
    n = len(q)
    c = [QC.of(v) * Fraction(1, math.factorial(k)) for k, v in enumerate(initial)]
    for j in range(order_n - n + 1):
        rhs = QC()
        for i, qi in enumerate(q, start=1):
            for a in range(min(j, qi.n) + 1):
                b = j - a
                idx = b + n - i
                rhs = rhs + qi.c[a] * c[idx] * Fraction(math.factorial(idx),
                                                        math.factorial(b))
        c.append(rhs * Fraction(math.factorial(j), math.factorial(j + n)))
    return Series(c[:order_n + 1], order_n)


def qc_connection_solve(gamma, initial, order_n):
    """Flat section v' = Gamma v, v(0) = initial, in QC arithmetic."""
    cols = [[QC.of(v)] for v in initial]
    for k in range(order_n):
        new = []
        for a, row in enumerate(gamma):
            acc = QC()
            for b, gab in enumerate(row):
                for i in range(min(k, gab.n) + 1):
                    acc = acc + gab.c[i] * cols[b][k - i]
            new.append(acc * Fraction(1, k + 1))
        for col, x in zip(cols, new):
            col.append(x)
    return [Series(col, order_n) for col in cols]


SCALARS = st.one_of(GAUSSIAN, st.integers(-2**70, 2**70), RATIONALS)


def canonical(s):
    re, im, den = s.ints
    return den > 0 and math.gcd(den, *re, *im) == 1 and len(re) == len(im) == s.n + 1


class TestIntegerKernelProperties:
    @settings(max_examples=100, deadline=None)
    @given(series(), series())
    def test_sum_difference_negation(self, a, b):
        assert same(a + b, schoolbook_add(a, b))
        assert same(a - b, schoolbook_add(a, b, -1))
        assert same(-a, schoolbook_neg(a))

    @settings(max_examples=100, deadline=None)
    @given(series(), SCALARS)
    def test_scalar_sum(self, a, k):
        assert same(a + k, schoolbook_add(a, k))
        assert same(a - k, schoolbook_add(a, k, -1))
        if not isinstance(k, QC):
            assert same(k + a, schoolbook_add(a, k))

    @settings(max_examples=100, deadline=None)
    @given(series(), st.data())
    def test_calculus_and_truncation(self, a, data):
        assert same(a.derivative(), schoolbook_derivative(a))
        m = data.draw(st.integers(0, a.n), label="m")
        assert same(a.truncate(m), Series(a.c[:m + 1], m))

    @settings(max_examples=100, deadline=None)
    @given(series(), series(), st.lists(GAUSSIAN, max_size=4), st.data())
    def test_equality_across_orders(self, a, b, tail, data):
        assert (a == b) == schoolbook_eq(a, b)
        longer = Series(list(a.c) + tail, a.n + len(tail))
        assert a == longer and longer == a
        k = data.draw(st.integers(0, a.n), label="k")
        changed = Series(a.c[:k] + [a.c[k] + QC(0, 1)] + a.c[k + 1:] + tail,
                         a.n + len(tail))
        assert not (a == changed) and not (changed == a)

    @settings(max_examples=60, deadline=None)
    @given(series(min_order=1, max_order=8))
    def test_reversion_matches_the_qc_table(self, f):
        f.c[0] = QC()
        assume(f.c[1])
        assert same(f.reversion(), schoolbook_reversion(f))

    @settings(max_examples=100, deadline=None)
    @given(series(), series(), SCALARS)
    def test_canonical_form(self, a, b, k):
        outs = [a + b, a - b, -a, a * b, a * k, a + k, a.derivative(),
                Series(list(a.c), a.n)]
        assert all(canonical(s) for s in outs)
        # equal series store equal integers, however they were reached
        back = (a + b) - b
        assert back.ints == a.truncate(back.n).ints
        assert Series(list(a.c), a.n).ints == a.ints
        assert (a * 2 * Fraction(1, 2)).ints == a.ints

    @settings(max_examples=100, deadline=None)
    @given(st.lists(st.tuples(series(), series()), max_size=4), st.integers(0, 10))
    def test_sum_of_products(self, pairs, n):
        # one reduction over the common denominator gives the sum of the
        # term-by-term products, at the lowest order among n and the operands
        want = Series.zero(min([n] + [x.n for pair in pairs for x in pair]))
        for a, b in pairs:
            want = schoolbook_add(want, schoolbook_mul(a, b))
        got = _dot(pairs, n)
        assert same(got, want) and canonical(got)

    @settings(max_examples=60, deadline=None)
    @given(series(), series(min_order=1), st.data())
    def test_composition_with_shared_powers(self, a, inner, data):
        inner.c[0] = QC()
        assert same(a.compose(inner), schoolbook_compose(a, inner))
        # powers built at the order of inner serve every lower order
        n = min(a.n, data.draw(st.integers(0, inner.n), label="n"))
        got = _compose(a, _powers(inner, inner.n), n)
        assert same(got, schoolbook_compose(a.truncate(n), inner)) and canonical(got)

    @settings(max_examples=60, deadline=None)
    @given(series(max_order=6), st.integers(0, 6))
    def test_integer_power(self, a, k):
        want = Series.const(1, a.n)
        for _ in range(k):
            want = schoolbook_mul(want, a)
        got = a ** k
        assert same(got, want) and got is not a

    @settings(max_examples=40, deadline=None)
    @given(st.lists(series(max_order=6), min_size=1, max_size=3),
           st.lists(GAUSSIAN, min_size=3, max_size=3), st.integers(0, 8))
    def test_operator_solve(self, q, initial, order_n):
        L = DiffOperator(order=len(q), rank=1, q=[[[qi]] for qi in q])
        got = L.solve(initial[:len(q)], order_n)
        assert same(got, qc_operator_solve(q, initial[:len(q)], order_n))

    @settings(max_examples=40, deadline=None)
    @given(st.integers(1, 3), st.lists(series(max_order=6), min_size=9,
                                       max_size=9),
           st.lists(GAUSSIAN, min_size=3, max_size=3), st.integers(0, 6))
    def test_connection_solve(self, r, entries, initial, order_n):
        gamma = [entries[r * a:r * a + r] for a in range(r)]
        got = ConnectionJet(rank=r, gamma=gamma).solve(initial[:r], order_n)
        want = qc_connection_solve(gamma, initial[:r], order_n)
        assert all(same(x, y) for x, y in zip(got, want))


class TestIntegerStorage:
    def test_constructor_lifts_numbers(self):
        a = Series([1, 2])
        assert same(a * a, Series([QC(1), QC(4)]))
        assert same(a + a, Series([QC(2), QC(4)]))
        assert all(type(x) is QC for x in (a + a).c)

    def test_write_after_read(self):
        s = Series.from_coeffs([1, 2, 3], 4)
        assert s.c[1] == QC(2)
        s.c[1] = QC(5)
        assert same(s + Series.zero(4), Series.from_coeffs([1, 5, 3], 4))
        assert same(s * Series.const(1, 4), Series.from_coeffs([1, 5, 3], 4))

    def test_write_through_a_held_reference(self):
        s = Series.from_coeffs([1, 2, 3], 4)
        c = s.c
        c[2] = Fraction(1, 3)
        c[4] = 1j
        assert type(c[4]) is QC
        assert same(s * 3, Series.from_coeffs([3, 6, 1, 0, 3j], 4))
        assert s.ints == Series.from_coeffs([1, 2, Fraction(1, 3), 0, 1j], 4).ints

    def test_slice_write(self):
        s = Series.from_coeffs([1, 2, 3], 4)
        s.c[1:3] = [QC(7), 2]
        assert (s - Series.from_coeffs([1, 7, 2], 4)).is_zero()
        s.c[::2] = [0, 0, 1]
        assert s == Series.from_coeffs([0, 7, 0, 0, 1], 4)
        with pytest.raises(ValueError):
            s.c[1:3] = [QC(1)]
        with pytest.raises(TypeError):
            s.c.append(QC(1))
        assert s.n == 4 and len(s.c) == 5

    def test_sum_and_product_build_no_fraction(self):
        a = Series.from_coeffs([Fraction(1, 3), QC(2, Fraction(-1, 7)), 5], 6)
        b = Series.from_coeffs([Fraction(3, 4), 1j, Fraction(1, 9)], 5)

        def refuse(*args, **kwargs):
            raise AssertionError("a Fraction was built")

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(Fraction, "__new__", refuse)
            results = [a + b, a - b, a * b, -a, a * 3, a + 1]
        assert same(results[0], schoolbook_add(a, b))
        assert same(results[2], schoolbook_mul(a, b))


class TestQCHash:
    @settings(max_examples=200, deadline=None)
    @given(st.one_of(st.integers(-2**80, 2**80), RATIONALS,
                     st.floats(allow_nan=False, allow_infinity=False),
                     st.complex_numbers(allow_nan=False, allow_infinity=False)))
    def test_hash_of_an_equal_number(self, x):
        q = QC.of(x)
        assert q == x
        assert hash(q) == hash(x)

    def test_dict_lookup(self):
        table = {QC(1): "one", QC(Fraction(1, 2), 2): "z"}
        assert table[1] == "one" and table[0.5 + 2j] == "z"
        assert hash(QC(-1)) == hash(-1) == -2
