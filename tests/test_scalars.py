import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qrea.errors import DomainError, ModeMismatch, NonInvertible
from qrea.scalars import (
    ONE,
    Q,
    QINV,
    QQI,
    ZERO,
    GaussRational,
    LaurentScalar,
    laurent,
    qpow,
    unimodular_point,
)


def test_additive_inverse_cancels():
    a = QINV - Q          # q^{-1} - q
    b = Q - QINV
    assert (a + b).is_zero()


def test_difference_of_squares():
    a = ONE - qpow(2)
    b = ONE + qpow(2)
    assert a * b == ONE - qpow(4)


def test_monomial_inverse():
    assert qpow(2).inv() == qpow(-2)
    assert laurent(Fraction(3, 2), 5).inv() == laurent(Fraction(2, 3), -5)
    with pytest.raises(NonInvertible):
        (ONE + Q).inv()


def test_eval_examples():
    assert qpow(-2).eval(Fraction(1, 2)) == 4.0
    assert (Q - QINV).eval(0.5) == -1.5
    assert ZERO.eval(0.3) == 0.0
    with pytest.raises(DomainError):
        Q.eval(1.5)
    with pytest.raises(DomainError):
        Q.eval(0.0)


def test_mode_mismatch():
    with pytest.raises(ModeMismatch):
        Q + 0.5
    with pytest.raises(ModeMismatch):
        0.5 * Q


def test_pow_and_div():
    assert QQI ** 2 == QQI * QQI
    assert (Q ** -3) == qpow(-3)
    assert (qpow(4) / qpow(2)) == qpow(2)


def test_divide_exact():
    p = QQI * (ONE + Q + qpow(2))
    assert p.divide_exact(QQI) == ONE + Q + qpow(2)
    assert (ONE + Q).divide_exact(QQI) is None
    assert ZERO.divide_exact(QQI) == ZERO


def test_integral_coefficients_are_ints():
    half = laurent(Fraction(1, 2))
    results = [
        LaurentScalar({0: Fraction(4, 2), 1: 3}),
        half + half,
        laurent(Fraction(3, 2), 1) - laurent(Fraction(1, 2), 1),
        laurent(Fraction(2, 3)) * laurent(Fraction(3, 2), 1),
        QQI * QQI - ONE,
        -QQI,
    ]
    for s in results:
        assert s.terms and all(type(c) is int for c in s.terms.values()), s.terms


def test_divide_exact_stays_rational():
    p = ONE + laurent(2, 1)
    half = p.divide_exact(LaurentScalar.const(2))
    assert half.terms == {0: Fraction(1, 2), 1: 1}
    assert [type(c) for _, c in sorted(half.terms.items())] == [Fraction, int]
    # 1/3 is not a float, so a float quotient would show here (1/2 would not)
    third = p.divide_exact(LaurentScalar.const(3))
    assert third == laurent(Fraction(1, 3)) + laurent(Fraction(2, 3), 1)
    assert not any(isinstance(c, float) for s in (half, third) for c in s.terms.values())


def test_int_and_fraction_forms_agree():
    as_int = LaurentScalar({-2: 3, 0: -1, 1: Fraction(1, 2)})
    as_fraction = LaurentScalar({-2: Fraction(3), 0: Fraction(-1), 1: Fraction(1, 2)})
    as_sum = laurent(Fraction(6, 2), -2) - ONE + laurent(Fraction(1, 2), 1)
    for other in (as_fraction, as_sum):
        assert as_int == other and hash(as_int) == hash(other)
        assert as_int.render() == other.render() == "3*q^-2 - 1 + 1/2*q"


def test_gauss_division_stays_exact():
    z = GaussRational(1, 1)
    assert type(z.re) is int and type(z.im) is int
    third = z / 3
    assert (third.re, third.im) == (Fraction(1, 3), Fraction(1, 3))
    assert z / Fraction(2, 3) == GaussRational(Fraction(3, 2), Fraction(3, 2))
    assert z / GaussRational(1, 2) == GaussRational(Fraction(3, 5), Fraction(-1, 5))
    assert GaussRational(4, 6) / 2 == GaussRational(2, 3)
    inv = laurent(GaussRational(1, 2), 3).inv()
    assert inv == laurent(GaussRational(Fraction(1, 5), Fraction(-2, 5)), -3)
    assert inv * laurent(GaussRational(1, 2), 3) == ONE
    parts = [p for s in (third, inv.terms[-3]) for p in (s.re, s.im)]
    assert all(type(p) is Fraction for p in parts), parts


def test_gauss_int_and_fraction_parts_agree():
    as_int = GaussRational(Fraction(6, 3), -3)
    assert type(as_int.re) is int and type(as_int.im) is int
    as_fraction = GaussRational(0, 1)
    as_fraction.re, as_fraction.im = Fraction(2), Fraction(-3)
    assert as_int == as_fraction and hash(as_int) == hash(as_fraction)
    half = laurent(Fraction(1, 2))
    a, b = laurent(as_int, 1) + half, laurent(as_fraction, 1) + half
    assert a == b and hash(a) == hash(b)
    assert a.render() == b.render() == "1/2 + (2-3i)*q"
    assert repr(as_int) == repr(as_fraction) == "(2-3i)"
    assert laurent(GaussRational(1, 1) / 2).render() == "(1/2+1/2i)"


scalars = st.builds(
    lambda pairs: LaurentScalar({k: Fraction(n, d) for (k, n, d) in pairs}),
    st.lists(
        st.tuples(
            st.integers(-20, 20),
            st.integers(-30, 30),
            st.integers(1, 12),
        ),
        max_size=6,
    ),
)


@settings(max_examples=200, deadline=None)
@given(scalars, scalars, scalars)
def test_ring_axioms(a, b, c):
    assert (a + b) + c == a + (b + c)
    assert a + b == b + a
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c
    assert a * ONE == a
    assert a + ZERO == a


def _norm1(a, q0):
    return sum(abs(complex(c)) * q0 ** k for k, c in a.terms.items())


@settings(max_examples=200, deadline=None)
@given(scalars, scalars)
def test_eval_is_ring_hom(a, b):
    q0 = 0.37
    lhs = (a * b).eval(q0)
    rhs = a.eval(q0) * b.eval(q0)
    scale = max(1.0, _norm1(a, q0) * _norm1(b, q0))
    assert abs(lhs - rhs) <= 1e-13 * scale
    add_scale = max(1.0, _norm1(a, q0) + _norm1(b, q0))
    assert abs((a + b).eval(q0) - (a.eval(q0) + b.eval(q0))) <= 1e-13 * add_scale


def test_render_examples():
    assert (Q - QINV).render() == "-q^-1 + q"
    assert ZERO.render() == "0"
    assert laurent(Fraction(3, 2), -2).render() == "3/2*q^-2"
    assert (ONE - laurent(2, 3) + laurent(Fraction(3, 2), -2)).render() == "3/2*q^-2 + 1 - 2*q^3"


def test_gauss_rational():
    y = unimodular_point(Fraction(1, 2))
    assert y.is_unimodular()
    assert y * y.conjugate() == 1
    z = laurent(y, 2)
    assert z.conjugate() == laurent(y.conjugate(), 2)
    v = complex(y)
    assert math.isclose(abs(v), 1.0)
    # collapses to its real part, an int when integral, when the imaginary
    # part cancels
    assert type(y * y.conjugate()) is int
    s = GaussRational(1, 1) + GaussRational(1, -1)
    assert type(s) is int and s == 2
    h = GaussRational(Fraction(1, 2), 1) + GaussRational(0, -1)
    assert type(h) is Fraction and h == Fraction(1, 2)


def test_gauss_render_parse():
    y = unimodular_point(Fraction(1, 3))
    a = laurent(y, 1) + ONE
    assert a.render() == "1 + (4/5+3/5i)*q"
    assert a.conjugate().render() == "1 + (4/5-3/5i)*q"


def test_unimodular_point_at_zero_is_one():
    y = unimodular_point(0)
    assert y == 1 and hash(y) == hash(1)
    one = LaurentScalar({0: y})
    assert {one, ONE} == {ONE} and one.render() == "1"
    assert laurent(y, 2).terms == {2: 1} and type(laurent(y, 2).terms[2]) is int


# -- the packed form against a dict reference ---------------------------------
#
# A reference value maps exponent -> (real part, imaginary part), both
# Fractions, with no zero entry; it is the dict arithmetic that the packed
# form must agree with, coefficient by coefficient.


def _ref(s):
    return {k: (c.re, c.im) if isinstance(c, GaussRational) else (Fraction(c), Fraction(0))
            for k, c in s.terms.items()}


def _scalar(ref):
    return LaurentScalar({k: GaussRational(re, im) if im else re for k, (re, im) in ref.items()})


def _ref_clean(d):
    return {k: c for k, c in d.items() if c != (0, 0)}


def _ref_add(a, b, sign=1):
    out = dict(a)
    for k, (re, im) in b.items():
        r0, i0 = out.get(k, (0, 0))
        out[k] = (r0 + sign * re, i0 + sign * im)
    return _ref_clean(out)


def _ref_mul(a, b):
    out = {}
    for k1, (r1, i1) in a.items():
        for k2, (r2, i2) in b.items():
            r0, i0 = out.get(k1 + k2, (0, 0))
            out[k1 + k2] = (r0 + r1 * r2 - i1 * i2, i0 + r1 * i2 + i1 * r2)
    return _ref_clean(out)


_parts = st.one_of(
    st.integers(-20, 20),
    st.integers(-(2 ** 70), 2 ** 70),   # past half of a 64-bit slot
    st.builds(Fraction, st.integers(-30, 30), st.integers(1, 12)),
)
refs = st.dictionaries(
    st.integers(-12, 12), st.tuples(_parts, st.one_of(st.just(0), _parts)), max_size=5,
).map(lambda d: _ref_clean({k: (Fraction(re), Fraction(im)) for k, (re, im) in d.items()}))


@settings(max_examples=300, deadline=None)
@given(refs, refs)
def test_packed_arithmetic_matches_dict_reference(ra, rb):
    a, b = _scalar(ra), _scalar(rb)
    assert _ref(a) == ra and _ref(b) == rb
    assert _ref(a + b) == _ref_add(ra, rb)
    assert _ref(a - b) == _ref_add(ra, rb, -1)
    assert _ref(a * b) == _ref_mul(ra, rb)
    assert _ref(-a) == {k: (-re, -im) for k, (re, im) in ra.items()}
    assert _ref(a.conjugate()) == {k: (re, -im) for k, (re, im) in ra.items()}
    assert (a == b) == (ra == rb)
    # the same value reached by another route (other widths and carried
    # bounds) is equal and hashes alike
    again = (a * b + a) - a * b
    assert again == a and hash(again) == hash(a)
    q0 = 0.37
    ref_eval = sum(complex(float(re), float(im)) * q0 ** k for k, (re, im) in ra.items())
    scale = sum(abs(complex(float(re), float(im))) * q0 ** k for k, (re, im) in ra.items())
    assert abs(a.eval(q0) - ref_eval) <= 1e-14 * max(scale, 1.0)


def test_product_crosses_the_slot_width():
    # (1 + q)^70 has the coefficient C(70, 35) > 2^66, past a 64-bit slot;
    # every intermediate power is exact
    p = ONE
    for n in range(1, 71):
        p = p * (ONE + Q)
        assert p.terms == {k: math.comb(n, k) for k in range(n + 1)}
    assert p.degree() == 70 and p.valuation() == 0
    # and back down: dividing out (1 + q) repeatedly returns to 1
    for _ in range(70):
        p = p.divide_exact(ONE + Q)
    assert p == ONE


def test_sum_crosses_the_slot_width_and_cancels():
    big = laurent(2 ** 62 - 1, 1) + laurent(-(2 ** 62) + 3, 4)
    total = big
    for _ in range(5):
        total = total + big
    assert total.terms == {1: 6 * (2 ** 62 - 1), 4: 6 * (-(2 ** 62) + 3)}
    assert (total - big * 6).is_zero()
    # the lowest coefficient cancels: the valuation moves up
    assert (total - laurent(6 * (2 ** 62 - 1), 1)).terms == {4: 6 * (-(2 ** 62) + 3)}


def test_huge_coefficients_stay_exact():
    h = laurent(2 ** 200, 3)
    assert (h * laurent(3, -1)).terms == {2: 3 * 2 ** 200}
    assert ((h + ONE) - h) == ONE
    assert (h * h).terms == {6: 2 ** 400}
    assert (h + QQI) * (h - QQI) == h * h - QQI * QQI
    g = laurent(GaussRational(2 ** 200, -(2 ** 199)), -2)
    assert (g * g.conjugate()).terms == {-4: 2 ** 400 + 2 ** 398}
    assert h.render() == f"{2 ** 200}*q^3"


def test_fraction_and_gauss_round_trips():
    terms = {-3: Fraction(1, 3), 0: 2, 2: GaussRational(Fraction(1, 2), Fraction(-3, 4)),
             5: GaussRational(0, 7), 7: Fraction(-5, 6)}
    s = LaurentScalar(terms)
    assert s.terms == terms
    assert [type(c) for c in s.terms.values()] == [Fraction, int, GaussRational,
                                                    GaussRational, Fraction]
    assert s.denominator == 12
    assert (s * 12).denominator == 1
    # a common factor of the numerators and the denominator cancels
    half = laurent(Fraction(1, 2)) + laurent(Fraction(1, 2), 1)
    assert half.denominator == 2 and (half + half).terms == {0: 1, 1: 1}
    assert ((half * 2) - ONE).terms == {1: 1}
    z = laurent(GaussRational(Fraction(3, 5), Fraction(4, 5)), 1)
    assert (z * z.conjugate()) == qpow(2) and type((z * z.conjugate()).terms[2]) is int
    assert z.inv() * z == ONE
