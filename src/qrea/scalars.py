"""Exact coefficient arithmetic: Laurent polynomials in q over the Gaussian
rationals, packed into integers, and evaluation into floating point.

A :class:`LaurentScalar` ``sum_k c_k * q**k`` is the coefficient ring for
all symbolic work in this package.  It is held in Kronecker form (Harvey,
J. Symb. Comput. 2009): ``c_k = (a_k + b_k*i) / d`` with integer numerators
over one positive denominator ``d`` in lowest terms (1 for every coefficient
that straightening and the scaled character check produce), packed with
q -> 2**B into two Python ints ``re = sum_k a_k 2**(B(k - v))`` and
``im = sum_k b_k 2**(B(k - v))``, where ``v`` is the valuation.  A product is
integer multiplies and a valuation add, a sum a shift and an add, and the
zero test ``re == 0 and im == 0``.

Soundness: a packed int decodes, digit by signed B-bit digit, only while
every |a_k| and |b_k| is below 2**(B-1).  Each value carries a bound on the
l1 norm ``sum_k |a_k| + |b_k|`` of its numerators: a sum adds the bounds, a
product multiplies them (|a| + |b| is submultiplicative on the Gaussian
integers).  An operation whose result bound would reach 2**(B-1) first
recomputes its operands' bounds from their digits and, if that is not
enough, repacks them at a wider slot.  So no packed int is read past its
bound, coefficients of any size stay exact, and values of different widths
compare and hash alike.  ``terms`` decodes on demand: exponent -> an ``int``
when integral, else a ``fractions.Fraction``, or a ``GaussRational`` when
the imaginary part is nonzero.

Exact inverses exist only for monomials ``c*q**k``; every coefficient the
package needs, including that of the exchange rule, ``q - 1/q``, is a
Laurent polynomial, so straightening carries no denominator.

Numeric mode is plain Python/NumPy complex at a fixed ``0 < q0 < 1``.  The
two modes never mix silently: arithmetic between a ``LaurentScalar`` and a
float/complex raises :class:`~qrea.errors.ModeMismatch`, and the only exact
-> numeric bridge is :meth:`LaurentScalar.eval`.
"""

from __future__ import annotations

import math
from fractions import Fraction

from .errors import DomainError, ModeMismatch, NonInvertible

__all__ = [
    "GaussRational",
    "LaurentScalar",
    "ZERO",
    "ONE",
    "Q",
    "QINV",
    "QQI",
    "laurent",
    "qpow",
]


def _part(x):
    """A real part in stored form: an int when integral, else a Fraction."""
    if x.__class__ is int:
        return x
    if x.__class__ is not Fraction:
        x = Fraction(x)
    return x.numerator if x.denominator == 1 else x


def _gauss(re_part, im_part):
    """Normalize to the real part, in stored form, when the imaginary part
    vanishes."""
    if not im_part:
        return _part(re_part)
    return GaussRational(re_part, im_part)


class GaussRational:
    """Exact complex rational a + b*i; collapses to its real part when b == 0.

    Each part is stored like a Laurent coefficient: an ``int`` when it is
    integral, else a ``Fraction``, so Gaussian-integer arithmetic never
    builds a Fraction.  Division goes through ``Fraction``, so it stays
    exact (int / int would be a float).  One with b == 0 equals its real
    part and hashes like it.
    """

    __slots__ = ("re", "im")

    def __init__(self, re_part, im_part):
        self.re = _part(re_part)
        self.im = _part(im_part)

    def conjugate(self):
        return _gauss(self.re, -self.im)

    def __add__(self, other):
        if isinstance(other, GaussRational):
            return _gauss(self.re + other.re, self.im + other.im)
        if isinstance(other, (int, Fraction)):
            return _gauss(self.re + other, self.im)
        return NotImplemented

    __radd__ = __add__

    def __neg__(self):
        return GaussRational(-self.re, -self.im)

    def __sub__(self, other):
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, GaussRational):
            return _gauss(
                self.re * other.re - self.im * other.im,
                self.re * other.im + self.im * other.re,
            )
        if isinstance(other, (int, Fraction)):
            return _gauss(self.re * other, self.im * other)
        return NotImplemented

    __rmul__ = __mul__

    def __truediv__(self, other):
        if isinstance(other, (int, Fraction)):
            return _gauss(Fraction(self.re, other), Fraction(self.im, other))
        if isinstance(other, GaussRational):
            n = other.re * other.re + other.im * other.im
            return self * GaussRational(Fraction(other.re, n), Fraction(-other.im, n))
        return NotImplemented

    def __eq__(self, other):
        if isinstance(other, GaussRational):
            return self.re == other.re and self.im == other.im
        if isinstance(other, (int, Fraction)):
            return self.im == 0 and self.re == other
        return NotImplemented

    def __bool__(self):
        return self.re != 0 or self.im != 0

    def __hash__(self):
        return hash((self.re, self.im)) if self.im else hash(self.re)

    def __complex__(self):
        return complex(self.re) + 1j * complex(self.im)

    def __repr__(self):
        return f"({self.re}{'+' if self.im >= 0 else '-'}{abs(self.im)}i)"

    def is_unimodular(self):
        return self.re * self.re + self.im * self.im == 1


def unimodular_point(t) -> GaussRational:
    """Exact point on the unit circle: ((1-t^2) + 2t*i)/(1+t^2), t rational."""
    t = Fraction(t)
    d = 1 + t * t
    return GaussRational((1 - t * t) / d, 2 * t / d)


_COEF_TYPES = (int, Fraction, GaussRational)

# the narrowest slot width B, in bits; wider slots are multiples of it
_SLOT = 64


def _width(bound: int) -> int:
    """The narrowest slot width whose signed digits hold every integer of
    magnitude at most ``bound``."""
    return max(_SLOT, -(-(bound.bit_length() + 1) // _SLOT) * _SLOT)


def _unpack(x: int, bits: int) -> list:
    """The signed ``bits``-wide digits of x, lowest first."""
    out = []
    full = 1 << bits
    half = full >> 1
    mask = full - 1
    while x:
        d = x & mask
        if d >= half:
            d -= full
        out.append(d)
        x = (x - d) >> bits
    return out


def _pack(digits, bits: int) -> int:
    x = 0
    for d in reversed(digits):
        x = (x << bits) + d
    return x


_new = object.__new__


def _make(v, re, im, den, bound, bits) -> "LaurentScalar":
    out = _new(LaurentScalar)
    out._v, out._re, out._im, out._den, out._bound, out._bits = v, re, im, den, bound, bits
    return out


def _digits(x: "LaurentScalar"):
    """The numerators of x's real and imaginary parts, lowest exponent
    first, as two lists of one length."""
    re, im = _unpack(x._re, x._bits), _unpack(x._im, x._bits)
    n = max(len(re), len(im))
    return re + [0] * (n - len(re)), im + [0] * (n - len(im))


def _rescaled(x: "LaurentScalar", bits: int, m: int) -> "LaurentScalar":
    """x with its numerators and denominator times m, packed at ``bits``;
    the caller has checked that m times x's bound fits the slot."""
    if bits == x._bits:
        re, im = x._re, x._im
    else:
        re, im = (_pack(_unpack(p, x._bits), bits) for p in (x._re, x._im))
    return _make(x._v, re * m, im * m, x._den * m, x._bound * m, bits)


def _common(a: "LaurentScalar", b: "LaurentScalar", product: bool):
    """a and b at one slot width that holds the bound of their product (or,
    when ``product`` is false, over one denominator and at a width that
    holds the bound of their sum).  Bounds are recomputed exactly before
    any widening, and operands of two widths are repacked at the narrowest
    width that holds the result."""
    ma = mb = 1
    if not product and a._den != b._den:
        g = math.gcd(a._den, b._den)
        ma, mb = b._den // g, a._den // g

    def need():
        return a._bound * b._bound if product else a._bound * ma + b._bound * mb

    bits = a._bits
    if b._bits != bits or need() >> (bits - 1):
        for x in (a, b):  # an exact bound leaves the value as it is
            x._bound = sum(abs(d) for part in _digits(x) for d in part)
        bits = _width(need())
    return _rescaled(a, bits, ma), _rescaled(b, bits, mb)


def _lowest_terms(x: "LaurentScalar") -> "LaurentScalar":
    """x (a fresh value) with the common factor of its denominator and all
    its numerators divided out."""
    g = math.gcd(x._den, *_unpack(x._re, x._bits), *_unpack(x._im, x._bits))
    if g != 1:
        x._re //= g
        x._im //= g
        x._den //= g
        x._bound //= g
    return x


def _monomial(c: int, k: int) -> "LaurentScalar":
    """c*q^k for an int c."""
    if not c:
        return ZERO
    return _make(k, c, 0, 1, abs(c), _width(abs(c)))


def _coerce(other):
    """A LaurentScalar for an exact coefficient, None for other types."""
    if other.__class__ is int:
        return _monomial(other, 0)
    if isinstance(other, _COEF_TYPES):
        return LaurentScalar({0: other})
    if isinstance(other, (float, complex)):
        raise ModeMismatch(
            "cannot mix exact LaurentScalar with numeric scalar; call .eval(q0) first"
        )
    return None


class LaurentScalar:
    """Exact Laurent polynomial in q, packed as described in the module.

    Immutable; ``terms`` decodes to a dict integer exponent -> nonzero exact
    coefficient.  Supports ring arithmetic with other LaurentScalars and
    with exact coefficients (int/Fraction/GaussRational).  Mixing with
    float/complex raises ModeMismatch.
    """

    __slots__ = ("_v", "_re", "_im", "_den", "_bound", "_bits")

    def __init__(self, terms=None):
        parts = {}
        if terms:
            for k, c in terms.items():
                if not isinstance(c, _COEF_TYPES):
                    c = Fraction(c)
                if c:
                    parts[int(k)] = (c.re, c.im) if c.__class__ is GaussRational else (c, 0)
        if not parts:
            self._v, self._re, self._im, self._den, self._bound, self._bits = 0, 0, 0, 1, 0, _SLOT
            return
        den = math.lcm(*(p.denominator for pair in parts.values() for p in pair))
        v = min(parts)
        re = [0] * (max(parts) - v + 1)
        im = list(re)
        for k, (a, b) in parts.items():
            re[k - v] = int(a * den)
            im[k - v] = int(b * den)
        bound = sum(map(abs, re)) + sum(map(abs, im))
        bits = _width(bound)
        self._v, self._re, self._im = v, _pack(re, bits), _pack(im, bits)
        self._den, self._bound, self._bits = den, bound, bits

    # -- constructors ---------------------------------------------------

    @staticmethod
    def const(c) -> "LaurentScalar":
        return LaurentScalar({0: c})

    # -- structure ------------------------------------------------------

    @property
    def terms(self) -> dict:
        """Exponent -> nonzero coefficient, in increasing exponent order."""
        den = self._den
        if den == 1 and not self._im:  # integer coefficients: no Fraction needed
            return {k: a for k, a in enumerate(_unpack(self._re, self._bits), start=self._v) if a}
        return {k: _gauss(Fraction(a, den), Fraction(b, den))
                for k, (a, b) in enumerate(zip(*_digits(self)), start=self._v) if a or b}

    @property
    def denominator(self) -> int:
        """The least common denominator of every coefficient's parts."""
        return self._den

    def is_zero(self) -> bool:
        return not (self._re or self._im)

    def __bool__(self):
        return bool(self._re or self._im)

    def degree(self):
        return self._v + len(_digits(self)[0]) - 1 if self else None

    def valuation(self):
        return self._v if self else None

    def conjugate(self) -> "LaurentScalar":
        if not self._im:
            return self
        return _make(self._v, self._re, -self._im, self._den, self._bound, self._bits)

    # -- arithmetic -----------------------------------------------------

    def __add__(self, other):
        if other.__class__ is not LaurentScalar:
            other = _coerce(other)
            if other is None:
                return NotImplemented
        if not other._bound:
            return self
        if not self._bound:
            return other
        a, b = self, other
        bits = a._bits
        if b._bits != bits or a._den != b._den or (a._bound + b._bound) >> (bits - 1):
            a, b = _common(a, b, False)
            bits = a._bits
        v, bv = a._v, b._v
        if v == bv:
            re, im = a._re + b._re, a._im + b._im
            if not (re or im):
                return ZERO
            low = re | im
            zeros = ((low & -low).bit_length() - 1) // bits
            if zeros:  # the lowest coefficients cancelled
                re >>= zeros * bits
                im >>= zeros * bits
                v += zeros
        elif v < bv:
            shift = (bv - v) * bits
            re, im = a._re + (b._re << shift), a._im + (b._im << shift)
        else:
            shift = (v - bv) * bits
            re, im = (a._re << shift) + b._re, (a._im << shift) + b._im
            v = bv
        out = _new(LaurentScalar)
        out._v, out._re, out._im = v, re, im
        out._den, out._bound, out._bits = a._den, a._bound + b._bound, bits
        return out if out._den == 1 else _lowest_terms(out)

    __radd__ = __add__

    def __neg__(self):
        return _make(self._v, -self._re, -self._im, self._den, self._bound, self._bits)

    def __sub__(self, other):
        if other.__class__ is not LaurentScalar:
            other = _coerce(other)
            if other is None:
                return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if other.__class__ is not LaurentScalar:
            other = _coerce(other)
            if other is None:
                return NotImplemented
        a, b = self, other
        bound = a._bound * b._bound
        if not bound:
            return ZERO
        bits = a._bits
        if b._bits != bits or bound >> (bits - 1):
            a, b = _common(a, b, True)
            bits, bound = a._bits, a._bound * b._bound
        # Gaussian integers are a domain: the lowest coefficient is nonzero
        out = _new(LaurentScalar)
        out._v = a._v + b._v
        ar, ai, br, bi = a._re, a._im, b._re, b._im
        if ai or bi:
            out._re, out._im = ar * br - ai * bi, ar * bi + ai * br
        else:
            out._re, out._im = ar * br, 0
        out._den, out._bound, out._bits = a._den * b._den, bound, bits
        return out if out._den == 1 else _lowest_terms(out)

    __rmul__ = __mul__

    def inv(self) -> "LaurentScalar":
        """Exact inverse; defined only for monomials c*q^k."""
        terms = self.terms
        if len(terms) != 1:
            raise NonInvertible(f"not an invertible monomial: {self}")
        (k, c), = terms.items()
        return LaurentScalar({-k: Fraction(1) / c if not isinstance(c, GaussRational) else GaussRational(1, 0) / c})

    def __truediv__(self, other):
        other = _coerce(other) if other.__class__ is not LaurentScalar else other
        if other is None:
            return NotImplemented
        return self * other.inv()

    def __pow__(self, n: int):
        if not isinstance(n, int):
            return NotImplemented
        if n < 0:
            return self.inv() ** (-n)
        out = ONE
        base = self
        while n:
            if n & 1:
                out = out * base
            base = base * base
            n >>= 1
        return out

    def divide_exact(self, divisor: "LaurentScalar"):
        """Exact quotient self/divisor in the Laurent ring, or None."""
        if divisor.is_zero():
            raise ZeroDivisionError("division by zero Laurent scalar")
        if self.is_zero():
            return ZERO
        # shift both to ordinary polynomials and long-divide
        num_terms, den_terms = self.terms, divisor.terms
        av, dv = self.valuation(), divisor.valuation()
        adeg, ddeg = self.degree(), divisor.degree()
        if adeg - av < ddeg - dv:
            return None
        # int coefficients become Fractions: int / int would be a float
        num = [num_terms.get(k, 0) for k in range(av, adeg + 1)]
        num = [Fraction(c) if c.__class__ is int else c for c in num]
        den = [den_terms.get(k, 0) for k in range(dv, ddeg + 1)]
        qlen = len(num) - len(den) + 1
        quot = [Fraction(0)] * qlen
        for i in range(qlen - 1, -1, -1):
            c = num[i + len(den) - 1] / den[-1]
            quot[i] = c
            if c:
                for j, d in enumerate(den):
                    num[i + j] -= c * d
        if any(num):
            return None
        return LaurentScalar({av - dv + i: c for i, c in enumerate(quot) if c})

    # -- comparison / hashing --------------------------------------------

    def __eq__(self, other):
        if other.__class__ is not LaurentScalar:
            if not isinstance(other, _COEF_TYPES):
                return NotImplemented
            other = LaurentScalar.const(other)
        if self._bits != other._bits:
            return self.terms == other.terms
        return (self._re == other._re and self._im == other._im
                and self._v == other._v and self._den == other._den)

    def __hash__(self):
        return hash(tuple(self.terms.items()))

    # -- evaluation -------------------------------------------------------

    def eval(self, q0):
        """Evaluate at a numeric 0 < q0 < 1.  Returns float or complex."""
        q0 = float(q0)
        if not 0.0 < q0 < 1.0:
            raise DomainError(f"q0 must lie in (0,1), got {q0}")
        out = 0.0 + 0.0j
        has_im = False
        for k, c in self.terms.items():
            if isinstance(c, GaussRational):
                out += complex(c) * q0 ** k
                has_im = True
            else:
                out += float(c) * q0 ** k
        return out if has_im or out.imag != 0.0 else out.real

    # -- rendering ------------------------------------------------------

    def render(self) -> str:
        """Deterministic sparse rendering, e.g. '3/2*q^-2 + 1 - 2*q^3'."""
        if not self:
            return "0"
        parts = []
        for k, c in self.terms.items():
            if isinstance(c, GaussRational):
                cs = f"({c.re}{'+' if c.im >= 0 else '-'}{abs(c.im)}i)"
                sign = "+"
            else:
                sign = "-" if c < 0 else "+"
                cs = str(abs(c))
            if k == 0:
                body = cs
            else:
                qs = "q" if k == 1 else f"q^{k}"
                body = qs if cs == "1" else f"{cs}*{qs}"
            parts.append((sign, body))
        first_sign, first_body = parts[0]
        out = ("-" if first_sign == "-" else "") + first_body
        for sign, body in parts[1:]:
            out += f" {sign} {body}"
        return out

    __repr__ = render


def laurent(c=1, k: int = 0) -> LaurentScalar:
    """Convenience constructor: c*q^k."""
    if c.__class__ is Fraction and c.denominator == 1:
        c = c.numerator
    if c.__class__ is int:
        return _monomial(c, k)
    return LaurentScalar({k: c})


def qpow(k: int) -> LaurentScalar:
    return _make(k, 1, 0, 1, 1, _SLOT)


ZERO = LaurentScalar()
ONE = qpow(0)
Q = qpow(1)
QINV = qpow(-1)
# q - q^{-1}, the coefficient of the quantum-matrix exchange rule
QQI = LaurentScalar({1: 1, -1: -1})
