"""Exact coefficient arithmetic: integers and rationals, Laurent polynomials
in q, and evaluation into floating point.

A :class:`LaurentScalar` is a finite sum ``sum_k c_k * q**k`` with integer
exponents and nonzero exact coefficients, stored sparsely; it is the
coefficient ring for all symbolic work in this package.  A coefficient is
an ``int`` when it is integral (nearly every coefficient of the
straightening rules is) and a ``fractions.Fraction`` (arbitrary precision,
lowest terms, positive denominator) otherwise: the two forms of one number
compare and hash equal, so the choice is invisible except in speed.
``GaussRational`` adjoins an exact imaginary part where unimodular phases
are needed; each of its two parts follows the same int-or-Fraction rule.

Exact inverses exist only for monomials ``c*q**k``; every coefficient the
package needs, including that of the exchange rule, ``q - 1/q``, is a
Laurent polynomial, so no denominator is ever carried.

Numeric mode is plain Python/NumPy complex at a fixed ``0 < q0 < 1``.  The
two modes never mix silently: arithmetic between a ``LaurentScalar`` and a
float/complex raises :class:`~qrea.errors.ModeMismatch`, and the only exact
-> numeric bridge is :meth:`LaurentScalar.eval`.
"""

from __future__ import annotations

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
    exact (int / int would be a float).
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
        return hash((self.re, self.im))

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


def _clean(c):
    """An exact coefficient in stored form: an integral rational as int."""
    if c.__class__ is Fraction:
        return c.numerator if c.denominator == 1 else c
    return int(c) if isinstance(c, int) else c


class LaurentScalar:
    """Sparse exact Laurent polynomial in q.

    Immutable; ``terms`` maps integer exponent -> nonzero exact coefficient.
    Supports ring arithmetic with other LaurentScalars and with exact
    coefficients (int/Fraction/GaussRational).  Mixing with float/complex
    raises ModeMismatch.
    """

    __slots__ = ("terms", "_hash")

    def __init__(self, terms=None):
        clean = {}
        if terms:
            for k, c in terms.items():
                if not isinstance(c, _COEF_TYPES):
                    c = Fraction(c)
                if c:
                    clean[int(k)] = _clean(c)
        self.terms = clean
        self._hash = None

    @staticmethod
    def _of(terms) -> "LaurentScalar":
        """Wrap a dict that is already clean: int exponents, nonzero
        coefficients in stored form."""
        out = object.__new__(LaurentScalar)
        out.terms = terms
        out._hash = None
        return out

    # -- constructors ---------------------------------------------------

    @staticmethod
    def const(c) -> "LaurentScalar":
        if isinstance(c, GaussRational):
            return LaurentScalar({0: c}) if c else ZERO
        c = Fraction(c)
        return LaurentScalar({0: c}) if c else ZERO

    # -- structure ------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def __bool__(self):
        return bool(self.terms)

    def degree(self):
        return max(self.terms) if self.terms else None

    def valuation(self):
        return min(self.terms) if self.terms else None

    def conjugate(self) -> "LaurentScalar":
        return LaurentScalar(
            {k: (c.conjugate() if isinstance(c, GaussRational) else c) for k, c in self.terms.items()}
        )

    # -- arithmetic -----------------------------------------------------

    def _coerce(self, other):
        if isinstance(other, LaurentScalar):
            return other
        if isinstance(other, _COEF_TYPES):
            return LaurentScalar.const(other)
        if isinstance(other, (float, complex)):
            raise ModeMismatch(
                "cannot mix exact LaurentScalar with numeric scalar; call .eval(q0) first"
            )
        return None

    def __add__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        out = dict(self.terms)
        for k, c in other.terms.items():
            s = out.get(k, 0) + c
            if s:
                out[k] = s if s.__class__ is int else _clean(s)
            else:
                out.pop(k, None)
        return LaurentScalar._of(out)

    __radd__ = __add__

    def __neg__(self):
        return LaurentScalar._of({k: -c for k, c in self.terms.items()})

    def __sub__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        if not self.terms or not other.terms:
            return ZERO
        a, b = self.terms, other.terms
        if len(a) > len(b):
            a, b = b, a
        out = {}
        for k1, c1 in a.items():
            for k2, c2 in b.items():
                k = k1 + k2
                s = out.get(k, 0) + c1 * c2
                if s:
                    out[k] = s
                else:
                    out.pop(k, None)
        for k, s in out.items():
            if s.__class__ is not int:
                out[k] = _clean(s)
        return LaurentScalar._of(out)

    __rmul__ = __mul__

    def inv(self) -> "LaurentScalar":
        """Exact inverse; defined only for monomials c*q^k."""
        if len(self.terms) != 1:
            raise NonInvertible(f"not an invertible monomial: {self}")
        (k, c), = self.terms.items()
        return LaurentScalar({-k: Fraction(1) / c if not isinstance(c, GaussRational) else GaussRational(1, 0) / c})

    def __truediv__(self, other):
        other = self._coerce(other)
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
        av, dv = self.valuation(), divisor.valuation()
        adeg, ddeg = self.degree(), divisor.degree()
        if adeg - av < ddeg - dv:
            return None
        # int coefficients become Fractions: int / int would be a float
        num = [self.terms.get(k, 0) for k in range(av, adeg + 1)]
        num = [Fraction(c) if c.__class__ is int else c for c in num]
        den = [divisor.terms.get(k, 0) for k in range(dv, ddeg + 1)]
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
        if isinstance(other, LaurentScalar):
            return self.terms == other.terms
        if isinstance(other, _COEF_TYPES):
            return self.terms == LaurentScalar.const(other).terms
        return NotImplemented

    def __hash__(self):
        if self._hash is None:
            self._hash = hash(tuple(sorted(self.terms.items(), key=lambda kv: kv[0])))
        return self._hash

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
        if not self.terms:
            return "0"
        parts = []
        for k in sorted(self.terms):
            c = self.terms[k]
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
    return LaurentScalar({k: Fraction(c) if not isinstance(c, GaussRational) else c})


def qpow(k: int) -> LaurentScalar:
    return LaurentScalar({k: 1})


ZERO = LaurentScalar()
ONE = LaurentScalar({0: 1})
Q = LaurentScalar({1: 1})
QINV = LaurentScalar({-1: 1})
# q - q^{-1}, the coefficient of the quantum-matrix exchange rule
QQI = LaurentScalar({1: 1, -1: -1})

