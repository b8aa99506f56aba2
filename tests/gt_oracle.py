"""Reference Gelfand-Tsetlin formulas: the per-pattern `Fraction` evaluation
that `qrea.gtrep` used before it moved to exact integer exponents and
`decimal` values.

Patterns are enumerated by recursion, every exponent is a `Fraction`, zero
and sign detection compare those Fractions, and values are powers of the
scalar q0 passed in: a float, or a `Decimal`, whose powers are then taken
with `Decimal` exponents in the current decimal context.  Tests compare the
package's bases, signs, norms and ladder coefficients with these functions.
"""

from decimal import Decimal, localcontext

import numpy as np

from qrea.braid import _eps_interval
from qrea.errors import DomainError
from qrea.gtrep import _flat, _Numbers


def pattern_total(P):
    return sum(sum(row) for row in P)


def patterns(N, D):
    """All patterns for size N with total degree <= D, shells ascending."""
    slots = [(i, k) for k in range(1, N) for i in range(1, k + 1)]
    out = []

    def rec(idx, left, acc):
        if idx == len(slots):
            rows, t = [], 0
            for k in range(1, N):
                rows.append(tuple(acc[t:t + k]))
                t += k
            out.append(tuple(rows))
            return
        for v in range(left + 1):
            rec(idx + 1, left - v, acc + [v])

    rec(0, D, [])
    out.sort(key=lambda P: (pattern_total(P), P))
    return out


def move_up(P, j, i):
    """Target of e_i on slot j: one box from level i to level i-1 (or out)."""
    rows = [list(row) for row in P]
    rows[i - 1][j - 1] -= 1
    if rows[i - 1][j - 1] < 0:
        return None
    if j <= i - 1:
        rows[i - 2][j - 1] += 1
    elif j != i:
        return None
    return tuple(tuple(row) for row in rows)


def _getP(P, i, k):
    """Entry P_{i,k} (1 <= i <= k <= N-1), zero outside the triangle."""
    if 1 <= i <= k <= len(P):
        return P[k - 1][i - 1]
    return 0


def _pow(q0, x):
    """q0 ** x for a Fraction x, in the arithmetic of q0."""
    if isinstance(q0, Decimal):
        return q0 ** (Decimal(x.numerator) / x.denominator)
    return q0 ** float(x)


def _poch(sign, e, m, q0):
    """(sign * q^{2e}; q^2)_m with exact zero/sign bookkeeping.

    Returns (value, sgn) where sgn in {-1, 0, 1} is the exact sign.
    q0 may be any numpy-compatible scalar; extended precision is used for
    module builds, where downstream cancellations magnify entry errors.
    """
    one = q0 / q0
    val = one
    sgn = 1
    for t in range(m):
        et = e + t
        if sign == 1 and et == 0:
            return 0 * one, 0
        f = one - sign * _pow(q0, 2 * et)
        if sign == 1 and et < 0:
            sgn = -sgn
        val = val * f
    return val, sgn


def _norm_parts(P, spec, q0=None):
    N = spec.N
    if q0 is None:
        q0 = spec.q0
    r = spec.r_padded
    eps = spec.eps_padded
    one = q0 / q0
    pref = one
    tau = one
    sgn = 1
    # prefactor c'_P
    for k in range(1, N):
        for i in range(1, k + 1):
            for j in range(i, k + 1):
                Pik = _getP(P, i, k)
                if Pik == 0:
                    continue
                E = (r[j - 1] + j - r[i - 1] - i) \
                    + sum(_getP(P, j, l) - _getP(P, i, l) for l in range(k, N)) \
                    + (r[j] + j + 1 - r[i - 1] - i) \
                    + sum(_getP(P, j + 1, l) - _getP(P, i, l) for l in range(k + 1, N))
                pref = pref * (one / q0 - q0) ** (-2 * Pik) * _pow(q0, -Pik * E)
    # Pochhammer part
    for k in range(1, N):
        for i in range(1, k + 1):
            for j in range(i, k + 1):
                Pik = _getP(P, i, k)
                if Pik == 0:
                    continue
                e1 = (r[j - 1] - r[i - 1]) + (j - i + 1) \
                    + sum(_getP(P, j, l) - _getP(P, i, l) for l in range(k, N))
                v, s = _poch(_eps_interval(eps, i, j), e1, Pik, q0)
                tau = tau * v
                sgn *= s
                if sgn == 0:
                    return 0 * one, 0
                e2 = (r[j] - r[i - 1]) + (j - i + 1) - Pik \
                    + sum(_getP(P, j + 1, l) - _getP(P, i, l) for l in range(k + 1, N))
                v, s = _poch(_eps_interval(eps, i, j + 1), e2, Pik, q0)
                tau = tau * v
                sgn *= s
                if sgn == 0:
                    return 0 * one, 0
    return tau * pref, sgn


def _qbracket_sub(x, e, q0):
    """[x]_e = (e q^x - q^{-x})/(q - q^{-1}); zero detection is exact."""
    if e == 1 and x == 0:
        return None
    return (e * _pow(q0, x) - _pow(q0, -x)) / (q0 - 1 / q0)


def _qbracket_sup(x, e, q0):
    """[x]^e = (q^x - e q^{-x})/(q - q^{-1}); zero detection is exact."""
    if e == 1 and x == 0:
        return None
    return (_pow(q0, x) - e * _pow(q0, -x)) / (q0 - 1 / q0)


def _raising_coeff(P, j, i, spec, q0=None):
    """Coefficient of the raising operator e_i moving one box out of P_{j,i}.

    Product form with numerator tail sums starting at level i+1 and
    denominator tail sums starting at level i.  Exactly-zero numerator
    brackets make the coefficient vanish; a vanishing denominator bracket
    would be a pole and aborts (it cannot occur on positive-norm patterns).
    """
    N = spec.N
    if q0 is None:
        q0 = spec.q0
    r = spec.r_padded
    eps = spec.eps_padded

    def tail(row, start):
        return sum(_getP(P, row, l) for l in range(start, N))

    base_j = tail(j, i)
    out = -(q0 / q0)
    for k in range(1, j + 1):
        x = (r[j - 1] - r[k - 1]) + (j - k) - tail(k, i + 1) + base_j
        f = _qbracket_sub(x, _eps_interval(eps, k, j), q0)
        if f is None:
            return 0 * q0
        out = out * f
    for k in range(j + 1, i + 2):
        x = (r[j - 1] - r[k - 1]) + (j - k) - tail(k, i + 1) + base_j
        f = _qbracket_sup(x, _eps_interval(eps, j, k), q0)
        if f is None:
            return 0 * q0
        out = out * f
    for k in range(1, j):
        x = (r[j - 1] - r[k - 1]) + (j - k) - tail(k, i) + base_j
        d = _qbracket_sub(x, _eps_interval(eps, k, j), q0)
        if d is None:
            raise DomainError(f"coefficient pole at P={P}, (j,i)=({j},{i})")
        out = out / d
    for k in range(j + 1, i + 1):
        x = (r[j - 1] - r[k - 1]) + (j - k) - tail(k, i) + base_j
        d = _qbracket_sup(x, _eps_interval(eps, j, k), q0)
        if d is None:
            raise DomainError(f"coefficient pole at P={P}, (j,i)=({j},{i})")
        out = out / d
    return out


def package_raising(P, j, i, spec):
    """The package's coefficient of e_i moving one box out of P_{j,i}
    (``gtrep._Numbers.raising`` on the one row P), a Decimal at q0."""
    num = _Numbers(spec, np.array(_flat(P), dtype=np.int64).reshape(1, -1))
    with localcontext(num.context):
        return num.raising(j, i, np.arange(1))[0]


def package_raising_coeff(P, j, i, spec):
    """``package_raising`` as a float, for comparison with ``_raising_coeff``."""
    return float(package_raising(P, j, i, spec))
