"""Classification data: admissible root multisets, extended signatures,
canonical adapted weights, and the scalar *-character generator.

A multiset of reals is the spectrum of a factor representation exactly
when its nonzero elements are simple and every same-sign quotient is an
even power of q; the positive part is then {q^{2 alpha + 2 m_i}} with
distinct integers m_i normalized to min m_i = 0, and likewise the
negative part with beta.  The classifying invariant is
([beta - alpha] mod 1, N_+, N_-, N_0), with the convention that the class
is 0 whenever either sign is absent.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .braid import QMat, _leading_signs, re_table
from .errors import DomainError, NotAdmissible, SignMismatch
from .scalars import GaussRational, laurent

__all__ = [
    "RootDecomposition",
    "ExtendedSignature",
    "CharacterParams",
    "admissible_roots",
    "ext_signature",
    "rmod1_equal",
    "canonical_weight",
    "star_character_exact",
]


@dataclass(frozen=True)
class RootDecomposition:
    alpha: float
    beta: float
    ms: tuple      # distinct integers, min 0 (positive roots q^{2 alpha + 2 m})
    ns: tuple      # distinct integers, min 0 (negative roots -q^{2 beta + 2 n})
    nzero: int


@dataclass(frozen=True)
class ExtendedSignature:
    rmod1: float
    nplus: int
    nminus: int
    nzero: int

    def __post_init__(self):
        if self.nplus * self.nminus == 0 and self.rmod1 != 0.0:
            object.__setattr__(self, "rmod1", 0.0)

    def counts(self):
        return (self.nplus, self.nminus, self.nzero)


ROOT_TOL = 1e-9   # relative to the largest |root| and to each exponent offset


def rmod1_equal(x: float, y: float, tol: float = 1e-9) -> bool:
    d = (x - y) % 1.0
    return min(d, 1.0 - d) <= tol


def admissible_roots(roots, q0: float):
    """Decompose a root multiset, or return None if it is not a spectrum.

    Uses base-q^2 logarithms with nearest-integer snapping at ROOT_TOL;
    inputs farther than that are rejected, never snapped silently.  Roots
    at most ROOT_TOL * max |root| pass through as the rank defect.
    """
    if not 0.0 < q0 < 1.0:
        raise DomainError("q0 must lie in (0,1)")
    roots = [float(x) for x in roots]
    bound = ROOT_TOL * max((abs(x) for x in roots), default=0.0)
    zeros = [x for x in roots if abs(x) <= bound]
    pos = [x for x in roots if x > bound]
    neg = [-x for x in roots if x < -bound]

    def decompose(vals):
        # vals = {q^{2 alpha + 2 m_i}}; returns (alpha, sorted distinct m)
        if not vals:
            return 0.0, ()
        a = [math.log(v) / (2.0 * math.log(q0)) for v in vals]
        base = min(a) + 0.0  # normalize -0.0
        ms = []
        for x in a:
            m = round(x - base)
            if abs(x - base - m) > ROOT_TOL * (x - base):
                return None
            ms.append(int(m))
        if len(set(ms)) != len(ms):
            return None
        return base, tuple(sorted(ms))

    dp = decompose(pos)
    dn = decompose(neg)
    if dp is None or dn is None:
        return None
    alpha, ms = dp
    beta, ns = dn
    # negative roots are -q^{2 beta + 2 n}: shift beta by the convention
    return RootDecomposition(alpha=alpha, beta=beta, ms=ms, ns=ns, nzero=len(zeros))


def ext_signature(roots, q0: float) -> ExtendedSignature:
    dec = admissible_roots(roots, q0)
    if dec is None:
        raise NotAdmissible(f"root multiset {list(roots)} is not a spectrum")
    return ExtendedSignature(rmod1=(dec.beta - dec.alpha) % 1.0, nplus=len(dec.ms),
                             nminus=len(dec.ns), nzero=dec.nzero)


def canonical_weight(roots, eps, q0: float):
    """The unique adapted weight r with roots eta_k q^{2(r_k + k) - 2}.

    eps is the sign vector of length M = number of nonzero roots; the
    number of positive roots must equal the number of positive leading
    products eps_[k].  Within each sign class the roots are assigned in
    decreasing magnitude, which makes r_k + k strictly increase by
    integers along the class.
    """
    dec = admissible_roots(roots, q0)
    if dec is None:
        raise NotAdmissible(f"root multiset {list(roots)} is not a spectrum")
    M = len(eps)
    if M != len(dec.ms) + len(dec.ns):
        raise SignMismatch("eps length must match the number of nonzero roots")
    lead = _leading_signs(eps)
    if sum(1 for x in lead if x > 0) != len(dec.ms):
        raise SignMismatch("positive-root count does not match eps leading products")
    pos_vals = sorted((dec.alpha + m for m in dec.ms))        # increasing a-value
    neg_vals = sorted((dec.beta + n for n in dec.ns))
    r = [0.0] * M
    ip = inn = 0
    for k in range(1, M + 1):
        if lead[k - 1] > 0:
            r[k - 1] = pos_vals[ip] + 1 - k
            ip += 1
        else:
            r[k - 1] = neg_vals[inn] + 1 - k
            inn += 1
    return r


# ---------------------------------------------------------------------------
# the *-character generator


@dataclass(frozen=True)
class CharacterParams:
    """Parameters (k, l, a, c, y) of a scalar *-character of rank k + 2l;
    the phases y are unimodular ``GaussRational``s."""

    k: int
    l: int
    a: float | Fraction
    c: float | Fraction
    y: tuple = ()

    def validate(self, N: int):
        if self.k < 0 or self.l < 0:
            raise DomainError("k, l must be nonnegative")
        if self.k + 2 * self.l > N:
            raise DomainError("need k + l <= N - l")
        if not self.a > 0:
            raise DomainError("a must be positive")
        if self.c == 0:
            raise DomainError("c must be nonzero")
        if len(self.y) != self.l:
            raise DomainError("y must have length l")
        for yi in self.y:
            if not (isinstance(yi, GaussRational) and yi.is_unimodular()):
                raise DomainError("y entries must be unimodular GaussRationals")


def star_character_exact(p: CharacterParams, N: int):
    """The scalar matrix of the *-character over Gaussian-rational Laurent
    scalars: a on the diagonal past k+l, an extra -1/a on the last l slots,
    the unimodular antidiagonal couplings y, everything scaled by c."""
    p.validate(N)
    a = Fraction(p.a)
    c = Fraction(p.c)
    M = QMat(N, N)
    for i in range(p.k + p.l + 1, N + 1):
        M[(i - 1, i - 1)] = M[(i - 1, i - 1)] + laurent(a)
    for i in range(N - p.l + 1, N + 1):
        M[(i - 1, i - 1)] = M[(i - 1, i - 1)] - laurent(1 / a)
    for t in range(p.l):
        yt = p.y[t]
        M[(p.k + t, N - t - 1)] = M[(p.k + t, N - t - 1)] + laurent(yt)
        M[(N - t - 1, p.k + t)] = M[(N - t - 1, p.k + t)] + laurent(yt.conjugate())
    return M.scale(laurent(c))


def reflection_defect_exact(Zmat, N: int):
    """R Z2 R Z2 - Z2 R Z2 R for a scalar-entry matrix, exactly.

    The defect is the commutator of A = R Z2 R with Z2 = 1 ox Z: A is summed
    from ``braid.re_table`` over the nonzero entries of Z, and each nonzero
    entry of A meets only the nonzero entries of Z in its column leg (A Z2)
    and in its row leg (Z2 A).  The products run on Gaussian integers: with d
    the least common denominator of every coefficient of ``Zmat``, they are
    taken on d*Z.  The defect is homogeneous of degree 2 in Z and R has
    integer coefficients, so the defect of d*Z is d^2 times that of Z; a
    nonzero result is scaled back by 1/d^2.
    """
    d = math.lcm(1, *(v.denominator for v in Zmat.entries.values()))
    Z = Zmat.entries
    if d != 1:
        dz = laurent(d)
        Z = {ij: v * dz for ij, v in Z.items()}
    table = re_table(N)
    A = {}
    for (s, t), z in Z.items():
        for u, v, y, w, p in table[s * N + t]:
            key = (u, v, y, w)
            prev = A.get(key)
            A[key] = p * z if prev is None else prev + p * z
    rows, cols_neg = {}, {}  # Z by rows, and -Z by columns
    for (i, j), z in Z.items():
        rows.setdefault(i, []).append((j, z))
        cols_neg.setdefault(j, []).append((i, -z))
    out = {}
    for (u, v, y, w), a in A.items():
        for j, z in rows.get(w, ()):  # A Z2 at ((u, v), (y, j))
            key = (u * N + v, y * N + j)
            prev = out.get(key)
            out[key] = a * z if prev is None else prev + a * z
        for i, z in cols_neg.get(v, ()):  # -Z2 A at ((u, i), (y, w))
            key = (u * N + i, y * N + w)
            prev = out.get(key)
            out[key] = a * z if prev is None else prev + a * z
    defect = QMat._of(N * N, N * N, {ij: x for ij, x in out.items() if x})
    if d == 1 or defect.is_zero():
        return defect
    return defect.scale(laurent(Fraction(1, d * d)))
