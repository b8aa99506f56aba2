"""Highest-weight modules for the deformed triangular *-algebra in their
Gelfand-Tsetlin realization, plus the standard quantum-SU(2) representation.

A module is specified by (N, M, eps, r, D, q0): eps in {-1,0,1}^M and the
highest weight r in R^M are zero/one padded to length N internally, D caps
the total pattern degree, and q0 is the numeric deformation parameter.
Basis vectors are labeled by triangular arrays P = (P_1, ..., P_{N-1}),
P_k in Z_{>=0}^k; the vector for P has squared norm c_P given by a product
of q-Pochhammer factors, and vectors of zero norm are dropped (the quotient
by the kernel of the invariant form).  All operator matrices are expressed
in the orthonormalized basis, so the raising operators are exactly the
adjoints of the lowering ones.

Conventions fixed here (the two displays that feed them admit more than one
reading; these are the ones under which the defining relations hold, which
we verify in the test suite against an independent Verma-module oracle):

* in the raising coefficients, the denominator factors pair rows at the
  level of the moved box (their tail sums start one level below the
  numerators'), and
* the deformed commutator reads
  e_i f_i - f_i e_i = (eps_(i,i+1] Khat_i - Khat_i^{-1}) / (q - q^{-1}).
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .braid import _eps_interval
from .errors import DomainError, NegativeNorm, TruncationTooSmall

__all__ = [
    "GTPattern",
    "HWModuleSpec",
    "HWModule",
    "ScalingTrep",
    "eps_adapted",
    "patterns",
    "gt_norm",
    "gt_norm_sign",
    "build_hw_module",
    "suq2_rep",
    "vector_trep",
    "scaling_trep",
    "hw_module_to_json",
]

GTPattern = tuple  # tuple of rows, row k (1-based) has length k


def pattern_total(P: GTPattern) -> int:
    return sum(sum(row) for row in P)


def patterns(N: int, D: int):
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


def _getP(P: GTPattern, i: int, k: int) -> int:
    """Entry P_{i,k} (1 <= i <= k <= N-1), zero outside the triangle."""
    if 1 <= i <= k <= len(P):
        return P[k - 1][i - 1]
    return 0


def eps_adapted(r, eps) -> bool:
    """Whether the weight r admits a unitary highest-weight module for eps.

    True iff for every s < t with interval product eps_(s,t] equal to 1
    the difference (r_t + t) - (r_s + s) is a strictly positive integer.
    """
    if len(r) != len(eps):
        raise DomainError("r and eps must have the same length")
    r = [Fraction(x) if not isinstance(x, float) else Fraction(x).limit_denominator(10 ** 12)
         for x in r]
    M = len(r)
    for s in range(1, M + 1):
        prod = 1
        for t in range(s + 1, M + 1):
            prod *= eps[t - 1]
            if prod == 1:
                gap = (r[t - 1] + t) - (r[s - 1] + s)
                if gap.denominator != 1 or gap <= 0:
                    return False
    return True


@dataclass(frozen=True)
class HWModuleSpec:
    """Parameters of a truncated highest-weight module."""

    N: int
    eps: tuple
    r: tuple
    D: int
    q0: float = 0.5

    def __post_init__(self):
        if not 0.0 < self.q0 < 1.0:
            raise DomainError("q0 must lie in (0,1)")
        if self.D < 0:
            raise DomainError("D must be nonnegative")
        if len(self.eps) != len(self.r):
            raise DomainError("eps and r must have the same length M")
        if len(self.eps) > self.N:
            raise DomainError("M cannot exceed N")
        object.__setattr__(self, "eps", tuple(int(e) for e in self.eps))
        object.__setattr__(
            self,
            "r",
            tuple(
                Fraction(x) if not isinstance(x, float)
                else Fraction(x).limit_denominator(10 ** 12)
                for x in self.r
            ),
        )

    @property
    def M(self) -> int:
        return len(self.eps)

    @property
    def eps_padded(self) -> tuple:
        return self.eps + (0,) * (self.N - self.M)

    @property
    def r_padded(self) -> tuple:
        return self.r + (Fraction(1),) * (self.N - self.M)


def _poch(sign: int, e: Fraction, m: int, q0):
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
            return 0.0 * one, 0
        f = one - sign * q0 ** (2.0 * float(et))
        if sign == 1 and et < 0:
            sgn = -sgn
        val = val * f
    return val, sgn


def _norm_parts(P: GTPattern, spec: HWModuleSpec, q0=None):
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
                pref = pref * (one / q0 - q0) ** (-2 * Pik) * q0 ** (-Pik * float(E))
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
                    return 0.0 * one, 0
                e2 = (r[j] - r[i - 1]) + (j - i + 1) - Pik \
                    + sum(_getP(P, j + 1, l) - _getP(P, i, l) for l in range(k + 1, N))
                v, s = _poch(_eps_interval(eps, i, j + 1), e2, Pik, q0)
                tau = tau * v
                sgn *= s
                if sgn == 0:
                    return 0.0 * one, 0
    return tau * pref, sgn


def gt_norm(P: GTPattern, spec: HWModuleSpec) -> float:
    """Squared norm c_P of the basis vector labeled by P."""
    val, sgn = _norm_parts(P, spec)
    return 0.0 if sgn == 0 else float(val)


def gt_norm_sign(P: GTPattern, spec: HWModuleSpec) -> int:
    """Exact sign of c_P (the prefactor is positive, so only the
    Pochhammer factors contribute)."""
    return _norm_parts(P, spec)[1]


def _qbracket_sub(x: Fraction, e: int, q0):
    """[x]_e = (e q^x - q^{-x})/(q - q^{-1}); zero detection is exact."""
    if e == 1 and x == 0:
        return None
    return (e * q0 ** float(x) - q0 ** (-float(x))) / (q0 - 1.0 / q0)


def _qbracket_sup(x: Fraction, e: int, q0):
    """[x]^e = (q^x - e q^{-x})/(q - q^{-1}); zero detection is exact."""
    if e == 1 and x == 0:
        return None
    return (q0 ** float(x) - e * q0 ** (-float(x))) / (q0 - 1.0 / q0)


def _raising_coeff(P: GTPattern, j: int, i: int, spec: HWModuleSpec, q0=None):
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
            return 0.0
        out = out * f
    for k in range(j + 1, i + 2):
        x = (r[j - 1] - r[k - 1]) + (j - k) - tail(k, i + 1) + base_j
        f = _qbracket_sup(x, _eps_interval(eps, j, k), q0)
        if f is None:
            return 0.0
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


def _move_up(P: GTPattern, j: int, i: int):
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


def _k_exponent(P: GTPattern, i: int, spec: HWModuleSpec) -> Fraction:
    """K_i eigenvalue exponent: K_i = q^{-r_i + sum_{j<i} P_{j,i-1} - sum_l P_{i,l}}."""
    r = spec.r_padded
    e = -r[i - 1]
    e += sum(_getP(P, j, i - 1) for j in range(1, i))
    e -= sum(_getP(P, i, l) for l in range(i, spec.N))
    return e


@dataclass
class HWModule:
    """A built module: orthonormal basis, norms, and operator matrices.

    ``e[i]``/``f[i]`` (0-based lists) are the rescaled raising/lowering
    operators with f = e^T; ``K``/``Khalf`` are diagonal weight operators;
    ``Tdiag[i]`` are the diagonal generators (positive), and ``Tup[(i,j)]``
    the strictly upper ones.  ``interior`` marks basis vectors at least
    ``interior_margin`` below the truncation cap.
    """

    spec: HWModuleSpec
    basis: list
    norms: np.ndarray
    index: dict
    K: list
    Khalf: list
    e: list
    f: list
    Tdiag: list
    Tup: dict
    interior: np.ndarray
    interior_margin: int
    finite: bool = False

    @property
    def dim(self) -> int:
        return len(self.basis)

    @property
    def N(self) -> int:
        return self.spec.N

    def t_block(self, i: int, j: int) -> np.ndarray:
        """Matrix of T[i,j] (i <= j); zero below the diagonal."""
        if i > j:
            return np.zeros((self.dim, self.dim))
        if i == j:
            return np.diag(self.Tdiag[i - 1])
        return self.Tup[(i, j)]

    def highest_weight_index(self) -> int:
        zero = tuple(tuple([0] * k) for k in range(1, self.N))
        return self.index[zero]


def build_hw_module(spec: HWModuleSpec, margin: int | None = None,
                    unitary: bool = True) -> HWModule:
    """Construct the truncated module with orthonormalized operator matrices.

    In unitary mode the weight must be adapted to eps; otherwise negative
    norms abort the build.  ``margin`` controls the interior predicate
    (default 4N); D < margin is an error since no interior vector exists.
    """
    N, D, q0 = spec.N, spec.D, spec.q0
    if margin is None:
        margin = 4 * N
    if D < margin:
        raise TruncationTooSmall(f"D={D} < interior margin {margin}")
    if unitary and not eps_adapted(spec.r, spec.eps):
        raise NegativeNorm(
            f"weight {spec.r} is not adapted to eps={spec.eps}; no unitary module"
        )

    # Build entirely in extended precision: for mixed signs the ladder and
    # chain entries grow like q^{-shell}, and the operators assembled from
    # them cancel that growth, so entry errors get magnified by q^{-2 shell}.
    ld = np.longdouble
    q0l = ld(q0)

    basis, norms = [], []
    for P in patterns(N, D):
        val, sgn = _norm_parts(P, spec, q0=q0l)
        if sgn < 0:
            if unitary:
                raise NegativeNorm(f"negative norm at pattern {P}")
            continue
        if sgn == 0:
            continue
        basis.append(P)
        norms.append(val)
    norms = np.array(norms, dtype=ld)
    index = {P: t for t, P in enumerate(basis)}
    dim = len(basis)

    kexp = np.zeros((N, dim), dtype=ld)
    for t, P in enumerate(basis):
        for i in range(1, N + 1):
            kexp[i - 1, t] = float(_k_exponent(P, i, spec))
    K = [q0l ** kexp[i] for i in range(N)]
    Khalf = [q0l ** ((kexp[i] - kexp[i + 1]) / 2.0) for i in range(N - 1)]

    e_ops = []
    for i in range(1, N):
        M = np.zeros((dim, dim), dtype=ld)
        for t, P in enumerate(basis):
            for j in range(1, i + 1):
                Pout = _move_up(P, j, i)
                if Pout is None:
                    continue
                tt = index.get(Pout)
                if tt is None:
                    continue
                a = _raising_coeff(P, j, i, spec, q0=q0l)
                if a:
                    M[tt, t] += a * np.sqrt(norms[tt] / norms[t])
        e_ops.append(M)
    f_ops = [M.T.copy() for M in e_ops]

    Tdiag = [q0l ** (-kexp[i]) for i in range(N)]

    Tup = {}
    qm = 1.0 / q0l - q0l
    for i in range(1, N):
        # T[i,i+1] = (q^{-1}-q) q^{1/2} f_i Khat_i^{-1/2} K_{i+1}^{-1};
        # the diagonal factors act first, i.e. scale columns
        Tup[(i, i + 1)] = qm * np.sqrt(q0l) * (
            f_ops[i - 1] * (1.0 / Khalf[i - 1])[None, :] * (1.0 / K[i])[None, :]
        )
    for j_span in range(2, N):
        for i in range(1, N - j_span + 1):
            j = i + j_span
            A = Tup[(i, i + 1)] @ Tup[(i + 1, j)] - Tup[(i + 1, j)] @ Tup[(i, i + 1)]
            Tup[(i, j)] = (A / (q0l - 1.0 / q0l)) * (1.0 / Tdiag[i])[None, :]

    totals = np.array([pattern_total(P) for P in basis])
    interior = totals <= D - margin

    return HWModule(
        spec=spec, basis=basis, norms=norms, index=index,
        K=K, Khalf=Khalf, e=e_ops, f=f_ops,
        Tdiag=Tdiag, Tup=Tup, interior=interior, interior_margin=margin,
    )


# ---------------------------------------------------------------------------
# finite-dimensional modules used as transport parameters


def detect_finite(spec: HWModuleSpec, margin_shells: int = 2):
    """Truncate a module whose norms vanish above some shell.

    Returns the module restricted to the nonzero shells with interior =
    everything, or None if no fully-zero shell occurs within D.
    """
    N, D = spec.N, spec.D
    by_shell = {}
    for P in patterns(N, D):
        by_shell.setdefault(pattern_total(P), []).append(P)
    cutoff = None
    for s in range(D + 1):
        if all(gt_norm_sign(P, spec) == 0 for P in by_shell.get(s, [])):
            cutoff = s
            break
    if cutoff is None:
        return None
    for s in range(cutoff, min(D, cutoff + margin_shells) + 1):
        if any(gt_norm_sign(P, spec) != 0 for P in by_shell.get(s, [])):
            raise DomainError("norm support is not shell-convex; not a finite module")
    mod = build_hw_module(HWModuleSpec(N=spec.N, eps=spec.eps, r=spec.r,
                                       D=cutoff, q0=spec.q0), margin=0)
    mod.interior = np.ones(mod.dim, dtype=bool)
    mod.finite = True
    return mod


def vector_trep(N: int, q0: float = 0.5) -> HWModule:
    """The N-dimensional vector representation of the triangular algebra,
    realized as the finite module with highest weight (-1, 0, ..., 0)."""
    spec = HWModuleSpec(N=N, eps=(1,) * N, r=(Fraction(-1),) + (Fraction(0),) * (N - 1),
                        D=2 * N + 2, q0=q0)
    mod = detect_finite(spec)
    if mod is None or mod.dim != N:
        raise DomainError("vector module detection failed")
    return mod


@dataclass
class ScalingTrep:
    """One-dimensional representation T[i,j] -> c * delta_ij (c > 0)."""

    N: int
    c: float

    @property
    def dim(self) -> int:
        return 1

    @property
    def finite(self) -> bool:
        return True

    @property
    def interior(self):
        return np.array([True])

    def t_block(self, i: int, j: int) -> np.ndarray:
        return np.array([[self.c if i == j else 0.0]])


def scaling_trep(N: int, c: float) -> ScalingTrep:
    if c <= 0:
        raise DomainError("scaling representations need c > 0")
    return ScalingTrep(N=N, c=float(c))


# ---------------------------------------------------------------------------
# the standard quantum-SU(2) representation


def suq2_rep(D: int, theta: float = 0.0, q0: float = 0.5):
    """Truncated standard representation on span(e_0..e_D) and the unitary
    2x2 block, optionally composed with the diagonal circle character.

    a e_n = (1 - q^{2n})^{1/2} e_{n-1},  c e_n = q^n e_n, and the block is
    [[a, -q c*], [c, a*]] conjugated by phases exp(2 pi i theta).
    """
    if D < 1:
        raise DomainError("D must be >= 1")
    n = np.arange(D + 1)
    a = np.zeros((D + 1, D + 1), dtype=complex)
    for m in range(1, D + 1):
        a[m - 1, m] = np.sqrt(1.0 - q0 ** (2 * m))
    c = np.diag(q0 ** n).astype(complex)
    phase = np.exp(2j * np.pi * theta)
    U = [
        [phase * a, -q0 * c.conj().T * np.conj(phase)],
        [phase * c, a.conj().T * np.conj(phase)],
    ]
    return a, c, U


# ---------------------------------------------------------------------------
# JSON dump


def hw_module_to_json(mod: HWModule) -> str:
    """Serialize spec, basis, and operator matrices (row-major re/im pairs)."""

    def mat(M):
        M = np.asarray(M, dtype=complex)
        return [[[float(x.real), float(x.imag)] for x in row] for row in M]

    spec = mod.spec
    doc = {
        "spec": {
            "N": spec.N,
            "eps": list(spec.eps),
            "r": [str(x) for x in spec.r],
            "D": spec.D,
            "q0": spec.q0,
        },
        "interior_margin": mod.interior_margin,
        "basis": [[list(row) for row in P] for P in mod.basis],
        "norms": [float(x) for x in mod.norms],
        "ops": {
            **{f"T{i}": mat(np.diag(mod.Tdiag[i - 1])) for i in range(1, mod.N + 1)},
            **{f"T{i}{j}": mat(M) for (i, j), M in mod.Tup.items()},
            **{f"e{i}": mat(mod.e[i - 1]) for i in range(1, mod.N)},
            **{f"f{i}": mat(mod.f[i - 1]) for i in range(1, mod.N)},
        },
    }
    return json.dumps(doc, sort_keys=True)
