"""Highest-weight modules for the deformed triangular *-algebra in their
Gelfand-Tsetlin realization, and the transport parameters built from them
and from the standard quantum-SU(2) corepresentation.

A module is specified by (N, M, eps, r, D, q0): eps in {-1,0,1}^M and the
highest weight r in R^M are zero/one padded to length N internally, D caps
the total pattern degree, and q0 is the numeric deformation parameter.
Basis vectors are labeled by triangular arrays P = (P_1, ..., P_{N-1}),
P_k in Z_{>=0}^k; the vector for P has squared norm c_P given by a product
of q-Pochhammer factors, and vectors of zero norm are dropped (the quotient
by the kernel of the invariant form).  All operator matrices are expressed
in the orthonormalized basis, so the raising operators are exactly the
adjoints of the lowering ones.

Every exponent of q is a fixed rational per slot plus an integer linear
form in the pattern entries, held exactly as an integer in units of
1/(2 lcm of the denominators of r).  The basis and every sign of c_P are
integer comparisons on those exponents, made for all patterns at once.
The values (norms, ladder coefficients, T blocks) are ``decimal`` numbers
for the kept patterns only, evaluated from tables: the integer exponents
of all kept patterns come first, as arrays, and each distinct Decimal
factor (a power of q, a q-Pochhammer product, a q-bracket) is then
evaluated once and gathered by its exponents.  Every sparse block operator
of the package is a ``RowBlocks`` layout of padded rows, defined here: a
module's operators hold Decimals and are read as float64 views, and Z is
one too.  The Gram Z = T^T E T of a big cell (``HWModule.gram``) cancels
summands of size q^{-2s}, s the top interior shell, down to bounded entries
on mixed signs, so it is summed in ``decimal`` at a precision derived from
D, r and q (``_precision``) and rounded to float64 once: the residuals stay
near machine precision at any depth (about 1e-15 at q=1/2 up to D=60 for
N=2 and D=26 for N=3).  A build whose cancellation the precision does not
cover raises ``PrecisionLoss``.

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
import math
from dataclasses import dataclass
from decimal import MAX_EMAX, MIN_EMIN, Context, Decimal, localcontext
from fractions import Fraction
from functools import lru_cache
from itertools import repeat

import numpy as np

from .braid import _eps_interval, _leading_signs
from .errors import DomainError, NegativeNorm, PrecisionLoss, TruncationTooSmall

__all__ = [
    "GTPattern",
    "RowBlocks",
    "HWModuleSpec",
    "HWModule",
    "eps_adapted",
    "patterns",
    "gt_norm",
    "gt_norm_sign",
    "gt_norm_signs",
    "build_hw_module",
    "vector_trep",
    "scaling_blocks",
    "suq2_corep_blocks",
    "hw_module_to_json",
]

GTPattern = tuple  # tuple of rows, row k (1-based) has length k
# Verification squares quantities of degree N in Z, so a Z of scale s
# meets s**(2N); the scales kept are those with s**(2N) in [2**-1000, 2**1000].
SCALE_EXP2 = 1000


def _slot(i: int, k: int) -> int:
    """Position of P_{i,k} (1 <= i <= k <= N-1) in a flattened pattern."""
    return k * (k - 1) // 2 + i - 1


def _as_patterns(A: np.ndarray, N: int) -> list:
    """The flattened patterns in the rows of A, as patterns."""
    levels = [map(tuple, A[:, _slot(1, k):_slot(1, k) + k].tolist()) for k in range(1, N)]
    return list(zip(*levels)) if levels else [()] * len(A)


def _flat(P: GTPattern) -> list:
    return [x for row in P for x in row]


def _pattern_array(N: int, D: int) -> np.ndarray:
    """Flattened patterns of size N and total degree <= D as the rows of an
    int array, shells ascending and lexicographic within a shell."""
    A = np.zeros((1, 0), dtype=np.int64)
    left = np.array([D])
    for _ in range(N * (N - 1) // 2):
        counts = left + 1
        parent = np.repeat(np.arange(len(A)), counts)
        value = np.arange(counts.sum()) - np.repeat(np.cumsum(counts) - counts, counts)
        A = np.column_stack([A[parent], value])
        left = left[parent] - value
    return A[np.argsort(A.sum(axis=1), kind="stable")]


@lru_cache(maxsize=1)
def _kept_pattern_array(N: int, D: int) -> np.ndarray:
    """``_pattern_array(N, D)``, read-only, kept for the last (N, D) asked,
    so that a sweep over cells of one size enumerates their patterns once.
    Module builds do not keep theirs."""
    A = _pattern_array(N, D)
    A.setflags(write=False)
    return A


def patterns(N: int, D: int):
    """All patterns for size N with total degree <= D, shells ascending."""
    return _as_patterns(_pattern_array(N, D), N)


def _tails(X, N: int):
    """S[row][start] = sum of P_{row,l} over max(row, start) <= l <= N-1.

    X[_slot(i, k)] is the column of entries P_{i,k} over many patterns, so
    each sum is a column too.  Rows and starts run up to N, where the sums
    are empty (a column of zeros).
    """
    zero = np.zeros(X.shape[1:], dtype=np.int64)
    S = [[zero] * (N + 2) for _ in range(N + 2)]
    for row in range(1, N):
        for start in range(N - 1, 0, -1):
            S[row][start] = S[row][start + 1] + (X[_slot(row, start)] if start >= row else 0)
    return S


def _weight(x) -> Fraction:
    """A weight entry as a Fraction; a float is read as the nearest fraction
    with denominator at most 10^12."""
    return Fraction(x).limit_denominator(10 ** 12) if isinstance(x, float) else Fraction(x)


def eps_adapted(r, eps) -> bool:
    """Whether the weight r admits a unitary highest-weight module for eps.

    True iff for every s < t with interval product eps_(s,t] equal to 1
    the difference (r_t + t) - (r_s + s) is a strictly positive integer.
    """
    if len(r) != len(eps):
        raise DomainError("r and eps must have the same length")
    r = [_weight(x) for x in r]
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
        object.__setattr__(self, "r", tuple(_weight(x) for x in self.r))

    @property
    def M(self) -> int:
        return len(self.eps)

    @property
    def eps_padded(self) -> tuple:
        return self.eps + (0,) * (self.N - self.M)

    @property
    def r_padded(self) -> tuple:
        return self.r + (Fraction(1),) * (self.N - self.M)


def _units(spec: HWModuleSpec):
    """(L2, R): L2 = 2 lcm of the denominators of r, and R = r * L2.

    Every exponent of q in a module is an integer multiple of 1/L2 (the
    factor 2 covers the half powers of K), so it is held exactly as that
    integer.
    """
    L2 = 2 * math.lcm(*(x.denominator for x in spec.r_padded))
    return L2, [int(x * L2) for x in spec.r_padded]


def _norm_terms(X, S, spec: HWModuleSpec, R):
    """The q-Pochhammer factors of c_P: for each slot (i, k) and i <= j <= k,
    m = P_{i,k} and two triples (sigma, c, n) standing for the factor
    (sigma q^{2e}; q^2)_m with e = c / L2 + n, for the patterns whose entries
    are the columns X and whose tail sums are S (``_tails``).

    The first factor at j = i is (q^2; q^2)_m, whose window starts at n = 1
    (an int) for every pattern.  Every other window ends at an n + m - 1
    that does not depend on m."""
    N, eps = spec.N, spec.eps_padded
    for k in range(1, N):
        for i in range(1, k + 1):
            m = X[_slot(i, k)]
            for j in range(i, k + 1):
                n1 = 1 if j == i else (j - i + 1) + S[j][k] - S[i][k]
                n2 = (j - i + 1) - m + S[j + 1][k + 1] - S[i][k + 1]
                yield m, ((_eps_interval(eps, i, j), R[j - 1] - R[i - 1], n1),
                          (_eps_interval(eps, i, j + 1), R[j] - R[i - 1], n2))


def _signs(A: np.ndarray, spec: HWModuleSpec) -> np.ndarray:
    """Exact signs of c_P for the flattened patterns in the rows of A.

    A factor 1 - sigma q^{2(e+t)}, t < m, is zero exactly when sigma = 1 and
    e + t = 0, and negative exactly when sigma = 1 and e + t < 0; with
    e = c / L2 + n both are integer comparisons on floor(c / L2) + n.
    """
    L2, R = _units(spec)
    neg = np.zeros(len(A), dtype=np.int64)
    zero = np.zeros(len(A), dtype=bool)
    for m, factors in _norm_terms(A.T, _tails(A.T, spec.N), spec, R):
        for sigma, c, n in factors:
            if sigma != 1:
                continue
            lo = c // L2 + n  # floor(e): e + t < 0 exactly when t < -lo
            neg += np.clip(-lo, 0, m)
            if c % L2 == 0:
                zero |= (lo <= 0) & (lo > -m)
    return np.where(zero, 0, np.where(neg % 2, -1, 1))


def _precision(spec: HWModuleSpec) -> int:
    """Decimal digits for a build.  The sums Z = T^T E T cancel summands of
    up to about q^{-2(D + max|r| + N)} down to a bounded operator, so that
    many digits are lost; 20 more are kept."""
    rmax = max(abs(x) for x in spec.r_padded)
    return math.ceil(2 * (spec.D + float(rmax) + spec.N) * math.log10(1 / spec.q0)) + 20


class _Memo(dict):
    """A dict that computes each missing value from its key, once."""

    def __init__(self, compute):
        super().__init__()
        self.compute = compute

    def __missing__(self, key):
        value = self[key] = self.compute(key)
        return value

    def gather(self, keys) -> np.ndarray:
        """The values of the keys in the iterable ``keys`` as an object array."""
        return np.array(list(map(self.__getitem__, keys)), dtype=object)


class _Numbers:
    """The closed forms of one module on the patterns in the rows of an int
    array ``A``, evaluated in ``decimal``.

    The integer data come first, for all rows at once: the tail sums, the K
    exponents, the q-Pochhammer windows of every c_P and the q-bracket
    exponents of every ladder coefficient, each an exact integer in units
    of 1/L2 (see ``_units``).  Each distinct Decimal factor is then
    evaluated once: q^x as an integer power of q times exp(f ln q) for the
    fractional part f of x; a q-Pochhammer product as an entry of the table
    of prefix products of its window, anchored at the window's fixed end;
    a q-bracket from a cache keyed by its exponent, sign and side.  Call
    the methods inside ``localcontext(self.context)``.
    """

    def __init__(self, spec: HWModuleSpec, A: np.ndarray):
        self.spec = spec
        self.L2, self.R = _units(spec)
        self.context = Context(prec=_precision(spec), Emax=MAX_EMAX, Emin=MIN_EMIN)
        self.X = A.T  # X[_slot(i, k)] is the column of entries P_{i,k}
        self.S = _tails(self.X, spec.N)
        self._powers = _Memo(self._power)
        self._gaps = _Memo(lambda n: self.gap ** n)
        self._windows = {}
        self._brackets = _Memo(self._bracket)
        with localcontext(self.context):
            self.q = q = Decimal(spec.q0)
            self.lnq = q.ln()
            self.qdiff = q - 1 / q
            self.gap = 1 / self.qdiff ** 2

    def power(self, u: int) -> Decimal:
        """q^(u / L2)."""
        return self._powers[u]

    def _power(self, u: int) -> Decimal:
        """q^n times exp(a ln q / L2), with u = n L2 + a and 0 <= a < L2."""
        n, a = divmod(u, self.L2)
        return self.q ** n * self._powers[a] if n else (a * self.lnq / self.L2).exp()

    def kexp(self) -> np.ndarray:
        """K_i = q^{-r_i + sum_{j<i} P_{j,i-1} - sum_l P_{i,l}} on every row,
        exponent times L2: an (N, rows) int array, K_i at row i - 1."""
        N, X, S = self.spec.N, self.X, self.S
        return np.array([-self.R[i - 1] + (sum((X[_slot(j, i - 1)] for j in range(1, i)),
                                               S[N][N]) - S[i][i]) * self.L2
                         for i in range(1, N + 1)])

    def norms(self) -> np.ndarray:
        """Squared norms c_P of the rows, an object array: products of
        q-Pochhammer factors and the prefactor (q^{-1} - q)^{-2m} q^{-m E},
        E = e1 + e2 + m - 1.

        A window (sigma q^{2e}; q^2)_m of t = 0 .. m-1 factors is read from
        the prefix products of one table, keyed by sigma and the window's
        fixed end: its start for (q^2; q^2)_m, its last exponent otherwise.
        """
        L2, zero = self.L2, self.S[self.spec.N][self.spec.N]
        # a window's key packs its anchor, its direction and the sign of sigma
        keys, depths, u, mtot = [], [], zero, zero
        for m, factors in _norm_terms(self.X, self.S, self.spec, self.R):
            es = [c + n * L2 for _, c, n in factors]
            for (sigma, _, n), e in zip(factors, es):
                if sigma:
                    rising = isinstance(n, int)
                    anchor = e if rising else e + (m - 1) * L2
                    keys.append(((anchor * 2 + rising) * 2 + (sigma > 0)) + zero)
                    depths.append(m)
            u = u - m * (es[0] + es[1] + (m - 1) * L2)
            mtot = mtot + m
        val = np.ones(len(zero), dtype=object)
        if keys:
            key, depth = np.concatenate(keys), np.concatenate(depths)
            table, at = np.unique(key, return_inverse=True)
            top = np.zeros(len(table), dtype=np.int64)
            np.maximum.at(top, at, depth)
            start, flat = [], []
            for k, d in zip(table.tolist(), top.tolist()):
                start.append(len(flat))
                flat += self._window(k, d)
            prefix = np.array(flat, dtype=object)[np.array(start)[at] + depth]
            val = np.multiply.reduce(prefix.reshape(len(keys), -1), axis=0)
        return val * self._powers.gather(u.tolist()) * self._gaps.gather(mtot.tolist())

    def _window(self, key: int, depth: int) -> list:
        """The prefix products of the window ``key`` up to ``depth`` factors:
        entry t is the product of 1 - sigma q^{2x} over the first t
        exponents x from its anchor, one apart, rising or falling."""
        table = self._windows.setdefault(key, [Decimal(1)])
        anchor, rising, sigma = key >> 2, (key >> 1) & 1, 1 if key & 1 else -1
        step = self.L2 if rising else -self.L2
        while len(table) <= depth:
            x = anchor + (len(table) - 1) * step
            table.append(table[-1] * (1 - sigma * self._powers[2 * x]))
        return table[:depth + 1]

    def raising(self, j: int, i: int, rows: np.ndarray) -> np.ndarray:
        """Coefficients of the raising operator e_i moving one box out of
        P_{j,i}, on the rows ``rows`` (an index array), as an object array.

        Product form with numerator tail sums starting at level i+1 and
        denominator tail sums starting at level i, multiplied in that order.
        Exactly-zero numerator brackets make a coefficient 0; a vanishing
        denominator bracket would be a pole and aborts (it cannot occur on
        positive-norm patterns).
        """
        L2, R, eps, S = self.L2, self.R, self.spec.eps_padded, self.S
        base = S[j][i][rows]

        def brackets(k, start):
            """Exponents x on the rows, sign e and side of the bracket [x]_e
            (k <= j) or [x]^e (k > j), which vanishes exactly where e = 1 and x = 0."""
            x = R[j - 1] - R[k - 1] + ((j - k) - S[k][start][rows] + base) * L2
            return x, _eps_interval(eps, min(j, k), max(j, k)), k > j

        up = [brackets(k, i + 1) for k in range(1, i + 2)]
        down = [brackets(k, i) for k in range(1, i + 1) if k != j]
        live = np.logical_and.reduce([(x != 0) | (e != 1) for x, e, _ in up])
        for x, e, _ in down:
            pole = live & (x == 0) & (e == 1)
            if pole.any():
                P = _as_patterns(self.X.T[rows[pole]], self.spec.N)[0]
                raise DomainError(f"coefficient pole at P={P}, (j,i)=({j},{i})")
        coef = Decimal(-1)
        for x, e, side in up:
            coef = coef * self._brackets.gather(zip(x[live].tolist(), repeat(e), repeat(side)))
        for x, e, side in down:
            coef = coef / self._brackets.gather(zip(x[live].tolist(), repeat(e), repeat(side)))
        out = np.full(len(rows), Decimal(0), dtype=object)
        out[live] = coef
        return out

    def _bracket(self, key) -> Decimal:
        """[x]_e = (e q^x - q^{-x})/(q - q^{-1}), or [x]^e = (q^x - e q^{-x})/(q - q^{-1})
        on the upper side."""
        x, e, upper = key
        a, b = self._powers[x], self._powers[-x]
        return ((a - e * b) if upper else (e * a - b)) / self.qdiff


def gt_norm(P: GTPattern, spec: HWModuleSpec) -> float:
    """Squared norm c_P of the basis vector labeled by P.  Raises
    PrecisionLoss if c_P is beyond the float64 range."""
    num = _Numbers(spec, np.array(_flat(P), dtype=np.int64).reshape(1, -1))
    with localcontext(num.context):
        c = num.norms()[0]
    return _float_norm(c, P) or 0.0  # an exact zero, never -0.0


def _float_norm(c: Decimal, P: GTPattern) -> float:
    """The norm c of pattern P as a float; PrecisionLoss beyond float64."""
    x = float(c)
    if not math.isfinite(x):
        raise PrecisionLoss(f"norm {c:.6e} of pattern {P} is beyond the float64 range")
    return x


def gt_norm_sign(P: GTPattern, spec: HWModuleSpec) -> int:
    """Exact sign of c_P (the prefactor is positive, so only the
    Pochhammer factors contribute)."""
    return int(_signs(np.array(_flat(P), dtype=np.int64).reshape(1, -1), spec)[0])


def gt_norm_signs(spec: HWModuleSpec) -> np.ndarray:
    """Exact signs of c_P for every pattern of ``patterns(spec.N, spec.D)``."""
    return _signs(_kept_pattern_array(spec.N, spec.D), spec)


@dataclass(frozen=True)
class RowBlocks:
    """Sparse square blocks of one size as padded rows.

    ``cols`` and ``vals`` have one shape (..., dim, w): row a of a block has
    its nonzeros at the columns ``cols[..., a, :]``, each at most once, with
    the values ``vals[..., a, :]``, and is padded with value 0 (at column 0)
    to the width w of the widest row.  Indexing the leading axes gives the
    layout of those blocks, so ``Z[i - 1, j - 1]`` is the block Z_ij.
    ``widths`` holds the slots that each block's rows use, recorded when the
    layout is built and indexed along with it.
    """

    cols: np.ndarray
    vals: np.ndarray
    widths: np.ndarray | None = None

    def __post_init__(self):
        if self.widths is None:
            used = np.count_nonzero((self.vals != 0).any(axis=-2), axis=-1)
            object.__setattr__(self, "widths", used)

    @classmethod
    def from_coo(cls, shape, rows, cols, vals) -> RowBlocks:
        """The blocks whose rows have the shape ``shape`` (the leading axes,
        then dim), from their entries at flat row indices ``rows`` over
        ``shape`` and columns ``cols``; entries at one position are summed
        and zeros dropped.  An index outside the shape is a DomainError."""
        dim, nrows = shape[-1], math.prod(shape)
        rows, cols = np.asarray(rows, dtype=np.int64), np.asarray(cols, dtype=np.int64)
        # as unsigned integers, negative indices are beyond any bound too
        if len(rows) and (rows.view(np.uint64).max() >= nrows
                          or cols.view(np.uint64).max() >= dim):
            raise DomainError(f"entry index outside the shape {tuple(shape)}")
        key = rows * dim + cols
        order = np.argsort(key, kind="stable")
        key, vals = key[order], np.asarray(vals)[order]
        new = key[1:] != key[:-1]
        if not new.all():
            start = np.flatnonzero(np.concatenate(([True], new)))
            key, vals = key[start], np.add.reduceat(vals, start)
        keep = vals != 0
        row, col = np.divmod(key[keep], dim)
        vals = vals[keep]
        count = np.bincount(row, minlength=nrows)
        at = np.arange(len(row)) - np.searchsorted(row, row)  # place in its row
        width = int(count.max(initial=0))
        C = np.zeros((len(count), width), dtype=np.intp)
        V = np.zeros((len(count), width), dtype=vals.dtype)
        C[row, at], V[row, at] = col, vals
        return cls(C.reshape(*shape, width), V.reshape(*shape, width),
                   count.reshape(shape).max(axis=-1, initial=0))

    @classmethod
    def from_dense(cls, Z) -> RowBlocks:
        """The nonzeros of a dense (..., dim, dim) block array."""
        Z = np.asarray(Z)
        *rows, col = nz = np.nonzero(Z)
        return cls.from_coo(Z.shape[:-1], np.ravel_multi_index(rows, Z.shape[:-1]), col, Z[nz])

    def __getitem__(self, key) -> RowBlocks:
        return RowBlocks(self.cols[key], self.vals[key], self.widths[key])

    @property
    def dim(self) -> int:
        return self.cols.shape[-2]

    def __matmul__(self, M: np.ndarray) -> np.ndarray:
        """Z @ M for one block Z and a dense (dim, k) matrix M, row by row:
        sum_t vals[:, t] * M[cols[:, t]], over the slots t of this block's
        widest row (rows hold their nonzeros first)."""
        width = self.widths
        return np.einsum("rt,rtk->rk", self.vals[:, :width], M[self.cols[:, :width]])

    def columns(self, mask: np.ndarray) -> np.ndarray:
        """The columns that the bool mask selects, dense: the blocks'
        (..., dim, mask.sum()) array."""
        place = np.cumsum(mask) - 1
        hit = np.nonzero(mask[self.cols] & (self.vals != 0))
        out = np.zeros(self.cols.shape[:-1] + (int(mask.sum()),), dtype=self.vals.dtype)
        out[hit[:-1] + (place[self.cols[hit]],)] = self.vals[hit]
        return out


def _entries(X: RowBlocks, at: int = 0):
    """Row, column and value of each nonzero of one block, row by row; the
    rows are flat ones of a stack of blocks that has this one at index ``at``."""
    r, t = np.nonzero(X.vals != 0)
    return r + at * X.dim, X.cols[r, t], X.vals[r, t]


def _product(A: RowBlocks, B: RowBlocks) -> RowBlocks:
    """A @ B for two blocks: entry (r, c) sums A[r, k] B[k, c] over the
    nonzeros of row r of A, in column order."""
    r, t, s = np.nonzero((A.vals != 0)[:, :, None] & (B.vals != 0)[A.cols])
    k = A.cols[r, t]
    return RowBlocks.from_coo((A.dim,), r, B.cols[k, s], A.vals[r, t] * B.vals[k, s])


@dataclass
class HWModule:
    """A built module: orthonormal basis, norms, and operator matrices.

    ``tri`` holds the T blocks, T[i,j] at ``tri[i - 1, j - 1]`` (zero below
    the diagonal), and ``lower`` the lowering operators, f_i at
    ``lower[i - 1]``: ``RowBlocks`` layouts of Decimal values computed in
    ``context``.  ``T`` and ``f`` are their float64 views, with the same
    ``cols``; ``norms`` are the Decimal squared norms c_P.  ``interior``
    marks basis vectors at least ``interior_margin`` below the truncation
    cap.
    """

    spec: HWModuleSpec
    basis: list
    norms: list
    tri: RowBlocks
    lower: RowBlocks
    context: Context
    interior: np.ndarray
    interior_margin: int

    @property
    def dim(self) -> int:
        return len(self.basis)

    @property
    def N(self) -> int:
        return self.spec.N

    @property
    def T(self) -> RowBlocks:
        return RowBlocks(self.tri.cols, self.tri.vals.astype(float), self.tri.widths)

    @property
    def f(self) -> RowBlocks:
        """The lowering operators f_i; the raising ones are e_i = f_i^T."""
        return RowBlocks(self.lower.cols, self.lower.vals.astype(float), self.lower.widths)

    def gram(self, keep: np.ndarray | None = None) -> tuple[RowBlocks, np.ndarray]:
        """Z_ij = sum over rows m <= min(i,j) of eps_[m] T[m,i]^T T[m,j] on the
        basis vectors that the bool mask ``keep`` selects, and that mask.

        By default ``keep`` is the reach: the vectors within N steps of the
        interior in the graph of the summands' index pairs (a, b), those that
        share a row of T[m,i] and T[m,j] with eps_[m] != 0.  Verification's
        words of at most N letters on interior columns read Z on reach x
        reach only.  The reach is found before any Decimal product, and only
        the summands with a and b kept are formed; an all-true mask gives Z on
        the whole module.  Z is summed in ``context`` m by m and row by row,
        each kept entry in the order it has on the whole module, and rounded
        once to float64 for i <= j (Z_ji = Z_ij^T); only the nonzeros are
        kept.  Where verification reads Z (an interior row or column of Z_ij)
        the sums cancel summands far larger than the result: PrecisionLoss is
        raised when the largest such summand, at the context's precision,
        could move an entry by more than 1e-17 of the largest such entry."""
        N, T, nz = self.N, self.tri, self.tri.vals != 0
        lead = _leading_signs(self.spec.eps_padded)  # lead[m - 1] = eps_[m]
        # the summands of Z_ij, i <= j, by m: the slots t of T[m,i] and s of
        # T[m,j] in one row r
        pairs = {}
        for i in range(1, N + 1):
            for j in range(i, N + 1):
                for m in range(1, i + 1):
                    both = nz[m - 1, i - 1][:, :, None] & nz[m - 1, j - 1][:, None, :]
                    pairs[i, j, m] = np.nonzero(both & (lead[m - 1] != 0))

        def ends(i, j, m):
            """The index pair (a, b) of each summand of Z_ij from row m."""
            r, t, s = pairs[i, j, m]
            return T.cols[m - 1, i - 1, r, t], T.cols[m - 1, j - 1, r, s]

        if keep is None:
            a, b = map(np.concatenate, zip(*(ends(*key) for key in pairs)))
            keep = self.interior.copy()
            for _ in range(N):  # one step: the new ends are found before any is set
                keep[np.concatenate((b[keep[a]], a[keep[b]]))] = True
        inner, new = self.interior[keep], np.cumsum(keep) - 1
        dim = len(inner)
        rows, cols, vals = [], [], []   # the nonzeros of Z, at flat rows over (N, N, dim)
        biggest = scale = Decimal(0)
        with localcontext(self.context):
            for i in range(1, N + 1):
                for j in range(i, N + 1):
                    a, b, p = [], [], []   # Z_ij[a, b] gets the summands p, m by m and row by row
                    for m in range(1, i + 1):
                        r, t, s = pairs[i, j, m]
                        x, y = ends(i, j, m)
                        use = keep[x] & keep[y]
                        r, t, s = r[use], t[use], s[use]
                        a.append(new[x[use]])
                        b.append(new[y[use]])
                        p.append(lead[m - 1] * T.vals[m - 1, i - 1, r, t]
                                 * T.vals[m - 1, j - 1, r, s])
                    a, b, p = map(np.concatenate, (a, b, p))
                    biggest = np.abs(p[inner[a] | inner[b]]).max(initial=biggest)
                    a, b, v = _entries(RowBlocks.from_coo((dim,), a, b, p))
                    scale = np.abs(v[inner[a] | inner[b]]).max(initial=scale)
                    v = v.astype(float)
                    rows.append(((i - 1) * N + j - 1) * dim + a)
                    cols.append(b)
                    vals.append(v)
                    if i < j:
                        rows.append(((j - 1) * N + i - 1) * dim + b)
                        cols.append(a)
                        vals.append(v)
            if biggest.scaleb(-self.context.prec) > scale * Decimal("1e-17"):
                raise PrecisionLoss(
                    f"Z cancels summands up to {biggest:.2e} at {self.context.prec} digits; "
                    f"its interior entries (up to {scale:.2e}) are not accurate to 1e-17")
        return RowBlocks.from_coo((N, N, dim), *map(np.concatenate, (rows, cols, vals))), keep


def _per_exponent(f, u: np.ndarray) -> np.ndarray:
    """f(x) for each x of the int array u, as an object array; f is called
    once per distinct x."""
    distinct, at = np.unique(u, return_inverse=True)
    return np.array([f(x) for x in distinct.tolist()], dtype=object)[at]


def build_hw_module(spec: HWModuleSpec, margin: int | None = None) -> HWModule:
    """Construct the truncated module with orthonormalized operator matrices.

    The weight must be adapted to eps, and a negative norm aborts the build.
    ``margin`` controls the interior predicate (default 4N); a negative
    margin, which would count truncated vectors as interior, and D < margin,
    which leaves no interior vector, are errors.
    """
    N, D = spec.N, spec.D
    if margin is None:
        margin = 4 * N
    if margin < 0:
        raise DomainError(f"interior margin {margin} is negative")
    if D < margin:
        raise TruncationTooSmall(f"D={D} < interior margin {margin}")
    if not eps_adapted(spec.r, spec.eps):
        raise NegativeNorm(
            f"weight {spec.r} is not adapted to eps={spec.eps}; no unitary module"
        )
    # the exact spectral roots eps_[k] q^(2(r_k + k) - 2) set the scale of Z
    limit = SCALE_EXP2 / (2 * N)
    for k, (e, r) in enumerate(zip(_leading_signs(spec.eps), spec.r), 1):
        if e and abs(2 * (r + k) - 2) > limit / -math.log2(spec.q0):
            raise DomainError(
                f"root {k} of the weight is q^({2 * (r + k) - 2}), outside [2^-{limit:.4g}, "
                f"2^{limit:.4g}], where verification's degree-{2 * N} products stay inside float64")

    # The basis and every sign come from integer comparisons.  The values
    # are Decimals at the precision that the Gram's cancellation needs
    # (``_precision``).
    A = _pattern_array(N, D)
    signs = _signs(A, spec)
    if (signs < 0).any():
        P = _as_patterns(A[[np.argmax(signs < 0)]], N)[0]
        raise NegativeNorm(f"negative norm at pattern {P}")
    kept = A[signs > 0]
    interior = kept.sum(axis=1) <= D - margin
    basis = _as_patterns(kept, N)
    dim = len(basis)
    # e_i moves one box of P_{j,i} up to P_{j,i-1} (out of the pattern for
    # j = i); its target is found by key, the entries as digits in base D + 1
    if (D + 1) ** kept.shape[1] > 2 ** 63:
        raise DomainError(f"patterns of N={N}, D={D} have keys beyond int64")
    digit = np.array([(D + 1) ** s for s in range(kept.shape[1])][::-1], dtype=np.int64)
    key = kept @ digit
    order = np.argsort(key)
    known = key[order]

    num = _Numbers(spec, kept)
    with localcontext(num.context):
        norms = num.norms()
        root = np.sqrt(norms)  # f_i[t, tt] = a sqrt(c_tt / c_t), a the raising coefficient
        ku = num.kexp()
        rows, cols, vals = [], [], []   # f_i[t, tt] at flat row (i - 1) dim + t
        for i in range(1, N):
            for j in range(1, i + 1):
                t = np.flatnonzero(kept[:, _slot(j, i)])
                target = key[t] - digit[_slot(j, i)] + (digit[_slot(j, i - 1)] if j < i else 0)
                at = np.minimum(np.searchsorted(known, target), dim - 1)
                hit = known[at] == target
                t, tt = t[hit], order[at[hit]]
                rows.append((i - 1) * dim + t)
                cols.append(tt)
                vals.append(num.raising(j, i, t) * root[tt] / root[t])
        lower = RowBlocks.from_coo((N - 1, dim), *(
            np.concatenate(x) if x else np.zeros(0, dtype=object) for x in (rows, cols, vals)))

        # T[i,i] = K_i^{-1}; T[i,i+1] = (q^{-1}-q) q^{1/2} f_i Khat_i^{-1/2} K_{i+1}^{-1},
        # the diagonal factors acting first (they scale columns); then
        # T[i,j] = [T[i,i+1], T[i+1,j]] / (q - q^{-1}) K_{i+1}
        blocks = {(i, i): RowBlocks(np.arange(dim)[:, None],
                                    _per_exponent(num.power, -ku[i - 1])[:, None], 1)
                  for i in range(1, N + 1)}
        for i in range(1, N):
            s = _per_exponent(lambda u: -num.qdiff * num.power(u),
                              (num.L2 - ku[i - 1] - ku[i]) // 2)
            F = lower[i - 1]
            blocks[(i, i + 1)] = RowBlocks(F.cols, F.vals * s[F.cols], F.widths)
        for span in range(2, N):
            for i in range(1, N - span + 1):
                A1, A2 = blocks[(i, i + 1)], blocks[(i + 1, i + span)]
                # AB and BA are summed apart, subtracted, then scaled: that
                # order fixes the rounding of each entry
                AB, BA = _product(A1, A2), _product(A2, A1)
                C = RowBlocks.from_coo((dim,), *map(np.concatenate, zip(
                    _entries(AB), _entries(RowBlocks(BA.cols, -BA.vals, BA.widths)))))
                s = _per_exponent(lambda u: num.power(u) / num.qdiff, ku[i])
                blocks[(i, i + span)] = RowBlocks(C.cols, C.vals * s[C.cols], C.widths)
        tri = RowBlocks.from_coo((N, N, dim), *map(np.concatenate, zip(
            *(_entries(X, (i - 1) * N + j - 1) for (i, j), X in blocks.items()))))

    return HWModule(
        spec=spec, basis=basis, norms=norms.tolist(), tri=tri, lower=lower,
        context=num.context, interior=interior, interior_margin=margin,
    )


# ---------------------------------------------------------------------------
# transport parameters: an (N, N, m, m) block array W, block W_ij at
# W[i - 1, j - 1], and the bool mask of its interior basis vectors


def detect_finite(spec: HWModuleSpec):
    """Truncate a module whose norms vanish above some shell.

    Returns the module restricted to the nonzero shells, built with margin
    0 so that every vector is interior, or None if no fully-zero shell
    occurs within D.
    """
    A = _pattern_array(spec.N, spec.D)
    nonzero = _signs(A, spec) != 0
    totals = A.sum(axis=1)
    live = [bool(nonzero[totals == s].any()) for s in range(spec.D + 1)]
    if all(live):
        return None
    cutoff = live.index(False)
    if any(live[cutoff:]):
        raise DomainError("norm support is not shell-convex; not a finite module")
    return build_hw_module(HWModuleSpec(N=spec.N, eps=spec.eps, r=spec.r,
                                        D=cutoff, q0=spec.q0), margin=0)


def vector_trep(N: int, q0: float = 0.5):
    """The N-dimensional vector representation of the triangular algebra,
    realized as the finite module with highest weight (-1, 0, ..., 0): its
    T blocks and its interior (everything)."""
    spec = HWModuleSpec(N=N, eps=(1,) * N, r=(Fraction(-1),) + (Fraction(0),) * (N - 1),
                        D=2 * N + 2, q0=q0)
    mod = detect_finite(spec)
    if mod is None or mod.dim != N:
        raise DomainError("vector module detection failed")
    return mod.T.columns(mod.interior), mod.interior


def scaling_blocks(N: int, c: float):
    """The one-dimensional representation T[i,j] -> c delta_ij (c > 0)."""
    if not 0 < c < math.inf:
        raise DomainError(f"scaling representations need a finite c > 0, got c={c}")
    return float(c) * np.eye(N)[:, :, None, None], np.ones(1, dtype=bool)


def suq2_corep_blocks(D: int, q0: float = 0.5):
    """The standard quantum-SU(2) corepresentation U = [[a, -q c*], [c, a*]]
    on span(e_0..e_D), with a e_n = (1 - q^{2n})^{1/2} e_{n-1} and
    c e_n = q^n e_n, and its interior: the levels n <= D - 2.

    U_lj moves the level by l + j - 3, so the transported letter
    Z'_ij = sum_kl Z_kl ox U_ki^* U_lj moves it by (j - i) + (l - k).  The
    words that verification reads (the central elements and the leading
    minors: at most two letters, each index value as often a row as a
    column) never reach more than L levels above the column that a word of
    L letters starts from.  So the margin is the word length, 2: truncation
    leaves the levels n <= D - 2 exact, and not level D - 1.
    """
    if D < 2:
        raise DomainError("D must be >= 2")
    n = np.arange(D + 1)
    a = np.diag(np.sqrt(1.0 - q0 ** (2 * n[1:])), k=1)
    c = np.diag(q0 ** n)  # a and c are real: a* = a^T and c* = c
    return np.array([[a, -q0 * c], [c, a.T]]), n <= D - 2


# ---------------------------------------------------------------------------
# JSON dump


def hw_module_to_json(mod: HWModule) -> str:
    """Serialize spec, basis, norms, and operator matrices.

    Every operator of a module is real, and each is written as a real
    row-major dim x dim list of rows.  Raises PrecisionLoss if a norm or an
    operator entry is not a finite float64, so that the dump stays strict
    JSON.
    """

    def mat(name, M):
        if not np.isfinite(M).all():
            raise PrecisionLoss(f"operator {name} has entries beyond the float64 range")
        return M.tolist()

    norms = [_float_norm(c, P) for P, c in zip(mod.basis, mod.norms)]
    spec, N, T, f = mod.spec, mod.N, mod.T, mod.f
    every = np.ones(mod.dim, dtype=bool)
    # one operator dense at a time, checked T diagonal first and then by span
    ops = {f"T{i}{i + s}" if s else f"T{i}": mat(f"T[{i},{i + s}]",
                                                 T[i - 1, i + s - 1].columns(every))
           for s in range(N) for i in range(1, N - s + 1)}
    for i in range(1, N):
        F = f[i - 1].columns(every)
        ops[f"e{i}"], ops[f"f{i}"] = mat(f"e{i}", F.T), F.tolist()
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
        "norms": norms,
        "ops": ops,
    }
    return json.dumps(doc, sort_keys=True)
