"""Braid operators, q-exterior powers, and the braiding of minor blocks.

Everything here is built exactly over :class:`~qrea.scalars.LaurentScalar`
and can be evaluated to NumPy at any 0 < q0 < 1.  The tensor-leg basis of
(C^N)^{otimes k} is row-major lexicographic in the index words; this order
is fixed once and used everywhere.
"""

from __future__ import annotations

import itertools
import operator
from dataclasses import dataclass

import numpy as np

from .errors import DomainError
from .scalars import ONE, ZERO, LaurentScalar, laurent, qpow

__all__ = ["QMat", "build_rhat", "exterior_power", "minor_braiding", "ExtBasis"]


class QMat:
    """Matrix over exact scalars, stored sparsely as {(i, j): LaurentScalar}.

    Row/column indices are 0-based.  Zero entries are never stored.
    """

    __slots__ = ("rows", "cols", "entries")

    def __init__(self, rows: int, cols: int, entries=None):
        self.rows = rows
        self.cols = cols
        self.entries = {}
        if entries:
            for (i, j), v in entries.items():
                if not isinstance(v, LaurentScalar):
                    v = LaurentScalar.const(v)
                if v:
                    self.entries[(i, j)] = v

    @staticmethod
    def _of(rows: int, cols: int, entries: dict) -> "QMat":
        """Wrap a dict of nonzero LaurentScalar entries without re-checking it."""
        out = QMat.__new__(QMat)
        out.rows, out.cols, out.entries = rows, cols, entries
        return out

    @staticmethod
    def eye(n: int) -> "QMat":
        return QMat(n, n, {(i, i): ONE for i in range(n)})

    def __getitem__(self, ij):
        return self.entries.get(ij, ZERO)

    def __setitem__(self, ij, v):
        if not isinstance(v, LaurentScalar):
            v = LaurentScalar.const(v)
        if v:
            self.entries[ij] = v
        else:
            self.entries.pop(ij, None)

    def _entrywise(self, other, op) -> "QMat":
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise DomainError("shape mismatch")
        out = QMat._of(self.rows, self.cols, dict(self.entries))
        for ij, v in other.entries.items():
            out[ij] = op(out[ij], v)
        return out

    def __add__(self, other):
        return self._entrywise(other, operator.add)

    def __sub__(self, other):
        return self._entrywise(other, operator.sub)

    def scale(self, s: LaurentScalar) -> "QMat":
        if not s:
            return QMat(self.rows, self.cols)
        # a product of nonzero Laurent polynomials is nonzero
        return QMat._of(self.rows, self.cols, {ij: v * s for ij, v in self.entries.items()})

    def __matmul__(self, other: "QMat") -> "QMat":
        if self.cols != other.rows:
            raise DomainError("shape mismatch in matmul")
        by_row = {}
        for (i, j), v in other.entries.items():
            by_row.setdefault(i, []).append((j, v))
        acc = {}
        for (i, k), a in self.entries.items():
            for j, b in by_row.get(k, ()):
                key = (i, j)
                cur = acc.get(key)
                acc[key] = a * b if cur is None else cur + a * b
        return QMat._of(self.rows, other.cols, {ij: v for ij, v in acc.items() if v})

    def kron(self, other: "QMat") -> "QMat":
        out = {}
        for (i, j), a in self.entries.items():
            for (k, l), b in other.entries.items():
                out[(i * other.rows + k, j * other.cols + l)] = a * b
        return QMat._of(self.rows * other.rows, self.cols * other.cols, out)

    def transpose(self) -> "QMat":
        return QMat._of(self.cols, self.rows, {(j, i): v for (i, j), v in self.entries.items()})

    def is_zero(self) -> bool:
        return not self.entries

    def __eq__(self, other):
        return (
            isinstance(other, QMat)
            and (self.rows, self.cols) == (other.rows, other.cols)
            and self.entries == other.entries
        )

    def to_numpy(self, q0) -> np.ndarray:
        out = np.zeros((self.rows, self.cols), dtype=complex)
        for (i, j), v in self.entries.items():
            out[i, j] = complex(v.eval(q0))
        return out

    def __repr__(self):
        return f"QMat({self.rows}x{self.cols}, nnz={len(self.entries)})"


# Combinatorial helpers shared by the exact and the numeric modules.  Sign
# vectors may hold ints or Fractions; their products keep the entries' type.


def _eps_interval(eps, lo: int, hi: int):
    """Product eps_(lo, hi] = eps_{lo+1} * ... * eps_{hi} (1-based, empty product = 1)."""
    p = 1
    for t in range(lo + 1, hi + 1):
        p *= eps[t - 1]
    return p


def _leading_signs(eps) -> tuple:
    """The leading products eps_[m] = eps_(0, m] for m = 1, ..., len(eps)."""
    return tuple(itertools.accumulate(eps, operator.mul))


def _word_index(word, N: int) -> int:
    """Row-major 0-based index of a 1-based index word in (C^N)^{otimes len(word)}."""
    out = 0
    for a in word:
        out = out * N + (a - 1)
    return out


def _inversions(word) -> int:
    return sum(
        1 for p in range(len(word)) for r in range(p + 1, len(word)) if word[p] > word[r]
    )


def _q_antisymmetrizer(I):
    """The orderings w of the word I with their weights (-q)^{inv(w)}, in
    the order of ``itertools.permutations``."""
    for word in itertools.permutations(I):
        inv = _inversions(word)
        yield word, laurent((-1) ** inv, inv)


def build_rhat(N: int, eps=None):
    """Braid operator on C^N tensor C^N and its explicit inverse.

    Action on basis vectors (1-based indices k, l):

        Rhat(e_k ox e_l) = q^{-d_kl} e_l ox e_k
                           + (q^{-1} - q) [l < k] eps_(l,k] e_k ox e_l,

    where eps is an optional deformation vector (all ones when absent).
    Returns the pair (rhat, rhat_inverse), both exact N^2 x N^2 matrices.
    """
    if N < 1:
        raise DomainError(f"N must be >= 1, got {N}")
    if eps is not None and len(eps) != N:
        raise DomainError("eps must have length N")

    def idx(a, b):  # (1-based pair) -> row-major 0-based tensor index
        return (a - 1) * N + (b - 1)

    R = QMat(N * N, N * N)
    Rinv = QMat(N * N, N * N)
    for k in range(1, N + 1):
        for l in range(1, N + 1):
            R[(idx(l, k), idx(k, l))] = qpow(-1) if k == l else ONE
            Rinv[(idx(l, k), idx(k, l))] = qpow(1) if k == l else ONE
            if l < k:
                e = _eps_interval(eps, l, k) if eps is not None else 1
                if e:
                    R[(idx(k, l), idx(k, l))] = laurent(e, -1) - laurent(e, 1)
                    Rinv[(idx(l, k), idx(l, k))] = laurent(e, 1) - laurent(e, -1)
    return R, Rinv


def _embedded_factor(N: int, total: int, pos: int, R: QMat) -> QMat:
    """R acting on tensor legs (pos, pos+1) of (C^N)^{otimes total}, 1-based."""
    left = QMat.eye(N ** (pos - 1))
    right = QMat.eye(N ** (total - pos - 1))
    return left.kron(R).kron(right)


@dataclass(frozen=True)
class ExtBasis:
    """Embedded model of the q-exterior power inside the tensor power.

    basis[m] is the m-th k-subset of [N] in lexicographic order; ``embed``
    sends its wedge vector into (C^N)^{otimes k}, and ``project`` is the
    exact left inverse reading off the strictly-increasing-word coordinates.
    """

    N: int
    k: int
    basis: tuple
    embed: QMat
    project: QMat

    @property
    def dim(self) -> int:
        return len(self.basis)

    def index(self, subset) -> int:
        return self.basis.index(tuple(subset))


def exterior_power(N: int, k: int) -> ExtBasis:
    """q-antisymmetric model of the k-th exterior power of C^N.

    The wedge vector of I = {i_1 < ... < i_k} is embedded as

        sum over permutations w of (-q)^{inv(w)} e_{i_w(1)} ox ... ox e_{i_w(k)},

    which spans the joint (-q)-eigenspace of the adjacent braid operators.
    The dimension is C(N, k).
    """
    if not 0 <= k <= N:
        raise DomainError(f"k={k} out of range for N={N}")
    subsets = tuple(itertools.combinations(range(1, N + 1), k))
    dim_tensor = N ** k
    embed = QMat(dim_tensor, len(subsets))
    project = QMat(len(subsets), dim_tensor)
    for col, I in enumerate(subsets):
        for word, c in _q_antisymmetrizer(I):
            embed[(_word_index(word, N), col)] = c
        project[(col, _word_index(I, N))] = ONE
    return ExtBasis(N=N, k=k, basis=subsets, embed=embed, project=project)


def _block_swap_braid(N: int, k: int, l: int, R: QMat) -> QMat:
    """Product of adjacent braid factors moving the first k strands past
    the last l strands of (C^N)^{otimes (k+l)}."""
    total = k + l
    out = None
    # strand k moves first (factors at positions k..k+l-1, applied in that
    # order), then strand k-1, ..., finally strand 1.
    for s in range(1, k + 1):
        chain = _embedded_factor(N, total, s, R)
        for pos in range(s + 1, s + l):
            chain = _embedded_factor(N, total, pos, R) @ chain
        out = chain if out is None else out @ chain
    return out


def minor_braiding(N: int, k: int, l: int):
    """Braiding of the k-th against the l-th exterior power, with inverse.

    Returns (B, Binv) where B maps Ext^k ox Ext^l -> Ext^l ox Ext^k.  Row
    index pairs run over basis(l) x basis(k), columns over basis(k) x
    basis(l), row-major.  Computed by conjugating the chain of braid
    factors on (C^N)^{otimes (k+l)} by the exterior-power embeddings; the
    inverse moves the l strands back past the k strands with inverse factors.
    """
    if not (1 <= k <= N and 1 <= l <= N):
        raise DomainError("k, l must lie in [1, N]")
    R, Rinv = build_rhat(N)
    ek, el = exterior_power(N, k), exterior_power(N, l)
    fwd, bwd = _block_swap_braid(N, k, l, R), _block_swap_braid(N, l, k, Rinv)
    B = el.project.kron(ek.project) @ fwd @ ek.embed.kron(el.embed)
    Binv = ek.project.kron(el.project) @ bwd @ el.embed.kron(ek.embed)
    return B, Binv


def minor_braiding_entry(B: QMat, ext_k: ExtBasis, ext_l: ExtBasis, I, J, Ip, Jp):
    """Entry B^{I J}_{I' J'}: coefficient of e_{I'} ox e_J in B(e_I ox e_{J'})."""
    row = ext_l.index(Ip) * ext_k.dim + ext_k.index(J)
    col = ext_k.index(I) * ext_l.dim + ext_l.index(Jp)
    return B[(row, col)]
