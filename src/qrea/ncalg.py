"""Noncommutative polynomials and straightening engines.

Polynomials are immutable once constructed.  The rewriting systems keep
memo tables and a rule counter as mutable state, so one system must not
straighten from two threads at once.

Three algebras share one polynomial container:

* FRT — quantum N x N matrices, generators ``X[i,j]``; normal form is the
  row-major ordered monomial basis.
* TRI — the deformed triangular *-algebra, generators ``T[i,j]`` (i < j),
  invertible self-adjoint diagonals ``T[i]``, and stars ``T*[i,j]``; normal
  form is (ordered plain part) (diagonal Laurent part) (ordered star part).
* REA — generators ``Z[i,j]``; never straightened directly.  Identities in
  it are decided through the injective *-embedding into TRI that sends

      Z[i,j] -> sum over rows m <= min(i,j) of eps_[m] T[m,i]* T[m,j],

  so a Z-polynomial is zero exactly when its image straightens to zero.
  The map is a homomorphism: for each last letter, the image of the prefixes
  of the words ending in it, embedded the same way, is multiplied by the
  image of that letter, so shared prefixes cancel before they grow and no
  word's own image is held.  Likewise the image of a product is the normal
  form of the product of its factors' images.

Letters are packed ints; monomials are tuples of letters; a polynomial maps
monomials to exact Laurent coefficients.  One fold (``_BaseSystem._fold``)
multiplies a normal form by a word a letter at a time, with a memo on
(monomial, letter) pairs, for straightening, rule replacement and the
embedding; the per-call rule budget guards against a broken rule set.
``_pair(a, b)`` owns a letter pair: its rule, or None when ``a b`` is normal;
each system builds each rule once, in a table.  The star reverses words and
keeps TRI normal order, so a starred pair whose right letter is not plain
gets the *-mirror of the rule of ``b* a*``.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass
from fractions import Fraction

from .braid import _eps_interval, _inversions, _q_antisymmetrizer, exact_re_tensor
from .errors import AlgebraMismatch, DomainError, NonterminationGuard
from .scalars import ONE, QQI, ZERO, LaurentScalar, laurent, qpow

__all__ = [
    "GenId",
    "NCPoly",
    "letter_indices",
    "FrtSystem",
    "TriSystem",
    "X",
    "Z",
    "Tplain",
    "Tdiag",
    "Tstar",
    "embed_iT",
    "is_zero_rea",
    "central_sigma",
    "leading_minor_Z",
    "quantum_trace_Z",
    "quantum_det_Z",
    "frt_minor",
    "laplace_row_defect",
    "laplace_column_defect",
    "rea_entrywise_defect",
    "identity_suite",
]

# letter packing: zone << 20 | a << 10 | b
_PLAIN, _DIAG, _STAR = 0, 1, 2
_CMPL = 512  # star indices complemented so int order = required star order


def _plain(i, j):
    return (_PLAIN << 20) | (i << 10) | j


def _diag(i, power):
    # power +1 -> b=0, power -1 -> b=1; same-row opposite powers cancel
    return (_DIAG << 20) | (i << 10) | (0 if power > 0 else 1)


def _star(i, j):
    return (_STAR << 20) | ((_CMPL - i) << 10) | (_CMPL - j)


def letter_indices(code) -> tuple:
    """(i, j) of an FRT or REA letter, the generator X[i,j] or Z[i,j]."""
    return (code >> 10) & 0x3FF, code & 0x3FF


def _zone(code):
    return code >> 20


def _decode(code):
    zone = code >> 20
    a = (code >> 10) & 0x3FF
    b = code & 0x3FF
    if zone == _PLAIN:
        return ("T", a, b)
    if zone == _DIAG:
        return ("Td", a, 1) if b == 0 else ("Td", a, -1)
    return ("T*", _CMPL - a, _CMPL - b)


@dataclass(frozen=True)
class GenId:
    """Public identity of a generator; ``code`` is the packed form."""

    algebra: str  # 'FRT' | 'TRI' | 'REA'
    kind: str     # 'X' | 'T' | 'Tinv' | 'Tstar' | 'Z'
    row: int
    col: int

    @property
    def code(self) -> int:
        if self.algebra in ("FRT", "REA"):
            return (self.row << 10) | self.col
        if self.kind == "T":
            return _plain(self.row, self.col) if self.row < self.col else _diag(self.row, +1)
        if self.kind == "Tinv":
            if self.row != self.col:
                raise DomainError("only diagonal generators are invertible")
            return _diag(self.row, -1)
        if self.kind == "Tstar":
            if self.row >= self.col:
                raise DomainError("starred generators are strictly upper")
            return _star(self.row, self.col)
        raise DomainError(f"unknown kind {self.kind}")


def X(i: int, j: int) -> GenId:
    return GenId("FRT", "X", i, j)


def Z(i: int, j: int) -> GenId:
    return GenId("REA", "Z", i, j)


def Tplain(i: int, j: int) -> GenId:
    if not i < j:
        raise DomainError("plain triangular generators need i < j")
    return GenId("TRI", "T", i, j)


def Tdiag(i: int, power: int = 1) -> GenId:
    return GenId("TRI", "T" if power > 0 else "Tinv", i, i)


def Tstar(i: int, j: int) -> GenId:
    return GenId("TRI", "Tstar", i, j)


class NCPoly:
    """Noncommutative polynomial over LaurentScalar coefficients.

    ``terms`` maps monomials (tuples of packed letters) to nonzero
    Laurent-polynomial coefficients; monomials are stored verbatim until
    straightened.
    """

    __slots__ = ("algebra", "terms")

    def __init__(self, algebra: str, terms=None):
        self.algebra = algebra
        self.terms = {}
        if terms:
            for m, c in terms.items():
                if not isinstance(c, LaurentScalar):
                    c = LaurentScalar.const(c)
                if c:
                    self.terms[tuple(m)] = c

    # -- constructors ----------------------------------------------------

    @staticmethod
    def zero(algebra: str) -> "NCPoly":
        return NCPoly(algebra)

    @staticmethod
    def one(algebra: str) -> "NCPoly":
        return NCPoly(algebra, {(): ONE})

    @staticmethod
    def gen(g: GenId) -> "NCPoly":
        return NCPoly(g.algebra, {(g.code,): ONE})

    @staticmethod
    def word(algebra: str, gens, coeff=ONE) -> "NCPoly":
        codes = tuple(g.code if isinstance(g, GenId) else g for g in gens)
        return NCPoly(algebra, {codes: coeff})

    # -- structure ---------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def __bool__(self):
        return bool(self.terms)

    def degree(self):
        return max((len(m) for m in self.terms), default=0)

    def _check(self, other):
        if self.algebra != other.algebra:
            raise AlgebraMismatch(f"{self.algebra} vs {other.algebra}")

    # -- arithmetic ---------------------------------------------------------

    def __add__(self, other: "NCPoly") -> "NCPoly":
        self._check(other)
        out = dict(self.terms)
        for m, c in other.terms.items():
            _acc(out, m, c)
        return NCPoly(self.algebra, out)

    def __neg__(self):
        return NCPoly(self.algebra, {m: -c for m, c in self.terms.items()})

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, (int, Fraction, LaurentScalar)):
            return self.scale(other)
        self._check(other)
        out = {}
        for m1, c1 in self.terms.items():
            for m2, c2 in other.terms.items():
                _acc(out, m1 + m2, c1 * c2)
        return NCPoly(self.algebra, out)

    def __rmul__(self, other):
        if isinstance(other, (int, Fraction, LaurentScalar)):
            return self.scale(other)
        return NotImplemented

    def scale(self, s) -> "NCPoly":
        if not isinstance(s, LaurentScalar):
            s = LaurentScalar.const(s)
        if not s:
            return NCPoly(self.algebra)
        return NCPoly(self.algebra, {m: c * s for m, c in self.terms.items()})

    def star(self) -> "NCPoly":
        """The *-operation: reverses monomials, stars letters, conjugates."""
        if self.algebra == "REA":
            out = {}
            for m, c in self.terms.items():
                rm = tuple((j << 10) | i for i, j in map(letter_indices, reversed(m)))
                out[rm] = c.conjugate()
            return NCPoly("REA", out)
        if self.algebra != "TRI":
            raise AlgebraMismatch("star is defined for TRI and REA polynomials")
        out = {}
        for m, c in self.terms.items():
            rm = tuple(_star_letter(cd) for cd in reversed(m))
            out[rm] = c.conjugate()
        return NCPoly("TRI", out)

    # -- rendering ----------------------------------------------------------

    def render(self) -> str:
        """Deterministic sorted textual form for golden tests."""
        if not self.terms:
            return "0"
        names = []
        for m in sorted(self.terms):
            parts = []
            for code in m:
                if self.algebra in ("FRT", "REA"):
                    i, j = letter_indices(code)
                    parts.append(f"{'X' if self.algebra == 'FRT' else 'Z'}[{i},{j}]")
                else:
                    kind, i, j = _decode(code)
                    if kind == "T":
                        parts.append(f"T[{i},{j}]")
                    elif kind == "Td":
                        parts.append(f"T[{i}]" if j > 0 else f"T[{i}]^-1")
                    else:
                        parts.append(f"T*[{i},{j}]")
            mono = "*".join(parts) if parts else "1"
            names.append(f"({self.terms[m].render()})·{mono}")
        return " + ".join(names)

    __repr__ = render

    def __eq__(self, other):
        if not isinstance(other, NCPoly):
            return NotImplemented
        return self.algebra == other.algebra and self.terms == other.terms


def _star_letter(code):
    zone = _zone(code)
    if zone == _PLAIN:
        i, j = (code >> 10) & 0x3FF, code & 0x3FF
        return _star(i, j)
    if zone == _STAR:
        kind, i, j = _decode(code)
        return _plain(i, j)
    return code  # diagonals are self-adjoint (including inverses)


# ---------------------------------------------------------------------------
# rewriting systems


class _BaseSystem:
    """Shared fold-and-memoize straightening machinery (``_fold``, on the
    memoised letter product ``_rightmul``).  Subclasses define
    ``_pair(a, b)``: None when ``a b`` is normal, else its rule, a list of
    (coeff, word of at most two letters); TRI's is the *-mirror of the rule
    of ``b* a*`` for a starred ``a`` and a non-plain ``b``.  ``_rule`` builds
    each pair's rule once per system, in the table ``_rules``."""

    algebra = ""
    step_bound = 10 ** 7

    def __init__(self):
        self._memo = {}
        self._rules = {}
        self._steps = 0

    def _rule(self, a, b):
        if (a, b) not in self._rules:
            self._rules[a, b] = self._pair(a, b)
        return self._rules[a, b]

    def _rightmul(self, mono, g):
        key = (mono, g)
        hit = self._memo.get(key)
        if hit is not None:
            return hit
        rule = self._rule(mono[-1], g) if mono else None
        if rule is None:
            res = {mono + (g,): ONE}
        else:
            self._steps += 1
            if self._steps > self.step_bound:
                raise NonterminationGuard(
                    f"rule applications exceeded {self.step_bound}; rule set is broken"
                )
            res = {}
            for coeff, repl in rule:
                self._fold({mono[:-1]: coeff}, repl, res)
        self._memo[key] = res
        return res

    def _fold(self, nf: dict, word, out: dict) -> None:
        """Add nf times word to out, both normal forms (monomial ->
        coefficient): the letters of the word are folded into nf one at a
        time, the last one into out."""
        for k, g in enumerate(word, 1):
            nxt = out if k == len(word) else {}
            for m, c in nf.items():
                for m2, c2 in self._rightmul(m, g).items():
                    _acc(nxt, m2, c * c2)
            nf = nxt
        if not word:
            for m, c in nf.items():
                _acc(out, m, c)

    def straighten(self, p: NCPoly) -> NCPoly:
        """Normal form of p; a linear projection fixing normal monomials."""
        if p.algebra != self.algebra:
            raise AlgebraMismatch(f"{p.algebra} polynomial fed to {self.algebra} system")
        self._steps = 0
        out = {}
        for word, coeff in p.terms.items():
            self._fold({(): coeff}, word, out)
        return NCPoly(self.algebra, out)


def _acc(d, m, c):
    """Add c to d[m], dropping the entry if it cancels; c is nonzero, as
    every product of nonzero coefficients is."""
    cur = d.get(m)
    if cur is None:
        d[m] = c
        return
    s = cur + c
    if s:
        d[m] = s
    else:
        del d[m]


def _exchange(a, b, corner):
    """The quantum-matrix exchange rule for a pair of plain letters
    a = X[i,j], b = X[k,l], None when a b is in row-major order (a <= b).

    ``corner(i, l)`` is the letter X[i,l] of the correction term, or None
    where that generator vanishes (below the diagonal of TRI).
    """
    if a <= b:
        return None
    i, j = (a >> 10) & 0x3FF, a & 0x3FF
    k, l = (b >> 10) & 0x3FF, b & 0x3FF
    if i == k or j == l:
        return [(qpow(-1), (b, a))]
    if j < l:  # commuting corner
        return [(ONE, (b, a))]
    # i > k, j > l: correction term X[k,j] X[i,l]
    out = [(ONE, (b, a))]
    t2 = corner(i, l)
    if t2 is not None:
        out.append((-QQI, (_plain(k, j), t2)))
    return out


class FrtSystem(_BaseSystem):
    """Row-major straightening for the quantum matrix algebra."""

    algebra = "FRT"

    def __init__(self, N: int):
        super().__init__()
        self.N = N

    def _pair(self, a, b):
        return _exchange(a, b, _plain)


def _padded_eps(eps, N: int) -> tuple:
    """eps as Fractions, zero-padded to length N."""
    if len(eps) > N:
        raise DomainError("eps longer than N")
    return tuple(Fraction(e) for e in eps) + (Fraction(0),) * (N - len(eps))


class TriSystem(_BaseSystem):
    """Plain/diagonal/star straightening for the deformed triangular algebra.

    ``eps`` is the deformation vector, zero-padded to length N; the
    undeformed algebra is eps = (1, ..., 1).
    """

    algebra = "TRI"

    def __init__(self, N: int, eps=None):
        super().__init__()
        self.N = N
        self.eps = _padded_eps((1,) * N if eps is None else eps, N)

    # -- pair rules -------------------------------------------------------

    def _pair(self, a, b):
        za, zb = _zone(a), _zone(b)
        if za < zb:
            return None
        if za == _STAR and zb != _PLAIN:
            # the *-mirror of the rule of b* a*, whose left letter is plain
            # or diagonal
            rule = self._rule(_star_letter(b), _star_letter(a))
            return rule and [(c.conjugate(), tuple(map(_star_letter, reversed(w))))
                             for c, w in rule]
        if za == _PLAIN:
            return _exchange(a, b, self._plain_or_diag)
        if za == _STAR:
            return self._pair_cross(a, b)
        if zb == _PLAIN:
            # T[i]^s T[k,l] = q^(s((i == k) - (i == l))) T[k,l] T[i]^s
            i = (a >> 10) & 0x3FF
            s = 1 if (a & 0x3FF) == 0 else -1
            k, l = (b >> 10) & 0x3FF, b & 0x3FF
            return [(qpow(s * ((i == k) - (i == l))), (b, a))]
        # two diagonals: same-row opposite powers cancel, the rest commute
        if a >> 10 == b >> 10 and a != b:
            return [(ONE, ())]
        return [(ONE, (b, a))] if a > b else None

    def _plain_or_diag(self, i, j):
        """T[i,j] as a letter, the diagonal when i == j, None when lower."""
        if i < j:
            return _plain(i, j)
        if i == j:
            return _diag(i, +1)
        return None

    def _pair_cross(self, a, b):
        _, l, i = _decode(a)    # T*[l, i] with l < i
        k, j = (b >> 10) & 0x3FF, b & 0x3FF  # T[k, j] with k < j
        P, c = self._plain_or_diag, ONE - qpow(2)
        if k != l:
            if i != j:
                return [(ONE, (b, a))]
            # T*[l,j] T[k,j] = q^-1 T[k,j] T*[l,j] + q^-1 (1-q^2) sum_{m<j} T[k,m] T*[l,m],
            # where m >= k, l: both letters exist
            return [(qpow(-1), (b, a))] + [(qpow(-1) * c, (P(k, m), _star_letter(P(l, m))))
                                           for m in range(max(k, l), j)]
        # T*[k,i] T[k,j] = q^(i != j) T[k,j] T*[k,i]
        #                  - (1-q^2) sum_{k<m<=min(i,j)} eps_(k,m] T*[m,i] T[m,j]
        #                  + (1-q^2) sum_{k<=m<j} T[k,m] T*[k,m]   (the last only if i == j)
        out = [(qpow(int(i != j)), (b, a))]
        for m in range(k + 1, min(i, j) + 1):  # m <= i, j: both letters exist
            e = _eps_interval(self.eps, k, m)
            if e:
                out.append((laurent(-e) * c, (_star_letter(P(m, i)), P(m, j))))
        if i == j:
            out += [(c, (P(k, m), _star_letter(P(k, m)))) for m in range(k, j)]
        return out

    # -- the embedding of the Z generators ----------------------------------

    def embed(self, terms: dict, out: dict) -> None:
        """Add the TRI normal form of the image of a Z-polynomial (word ->
        coefficient) to out: the image of each last letter's group of
        prefixes, embedded the same way, times the image of that letter."""
        groups = {}
        for word, coeff in terms.items():
            if word:
                groups.setdefault(word[-1], {})[word[:-1]] = coeff
            else:
                _acc(out, (), coeff)
        for letter, prefixes in groups.items():
            head = {}
            self.embed(prefixes, head)
            i, j = letter_indices(letter)
            for m in range(1, min(i, j) + 1):
                e = laurent(_eps_interval(self.eps, 0, m))
                if e:
                    pair = (_star_letter(self._plain_or_diag(m, i)), self._plain_or_diag(m, j))
                    self._fold({h: c * e for h, c in head.items()}, pair, out)


# ---------------------------------------------------------------------------
# the Cholesky-type embedding and the zero test


def embed_iT(p: NCPoly, eps, N: int) -> NCPoly:
    """Image of a Z-polynomial in the deformed triangular algebra, straightened.

    Each Z[i,j] becomes  sum_{m <= min(i,j)} eps_[m] T[m,i]* T[m,j]  with
    eps zero-padded to length N; the result is the TRI normal form, built by
    ``TriSystem.embed`` on one system per (N, eps), whose straightening memo
    lives as long as the process.
    """
    if p.algebra != "REA":
        raise AlgebraMismatch("embed_iT expects a Z-polynomial")
    out = {}
    _zero_test_system(N, eps).embed(p.terms, out)
    return NCPoly("TRI", out)


# one system per (N, zero-padded eps); each keeps its straightening memo for
# the life of the process
_ZERO_TEST_SYSTEMS: dict[tuple, TriSystem] = {}


def _zero_test_system(N: int, eps) -> TriSystem:
    key = (N, _padded_eps(eps, N))
    sys = _ZERO_TEST_SYSTEMS.get(key)
    if sys is None:
        sys = _ZERO_TEST_SYSTEMS[key] = TriSystem(N, key[1])
    return sys


def is_zero_rea(p: NCPoly, N: int) -> bool:
    """Sound zero test for Z-polynomials through the injective embedding."""
    return embed_iT(p, (1,) * N, N).is_zero()


# ---------------------------------------------------------------------------
# central elements, minors, Laplace expansions


def central_sigma(k: int, N: int) -> NCPoly:
    """The k-th central element, a polynomial in the Z generators.

    Sum over k-subsets I of [N] and bijections s of I, with weight
    q^{2Nk - 2 wt(I)} (-q)^{-inv(s)} q^{-ae(s)} and factors ordered from
    the largest row down:  Z[i_k, s(i_k)] ... Z[i_1, s(i_1)].
    """
    if not 1 <= k <= N:
        raise DomainError(f"k={k} out of range for N={N}")
    terms = {}
    for I in itertools.combinations(range(1, N + 1), k):
        wt = sum(I)
        for perm in itertools.permutations(I):
            # perm[p] = s(I[p]); s fixes the complement of I pointwise, and
            # inversions are counted over the whole of [N]
            full = list(range(N + 1))
            for src, dst in zip(I, perm):
                full[src] = dst
            inv = _inversions(full[1:])
            ae = sum(1 for src, dst in zip(I, perm) if dst < src)
            word = tuple((I[p] << 10) | perm[p] for p in range(k - 1, -1, -1))
            coeff = laurent((-1) ** inv, 2 * N * k - 2 * wt - inv - ae)
            terms[word] = terms.get(word, ZERO) + coeff
    return NCPoly("REA", terms)


def quantum_trace_Z(N: int) -> NCPoly:
    return central_sigma(1, N).scale(qpow(-(N - 1)))


def quantum_det_Z(N: int) -> NCPoly:
    return central_sigma(N, N).scale(qpow(-N * (N - 1)))


def leading_minor_Z(k: int, N: int) -> NCPoly:
    """The k-th leading quantum minor of Z (rows and columns [k]): the
    quantum determinant of its top-left k x k corner."""
    if not 1 <= k <= N:
        raise DomainError(f"k={k} out of range for N={N}")
    return quantum_det_Z(k)


def frt_minor(I, J) -> NCPoly:
    """Quantum minor of the X matrix on rows I, columns J (|I| = |J|).

    Equals sum over permutations w of (-q)^{inv} X[i_{w(1)}, j_1] ...
    X[i_{w(k)}, j_k]; this is the matrix coefficient of the coaction on
    the embedded exterior power.
    """
    if len(I) != len(J):
        raise DomainError("minor needs |I| == |J|")
    terms = {}
    for rows, coeff in _q_antisymmetrizer(I):
        word = tuple((i << 10) | j for i, j in zip(rows, J))
        terms[word] = terms.get(word, ZERO) + coeff
    return NCPoly("FRT", terms)


def _subset_pick(I, K):
    """I_K = entries of I at the 1-based positions in K, and the rest."""
    picked = tuple(I[p - 1] for p in K)
    rest = tuple(I[p - 1] for p in range(1, len(I) + 1) if p not in K)
    return picked, rest


def _laplace_defect(I, J, K, Kp, minor) -> NCPoly:
    """delta_{K,K'} minor(I,J) - sum_P (-q)^{wt(P)-wt(K)} minor(I_K,J_P) minor(I^{K'},J^P)."""
    I, J, K, Kp = tuple(I), tuple(J), tuple(K), tuple(Kp)
    out = minor(I, J) if K == Kp else NCPoly.zero("FRT")
    IK, _ = _subset_pick(I, K)
    _, IrestKp = _subset_pick(I, Kp)
    for P in itertools.combinations(range(1, len(I) + 1), len(K)):
        JP, JrestP = _subset_pick(J, P)
        e = sum(P) - sum(K)
        coeff = laurent((-1) ** e, e)
        out = out - (minor(IK, JP) * minor(IrestKp, JrestP)).scale(coeff)
    return out


def laplace_row_defect(I, J, K, Kp, minor=frt_minor) -> NCPoly:
    """delta_{K,K'} X_{I,J} - sum_P (-q)^{wt(P)-wt(K)} X_{I_K,J_P} X_{I^{K'},J^P};
    ``minor(I, J)`` is X_{I,J} or any polynomial equal to it in FRT."""
    return _laplace_defect(I, J, K, Kp, minor)


def laplace_column_defect(I, J, K, Kp, minor=frt_minor) -> NCPoly:
    """delta_{K,K'} X_{I,J} - sum_P (-q)^{wt(P)-wt(K)} X_{I_P,J_K} X_{I^P,J^{K'}}."""
    # the row expansion with the roles of rows and columns exchanged
    return _laplace_defect(J, I, K, Kp, lambda cols, rows: minor(rows, cols))


def rea_entrywise_defect(i: int, j: int, k: int, l: int, N: int) -> NCPoly:
    """Left minus right side of the entrywise reflection-equation relation:
    entry ((i, k), (j, l)) of R Z2 R Z2 - Z2 R Z2 R, read off the exact
    coefficient tensor ``braid.exact_re_tensor(N)``."""
    C = exact_re_tensor(N)[i - 1, k - 1, j - 1, l - 1]
    return NCPoly("REA", {((b << 10) | c, (f << 10) | h): C[b - 1, c - 1, f - 1, h - 1]
                          for b, c, f, h in itertools.product(range(1, N + 1), repeat=4)})


# ---------------------------------------------------------------------------
# the symbolic identity suite


def _matrix_power_Z(N: int, m: int):
    """Entries of Z^m as Z-polynomials."""
    ent = {(i, j): NCPoly.gen(Z(i, j)) for i in range(1, N + 1) for j in range(1, N + 1)}
    out = {
        (i, j): (NCPoly.one("REA") if i == j else NCPoly.zero("REA"))
        for i in range(1, N + 1)
        for j in range(1, N + 1)
    }
    for _ in range(m):
        nxt = {}
        for i in range(1, N + 1):
            for j in range(1, N + 1):
                s = NCPoly.zero("REA")
                for t in range(1, N + 1):
                    s = s + out[(i, t)] * ent[(t, j)]
                nxt[(i, j)] = s
        out = nxt
    return out


def cayley_hamilton_entries(N: int):
    """Entries of sum_k (-1)^k sigma_k Z^{N-k}; all must vanish."""
    sigmas = {0: NCPoly.one("REA")}
    for k in range(1, N + 1):
        sigmas[k] = central_sigma(k, N)
    powers = {m: _matrix_power_Z(N, m) for m in range(N + 1)}
    out = {}
    for i in range(1, N + 1):
        for j in range(1, N + 1):
            s = NCPoly.zero("REA")
            for k in range(N + 1):
                term = sigmas[k] * powers[N - k][(i, j)]
                if k % 2:
                    term = -term
                s = s + term
            out[(i, j)] = s
    return out


def _cayley_hamilton_on_images(ts, gens, sigmas) -> dict:
    """TRI normal forms of the entries of sum_k (-1)^k sigma_k Z^{N-k}, from
    the images ``gens[i, j]`` of Z[i,j] and ``sigmas[k]`` of sigma_k, by
    Horner's rule from the right: H = Z - sigma_1, then H <- H Z +
    (-1)^k sigma_k for k = 2..N.  Each sigma_k stays left of Z^{N-k}, so no
    step uses its centrality."""
    idx = range(1, len(sigmas) + 1)
    H = {(i, j): gens[i, j] - sigmas[1] if i == j else gens[i, j] for i in idx for j in idx}
    for k in idx[1:]:
        H = {(i, j): ts.straighten(sum((H[i, t] * gens[t, j] for t in idx), NCPoly.zero("TRI")))
             for i in idx for j in idx}
        for i in idx:
            H[i, i] = H[i, i] + sigmas[k].scale((-1) ** k)
    return H


# The largest N whose suite is run (CI runs N=4 and N=5, and embeds sigma_6
# at N=6); the cost of the N=6 Laplace and leading-minor rows is not profiled.
IDENTITY_SUITE_MAX_N = 5


def identity_suite(N: int) -> dict:
    """Exact verification report for the displayed identities at size N.

    Checks (a) the quantum Cayley-Hamilton identity entrywise, (b) both
    Laplace expansions for all index data, (c) the q-commutation of the
    leading minors with the generators and with each other, and (d) the
    centrality of the quantum determinant in the quantum matrix algebra.
    Rows (a) and (c) embed each generator, sigma_k and leading minor once
    (``embed_iT``, words grouped by shared suffix) and straighten products
    of those images, instead of embedding an expanded polynomial: (a) by
    Horner's rule on the images (``_cayley_hamilton_on_images``), (c) as a
    product of two images (a leading minor's image is one monomial).  Rows
    (b) straighten each quantum minor once and expand on those normal
    forms.  Failures are report rows, never exceptions.
    """
    if N < 1:
        raise DomainError(f"N must be >= 1, got {N}")
    if N > IDENTITY_SUITE_MAX_N:
        raise DomainError(f"N={N} exceeds the identity suite's limit N={IDENTITY_SUITE_MAX_N}")
    findings = []

    def row(name, ok, detail=""):
        findings.append({"name": name, "ok": bool(ok), "detail": detail})

    ones = (1,) * N
    ts = _zero_test_system(N, ones)
    idx = range(1, N + 1)
    gens = {(i, j): embed_iT(NCPoly.gen(Z(i, j)), ones, N) for i in idx for j in idx}
    sigmas = {k: embed_iT(central_sigma(k, N), ones, N) for k in idx}
    for (i, j), h in _cayley_hamilton_on_images(ts, gens, sigmas).items():
        row(f"cayley_hamilton[{i},{j}]", h.is_zero())

    fs = FrtSystem(N)
    nf_minor = functools.cache(lambda I, J: fs.straighten(frt_minor(I, J)))
    for k in range(1, N + 1):
        checked = 0
        all_ok = True
        for I in itertools.combinations(range(1, N + 1), k):
            for J in itertools.combinations(range(1, N + 1), k):
                for l in range(1, k + 1):
                    for K in itertools.combinations(range(1, k + 1), l):
                        for Kp in itertools.combinations(range(1, k + 1), l):
                            dr = fs.straighten(laplace_row_defect(I, J, K, Kp, nf_minor))
                            dc = fs.straighten(laplace_column_defect(I, J, K, Kp, nf_minor))
                            ok = dr.is_zero() and dc.is_zero()
                            checked += 1
                            if not ok:
                                all_ok = False
                                row(f"laplace[I={I},J={J},K={K},K'={Kp}]", False)
        row(f"laplace[k={k}]", all_ok, f"{checked} index tuples")

    minors = {k: embed_iT(leading_minor_Z(k, N), ones, N) for k in idx}

    def q_commute(a, b, e):
        """a b = q^e b a, for the images a and b of two Z-polynomials."""
        return ts.straighten(a * b - (b * a).scale(qpow(e))).is_zero()

    for k in range(1, N + 1):
        for (i, j), g in gens.items():
            e = 2 * ((i <= k) - (j <= k))
            row(f"minor_qcomm[k={k},Z[{i},{j}]]", q_commute(minors[k], g, e))
        for l in range(1, k):
            row(f"minor_commute[{k},{l}]", q_commute(minors[k], minors[l], 0))

    det = frt_minor(tuple(range(1, N + 1)), tuple(range(1, N + 1)))
    for i in range(1, N + 1):
        for j in range(1, N + 1):
            g = NCPoly.gen(X(i, j))
            row(
                f"det_central[X[{i},{j}]]",
                fs.straighten(det * g - g * det).is_zero(),
            )

    return {
        "N": N,
        "findings": findings,
        "pass": all(f["ok"] for f in findings),
    }
