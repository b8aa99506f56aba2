"""Independent Verma-module oracle for the N=3 highest-weight machinery.

Basis vectors are built by applying the lowering-operator products to the
highest-weight vector inside the Verma module, whose structure comes only
from the triangular straightening engine; norms and raising coefficients
are then read off with the invariant form.  No closed-form coefficient
formulas enter, so this is a genuinely independent cross-check.
"""
import itertools

import numpy as np

from qrea.braid import _eps_interval
from qrea.ncalg import _DIAG, NCPoly, Tdiag, Tplain, Tstar, TriSystem, _decode, _zone
from qrea.scalars import qpow

N = 3


def hc_part(p):
    """Terms of a TRI normal form supported on the diagonal zone only."""
    return NCPoly("TRI", {m: c for m, c in p.terms.items() if all(_zone(g) == _DIAG for g in m)})


def eval_diagonal(p, weights, q0):
    """Evaluate a purely diagonal TRI normal form at T[i] -> q0^{weights[i-1]}."""
    total = 0.0 + 0.0j
    for m, c in p.terms.items():
        val = complex(c.eval(q0))
        for g in m:
            kind, i, s = _decode(g)
            if kind != "Td":
                raise ValueError("nondiagonal term in eval_diagonal")
            val *= float(q0) ** (s * float(weights[i - 1]))
        total += val
    return total


def monomials(deg_max):
    gens = [(1, 2), (1, 3), (2, 3)]
    out = []
    for total in range(deg_max + 1):
        for split in itertools.product(range(total + 1), repeat=3):
            if sum(split) == total:
                word = []
                for g, e in zip(gens, split):
                    word += [Tplain(*g).code] * e
                out.append(tuple(word))
    return out


class Verma:
    def __init__(self, r, eps, deg_max, q0):
        self.r = [float(x) for x in r]
        self.q0 = q0
        self.sys = TriSystem(N, eps)
        self.basis = monomials(deg_max)
        self.index = {m: i for i, m in enumerate(self.basis)}
        self.dim = len(self.basis)
        self.deg_max = deg_max

    def weight_of(self, mono):
        w = list(self.r)
        for code in mono:
            i, j = (code >> 10) & 0x3FF, code & 0x3FF
            for t in range(N):
                w[t] += (1 if t + 1 == i else 0) - (1 if t + 1 == j else 0)
        return w

    def apply_poly(self, p, vec):
        q0 = self.q0
        out = np.zeros(self.dim, dtype=complex)
        for bidx, amp in enumerate(vec):
            if amp == 0:
                continue
            mono = self.basis[bidx]
            for word, coeff in p.terms.items():
                s = self.sys.straighten(NCPoly("TRI", {word + mono: coeff}))
                for m2, c2 in s.terms.items():
                    plain, diagv, has_star = [], [0.0] * N, False
                    for code in m2:
                        z = code >> 20
                        if z == 0:
                            plain.append(code)
                        elif z == 1:
                            i = (code >> 10) & 0x3FF
                            diagv[i - 1] += 1 if (code & 0x3FF) == 0 else -1
                        else:
                            has_star = True
                    if has_star:
                        continue
                    key = tuple(plain)
                    if key not in self.index:
                        continue  # fell off the degree cap
                    val = complex(c2.eval(q0))
                    for t in range(N):
                        if diagv[t]:
                            val *= q0 ** (diagv[t] * self.r[t])
                    out[self.index[key]] += amp * val
        return out

    def op_matrix(self, p):
        M = np.zeros((self.dim, self.dim), dtype=complex)
        for b in range(self.dim):
            v = np.zeros(self.dim, dtype=complex)
            v[b] = 1.0
            M[:, b] = self.apply_poly(p, v)
        return M


def build_oracle(r, eps, deg_max, q0):
    """Returns (pattern -> norm, raising(P, i, j, move) -> coefficient)."""
    V = Verma(r, eps, deg_max, q0)
    sys = V.sys

    def diag_from(fun):
        return np.diag([fun(V.weight_of(m)) for m in V.basis]).astype(complex)

    Khalf = [diag_from(lambda w, i=i: q0 ** (-(w[i] - w[i + 1]) / 2)) for i in range(N - 1)]

    fmat, emat = [], []
    for k in range(1, N):
        p = NCPoly("TRI", {(Tplain(k, k + 1).code, Tdiag(k + 1, -1).code): qpow(0)})
        Fk = V.op_matrix(p) / (1 / q0 - q0)
        fmat.append(q0 ** (-0.5) * Fk @ Khalf[k - 1])
        ps = NCPoly("TRI", {(Tdiag(k + 1, -1).code, Tstar(k, k + 1).code): qpow(0)})
        Fs = V.op_matrix(ps) / (1 / q0 - q0)
        emat.append(q0 ** (-0.5) * Khalf[k - 1] @ Fs)

    def bracket(i, k, shift):
        e = _eps_interval(sys.eps, i + 1, k)

        def fun(w):
            a = q0 ** (-w[i] + w[k - 1] + shift)
            return (float(e) * a - 1 / a) / (q0 - 1 / q0)

        return diag_from(fun)

    d = {}
    for k in range(1, N):
        d[(k, k - 1)] = fmat[k - 1]
        for i in range(k - 2, -1, -1):
            d[(k, i)] = bracket(i, k, k - i) @ fmat[k - 1] @ d[(k - 1, i)] \
                - bracket(i, k, k - i - 1) @ d[(k - 1, i)] @ fmat[k - 1]

    def xi(P):
        v = np.zeros(V.dim, dtype=complex)
        v[V.index[()]] = 1.0
        ops = []
        for k in range(1, N):
            for i in range(1, k + 1):
                ops += [d[(k, i - 1)]] * P[k - 1][i - 1]
        for op in reversed(ops):
            v = op @ v
        return v

    G = np.zeros((V.dim, V.dim), dtype=complex)
    for a, ma in enumerate(V.basis):
        pa = NCPoly("TRI", {ma: qpow(0)}).star()
        for b, mb in enumerate(V.basis):
            s = sys.straighten(pa * NCPoly("TRI", {mb: qpow(0)}))
            G[a, b] = eval_diagonal(hc_part(s), V.r, q0)

    def ip(u, v):
        return u.conj() @ G @ v

    pats = []
    for t in itertools.product(range(3), repeat=3):
        if sum(t) <= 2:
            pats.append(((t[0],), (t[1], t[2])))
    xis = {P: xi(P) for P in pats}
    norms = {P: ip(xis[P], xis[P]).real for P in pats}

    def raising(P, i, j, move):
        Pp = move(P, j, i)
        if Pp is None or Pp not in xis or abs(norms[Pp]) < 1e-10:
            return None
        return (ip(xis[Pp], emat[i - 1] @ xis[P]) / norms[Pp]).real

    return norms, raising
