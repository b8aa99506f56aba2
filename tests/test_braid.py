import numpy as np
import pytest

from qrea.braid import (
    QMat,
    build_rhat,
    exterior_power,
    minor_braiding,
    minor_braiding_entry,
    re_table,
)
from qrea.errors import DomainError
from qrea.scalars import ONE, QINV, ZERO, qpow
from re_oracle import dense_sides, rhat_array, table_sides


def tensor_idx(word, N):
    out = 0
    for a in word:
        out = out * N + (a - 1)
    return out


def test_rhat_n1():
    R, Rinv = build_rhat(1)
    assert R[(0, 0)] == qpow(-1)
    assert Rinv[(0, 0)] == qpow(1)


def test_rhat_n2_action():
    R, _ = build_rhat(2)
    # columns are inputs e_k ox e_l
    c11 = [(ij, v) for ij, v in R.entries.items() if ij[1] == tensor_idx((1, 1), 2)]
    assert c11 == [((tensor_idx((1, 1), 2), tensor_idx((1, 1), 2)), qpow(-1))]
    assert R[(tensor_idx((2, 1), 2), tensor_idx((1, 2), 2))] == ONE
    assert R[(tensor_idx((1, 2), 2), tensor_idx((1, 2), 2))] == ZERO
    # Rhat(e2 ox e1) = e1 ox e2 + (q^{-1}-q) e2 ox e1
    assert R[(tensor_idx((1, 2), 2), tensor_idx((2, 1), 2))] == ONE
    assert R[(tensor_idx((2, 1), 2), tensor_idx((2, 1), 2))] == QINV - qpow(1)
    assert R[(tensor_idx((2, 2), 2), tensor_idx((2, 2), 2))] == qpow(-1)


@pytest.mark.parametrize("N", [1, 2, 3, 4])
def test_rhat_inverse_and_symmetry(N):
    R, Rinv = build_rhat(N)
    assert R @ Rinv == QMat.eye(N * N)
    assert Rinv @ R == QMat.eye(N * N)
    assert R == R.transpose()


@pytest.mark.parametrize("N", [2, 3, 4])
def test_braid_relation_exact(N):
    R, _ = build_rhat(N)
    I = QMat.eye(N)
    R12 = R.kron(I)
    R23 = I.kron(R)
    assert R12 @ R23 @ R12 == R23 @ R12 @ R23


@pytest.mark.parametrize("N", [2, 3, 4])
def test_hecke_relation_exact(N):
    R, _ = build_rhat(N)
    I = QMat.eye(N * N)
    lhs = (R - I.scale(qpow(-1))) @ (R + I.scale(qpow(1)))
    assert lhs.is_zero()


@pytest.mark.parametrize("N", [1, 2, 3, 4])
def test_re_table_sides_match_the_dense_contraction(N):
    """Both sides of the reflection equation, spread from the exact table,
    equal the dense einsum of R-hat with itself entry by entry."""
    want = dense_sides(rhat_array(N))
    got = table_sides(re_table(N), N)
    for w, g in zip(want, got):
        assert all(a == b for a, b in zip(w.ravel(), g.ravel()))


def test_re_table_is_kept_and_sparse():
    """One table per N, of tuples, with at most 4 N^3 entries (a row and a
    column of R-hat hold at most two nonzeros each)."""
    for N in range(1, 7):
        table = re_table(N)
        assert table is re_table(N) and isinstance(table, tuple)
        assert len(table) == N * N and all(isinstance(e, tuple) for e in table)
        assert sum(map(len, table)) <= 4 * N ** 3


def test_eps_deformed_rhat_inverse():
    for eps in [(1, -1), (-1, 1), (1, 0), (1, -1, 1), (0, 1, -1)]:
        N = len(eps)
        R, Rinv = build_rhat(N, eps=eps)
        assert R @ Rinv == QMat.eye(N * N)


def test_build_rhat_domain():
    with pytest.raises(DomainError):
        build_rhat(0)
    with pytest.raises(DomainError):
        build_rhat(2, eps=(1,))


def test_exterior_power_dims():
    assert exterior_power(2, 2).dim == 1
    assert exterior_power(2, 2).basis == ((1, 2),)
    assert exterior_power(3, 0).dim == 1
    assert exterior_power(3, 2).basis == ((1, 2), (1, 3), (2, 3))
    with pytest.raises(DomainError):
        exterior_power(3, 4)


def test_exterior_power_embed_golden():
    """The wedge vectors of Ext^2 C^3: e_i ox e_j - q e_j ox e_i for i < j."""
    e = exterior_power(3, 2)
    got = {ij: v.render() for ij, v in e.embed.entries.items()}
    assert (e.embed.rows, e.embed.cols) == (9, 3)
    assert got == {(1, 0): "1", (3, 0): "-q", (2, 1): "1", (6, 1): "-q",
                   (5, 2): "1", (7, 2): "-q"}


def test_exterior_power_project_embed_identity():
    for N, k in [(2, 1), (2, 2), (3, 2), (3, 3), (4, 2)]:
        e = exterior_power(N, k)
        assert e.project @ e.embed == QMat.eye(e.dim)


def test_exterior_power_is_antisymmetric_subspace():
    # wedge vectors lie in the (-q)-eigenspace of every adjacent braid factor
    N, k = 3, 2
    e = exterior_power(N, k)
    R, _ = build_rhat(N)
    shifted = (R + QMat.eye(N * N).scale(qpow(1))) @ e.embed
    assert shifted.is_zero()
    # dimension agrees with the numeric rank of the antisymmetrizer kernel
    q0 = 0.5
    Rn = R.to_numpy(q0)
    M = Rn + q0 * np.eye(N * N)
    null_dim = sum(1 for s in np.linalg.svd(M)[1] if s < 1e-10)
    assert null_dim == e.dim == 3


def test_minor_braiding_degree_one_is_rhat():
    for N in [2, 3]:
        R, Rinv = build_rhat(N)
        B, Binv = minor_braiding(N, 1, 1)
        assert B == R
        assert Binv == Rinv


@pytest.mark.parametrize("N,k,l", [(2, 1, 2), (2, 2, 2), (3, 1, 2), (3, 2, 2), (3, 2, 3),
                                   (3, 3, 1), (4, 1, 3), (4, 3, 1)])
def test_minor_braiding_inverse(N, k, l):
    """Binv is a two-sided inverse, for k < l, k == l and k > l."""
    B, Binv = minor_braiding(N, k, l)
    dim = exterior_power(N, k).dim * exterior_power(N, l).dim
    assert Binv @ B == QMat.eye(dim)
    assert B @ Binv == QMat.eye(dim)


def test_minor_braiding_multiplies_by_no_identity(monkeypatch):
    """Each chain of braid factors starts from its first factor: 6 QMat
    products for minor_braiding(3, 1, 2), and the same exact B and Binv as
    chains and a running product started from the identity."""
    from qrea.braid import _embedded_factor

    def from_identity(N, k, l, R):
        total = k + l
        out = QMat.eye(N ** total)
        for s in range(1, k + 1):
            chain = QMat.eye(N ** total)
            for pos in range(s, s + l):
                chain = _embedded_factor(N, total, pos, R) @ chain
            out = out @ chain
        return out

    R, Rinv = build_rhat(3)
    ek, el = exterior_power(3, 1), exterior_power(3, 2)
    want = (el.project.kron(ek.project) @ from_identity(3, 1, 2, R) @ ek.embed.kron(el.embed),
            ek.project.kron(el.project) @ from_identity(3, 2, 1, Rinv) @ el.embed.kron(ek.embed))
    calls = []
    matmul = QMat.__matmul__

    def counted(self, other):
        calls.append(1)
        return matmul(self, other)

    monkeypatch.setattr(QMat, "__matmul__", counted)
    assert minor_braiding(3, 1, 2) == want
    assert len(calls) == 6


@pytest.mark.parametrize("N,k,l", [(2, 1, 2), (3, 2, 2), (3, 1, 2), (3, 2, 3)])
def test_minor_braiding_diagonal_and_support(N, k, l):
    B, _ = minor_braiding(N, k, l)
    ek, el = exterior_power(N, k), exterior_power(N, l)
    # diagonal entries q^{-|I cap I'|}
    for I in ek.basis:
        for Ip in el.basis:
            want = qpow(-len(set(I) & set(Ip)))
            assert minor_braiding_entry(B, ek, el, I, I, Ip, Ip) == want
    # support: nonzero only if J <= I, J' <= I' componentwise and the
    # exchanged index sets match
    def leq(A, Bset):
        return all(a <= b for a, b in zip(A, Bset))

    for I in ek.basis:
        for J in ek.basis:
            for Ip in el.basis:
                for Jp in el.basis:
                    v = minor_braiding_entry(B, ek, el, I, J, Ip, Jp)
                    if not v.is_zero():
                        assert leq(J, I) and leq(Jp, Ip)
                        assert set(J) - set(I) == set(Jp) - set(Ip)
                        assert set(I) - set(J) == set(Ip) - set(Jp)


@pytest.mark.parametrize("N,k,l", [(2, 1, 2), (2, 2, 2), (3, 1, 2), (3, 2, 2), (3, 2, 3)])
def test_minor_braiding_inverse_diagonal(N, k, l):
    # inverse braiding has diagonal q^{+|I cap I'|}
    _, Binv = minor_braiding(N, k, l)
    ek, el = exterior_power(N, k), exterior_power(N, l)
    for I in ek.basis:
        for Ip in el.basis:
            rowv = Binv[(ek.index(I) * el.dim + el.index(Ip),
                         el.index(Ip) * ek.dim + ek.index(I))]
            assert rowv == qpow(len(set(I) & set(Ip)))
