import itertools
import json
import math
from decimal import MAX_EMAX, MIN_EMIN, Context, Decimal, localcontext
from fractions import Fraction

import gt_oracle
import numpy as np
import pytest

from qrea.errors import DomainError, NegativeNorm, PrecisionLoss, TruncationTooSmall
from qrea.gtrep import (
    HWModuleSpec,
    RowBlocks,
    build_hw_module,
    detect_finite,
    eps_adapted,
    gt_norm,
    gt_norm_sign,
    gt_norm_signs,
    hw_module_to_json,
    patterns,
    scaling_blocks,
    suq2_corep_blocks,
    vector_trep,
)
from qrea.ncalg import NCPoly, Tplain, TriSystem
from verma_oracle import eval_diagonal, hc_part

Q0 = 0.5


def dense(blocks):
    """A module's operator layout as dense blocks."""
    return blocks.columns(np.ones(blocks.dim, dtype=bool))


# --------------------------------------------------------------------------
# adaptedness


def test_eps_adapted_examples():
    assert eps_adapted((0, 0), (1, 1))
    assert not eps_adapted((0, -1), (1, 1))
    assert eps_adapted((123.25, -77.3), (1, -1))
    with pytest.raises(DomainError):
        eps_adapted((0,), (1, 1))


def test_eps_adapted_pairs_exact():
    # eps = (1,-1,-1): the only constrained pair is (1,3), whose interval
    # product is (-1)(-1) = 1, so (r_3+3)-(r_1+1) must be a positive integer
    assert eps_adapted((0, 0.5, Fraction(1, 4)), (1, -1, -1)) is False
    assert eps_adapted((0, 0.5, 1), (1, -1, -1)) is True
    # zeros kill constraints
    assert eps_adapted((3.7, -2.9), (1, 0)) is True


# --------------------------------------------------------------------------
# norms


def n2spec(eps, r, D=10):
    return HWModuleSpec(N=2, eps=eps, r=r, D=D, q0=Q0)


def test_gt_norm_highest_weight():
    spec = n2spec((1, -1), (Fraction(1, 3), Fraction(-2, 5)))
    hw = ((0,),)
    assert gt_norm(hw, spec) == 1.0


def test_gt_norm_zero_at_unit_gap():
    # eps = (1,1), r = (0,0): the m=1 vector has zero norm
    spec = n2spec((1, 1), (0, 0))
    assert gt_norm(((1,),), spec) == 0.0
    assert gt_norm_sign(((1,),), spec) == 0


def test_gt_norm_positive_mixed_signs():
    spec = n2spec((1, -1), (Fraction(2, 7), Fraction(-1, 3)))
    for m in range(11):
        assert gt_norm(((m,),), spec) > 0


def test_gt_norm_matches_verma_gram_n2():
    # independent oracle: T[1,2]^m has squared length
    # ((q^{-1}-q)^2 q^{1+r1+r2})^m c_m  on the highest-weight vector
    r = (Fraction(1, 3), Fraction(-2, 5))
    spec = n2spec((1, -1), r)
    sys = TriSystem(2, (1, -1))
    for m in range(4):
        word = NCPoly.word("TRI", (Tplain(1, 2),) * m)
        gram = eval_diagonal(
            hc_part(sys.straighten(word.star() * word)),
            [float(x) for x in r], Q0,
        ).real
        factor = ((1 / Q0 - Q0) ** 2 * Q0 ** float(1 + r[0] + r[1])) ** m
        assert gram == pytest.approx(factor * gt_norm(((m,),), spec), rel=1e-10)


def test_gt_machinery_matches_verma_oracle_n3():
    """Norms and raising coefficients against the straightening-based
    Verma-module oracle, at generic weight and mixed deformation signs."""
    from verma_oracle import build_oracle

    r = (Fraction(3, 10), Fraction(-17, 10), Fraction(4, 5))
    eps = (1, -1, 1)
    spec = HWModuleSpec(N=3, eps=eps, r=r, D=8, q0=Q0)
    norms, raising = build_oracle(r, eps, deg_max=4, q0=Q0)
    n_checked = 0
    for P, want in norms.items():
        got = gt_norm(P, spec)
        assert got == pytest.approx(want, rel=1e-9, abs=1e-12), P
        n_checked += 1
    assert n_checked >= 10
    n_checked = 0
    for P in norms:
        if abs(norms[P]) < 1e-10:
            continue
        for i in (1, 2):
            for j in range(1, i + 1):
                want = raising(P, i, j, gt_oracle.move_up)
                if want is None:
                    continue
                got = gt_oracle.package_raising_coeff(P, j, i, spec)
                assert got == pytest.approx(want, rel=1e-9, abs=1e-12), (P, i, j)
                n_checked += 1
    assert n_checked >= 10


# --------------------------------------------------------------------------
# bases, signs and values against the per-pattern Fraction formulas


def _integer_gap_weight(eps, rng):
    """A weight whose gaps r_t - r_s are integers wherever two positions
    share a fractional part; the parts are drawn per position from two, so
    zero, negative and positive norms all occur."""
    parts = (Fraction(int(rng.integers(1, 10)), 10), Fraction(0))
    return tuple(parts[int(rng.integers(0, 2))] + int(rng.integers(-3, 4)) for _ in eps)


def _adapted_weight(eps, rng):
    """A weight adapted to eps: positions with equal leading sign products
    share a fractional part and sit 1 or 2 apart in r_t + t."""
    base, last, r, lead = {}, {}, [], 1
    for t, e in enumerate(eps, start=1):
        lead *= e
        if lead in last:
            last[lead] += int(rng.integers(1, 3))
        else:
            base[lead] = Fraction(int(rng.integers(1, 10)), 10)
            last[lead] = int(rng.integers(-1, 2))
        r.append(base[lead] + last[lead] - t)
    return tuple(r)


@pytest.mark.parametrize("N,D", [(2, 10), (3, 10), (4, 5)])
def test_basis_and_signs_match_fraction_oracle(N, D):
    rng = np.random.default_rng(7000 + N)
    pats = gt_oracle.patterns(N, D)
    assert patterns(N, D) == pats
    built = 0
    for eps in itertools.product((1, -1), repeat=N):
        for r in (_integer_gap_weight(eps, rng), _adapted_weight(eps, rng)):
            spec = HWModuleSpec(N=N, eps=eps, r=r, D=D, q0=Q0)
            want = [gt_oracle._norm_parts(P, spec)[1] for P in pats]
            assert gt_norm_signs(spec).tolist() == want, (eps, r)
            assert [gt_norm_sign(P, spec) for P in pats[::7]] == want[::7]
            if eps_adapted(r, eps):
                mod = build_hw_module(spec, margin=0)
                assert mod.basis == [P for P, s in zip(pats, want) if s > 0], (eps, r)
                built += 1
    assert built >= 2 ** N


@pytest.mark.parametrize("N,eps,r,D", [
    (2, (1, -1), (Fraction(3, 10), Fraction(4, 5)), 12),
    (2, (-1, -1), (Fraction(-6, 5), Fraction(-1, 10)), 12),
    (3, (1, -1, 1), (Fraction(3, 10), Fraction(4, 5), Fraction(4, 5)), 12),
    (3, (1, 1, -1), (Fraction(0), Fraction(1), Fraction(1, 3)), 12),
    (3, (1, -1), (Fraction(1, 4), Fraction(-3, 4)), 10),
    (4, (1, -1, 1, -1), (Fraction(1, 10),) * 4, 7),
    # deep: N=2 windows of up to 54 factors that move with m, norms beyond
    # the float64 range, and a mixed N=3 cell
    (2, (1, -1), (Fraction(3, 10), Fraction(4, 5)), 54),
    (3, (1, 1, -1), (Fraction(-7, 10), Fraction(-7, 10), Fraction(-23, 10)), 26),
])
def test_values_match_fraction_oracle(N, eps, r, D):
    """Norms, ladder coefficients and lowering-operator entries against the
    per-pattern Fraction formulas, evaluated at the Decimal q0 with 30 more
    digits than the build: they agree to 1e-20 relative."""
    spec = HWModuleSpec(N=N, eps=eps, r=r, D=D, q0=Q0)
    mod = build_hw_module(spec, margin=0)
    f = mod.lower.columns(np.ones(mod.dim, dtype=bool))
    index = {P: t for t, P in enumerate(mod.basis)}
    n_checked = 0
    with localcontext(Context(prec=mod.context.prec + 30, Emax=MAX_EMAX, Emin=MIN_EMIN)):
        q0 = Decimal(Q0)

        def close(got, want):
            return abs(got - want) <= Decimal("1e-20") * abs(want)

        norms = [gt_oracle._norm_parts(P, spec, q0)[0] for P in mod.basis]
        for P, c, want in zip(mod.basis, mod.norms, norms):
            assert close(c, want), P
            if Decimal("1e-300") < want < Decimal("1e300"):
                assert gt_norm(P, spec) == pytest.approx(float(want), rel=1e-12), P
        for t, P in enumerate(mod.basis):
            for i in range(1, N):
                for j in range(1, i + 1):
                    tt = index.get(gt_oracle.move_up(P, j, i))
                    if tt is None:
                        continue
                    want = gt_oracle._raising_coeff(P, j, i, spec, q0)
                    assert close(gt_oracle.package_raising(P, j, i, spec), want), (P, i, j)
                    assert close(f[i - 1, t, tt], want * (norms[tt] / norms[t]).sqrt()), (P, i, j)
                    n_checked += 1
    assert n_checked >= mod.dim - 1


def test_raising_zeros_and_poles_match_fraction_oracle():
    """On every pattern, kept or not: an exactly-zero numerator bracket
    gives a zero coefficient, and a vanishing denominator bracket (which
    only a pattern of zero or negative norm has) is a pole, where the
    per-pattern formulas have them."""
    n_zero = n_pole = 0
    for spec in (HWModuleSpec(N=3, eps=(1, 1, -1), r=(0, -1, 0), D=6, q0=Q0),
                 HWModuleSpec(N=3, eps=(1, 1, 1), r=(0, 1, 2), D=6, q0=Q0),
                 HWModuleSpec(N=2, eps=(1, 1), r=(0, 0), D=6, q0=Q0)):
        for P in patterns(spec.N, spec.D):
            for i in range(1, spec.N):
                for j in range(1, i + 1):
                    if gt_oracle.move_up(P, j, i) is None:
                        continue
                    try:
                        want = gt_oracle._raising_coeff(P, j, i, spec)
                    except DomainError:
                        with pytest.raises(DomainError, match="pole"):
                            gt_oracle.package_raising_coeff(P, j, i, spec)
                        n_pole += 1
                        continue
                    assert gt_oracle.package_raising_coeff(P, j, i, spec) == \
                        pytest.approx(want, rel=1e-12, abs=0.0), (P, i, j)
                    n_zero += want == 0
    assert n_zero > 0 and n_pole > 0


def test_non_adapted_norm_values_match_fraction_oracle():
    spec = HWModuleSpec(N=3, eps=(1, 1, -1), r=(Fraction(0), Fraction(-1), Fraction(0)),
                        D=6, q0=Q0)
    signs = set()
    for P in patterns(3, 6):
        want, sgn = gt_oracle._norm_parts(P, spec)
        assert gt_norm(P, spec) == pytest.approx(want, rel=1e-12, abs=0.0), P
        signs.add(sgn)
    assert signs == {-1, 0, 1}


def test_deep_norms_leave_float64_but_stay_exact():
    # c_P at m = 40 is about 1e460: the build keeps it as a Decimal
    spec = n2spec((1, -1), (Fraction(3, 10), Fraction(4, 5)), D=40)
    mod = build_hw_module(spec, margin=8)
    assert mod.norms[-1].adjusted() > 400
    assert np.isfinite(mod.T.vals).all()


def test_gt_norm_beyond_float64_is_precision_loss():
    # c_P at m = 40 is about 1e460: as a float it would read inf
    spec = n2spec((1, -1), (Fraction(3, 10), Fraction(4, 5)), D=40)
    with pytest.raises(PrecisionLoss, match="beyond the float64 range"):
        gt_norm(((40,),), spec)
    assert 0 < gt_norm(((20,),), spec) < math.inf


# --------------------------------------------------------------------------
# module builds and defining relations


def rel_residual(M, mask):
    denom = max(1.0, np.linalg.norm(M))
    return np.linalg.norm(M[:, mask]) / denom


def test_build_one_dimensional():
    mod = build_hw_module(n2spec((1, 1), (0, 0)), margin=0)
    assert mod.dim == 1


def test_build_rejects_non_adapted():
    with pytest.raises(NegativeNorm):
        build_hw_module(n2spec((1, 1), (0, -1)), margin=0)


def test_truncation_too_small():
    with pytest.raises(TruncationTooSmall):
        build_hw_module(n2spec((1, -1), (0.5, 0.25), D=3), margin=8)


def test_t1_eigenvalues_n2():
    alpha = 0.3
    mod = build_hw_module(n2spec((1, -1), (alpha, 0.8), D=10), margin=0)
    assert mod.dim == 11
    got = sorted(np.diagonal(dense(mod.T)[0, 0]))
    want = sorted(Q0 ** (alpha + m) for m in range(11))
    assert np.allclose(got, want)


def test_highest_weight_vector_killed_by_e():
    mod = build_hw_module(n2spec((1, -1), (0.3, 0.8), D=8), margin=0)
    # basis vector 0 is the zero pattern, the highest-weight vector
    assert mod.basis[0] == ((0,),)
    for F in dense(mod.f):  # the raising operators are e_i = f_i^T
        assert np.allclose(F[0], 0.0)


@pytest.mark.parametrize(
    "N,eps,r",
    [
        (2, (1, -1), (Fraction(3, 10), Fraction(4, 5))),
        (2, (1, 1), (Fraction(1, 2), Fraction(3, 2))),
        (3, (1, 1, -1), (Fraction(0), Fraction(1), Fraction(1, 3))),
        (3, (1, -1, 1), (Fraction(3, 10), Fraction(4, 5), Fraction(9, 5))),
        (3, (-1, 1, -1), (Fraction(1, 2), Fraction(3, 2), Fraction(0))),
        (3, (1, -1, 0), (Fraction(1), Fraction(0), Fraction(1))),
    ],
)
def test_defining_relations(N, eps, r):
    D, margin = (12, 6) if N == 2 else (9, 5)
    spec = HWModuleSpec(N=N, eps=eps, r=r, D=D, q0=Q0)
    mod = build_hw_module(spec, margin=margin)
    mask = mod.interior
    assert mask.sum() > 0
    eps_pad = spec.eps_padded
    tol = 1e-10
    f = list(dense(mod.f))
    e = [F.T for F in f]
    K = [1.0 / np.diagonal(dense(mod.T)[i, i]) for i in range(N)]  # T[i,i] = K_i^{-1}
    # weight relations
    for i in range(1, N + 1):
        for j in range(1, N):
            ph = Q0 ** ((i == j) - (i == j + 1))
            M = np.diag(K[i - 1]) @ e[j - 1] - ph * e[j - 1] @ np.diag(K[i - 1])
            assert rel_residual(M, mask) < tol
    # deformed commutators
    for i in range(1, N):
        for j in range(1, N):
            C = e[i - 1] @ f[j - 1] - f[j - 1] @ e[i - 1]
            if i != j:
                assert rel_residual(C, mask) < tol
            else:
                khat = K[i - 1] / K[i]
                target = (eps_pad[i] * khat - 1.0 / khat) / (Q0 - 1.0 / Q0)
                assert rel_residual(C - np.diag(target), mask) < tol
    # Serre relations
    for i in range(1, N):
        for j in range(1, N):
            if abs(i - j) != 1:
                continue
            for ops in (e, f):
                A, B = ops[i - 1], ops[j - 1]
                M = A @ A @ B - (Q0 + 1 / Q0) * A @ B @ A + B @ A @ A
                assert rel_residual(M, mask) < tol


@pytest.mark.parametrize(
    "N,eps,r",
    [
        (2, (1, -1), (Fraction(3, 10), Fraction(4, 5))),
        (3, (1, 1, -1), (Fraction(0), Fraction(1), Fraction(1, 3))),
        (3, (1, -1, 1), (Fraction(3, 10), Fraction(4, 5), Fraction(9, 5))),
    ],
)
def test_triangular_block_relations(N, eps, r):
    """The T matrices satisfy the deformed triangular exchange relations."""
    D, margin = (12, 6) if N == 2 else (9, 5)
    spec = HWModuleSpec(N=N, eps=eps, r=r, D=D, q0=Q0)
    mod = build_hw_module(spec, margin=margin)
    mask = mod.interior
    tol = 1e-10
    blocks = dense(mod.T)
    T = {(i, j): blocks[i - 1, j - 1] for i in range(1, N + 1) for j in range(i, N + 1)}
    Tdiag = [np.diagonal(blocks[i, i]) for i in range(N)]
    Tstar_ = {(i, j): T[(i, j)].T.conj() for (i, j) in T}
    q = Q0

    # diagonal exchange: T_i T_kl = q^{d_ik - d_il} T_kl T_i
    for i in range(1, N + 1):
        for (k, l), M in T.items():
            ph = q ** ((i == k) - (i == l))
            R = np.diag(Tdiag[i - 1]) @ M - ph * M @ np.diag(Tdiag[i - 1])
            assert rel_residual(R, mask) < tol, ("diag", i, k, l)

    # plain exchange relations on strictly upper entries
    ups = [(i, j) for i in range(1, N + 1) for j in range(i + 1, N + 1)]
    for (i, j) in ups:
        for (k, l) in ups:
            A, B = T[(i, j)], T[(k, l)]
            if (i == k and j < l) or (j == l and i < k):
                R = A @ B - q * B @ A
            elif i < k and j > l:
                R = A @ B - B @ A
            elif i < k and j < l:
                # correction T[i,l] T[k,j]; the second factor is diagonal
                # when k == j and vanishes when k > j
                if k < j:
                    corr = T[(i, l)] @ T[(k, j)]
                elif k == j:
                    corr = T[(i, l)] @ np.diag(Tdiag[k - 1])
                else:
                    corr = np.zeros_like(A)
                R = A @ B - B @ A - (q - 1 / q) * corr
            else:
                continue
            assert rel_residual(R, mask) < tol, ("plain", i, j, k, l)

    # star-cross relations
    eps_pad = spec.eps_padded

    def eps_int(lo, hi):
        p = 1
        for t in range(lo + 1, hi + 1):
            p *= eps_pad[t - 1]
        return p

    allT = {(i, j): T[(i, j)] for (i, j) in T}
    for (k, j) in ups:
        for (l, i) in ups:
            A, B = T[(k, j)], Tstar_[(l, i)]
            if i != j and k != l:
                R = A @ B - B @ A
            elif i == j and k != l:
                S = sum(
                    allT.get((k, m), np.zeros_like(A)) @ allT.get((l, m), np.zeros_like(A)).T.conj()
                    for m in range(max(k, l), j)
                )
                R = A @ B - q * B @ A + (1 - q * q) * S
            elif k == l and i != j:
                S = sum(
                    eps_int(k, m)
                    * allT.get((m, i), np.zeros_like(A)).T.conj() @ allT.get((m, j), np.zeros_like(A))
                    for m in range(k + 1, min(i, j) + 1)
                )
                R = q * A @ B - B @ A - (1 - q * q) * S
            else:
                S1 = sum(
                    eps_int(k, m)
                    * allT.get((m, j), np.zeros_like(A)).T.conj() @ allT.get((m, j), np.zeros_like(A))
                    for m in range(k + 1, j + 1)
                )
                S2 = sum(
                    allT.get((k, m), np.zeros_like(A)) @ allT.get((k, m), np.zeros_like(A)).T.conj()
                    for m in range(k, j)
                )
                R = A @ B - B @ A - (1 - q * q) * (S1 - S2)
            assert rel_residual(R, mask) < tol, ("cross", k, j, l, i)


# --------------------------------------------------------------------------
# finite modules, scaling, quantum-SU(2)


def test_vector_trep():
    for N in (2, 3):
        T, interior = vector_trep(N, Q0)
        assert T.shape == (N, N, N, N)
        assert interior.all()
        assert not T[np.tril_indices(N, -1)].any()
        # T_1 acts with eigenvalues q^{-delta_{1j}} on the standard basis
        eigs = sorted(np.diagonal(T[0, 0]))
        want = sorted([1.0 / Q0] + [1.0] * (N - 1))
        assert np.allclose(eigs, want)


def test_scaling_trep():
    W, interior = scaling_blocks(2, 0.7)
    assert W.shape == (2, 2, 1, 1) and interior.tolist() == [True]
    assert W[0, 0, 0, 0] == pytest.approx(0.7)
    assert W[0, 1, 0, 0] == 0.0
    with pytest.raises(DomainError):
        scaling_blocks(2, -1.0)


def test_suq2_rep():
    D = 20
    U, interior = suq2_corep_blocks(D, q0=Q0)
    assert U.shape == (2, 2, D + 1, D + 1)
    a, c = U[0, 0], U[1, 0]
    e3 = np.zeros(D + 1)
    e3[3] = 1.0
    assert np.allclose(c @ e3, Q0 ** 3 * e3)
    e0 = np.zeros(D + 1)
    e0[0] = 1.0
    assert np.allclose(a @ e0, 0.0)
    assert np.array_equal(U[0, 1], -Q0 * c.T) and np.array_equal(U[1, 1], a.T)
    assert np.array_equal(interior, np.arange(D + 1) <= D - 2)
    # unitarity below the top level
    UtU = [[sum(U[k][i].conj().T @ U[k][j] for k in range(2)) for j in range(2)] for i in range(2)]
    inner = slice(0, D)  # n <= D-1
    for i in range(2):
        for j in range(2):
            want = np.eye(D + 1) if i == j else np.zeros((D + 1, D + 1))
            assert np.linalg.norm((UtU[i][j] - want)[inner, inner]) < 1e-12


def test_hw_module_json_roundtrip():
    mod = build_hw_module(n2spec((1, -1), (0.25, 0.5), D=5), margin=2)
    doc = json.loads(hw_module_to_json(mod))
    assert doc["spec"]["N"] == 2
    assert len(doc["basis"]) == mod.dim
    assert np.allclose(np.array(doc["ops"]["T1"]), dense(mod.T)[0, 0])


@pytest.mark.parametrize("N,eps,r,D,margin", [
    (2, (1, -1), (Fraction(3, 10), Fraction(4, 5)), 8, 2),
    (3, (-1, -1, 1), (Fraction(-2, 5), Fraction(-4, 5), Fraction(-4, 5)), 6, 3),
])
def test_hw_module_json_ops_are_real_rows(N, eps, r, D, margin):
    """Every dumped operator is a dim x dim list of float rows, equal to the
    module's T blocks and lowering operators, with e_i = f_i^T."""
    mod = build_hw_module(HWModuleSpec(N=N, eps=eps, r=r, D=D, q0=Q0), margin=margin)
    ops = json.loads(hw_module_to_json(mod))["ops"]
    for name, rows in ops.items():
        assert len(rows) == mod.dim, name
        assert all(len(row) == mod.dim and all(type(x) is float for x in row)
                   for row in rows), name
    T, f = dense(mod.T), dense(mod.f)
    for i in range(1, N + 1):
        for j in range(i, N + 1):
            name = f"T{i}{j}" if i < j else f"T{i}"
            assert np.array_equal(np.array(ops[name]), T[i - 1, j - 1]), name
    for i in range(1, N):
        assert np.array_equal(np.array(ops[f"f{i}"]), f[i - 1])
        assert np.array_equal(np.array(ops[f"e{i}"]), f[i - 1].T)
    assert set(ops) == ({f"T{i}" for i in range(1, N + 1)}
                        | {f"T{i}{j}" for i in range(1, N + 1) for j in range(i + 1, N + 1)}
                        | {f"{x}{i}" for x in "ef" for i in range(1, N)})


def test_module_operators_are_sparse_and_densify_to_the_dump():
    """At dim 325 the T blocks and lowering operators are RowBlocks layouts
    of under 1 MB (dense, the pair takes 9.3 MB), and their columns over the
    whole basis are the dumped operators exactly."""
    spec = HWModuleSpec(N=3, eps=(1, -1, 1), r=(Fraction(3, 10), Fraction(4, 5), Fraction(4, 5)),
                        D=24, q0=Q0)
    mod = build_hw_module(spec, margin=12)
    T, f = mod.T, mod.f
    assert mod.dim == 325 and isinstance(T, RowBlocks) and isinstance(f, RowBlocks)
    assert sum(x.nbytes for x in (T.cols, T.vals, f.cols, f.vals)) < 1 << 20
    ops = json.loads(hw_module_to_json(mod))["ops"]
    T, f = dense(T), dense(f)
    for i in range(1, 4):
        for j in range(i, 4):
            assert np.array_equal(np.array(ops[f"T{i}{j}" if i < j else f"T{i}"]), T[i - 1, j - 1])
    for i in range(1, 3):
        assert np.array_equal(np.array(ops[f"f{i}"]), f[i - 1])
        assert np.array_equal(np.array(ops[f"e{i}"]), f[i - 1].T)


def _block_entries(X):
    """One block of a RowBlocks layout as {(row, column): Decimal digits}."""
    from qrea import gtrep

    r, c, v = gtrep._entries(X)
    return {(a, b): str(x) for a, b, x in zip(r.tolist(), c.tolist(), v)}


@pytest.mark.parametrize("N,eps,r,D,margin", [
    (2, (1, -1), (Fraction(3, 10), Fraction(4, 5)), 30, 8),
    (3, (1, -1, 1), (Fraction(3, 10), Fraction(4, 5), Fraction(4, 5)), 16, 8),
    (4, (1, -1, 1, -1), (Fraction(1, 10),) * 4, 10, 6),
])
def test_t_chain_matches_per_column_scales(N, eps, r, D, margin):
    """The T blocks, whose column scales are evaluated once per distinct K
    exponent, are digit for digit the chain with one scale per column:
    T[i,i] = K_i^{-1}, T[i,i+1] = f_i scaled by -(q - q^{-1}) q^{(1 - u_i -
    u_{i+1}) / 2}, and T[i,j] = [T[i,i+1], T[i+1,j]] scaled by K_{i+1} / (q -
    q^{-1}), with u_i the K_i exponent of each column."""
    from qrea import gtrep

    spec = HWModuleSpec(N=N, eps=eps, r=r, D=D, q0=Q0)
    mod = build_hw_module(spec, margin=margin)
    dim = mod.dim
    num = gtrep._Numbers(spec, np.array([gtrep._flat(P) for P in mod.basis]))
    ku = num.kexp().tolist()
    with localcontext(mod.context):
        want = {(i, i): RowBlocks(np.arange(dim)[:, None],
                                  np.array([[num.power(-u)] for u in ku[i - 1]], dtype=object))
                for i in range(1, N + 1)}
        for i in range(1, N):
            s = np.array([-num.qdiff * num.power((num.L2 - ku[i - 1][c] - ku[i][c]) // 2)
                          for c in range(dim)], dtype=object)
            F = mod.lower[i - 1]
            want[(i, i + 1)] = RowBlocks(F.cols, F.vals * s[F.cols])
        for span in range(2, N):
            for i in range(1, N - span + 1):
                A1, A2 = want[(i, i + 1)], want[(i + 1, i + span)]
                AB, BA = gtrep._product(A1, A2), gtrep._product(A2, A1)
                C = RowBlocks.from_coo((dim,), *map(np.concatenate, zip(
                    gtrep._entries(AB), gtrep._entries(RowBlocks(BA.cols, -BA.vals)))))
                s = np.array([num.power(ku[i][c]) / num.qdiff for c in range(dim)], dtype=object)
                want[(i, i + span)] = RowBlocks(C.cols, C.vals * s[C.cols])
    assert len(want) == N * (N + 1) // 2
    for (i, j), X in want.items():
        assert _block_entries(mod.tri[i - 1, j - 1]) == _block_entries(X), (i, j)


def test_detect_finite_rejects_infinite():
    spec = n2spec((1, -1), (0.3, 0.8), D=8)
    assert detect_finite(spec) is None


def test_non_adapted_witness_within_depth_four():
    # a non-integral gap with all-plus signs produces a negative norm at a
    # small witness pattern
    spec = HWModuleSpec(N=2, eps=(1, 1), r=(0, Fraction(-1, 2)), D=6, q0=Q0)
    assert not eps_adapted(spec.r, spec.eps)
    signs = [gt_norm_sign(((m,),), spec) for m in range(5)]
    assert -1 in signs
    # and at N=3 through the proof's subdivision: violating pair (2,3)
    spec = HWModuleSpec(N=3, eps=(1, -1, -1), r=(0, 0, Fraction(1, 3)), D=6, q0=Q0)
    if not eps_adapted(spec.r, spec.eps):
        found = any(gt_norm_sign(P, spec) < 0 for P in patterns(3, 4))
        assert found


def test_suq2_domain():
    with pytest.raises(DomainError):
        suq2_corep_blocks(1)


def test_spec_validation():
    with pytest.raises(DomainError):
        HWModuleSpec(N=2, eps=(1, -1), r=(0.5, 0.5), D=4, q0=1.5)
    with pytest.raises(DomainError):
        HWModuleSpec(N=2, eps=(1,), r=(0.5, 0.5), D=4, q0=0.5)
    with pytest.raises(DomainError):
        HWModuleSpec(N=1, eps=(1, 1), r=(0.5, 0.5), D=4, q0=0.5)
