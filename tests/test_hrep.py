import dataclasses
import functools
import inspect
import itertools
import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

from qrea.classify import rmod1_equal
from qrea.errors import BadCorep, DomainError, NotFactorial, PrecisionLoss
from qrea.braid import _leading_signs
from qrea.gtrep import (
    HWModuleSpec,
    build_hw_module,
    scaling_blocks,
    suq2_corep_blocks,
    vector_trep,
)
from qrea.hrep import (
    HermitianRep,
    RowBlocks,
    adjoint_transport_T,
    adjoint_transport_U,
    build_bigcell_rep,
    central_class,
    eval_poly,
    n2_family,
    re_residual,
    selfadj_residual,
    sigma_scalars,
    spectral_components,
    spectral_data,
    uchar_blocks,
    verify_rep,
    zero_rep,
)
from qrea.ncalg import NCPoly, Z, central_sigma, frt_minor, leading_minor_Z

Q0 = 0.5


def gt_rep(N=2, eps=(1, -1), r=(0.3, 0.8), D=12, margin=None, full=False):
    """A big cell on the reach of its interior, or on its whole module."""
    spec = HWModuleSpec(N=N, eps=eps, r=r, D=D, q0=Q0)
    return module_rep(spec, margin) if full else build_bigcell_rep(spec, margin=margin)


def module_rep(spec, margin):
    """A big cell on its whole module: Z through the Gram's all-true mask."""
    mod = build_hw_module(spec, margin=margin)
    Z, _ = mod.gram(np.ones(mod.dim, dtype=bool))
    return HermitianRep(N=spec.N, Z=Z, interior=mod.interior, q0=spec.q0, spec=spec)


def module_T(rep):
    """The T blocks of the module that a big cell was built on."""
    return build_hw_module(rep.spec, margin=0).T


def residuals(rows):
    """The residual of each verification row, by finding name."""
    return {f["name"]: f["residual"] for f in rows}


# --------------------------------------------------------------------------
# constructions and residuals


def test_zero_rep_exact():
    rep = zero_rep(2)
    assert re_residual(rep) == 0.0
    assert selfadj_residual(rep) == 0.0
    assert all(f["ok"] and f["residual"] == 0.0 for f in verify_rep(rep))
    roots, sig, ext, rank = spectral_data(rep)
    assert roots == [0.0, 0.0]
    assert rank == 0 and sig == ()
    assert (ext.nplus, ext.nminus, ext.nzero) == (0, 0, 2)


def test_gt_rep_residuals_n2():
    rep = gt_rep(D=20, margin=8)
    assert re_residual(rep) < 1e-10
    assert selfadj_residual(rep) < 1e-12


def test_gt_rep_residuals_n3():
    rep = gt_rep(N=3, eps=(1, -1, 1), r=(0.3, 0.8, 1.8), D=9, margin=5)
    assert re_residual(rep) < 1e-9
    assert selfadj_residual(rep) < 1e-11


def _rhat_textbook(N, q):
    """Rhat(e_k ox e_l) = q^{-d_kl} e_l ox e_k + (q^{-1} - q) [l < k] e_k ox e_l."""
    R = np.zeros((N * N, N * N))
    for k in range(N):
        for l in range(N):
            R[l * N + k, k * N + l] += q ** -1 if k == l else 1.0
            if l < k:
                R[k * N + l, k * N + l] += 1 / q - q
    return R


@pytest.mark.parametrize("N,dim,seed", [(2, 3, 1), (2, 6, 2), (3, 4, 3), (3, 5, 4), (4, 3, 5)])
def test_residuals_match_textbook_formulas(N, dim, seed):
    """On random complex blocks, far from any representation, every
    residual equals its defining formula on the assembled N*dim matrix, a
    defect of degree k over znorm**k, at block scales above and below 1."""
    rng = np.random.default_rng(seed)
    blocks = [[rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
               for _ in range(N)] for _ in range(N)]
    interior = rng.permutation(dim) < (dim + 1) // 2
    cols = np.tile(interior, N)
    R = np.kron(_rhat_textbook(N, Q0), np.eye(dim))
    for scale in (1.0, 1e-3):
        Z = [[scale * blk for blk in line] for line in blocks]
        rep = HermitianRep(N=N, Z=Z, interior=interior, q0=Q0)
        Zb = np.block(Z)
        znorm = max(np.linalg.norm(Z[i][j][:, interior], 2) for i in range(N) for j in range(N))

        Z2 = np.kron(np.eye(N), Zb)
        defect = R @ Z2 @ R @ Z2 - Z2 @ R @ Z2 @ R
        want = np.linalg.norm(defect[:, np.tile(interior, N * N)]) / znorm ** 2
        assert re_residual(rep) == pytest.approx(want, rel=1e-12)

        want = np.linalg.norm((Zb - Zb.conj().T)[np.ix_(cols, cols)]) / znorm
        assert selfadj_residual(rep) == pytest.approx(want, rel=1e-12)

        sigma = [1.0] + sigma_scalars(rep)[0]
        ch = sum((-1) ** k * sigma[k] * np.linalg.matrix_power(Zb, N - k) for k in range(N + 1))
        want = np.linalg.norm(ch[:, cols]) / znorm ** N
        assert residuals(verify_rep(rep))["cayley_hamilton"] == pytest.approx(want, rel=1e-12)


@pytest.mark.parametrize("N,eps,r,D,margin", [
    (2, (1, -1), (Fraction(3, 10), Fraction(4, 5)), 14, 8),
    (3, (1, -1, 1), (Fraction(3, 10), Fraction(4, 5), Fraction(4, 5)), 12, 6),
    (3, (-1, 1, 1), (Fraction(1, 2), Fraction(1, 2), Fraction(1, 2)), 10, 4),
])
def test_gram_matches_dense_products(N, eps, r, D, margin):
    """The sparse decimal assembly equals sum_m eps_[m] T[m,i]^T T[m,j] formed
    from the dense float64 T blocks, where that sum cancels little."""
    spec = HWModuleSpec(N=N, eps=eps, r=r, D=D, q0=Q0)
    rep = module_rep(spec, margin)
    lead = np.cumprod(spec.eps_padded)
    T = build_hw_module(spec, margin=margin).T.columns(np.ones(rep.dim, dtype=bool))
    for i in range(1, N + 1):
        for j in range(1, N + 1):
            want = sum(lead[m - 1] * T[m - 1, i - 1].T @ T[m - 1, j - 1]
                       for m in range(1, min(i, j) + 1))
            scale = max(1.0, np.abs(want).max())
            assert np.abs(rep.block(i, j) - want).max() < 1e-13 * scale, (i, j)


def _row_dicts(X):
    """One block of a RowBlocks layout as a list of rows {column: value}."""
    return [{c: v for c, v in zip(cs.tolist(), vs.tolist()) if v != 0}
            for cs, vs in zip(X.cols, X.vals)]


def _dict_matmul(A, B):
    out = []
    for row in A:
        acc = {}
        for k, a in row.items():
            for c, b in B[k].items():
                acc[c] = acc.get(c, 0) + a * b
        out.append(acc)
    return out


@pytest.mark.parametrize("N,eps,r,D,margin", [
    (3, (1, -1, 1), (Fraction(3, 10), Fraction(4, 5), Fraction(4, 5)), 12, 6),
    (4, (1, 1, -1, -1), (Fraction(1, 10),) * 4, 8, 4),
])
def test_sparse_sums_match_row_dict_loops(N, eps, r, D, margin):
    """The T chain's commutators (AB and BA summed apart, subtracted, then
    scaled by columns) and the Gram sums of Z (m by m, row by row), formed
    from padded rows, equal the same Decimal sums formed row dict by row dict."""
    from decimal import localcontext

    from qrea import gtrep

    spec = HWModuleSpec(N=N, eps=eps, r=r, D=D, q0=Q0)
    mod = build_hw_module(spec, margin=margin)
    num = gtrep._Numbers(spec, np.array([gtrep._flat(P) for P in mod.basis]))
    ku = num.kexp().tolist()
    lead = _leading_signs(spec.eps_padded)
    tri = {(i, j): _row_dicts(mod.tri[i - 1, j - 1])
           for i in range(1, N + 1) for j in range(i, N + 1)}
    with localcontext(mod.context):
        for span in range(2, N):
            for i in range(1, N - span + 1):
                A1, A2 = tri[(i, i + 1)], tri[(i + 1, i + span)]
                s = [num.power(u) / num.qdiff for u in ku[i]]
                want = [{c: (ab.get(c, 0) - ba.get(c, 0)) * s[c] for c in ab.keys() | ba.keys()}
                        for ab, ba in zip(_dict_matmul(A1, A2), _dict_matmul(A2, A1))]
                assert [{c: v for c, v in row.items() if v} for row in want] == tri[(i, i + span)]
        Z = np.zeros((N, N, mod.dim, mod.dim))
        for i in range(1, N + 1):
            for j in range(i, N + 1):
                acc = [{} for _ in range(mod.dim)]
                for m in range(1, i + 1):
                    for X, Y in zip(tri[(m, i)], tri[(m, j)]):
                        for a, x in X.items():
                            for b, y in Y.items():
                                acc[a][b] = acc[a].get(b, 0) + lead[m - 1] * x * y
                for a, row in enumerate(acc):
                    for b, v in row.items():
                        Z[i - 1, j - 1, a, b] = Z[j - 1, i - 1, b, a] = float(v)
    rep = module_rep(spec, margin)
    assert np.array_equal(rep.Z.columns(np.ones(mod.dim, dtype=bool)), Z)


def test_gram_guard_refuses_short_precision(monkeypatch):
    """A build whose cancellation needs more digits than it carries raises
    PrecisionLoss instead of returning a degraded operator."""
    from qrea import gtrep

    spec = HWModuleSpec(N=2, eps=(1, -1), r=(Fraction(3, 10), Fraction(4, 5)), D=54, q0=Q0)
    assert re_residual(build_bigcell_rep(spec, margin=8)) < 1e-12
    monkeypatch.setattr(gtrep, "_precision", lambda spec: 30)
    with pytest.raises(PrecisionLoss):
        build_bigcell_rep(spec, margin=8)


def test_gt_rank_deficient_build():
    # M < N: padded module, zero rows kill the upper-left action
    spec = HWModuleSpec(N=2, eps=(1,), r=(Fraction(1, 4),), D=10, q0=Q0)
    rep = build_bigcell_rep(spec, margin=4)
    assert re_residual(rep) < 1e-10
    roots, sig, ext, rank = spectral_data(rep)
    assert rank == 1
    assert ext.nzero == 1


def test_z11_spectrum_matches_t1():
    alpha = 0.3
    rep = gt_rep(eps=(1, -1), r=(alpha, 0.8), D=12, margin=4, full=True)
    eigs = sorted(np.linalg.eigvalsh(rep.block(1, 1)))
    want = sorted(Q0 ** (2 * (alpha + m)) for m in range(13))
    assert np.allclose(eigs, want)


def test_sigma_scalars_and_hc():
    rep = gt_rep(N=3, eps=(1, -1, 1), r=(0.3, 0.8, 1.8), D=9, margin=5)
    rows = verify_rep(rep, tol=1e-9)
    assert all(f["ok"] for f in rows), [f for f in rows if not f["ok"]]
    # both evaluation paths agree to 1e-11
    for f in rows:
        if f["name"].endswith("hc_match"):
            assert f["residual"] < 1e-11


@pytest.mark.parametrize("rep,names", [
    (gt_rep(N=3, eps=(1, -1, 1), r=(0.3, 0.8, 1.8), D=9, margin=5),
     [f"sigma_{k}_{x}" for x in ("scalar", "hc_match") for k in (1, 2, 3)]),
    (n2_family("S_neg+", c=1.0, a=2.0), ["sigma_1_scalar", "sigma_2_scalar"]),
])
def test_verify_rep_rows(rep, names):
    """verify_rep returns the report rows themselves: exactly name, ok and a
    Python float residual each; the HC rows need a big cell's weight."""
    rows = verify_rep(rep)
    want = ["reflection_equation", "self_adjoint", "cayley_hamilton"] + names
    assert sorted(f["name"] for f in rows) == sorted(want)
    for f in rows:
        assert set(f) == {"name", "ok", "residual"}, f
        assert type(f["residual"]) is float and type(f["ok"]) is bool, f


def test_spectral_data_gt():
    alpha, beta = 0.3, 0.8
    rep = gt_rep(eps=(1, -1), r=(alpha, beta), D=14, margin=6)
    roots, sig, ext, rank = spectral_data(rep)
    assert rank == 2
    assert sig == (1, -1)
    want = sorted([Q0 ** (2 * alpha), -Q0 ** (2 * beta + 2)], reverse=True)
    assert np.allclose(roots, want, rtol=1e-9)
    assert rmod1_equal(ext.rmod1, (beta + 1 - alpha) % 1.0)


def _leading_minor_formula(rep, k):
    """eps_[1] ... eps_[k] prod_{m<=k} T[m,m]^2: the k-th leading minor of a
    big cell, on the whole module."""
    lead = np.cumprod(rep.spec.eps_padded)
    T = module_T(rep)
    every = np.ones(rep.dim, dtype=bool)
    diag = np.prod([np.diagonal(T[m, m].columns(every)) ** 2 for m in range(k)], axis=0)
    return np.prod(lead[:k]) * np.diag(diag)


def test_minor_vs_symbolic_word():
    """On the interior columns the k-th leading minor word in the Z blocks
    is eps_[1] ... eps_[k] times the product of the squared diagonal
    generators T[m,m], m <= k."""
    rep = gt_rep(eps=(1, -1), r=(0.25, 0.75), D=12, margin=6, full=True)
    mask = rep.interior
    for k in (1, 2):
        want = _leading_minor_formula(rep, k)[:, mask]
        got = eval_poly(leading_minor_Z(k, 2), rep.Z, rep.q0, mask)
        assert np.linalg.norm(got - want) < 1e-10


@pytest.mark.parametrize("N,eps,r,D,margin", [
    (2, (1, -1), (Fraction(3, 10), Fraction(4, 5)), 14, 8),
    (3, (1, -1, 1), (Fraction(3, 10), Fraction(4, 5), Fraction(4, 5)), 16, 12),
])
def test_signature_is_measured_from_z(N, eps, r, D, margin):
    """-Z is a representation too; its signature is the negated one."""
    rep = gt_rep(N=N, eps=eps, r=r, D=D, margin=margin)
    want = tuple(int(x) for x in np.cumprod(eps))
    flipped = dataclasses.replace(rep, Z=dataclasses.replace(rep.Z, vals=-rep.Z.vals))
    assert re_residual(flipped) < 1e-12
    assert spectral_data(rep)[1] == want
    assert spectral_data(flipped)[1] == tuple(-x for x in want)


@pytest.mark.parametrize("algebra", ["REA", "FRT"])
@pytest.mark.parametrize("N,dim,seed", [(2, 5, 7), (3, 4, 8)])
def test_eval_poly_on_columns(algebra, N, dim, seed):
    """The columns that a mixed mask selects equal those of the textbook
    sum of coefficient times full block product, to rounding; the result is
    real for real blocks."""
    from qrea.ncalg import X
    from qrea.scalars import qpow

    rng = np.random.default_rng(seed)
    gen = Z if algebra == "REA" else X
    terms = []  # words of length 0 to 3 as (i, j) pairs, coefficients q^k n
    for _ in range(6):
        word = [tuple(int(x) for x in rng.integers(1, N + 1, size=2))
                for _ in range(int(rng.integers(0, 4)))]
        terms.append((word, qpow(int(rng.integers(-2, 3))) * int(rng.integers(1, 4))))
    p = NCPoly.zero(algebra)
    for word, coeff in terms:
        p = p + NCPoly.word(algebra, [gen(i, j) for i, j in word], coeff)
    cols = rng.permutation(dim) < (dim + 1) // 2
    real = rng.standard_normal((N, N, dim, dim))
    cplx = real + 1j * rng.standard_normal((N, N, dim, dim))
    for blocks in (real, cplx):
        want = np.zeros((dim, dim), dtype=complex)
        for word, coeff in terms:
            M = np.eye(dim)
            for i, j in word:
                M = M @ blocks[i - 1, j - 1]
            want += coeff.eval(Q0) * M
        got = eval_poly(p, RowBlocks.from_dense(blocks), Q0, cols)
        assert got.shape == (dim, cols.sum())
        assert np.isrealobj(got) == np.isrealobj(blocks)
        assert np.linalg.norm(got - want[:, cols]) <= 1e-13 * np.linalg.norm(want)


# --------------------------------------------------------------------------
# the padded-row block layout


@pytest.mark.parametrize("dtype", [float, complex])
@pytest.mark.parametrize("N,dim,seed", [(2, 7, 11), (3, 5, 12)])
def test_row_blocks_match_dense(N, dim, seed, dtype):
    """Random sparse blocks with rows of unequal width and one all-zero block:
    the layout applies by gather as the dense blocks multiply, gives their
    masked columns, and gives each block back."""
    rng = np.random.default_rng(seed)
    Z = rng.standard_normal((N, N, dim, dim)).astype(dtype)
    if dtype is complex:
        Z += 1j * rng.standard_normal((N, N, dim, dim))
    Z *= rng.random((N, N, dim, 1)) > rng.random((N, N, dim, dim))  # row densities differ
    Z[N - 1, 0] = 0.0
    layout = RowBlocks.from_dense(Z)
    widths = np.count_nonzero(Z, axis=-1)
    assert layout.cols.shape == (N, N, dim, widths.max()) and len(set(widths.flat)) > 2
    rep = HermitianRep(N=N, Z=Z, interior=np.ones(dim, dtype=bool), q0=Q0)
    mask = rng.permutation(dim) < (dim + 1) // 2
    M = rng.standard_normal((dim, 4)) + 1j * rng.standard_normal((dim, 4))
    assert np.array_equal(layout.columns(mask), Z[..., mask])
    for i in range(N):
        for j in range(N):
            assert np.array_equal(rep.block(i + 1, j + 1), Z[i, j])
            assert np.abs(layout[i, j] @ M - Z[i, j] @ M).max() <= 1e-14 * np.abs(Z).max()
            assert np.isrealobj(layout[i, j] @ M.real) == (dtype is float)


def test_row_blocks_from_coo_sums_repeats():
    """Entries at one position are summed, and sums that cancel are dropped."""
    rows = [0, 0, 0, 3, 3, 5]
    cols = [1, 1, 2, 0, 0, 2]
    vals = [1.0, 2.0, 4.0, 5.0, -5.0, 7.0]
    layout = RowBlocks.from_coo((2, 3), rows, cols, vals)
    want = np.zeros((2, 3, 3))
    np.add.at(want.reshape(6, 3), (rows, cols), vals)
    assert layout.cols.shape == (2, 3, 2)
    assert np.array_equal(layout.columns(np.ones(3, dtype=bool)), want)


def test_row_blocks_from_coo_rejects_indices_outside_the_shape():
    """A column at or past dim would be read as a column of a later row."""
    rows = np.arange(4)
    with pytest.raises(DomainError):
        RowBlocks.from_coo((2, 2, 25), rows, [0, 33, 66, 99], np.ones(4))
    for rows, cols in (([0, 100], [0, 1]), ([-1, 0], [0, 1]), ([0, 1], [-1, 0])):
        with pytest.raises(DomainError):
            RowBlocks.from_coo((2, 2, 25), rows, cols, np.ones(2))


# --------------------------------------------------------------------------
# the N=2 families


@pytest.mark.parametrize("kind,params,tdroots", [
    ("S_pos", {"c": 1.0, "n": 2}, (Q0 ** 3, Q0 ** -3)),
    ("S_pos", {"c": -0.7, "n": 1}, (-0.7 * Q0 ** 2, -0.7 * Q0 ** -2)),
    ("S_zero", {"lam": 1.3}, (0.0, 1.3)),
    ("S_neg+", {"c": 1.0, "a": 2.0}, (2.0, -0.5)),
    ("S_neg-", {"c": 1.0, "a": 2.0}, (2.0, -0.5)),
    ("char", {"theta": 0.2, "c": 1.0, "a": 2.0}, (2.0, -0.5)),
])
def test_n2_families(kind, params, tdroots):
    rep = n2_family(kind, D=40, q0=Q0, margin=8, **params)
    res = residuals(verify_rep(rep, tol=1e-10))
    assert res["reflection_equation"] < 1e-10
    assert res["self_adjoint"] < 1e-10
    assert res["cayley_hamilton"] < 1e-10
    roots, sig, ext, rank = spectral_data(rep)
    # the characteristic-polynomial roots are q times the trace/determinant
    # normalized pair
    want = sorted((Q0 * x for x in tdroots), reverse=True)
    assert np.allclose(roots, want, rtol=1e-8, atol=1e-12)


def test_n2_family_dimensions_and_lowest():
    rep = n2_family("S_pos", c=1.0, n=3)
    assert rep.dim == 4
    # z e_k = c q^{-n+2k} e_k and v e_0 = 0
    assert rep.block(1, 1)[0, 0] == pytest.approx(Q0 ** -3)
    assert np.allclose(rep.block(2, 1)[:, 0], 0.0)
    rep = n2_family("S_zero", lam=2.0, D=30)
    assert rep.block(1, 1)[5, 5] == pytest.approx(2.0 * Q0 ** 11)
    rep = n2_family("char", theta=0.3, c=1.5)
    assert rep.block(1, 1)[0, 0] == 0.0
    assert rep.block(2, 1)[0, 0] == pytest.approx(Q0 * 1.5 * np.exp(0.6j * np.pi))


def test_n2_family_domain_errors():
    with pytest.raises(DomainError):
        n2_family("S_pos", c=0.0, n=1)
    with pytest.raises(DomainError):
        n2_family("nope")


def test_not_factorial_on_direct_sum():
    # direct sum of two characters with different central characters
    a = n2_family("char", theta=0.0, c=1.0)
    b = n2_family("char", theta=0.0, c=2.0)
    Zs = [[np.zeros((2, 2), dtype=complex) for _ in range(2)] for _ in range(2)]
    for i in range(2):
        for j in range(2):
            Zs[i][j][0, 0] = a.block(i + 1, j + 1)[0, 0]
            Zs[i][j][1, 1] = b.block(i + 1, j + 1)[0, 0]
    from qrea.hrep import HermitianRep
    rep = HermitianRep(N=2, Z=Zs, interior=np.array([True, True]), q0=Q0)
    with pytest.raises(NotFactorial):
        central_class(rep)
    with pytest.raises(NotFactorial):
        spectral_data(rep)
    comps = spectral_components(rep)
    assert len(comps) == 2


# --------------------------------------------------------------------------
# operator minors and their exchange relations


def op_minor_blocks(rep, k):
    """Operator minors Z_{I,J} of a big-cell representation from its
    triangular factorization: Z_{I,J} = sum over k-subsets K of
    eps_K X_{K,I}^dagger X_{K,J}, with eps_K the product of eps_[m] over m in
    K and X_{K,I} the quantum minor ``frt_minor(K, I)`` on the T blocks."""
    lead = _leading_signs(rep.spec.eps_padded)
    T = module_T(rep)
    subsets = list(itertools.combinations(range(1, rep.N + 1), k))
    every = np.ones(rep.dim, dtype=bool)
    X = np.array([[eval_poly(frt_minor(K, I), T, rep.q0, every) for I in subsets]
                  for K in subsets])
    w = np.array([math.prod(lead[t - 1] for t in K) for K in subsets], dtype=float)
    M = np.einsum("k,kiba,kjbc->ijac", w, X.conj(), X, optimize=True)
    return {(I, J): M[a, b] for a, I in enumerate(subsets) for b, J in enumerate(subsets)}



def test_minor_qcommutation_operators():
    # Z_[k] Z_{I,J} = q^{2|I cap [k]| - 2|J cap [k]|} Z_{I,J} Z_[k]
    rep = gt_rep(N=3, eps=(1, -1, 1), r=(0.3, 0.8, 1.8), D=9, margin=5, full=True)
    mask = rep.interior
    scale = max(1.0, rep.znorm() ** 3)
    blocks = {size: op_minor_blocks(rep, size) for size in (1, 2, 3)}
    for k in (1, 2, 3):
        Mk = _leading_minor_formula(rep, k)
        for size in (1, 2, 3):
            for (I, J), Mij in blocks[size].items():
                e = 2 * len(set(I) & set(range(1, k + 1))) - 2 * len(set(J) & set(range(1, k + 1)))
                R = Mk @ Mij - Q0 ** e * Mij @ Mk
                assert np.linalg.norm(R[:, mask]) / scale < 1e-9, (k, I, J)


def test_minor_blocks_match_leading():
    rep = gt_rep(N=3, eps=(1, -1, 1), r=(0.3, 0.8, 1.8), D=8, margin=4, full=True)
    mask = rep.interior
    for k in (1, 2, 3):
        blocks = op_minor_blocks(rep, k)
        I = tuple(range(1, k + 1))
        assert np.linalg.norm(blocks[(I, I)] - _leading_minor_formula(rep, k)) < 1e-9
        lead = eval_poly(leading_minor_Z(k, 3), rep.Z, rep.q0, mask)
        assert np.linalg.norm(blocks[(I, I)][:, mask] - lead) < 1e-9


# --------------------------------------------------------------------------
# Z on the reach of the interior

CI_CELL = (HWModuleSpec(N=4, eps=(1, 1, -1, -1), r=(Fraction(1, 10),) * 4, D=16, q0=Q0), 8)
REACH_CELLS = [
    (HWModuleSpec(N=2, eps=(1, -1), r=(Fraction(3, 10), Fraction(4, 5)), D=14, q0=Q0), 8),
    (HWModuleSpec(N=3, eps=(1, -1, 1), r=(Fraction(3, 10), Fraction(4, 5), Fraction(4, 5)),
                  D=24, q0=Q0), 12),
    CI_CELL,
]


@pytest.mark.parametrize("spec,margin", REACH_CELLS, ids=["N2", "N3", "N4"])
def test_reach_is_a_sub_block_with_the_same_findings(spec, margin):
    """Z on the reach is the reach x reach sub-block of Z on the whole module,
    entry for entry, with the interior re-indexed; both give the same
    findings, central scalars, roots, signature and class, and residuals
    that differ at most in their last bits."""
    mod = build_hw_module(spec, margin=margin)
    Zf, every = mod.gram(np.ones(mod.dim, dtype=bool))
    rep = build_bigcell_rep(spec, margin=margin)
    _, reach = mod.gram()
    assert every.all() and rep.dim == reach.sum() < mod.dim
    assert np.array_equal(rep.interior, mod.interior[reach])
    whole = Zf.columns(every)[:, :, reach][..., reach]
    assert np.array_equal(rep.Z.columns(np.ones(rep.dim, dtype=bool)), whole)

    full = HermitianRep(N=spec.N, Z=Zf, interior=mod.interior, q0=Q0, spec=spec)
    got, want = verify_rep(rep), verify_rep(full)
    assert [(f["name"], f["ok"]) for f in got] == [(f["name"], f["ok"]) for f in want]
    for f, g in zip(got, want):
        assert f["residual"] == pytest.approx(g["residual"], rel=1e-6, abs=1e-20), f["name"]
    assert sigma_scalars(rep)[0] == sigma_scalars(full)[0]
    assert spectral_data(rep) == spectral_data(full)


@pytest.mark.parametrize("spec,margin,count", [
    CI_CELL + (1308,),
    (HWModuleSpec(N=4, eps=(1, -1, 1, -1), r=(Fraction(1, 10),) * 4, D=20, q0=Q0), 16, 2125),
], ids=["D16", "D20"])
def test_reach_holds_the_numeric_reach(spec, margin, count):
    """The reach, found from the T blocks' pattern, holds every row within N
    steps of the interior in the graph of Z's nonzeros on the whole module
    (a breadth-first search), and here it is no larger."""
    mod = build_hw_module(spec, margin=margin)
    _, reach = mod.gram()
    Zf, _ = mod.gram(np.ones(mod.dim, dtype=bool))
    i, j, a, t = np.nonzero(Zf.vals)
    b = Zf.cols[i, j, a, t]   # Z_ij[a, b] != 0, and Z_ji[b, a] too
    seen = mod.interior.copy()
    for _ in range(spec.N):
        seen[b[seen[a]]] = True
    assert not (seen & ~reach).any()
    assert seen.sum() == reach.sum() == count


def test_vector_transport_of_the_reach():
    """A transport of the big cell on the reach by the vector representation
    has the components and classes of a transport of it on the whole module."""
    spec = HWModuleSpec(N=3, eps=(1, -1, 1), r=(Fraction(3, 10), Fraction(4, 5), Fraction(4, 5)),
                        D=14, q0=Q0)
    rep, full = build_bigcell_rep(spec, margin=6), module_rep(spec, 6)
    assert rep.dim < full.dim
    got = spectral_components(adjoint_transport_T(rep, *vector_trep(3, Q0)))
    want = spectral_components(adjoint_transport_T(full, *vector_trep(3, Q0)))
    assert len(got) == len(want) >= 2
    for (sig, roots, ext, mult), (sig0, roots0, ext0, mult0) in zip(got, want):
        assert (roots, ext, mult) == (roots0, ext0, mult0)
        assert sig == pytest.approx(sig0, rel=1e-12)


# --------------------------------------------------------------------------
# transports


def test_transport_scaling():
    rep = gt_rep(eps=(1, -1), r=(0.3, 0.8), D=14, margin=6)
    roots0, sig0, ext0, rank0 = spectral_data(rep)
    out = adjoint_transport_T(rep, *scaling_blocks(2, 0.7))
    roots1, sig1, ext1, rank1 = spectral_data(out)
    assert rank1 == rank0 and sig1 == sig0
    assert np.allclose(roots1, [0.7 ** 2 * x for x in roots0], rtol=1e-8)
    assert rmod1_equal(ext0.rmod1, ext1.rmod1)
    assert ext0.counts() == ext1.counts()


# Big cells whose block scale is far from 1, and their exact classes:
# (counts (N_+, N_-, N_0), [beta - alpha] mod 1).
SCALED_CELLS = [
    ((2, (1, -1), (Fraction(14), Fraction(29, 2)), 14, 8), ((1, 1, 0), 0.5)),
    ((3, (1, 1, -1), (Fraction(5), Fraction(6), Fraction(11, 2)), 14, 12), ((2, 1, 0), 0.5)),
    ((3, (-1, 1, 1), (Fraction(9), Fraction(9), Fraction(9)), 14, 12), ((0, 3, 0), 0.0)),
    ((3, (-1, 1, -1), (Fraction(1, 2), Fraction(1, 2), Fraction(-5, 2)), 26, 12),
     ((1, 2, 0), 0.0)),
]


@functools.lru_cache(maxsize=None)
def scaled_cell(cell):
    N, eps, r, D, margin = cell
    return gt_rep(N=N, eps=eps, r=r, D=D, margin=margin)


@pytest.mark.parametrize("c", [0.02, 0.1, 3, 20])
@pytest.mark.parametrize("cell,want", SCALED_CELLS,
                         ids=["N2-r14", "N3-r5", "N3-r9", "N3-D26"])
def test_class_is_scale_invariant(cell, want, c):
    """Z -> c^2 Z is an adjoint transport, so it keeps the class: the rank,
    root and component decisions are relative to the block scale, and so is
    every residual."""
    counts, rmod1 = want
    rep = scaled_cell(cell)
    _, sig, ext, rank = spectral_data(rep)
    assert (ext.counts(), rank) == (counts, cell[0])
    assert rmod1_equal(ext.rmod1, rmod1, 1e-8)
    out = adjoint_transport_T(rep, *scaling_blocks(cell[0], c))
    _, sig1, ext1, rank1 = spectral_data(out)
    assert (sig1, ext1.counts(), rank1) == (sig, counts, rank)
    assert rmod1_equal(ext1.rmod1, rmod1, 1e-8)
    comps = spectral_components(out)
    assert len(comps) == 1
    assert comps[0][2].counts() == counts and rmod1_equal(comps[0][2].rmod1, rmod1, 1e-8)
    # a transport has no weight, so no Harish-Chandra rows
    before = residuals(verify_rep(rep))
    after = residuals(verify_rep(out))
    assert after.keys() == {k for k in before if "hc_match" not in k}
    for name, resid in after.items():
        assert resid == pytest.approx(before[name], abs=1e-13), name


def test_residuals_are_relative_below_scale_one():
    """A cell of block scale 3.7e-9 reports residuals near machine precision,
    not their absolute size of about 1e-33."""
    rep = scaled_cell(SCALED_CELLS[0][0])
    assert rep.znorm() < 1e-8
    assert 1e-18 < max(residuals(verify_rep(rep)).values()) < 1e-12


def verify_peak(built):
    """The tracemalloc peak of verify_rep, on a fresh copy of a representation
    so that no cached scalar or norm is reused."""
    rep = HermitianRep(N=built.N, Z=built.Z, interior=built.interior, q0=built.q0,
                       spec=built.spec)
    tracemalloc.start()
    try:
        verify_rep(rep)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return peak


def test_verify_rep_memory():
    """verify_rep's temporaries stay a few times the size of a dense Z on the
    module, 8 N^2 dim^2 bytes: only interior columns are made dense."""
    rep = scaled_cell(SCALED_CELLS[3][0])
    dim = build_hw_module(rep.spec, margin=SCALED_CELLS[3][0][4]).dim
    assert verify_peak(rep) <= 7 * 8 * rep.N ** 2 * dim ** 2


def test_verify_rep_memory_n4():
    """At N=4, module dim 1,405, verify_rep peaks below what a dense Z on
    the module alone takes."""
    rep = gt_rep(N=4, eps=(1, 1, -1, -1), r=(Fraction(1, 10),) * 4, D=16, margin=8)
    dim = build_hw_module(rep.spec, margin=8).dim
    assert dim == 1405
    assert verify_peak(rep) < 8 * rep.N ** 2 * dim ** 2


@pytest.mark.parametrize("t", [1e-4, 1e4])
def test_not_factorial_at_any_scale(t):
    """A direct sum of two characters is not a factor at any scale."""
    a = n2_family("char", theta=0.0, c=t)
    b = n2_family("char", theta=0.0, c=2 * t)
    Z = np.zeros((2, 2, 2, 2))
    for i in range(2):
        for j in range(2):
            Z[i, j] = np.diag([a.block(i + 1, j + 1)[0, 0].real, b.block(i + 1, j + 1)[0, 0].real])
    rep = HermitianRep(N=2, Z=Z, interior=np.array([True, True]), q0=Q0)
    with pytest.raises(NotFactorial):
        central_class(rep)
    with pytest.raises(NotFactorial):
        spectral_data(rep)
    assert len(spectral_components(rep)) == 2


def test_transport_vector_corep_preserves_extsig():
    rep = gt_rep(eps=(1, -1), r=(0.3, 0.8), D=14, margin=6)
    _, _, ext0, rank0 = spectral_data(rep)
    out = adjoint_transport_T(rep, *vector_trep(2, Q0))
    comps = spectral_components(out)
    assert len(comps) >= 2
    for sig, roots, ext, mult in comps:
        assert rmod1_equal(ext.rmod1, ext0.rmod1, 1e-8)
        assert ext.counts() == ext0.counts()


def test_transport_uchar_preserves_weight():
    rep = gt_rep(eps=(1, -1), r=(0.3, 0.8), D=14, margin=6)
    roots0, _, ext0, _ = spectral_data(rep)
    out = adjoint_transport_U(rep, *uchar_blocks((0.2, 0.7)))
    roots1, _, ext1, _ = spectral_data(out)
    assert np.allclose(roots0, roots1, rtol=1e-9)
    assert rmod1_equal(ext0.rmod1, ext1.rmod1)


def test_transport_s_mixes_signature():
    # the quantum-SU(2) transport of a mixed-sign character has Z_[1]
    # spectrum of both signs
    rep = n2_family("char", theta=0.0, c=1.0, a=2.0)
    U, u_int = suq2_corep_blocks(40, q0=Q0)
    out = adjoint_transport_U(rep, U, u_int)
    # Z'_11 = x a* c + y c* c + x c* a for the character [[0, x], [x, y]]
    x = rep.block(2, 1)[0, 0].real
    y = rep.block(2, 2)[0, 0].real
    a, c = U[0, 0], U[1, 0]
    want = x * a.conj().T @ c + y * c.conj().T @ c + x * c.conj().T @ a
    assert np.linalg.norm(out.block(1, 1) - want) < 1e-12
    eigs = np.linalg.eigvalsh(out.block(1, 1)[np.ix_(out.interior, out.interior)])
    assert (eigs > 1e-8).any() and (eigs < -1e-8).any()


def test_suq2_corep_interior_is_exact():
    """The corepresentation's interior is its levels n <= D - 2: there the
    central operators of a transport equal those of a deeper truncation,
    and on level D - 1 they do not."""
    D = 14
    rep = gt_rep(eps=(-1, -1), r=(Fraction(-2, 5), Fraction(-1, 2)), D=D, margin=6)
    outs = {d: adjoint_transport_U(rep, *suq2_corep_blocks(d, q0=Q0)) for d in (D, D + 4)}
    assert np.array_equal(outs[D].interior, np.kron(rep.interior, np.arange(D + 1) <= D - 2))
    assert max(sigma_scalars(outs[D])[1]) < 1e-9
    for level, exact in ((D - 2, True), (D - 1, False)):
        got = []
        for d, out in outs.items():
            cols = np.kron(rep.interior, np.arange(d + 1) == level)
            rows = np.kron(np.ones(rep.dim, dtype=bool), np.arange(d + 1) <= D)
            got.append(eval_poly(central_sigma(2, 2), out.Z, Q0, cols)[rows])
        assert (np.linalg.norm(got[0] - got[1]) < 1e-12) == exact, level


def test_transport_bad_corep():
    rep = n2_family("char", theta=0.0, c=1.0)
    U = np.diag([2.0, 1.0])[:, :, None, None]
    with pytest.raises(BadCorep):
        adjoint_transport_U(rep, U, np.ones(1, dtype=bool))


def test_transport_dim_cap():
    """The size check reads W.shape and runs before anything is allocated:
    the 3000-dimensional parameter is a broadcast view of one number."""
    rep = gt_rep(eps=(1, -1), r=(0.3, 0.8), D=14, margin=6)
    W = np.broadcast_to(1.0, (2, 2, 3000, 3000))
    for transport in (adjoint_transport_T, adjoint_transport_U):
        with pytest.raises(DomainError, match="exceeds cap"):
            transport(rep, W, np.ones(3000, dtype=bool))


@pytest.mark.parametrize("N,dim,m,seed", [(2, 3, 2, 5), (3, 4, 3, 6)])
def test_transports_match_textbook_kron_sum(N, dim, m, seed):
    """On random complex blocks, both transports equal the kron sum
    Z'_ij = sum_kl Z_kl ox W_ki^dagger W_lj, for a triangular W and for a
    unitary one, each with a mixed interior mask."""
    rng = np.random.default_rng(seed)
    Z = [[rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
          for _ in range(N)] for _ in range(N)]
    rep = HermitianRep(N=N, Z=Z, interior=rng.permutation(dim) < (dim + 1) // 2, q0=Q0)
    w_interior = rng.permutation(m) < (m + 1) // 2
    T = np.array([[rng.standard_normal((m, m)) if k <= i else np.zeros((m, m))
                   for i in range(N)] for k in range(N)])
    Q, _ = np.linalg.qr(rng.standard_normal((N * m, N * m))
                        + 1j * rng.standard_normal((N * m, N * m)))
    U = Q.reshape(N, m, N, m).transpose(0, 2, 1, 3)
    for W, out in ((T, adjoint_transport_T(rep, T, w_interior)),
                   (U, adjoint_transport_U(rep, U, w_interior))):
        assert np.array_equal(out.interior, np.kron(rep.interior, w_interior))
        for i in range(N):
            for j in range(N):
                want = sum(np.kron(Z[k][l], W[k][i].conj().T @ W[l][j])
                           for k in range(N) for l in range(N))
                assert np.linalg.norm(out.block(i + 1, j + 1) - want) \
                    <= 1e-13 * np.linalg.norm(want), (i, j)


@pytest.mark.parametrize("N,kind", [(2, "scale"), (2, "vector"), (3, "vector"),
                                    (2, "uchar"), (2, "s")])
def test_transport_kinds_match_dense_kron_sum(N, kind):
    """Each transport of the command line, assembled from the nonzeros of Z
    and of W_ki^dagger W_lj, equals the dense textbook kron sum
    Z'_ij = sum_kl Z_kl ox W_ki^dagger W_lj on a big cell."""
    eps, r = ((1, -1), (0.3, 0.8)) if N == 2 else ((1, -1, 1), (0.3, 0.8, 1.8))
    rep = gt_rep(N=N, eps=eps, r=r, D=8, margin=4)
    W, interior = {"scale": lambda: scaling_blocks(N, 0.7),
                   "vector": lambda: vector_trep(N, Q0),
                   "uchar": lambda: uchar_blocks((0.2, 0.7)),
                   "s": lambda: suq2_corep_blocks(6, q0=Q0)}[kind]()
    transport = adjoint_transport_T if kind in ("scale", "vector") else adjoint_transport_U
    out = transport(rep, W, interior)
    assert np.iscomplexobj(out.Z.vals) == (kind == "uchar")
    for i in range(N):
        for j in range(N):
            want = sum(np.kron(rep.block(k + 1, l + 1), W[k, i].conj().T @ W[l, j])
                       for k in range(N) for l in range(N))
            assert np.abs(out.block(i + 1, j + 1) - want).max() <= 1e-14 * np.abs(want).max()


# --------------------------------------------------------------------------
# minor braiding against operator exterior powers, and zero-test consistency


@pytest.mark.parametrize("N,eps,r,k,l", [
    (2, (1, -1), (0.3, 0.8), 1, 2),
    (2, (1, 1), (0.25, 1.25), 2, 2),
    (3, (1, -1, 1), (0.3, 0.8, 1.8), 1, 2),
    (3, (1, 1, 1), (0.3, 1.3, 3.3), 2, 2),
])
def test_minor_braiding_exchange_with_operator_powers(N, eps, r, k, l):
    """The braiding of minor blocks exchanges operator exterior powers of
    a triangular corepresentation matrix."""
    from qrea.braid import exterior_power, minor_braiding
    from math import comb

    D, margin = (12, 6) if N == 2 else (8, 4)
    spec = HWModuleSpec(N=N, eps=eps, r=r, D=D, q0=Q0)
    rep = module_rep(spec, margin)
    T = build_hw_module(spec, margin=margin).T
    bk, bl = exterior_power(N, k).basis, exterior_power(N, l).basis
    every = np.ones(rep.dim, dtype=bool)
    Xk = {(A, C): eval_poly(frt_minor(A, C), T, Q0, every) for A in bk for C in bk}
    Xl = {(A, C): eval_poly(frt_minor(A, C), T, Q0, every) for A in bl for C in bl}
    B = minor_braiding(N, k, l)[0].to_numpy(Q0).real
    dim = rep.dim
    dk, dl = comb(N, k), comb(N, l)
    # M[(A,B),(C,D)] = X^k_{AC} X^l_{BD}; M2[(A',B'),(C',D')] = X^l X^k
    M = np.zeros((dk * dl * dim, dk * dl * dim))
    M2 = np.zeros((dl * dk * dim, dl * dk * dim))
    for a, A in enumerate(bk):
        for b, Bs in enumerate(bl):
            for c, C in enumerate(bk):
                for d, Ds in enumerate(bl):
                    M[(a * dl + b) * dim:(a * dl + b + 1) * dim,
                      (c * dl + d) * dim:(c * dl + d + 1) * dim] = Xk[(A, C)] @ Xl[(Bs, Ds)]
    for a, A in enumerate(bl):
        for b, Bs in enumerate(bk):
            for c, C in enumerate(bl):
                for d, Ds in enumerate(bk):
                    M2[(a * dk + b) * dim:(a * dk + b + 1) * dim,
                       (c * dk + d) * dim:(c * dk + d + 1) * dim] = Xl[(A, C)] @ Xk[(Bs, Ds)]
    lhs = np.kron(B, np.eye(dim)) @ M
    rhs = M2 @ np.kron(B, np.eye(dim))
    cols = np.kron(np.ones(dk * dl, dtype=bool), rep.interior)
    resid = np.linalg.norm((lhs - rhs)[:, cols]) / max(1.0, np.linalg.norm(lhs[:, cols]))
    assert resid < 1e-10


def test_rank_zero_build():
    spec = HWModuleSpec(N=2, eps=(), r=(), D=4, q0=Q0)
    rep = build_bigcell_rep(spec, margin=0)
    assert all(np.linalg.norm(rep.block(i, j)) == 0.0 for i in (1, 2) for j in (1, 2))
    assert re_residual(rep) == 0.0
    roots, sig, ext, rank = spectral_data(rep)
    assert rank == 0 and ext.nzero == 2


def test_zero_test_agrees_with_numeric_evaluation():
    """A degree <= 3 element is symbolically zero exactly when it vanishes
    in the explicit N=2 families and the characters."""
    import random as _random
    from qrea.ncalg import is_zero_rea

    rng = _random.Random(99)
    # generic q0: the sampled small-integer coefficients cannot vanish
    # there, so pointwise evaluation detects symbolic nonzeroness
    q0 = 0.43
    reps = [
        n2_family("S_pos", c=1.0, n=2, q0=q0),
        n2_family("S_zero", lam=1.3, D=24, q0=q0, margin=6),
        n2_family("S_neg+", c=1.0, a=2.0, D=24, q0=q0, margin=6),
        n2_family("S_neg-", c=0.7, a=1.5, D=24, q0=q0, margin=6),
        n2_family("char", theta=0.2, c=1.0, a=2.0, q0=q0),
        n2_family("char", theta=0.8, c=0.5, a=1.0, q0=q0),
    ]

    def numeric_zero(p):
        for rep in reps:
            op = eval_poly(p, rep.Z, rep.q0, rep.interior)
            if np.linalg.norm(op) > 1e-8:
                return False
        return True

    gens = [Z(i, j) for i in (1, 2) for j in (1, 2)]
    relations = []
    z, w, v, u = (NCPoly.gen(g) for g in gens)
    from qrea.scalars import qpow
    relations.append(z * w - (w * z).scale(qpow(2)))
    T = z.scale(qpow(1)) + u.scale(qpow(-1))
    D_ = u * z - (v * w).scale(qpow(-2))
    relations.append(T * z - z * T)
    relations.append(D_ * w - w * D_)
    count_zero = count_nonzero = 0
    for trial in range(200):
        if trial % 3 == 0 and relations:
            base = relations[trial % len(relations)]
            g = NCPoly.gen(gens[rng.randrange(4)])
            p = base if trial % 2 else base * g
            if p.degree() > 3:
                p = base
        else:
            terms = NCPoly.zero("REA")
            for _ in range(rng.randint(1, 3)):
                word = [gens[rng.randrange(4)] for _ in range(rng.randint(0, 3))]
                coeff = qpow(rng.randint(-2, 2)) * rng.randint(-3, 3)
                terms = terms + NCPoly.word("REA", word, coeff)
            p = terms
        symbolic = is_zero_rea(p, 2)
        numeric = numeric_zero(p)
        assert symbolic == numeric, p.render()
        count_zero += symbolic
        count_nonzero += not symbolic
    assert count_zero >= 20 and count_nonzero >= 20


def test_transport_size_mismatch():
    rep = n2_family("char", theta=0.0, c=1.0)
    with pytest.raises(DomainError):
        adjoint_transport_T(rep, *vector_trep(3, Q0))
    with pytest.raises(DomainError):
        adjoint_transport_U(rep, *uchar_blocks((0.1, 0.2, 0.3)))
    W, _ = uchar_blocks((0.1, 0.2))
    with pytest.raises(DomainError):
        adjoint_transport_U(rep, W, np.ones(2, dtype=bool))


def test_eval_poly_rejects_tri_polynomials():
    from qrea.ncalg import Tplain

    rep = n2_family("char", theta=0.0, c=1.0)
    with pytest.raises(DomainError):
        eval_poly(NCPoly.gen(Tplain(1, 2)), rep.Z, rep.q0, rep.interior)


def test_znorm_is_computed_once():
    rep = gt_rep(eps=(1, -1), r=(0.3, 0.8), D=12, margin=4)
    assert rep.znorm() is rep.znorm()
    assert sigma_scalars(rep) is sigma_scalars(rep)


# --------------------------------------------------------------------------
# the block scale, and the class without the signature


def scanned_znorm(rep):
    """The largest block norm by a full scan: one SVD of the nonzero
    interior rows of every block."""
    return max(np.linalg.norm(blk[blk.any(axis=1)], 2)
               for line in rep.interior_columns() for blk in line)


def fresh(rep):
    """A copy of a representation with nothing computed yet."""
    return HermitianRep(N=rep.N, Z=rep.Z, interior=rep.interior, q0=rep.q0, spec=rep.spec)


# A big cell of every eps at N=2 and one of every sign class at N=3 (the
# leading sign products up to overall sign): (N, eps, r, D, margin).
SIGN_CELLS = [
    (2, (1, 1), (Fraction(1, 5), Fraction(6, 5)), 14, 6),
    (2, (1, -1), (Fraction(3, 10), Fraction(4, 5)), 14, 6),
    (2, (-1, 1), (Fraction(-4, 5), Fraction(1, 5)), 14, 6),
    (2, (-1, -1), (Fraction(-2, 5), Fraction(-1, 2)), 14, 6),
    (3, (1, 1, 1), (Fraction(3, 10), Fraction(13, 10), Fraction(33, 10)), 12, 6),
    (3, (1, 1, -1), (Fraction(0), Fraction(1), Fraction(1, 3)), 12, 6),
    (3, (1, -1, 1), (Fraction(3, 10), Fraction(4, 5), Fraction(9, 5)), 12, 6),
    (3, (1, -1, -1), (Fraction(3, 10), Fraction(4, 5), Fraction(13, 10)), 12, 6),
]
SIGN_IDS = ["N{}{}".format(N, "".join("+" if e > 0 else "-" for e in eps))
            for N, eps, *_ in SIGN_CELLS]


@functools.lru_cache(maxsize=None)
def sign_cell(cell):
    N, eps, r, D, margin = cell
    return gt_rep(N=N, eps=eps, r=r, D=D, margin=margin)


def transported(N, kind):
    """A transport of each kind of the command line, of the (+,-) or (+,-,+)
    big cell."""
    rep = sign_cell(SIGN_CELLS[1] if N == 2 else SIGN_CELLS[6])
    W, interior = {"scale": lambda: scaling_blocks(N, 0.7),
                   "vector": lambda: vector_trep(N, Q0),
                   "uchar": lambda: uchar_blocks((0.2, 0.7, 0.4)[:N]),
                   "s": lambda: suq2_corep_blocks(8, q0=Q0)}[kind]()
    transport = adjoint_transport_T if kind in ("scale", "vector") else adjoint_transport_U
    return transport(rep, W, interior)


@pytest.mark.parametrize("cell", SIGN_CELLS, ids=SIGN_IDS)
def test_znorm_of_big_cells_is_the_full_scan(cell):
    rep = fresh(sign_cell(cell))
    assert rep.znorm() == scanned_znorm(rep)


@pytest.mark.parametrize("N,kind", [(2, "scale"), (2, "vector"), (2, "uchar"), (2, "s"),
                                    (3, "scale"), (3, "vector"), (3, "uchar")])
def test_znorm_of_transports_is_the_full_scan(N, kind):
    out = transported(N, kind)
    assert out.znorm() == scanned_znorm(out)


@pytest.mark.parametrize("kind,params", [
    ("S_pos", {"c": 1.0, "n": 2}), ("S_pos", {"c": -0.7, "n": 1}), ("S_zero", {"lam": 1.3}),
    ("S_neg+", {"c": 1.0, "a": 2.0}), ("S_neg-", {"c": 1.0, "a": 2.0}),
    ("char", {"theta": 0.2, "c": 1.0, "a": 2.0}), ("zero", {}),
])
def test_znorm_of_n2_families_is_the_full_scan(kind, params):
    rep = n2_family(kind, D=40, q0=Q0, margin=8, **params)
    assert rep.znorm() == scanned_znorm(rep)


@pytest.mark.parametrize("N", [1, 2, 3])
def test_znorm_of_zero_rep(N):
    rep = zero_rep(N)
    assert rep.znorm() == scanned_znorm(rep) == 0.0


@pytest.mark.parametrize("scale", [1e-170, 1e150])
def test_znorm_where_squares_leave_the_float_range(scale):
    """Random blocks scaled so that the squares of their entries underflow
    (1e-170) or overflow (1e150): the bounds are taken on B / max|B|, so no
    block is skipped on a bound of 0 or measured on one of inf."""
    rng = np.random.default_rng(3)
    Z = rng.standard_normal((3, 3, 6, 6)) * scale
    Z[1, 2] *= 7.0
    rep = HermitianRep(N=3, Z=Z, interior=np.arange(6) < 4, q0=Q0)
    assert rep.znorm() == scanned_znorm(rep) > 0.0


def outcome(f):
    """The value of f(), or the type and text of what it raised."""
    try:
        return repr(f())
    except Exception as exc:  # any error is an outcome
        return type(exc), str(exc)


@pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan])
def test_znorm_of_a_block_that_is_not_finite(bad):
    """Where a block has an entry that is not finite, znorm scans every block,
    with the same value or error as the full scan."""
    rep = sign_cell(SIGN_CELLS[1])
    Z = np.array([[rep.block(i, j) for j in (1, 2)] for i in (1, 2)])
    Z[1, 0, 3, 2] = bad
    got = outcome(HermitianRep(N=2, Z=Z, interior=rep.interior, q0=Q0).znorm)
    want = outcome(lambda: scanned_znorm(HermitianRep(N=2, Z=Z, interior=rep.interior, q0=Q0)))
    assert got == want


def test_znorm_skips_blocks_whose_bound_is_below_the_maximum(monkeypatch):
    """On the N=3 vector transport (9 blocks of 327 rows) znorm takes fewer
    SVDs than there are blocks."""
    out = transported(3, "vector")
    out.interior_columns()
    module = inspect.unwrap(np.linalg.norm).__globals__  # where norm finds svd
    svd, calls = module["svd"], []

    def counted(*args, **kwargs):
        calls.append(args[0].shape)
        return svd(*args, **kwargs)

    monkeypatch.setitem(module, "svd", counted)
    out.znorm()
    assert 1 <= len(calls) < out.N ** 2, calls


@pytest.mark.parametrize("cell", SIGN_CELLS + [c for c, _ in SCALED_CELLS],
                         ids=SIGN_IDS + ["N2-r14", "N3-r5", "N3-r9", "N3-D26"])
def test_central_class_is_the_head_of_spectral_data(cell):
    """central_class gives spectral_data's rank, roots and extended signature
    without the leading minors."""
    rep = sign_cell(cell)
    roots, _, ext, rank = spectral_data(fresh(rep))
    assert central_class(fresh(rep)) == (rank, roots, ext)
