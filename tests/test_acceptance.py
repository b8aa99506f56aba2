"""Acceptance suite: every desk-scale verifiable claim, one criterion per
test, each printing a PASS/FAIL line with its elapsed time."""

import itertools
import time
from fractions import Fraction

import numpy as np

from qrea.braid import QMat, build_rhat
from qrea.classify import (
    CharacterParams,
    admissible_roots,
    reflection_defect_exact,
    rmod1_equal,
    star_character_exact,
)
from qrea.gtrep import (
    HWModuleSpec,
    eps_adapted,
    gt_norm_sign,
    patterns,
    scaling_blocks,
    suq2_corep_blocks,
    vector_trep,
)
from qrea.hrep import (
    adjoint_transport_T,
    adjoint_transport_U,
    build_bigcell_rep,
    n2_family,
    re_residual,
    selfadj_residual,
    spectral_components,
    spectral_data,
    uchar_blocks,
    verify_rep,
    zero_rep,
)
from qrea.ncalg import (
    NCPoly,
    Z,
    cayley_hamilton_entries,
    central_sigma,
    FrtSystem,
    is_zero_rea,
    laplace_column_defect,
    laplace_row_defect,
    leading_minor_Z,
    rea_entrywise_defect,
)
from qrea.scalars import qpow, unimodular_point

Q0 = 0.5


def report(num, ok, detail, t0):
    status = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE {num:>2} {status}  {detail}  ({time.time() - t0:.2f}s)")
    assert ok, f"criterion {num}: {detail}"


def test_criterion_01_braid_and_hecke():
    t0 = time.time()
    ok = True
    for N in range(1, 5):
        R, Rinv = build_rhat(N)
        I = QMat.eye(N)
        I2 = QMat.eye(N * N)
        if N >= 2:
            R12, R23 = R.kron(I), I.kron(R)
            ok &= (R12 @ R23 @ R12 == R23 @ R12 @ R23)
        ok &= ((R - I2.scale(qpow(-1))) @ (R + I2.scale(qpow(1)))).is_zero()
        ok &= (R @ Rinv == I2)
    elapsed = time.time() - t0
    ok &= elapsed < 1.0
    report(1, ok, f"braid and Hecke relations exact for N <= 4 in {elapsed:.2f}s < 1s", t0)


def test_criterion_02_rea_relation_suite():
    t0 = time.time()
    ok = True
    for N in (2, 3):
        for i, j, k, l in itertools.product(range(1, N + 1), repeat=4):
            ok &= is_zero_rea(rea_entrywise_defect(i, j, k, l, N), N)
    # the N=2 presentation
    z, w, v, u = (NCPoly.gen(Z(i, j)) for (i, j) in ((1, 1), (1, 2), (2, 1), (2, 2)))
    T = z.scale(qpow(1)) + u.scale(qpow(-1))
    D = u * z - (v * w).scale(qpow(-2))
    ok &= is_zero_rea(z * w - (w * z).scale(qpow(2)), 2)
    ok &= is_zero_rea(v * z - (z * v).scale(qpow(2)), 2)
    ok &= is_zero_rea((v * w).scale(qpow(-2)) + D - T * z.scale(qpow(1))
                      + (z * z).scale(qpow(2)), 2)
    ok &= is_zero_rea((w * v).scale(qpow(-2)) + D - T * z.scale(qpow(-1))
                      + (z * z).scale(qpow(-2)), 2)
    elapsed = time.time() - t0
    ok &= elapsed < 10.0
    report(2, ok, f"entrywise relations at N=2,3 and the N=2 presentation in "
                  f"{elapsed:.2f}s < 10s", t0)


def test_criterion_03_cayley_hamilton():
    t0 = time.time()
    ok = True
    for N in (2, 3):
        for (i, j), p in cayley_hamilton_entries(N).items():
            ok &= is_zero_rea(p, N)
    elapsed = time.time() - t0
    ok &= elapsed < 300.0
    report(3, ok, f"quantum Cayley-Hamilton entrywise exact at N=2,3 in "
                  f"{elapsed:.2f}s < 5min", t0)


def test_criterion_04_centrality_and_minor_qcomm():
    t0 = time.time()
    ok = True
    for N in (2, 3):
        for k in range(1, N + 1):
            s = central_sigma(k, N)
            for i in range(1, N + 1):
                for j in range(1, N + 1):
                    g = NCPoly.gen(Z(i, j))
                    ok &= is_zero_rea(s * g - g * s, N)
        for k in range(1, N + 1):
            mk = leading_minor_Z(k, N)
            for i in range(1, N + 1):
                for j in range(1, N + 1):
                    g = NCPoly.gen(Z(i, j))
                    e = 2 * ((i <= k) - (j <= k))
                    ok &= is_zero_rea(mk * g - (g * mk).scale(qpow(e)), N)
            for l in range(1, k):
                ml = leading_minor_Z(l, N)
                ok &= is_zero_rea(mk * ml - ml * mk, N)
    report(4, ok, "central elements commute and leading minors q-commute, N=2,3", t0)


def test_criterion_05_laplace():
    t0 = time.time()
    ok = True
    for N in (1, 2, 3):
        fs = FrtSystem(N)
        for k in range(1, N + 1):
            for I in itertools.combinations(range(1, N + 1), k):
                for J in itertools.combinations(range(1, N + 1), k):
                    for l in range(1, k + 1):
                        for K in itertools.combinations(range(1, k + 1), l):
                            for Kp in itertools.combinations(range(1, k + 1), l):
                                ok &= fs.straighten(
                                    laplace_row_defect(I, J, K, Kp)).is_zero()
                                ok &= fs.straighten(
                                    laplace_column_defect(I, J, K, Kp)).is_zero()
    report(5, ok, "row and column Laplace expansions exact for N <= 3, all K, K'", t0)


def test_criterion_06_unitarity_classification_sweep():
    t0 = time.time()
    rng = np.random.default_rng(20240817)
    ok = True
    n_cells = 0
    n_adapted = 0
    for N in (2, 3):
        for _ in range(60):
            eps = tuple(int(rng.choice([-1, 1])) for _ in range(N))
            # weights within [-2, 2]: any adaptedness violation then shows a
            # negative norm within total degree 8
            dens = [int(rng.integers(1, 5)) for _ in range(N)]
            r = tuple(Fraction(int(rng.integers(-2 * d, 2 * d + 1)), d) for d in dens)
            spec = HWModuleSpec(N=N, eps=eps, r=r, D=8, q0=Q0)
            adapted = eps_adapted(r, eps)
            nonneg = all(gt_norm_sign(P, spec) >= 0 for P in patterns(N, 8))
            ok &= (nonneg == adapted)
            n_cells += 1
            n_adapted += adapted
    ok &= n_cells >= 100 and n_adapted >= 3 and n_adapted <= n_cells - 3
    report(6, ok, f"norm positivity iff adaptedness on {n_cells} seeded cells "
                  f"({n_adapted} adapted)", t0)


GT_CASES = [
    (2, (1, -1), (Fraction(3, 10), Fraction(4, 5))),
    (2, (1, 1), (Fraction(1, 4), Fraction(5, 4))),
    (2, (-1, -1), (Fraction(-1, 2), Fraction(1, 2))),
    (3, (1, -1, 1), (Fraction(3, 10), Fraction(4, 5), Fraction(9, 5))),
    (3, (1, 1, -1), (Fraction(0), Fraction(1), Fraction(1, 3))),
]


def _gt_reps():
    out = []
    for N, eps, r in GT_CASES:
        spec = HWModuleSpec(N=N, eps=eps, r=r, D=12, q0=Q0)
        out.append(build_bigcell_rep(spec, margin=4 * N))
    return out


def test_criterion_07_representation_residuals():
    t0 = time.time()
    ok = True
    worst = 0.0
    for rep in _gt_reps():
        worst = max(worst, re_residual(rep), selfadj_residual(rep))
    ok &= worst < 1e-9
    report(7, ok, f"reflection-equation and self-adjointness residuals "
                  f"{worst:.2e} < 1e-9 at D=12, margin=4N", t0)


def test_criterion_08_harish_chandra_consistency():
    t0 = time.time()
    ok = True
    worst_s, worst_r = 0.0, 0.0
    for rep in _gt_reps():
        for f in verify_rep(rep):
            if f["name"].endswith("hc_match"):
                worst_s = max(worst_s, f["residual"])
        spec = rep.spec
        roots, _, _, _ = spectral_data(rep)
        eps_pad = spec.eps_padded
        lead = 1
        want = []
        for m in range(1, spec.N + 1):
            lead *= eps_pad[m - 1]
            want.append(lead * Q0 ** float(2 * (spec.r_padded[m - 1] + m) - 2))
        want = sorted(want, reverse=True)
        worst_r = max(worst_r, max(abs(a - b) / max(1.0, abs(b))
                                   for a, b in zip(roots, want)))
    ok &= worst_s < 1e-10 and worst_r < 1e-9
    report(8, ok, f"central scalars match the diagonal projection to "
                  f"{worst_s:.2e} < 1e-10; roots match to {worst_r:.2e} < 1e-9", t0)


def test_criterion_09_spectral_admissibility():
    t0 = time.time()
    ok = True
    reps = _gt_reps() + [
        n2_family("S_pos", c=1.0, n=2),
        n2_family("S_zero", lam=1.3, D=30),
        n2_family("S_neg+", c=1.0, a=2.0, D=30),
        n2_family("char", theta=0.25, c=1.0, a=2.0),
        zero_rep(2),
    ]
    for rep in reps:
        roots, _, ext, _ = spectral_data(rep)   # raises if inadmissible
        ok &= admissible_roots(roots, Q0) is not None
    ok &= admissible_roots([1.0, 1.0, 0.0], Q0) is None
    ok &= admissible_roots([1.0, Q0, 0.0], Q0) is None
    report(9, ok, "every built representation has an admissible spectrum; "
                  "handcrafted inadmissible multisets rejected", t0)


def test_criterion_10_n2_completeness():
    t0 = time.time()
    ok = True
    worst = 0.0
    cases = [
        (n2_family("S_pos", c=1.0, n=2), [Q0 ** 3, Q0 ** -3]),
        (n2_family("S_pos", c=-0.8, n=0), [-0.8 * Q0, -0.8 / Q0]),
        (n2_family("S_zero", lam=1.3, D=40), [0.0, 1.3]),
        (n2_family("S_neg+", c=1.2, a=1.7, D=40), [1.2 * 1.7, -1.2 / 1.7]),
        (n2_family("S_neg-", c=1.2, a=1.7, D=40), [1.2 * 1.7, -1.2 / 1.7]),
        (n2_family("char", theta=0.3, c=1.2, a=1.7), [1.2 * 1.7, -1.2 / 1.7]),
        (zero_rep(2), [0.0, 0.0]),
    ]
    for rep, td_roots in cases:
        res = {f["name"]: f["residual"] for f in verify_rep(rep, tol=1e-10)}
        worst = max(worst, res["reflection_equation"], res["self_adjoint"],
                    res["cayley_hamilton"])
        roots, _, _, _ = spectral_data(rep)
        want = sorted((Q0 * x for x in td_roots), reverse=True)
        ok &= np.allclose(roots, want, rtol=1e-8, atol=1e-10)
    ok &= worst < 1e-10
    report(10, ok, f"all N=2 families verify (worst residual {worst:.2e} < 1e-10) "
                   "with the expected central characters", t0)


def test_criterion_11_sylvester_invariance():
    t0 = time.time()
    ok = True
    rep = build_bigcell_rep(
        HWModuleSpec(N=2, eps=(1, -1), r=(Fraction(3, 10), Fraction(4, 5)), D=14, q0=Q0),
        margin=6,
    )
    _, _, ext0, rank0 = spectral_data(rep)

    out = adjoint_transport_T(rep, *scaling_blocks(2, 0.7))
    _, _, ext1, rank1 = spectral_data(out)
    ok &= rank1 == rank0 and ext1.counts() == ext0.counts()
    ok &= rmod1_equal(ext1.rmod1, ext0.rmod1, 1e-8)

    out = adjoint_transport_T(rep, *vector_trep(2, Q0))
    comps = spectral_components(out)
    ok &= len(comps) >= 2
    for _, _, ext, _ in comps:
        ok &= ext.counts() == ext0.counts()
        ok &= rmod1_equal(ext.rmod1, ext0.rmod1, 1e-8)

    out = adjoint_transport_U(rep, *uchar_blocks((0.2, 0.7)))
    _, _, ext2, _ = spectral_data(out)
    ok &= ext2.counts() == ext0.counts() and rmod1_equal(ext2.rmod1, ext0.rmod1, 1e-8)

    # mixed-sign character transported by the standard quantum-SU(2)
    # representation exhibits both sign patterns in the Z_[1] spectrum
    char = n2_family("char", theta=0.0, c=1.0, a=2.0)
    U, u_int = suq2_corep_blocks(40, Q0)
    moved = adjoint_transport_U(char, U, u_int)
    eigs = np.linalg.eigvalsh(moved.block(1, 1)[np.ix_(moved.interior, moved.interior)])
    ok &= bool((eigs > 1e-8).any() and (eigs < -1e-8).any())
    report(11, ok, "extended signature invariant under triangular and unitary "
                   "transports; sign mixing under the quantum-SU(2) transport", t0)


def test_criterion_12_character_generator():
    t0 = time.time()
    rng = np.random.default_rng(7)
    ok = True
    checked = 0
    for N in (2, 3, 4):
        for k in range(N + 1):
            for l in range((N - k) // 2 + 1):
                if k + 2 * l > N:
                    continue
                for _ in range(2):
                    a = Fraction(int(rng.integers(1, 9)), int(rng.integers(1, 9)))
                    c = Fraction(int(rng.integers(1, 9)), int(rng.integers(1, 9)))
                    if rng.integers(0, 2):
                        c = -c
                    y = tuple(unimodular_point(Fraction(int(rng.integers(-9, 9)),
                                                        int(rng.integers(1, 9))))
                              for _ in range(l))
                    p = CharacterParams(k=k, l=l, a=a, c=c, y=y)
                    ok &= reflection_defect_exact(star_character_exact(p, N), N).is_zero()
                    checked += 1
    # the nine N=4 support shapes
    shapes = {
        (4, 0): set(),
        (3, 0): {(4, 4)},
        (2, 0): {(3, 3), (4, 4)},
        (1, 0): {(2, 2), (3, 3), (4, 4)},
        (0, 0): {(1, 1), (2, 2), (3, 3), (4, 4)},
        (2, 1): {(3, 4), (4, 3), (4, 4)},
        (1, 1): {(2, 4), (4, 2), (3, 3), (4, 4)},
        (0, 1): {(1, 4), (4, 1), (2, 2), (3, 3), (4, 4)},
        (0, 2): {(1, 4), (4, 1), (2, 3), (3, 2), (3, 3), (4, 4)},
    }
    for (k, l), want in shapes.items():
        y = tuple(unimodular_point(Fraction(1, t + 2)) for t in range(l))
        M = star_character_exact(CharacterParams(k=k, l=l, a=2, c=1, y=y), 4).to_numpy(Q0)
        got = {(i + 1, j + 1) for i in range(4) for j in range(4) if abs(M[i, j]) > 1e-14}
        ok &= got == want
    report(12, ok, f"{checked} exact reflection-equation checks of the character "
                   "family for N <= 4, and the nine N=4 shapes", t0)
