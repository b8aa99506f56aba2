import random
from fractions import Fraction

import numpy as np
import pytest

from qrea.braid import QMat, build_rhat, re_table
from qrea.classify import (
    CharacterParams,
    admissible_roots,
    canonical_weight,
    ext_signature,
    reflection_defect_exact,
    rmod1_equal,
    star_character_exact,
)
from qrea.errors import DomainError, NotAdmissible, SignMismatch
from qrea.scalars import GaussRational, laurent, unimodular_point
from re_oracle import table_sides

Q0 = 0.5


def test_admissible_basic():
    dec = admissible_roots([1.0, Q0 ** 2, 0.0], Q0)
    assert dec is not None
    assert dec.ms == (0, 1) and dec.ns == () and dec.nzero == 1
    assert dec.alpha == pytest.approx(0.0)


def test_admissible_rejects_multiplicity():
    assert admissible_roots([1.0, 1.0, 0.0], Q0) is None


def test_admissible_rejects_odd_lattice():
    assert admissible_roots([1.0, Q0, 0.0], Q0) is None


def test_admissible_domain():
    with pytest.raises(DomainError):
        admissible_roots([1.0], 1.5)


def test_ext_signature_examples():
    e = ext_signature([Q0 ** 0.6, -Q0 ** 1.6, 0.0], Q0)
    assert (e.nplus, e.nminus, e.nzero) == (1, 1, 1)
    assert rmod1_equal(e.rmod1, 0.5)
    e = ext_signature([Q0 ** 2, Q0 ** 4], Q0)
    assert (e.rmod1, e.nplus, e.nminus, e.nzero) == (0.0, 2, 0, 0)
    e = ext_signature([0.0, 0.0, 0.0], Q0)
    assert (e.rmod1, e.nplus, e.nminus, e.nzero) == (0.0, 0, 0, 3)
    with pytest.raises(NotAdmissible):
        ext_signature([1.0, Q0], Q0)


def test_ext_signature_scale_invariant():
    # in the second list one root is about 3e-8 of the largest
    for roots in ([Q0 ** 0.8, -Q0 ** 2.3, 0.0], [Q0 ** 0.8, -Q0 ** 2.3, Q0 ** 24.8, 0.0]):
        e1 = ext_signature(roots, Q0)
        for t in (1e-6, 0.3, 2.0, 7.7, 1e6):
            e2 = ext_signature([t * x for x in roots], Q0)
            assert rmod1_equal(e1.rmod1, e2.rmod1)
            assert e1.counts() == e2.counts()


def test_canonical_weight_examples():
    alpha, beta = 0.3, 0.8
    roots = [Q0 ** (2 * alpha), -Q0 ** (2 * beta + 2)]
    r = canonical_weight(roots, (1, -1), Q0)
    assert r[0] == pytest.approx(alpha)
    assert r[1] == pytest.approx(beta)
    r = canonical_weight([Q0 ** (2 * alpha)], (1,), Q0)
    assert r[0] == pytest.approx(alpha)
    # two positive roots with m = {0, 1}: adapted ordering has integer gaps
    roots = [Q0 ** (2 * alpha), Q0 ** (2 * alpha + 2)]
    r = canonical_weight(roots, (1, 1), Q0)
    gaps = (r[1] + 2) - (r[0] + 1)
    assert gaps == pytest.approx(round(gaps)) and round(gaps) >= 1
    with pytest.raises(SignMismatch):
        canonical_weight(roots, (1, -1), Q0)


def character_matrix(N, **params):
    return star_character_exact(CharacterParams(**params), N).to_numpy(Q0)


def test_star_character_n4_shape():
    y0 = unimodular_point(Fraction(1, 3))
    M = character_matrix(4, k=0, l=1, a=2, c=3, y=(y0,))
    y0 = complex(float(y0.re), float(y0.im))
    want = 3.0 * np.array([
        [0, 0, 0, y0],
        [0, 2.0, 0, 0],
        [0, 0, 2.0, 0],
        [np.conj(y0), 0, 0, 2.0 - 0.5],
    ])
    assert np.allclose(M, want)


def test_star_character_zero_and_diagonal():
    M = character_matrix(4, k=4, l=0, a=1, c=5, y=())
    assert np.allclose(M, 0.0)
    M = character_matrix(3, k=0, l=0, a=2, c=1, y=())
    assert np.allclose(M, 2.0 * np.eye(3))


def test_star_character_n2_matches_family_shape():
    M = character_matrix(2, k=0, l=1, a=1, c=1, y=(unimodular_point(0),))
    assert np.allclose(M, np.array([[0, 1], [1, 0]]))


def test_star_character_param_validation():
    one = unimodular_point(0)
    with pytest.raises(DomainError):
        CharacterParams(k=2, l=1, a=1, c=1, y=(one,)).validate(3)
    with pytest.raises(DomainError):
        CharacterParams(k=0, l=1, a=-1, c=1, y=(one,)).validate(4)
    with pytest.raises(DomainError):
        CharacterParams(k=0, l=1, a=1, c=0, y=(one,)).validate(4)
    with pytest.raises(DomainError):
        CharacterParams(k=0, l=1, a=1, c=1, y=(GaussRational(2, 0),)).validate(4)
    with pytest.raises(DomainError):  # phases are exact
        CharacterParams(k=0, l=1, a=1, c=1, y=(1 + 0j,)).validate(4)


def test_star_character_exact_reflection_equation():
    # every character matrix satisfies the reflection equation exactly
    for N in (2, 3, 4):
        for k in range(N + 1):
            for l in range((N - k) // 2 + 1):
                if k + 2 * l > N:
                    continue
                y = tuple(unimodular_point(Fraction(t + 1, 3)) for t in range(l))
                p = CharacterParams(k=k, l=l, a=Fraction(3, 2), c=Fraction(-2, 5), y=y)
                Z = star_character_exact(p, N)
                assert reflection_defect_exact(Z, N).is_zero(), (N, k, l)


def _random_coefficient(rng):
    num, den = rng.randint(-9, 9), rng.randint(1, 9)
    if rng.random() < 0.4:
        return GaussRational(Fraction(num, den), Fraction(rng.randint(1, 9), rng.randint(1, 9)))
    return Fraction(num, den)


def _random_z(rng, N, density):
    """A seeded exact N x N matrix with rational, Gaussian-rational and q^1
    entries, some of them q-polynomials."""
    Z = QMat(N, N)
    for i in range(N):
        for j in range(N):
            if rng.random() < density:
                Z[(i, j)] = sum((laurent(_random_coefficient(rng), k) for k in (0, 1)
                                 if rng.random() < 0.7), laurent(0))
    return Z


def _character(rng, N):
    k = rng.randint(0, N - 1)
    l = rng.randint(0, (N - k) // 2)
    y = tuple(unimodular_point(Fraction(rng.randint(-9, 9), rng.randint(1, 9)))
              for _ in range(l))
    p = CharacterParams(k=k, l=l, a=Fraction(rng.randint(1, 9), rng.randint(1, 9)),
                        c=Fraction(rng.randint(1, 9), rng.randint(1, 9)), y=y)
    return star_character_exact(p, N)


def _perturbed(rng, Z, N):
    """Z plus a random exact term in one entry, redrawn until the sum is no
    longer a solution (some terms keep it one: diag(0, a) + x E_12 is)."""
    while True:
        out = QMat(N, N, Z.entries)
        ij = (rng.randrange(N), rng.randrange(N))
        out[ij] = out[ij] + laurent(_random_coefficient(rng), rng.choice((0, 1)))
        if not _textbook_defect(out, N).is_zero():
            return out


def _textbook_defect(Z, N):
    R, _ = build_rhat(N)
    Z2 = QMat.eye(N).kron(Z)
    return R @ Z2 @ R @ Z2 - Z2 @ R @ Z2 @ R


@pytest.mark.parametrize("N", [2, 3, 4])
def test_reflection_defect_matches_textbook(N):
    """The defect on cleared denominators, scaled back, is the defect of Z:
    on characters, perturbed characters and random exact matrices."""
    rng = random.Random(1000 + N)
    characters = [_character(rng, N) for _ in range(3)]
    perturbed = [_perturbed(rng, Z, N) for Z in characters]
    others = [_random_z(rng, N, density) for density in (0.5, 1.0)]
    for Z in characters + perturbed + others:
        assert reflection_defect_exact(Z, N) == _textbook_defect(Z, N)
    assert all(_textbook_defect(Z, N).is_zero() for Z in characters)


@pytest.mark.parametrize("N", [2, 3, 4])
def test_reflection_defect_is_the_re_tensor(N):
    """The RE tensor spread from ``re_table``, contracted with Z ox Z, is
    the matrix form of the defect, entry for entry: on characters (defect
    zero) and random exact matrices."""
    rng = random.Random(2000 + N)
    lhs, rhs = table_sides(re_table(N), N)
    C = (lhs - rhs).reshape(N * N, N * N, N ** 4)
    for Z in [_character(rng, N), _random_z(rng, N, 0.5), _random_z(rng, N, 1.0)]:
        z = np.array([[Z[(b, c)] for c in range(N)] for b in range(N)], dtype=object)
        got = C @ np.multiply.outer(z, z).reshape(N ** 4)
        want = reflection_defect_exact(Z, N)
        assert all(got[x, y] == want[(x, y)] for x in range(N * N) for y in range(N * N))


def test_weight_roundtrip_through_spectral_data():
    """building at an adapted weight and classifying the spectrum recovers
    the weight through the canonical assignment"""
    from qrea.gtrep import HWModuleSpec
    from qrea.hrep import build_bigcell_rep, spectral_data

    cases = [
        ((1, -1), (0.3, 0.8)),
        ((1, 1), (0.25, 1.25)),
        ((-1, -1), (-0.5, 0.5)),
        ((-1, 1), (0.7, 0.7)),
    ]
    for eps, r in cases:
        spec = HWModuleSpec(N=2, eps=eps, r=r, D=12, q0=Q0)
        rep = build_bigcell_rep(spec, margin=4)
        roots, _, _, _ = spectral_data(rep)
        got = canonical_weight(roots, eps, Q0)
        assert np.allclose(got, [float(x) for x in r], atol=1e-9), (eps, r, got)
        # equivalently, the root multisets agree exactly
        lead, want = 1, []
        for k, e in enumerate(eps, start=1):
            lead *= e
            want.append(lead * Q0 ** (2 * (float(r[k - 1]) + k) - 2))
        assert np.allclose(sorted(roots, reverse=True), sorted(want, reverse=True),
                           rtol=1e-9)


def test_sylvester_chain_connects_equal_extsig():
    """two builds with equal extended signature are connected by a scaling
    plus a finite transport whose endpoint components hit the target
    spectral weight"""
    from fractions import Fraction

    from qrea.gtrep import HWModuleSpec, detect_finite, scaling_blocks
    from qrea.hrep import (adjoint_transport_T, build_bigcell_rep,
                           spectral_components, spectral_data)

    q0 = Q0
    r_a = (Fraction(3, 10), Fraction(4, 5))     # alpha=0.3, beta=0.8
    r_b = (Fraction(11, 20), Fraction(41, 20))  # alpha=0.55, beta=2.05
    rep_a = build_bigcell_rep(HWModuleSpec(N=2, eps=(1, -1), r=r_a, D=14, q0=q0),
                              margin=6)
    rep_b = build_bigcell_rep(HWModuleSpec(N=2, eps=(1, -1), r=r_b, D=14, q0=q0),
                              margin=6)
    roots_a, _, ext_a, _ = spectral_data(rep_a)
    roots_b, _, ext_b, _ = spectral_data(rep_b)
    assert ext_a.counts() == ext_b.counts()
    assert rmod1_equal(ext_a.rmod1, ext_b.rmod1)

    # scale so the positive roots align (alpha 0.3 -> 0.55), then transport
    # by the finite two-dimensional module with highest weight (0, 1),
    # which shifts one weight slot up by one
    scaled = adjoint_transport_T(rep_a, *scaling_blocks(2, q0 ** 0.25))
    trep = detect_finite(HWModuleSpec(N=2, eps=(1, 1), r=(Fraction(0), Fraction(1)),
                                      D=6, q0=q0))
    assert trep is not None and trep.dim == 2 and trep.interior.all()
    moved = adjoint_transport_T(scaled, trep.T.columns(trep.interior), trep.interior)
    comps = spectral_components(moved)
    hit = any(
        np.allclose(sorted(roots, reverse=True), sorted(roots_b, reverse=True),
                    rtol=1e-7, atol=1e-10)
        for _, roots, _, _ in comps
    )
    assert hit, [np.round(c[1], 6) for c in comps]
    for _, _, ext, _ in comps:
        assert ext.counts() == ext_a.counts()
        assert rmod1_equal(ext.rmod1, ext_a.rmod1, 1e-8)
