"""Operator representations of the quantized Hermitian matrix algebra.

A representation is an N x N block matrix Z of operators on a truncated
space, self-adjoint on the interior, satisfying the reflection equation.
Sources: big-cell builds from highest-weight modules, the explicit N=2
families, scalar *-characters, and adjoint transports by triangular or
unitary quantum-group representations.

Z is sparse (a big cell's blocks are about 1% dense, with a few nonzeros per
row) and is held as one ``RowBlocks`` layout (``gtrep.RowBlocks``, the
layout of a module's T blocks too): for each block Z_ij and each row, the
column indices and values of its nonzeros, padded with value 0 to the
width of the widest row, in two (N, N, dim, w) arrays.  A block acts on
a dense (dim, k) matrix by gathering the rows of the matrix that its
nonzeros name (``RowBlocks.__matmul__``).  Dense arrays are made only of
interior columns: ``HermitianRep.interior_columns`` forms them once and
keeps them, and every check starts from that copy.  The block products of
``re_residual`` and of the Cayley-Hamilton check are formed a chunk of
interior columns at a time, so that their temporaries stay near
CHUNK_FLOATS numbers; ``braid.re_tensor`` weighs those of ``re_residual``.

A transport parameter is a small dense (N, N, m, m) block array W and the
bool mask of its interior basis vectors (``gtrep.scaling_blocks``,
``gtrep.vector_trep``, ``uchar_blocks``, ``gtrep.suq2_corep_blocks``); the
transported interior is the Kronecker product of the two masks.

Every check and every classifying datum is measured from Z, the same way
for every source, on the interior columns: the basis vectors at least a
margin below the truncation cap (basis vector 0, for a big cell the
highest-weight vector, is the first).  A residual is the Frobenius norm of
a defect of degree k in Z on them over znorm**k (``_relative``), so that
Z -> c^2 Z keeps it at any scale.  A margin of at least twice the word
length keeps truncation junk out of them.  The quantum-SU(2)
corepresentation needs only the word length, 2: in the words read here its
letters reach at most one level per letter above the column they start
from (``gtrep.suq2_corep_blocks``).  A big cell's Z is the Gram of its
module (``gtrep.HWModule.gram``), in float64, held on the reach of the
interior only: the basis vectors within N steps of it in Z's sparsity
graph.  Every check applies words of at most N letters to interior
columns, so it reads no entry outside reach x reach, and those entries are
the module's own, bit for bit.  A transport of such a Z is built on the
reach too, and ``TRANSPORT_DIM_CAP`` counts its reach rows times m.

One evaluator, ``eval_poly``, applies exact polynomials to the columns of
a mask: REA polynomials (central elements, leading minors) on Z, and FRT
quantum minors on a module's T blocks in the same layout, whose products
give the minors of Z = T* E T.

On signatures: the signature is measured, never copied from the input.
On a big cell the k-th leading minor acts with definite sign
eps_[1] ... eps_[k]; the classifying sign vector eta_k = eps_[k] is the
ratio of consecutive minor signs, and coincides with the signs of the
spectral-weight roots.  Classification is scale-free, so Z -> c^2 Z keeps
the class: a quantity of degree k in Z counts as zero when it is at most
ZERO_TOL relative to znorm**k, by the same ``_relative`` rule, and a root
below about ZERO_TOL of the scale reads as 0.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field

import numpy as np

from . import classify as _classify
from .braid import _leading_signs, build_rhat, re_tensor
from .errors import BadCorep, DomainError, NotFactorial
from .gtrep import SCALE_EXP2, HWModuleSpec, RowBlocks, build_hw_module
from .ncalg import NCPoly, central_sigma, leading_minor_Z, letter_indices

__all__ = [
    "RowBlocks",
    "HermitianRep",
    "build_bigcell_rep",
    "n2_family",
    "zero_rep",
    "eval_poly",
    "re_residual",
    "selfadj_residual",
    "verify_rep",
    "sigma_scalars",
    "central_class",
    "spectral_data",
    "spectral_components",
    "adjoint_transport_T",
    "adjoint_transport_U",
    "uchar_blocks",
]

TRANSPORT_DIM_CAP = 20000
ZERO_TOL = 1e-8    # zero decisions, relative to znorm**k at degree k
EXACT_TOL = 1e-7   # joint eigenvector defects, relative to znorm**k
CHUNK_FLOATS = 1 << 18  # numbers in the largest temporary of a chunk of block products
BOUND_SLACK = 1e-6  # relative, above the rounding of a block-norm bound (``znorm``)


@dataclass
class HermitianRep:
    """Block operator matrix Z with truncation-interior bookkeeping.

    ``Z`` is a ``RowBlocks`` layout of shape (N, N, dim, w), block Z_ij at
    ``Z[i - 1, j - 1]``; a dense (N, N, dim, dim) array or a nested list of
    blocks is converted on construction, and ``block`` gives one block
    dense.  ``Z`` and ``interior`` are not mutated after construction.
    """

    N: int
    Z: RowBlocks
    interior: np.ndarray        # bool mask over the basis
    q0: float
    spec: HWModuleSpec | None = None   # present for big-cell builds
    _znorm: float | None = field(default=None, init=False, repr=False, compare=False)
    _sigma: tuple | None = field(default=None, init=False, repr=False, compare=False)
    _inner: np.ndarray | None = field(default=None, init=False, repr=False, compare=False)

    def __post_init__(self):
        if not isinstance(self.Z, RowBlocks):
            self.Z = RowBlocks.from_dense(self.Z)

    @property
    def dim(self) -> int:
        return self.Z.dim

    def block(self, i: int, j: int) -> np.ndarray:
        return self.Z[i - 1, j - 1].columns(np.ones(self.dim, dtype=bool))

    def interior_columns(self) -> np.ndarray:
        """``Z.columns(interior)``, the (N, N, dim, interior.sum()) array of
        every block's interior columns.  Formed on the first call and kept,
        since Z and ``interior`` do not change."""
        if self._inner is None:
            self._inner = self.Z.columns(self.interior)
        return self._inner

    def znorm(self) -> float:
        """Largest block norm measured on interior columns (the boundary of
        a truncation carries unbounded triangular junk by design), from the
        nonzero rows of each block.  Computed on the first call and kept.

        A block's norm is at most min(|B|_F, sqrt(|B|_1 |B|_inf)) (Golub and
        Van Loan, Matrix Computations, 2.3).  The blocks are measured in
        decreasing order of that bound, up to the first whose bound times
        1 + BOUND_SLACK is below the largest norm so far.  The slack is far
        above the rounding of the bound and of the SVD (about n eps, 1e-9
        for blocks of 7,205 rows), so every block left unmeasured has a
        computed norm below that largest one: the result is the same float
        as the maximum over all blocks, and no residual, decision or key
        divided by it moves.  Where a bound is not finite, every block is
        measured, so that the value or the error is that of the full scan."""
        if self._znorm is None:
            blocks = [blk for line in self.interior_columns() for blk in line]
            with np.errstate(all="ignore"):
                bounds = np.array([_norm_bound(blk) for blk in blocks])
            if not np.isfinite(bounds).all():
                self._znorm = max(map(_block_norm, blocks))
            else:
                best = -math.inf
                for k in np.argsort(-bounds, kind="stable"):
                    if bounds[k] * (1 + BOUND_SLACK) < best:
                        break
                    best = max(best, _block_norm(blocks[k]))
                self._znorm = best
        return self._znorm


def _block_norm(blk: np.ndarray) -> float:
    """The spectral norm of a block's nonzero rows."""
    return np.linalg.norm(blk[blk.any(axis=1)], 2)


def _norm_bound(blk: np.ndarray) -> float:
    """min(|B|_F, sqrt(|B|_1 |B|_inf)), an upper bound of the spectral norm,
    taken on B / max|B|, so that no sum of squares underflows or overflows."""
    a = np.abs(blk)
    top = float(a.max(initial=0.0))
    if not 0.0 < top < math.inf:
        return top  # a zero block, or one with an entry that is not finite
    a /= top
    norm_1, norm_inf = (float(a.sum(axis=k).max()) for k in (0, 1))
    return top * min(float(np.linalg.norm(a)), math.sqrt(norm_1 * norm_inf))


def _relative(defect, znorm: float, k: int):
    """defect / znorm**k for a defect of degree k in Z (scale 1 for Z = 0)."""
    return defect / (znorm or 1.0) ** k


def _column_chunks(n: int, per_column: int) -> list:
    """Slices of n columns such that a temporary of per_column numbers for
    each column stays below CHUNK_FLOATS (at least one column each)."""
    step = max(1, CHUNK_FLOATS // max(1, per_column))
    return [slice(k, k + step) for k in range(0, n, step)]


def _identity_entries(mask: np.ndarray):
    """Where the columns of the identity that the bool mask selects are 1."""
    return np.flatnonzero(mask), np.arange(np.count_nonzero(mask))


# ---------------------------------------------------------------------------
# constructions


def build_bigcell_rep(spec: HWModuleSpec, margin: int | None = None) -> HermitianRep:
    """Z = T^dagger E_eps T on a truncated highest-weight module, held on the
    reach of the interior (``gtrep.HWModule.gram``): the basis vectors within
    N steps of it, in module order, with the interior re-indexed to them.

    Entrywise Z_ij = sum over rows m <= min(i,j) of eps_[m] T[m,i]* T[m,j];
    its rank is M and its signature eta_k = eps_[k], k <= M, which
    ``spectral_data`` measures from Z.
    """
    mod = build_hw_module(spec, margin=margin)
    Z, reach = mod.gram()
    return HermitianRep(N=spec.N, Z=Z, interior=mod.interior[reach], q0=spec.q0, spec=spec)


def zero_rep(N: int, q0: float = 0.5) -> HermitianRep:
    return HermitianRep(N=N, Z=np.zeros((N, N, 1, 1)), interior=np.array([True]), q0=q0)


def _shift_family(zs, T0, D0, q0):
    """Common weighted-shift construction for the N=2 families.

    z is diagonal with entries zs; the lowering entry v satisfies
    w v = q^2 (-D0 + q^{-1} T0 z - q^{-2} z^2) with w = v^dagger, and
    u = q T0 - q^2 z.
    """
    dim = len(zs)
    z = np.diag(np.asarray(zs, dtype=float))
    wv = q0 ** 2 * (-D0 + T0 * zs / q0 - zs ** 2 / q0 ** 2)
    v = np.zeros((dim, dim))
    for k in range(1, dim):
        val = wv[k]
        if val < -1e-12 * max(1.0, abs(D0)):
            raise DomainError("family parameters produce a negative norm")
        v[k - 1, k] = np.sqrt(max(val, 0.0))
    u = q0 * T0 * np.eye(dim) - q0 ** 2 * z
    return z, v, u


def n2_family(kind: str, D: int = 40, q0: float = 0.5, margin: int = 8, **params) -> HermitianRep:
    """The explicit irreducible N=2 representations.

    kind: 'S_pos' (c != 0, n >= 0; dimension n+1), 'S_zero' (lam != 0),
    'S_neg+' / 'S_neg-' (c > 0, a > 0), 'char' (theta, c > 0, a > 0,
    default a = 1), or 'zero'.
    """
    if kind == "zero":
        return zero_rep(2, q0)
    if kind == "char":
        theta = float(params.get("theta", 0.0))
        c = float(params["c"])
        a = float(params.get("a", 1.0))
        if c <= 0 or a <= 0:
            raise DomainError("char family needs c > 0, a > 0")
        ph = np.exp(2j * np.pi * theta)
        Z = np.array([[0.0, q0 * c * np.conj(ph)],
                      [q0 * c * ph, q0 * c * (a - 1 / a)]]).reshape(2, 2, 1, 1)
        return HermitianRep(N=2, Z=Z, interior=np.array([True]), q0=q0)
    if kind == "S_pos":
        c, n = float(params["c"]), int(params["n"])
        if c == 0 or n < 0:
            raise DomainError("S_pos needs c != 0 and n >= 0")
        zs = np.array([c * q0 ** (-n + 2 * k) for k in range(n + 1)])
        T0 = c * (q0 ** (n + 1) + q0 ** (-n - 1))
        D0 = c * c
        interior = np.ones(n + 1, dtype=bool)
    elif kind == "S_zero":
        lam = float(params["lam"])
        if lam == 0:
            raise DomainError("S_zero needs lam != 0")
        zs = np.array([lam * q0 ** (2 * k + 1) for k in range(D + 1)])
        T0, D0 = lam, 0.0
        interior = np.arange(D + 1) <= D - margin
    elif kind in ("S_neg+", "S_neg-"):
        c, a = float(params["c"]), float(params["a"])
        if c <= 0 or a <= 0:
            raise DomainError("S_neg needs c > 0, a > 0")
        s = 1.0 if kind == "S_neg+" else -1.0
        zs = np.array([s * c * a ** s * q0 ** (2 * k + 1) for k in range(D + 1)])
        T0, D0 = c * (a - 1 / a), -c * c
        interior = np.arange(D + 1) <= D - margin
    else:
        raise DomainError(f"unknown family kind {kind!r}")
    z, v, u = _shift_family(zs, T0, D0, q0)
    return HermitianRep(N=2, Z=np.array([[z, v.T], [v, u]]), interior=interior, q0=q0)


# ---------------------------------------------------------------------------
# evaluation of symbolic polynomials on blocks


def eval_poly(p: NCPoly, blocks: RowBlocks, q0: float, cols: np.ndarray,
              first: np.ndarray | None = None) -> np.ndarray:
    """Evaluate an REA or FRT polynomial on the columns that the bool mask
    ``cols`` selects, for an (N, N, dim, w) ``RowBlocks`` layout;
    ``first`` is ``blocks.columns(cols)`` where the caller holds it.

    The generator Z[i,j] or X[i,j] acts as ``blocks[i - 1, j - 1]`` (Z, or
    the stacked T blocks of a module) and coefficients are evaluated at q0.
    Each word is applied right to left: its last letter gives the selected
    columns of that block, and each other letter acts on them by gather.
    So the result is the (dim, cols.sum()) matrix of those columns of the
    polynomial; it is real when the blocks and the coefficients are.
    """
    if p.algebra not in ("REA", "FRT"):
        raise DomainError(f"cannot evaluate a {p.algebra} polynomial on blocks")
    terms = [(word, coeff.eval(q0)) for word, coeff in p.terms.items()]
    if first is None:
        first = blocks.columns(cols)
    out = np.zeros(first.shape[2:], dtype=np.result_type(first, *(c for _, c in terms)))
    for word, c in terms:
        M = None
        for code in reversed(word):
            i, j = letter_indices(code)
            M = first[i - 1, j - 1] if M is None else blocks[i - 1, j - 1] @ M
        if M is None:  # the empty word: the selected columns of the identity
            out[_identity_entries(cols)] += c
        else:
            out += c * M
    return out


# ---------------------------------------------------------------------------
# residuals


def re_residual(rep: HermitianRep) -> float:
    """Relative interior residual of R Z2 R Z2 - Z2 R Z2 R, Z2 = 1 ox Z.

    Block (x, y) of the defect, with x and y row-major index pairs, is a
    fixed combination of the N^4 products Z_bc Z_fh, with the coefficients
    of ``braid.re_tensor`` at R evaluated at q0; the products are formed on
    a chunk of interior columns at a time and combined by that tensor as one
    (N^4, N^4) matrix, and only the squared norm of the result is kept.
    """
    N, dim = rep.N, rep.dim
    R = build_rhat(N)[0].to_numpy(rep.q0).real.reshape(N, N, N, N)
    coeff = re_tensor(R).reshape(N ** 4, N ** 4)
    inner = rep.interior_columns()  # Z_fh[:, interior]
    total = 0.0
    for part in _column_chunks(inner.shape[-1], N ** 4 * dim):
        M = inner[..., part].transpose(2, 0, 1, 3).reshape(dim, -1)
        products = np.empty((N, N, N, N, dim, M.shape[1] // N ** 2),
                            dtype=np.result_type(rep.Z.vals, M))
        for b in range(N):
            for c in range(N):
                products[b, c] = (rep.Z[b, c] @ M).reshape(dim, N, N, -1).transpose(1, 2, 0, 3)
        defect = coeff @ products.reshape(N ** 4, -1)
        total += np.vdot(defect, defect).real
    return _relative(np.sqrt(total), rep.znorm(), 2)


def selfadj_residual(rep: HermitianRep) -> float:
    """Relative residual of Z_ij - Z_ji^dagger on interior rows and columns."""
    inner = rep.interior_columns()[:, :, rep.interior]
    return _relative(np.linalg.norm(inner - inner.transpose(1, 0, 3, 2).conj()), rep.znorm(), 1)


# ---------------------------------------------------------------------------
# central elements and spectral data


def sigma_scalars(rep: HermitianRep):
    """Measured central scalars, the defects |op_k - sigma_k| of the central
    operators op_k on the interior columns, and those operators.  sigma_k
    is read at the first interior basis vector.  Computed on the first call and kept on ``rep``,
    like ``znorm``."""
    if rep._sigma is not None:
        return rep._sigma
    N = rep.N
    mask = rep.interior
    rows, cols = _identity_entries(mask)
    scalars, defects, ops = [], [], []
    for k in range(1, N + 1):
        op = eval_poly(central_sigma(k, N), rep.Z, rep.q0, mask, rep.interior_columns())
        s = op[rows[0], 0]
        defect = op.copy()
        defect[rows, cols] -= s
        scalars.append(complex(s))
        defects.append(float(np.linalg.norm(defect)))
        ops.append(op)
    rep._sigma = (scalars, defects, ops)
    return rep._sigma


def hc_sigma_prediction(rep: HermitianRep):
    """Diagonal-projection prediction e_k(eta_1 q^{2 r_1}, eta_2 q^{2 r_2 + 2}, ...)."""
    spec = rep.spec
    if spec is None:
        return None
    q0 = rep.q0
    lead = _leading_signs(spec.eps_padded)
    args = [lead[m - 1] * q0 ** float(2 * spec.r_padded[m - 1] + 2 * (m - 1))
            for m in range(1, spec.N + 1)]
    coeffs = np.poly(args).tolist()  # prod_m (x - args_m) = sum_k (-1)^k e_k x^{N-k}
    return [(-1) ** k * coeffs[k] for k in range(1, spec.N + 1)]


def _character_class(sigma, znorm, q0):
    """(rank, roots, extended signature) of a central character; the rank is
    the largest k with |sigma_k| > ZERO_TOL relative to znorm**k."""
    N = len(sigma)
    rank = max((k for k in range(1, N + 1) if _relative(abs(sigma[k - 1]), znorm, k) > ZERO_TOL),
               default=0)
    coeffs = [1.0] + [(-1) ** k * sigma[k - 1].real for k in range(1, rank + 1)]
    roots = sorted([float(x.real) for x in np.roots(coeffs)] + [0.0] * (N - rank), reverse=True)
    return rank, roots, _classify.ext_signature(roots, q0)


def central_class(rep: HermitianRep):
    """(rank, roots, extended signature) of a factor representation, from
    its central scalars.  Raises NotFactorial unless the central elements
    act as scalars.  The rank is the number of nonzero roots of the
    characteristic polynomial."""
    scalars, defects, _ = sigma_scalars(rep)
    znorm = rep.znorm()
    if any(_relative(d, znorm, k) > ZERO_TOL for k, d in enumerate(defects, start=1)):
        raise NotFactorial(f"central elements are not scalar: defects {defects}")
    return _character_class(scalars, znorm, rep.q0)


def spectral_data(rep: HermitianRep):
    """(roots, signature, extended signature, rank) of a factor representation.

    The rank, roots and extended signature are ``central_class``.  The
    signature is read off the leading minors M_k of Z, evaluated on the
    interior columns: eta_k is the ratio of the signs of the k-th and
    (k-1)-st minor spectra, where eigenvalues at most ZERO_TOL * |M_k|
    count as zero.  Where a minor has no definite sign it falls back to the
    root signs in the canonical decreasing-magnitude-per-class order.
    """
    rank, roots, ext = central_class(rep)
    N, znorm = rep.N, rep.znorm()
    mask = rep.interior
    minor_sign = []
    for k in range(1, rank + 1):
        op = eval_poly(leading_minor_Z(k, N), rep.Z, rep.q0, mask, rep.interior_columns())
        nrm = float(np.linalg.norm(op, 2))
        if _relative(nrm, znorm, k) <= ZERO_TOL:
            minor_sign.append(0)
            continue
        # the sign of the interior eigenvalues above tolerance whose
        # eigenvectors op maps exactly, if they share one
        sub = op[mask]
        vals, vecs = np.linalg.eigh((sub + sub.conj().T) / 2)
        defect = op @ vecs
        defect[mask] -= vecs * vals
        bound = ZERO_TOL * nrm
        signs = set(np.sign(vals[(np.linalg.norm(defect, axis=0) <= bound)
                                 & (np.abs(vals) > bound)]).tolist())
        minor_sign.append(int(signs.pop()) if len(signs) == 1 else 0)
    if all(minor_sign):
        sig = [a * b for a, b in zip(minor_sign, [1] + minor_sign)]
    else:
        sig = [1 if x > 0 else -1 for x in sorted(
            (x for x in roots if x != 0.0), key=abs, reverse=True)]
    return roots, tuple(sig), ext, rank


def spectral_components(rep: HermitianRep):
    """Spectral data per joint eigenspace of the central elements.

    Transported representations decompose into factors with distinct
    central characters; this clusters interior-exact joint eigenvectors
    of one generic combination of the central operators, weighted by
    1/znorm**k times fixed Gaussian draws from ``random.Random(0)``, keys
    them by sigma_k / znorm**k and classifies each cluster.  Returns a list
    of (sigma_tuple, roots, extended_signature, multiplicity).
    """
    N = rep.N
    _, _, ops = sigma_scalars(rep)
    mask = rep.interior
    znorm = rep.znorm()
    rng = random.Random(0)
    combo = sum(_relative(rng.gauss(0.0, 1.0), znorm, k) * (op[mask] + op[mask].conj().T) / 2
                for k, op in enumerate(ops, start=1))
    _, vecs = np.linalg.eigh(combo)
    # one product per central operator: the joint eigenvalue of every
    # eigenvector of the combination, and whether it is an exact one
    exact = np.ones(vecs.shape[1], dtype=bool)
    lams = []
    for k, op in enumerate(ops, start=1):
        image = op @ vecs
        lam = np.einsum("it,it->t", vecs.conj(), image[mask])
        image[mask] -= vecs * lam
        exact &= _relative(np.linalg.norm(image, axis=0), znorm, k) <= EXACT_TOL
        lams.append(lam.real)
    clusters = {}
    for sig in np.array(lams).T[exact].tolist():
        key = tuple(round(_relative(x, znorm, k), 6) for k, x in enumerate(sig, start=1))
        clusters.setdefault(key, []).append(tuple(sig))
    out = []
    for key, members in sorted(clusters.items()):
        sig = tuple(np.mean([m[k] for m in members]) for k in range(N))
        _, roots, ext = _character_class(sig, znorm, rep.q0)
        out.append((sig, roots, ext, len(members)))
    return out


# ---------------------------------------------------------------------------
# adjoint transports


def adjoint_transport_T(rep: HermitianRep, W: np.ndarray, interior: np.ndarray) -> HermitianRep:
    """Transport Z -> T^dagger_13 Z_12 T_13 by a finite triangular representation,
    given as the block array W of its T[i,j] and its interior mask:
    Z'_ij = sum_kl Z_kl ox W_ki^dagger W_lj, real when Z and W are.

    Entry ((a, c), (b, d)) of Z'_ij sums Z_kl[a, b] C_klij[c, d] over k, l,
    with C_klij = W_ki^dagger W_lj: Z' is built from the products of the
    nonzeros of Z and of C, with the products at one position summed.  The
    sizes are checked from ``W.shape`` before anything is allocated."""
    N, m = rep.N, W.shape[-1]
    if W.shape != (N, N, m, m) or len(interior) != m:
        raise DomainError("size mismatch between representation and transport")
    newdim = rep.dim * m
    if newdim > TRANSPORT_DIM_CAP:
        raise DomainError(f"transport dimension {newdim} exceeds cap {TRANSPORT_DIM_CAP}")
    # Z' is Z times W twice: its scale is about znorm * max|W|**2 (exactly,
    # for a scaling), taken in log2 so that the estimate cannot overflow
    znorm, wmax = rep.znorm(), float(np.abs(W).max(initial=0.0))
    if znorm and wmax:
        exp2, limit = math.log2(znorm) + 2 * math.log2(wmax), SCALE_EXP2 / (2 * N)
        if abs(exp2) > limit:
            raise DomainError(
                f"transport takes the scale of Z to 2^{exp2:.1f}, outside [2^-{limit:.4g}, "
                f"2^{limit:.4g}], where its degree-{2 * N} products stay inside float64")
    C = RowBlocks.from_dense(np.einsum("kiba,ljbc->klijac", W.conj(), W))
    # axes (k, l, i, j, a, c, t, s): the t-th nonzero of row a of Z_kl times
    # the s-th nonzero of row c of C_klij, at row (a, c) of Z'_ij
    zc, zv = (x[:, :, None, None, :, None, :, None] for x in (rep.Z.cols, rep.Z.vals))
    cc, cv = (x[:, :, :, :, None, :, None, :] for x in (C.cols, C.vals))
    vals = zv * cv
    hit = np.nonzero(vals)
    rows = np.arange(N * N * newdim).reshape(N, N, rep.dim, m, 1, 1)
    cols = np.broadcast_to(zc * m, vals.shape)[hit] + np.broadcast_to(cc, vals.shape)[hit]
    Z = RowBlocks.from_coo((N, N, newdim), np.broadcast_to(rows, vals.shape)[hit], cols,
                           vals[hit])
    return HermitianRep(N=N, Z=Z, interior=np.kron(rep.interior, interior).astype(bool),
                        q0=rep.q0)


def adjoint_transport_U(rep: HermitianRep, W: np.ndarray, interior: np.ndarray) -> HermitianRep:
    """Transport Z -> U^dagger_13 Z_12 U_13 by a unitary block corepresentation,
    given as its block array W and its interior mask.  Raises BadCorep unless
    sum_k W_ki^dagger W_kj = delta_ij on interior rows and columns to 1e-9."""
    out = adjoint_transport_T(rep, W, interior)  # first, for its size checks
    defect = (np.einsum("kiba,kjbc->ijac", W.conj(), W)
              - np.eye(rep.N)[:, :, None, None] * np.eye(len(interior)))
    worst = float(np.linalg.norm(defect[:, :, interior][..., interior], axis=(2, 3)).max())
    if worst > 1e-9:
        raise BadCorep(f"transport matrix unitarity residual {worst:.2e} exceeds 1e-9")
    return out


def uchar_blocks(thetas):
    """Diagonal character of the unitary quantum group as 1x1 blocks, and
    its interior.  Every theta must be finite."""
    thetas = np.asarray(thetas, dtype=float)
    for k, theta in enumerate(thetas.tolist(), start=1):
        if not np.isfinite(theta):
            raise DomainError(f"uchar angles must be finite, got theta_{k}={theta}")
    W = np.diag(np.exp(2j * np.pi * thetas))[:, :, None, None]
    return W, np.ones(1, dtype=bool)


# ---------------------------------------------------------------------------
# verification report


def verify_rep(rep: HermitianRep, tol: float = 1e-9) -> list:
    """Reflection-equation, self-adjointness, central-scalar, and
    Cayley-Hamilton checks, as the report rows {name, ok, residual}."""
    N, znorm = rep.N, rep.znorm()
    loose = max(tol, ZERO_TOL)

    def row(name, residual, bound):
        return {"name": name, "ok": bool(residual < bound), "residual": float(residual)}

    findings = [row("reflection_equation", re_residual(rep), tol),
                row("self_adjoint", selfadj_residual(rep), tol)]
    scalars, defects, _ = sigma_scalars(rep)
    for k, d in enumerate(defects, start=1):
        findings.append(row(f"sigma_{k}_scalar", _relative(d, znorm, k), loose))
    for k, (s, h) in enumerate(zip(scalars, hc_sigma_prediction(rep) or ()), start=1):
        findings.append(row(f"sigma_{k}_hc_match", _relative(abs(s - h), znorm, k), 1e-10))

    # Cayley-Hamilton with the measured scalars, by Horner's rule on the
    # interior columns of Z as one N x N block operator, a chunk of them at a
    # time: ch[i] is block row i, column q is interior column pos[q] of
    # block column blk[q], and column q of the identity is 1 in block row
    # blk[q] at row row_of[q]
    Z, dim, inner = rep.Z, rep.dim, rep.interior_columns()
    idx = np.flatnonzero(rep.interior)
    n = len(idx)
    blk, pos, row_of = np.repeat(np.arange(N), n), np.tile(np.arange(n), N), np.tile(idx, N)
    sigma = np.array(scalars)
    sigma = sigma if sigma.imag.any() else sigma.real  # real Z: real arrays
    total = 0.0
    for part in _column_chunks(N * n, N * dim):
        ch = inner[:, blk[part], :, pos[part]].transpose(1, 2, 0).astype(
            np.result_type(Z.vals, sigma), order="C")
        eye = (blk[part], row_of[part], np.arange(ch.shape[-1]))
        ch[eye] -= sigma[0]
        for k in range(2, N + 1):
            ch = np.array([sum(Z[i, j] @ ch[j] for j in range(N)) for i in range(N)])
            ch[eye] += (-1) ** k * sigma[k - 1]
        total += np.vdot(ch, ch).real
    findings.append(row("cayley_hamilton", _relative(np.sqrt(total), znorm, N), loose))
    return findings
