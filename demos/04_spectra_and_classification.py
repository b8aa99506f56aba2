"""Building representations and classifying their spectra.

Run:  python3 demos/04_spectra_and_classification.py
"""
from fractions import Fraction

import numpy as np

from qrea.classify import admissible_roots, canonical_weight, ext_signature
from qrea.gtrep import HWModuleSpec
from qrea.hrep import build_bigcell_rep, n2_family, spectral_data, verify_rep

Q0 = 0.5

# a big-cell representation with one positive and one negative root
spec = HWModuleSpec(N=2, eps=(1, -1), r=(Fraction(3, 10), Fraction(4, 5)), D=14, q0=Q0)
rep = build_bigcell_rep(spec, margin=6)
res = {f["name"]: f["residual"] for f in verify_rep(rep)}
print("reflection equation residual:", f"{res['reflection_equation']:.2e}")
print("self-adjointness residual   :", f"{res['self_adjoint']:.2e}")
roots, sig, ext, rank = spectral_data(rep)
print("roots    :", np.round(roots, 6))
print("signature:", sig, " rank:", rank)
print("extended signature:", (round(ext.rmod1, 6), ext.nplus, ext.nminus, ext.nzero))

# the explicit N=2 families carry the expected central characters
for kind, params in [("S_pos", {"c": 1.0, "n": 2}),
                     ("S_zero", {"lam": 1.3, "D": 30}),
                     ("char", {"theta": 0.25, "c": 1.0, "a": 2.0})]:
    fam = n2_family(kind, q0=Q0, **params)
    roots, _, ext, rank = spectral_data(fam)
    print(f"{kind:7s} roots {np.round(roots, 5)}  rank {rank}  "
          f"counts {(ext.nplus, ext.nminus, ext.nzero)}")

# admissibility is a lattice condition on same-sign root quotients
print("\n{1, q^2, 0}  admissible:", admissible_roots([1, Q0 ** 2, 0], Q0) is not None)
print("{1, q,   0}  admissible:", admissible_roots([1, Q0, 0], Q0) is not None)
print("{1, 1,   0}  admissible:", admissible_roots([1, 1, 0], Q0) is not None)

# roots -> extended signature -> canonical weight, one row per multiset; the
# weight is taken for the signs with every positive leading product first
print("\nclassification table:")
print("roots,admissible,rmod1,nplus,nminus,nzero,canonical_weight")
for roots in ([1.0, 0.25, 0.0], [0.7, -0.2, 0.0], [1.0, 0.5, 0.0]):
    row = [";".join(f"{x:.12g}" for x in roots)]
    dec = admissible_roots(roots, Q0)
    if dec is None:
        row += ["0", "", "", "", "", ""]
    else:
        ext = ext_signature(roots, Q0)
        eps = (1,) * len(dec.ms) + ((-1,) + (1,) * (len(dec.ns) - 1) if dec.ns else ())
        weight = canonical_weight(roots, eps, Q0)
        row += ["1", f"{ext.rmod1:.12g}", str(ext.nplus), str(ext.nminus), str(ext.nzero),
                ";".join(f"{x:.12g}" for x in weight)]
    print(",".join(row))
