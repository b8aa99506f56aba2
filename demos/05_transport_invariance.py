"""Adjoint transports and the invariance of the extended signature.

Run:  python3 demos/05_transport_invariance.py
"""
from fractions import Fraction

import numpy as np

from qrea.classify import rmod1_equal
from qrea.gtrep import HWModuleSpec, scaling_blocks, suq2_corep_blocks, vector_trep
from qrea.hrep import (
    adjoint_transport_T,
    adjoint_transport_U,
    build_bigcell_rep,
    n2_family,
    spectral_components,
    spectral_data,
    uchar_blocks,
)

Q0 = 0.5

spec = HWModuleSpec(N=2, eps=(1, -1), r=(Fraction(3, 10), Fraction(4, 5)), D=14, q0=Q0)
rep = build_bigcell_rep(spec, margin=6)
roots0, _, ext0, _ = spectral_data(rep)
print("base representation roots", np.round(roots0, 6),
      "extsig", (round(ext0.rmod1, 6), ext0.nplus, ext0.nminus, ext0.nzero))

# every transport parameter is a small dense (N, N, m, m) block array and its
# interior mask, and the transported Z is sparse like the input; a scaling
# transport multiplies every root by c^2 and keeps the class
out = adjoint_transport_T(rep, *scaling_blocks(2, 0.7))
roots1, _, ext1, _ = spectral_data(out)
print("\nscaling by 0.7:   roots", np.round(roots1, 6),
      "  class preserved:", rmod1_equal(ext0.rmod1, ext1.rmod1))

# the vector transport splits into several factors, all in the same class
out = adjoint_transport_T(rep, *vector_trep(2, Q0))
print("\nvector transport components:")
for sig, roots, ext, mult in spectral_components(out):
    print("   roots", np.round(roots, 6), " extsig",
          (round(ext.rmod1, 6), ext.nplus, ext.nminus, ext.nzero), f"x{mult}")

# diagonal unitary characters leave the spectral weight untouched
out = adjoint_transport_U(rep, *uchar_blocks((0.2, 0.7)))
roots2, _, ext2, _ = spectral_data(out)
print("\nunitary character transport: roots unchanged:",
      np.allclose(roots0, roots2))

# transporting a mixed-sign character by the standard quantum-SU(2)
# representation mixes the two sign patterns
char = n2_family("char", theta=0.0, c=1.0, a=2.0, q0=Q0)
moved = adjoint_transport_U(char, *suq2_corep_blocks(40, Q0))
eigs = np.linalg.eigvalsh(moved.block(1, 1)[np.ix_(moved.interior, moved.interior)])
print("\nquantum-SU(2) transport of a mixed character:")
print(f"  Z[1,1] spectrum range [{eigs.min():.4f}, {eigs.max():.4f}]"
      "  -> both signs present:", bool((eigs > 1e-8).any() and (eigs < -1e-8).any()))
