"""Gelfand-Tsetlin modules: adaptedness, norms, and operator matrices.

Run:  python3 demos/03_highest_weight_modules.py
"""
from fractions import Fraction

import numpy as np

from qrea.gtrep import HWModuleSpec, build_hw_module, eps_adapted, gt_norm, patterns

Q0 = 0.5

# which highest weights carry a unitary module depends on the sign pattern
print("r=(0,0),   eps=(+,+):", eps_adapted((0, 0), (1, 1)))
print("r=(0,-1),  eps=(+,+):", eps_adapted((0, -1), (1, 1)))
print("r=(0.3,0.8), eps=(+,-): any real gap works ->",
      eps_adapted((0.3, 0.8), (1, -1)))

# norms: zero norms truncate the module (here to a single vector)
spec = HWModuleSpec(N=2, eps=(1, 1), r=(0, 0), D=6, q0=Q0)
print("\nnorms for eps=(+,+), r=(0,0):",
      [round(gt_norm(P, spec), 6) for P in patterns(2, 3)])

# a generic mixed-sign module: all norms positive, infinite-dimensional
spec = HWModuleSpec(N=2, eps=(1, -1), r=(Fraction(3, 10), Fraction(4, 5)), D=12, q0=Q0)
mod = build_hw_module(spec, margin=4)
print(f"\nmixed-sign module: dimension {mod.dim} at truncation D={spec.D}")
# the operators are sparse layouts; ``columns`` gives their dense blocks
every = np.ones(mod.dim, dtype=bool)
T = mod.T.columns(every)  # T[i-1, j-1] is the generator T[i,j]
print("diagonal generator T_1 eigenvalues:", np.round(sorted(np.diagonal(T[0, 0]))[:5], 5), "...")

# the raising operators are the adjoints e_i = f_i^T of the lowering ones,
# and they satisfy the deformed commutation relation with the sign eps_(i,i+1]
i = 1
F = mod.f[i - 1].columns(every)
E = F.T
K = [1 / np.diagonal(T[k, k]) for k in range(spec.N)]  # T[k,k] = K_k^{-1}
khat = K[0] / K[1]
target = (spec.eps_padded[1] * khat - 1 / khat) / (Q0 - 1 / Q0)
resid = np.linalg.norm((E @ F - F @ E - np.diag(target))[:, mod.interior])
print(f"deformed commutator residual on the interior: {float(resid):.2e}")

# triangular generators: diagonal positive, strictly upper from the ladder
print("\nT[1,2] nonzero entries:", int((np.abs(T[0, 1]) > 1e-14).sum()))
