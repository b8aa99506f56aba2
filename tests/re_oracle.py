"""Dense reference for the reflection equation's coefficients.

``dense_sides`` contracts the full R-hat with itself by einsum, as the
textbook reads R Z2 R Z2 and Z2 R Z2 R: the coefficient of Z_bc Z_fh in
entry ((x, X), (y, z)) of each side, as arrays indexed
[x, X, y, z, b, c, f, h].  ``table_sides`` spreads ``braid.re_table`` over
the same arrays, so the two can be compared entry by entry.
"""

import numpy as np

from qrea.braid import build_rhat


def rhat_array(N, q0=None):
    """R-hat as an (N, N, N, N) array: exact entries, or floats at q0."""
    R = build_rhat(N)[0]
    if q0 is not None:
        return R.to_numpy(q0).real.reshape(N, N, N, N)
    return np.array([[R[a, b] for b in range(N * N)] for a in range(N * N)],
                    dtype=object).reshape(N, N, N, N)


def dense_sides(R):
    """(lhs, rhs) coefficient arrays of R Z2 R Z2 and Z2 R Z2 R, Z2 = 1 ox Z.
    Floats are contracted in einsum's own order; LaurentScalars pairwise,
    which is several times faster for them."""
    N = R.shape[0]
    one = np.eye(N, dtype=R.dtype)
    optimize = R.dtype == object
    # (R Z2 R Z2)[x, (e, g)] = sum R[x, (a, b)] Z_bc R[(a, c), (e, f)] Z_fg
    lhs = np.einsum("xXab,acef,gh->xXegbcfh", R, R, one, optimize=optimize)
    # (Z2 R Z2 R)[(x, X), y] = sum Z_Xc R[(x, c), (v, f)] Z_fh R[(v, h), y]
    rhs = np.einsum("xcvf,vhyz,Xb->xXyzbcfh", R, R, one, optimize=optimize)
    return lhs, rhs


def table_sides(table, N):
    """(lhs, rhs) arrays like ``dense_sides``, spread from a ``re_table``:
    P_st[(u, v), (y, w)] is the coefficient of Z_st Z_wz at ((u, v), (y, z))
    on the left, and of Z_zv Z_st at ((u, z), (y, w)) on the right, for
    every z."""
    lhs = np.zeros((N,) * 8, dtype=object)
    rhs = np.zeros((N,) * 8, dtype=object)
    for st, entries in enumerate(table):
        s, t = divmod(st, N)
        for u, v, y, w, p in entries:
            for z in range(N):
                lhs[u, v, y, z, s, t, w, z] = p
                rhs[u, z, y, w, z, v, s, t] = p
    return lhs, rhs
