"""Seeded invocation lists for the three benchmark workloads.

A workload seed maps to one fixed list of CLI argv lists (one "pass").  The
program only ever sees the generated argv; the seed itself is never passed
to it.  Every value is written as ``--key=value`` so that negative numbers
are not mistaken for options.

The shape of a pass (which subcommands, at which N, depth and sign class)
is fixed per workload, and the seed draws everything else: the member of
each sign class, the weights, the transport parameters, the program-side
seeds of ``characters`` and ``sweep``, the root multisets and the order.
Module dimension, and with it the run time, depends on the sign pattern
and on the integer gaps between same-class weights but not on their
fractional parts, so fixing the shape keeps the work of a pass steady
across seeds while the inputs still differ.
"""

from __future__ import annotations

import itertools
import random
from fractions import Fraction

Q0 = 0.5


def prefix_signs(eps):
    """Leading sign products eps_1, eps_1 eps_2, ... of a sign pattern."""
    return tuple(itertools.accumulate(eps, lambda a, b: a * b))


def is_adapted(r, eps):
    """Adaptedness of a weight, computed from its definition.

    Positions s < t whose leading sign products agree need (r_t + t) -
    (r_s + s) to be a positive integer.  This is the benchmark's own
    computation; it shares no code with the program under test.
    """
    lead = prefix_signs(eps)
    for s, t in itertools.combinations(range(len(eps)), 2):
        if lead[s] == lead[t]:
            gap = (Fraction(r[t]) + t) - (Fraction(r[s]) + s)
            if gap.denominator != 1 or gap <= 0:
                return False
    return True


def adapted_weight(eps, gap, rng):
    """A weight adapted to eps by construction.

    Positions are grouped by their leading sign product.  Each group gets
    a random fractional part and a random starting integer; every later
    member of the group sits ``gap`` integers above the previous one in
    ``r_t + t``, so all same-group differences are positive integers.
    """
    base, last, r = {}, {}, []
    for t, g in enumerate(prefix_signs(eps), start=1):
        if g in last:
            last[g] += gap
        else:
            base[g] = Fraction(rng.randint(1, 9), 10)
            last[g] = rng.randint(-1, 1)
        r.append(base[g] + last[g] - t)
    return tuple(r)


def sign_class(eps):
    """Patterns with the same leading-sign grouping, up to overall sign."""
    lead = prefix_signs(eps)
    return tuple(x * lead[0] for x in lead)


def sign_patterns(n):
    return list(itertools.product((1, -1), repeat=n))


def class_members(n, cls):
    return [e for e in sign_patterns(n) if sign_class(e) == cls]


def _signs(eps):
    return ",".join("+" if e > 0 else "-" for e in eps)


def _rep_args(cmd, n, eps, r, depth, margin):
    return [cmd, f"--n={n}", f"--eps={_signs(eps)}",
            f"--r={','.join(str(x) for x in r)}",
            f"--depth={depth}", f"--margin={margin}"]


def _program_seed(rng):
    return rng.randrange(1, 10 ** 6)


# ---------------------------------------------------------------------------
# exact: the identity suites and the exact character checks

# The slot counts put each percentile inside a cluster of similar
# invocations, away from the gaps between clusters, so that both are steady
# across seeds.  Pooled over the two half-runs (see run.py), the pass median
# falls in the middle of the N=4, one-sample cluster (seven cheaper
# invocations below it, seven dearer ones above) and the tail percentile
# falls inside the N=5/6 cluster, under the one verify-algebra --n 3.
CHARACTER_SLOTS = ([(2, 2)] * 2 + [(3, 1)] * 2 + [(3, 2)] * 2 + [(4, 1)] * 5
                   + [(5, 2)] * 5 + [(6, 1)])


def exact(rng):
    calls = [["verify-algebra", "--n=2"], ["verify-algebra", "--n=3"]]
    for n, samples in CHARACTER_SLOTS:
        calls.append(["characters", f"--n={n}", f"--samples={samples}",
                      f"--seed={_program_seed(rng)}"])
    return calls


# ---------------------------------------------------------------------------
# bigcell: residual checks of big-cell builds across depth, plus the
# module write path

# N=2: every sign pattern at D=14, 34 and 54, and the mixed patterns (whose
# precision runs out first) and +,+ also at D=24.  The weight gap is fixed,
# so a slot's module dimension is the same for every seed.  Ten invocations
# per pass are cheaper than the four mixed D=34 and same-class D=54 builds
# and nine are dearer, so the pass median is read inside those four.
N2_VERIFY_DEPTHS = {(1, 1): (14, 24, 34, 54), (-1, 1): (14, 34, 54),
                    (1, -1): (14, 24, 34, 54), (-1, -1): (14, 24, 34, 54)}
N2_GAP = 2
N3_VERIFY_DEPTH = 14
# Every class; (1, 1, -1) twice, so that the tail percentile is read inside
# that pair rather than on the gap between two classes.
N3_VERIFY_CLASSES = ((1, 1, 1), (1, 1, -1), (1, 1, -1), (1, -1, -1), (1, -1, 1))
# A mixed class at a depth where its precision has run out for every draw.
# Near D=20-24 the mixed classes fail for some draws and pass for others.
N3_DEEP = (((1, 1, -1), 26),)
BUILDS = ((2, (1, -1), 14, 8), (3, (1, -1, -1), 12, 12))


def bigcell(rng):
    calls = []
    for eps, depths in N2_VERIFY_DEPTHS.items():
        for depth in depths:
            r = adapted_weight(eps, N2_GAP, rng)
            calls.append(_rep_args("rep-verify", 2, eps, r, depth, 8))
    for cls in N3_VERIFY_CLASSES:
        eps = rng.choice(class_members(3, cls))
        calls.append(_rep_args("rep-verify", 3, eps, adapted_weight(eps, 1, rng),
                               N3_VERIFY_DEPTH, 12))
    for cls, depth in N3_DEEP:
        eps = rng.choice(class_members(3, cls))
        calls.append(_rep_args("rep-verify", 3, eps, adapted_weight(eps, 1, rng), depth, 12))
    for k, (n, cls, depth, margin) in enumerate(BUILDS):
        eps = rng.choice(class_members(n, cls))
        args = _rep_args("rep-build", n, eps, adapted_weight(eps, 1, rng), depth, margin)
        calls.append(args + [f"--out=rep-build-{k}.json"])
    return calls


# ---------------------------------------------------------------------------
# survey: sign-only sweeps, transports of every kind, root classification

def _transport_kinds(n, rng):
    kinds = [f"scale:{rng.randint(50, 200) / 100}", "vector",
             "uchar:" + ",".join(str(rng.randint(0, 999) / 1000) for _ in range(n))]
    if n == 2:  # the quantum-SU(2) corepresentation has 2x2 blocks
        kinds.append("s")
    return kinds


def admissible_roots(rng):
    """A root multiset that is a spectrum by construction: simple nonzero
    roots whose same-sign quotients are even powers of q."""
    while True:
        npos, nneg, nzero = rng.randint(0, 3), rng.randint(0, 2), rng.randint(0, 1)
        if 1 <= npos + nneg + nzero <= 4:
            break
    alpha = Fraction(rng.randint(-8, 8), 8)
    beta = Fraction(rng.randint(-8, 8), 8)

    def shells(count):
        if not count:
            return []
        return [0] + rng.sample(range(1, 5), count - 1)

    roots = [Q0 ** float(2 * alpha + 2 * m) for m in shells(npos)]
    roots += [-Q0 ** float(2 * beta + 2 * m) for m in shells(nneg)]
    roots += [0.0] * nzero
    rng.shuffle(roots)
    return roots


# N=2 transports: scale, vector and uchar on a mixed build at D=30 (which
# fails for every draw: its central elements are not scalar) and on a
# same-class one at D=14, and the corepresentation transport ``s`` on the
# pattern -,- at D=14, where it fails for every draw (on the other patterns
# it passes or fails with the draw).
N2_TRANSPORTS = (((1, -1), 30), ((1, 1), 14))
N2_S_TRANSPORT = ((-1, -1), 14)
SWEEPS = 4
# Eight invocations per pass (the root classifications and the failing
# D=30 transports) are cheaper than the three same-class N=2 transports and
# eight are dearer, so the pass median is read inside those three; the tail
# percentile is read inside the sweeps.
CLASSIFICATIONS = 5


def survey(rng):
    calls = []
    for _ in range(SWEEPS):
        calls.append(["sweep", "--n=3", "--cells=15", "--depth=8",
                      f"--seed={_program_seed(rng)}"])
    for cls, depth in N2_TRANSPORTS:
        for kind in _transport_kinds(2, rng)[:3]:
            eps = rng.choice(class_members(2, cls))
            r = adapted_weight(eps, rng.randint(1, 3), rng)
            calls.append(_rep_args("transport", 2, eps, r, depth, 6) + [f"--by={kind}"])
    eps, depth = N2_S_TRANSPORT
    r = adapted_weight(eps, rng.randint(1, 3), rng)
    calls.append(_rep_args("transport", 2, eps, r, depth, 6) + ["--by=s"])
    for kind in _transport_kinds(3, rng):
        eps = rng.choice(class_members(3, (1, -1, -1)))
        calls.append(_rep_args("transport", 3, eps, adapted_weight(eps, 2, rng), 12, 6)
                     + [f"--by={kind}"])
    for _ in range(CLASSIFICATIONS):
        roots = admissible_roots(rng)
        calls.append(["classify-roots", f"--roots={','.join(repr(x) for x in roots)}"])
    return calls


WORKLOADS = {"exact": exact, "bigcell": bigcell, "survey": survey}


def generate(name, seed):
    """The seeded pass of a workload, in seeded order."""
    rng = random.Random(f"{name}:{seed}")
    calls = WORKLOADS[name](rng)
    rng.shuffle(calls)
    return calls


def options(argv):
    """The ``--key=value`` options of a generated argv as a dict."""
    return dict(a[2:].split("=", 1) for a in argv[1:])
