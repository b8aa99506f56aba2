"""Correctness checks of CLI reports, independent of the layers under test.

Each check reads the report an invocation produced and compares it with
what the benchmark itself expects for the command and its inputs: the exit
code and ``pass``, the exact set of finding names, and command-specific
facts recomputed here (signatures from prefix sign products, adaptedness
of swept cells, the extended signature of a root multiset).  Nothing here
imports the program.
"""

from __future__ import annotations

import itertools
import json
import math
import re
from dataclasses import dataclass
from fractions import Fraction

from workloads import Q0, is_adapted, options, prefix_signs


@dataclass
class Outcome:
    ok: bool
    problem: str | None   # why the invocation failed, None when ok
    findings: int         # report findings verified by the program
    max_residual: float | None


def _pairs(n):
    return itertools.product(range(1, n + 1), repeat=2)


def verify_algebra_names(n):
    names = {f"cayley_hamilton[{i},{j}]" for i, j in _pairs(n)}
    names |= {f"laplace[k={k}]" for k in range(1, n + 1)}
    names |= {f"minor_qcomm[k={k},Z[{i},{j}]]" for k in range(1, n + 1) for i, j in _pairs(n)}
    names |= {f"minor_commute[{k},{l}]" for k in range(1, n + 1) for l in range(1, k)}
    names |= {f"det_central[X[{i},{j}]]" for i, j in _pairs(n)}
    names = {f"ncalg.{x}" for x in names}
    names |= {"braid.braid_relation", "braid.hecke_relation", "braid.inverse"}
    if n >= 2:
        names.add("braid.minor_braiding_inverse")
    return names


def characters_names(n, samples):
    names, count = [], 0
    for N in range(2, n + 1):
        for k in range(N + 1):
            for l in range((N - k) // 2 + 1):
                for _ in range(samples):
                    count += 1
                    names.append(f"char[N={N},k={k},l={l}]#{count}")
    return names


def rep_verify_names(n):
    names = {"reflection_equation", "self_adjoint", "cayley_hamilton", "spectral_admissible"}
    for k in range(1, n + 1):
        names |= {f"sigma_{k}_scalar", f"sigma_{k}_hc_match"}
    return names


TRANSPORT_NAMES = {"components_found", "extsig_counts_invariant", "extsig_class_invariant"}

_CELL = re.compile(r"cell\[eps=([^;]*);r=([^\]]*)\]")


def _parse_signs(text):
    return tuple(1 if t in ("+", "1", "+1") else -1 for t in text.split(","))


def expected_extsig(roots):
    """(rmod1, nplus, nminus, nzero) of an admissible root multiset."""
    pos = [x for x in roots if x > 0]
    neg = [-x for x in roots if x < 0]
    rmod1 = 0.0
    if pos and neg:
        alpha = math.log(max(pos)) / (2 * math.log(Q0))
        beta = math.log(max(neg)) / (2 * math.log(Q0))
        rmod1 = (beta - alpha) % 1.0
    return rmod1, len(pos), len(neg), len(roots) - len(pos) - len(neg)


def _circle_close(x, y, tol=1e-6):
    d = abs(x - y) % 1.0
    return min(d, 1.0 - d) <= tol


def _check_names(doc, expected):
    got = [f["name"] for f in doc["findings"]]
    if sorted(got) != sorted(expected):
        missing = sorted(set(expected) - set(got))[:3]
        extra = sorted(set(got) - set(expected))[:3]
        return f"finding names differ: missing {missing}, unexpected {extra}"
    return None


def _report_problem(cmd, opts, doc):
    if cmd == "verify-algebra":
        return _check_names(doc, verify_algebra_names(int(opts["n"])))
    if cmd == "characters":
        names = characters_names(int(opts["n"]), int(opts["samples"]))
        if doc["inputs"].get("checked") != len(names):
            return f"checked {doc['inputs'].get('checked')} characters, expected {len(names)}"
        return _check_names(doc, names)
    if cmd == "rep-verify":
        n, eps = int(opts["n"]), _parse_signs(opts["eps"])
        problem = _check_names(doc, rep_verify_names(n))
        if problem:
            return problem
        want = list(prefix_signs(eps))
        if doc["inputs"].get("signature") != want:
            return f"signature {doc['inputs'].get('signature')} != prefix products {want}"
        if doc["inputs"].get("rank") != len(eps):
            return f"rank {doc['inputs'].get('rank')} != M={len(eps)}"
        return None
    if cmd == "transport":
        return _check_names(doc, TRANSPORT_NAMES)
    if cmd == "classify-roots":
        problem = _check_names(doc, {"admissible"})
        if problem:
            return problem
        roots = [float(x) for x in opts["roots"].split(",")]
        rmod1, npos, nneg, nzero = expected_extsig(roots)
        ext = doc["inputs"].get("extsig") or {}
        if (ext.get("nplus"), ext.get("nminus"), ext.get("nzero")) != (npos, nneg, nzero):
            return f"extsig counts {ext} != ({npos}, {nneg}, {nzero})"
        if not _circle_close(ext.get("rmod1", math.nan), rmod1):
            return f"extsig rmod1 {ext.get('rmod1')} != {rmod1}"
        return None
    if cmd == "sweep":
        if len(doc["findings"]) != int(opts["cells"]):
            return f"{len(doc['findings'])} cells reported, expected {opts['cells']}"
        adapted_cells = 0
        for f in doc["findings"]:
            m = _CELL.fullmatch(f["name"])
            if not m:
                return f"unexpected sweep finding {f['name']!r}"
            eps = tuple(int(x) for x in m.group(1).split(","))
            r = [Fraction(x) for x in m.group(2).split(",")]
            own = is_adapted(r, eps)
            adapted_cells += own
            if f"adapted={own}" not in f.get("detail", "").split():
                return f"{f['name']}: reported {f.get('detail')!r}, own adaptedness {own}"
        if doc["inputs"].get("adapted_cells") != adapted_cells:
            return f"adapted_cells {doc['inputs'].get('adapted_cells')} != {adapted_cells}"
        return None
    return f"no check for command {cmd!r}"


def _module_problem(opts, text):
    """rep-build writes a module dump, not a report."""
    try:
        doc = json.loads(text)
    except ValueError as exc:
        return f"module dump is not JSON: {exc}"
    n, depth = int(opts["n"]), int(opts["depth"])
    spec = doc.get("spec", {})
    want = {"N": n, "eps": list(_parse_signs(opts["eps"])),
            "r": opts["r"].split(","), "D": depth}
    for key, value in want.items():
        if spec.get(key) != value:
            return f"spec.{key} = {spec.get(key)!r}, expected {value!r}"
    if doc.get("interior_margin") != int(opts["margin"]):
        return f"interior_margin {doc.get('interior_margin')} != {opts['margin']}"
    ops = {f"T{i}" for i in range(1, n + 1)}
    ops |= {f"T{i}{j}" for i in range(1, n + 1) for j in range(i + 1, n + 1)}
    ops |= {f"{x}{i}" for x in "ef" for i in range(1, n)}
    if set(doc.get("ops", {})) != ops:
        return f"operator names {sorted(doc.get('ops', {}))} != {sorted(ops)}"
    basis, norms = doc.get("basis", []), doc.get("norms", [])
    if not basis or len(basis) != len(norms):
        return f"{len(basis)} basis vectors but {len(norms)} norms"
    if any(sum(map(sum, P)) > depth for P in basis):
        return "basis pattern beyond the truncation depth"
    if not all(x > 0 for x in norms):
        return "non-positive norm in a module of an adapted weight"
    dim = len(basis)
    for name, mat in doc["ops"].items():
        if len(mat) != dim or any(len(row) != dim for row in mat):
            return f"operator {name} is not {dim}x{dim}"
    return None


def check(argv, rc, stdout, stderr, out_text):
    """Judge one invocation from its exit code and outputs."""
    cmd, opts = argv[0], options(argv)
    if rc != 0:
        doc = _report_or_none(stdout)
        if doc is not None:
            bad = [f"{f['name']} ({f.get('residual')})" for f in doc["findings"] if not f["ok"]]
            text = "failed findings: " + ", ".join(bad)
            return Outcome(False, f"exit {rc}: {text}", 0, doc.get("max_residual"))
        lines = [x for x in stderr.strip().splitlines() if x.strip()]
        return Outcome(False, f"exit {rc}: {lines[-1] if lines else 'no error text'}", 0, None)
    if cmd == "rep-build":
        if stdout.strip():
            return Outcome(False, "rep-build --out printed to stdout", 0, None)
        problem = _module_problem(opts, out_text or "")
        return Outcome(problem is None, problem, 1, None)
    try:
        doc = json.loads(stdout)
    except ValueError as exc:
        return Outcome(False, f"report is not JSON: {exc}", 0, None)
    if doc.get("pass") is not True:
        return Outcome(False, "report pass is not true", len(doc.get("findings", [])),
                       doc.get("max_residual"))
    problem = _report_problem(cmd, opts, doc)
    return Outcome(problem is None, problem, len(doc["findings"]), doc.get("max_residual"))


def _report_or_none(stdout):
    """The report printed before a non-zero exit, if there is one."""
    try:
        doc = json.loads(stdout)
    except ValueError:
        return None
    return doc if isinstance(doc, dict) and "findings" in doc else None
