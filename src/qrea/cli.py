"""Command-line surface: verification suites, representation builds,
classification, transports, and parameter sweeps with JSON reports.

A command line is ``qrea <command> [--flag value | --flag=value ...]``; a
value may start with ``-`` (``--eps -,-``), a repeated flag keeps its last
value, and flags are spelled in full (no prefix abbreviations).  The
``COMMANDS`` table declares only the flags that each command reads, with
their types and defaults, and reads every value before anything is built;
``-h`` or ``--help``, alone or after a command, lists them.

Every subcommand writes a report with the stable schema

    {tool_version, q0, inputs, findings[], max_residual, pass}

to stdout or --out, through one writer (``_write``; q0 is null where q is
not read); the exit code is 0 exactly when the report passes (and
after help), 1 on a failed check, and 2 on usage errors and on refusals (a
``QreaError`` such as ``PrecisionLoss`` or ``TruncationTooSmall``, or an
--out that cannot be written), which print ``error: ...`` and write no
report.  Randomized sweeps take --seed and record it, so identical
invocations produce byte-identical reports.
"""

from __future__ import annotations

import gc
import json
import os
import random
import sys
from dataclasses import asdict
from fractions import Fraction
from types import SimpleNamespace

from . import __version__
from .braid import QMat, _embedded_factor, build_rhat, minor_braiding
from .classify import (
    CharacterParams,
    admissible_roots,
    canonical_weight,
    ext_signature,
    reflection_defect_exact,
    rmod1_equal,
    star_character_exact,
)
from .errors import DomainError, QreaError
from .gtrep import (
    HWModuleSpec,
    build_hw_module,
    eps_adapted,
    gt_norm_signs,
    hw_module_to_json,
    scaling_blocks,
    suq2_corep_blocks,
    vector_trep,
)
from .hrep import (
    adjoint_transport_T,
    adjoint_transport_U,
    build_bigcell_rep,
    central_class,
    spectral_components,
    spectral_data,
    uchar_blocks,
    verify_rep,
)
from .ncalg import identity_suite
from .scalars import qpow, unimodular_point


def _real(text):
    """A decimal or rational such as 0.5 or 1/2, as the nearest float."""
    try:
        return float(Fraction(text))
    except (ValueError, ZeroDivisionError):
        raise DomainError(f"not a decimal or rational: {text!r}") from None


def _parse_eps(text):
    out = []
    for tok in text.split(","):
        tok = tok.strip()
        if tok in ("+", "+1", "1"):
            out.append(1)
        elif tok in ("-", "-1"):
            out.append(-1)
        elif tok == "0":
            out.append(0)
        else:
            raise DomainError(f"bad sign {tok!r}")
    return tuple(out)


def _parse_reals(text):
    """Comma-separated decimals or rationals, each read exactly."""
    try:
        return tuple(Fraction(tok) for tok in text.split(","))
    except (ValueError, ZeroDivisionError):
        raise DomainError(f"not a list of decimals or rationals: {text!r}") from None


_BY = {"scale:": float, "uchar:": lambda t: tuple(map(float, t.split(","))),
       "vector": None, "s": None}


def _parse_by(text):
    """A transport: its kind, its parameter (a scale, a tuple of angles or
    None, read by ``_BY``) and the text it was read from."""
    kind, colon, rest = text.partition(":")
    if kind + colon not in _BY:
        raise DomainError(f"unknown transport {text!r}")
    try:
        param = _BY[kind + colon](rest) if colon else None
    except ValueError:
        raise DomainError(f"not a number in {text!r}") from None
    return SimpleNamespace(kind=kind, param=param, text=text)


def _write(text: str, out_path=None, stream=None) -> None:
    """Write text and a newline to the file ``out_path``, else to ``stream``
    (stdout by default).  A file that cannot be written, the empty path
    included, is a refusal (``DomainError``).  Once a reader closes the
    stream, the rest goes to the null device: the run keeps its exit code."""
    if out_path is not None:
        try:
            with open(out_path, "w") as fh:
                fh.write(text + "\n")
        except OSError as exc:
            raise DomainError(f"cannot write {out_path}: {exc.strerror}") from None
        return
    try:
        print(text, file=stream, flush=True)
    except BrokenPipeError:
        null = os.open(os.devnull, os.O_WRONLY)
        os.dup2(null, (stream or sys.stdout).fileno())
        os.close(null)


def emit_report(inputs: dict, findings: list, args) -> dict:
    """Assemble the stable report schema and write it to ``args.out`` or
    stdout.  Findings are sorted by name, with residual null where they give
    none; q0 is the command's --q, and null for a command that declares none."""
    findings = sorted(({"residual": None, **f} for f in findings), key=lambda f: f["name"])
    residuals = [f["residual"] for f in findings if f["residual"] is not None]
    doc = {
        "tool_version": __version__,
        "q0": getattr(args, "q", None),
        "inputs": inputs,
        "findings": findings,
        "max_residual": max(residuals) if residuals else 0.0,
        "pass": all(f["ok"] for f in findings),
    }
    _write(json.dumps(doc, indent=2, sort_keys=True, default=float), args.out)
    return doc


# ---------------------------------------------------------------------------
# subcommands


def cmd_verify_algebra(args):
    n = args.n
    findings = [{"name": f"ncalg.{f['name']}", "ok": f["ok"], "detail": f.get("detail", "")}
                for f in identity_suite(n)["findings"]]
    R, Rinv = build_rhat(n)
    I2 = QMat.eye(n * n)
    R12, R23 = (_embedded_factor(n, 3, pos, R) for pos in (1, 2))
    braid_ok = R12 @ R23 @ R12 == R23 @ R12 @ R23
    findings.append({"name": "braid.braid_relation", "ok": braid_ok})
    hecke_ok = ((R - I2.scale(qpow(-1))) @ (R + I2.scale(qpow(1)))).is_zero()
    findings.append({"name": "braid.hecke_relation", "ok": hecke_ok})
    findings.append({"name": "braid.inverse", "ok": R @ Rinv == I2})
    if n >= 2:
        B, Binv = minor_braiding(n, 1, 2)
        findings.append({"name": "braid.minor_braiding_inverse",
                         "ok": Binv @ B == QMat.eye(B.cols)})
    return emit_report({"command": "verify-algebra", "n": n}, findings, args)


def _spec_from_args(args):
    return HWModuleSpec(N=args.n, eps=args.eps, r=args.r, D=args.depth, q0=args.q)


def cmd_rep_build(args):
    mod = build_hw_module(_spec_from_args(args), margin=args.margin)
    _write(hw_module_to_json(mod), args.out)
    return {"pass": True}


def cmd_rep_verify(args):
    rep = build_bigcell_rep(_spec_from_args(args), margin=args.margin)
    findings = verify_rep(rep, args.tol)
    inputs = {"command": "rep-verify", "n": args.n, "eps": list(args.eps),
              "r": [str(x) for x in args.r], "depth": args.depth, "margin": args.margin}
    try:
        roots, sig, ext, rank = spectral_data(rep)
        inputs.update(roots=[float(x) for x in roots], signature=list(sig), rank=rank,
                      extsig=asdict(ext))
        findings.append({"name": "spectral_admissible", "ok": True})
    except QreaError as exc:
        findings.append({"name": "spectral_admissible", "ok": False, "detail": str(exc)})
    return emit_report(inputs, findings, args)


def cmd_classify_roots(args):
    roots = [_real(t) for t in args.roots.split(",")]
    q0 = args.q
    dec = admissible_roots(roots, q0)
    findings = [{"name": "admissible", "ok": dec is not None}]
    inputs = {"command": "classify-roots", "roots": roots}
    if dec is not None:
        ext = ext_signature(roots, q0)
        inputs["extsig"] = asdict(ext)
        inputs["decomposition"] = {
            "alpha": dec.alpha, "beta": dec.beta,
            "ms": list(dec.ms), "ns": list(dec.ns), "nzero": dec.nzero,
        }
        if args.eps:
            inputs["canonical_weight"] = canonical_weight(roots, args.eps, q0)
    return emit_report(inputs, findings, args)


def cmd_characters(args):
    if args.n < 2 or args.samples < 1:
        raise DomainError("characters needs --n >= 2 and --samples >= 1")
    rng = random.Random(args.seed)
    findings = []
    count = 0
    for N in range(2, args.n + 1):
        for k in range(N + 1):
            for l in range((N - k) // 2 + 1):
                for _ in range(args.samples):
                    a = Fraction(rng.randrange(1, 9), rng.randrange(1, 9))
                    c = Fraction(rng.randrange(1, 9), rng.randrange(1, 9))
                    if rng.randrange(2):
                        c = -c
                    y = tuple(unimodular_point(Fraction(rng.randrange(-9, 9),
                                                        rng.randrange(1, 9)))
                              for _ in range(l))
                    p = CharacterParams(k=k, l=l, a=a, c=c, y=y)
                    Z = star_character_exact(p, N)
                    ok = reflection_defect_exact(Z, N).is_zero()
                    count += 1
                    findings.append({"name": f"char[N={N},k={k},l={l}]#{count}", "ok": ok})
    return emit_report({"command": "characters", "n": args.n, "seed": args.seed,
                        "samples": args.samples, "checked": count},
                       findings, args)


def cmd_transport(args):
    rep = build_bigcell_rep(_spec_from_args(args), margin=args.margin)
    ext0 = central_class(rep)[2]
    by = args.by  # parsed by the table
    if by.kind == "scale":
        out = adjoint_transport_T(rep, *scaling_blocks(args.n, by.param))
    elif by.kind == "vector":
        out = adjoint_transport_T(rep, *vector_trep(args.n, args.q))
    elif by.kind == "uchar":
        out = adjoint_transport_U(rep, *uchar_blocks(by.param))
    else:  # "s"
        out = adjoint_transport_U(rep, *suq2_corep_blocks(args.depth, args.q))
    comps = spectral_components(out)
    ok_counts = all(ext.counts() == ext0.counts() for _, _, ext, _ in comps)
    ok_rmod = all(rmod1_equal(ext.rmod1, ext0.rmod1, 1e-8) for _, _, ext, _ in comps)
    findings = [{"name": "components_found", "ok": bool(comps),
                 "detail": f"{len(comps)} components"},
                {"name": "extsig_counts_invariant", "ok": ok_counts},
                {"name": "extsig_class_invariant", "ok": ok_rmod}]
    inputs = {"command": "transport", "by": by.text, "n": args.n,
              "eps": list(args.eps), "r": [str(x) for x in args.r],
              "extsig_before": asdict(ext0),
              "components": len(comps)}
    return emit_report(inputs, findings, args)


def cmd_sweep(args):
    if args.n < 1 or args.cells < 1:
        raise DomainError("sweep needs --n >= 1 and --cells >= 1")
    rng = random.Random(args.seed)
    # weights are sampled within [-L, L] with L tied to the depth, so that
    # a non-adapted cell always shows a negative norm inside the window
    L = max(1, (args.depth - args.n) // 2)
    findings = []
    n_adapted = 0
    for _ in range(args.cells):
        eps = tuple(rng.choice((-1, 1)) for _ in range(args.n))
        dens = [rng.randrange(1, 5) for _ in range(args.n)]
        r = tuple(Fraction(rng.randrange(-L * d, L * d + 1), d) for d in dens)
        spec = HWModuleSpec(N=args.n, eps=eps, r=r, D=args.depth)
        adapted = eps_adapted(r, eps)
        n_adapted += adapted
        nonneg = bool((gt_norm_signs(spec) >= 0).all())
        findings.append({
            "name": f"cell[eps={','.join(map(str, eps))};r={','.join(map(str, r))}]",
            "ok": nonneg == adapted,
            "detail": f"adapted={adapted} all_nonneg={nonneg}",
        })
    return emit_report({"command": "sweep", "n": args.n, "cells": args.cells,
                        "seed": args.seed, "depth": args.depth,
                        "adapted_cells": n_adapted},
                       findings, args)


# ---------------------------------------------------------------------------


_OUT = (("--out", {"type": str, "default": None}),)
_Q = (("--q", {"type": _real, "default": "0.5",
               "help": "deformation parameter, decimal or rational"}),)
_REP = _Q + _OUT + (
    ("--n", {"type": int, "required": True}),
    ("--eps", {"type": _parse_eps, "required": True, "help": "comma signs, e.g. +,-"}),
    ("--r", {"type": _parse_reals, "required": True, "help": "comma reals, e.g. 0.3,0.8"}),
    ("--depth", {"type": int, "default": 12}),
    ("--margin", {"type": int, "default": None}),
)

# (name, help, handler, options) of each subcommand, and (flag, {type,
# default or required, help}) of each option.  The handler is named, not
# referenced: ``_main`` looks it up when it calls it.
COMMANDS = (
    ("verify-algebra", "exact identity suites", "cmd_verify_algebra",
     (("--n", {"type": int, "default": 2}),) + _OUT),
    ("rep-build", "build a module and dump it as JSON", "cmd_rep_build", _REP),
    ("rep-verify", "residuals and spectral data of a build", "cmd_rep_verify",
     (("--tol", {"type": float, "default": 1e-9}),) + _REP),
    ("classify-roots", "admissibility and extended signature", "cmd_classify_roots",
     (("--roots", {"type": str, "required": True, "help": "comma reals"}),
      ("--eps", {"type": _parse_eps, "default": None})) + _Q + _OUT),
    ("characters", "exact reflection-equation check of the scalar character family",
     "cmd_characters",
     (("--n", {"type": int, "default": 4}),
      ("--samples", {"type": int, "default": 2}),
      ("--seed", {"type": int, "default": 0})) + _OUT),
    ("transport", "adjoint transport and invariance of the extended signature",
     "cmd_transport",
     (("--by", {"type": _parse_by, "required": True,
                "help": "scale:<c> | vector | uchar:<t1,t2,...> | s"}),) + _REP),
    ("sweep", "norm-positivity vs adaptedness sweep", "cmd_sweep",
     (("--n", {"type": int, "default": 2}),
      ("--cells", {"type": int, "default": 100}),
      ("--depth", {"type": int, "default": 8}),
      ("--seed", {"type": int, "default": 0})) + _OUT),
)


_USAGE = "usage: qrea {" + ",".join(row[0] for row in COMMANDS) + "} [--flag value ...]"


def _help(row=None) -> str:
    """The help of one command (its flags), or of all (every command)."""
    if row is None:
        return "\n".join([_USAGE, "", __doc__, "commands:"]
                         + [f"  {name:16} {text}" for name, text, *_ in COMMANDS])
    lines = [f"usage: qrea {row[0]} [--flag value ...]", "", row[1], "", "flags:"]
    for flag, opts in row[3]:
        need = "required" if opts.get("required") else f"default {opts.get('default')}"
        lines.append(f"  {flag:10} {opts.get('help', '')} ({need})")
    return "\n".join(lines)


def parse_args(argv):
    """The handler name and the namespace of one command line, read from
    ``COMMANDS``; None once help is printed.  A usage error raises
    ``DomainError``."""
    row = next((row for row in COMMANDS if argv[:1] == [row[0]]), None)
    if {"-h", "--help"} & set(argv if row else argv[:1]):
        _write(_help(row))
        return None
    if row is None:
        raise DomainError(f"invalid choice: {argv[0]!r}" if argv else "a command is required")
    options, given, words = dict(row[3]), {}, iter(argv[1:])
    for word in words:
        flag, eq, value = word.partition("=")
        if flag not in options:
            raise DomainError(f"unrecognized arguments: {word}")
        given[flag] = value if eq else next(words, None)
        if given[flag] is None:
            raise DomainError(f"argument {flag}: expected a value")
    args = {}
    for flag, opts in options.items():
        if opts.get("required") and flag not in given:
            raise DomainError(f"the following arguments are required: {flag}")
        value = given.get(flag, opts.get("default"))
        try:  # a string default is converted too, as a given value is
            args[flag[2:]] = opts["type"](value) if isinstance(value, str) else value
        except ValueError as exc:
            raise DomainError(f"argument {flag}: {exc}") from None
    return row[2], SimpleNamespace(**args)


def main(argv=None) -> int:
    # What is imported by now lives until exit: frozen, it is not rescanned
    # by the run's garbage collections.  Unfreezing at the end leaves a
    # library caller's collector as it was.
    gc.freeze()
    try:
        return _main(argv)
    finally:
        gc.unfreeze()


def _main(argv):
    try:
        parsed = parse_args(sys.argv[1:] if argv is None else list(argv))
    except DomainError as exc:
        _write(f"{_USAGE}\nerror: {exc}", stream=sys.stderr)
        return 2
    if parsed is None:
        return 0
    handler, args = parsed
    try:
        doc = globals()[handler](args)
    except (QreaError, ValueError) as exc:
        _write(f"error: {exc}", stream=sys.stderr)
        return 2
    return 0 if doc.get("pass", False) else 1


if __name__ == "__main__":
    sys.exit(main())
