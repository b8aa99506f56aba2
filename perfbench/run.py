"""End-to-end benchmark of the qrea command line.

Usage (from the repository root):

    python3 perfbench/run.py --workload exact|bigcell|survey --seed N \
        --seconds S --trace 0|1

The benchmark is a closed loop with one client.  It generates the seeded
invocation list of a workload (one "pass", see workloads.py) and runs each
invocation in a fresh child interpreter, one at a time: a CLI user pays the
cold caches of every run (for example the zero-test memo of the exact
core), so a long-lived process would measure a program nobody runs.  Each
child times ``qrea.cli.main(argv)`` in-process; the program only sees the
generated argv.

Each run first runs two untimed warm-up children, so that byte-code
compilation and the operating system's file cache are the same on every
commit; set-up and wall times are then measured on warm files and cold
processes.  Passes repeat while the next one fits in ``--seconds`` (there
are always at least two, or one traced pair).  Each invocation contributes
the two middle values of its repeats to the timings (see ``middle_two``):
the speed of a shared host swings by tens of percent for seconds at a time,
and an invocation's median repeat is steadier than any single one.  Slower
swings, which last minutes, move every time of a run alike; times are
therefore reported at a reference host speed (see ``host_scale``).
Every report is checked by checks.py, and one seeded invocation per run is
repeated to check that its report is byte-identical.

With ``--trace 0`` the last line of stdout is a JSON object with the
end-to-end metrics; with ``--trace 1`` each untraced pass is paired with a
traced one and the per-layer metrics are printed instead (see tracer.py).
Lines before it, starting with ``#``, record the environment, the
residual-by-depth table, the failed invocations and the tail percentile.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import random
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

from checks import check
from workloads import WORKLOADS, generate, options

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
PACKAGE = ROOT / "src" / "qrea"
WORK = ROOT / ".bench_work"

CHILD_TIMEOUT_S = 150
DOUBLE_EPS = 2.0 ** -52
ACCEPTANCE_DEPTH = 14   # deepest build of the acceptance suite
TAIL_BEYOND = 10        # samples required beyond the reported tail percentile
MIN_PASSES = 2
# Spawn-to-NumPy-imported time of a fresh child on the reference host (a
# 2-vCPU VM, Python 3.11, NumPy 2.4); times are reported at this speed.
REFERENCE_S = 0.125

WARMUP = [["verify-algebra", "--n=2"],
          ["rep-verify", "--n=3", "--eps=+,-,+", "--r=3/10,4/5,4/5", "--depth=12", "--margin=12"]]

END_TO_END = {  # name -> unit
    "setup_s": "s", "wall_s": "s", "cmd_p50_s": "s", "cmd_tail_s": "s",
    "checks_per_s": "1/s", "peak_rss_mb": "MB", "ok_frac": "ratio",
    "accuracy_digits": "digits",
}

PER_LAYER = {  # name -> unit
    "scalars.ops": "count", "scalars.self_s": "s",
    "ncalg.self_s": "s", "ncalg.zero_tests": "count", "ncalg.embed_s": "s",
    "ncalg.straighten_calls": "count", "ncalg.straighten_s": "s", "ncalg.suite_s": "s",
    "ncalg.memo_entries": "count",
    "braid.self_s": "s", "braid.qmat_matmuls": "count",
    "classify.self_s": "s", "classify.exact_checks": "count",
    "gtrep.self_s": "s", "gtrep.patterns": "count", "gtrep.module_dim": "count",
    "gtrep.kept_ratio": "ratio", "gtrep.build_s": "s", "gtrep.sign_calls": "count",
    "gtrep.sign_s": "s",
    "hrep.self_s": "s", "hrep.assemble_s": "s", "hrep.re_residual_s": "s",
    "hrep.verify_s": "s", "hrep.sigma_s": "s", "hrep.spectral_s": "s",
    "hrep.transport_s": "s", "hrep.components_s": "s", "hrep.transport_dim": "count",
    "cli.self_s": "s", "cli.report_bytes": "bytes",
    "trace.overhead": "ratio",
}


def note(text):
    print(f"# {text}")


# ---------------------------------------------------------------------------
# children


def child_env():
    """Children import only the checkout's sources, and may write byte code
    next to them (the warm-up compiles it once per checkout), as an
    installed command would find it.  BLAS runs one thread: the load is one
    process on a machine of few cores, and a second BLAS thread would wait
    on whatever else the host runs."""
    env = dict(os.environ, PYTHONPATH=str(PACKAGE.parent),
               OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1")
    for var in ("PYTHONDONTWRITEBYTECODE", "PYTHONPYCACHEPREFIX"):
        env.pop(var, None)
    return env


def spawn(argv, trace=False, environment=False):
    """Run one invocation in a fresh interpreter; returns its record."""
    out_name = options(argv).get("out")
    out_path = WORK / out_name if out_name else None
    if out_path is not None and out_path.exists():
        out_path.unlink()
    spec = {"argv": argv, "trace": trace, "environment": environment,
            "package_dir": str(PACKAGE)}
    spec["t_spawn"] = time.monotonic()
    proc = subprocess.run([sys.executable, str(HERE / "child.py"), json.dumps(spec)],
                          cwd=WORK, env=child_env(), capture_output=True, text=True,
                          timeout=CHILD_TIMEOUT_S)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        tail = (proc.stderr.strip().splitlines() or ["no output"])[-1]
        raise RuntimeError(f"child for {argv} exited {proc.returncode}: {tail}")
    rec = json.loads(lines[-1])
    rec["argv"] = argv
    rec["out_text"] = None
    if out_path is not None and out_path.exists():
        rec["out_text"] = out_path.read_text()
        out_path.unlink()
    rec["outcome"] = check(argv, rec["rc"], rec["stdout"], rec["stderr"], rec["out_text"])
    rec["report"] = rec["stdout"] + (rec["out_text"] or "")
    return rec


def run_pass(calls, trace=False):
    recs = [spawn(argv, trace=trace) for argv in calls]
    return {"recs": recs, "wall_s": sum(r["main_s"] for r in recs)}


# ---------------------------------------------------------------------------
# end-to-end metrics


def middle_two(passes):
    """Two timings of the pass: each lists, per invocation, one of the two
    middle values of its ``main_s`` over the run's passes (its median
    twice when the count is odd).  With two passes these are the two
    repeats themselves.  There are always two samples per invocation, so
    the percentiles below are the same on every commit however many passes
    fit in a run, and the mean of the two timings' sums is the sum of the
    invocations' medians."""
    count = len(passes)
    per_call = [sorted(p["recs"][i]["main_s"] for p in passes)
                for i in range(len(passes[0]["recs"]))]
    return [[t[(count - 1) // 2] for t in per_call], [t[count // 2] for t in per_call]]


def tail(values):
    """(value, percentile): the highest percentile of ``values`` that
    leaves at least TAIL_BEYOND of them above it (the maximum if there are
    too few)."""
    n = len(values)
    pct = (n - TAIL_BEYOND) / n if n > TAIL_BEYOND else 1.0
    xs = sorted(values)
    return xs[math.ceil(pct * n) - 1], 100.0 * pct


def accuracy_digits(recs):
    """Mean over the reports inside the acceptance depth range (every
    report except deeper big-cell builds) of -log10 max_residual, floored
    at double-precision epsilon: the digits of the geometric-mean residual.
    The deeper builds, whose residuals run to 1e13, are reported in the
    residual-by-depth table instead."""
    digits = []
    for r in recs:
        opts = options(r["argv"])
        res = r["outcome"].max_residual
        if res is None or ("depth" in opts and int(opts["depth"]) > ACCEPTANCE_DEPTH):
            continue
        digits.append(-math.log10(max(res, DOUBLE_EPS)))
    return statistics.mean(digits) if digits else -math.log10(DOUBLE_EPS)


def host_scale(recs):
    """How much slower this run's host was than the reference host: the
    median over the run's children of the time from spawn to NumPy
    imported, over REFERENCE_S.  That interval runs no code of the
    program, and it slows down with everything else when the host gets
    busy, so dividing a time by the scale removes the host's slow swings
    and keeps every change the program makes."""
    return statistics.median(r["reference_s"] for r in recs) / REFERENCE_S


def end_to_end(passes, setup_samples, failed, attempted):
    timings = middle_two(passes)
    samples = timings[0] + timings[1]
    wall = statistics.median(sum(t) for t in timings)
    first = passes[0]["recs"]
    tail_s, pct = tail(samples)
    checks = sum(r["outcome"].findings for r in first if r["outcome"].ok)
    peak_kb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    note(f"cmd_tail_s is the p{pct:.1f} of {len(samples)} invocation times, the two "
         f"middle repeats of each of {len(first)} invocations over {len(passes)} passes")
    raw = {"setup_s": statistics.median(setup_samples), "wall_s": wall,
           "cmd_p50_s": statistics.median(samples), "cmd_tail_s": tail_s}
    scale = host_scale([r for p in passes for r in p["recs"]])
    note(f"host scale {scale:.4f} (spawn to NumPy imported, median over the run's "
         f"children, over {REFERENCE_S} s); unscaled: "
         + ", ".join(f"{k}={v:.6g}" for k, v in raw.items()))
    values = {k: v / scale for k, v in raw.items()}
    values.update({
        "checks_per_s": checks / values["wall_s"],
        "peak_rss_mb": peak_kb / 1024.0,
        "ok_frac": (attempted - failed) / attempted,
        "accuracy_digits": accuracy_digits(first),
    })
    return {k: {"value": values[k], "unit": END_TO_END[k]} for k in END_TO_END}


# ---------------------------------------------------------------------------
# per-layer metrics


def layer_values(recs):
    total = {"self": {}, "incl": {}, "count": {}, "self_by_name": {}}
    patterns = dims = memo = tdim = ops = 0
    for r in recs:
        t = r["trace"]
        for key in total:
            for name, v in t[key].items():
                total[key][name] = total[key].get(name, 0) + v
        patterns += t["build_patterns"]
        dims += t["size_sum"].get("gtrep.build_hw_module", 0)
        memo = max(memo, t["memo_entries"])
        tdim = max([tdim] + [v for k, v in t["size_max"].items()
                             if k.startswith("hrep.adjoint_transport_")])
        ops += t["scalar_ops"]
    selfs, incl, count = total["self"], total["incl"], total["count"]
    return {
        "scalars.ops": ops, "scalars.self_s": selfs.get("scalars", 0.0),
        "ncalg.self_s": selfs.get("ncalg", 0.0),
        "ncalg.zero_tests": count.get("ncalg.is_zero_rea", 0),
        "ncalg.embed_s": incl.get("ncalg.embed_iT", 0.0),
        "ncalg.straighten_calls": count.get("ncalg.straighten", 0),
        "ncalg.straighten_s": incl.get("ncalg.straighten", 0.0),
        "ncalg.suite_s": incl.get("ncalg.identity_suite", 0.0),
        "ncalg.memo_entries": memo,
        "braid.self_s": selfs.get("braid", 0.0),
        "braid.qmat_matmuls": count.get("braid.matmul", 0),
        "classify.self_s": selfs.get("classify", 0.0),
        "classify.exact_checks": count.get("classify.reflection_defect_exact", 0),
        "gtrep.self_s": selfs.get("gtrep", 0.0),
        "gtrep.patterns": patterns, "gtrep.module_dim": dims,
        "gtrep.kept_ratio": dims / patterns if patterns else 0.0,
        "gtrep.build_s": incl.get("gtrep.build_hw_module", 0.0),
        "gtrep.sign_calls": count.get("gtrep.gt_norm_sign", 0),
        "gtrep.sign_s": incl.get("gtrep.gt_norm_sign", 0.0),
        "hrep.self_s": selfs.get("hrep", 0.0),
        "hrep.assemble_s": total["self_by_name"].get("hrep.build_bigcell_rep", 0.0),
        "hrep.re_residual_s": incl.get("hrep.re_residual", 0.0),
        "hrep.verify_s": incl.get("hrep.verify_rep", 0.0),
        "hrep.sigma_s": incl.get("hrep.sigma_scalars", 0.0),
        "hrep.spectral_s": incl.get("hrep.spectral_data", 0.0),
        "hrep.transport_s": incl.get("hrep.adjoint_transport_T", 0.0)
        + incl.get("hrep.adjoint_transport_U", 0.0),
        "hrep.components_s": incl.get("hrep.spectral_components", 0.0),
        "hrep.transport_dim": tdim,
        "cli.self_s": selfs.get("cli", 0.0),
        "cli.report_bytes": sum(len(r["report"].encode()) for r in recs),
    }


def per_layer(pairs, workload, seed):
    traced = [layer_values(t["recs"]) for _, t in pairs]
    values = {k: statistics.median(v[k] for v in traced) for k in traced[0]}
    values["trace.overhead"] = (statistics.median(t["wall_s"] for _, t in pairs)
                                / statistics.median(u["wall_s"] for u, _ in pairs))
    wall = statistics.median(t["wall_s"] for _, t in pairs)
    shares = {layer: values[f"{layer}.self_s"] / wall
              for layer in ("scalars", "ncalg", "braid", "classify", "gtrep", "hrep", "cli")}
    note("traced self-time share of wall_s: "
         + ", ".join(f"{k} {v:.1%}" for k, v in shares.items()))
    path = WORK / f"trace-{workload}-{seed}.jsonl"
    with open(path, "w") as fh:
        for i, r in enumerate(pairs[0][1]["recs"]):
            fh.write(json.dumps({"invocation": i, "argv": r["argv"], "spans": r["spans"]}) + "\n")
    note(f"spans of the first traced pass written to {path.relative_to(ROOT)}")
    return {k: {"value": values[k], "unit": PER_LAYER[k]} for k in PER_LAYER}


# ---------------------------------------------------------------------------
# reporting


def residual_table(recs):
    rows = []
    for r in recs:
        if r["argv"][0] != "rep-verify":
            continue
        o = options(r["argv"])
        n, d, m = int(o["n"]), int(o["depth"]), int(o["margin"])
        rows.append((n, d, m, d - m, r["outcome"].max_residual, r["rc"], o["eps"], o["r"]))
    if not rows:
        return
    note("residual by depth (top interior shell s = D - margin):")
    for n, d, m, s, res, rc, eps, rr in sorted(rows, key=lambda x: x[:4]):
        shown = "none" if res is None else f"{res:.3e}"
        note(f"  N={n} D={d:2d} margin={m:2d} s={s:2d} max_residual={shown} exit={rc} "
             f"eps={eps} r={rr}")


def failure_ledger(recs):
    failed = [r for r in recs if not r["outcome"].ok]
    note(f"failed invocations in the first pass: {len(failed)} of {len(recs)}")
    for r in failed:
        note(f"  {' '.join(r['argv'])} -> {r['outcome'].problem}")


def run(workload, seed, seconds, trace):
    WORK.mkdir(exist_ok=True)
    calls = generate(workload, seed)
    env_rec = spawn(WARMUP[0], environment=True)
    for argv in WARMUP[1:]:
        spawn(argv)
    note(f"environment: {json.dumps(env_rec['environment'], sort_keys=True)}")
    note(f"workload {workload}, seed {seed}: {len(calls)} invocations per pass, "
         f"one child interpreter each, one at a time; {len(WARMUP)} untimed warm-up children")

    start = time.monotonic()
    passes, pairs, longest = [], [], 0.0
    while True:
        t0 = time.monotonic()
        untraced = run_pass(calls)
        passes.append(untraced)
        if trace:
            pairs.append((untraced, run_pass(calls, trace=True)))
        longest = max(longest, time.monotonic() - t0)
        # the per-layer metrics need no tail percentile, so one traced pair will do
        enough = len(passes) >= (1 if trace else MIN_PASSES)
        if enough and time.monotonic() - start + longest > seconds:
            break

    repeat_at = random.Random(f"repeat:{workload}:{seed}").randrange(len(calls))
    again = spawn(calls[repeat_at])
    deterministic = again["report"] == passes[0]["recs"][repeat_at]["report"]
    note(f"determinism: invocation {repeat_at} ({calls[repeat_at][0]}) repeated, "
         f"report {'identical' if deterministic else 'DIFFERS'}")

    recs = [r for p in passes + [t for _, t in pairs] for r in p["recs"]]
    attempted = len(recs)
    failed = sum(not r["outcome"].ok for r in recs) + (not deterministic)
    # A non-zero exit is a failure the program reports itself; a report that
    # exits 0 but fails the benchmark's own check is a wrong answer.
    correct = deterministic and all(r["outcome"].ok or r["rc"] != 0 for r in recs)
    residual_table(passes[0]["recs"])
    failure_ledger(passes[0]["recs"])
    path = WORK / f"invocations-{workload}-{seed}.jsonl"
    with open(path, "w") as fh:
        for r in recs:
            fh.write(json.dumps({"argv": r["argv"], "rc": r["rc"], "main_s": r["main_s"],
                                 "setup_s": r["setup_s"], "reference_s": r["reference_s"],
                                 "problem": r["outcome"].problem,
                                 "max_residual": r["outcome"].max_residual}) + "\n")
    note(f"per-invocation records written to {path.relative_to(ROOT)}")
    if trace:
        metrics = per_layer(pairs, workload, seed)
    else:
        setup = [r["setup_s"] for p in passes for r in p["recs"]]
        metrics = end_to_end(passes, setup, failed, attempted)
    return {"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if not (PACKAGE / "cli.py").is_file():
        print(f"error: the qrea sources are missing ({PACKAGE.relative_to(ROOT)})", file=sys.stderr)
        return 2
    result = run(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
