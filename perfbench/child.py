"""Run one CLI invocation in this fresh interpreter and report on it.

Usage: python3 child.py '<json spec>'

The spec holds the argv, the parent's monotonic clock reading taken just
before this process was spawned, the expected package directory, and
whether to trace.  The child first imports NumPy, which runs no code of the
program: the interval from the spawn to that point is the host-speed
reference.  It then imports ``qrea.cli`` (the interval from the spawn is the
set-up time), times ``qrea.cli.main(argv)`` with its stdout and stderr
captured, and prints one JSON line with the results.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import sys
import time
import traceback


def blas_threads():
    """Thread count of NumPy's bundled OpenBLAS, or None if not found."""
    import ctypes
    import glob

    import numpy

    libdir = os.path.join(os.path.dirname(numpy.__file__), os.pardir, "numpy.libs")
    for path in glob.glob(os.path.join(libdir, "*openblas*")):
        lib = ctypes.CDLL(path)
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return fn()
    return None


def environment():
    import platform

    import numpy

    return {"python": platform.python_version(), "numpy": numpy.__version__,
            "nproc": os.cpu_count(), "blas_threads": blas_threads(),
            "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
            "OMP_NUM_THREADS": os.environ.get("OMP_NUM_THREADS")}


def main():
    spec = json.loads(sys.argv[1])
    import numpy  # noqa: F401  (the program imports it too)
    reference_s = time.monotonic() - spec["t_spawn"]
    import qrea.cli
    setup_s = time.monotonic() - spec["t_spawn"]
    if os.path.dirname(os.path.abspath(qrea.cli.__file__)) != spec["package_dir"]:
        print(f"imported {qrea.cli.__file__}, expected {spec['package_dir']}", file=sys.stderr)
        return 3

    tracer = None
    if spec["trace"]:
        from tracer import Tracer
        tracer = Tracer()
        tracer.install()

    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        start = time.perf_counter()
        try:
            rc = qrea.cli.main(spec["argv"])
        except Exception:  # an uncaught error is a failed invocation, not a crash
            traceback.print_exc()
            rc = "uncaught exception"
        main_s = time.perf_counter() - start

    result = {"rc": rc, "main_s": main_s, "setup_s": setup_s, "reference_s": reference_s,
              "stdout": out.getvalue(), "stderr": err.getvalue()}
    if spec.get("environment"):
        result["environment"] = environment()
    if tracer is not None:
        from tracer import summarize
        result["trace"] = summarize(tracer.spans, tracer.scalar_ops, tracer.scalar_s)
        result["spans"] = tracer.spans
        systems = sys.modules["qrea.ncalg"]._ZERO_TEST_SYSTEMS.values()
        result["trace"]["memo_entries"] = sum(len(s._memo) for s in systems)
    sys.stdout.write(json.dumps(result) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
