"""One pass of a workload in a fresh interpreter.

Usage: python3 -I perfbench/child.py '<json job>'

The job says the mode ("import" times ``import virfock`` only, "pass" also
runs the workload once), the workload, the seed and whether to trace.  The
result is one JSON line on stdout.  Nothing but ``sys``, ``os`` and
``time`` is imported before ``import virfock`` is timed, so the import
pays for everything a CLI call would.
"""

import os
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")


def timed_import() -> float:
    sys.path.insert(0, SRC)
    t0 = time.perf_counter()
    import virfock  # noqa: F401
    elapsed = time.perf_counter() - t0
    if not os.path.abspath(virfock.__file__).startswith(SRC + os.sep):
        raise SystemExit(f"virfock imported from {virfock.__file__}, not {SRC}")
    return elapsed


def run_workload(workload: dict, seed: int):
    """Run the workload's suites as `virfock verify` does; return (reports,
    report text, errors).  A suite that raises is recorded in errors."""
    from virfock import reports, suites

    done, errors = [], []
    for name, params in workload["suites"]:
        try:
            done.append(suites.run_suite(suites.SuiteConfig(
                suite=name, seed=seed, params=dict(params))))
        except Exception as exc:  # counted as all of the suite's checks failed
            errors.append(f"{name}: {type(exc).__name__}: {exc}")
    text = reports.emit(done, "json", include_timestamp=False)
    return done, text, errors


def environment() -> dict:
    """Interpreter, library versions, cores and BLAS threads of this run."""
    import ctypes
    import glob
    import platform

    import numpy
    import scipy

    blas_threads = None
    libs = glob.glob(os.path.join(os.path.dirname(numpy.__file__) + ".libs",
                                  "*openblas*"))
    for path in libs:
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_",
                       "openblas_get_num_threads64_", "openblas_get_num_threads"):
            getter = getattr(lib, symbol, None)
            if getter is not None:
                getter.restype = ctypes.c_int
                blas_threads = getter()
                break
    return {"python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__, "nproc": len(os.sched_getaffinity(0)),
            "blas_threads": blas_threads}


def main() -> None:
    import_s = timed_import()
    sys.path.insert(1, HERE)
    import json

    job = json.loads(sys.argv[1])
    result = {"import_s": import_s}
    if job["mode"] == "pass":
        import hashlib
        import resource

        import spec

        name, seed = job["workload"], job["seed"]
        tracer = None
        if job["trace"]:
            from tracer import Tracer

            tracer = Tracer(f"{name}:{seed}:{job['pass']}")
            tracer.install()
        t0 = time.perf_counter()
        done, text, errors = run_workload(spec.WORKLOADS[name], seed)
        wall_s = time.perf_counter() - t0

        ran = {rep.suite for rep in done}
        crashed = [s for s in spec.workload_suites(name) if s not in ran]
        attempted = (sum(len(rep.checks) for rep in done)
                     + sum(spec.SUITE_CHECKS[s] for s in crashed))
        failed = (sum(rep.num_failed for rep in done)
                  + sum(spec.SUITE_CHECKS[s] for s in crashed))
        result.update({
            "wall_s": wall_s,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            "attempted": attempted,
            "failed": failed,
            "errors": errors,
            "report_sha256": hashlib.sha256(text.encode()).hexdigest(),
            "report_bytes": len(text),
            "environment": environment(),
        })
        if tracer is not None:
            layers = tracer.layer_metrics()
            layers["suites.checks"] = attempted
            layers["suites.checks_failed"] = failed
            result["layers"] = layers
            result["spans"] = len(tracer.spans)
            if job.get("spans_path"):
                tracer.save(job["spans_path"])
    sys.stdout.write(json.dumps(result) + "\n")


if __name__ == "__main__":
    main()
