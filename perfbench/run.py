"""The virfock benchmark.

Usage:
    python3 perfbench/run.py --workload verify-suites [--seed 12345]
        [--seconds 60] [--trace 0|1]

Run from anywhere inside a checkout that has ``src/virfock``; workloads
are declared in ``spec.py``.  Every pass of a workload runs in a fresh
interpreter (``child.py``), so each pass pays the warm-up a CLI call pays.
Every interpreter runs BLAS on one thread (``CHILD_ENV``).

``--trace 0`` runs untraced passes for ``--seconds`` (at least two), the
first few each followed by an interpreter that only imports ``virfock``,
and reports the medians of ``wall_s``, ``setup_s`` and ``peak_rss_mb``
and the share of checks that passed.

``--trace 1`` profiles the import with ``python -X importtime``, runs one
untraced and one traced pass and reports the per-layer metrics of the
traced pass, with the tracing overhead.  The spans are written to
``perfbench/out/``.

Either way the run is correct only if every check of every pass passed, no
suite raised, and every pass emitted the same
``--no-timestamp`` report byte for byte.  The last line of stdout is one
JSON object: correct, attempted, failed and metrics.  The exit code is 0
when the run completed, correct or not, and 2 when the program could not
be run at all.
"""

from __future__ import annotations

import argparse
import compileall
import json
import os
import statistics
import subprocess
import sys
import time

import spec

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")

IMPORT_SAMPLES = 5       # import-only interpreters per untraced run
IMPORTTIME_SAMPLES = 3   # `-X importtime` interpreters per traced run
MIN_PASSES = 2           # so that two reports can be compared byte for byte
DEADLINE_S = 170.0       # a run must end within 180 s

# On a machine with a few shared cores, BLAS worker threads that spin while
# another process holds a core make a pass several times slower; one thread
# per interpreter keeps the load to one core.
CHILD_ENV = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1",
                 MKL_NUM_THREADS="1")


class ChildFailed(RuntimeError):
    pass


class Run:
    def __init__(self, workload: str, seed: int):
        self.workload = workload
        self.seed = seed
        self.started = time.perf_counter()
        self.passes: list[dict] = []

    def remaining(self) -> float:
        return DEADLINE_S - (time.perf_counter() - self.started)

    def child(self, job: dict) -> dict:
        cmd = [sys.executable, "-I", os.path.join(HERE, "child.py"),
               json.dumps(job)]
        proc = subprocess.run(cmd, cwd=ROOT, env=CHILD_ENV, capture_output=True,
                              text=True, timeout=max(self.remaining(), 1.0))
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            raise ChildFailed(f"child exited {proc.returncode}: "
                              f"{proc.stderr.strip()[-2000:]}")
        return json.loads(lines[-1])

    def timed_import(self) -> float:
        return self.child({"mode": "import"})["import_s"]

    def one_pass(self, trace: bool) -> dict:
        job = {"mode": "pass", "workload": self.workload, "seed": self.seed,
               "trace": trace, "pass": len(self.passes)}
        if trace:
            os.makedirs(OUT, exist_ok=True)
            job["spans_path"] = os.path.join(
                OUT, f"spans-{self.workload}-{self.seed}.json.gz")
        result = self.child(job)
        self.passes.append(result)
        for err in result["errors"]:
            print(f"suite raised: {err}", file=sys.stderr)
        return result

    def verdict(self) -> tuple[bool, int, int]:
        attempted = sum(p["attempted"] for p in self.passes)
        failed = sum(p["failed"] for p in self.passes)
        same = len({p["report_sha256"] for p in self.passes}) == 1
        if not same:
            print("passes at the same seed emitted different reports",
                  file=sys.stderr)
        correct = (failed == 0 and same
                   and not any(p["errors"] for p in self.passes))
        return correct, attempted, failed


def untraced(run: Run, seconds: float) -> dict:
    # Import-only interpreters alternate with the first passes, so that
    # setup_s samples the machine's speed over the whole run, not its start.
    imports = []
    loop_start = time.perf_counter()
    while True:
        run.one_pass(trace=False)
        if len(imports) < IMPORT_SAMPLES:
            imports.append(run.timed_import())
        elapsed = time.perf_counter() - loop_start
        per_pass = elapsed / len(run.passes)
        if len(run.passes) >= MIN_PASSES and elapsed + per_pass > seconds:
            break
    imports += [p["import_s"] for p in run.passes]
    walls = ", ".join(f"{p['wall_s']:.3f}" for p in run.passes)
    print(f"pass wall_s: {walls}; {len(imports)} imports", file=sys.stderr)
    return {
        "wall_s": statistics.median(p["wall_s"] for p in run.passes),
        "setup_s": statistics.median(imports),
        "peak_rss_mb": statistics.median(p["peak_rss_mb"] for p in run.passes),
    }


def import_profile() -> dict:
    """Median over a few interpreters of `python -X importtime` figures:
    cumulative for spec.IMPORT_CUMULATIVE, self for spec.IMPORT_SELF."""
    code = f"import sys; sys.path.insert(0, {SRC!r}); import virfock"
    samples = {m: [] for m in spec.IMPORT_CUMULATIVE + spec.IMPORT_SELF}
    for _ in range(IMPORTTIME_SAMPLES):
        proc = subprocess.run([sys.executable, "-I", "-X", "importtime",
                               "-c", code], cwd=ROOT, env=CHILD_ENV,
                              capture_output=True, text=True, timeout=60)
        if proc.returncode != 0:
            raise ChildFailed(proc.stderr.strip()[-2000:])
        seen = {}
        for line in proc.stderr.splitlines():
            if not line.startswith("import time:") or "|" not in line:
                continue
            self_us, cumulative_us, module = line[len("import time:"):].split("|")
            if self_us.strip().isdigit():
                seen[module.strip()] = (int(self_us), int(cumulative_us))
        for module in samples:
            self_us, cumulative_us = seen.get(module, (0, 0))
            us = cumulative_us if module in spec.IMPORT_CUMULATIVE else self_us
            samples[module].append(us * 1e-6)
    return {spec.import_metric(m): statistics.median(v)
            for m, v in samples.items()}


def traced(run: Run) -> dict:
    layers = import_profile()
    plain = run.one_pass(trace=False)
    with_spans = run.one_pass(trace=True)
    layers.update(with_spans["layers"])
    layers["trace.overhead_s"] = with_spans["wall_s"] - plain["wall_s"]
    print(f"{with_spans['spans']} spans; untraced wall_s = "
          f"{plain['wall_s']:.4f} s, traced wall_s = "
          f"{with_spans['wall_s']:.4f} s", file=sys.stderr)
    return layers


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[1])
    parser.add_argument("--workload", required=True, choices=list(spec.WORKLOADS))
    parser.add_argument("--seed", type=int, default=spec.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=spec.RUN_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "virfock", "__init__.py")):
        print(f"no virfock sources under {SRC}", file=sys.stderr)
        return 2
    # Compile bytecode once, so that the first timed import of a fresh
    # checkout does not pay for it.
    compileall.compile_dir(os.path.join(SRC, "virfock"), quiet=1)

    run = Run(args.workload, args.seed)
    try:
        values = traced(run) if args.trace else untraced(run, args.seconds)
    except (ChildFailed, subprocess.TimeoutExpired) as exc:
        print(f"benchmark could not run: {exc}", file=sys.stderr)
        return 2
    correct, attempted, failed = run.verdict()
    values["check_pass_ratio"] = (attempted - failed) / attempted
    print(f"environment: {json.dumps(run.passes[0]['environment'])}",
          file=sys.stderr)
    print(f"check_fail_ratio = {failed / attempted:.6g} 1", file=sys.stderr)

    if args.trace:
        units = {name: unit for name, unit, _ in spec.per_layer()}
    else:
        units = {name: unit for name, unit, _, _ in spec.END_TO_END}
    metrics = {name: {"value": values[name], "unit": unit}
               for name, unit in units.items()}
    for name, m in metrics.items():
        print(f"{name} = {m['value']:.6g} {m['unit']}", file=sys.stderr)
    if not correct:
        print("FAILED: see the lines above", file=sys.stderr)
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
