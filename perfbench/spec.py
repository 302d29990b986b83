"""What the virfock benchmark runs and reports.

Workloads, end-to-end metrics, the traced spans and the per-layer metrics
drawn from them are declared here once; ``run.py``, ``child.py`` and
``tracer.py`` read them, and ``python3 perfbench/spec.py`` writes
``BENCHMARK.json`` at the repository root from them.

Every workload is a closed loop with one client: its suites run one after
another in a single process, one fresh process per pass, with BLAS on one
thread (``run.CHILD_ENV``).  Configs pass only keys the suite reads today:
``trials`` is never given to ``fock-ccr`` (which ignores it) nor to
``virasoro-orbits`` (where one key drives two loops).
"""

from __future__ import annotations

import json
import os

DEFAULT_SEED = 12345
# A second seed on which every workload passes at the parent commit, kept
# out of tuning so that a later claim can be re-checked on it.
HELD_OUT_SEED = 20091124

RUN_SECONDS = 60

# The suites of `virfock verify all`, in its order, except symplectic-cones,
# whose check 13-compatible-structure fails at about one seed in ten
# (README.md).
VERIFY_SUITES = ["circle-calculus", "convex-cones", "fock-ccr",
                 "fock-central", "fock-vacuum", "virasoro-cocycle",
                 "virasoro-orbits", "virasoro-verma"]

WORKLOADS = {
    "verify-suites": {
        "why": "what `virfock verify all` runs at default sizes, less "
               "symplectic-cones: 8 suites; about 60% of it is virasoro-orbits "
               "(circle evaluate under invert and adjoint_action)",
        "suites": [(suite, {}) for suite in VERIFY_SUITES],
    },
    "fock-cutoff": {
        "why": "larger Fock truncations: fock-ccr at cutoff 16 (dim 969) and "
               "fock-vacuum at N=80; dense FockOperator.compose dominates "
               "time and memory",
        "suites": [("fock-ccr", {"cutoff": 16}), ("fock-vacuum", {"N": 80})],
    },
}

# Checks each suite emits at the parent commit.  A suite that raises is
# counted as this many failed checks, so an exception cannot shrink the
# denominator of the pass ratio.
SUITE_CHECKS = {
    "circle-calculus": 8, "convex-cones": 8, "fock-ccr": 11,
    "fock-central": 10, "fock-vacuum": 7, "virasoro-cocycle": 8,
    "virasoro-orbits": 10, "virasoro-verma": 6,
}


def workload_suites(name: str) -> list[str]:
    return [suite for suite, _ in WORKLOADS[name]["suites"]]


# name, unit, better, bound.  check_fail_ratio is 0 on a healthy run, and a
# benchmark metric must never read 0, so its complement is reported; the
# fail ratio itself is printed on stderr.
END_TO_END = [
    ("wall_s", "s", "lower", 0.25),
    ("setup_s", "s", "lower", 0.25),
    ("peak_rss_mb", "MiB", "lower", 0.1),
    ("check_pass_ratio", "1", "higher", 0.05),
]

# Spans the tracer records: span name -> (module, attribute) pairs, where
# the attribute is a free function or Class.method of virfock.<module>.
# The symplectic layer has none: only symplectic-cones calls it, and no
# workload runs that suite.
SPANS = {
    "circle.evaluate": [("circle", "FourierFunction.evaluate")],
    "circle.invert": [("circle", "invert")],
    "circle.compose": [("circle", "compose")],
    "circle.flow": [("circle", "flow")],
    "circle.from_grid": [("circle", "FourierFunction.from_grid")],
    "circle.grid_values": [("circle", "FourierFunction.grid_values")],
    "circle.schwarzian_values": [("circle", "schwarzian_values")],
    "circle.pullback_density": [("circle", "pullback_density")],
    "circle.multiply": [("circle", "multiply")],
    "virasoro.adjoint_action": [("virasoro", "adjoint_action")],
    "virasoro.coadjoint_action": [("virasoro", "coadjoint_action")],
    "virasoro.orbit_invariants": [("virasoro", "orbit_invariants")],
    "virasoro.chi": [("virasoro", "chi")],
    "virasoro.convexity_check": [("virasoro", "convexity_check")],
    "virasoro.projection_curve": [("virasoro", "projection_curve")],
    "virasoro.verma_gram": [("virasoro", "verma_gram")],
    "fock.ModeSpace": [("fock", "ModeSpace.__init__")],
    "fock.create": [("fock", "create")],
    "fock.annihilate": [("fock", "annihilate")],
    "fock.dgamma": [("fock", "dgamma")],
    "fock.second_quantize": [("fock", "second_quantize")],
    "fock.weyl": [("fock", "weyl")],
    "fock.hat_element": [("fock", "hat_element")],
    "fock.central_term": [("fock", "central_term")],
    "fock.vacuum_implementer": [("fock", "vacuum_implementer")],
    "fock.truncated_vacuum_oracle": [("fock", "truncated_vacuum_oracle")],
    "fock.FockOperator.compose": [("fock", "FockOperator.compose")],
    "fock.FockOperator.arith": [("fock", "FockOperator.__add__"),
                                ("fock", "FockOperator.__sub__"),
                                ("fock", "FockOperator.__mul__"),
                                ("fock", "FockOperator.__rmul__")],
    "fock.FockOperator.restricted_norm": [("fock", "FockOperator.restricted_norm")],
    "realmaps.RealLinearMap.to_real_matrix": [("realmaps", "RealLinearMap.to_real_matrix")],
    "realmaps.RealLinearMap.from_real_matrix": [("realmaps", "RealLinearMap.from_real_matrix")],
    "realmaps.RealLinearMap.compose": [("realmaps", "RealLinearMap.compose")],
    "realmaps.omega": [("realmaps", "omega")],
    "realmaps.inner": [("realmaps", "inner")],
    "realmaps.random_unitary": [("realmaps", "random_unitary")],
    "realmaps.random_symplectic": [("realmaps", "random_symplectic")],
    "convexcore.support_function": [("convexcore", "support_function")],
    "convexcore.dual_cone": [("convexcore", "dual_cone")],
    "convexcore.cone_generators": [("convexcore", "cone_generators")],
    "convexcore.recession_cone": [("convexcore", "recession_cone")],
    "reports.emit": [("reports", "emit")],
}
# suites.run_suite is traced too, as one span per suite named suites.<suite>.

# Spans whose call count is reported besides their self time.
COUNTED = {
    "circle.evaluate", "circle.invert", "virasoro.adjoint_action",
    "virasoro.verma_gram", "fock.FockOperator.compose",
    "realmaps.RealLinearMap.to_real_matrix", "realmaps.omega",
}

# Modules whose import time `python -X importtime` reports: third-party
# packages by cumulative time, virfock modules by their own (self) time,
# and the whole package cumulatively under setup.import.virfock_s.
IMPORT_CUMULATIVE = ["numpy", "scipy.linalg", "scipy.optimize", "virfock"]
IMPORT_SELF = ["virfock.circle", "virfock.convexcore", "virfock.fock",
               "virfock.realmaps", "virfock.reports", "virfock.suites",
               "virfock.symplectic", "virfock.virasoro"]


def import_metric(module: str) -> str:
    return f"setup.import.{module}_s"


def per_layer() -> list[tuple[str, str, str]]:
    """Per-layer metrics in output order: name, unit, better.  README.md
    says which end-to-end metric each should move, and on which workload."""
    rows = []
    for span in SPANS:
        if span in COUNTED:
            rows.append((f"{span}.calls", "count", "lower"))
        rows.append((f"{span}.self_s", "s", "lower"))
        if span == "circle.evaluate":
            rows.append(("circle.evaluate.terms", "count", "lower"))
        if span == "circle.invert":
            rows.append(("circle.invert.evaluates_per_call", "count", "lower"))
        if span == "fock.FockOperator.compose":
            rows.append(("fock.FockOperator.compose.flops", "flop", "lower"))
    rows.append(("fock.operator.max_bytes", "B", "lower"))
    rows.append(("fock.operator.nnz_ratio", "1", "higher"))
    for suite in sorted(SUITE_CHECKS):
        rows.append((f"suites.{suite}.wall_s", "s", "lower"))
        rows.append((f"suites.{suite}.self_s", "s", "lower"))
    rows.append(("suites.checks", "count", "higher"))
    rows.append(("suites.checks_failed", "count", "lower"))
    for module in IMPORT_CUMULATIVE + IMPORT_SELF:
        rows.append((import_metric(module), "s", "lower"))
    rows.append(("trace.overhead_s", "s", "lower"))
    return rows


def benchmark_json() -> dict:
    return {
        "command": ["python3", "perfbench/run.py"],
        "paths": ["perfbench"],
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": name, "why": spec["why"]}
                      for name, spec in WORKLOADS.items()],
        "end_to_end": [{"name": n, "unit": u, "better": b, "bound": bound}
                       for n, u, b, bound in END_TO_END],
        "per_layer": [{"name": n, "unit": u, "better": b}
                      for n, u, b in per_layer()],
    }


if __name__ == "__main__":
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    with open(os.path.join(root, "BENCHMARK.json"), "w", encoding="utf-8") as fh:
        fh.write(json.dumps(benchmark_json(), indent=2) + "\n")
