"""Check results and verification reports with stable serialization.

A check is a single named residual comparison; a report is a suite's
worth of checks plus the configuration needed to reproduce it.  Field
order is fixed so that identical runs serialize to identical bytes; the
timestamp is the one field that varies and can be omitted for
byte-for-byte comparisons.

A check reduces a batch of residuals (a number, a list or an array) to
one: the largest value in the batch, floored at 0.0, so an empty batch
reads 0.0.  A NaN anywhere in the batch makes the residual NaN, and a
NaN residual fails.  Boolean checks are encoded as residual 0.0 (holds)
or 1.0 (fails) against tolerance 0.5, so the uniform rule pass =
residual <= tolerance applies everywhere.
"""

from __future__ import annotations

import csv
import io
import json
import platform
import sys
from dataclasses import dataclass, field
from datetime import datetime, timezone

import numpy as np
import scipy


@dataclass(frozen=True)
class CheckResult:
    """One named residual with its tolerance and verdict."""

    check_id: str
    anchor: str
    residual: float
    tolerance: float
    passed: bool


def check(check_id: str, anchor: str, residuals,
          tolerance: float) -> CheckResult:
    """Reduce a batch of residuals to its largest value, floored at 0.0
    (NaN propagates, and fails), and compare it with the tolerance."""
    # np.max keeps a NaN where max() would drop it; + 0.0 turns -0.0 into 0.0
    residual = float(np.max(residuals, initial=0.0)) + 0.0
    tolerance = float(tolerance)
    return CheckResult(check_id, anchor, residual, tolerance,
                       passed=bool(residual <= tolerance))


def boolean_check(check_id: str, anchor: str, holds: bool) -> CheckResult:
    return check(check_id, anchor, 0.0 if holds else 1.0, 0.5)


def environment_info() -> dict:
    return {
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "platform": platform.platform(),
    }


@dataclass(frozen=True)
class VerificationReport:
    suite: str
    seed: int
    tol_scale: float
    checks: tuple[CheckResult, ...]
    environment: dict = field(default_factory=environment_info)
    timestamp: str = field(
        default_factory=lambda: datetime.now(timezone.utc).isoformat())

    def __post_init__(self):
        ordered = tuple(sorted(self.checks, key=lambda c: c.check_id))
        object.__setattr__(self, "checks", ordered)

    @property
    def all_passed(self) -> bool:
        return all(c.passed for c in self.checks)

    @property
    def num_failed(self) -> int:
        return sum(1 for c in self.checks if not c.passed)

    def to_dict(self, include_timestamp: bool = True) -> dict:
        out: dict = {
            "suite": self.suite,
            "seed": self.seed,
            "tol_scale": self.tol_scale,
            "all_passed": self.all_passed,
        }
        if include_timestamp:
            out["timestamp"] = self.timestamp
        out["environment"] = dict(self.environment)
        out["checks"] = [
            {
                "id": c.check_id,
                "anchor": c.anchor,
                "residual": c.residual,
                "tolerance": c.tolerance,
                "pass": c.passed,
            }
            for c in self.checks
        ]
        return out

    def to_json(self, include_timestamp: bool = True) -> str:
        return json.dumps(self.to_dict(include_timestamp), indent=2) + "\n"

    def summary_lines(self) -> list[str]:
        lines = []
        for c in self.checks:
            mark = "PASS" if c.passed else "FAIL"
            lines.append(f"[{mark}] {self.suite}/{c.check_id}: "
                         f"residual={c.residual:.3e} tol={c.tolerance:.3e}  ({c.anchor})")
        verdict = "all passed" if self.all_passed else f"{self.num_failed} failed"
        lines.append(f"{self.suite}: {len(self.checks)} checks, {verdict}")
        return lines


CSV_COLUMNS = ("suite", "id", "anchor", "residual", "tolerance", "pass")


def reports_to_csv(reports: list[VerificationReport]) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(CSV_COLUMNS)
    for rep in reports:
        for c in rep.checks:
            writer.writerow([rep.suite, c.check_id, c.anchor,
                             repr(c.residual), repr(c.tolerance),
                             "true" if c.passed else "false"])
    return buf.getvalue()


def reports_to_json(reports: list[VerificationReport],
                    include_timestamp: bool = True) -> str:
    if len(reports) == 1:
        return reports[0].to_json(include_timestamp)
    payload = [rep.to_dict(include_timestamp) for rep in reports]
    return json.dumps(payload, indent=2) + "\n"


def emit(reports: list[VerificationReport], fmt: str,
         path: str | None = None, include_timestamp: bool = True) -> str:
    """Serialize reports to json or csv; write to path when given."""
    if fmt == "json":
        text = reports_to_json(reports, include_timestamp)
    elif fmt == "csv":
        text = reports_to_csv(reports)
    else:
        raise ValueError(f"unknown format {fmt!r}: expected json or csv")
    if path is not None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
    return text
