"""The benchmark declaration in perfbench/spec.py names things that exist.

The tracer patches every span target by name and the workloads pass their
configs to SuiteConfig, so a rename or a narrowed param range in virfock
would break the benchmark without failing any other test.  spec.py is
read and executed here, not imported, so no file is written under
perfbench/.
"""

import importlib
import pathlib
import types

import pytest

from virfock.suites import SuiteConfig, run_suite, suite_names

SPEC_PATH = pathlib.Path(__file__).resolve().parents[1] / "perfbench" / "spec.py"


def _load_spec():
    spec = types.ModuleType("perfbench_spec")
    spec.__file__ = str(SPEC_PATH)
    exec(compile(SPEC_PATH.read_text(encoding="utf-8"), str(SPEC_PATH), "exec"),
         spec.__dict__)
    return spec


SPEC = _load_spec()


@pytest.mark.parametrize("module,attr", sorted(
    {target for targets in SPEC.SPANS.values() for target in targets}))
def test_span_targets_resolve(module, attr):
    obj = importlib.import_module(f"virfock.{module}")
    for part in attr.split("."):
        obj = getattr(obj, part)
    assert callable(obj)


def test_suite_check_counts_name_suites():
    assert set(SPEC.SUITE_CHECKS) <= set(suite_names())


@pytest.mark.parametrize("workload", sorted(SPEC.WORKLOADS))
def test_workload_configs_are_accepted(workload):
    for suite, params in SPEC.WORKLOADS[workload]["suites"]:
        cfg = SuiteConfig(suite=suite, params=dict(params))
        assert cfg.suite in suite_names()


@pytest.mark.parametrize("suite", sorted(SPEC.SUITE_CHECKS))
def test_suite_emits_the_declared_number_of_checks(suite):
    # the pass ratio divides by SUITE_CHECKS, so a dropped or merged check
    # would skew it; ids are numbered 01..NN without gaps
    ids = [c.check_id for c in run_suite(SuiteConfig(suite)).checks]
    assert [i.split("-")[0] for i in ids] == \
        [f"{k:02d}" for k in range(1, SPEC.SUITE_CHECKS[suite] + 1)]
