"""Verification suites: wiring, determinism, negative control, coverage."""

import inspect
import json
import os

import pytest

from pascent import gf, patterns, verify
from pascent.series import MultiPoly, TSeries


def test_oracle_suites_small():
    assert verify.check_oracle_vs("A", 2, 6).passed
    assert verify.check_oracle_vs("R", 3, 8).passed
    report = verify.check_oracle_vs("G1_full", 3, 4)
    assert report.passed
    assert gf.eval_G1_full(3, 4).monomial_coefficient((4, 1, 2, 1, 0)) == 3


def test_oracle_all_names():
    for name in verify.ORACLE_GF_NAMES:
        report = verify.check_oracle_vs(name, 2, 5)
        assert report.passed, report.to_json()
        assert report.suite == f"oracle_{name}"


def test_oracle_unknown_name():
    with pytest.raises(ValueError):
        verify.check_oracle_vs("B", 2, 5)


def test_budget_guard():
    with pytest.raises(verify.BudgetExceededError):
        verify.check_oracle_vs("A", 4, 25)


def test_identity_suites_small():
    assert verify.check_identity("rel16", 2, 8).passed
    assert verify.check_identity("jelinek", 1, 12).passed
    assert verify.check_identity("psi", None, 10).passed
    assert verify.check_identity("H_gives_A", 3, 8).passed
    assert verify.check_identity("primitive_substitution", 2, 8).passed
    assert verify.check_identity("delta_gamma_calculus", None, 8).passed
    assert verify.check_identity("cancellation", 2, 8).passed
    assert verify.check_identity("maxk_boundary", 2, 8).passed
    assert verify.check_identity("fishburn_p1", None, 8).passed
    assert verify.check_identity("kernel_G", 1, 6).passed
    assert verify.check_identity("kernel_H", 1, 6).passed


def test_identity_validation():
    with pytest.raises(ValueError):
        verify.check_identity("nope", 2, 6)
    with pytest.raises(ValueError):
        verify.check_identity("jelinek", 2, 6)
    with pytest.raises(ValueError):
        verify.check_identity("kernel_G", None, 6)


def test_pattern_suites_small():
    for name, p in (
        ("patterns_01", 2),
        ("patterns_10", 3),
        ("patterns_00", 3),
        ("patterns_012", 4),
        ("vincular_212", 3),
        ("bijection_10_012", 2),
        ("embed_roundtrip", 3),
    ):
        report = verify.check_pattern(name, p, 6)
        assert report.passed, report.to_json()


def test_corrupted_evaluator_is_caught(monkeypatch):
    real = gf.eval_A

    def corrupted(p, order):
        bad = TSeries.from_poly(order, MultiPoly.variable("z"), 3)
        return real(p, order) + bad

    monkeypatch.setattr(gf, "eval_A", corrupted)
    report = verify.check_oracle_vs("A", 2, 6)
    assert not report.passed
    assert report.first_discrepancy is not None
    disc = report.first_discrepancy
    assert disc["t_order"] == 3
    assert disc["monomial"] == [0, 0, 1, 0]
    assert int(disc["expected"]) - int(disc["actual"]) == 1


def test_report_json_schema():
    report = verify.check_oracle_vs("A", 2, 4)
    obj = json.loads(report.to_json())
    assert set(obj) == {"suite", "parameters", "status", "first_discrepancy"}
    assert obj["status"] == "pass"
    assert obj["first_discrepancy"] is None


def test_determinism():
    a = verify.check_identity("rel16", 2, 6)
    b = verify.check_identity("rel16", 2, 6)
    assert a.to_json() == b.to_json()


# Every evaluator, kernel family and closed form that run_all must call.
REQUIRED_COVERED = (
    "delta", "gamma", "delta_bar", "gamma_bar",
    "eval_G1_u", "eval_G1_full", "eval_Gr", "eval_G",
    "eval_H", "eval_A", "eval_P", "eval_R", "eval_maxk",
    "psi", "eval_A1_product_form", "oracle_table",
    "count_avoiders", "closed_count", "gf_avoiders",
    "count_vincular_212_ternary",
    "bijection_10_to_012", "bijection_012_to_10",
    "embed", "project",
)


def _record_calls(monkeypatch, called):
    """Wrap the public functions of gf and patterns, and verify's oracle_table;
    each call adds the function's name to called."""

    def recording(name, fn):
        def wrapper(*args, **kwargs):
            called.add(name)
            return fn(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(verify, "oracle_table", recording("oracle_table", verify.oracle_table))
    for module in (gf, patterns):
        for name, fn in list(vars(module).items()):
            if inspect.isfunction(fn) and not name.startswith("_") \
                    and fn.__module__ == module.__name__:
                monkeypatch.setattr(module, name, recording(name, fn))


@pytest.fixture(scope="module")
def budget_4_run():
    """One run_all(4) with every call recorded: (reports, called names)."""
    called = set()
    with pytest.MonkeyPatch.context() as monkeypatch:
        _record_calls(monkeypatch, called)
        monkeypatch.delenv("PASCENT_JOBS", raising=False)
        verify._bundle.cache_clear()   # earlier tests may have cached the oracle tables
        reports = verify.run_all(4)
    verify._bundle.cache_clear()       # drop tables built through the wrappers
    return reports, called


def test_registry_complete(budget_4_run):
    _, called = budget_4_run
    assert sorted(set(REQUIRED_COVERED) - called) == []


def test_run_all_budget_4(budget_4_run):
    reports, _ = budget_4_run
    assert len(reports) >= 40
    failures = [r.to_json() for r in reports if not r.passed]
    assert failures == []
    # deterministic ordering and parameters
    again = verify.run_all(4)
    assert [r.to_json() for r in again] == [r.to_json() for r in reports]


def test_run_all_validates_budget():
    with pytest.raises(ValueError):
        verify.run_all(3)


@pytest.mark.parametrize("text", ["abc", "0", "-3", "1.5"])
def test_jobs_rejects_non_positive(text):
    with pytest.raises(ValueError, match="PASCENT_JOBS"):
        verify._jobs(text)


def test_jobs_capped_at_cpu_count():
    assert verify._jobs(None) == verify._jobs("") == verify._jobs("1") == 1
    assert verify._jobs(str(10**9)) == (os.cpu_count() or 1)
