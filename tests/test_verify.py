"""Verification suites: wiring, determinism, negative control, coverage."""

import inspect
import json

import pytest

from pascent import gf, patterns, verify
from pascent.cli import main
from pascent.series import MultiPoly, TSeries


def test_oracle_suites_small():
    assert verify.check_oracle_vs("A", 2, 6).passed
    assert verify.check_oracle_vs("R", 3, 8).passed
    report = verify.check_oracle_vs("G1_full", 3, 4)
    assert report.passed
    assert gf.eval_G1_full(3, 4).terms()[(4, 1, 2, 1, 0)] == 3


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
        verify.check_pattern("embed_roundtrip", 4, 25)


def test_budget_guard_does_not_build_the_closed_form(monkeypatch):
    """The node count comes from the oracle's count by length, before any word
    is walked, and not from eval_A."""
    def broken(*args, **kwargs):
        raise ZeroDivisionError("built or walked")

    monkeypatch.setattr(gf, "eval_A", broken)
    monkeypatch.setattr(verify, "_grow", broken)
    with pytest.raises(verify.BudgetExceededError, match="7371945858621870049555660 nodes"):
        verify.check_pattern("embed_roundtrip", 4, 25)


def test_budget_guards_the_avoider_walks(monkeypatch):
    """bijection_10_012 lists every 10- and 012-avoider, and vincular_212
    walks every ternary word; each walk is priced before it starts."""
    monkeypatch.setattr(verify, "_MAX_NODES", 1000)
    with pytest.raises(verify.BudgetExceededError, match="2050 nodes"):
        verify.check_pattern("bijection_10_012", 2, 8)
    with pytest.raises(verify.BudgetExceededError, match="3280 nodes"):
        verify.check_pattern("vincular_212", 3, 8)
    assert verify.check_pattern("bijection_10_012", 2, 6).passed
    assert verify.check_pattern("vincular_212", 3, 6).passed


@pytest.mark.parametrize("name", verify.ORACLE_GF_NAMES)
def test_oracle_suites_deep(name):
    """The oracle is a level DP, so no node budget stops an order-14 run."""
    report = verify.check_oracle_vs(name, 4, 14)
    assert report.passed, report.to_json()


@pytest.mark.parametrize("name", ["kernel_G", "kernel_H", "rel16"])
def test_kernel_suites_deep(name):
    report = verify.check_identity(name, 3, 12)
    assert report.passed, report.to_json()


@pytest.mark.parametrize("name,p", [
    *((name, p) for name in ("patterns_01", "patterns_10", "patterns_00") for p in (2, 3)),
    *(("patterns_012", p) for p in (2, 3, 4, 5)),
])
def test_pattern_suites_deep(name, p):
    """The avoider counts are a level DP too, so the pattern-family suites
    run at order 14."""
    report = verify.check_pattern(name, p, 14)
    assert report.passed, report.to_json()


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


@pytest.mark.parametrize("name,p", [
    ("fishburn_p1", 1), ("maxk_boundary", 2), ("primitive_substitution", 2),
])
def test_A_at_z_1_suites_pass_order_130(name, p):
    """These suites build A at z = 1, so no z-exponent reaches the overflow
    bound that a symbolic z meets from order 128 on."""
    report = verify.check_identity(name, p, 130)
    assert report.passed, report.to_json()


def test_identity_validation():
    """A suite with one p in its ps refuses any other p, and the rest need one."""
    for name, p in (
        ("nope", 2),
        ("jelinek", 2),
        ("kernel_G", None),
        ("psi", 7),
        ("delta_gamma_calculus", 1),
        ("fishburn_p1", 9),
    ):
        with pytest.raises(ValueError):
            verify.check_identity(name, p, 6)


def test_pattern_validation():
    for name, p in (("vincular_212", 5), ("bijection_10_012", 4)):
        with pytest.raises(ValueError, match="only available for p = "):
            verify.check_pattern(name, p, 6)


def test_pattern_family_refuses_a_suite_that_compares_nothing(capsys):
    """With no closed form and no generating function in either pass, only
    the brute column exists, so the suite is refused instead of passing."""
    for name, p in (("patterns_00", 1), ("patterns_00", 4), ("patterns_00", 7)):
        with pytest.raises(patterns.NoClosedFormError, match="compare nothing"):
            verify.check_pattern(name, p, 6)
        assert main(["verify", "--suite", name, "--p", str(p)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("pascent: ") and captured.err.count("\n") == 1


@pytest.mark.parametrize("name,only", [
    ("psi", None), ("delta_gamma_calculus", None), ("fishburn_p1", 1), ("jelinek", 1),
    ("vincular_212", 3), ("bijection_10_012", 2),
])
def test_single_p_suites_take_none_or_their_p(name, only):
    for p in (None, only):
        report = verify.run_suite(name, p, 6)
        assert report.passed, report.to_json()
        assert report.parameters["p"] == only


def test_run_suite_refuses_an_unknown_name():
    # this raised KeyError: 'nope'
    with pytest.raises(ValueError, match="unknown suite 'nope'"):
        verify.run_suite("nope", 2, 4)


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
    "avoider_counts", "closed_count", "gf_avoiders",
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
        reports = verify.run_all(4)
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


def _bump(real, poly, power, when=lambda *args: True):
    """real, plus poly t^power in its result whenever when(*args) holds."""
    def corrupted(*args):
        out = real(*args)
        if not when(*args):
            return out
        return out + TSeries.from_poly(out.order, poly, power)
    return corrupted


def _corrupt_psi(real):
    """real, with z t^3 added to the right side of m = 2."""
    def corrupted(m, order, u_bound=None):
        lhs, rhs = real(m, order, u_bound)
        return lhs, (rhs + TSeries.from_poly(order, MultiPoly.variable("z"), 3) if m == 2 else rhs)
    return corrupted


def _bump_gamma_rows(real):
    """real, plus z t^3 in row 0, at the integer z it is run at."""
    def corrupted(terms, first, bound, order, z, op):
        rows = real(terms, first, bound, order, z, op)
        rows[0][3] += z
        return rows
    return corrupted


def _corrupt_closed_count(real):
    def corrupted(p, pat, n, primitive_only=False):
        return real(p, pat, n, primitive_only) + (n == 3 and not primitive_only)
    return corrupted


def _drop_last_012_avoider(real):
    """real, without the last 012-avoider of length 3."""
    def corrupted(p, pat, n_max):
        buckets = real(p, pat, n_max)
        if str(pat) == "012":
            buckets[3] = buckets[3][:-1]
        return buckets
    return corrupted


def _corrupt_count_by_length(real):
    """real, counting one word too many at length 3."""
    def corrupted(p, n_max, **options):
        return [c + (n == 3) for n, c in enumerate(real(p, n_max, **options))]
    return corrupted


def _swap_result(real, letters, replacement):
    """real, returning replacement letters where it would return letters."""
    def corrupted(*args):
        out = real(*args)
        return type(out)(out.p, replacement) if out.letters == letters else out
    return corrupted


_XZ = MultiPoly.monomial((0, 0, 2, 2))
_U3 = MultiPoly.monomial((3, 0, 0, 0))

# (case id, module, function name, corruption, check function, its arguments,
#  the first_discrepancy it reports)
FAILURE_RECORDS = [
    ("oracle_G_deep", gf, "eval_G", lambda f: _bump(f, MultiPoly.variable("z"), 13),
     verify.check_oracle_vs, ("G", 3, 14),
     {"t_order": 13, "monomial": [0, 0, 1, 0], "expected": "1", "actual": "0"}),
    ("rel16", gf, "eval_Gr", lambda f: _bump(f, MultiPoly.variable("z"), 3),
     verify.check_identity, ("rel16", 2, 6),
     {"t_order": 3, "monomial": [0, 0, 1, 0], "expected": "1", "actual": "0", "r": 2}),
    # the left side's Horner rows (the prefactor (u-1)(1-zt) of m = 0 turns
    # their z t^3 into -z t^3), then the public psi's right side
    ("psi", gf, "_gamma_rows", _bump_gamma_rows,
     verify.check_identity, ("psi", None, 6),
     {"t_order": 3, "monomial": [0, 0, 1, 0], "expected": "0", "actual": "-1", "m": 0}),
    ("psi_public", gf, "psi", _corrupt_psi,
     verify.check_identity, ("psi", None, 6),
     {"t_order": 3, "monomial": [0, 0, 1, 0], "expected": "1", "actual": "0", "m": 2}),
    ("delta_gamma_calculus", gf, "delta",
     lambda f: _bump(f, MultiPoly.variable("u"), 2, lambda k, order: k == 3),
     verify.check_identity, ("delta_gamma_calculus", None, 6),
     {"t_order": 2, "monomial": [1, 0, 0, 0], "expected": "-2", "actual": "-3", "k": 1}),
    ("kernel_G", verify, "oracle_table", lambda f: _bump(f, _XZ, 4),
     verify.check_identity, ("kernel_G", 2, 6),
     {"t_order": 4, "monomial": [0, 0, 2, 0], "expected": "-1", "actual": "0", "r": 2}),
    ("kernel_H", verify, "oracle_table", lambda f: _bump(f, _XZ, 4),
     verify.check_identity, ("kernel_H", 2, 6),
     {"t_order": 4, "monomial": [0, 0, 2, 0], "expected": "-1", "actual": "0"}),
    # the right side that eval_G1_full solves is the one kernel_G checks
    ("kernel_G_rhs", gf, "_kernel_rhs", lambda f: _bump(f, MultiPoly.variable("z"), 3),
     verify.check_identity, ("kernel_G", 2, 6),
     {"t_order": 3, "monomial": [0, 0, 1, 0], "expected": "0", "actual": "1", "r": 1}),
    ("maxk_boundary", gf, "eval_maxk",
     lambda f: _bump(f, MultiPoly.const(1), 4, lambda p, k, order: k > 1),
     verify.check_identity, ("maxk_boundary", 2, 6),
     {"t_order": 4, "monomial": [0, 0, 0, 0], "expected": "46", "actual": "47"}),
    ("cancellation", gf, "eval_G1_u", lambda f: _bump(f, _U3, 2),
     verify.check_identity, ("cancellation", 2, 6),
     {"t_order": 2, "monomial": [3, 0, 0, 0], "expected": "0", "actual": "1 (in G1_u)"}),
    ("patterns_10_closed", patterns, "gf_avoiders",
     lambda f: _bump(f, MultiPoly.const(1), 3, lambda p, pat, order, primitive_only: not primitive_only),
     verify.check_pattern, ("patterns_10", 2, 6),
     {"t_order": 3, "monomial": [0, 0, 0, 0], "expected": "8 (brute)", "actual": "9 (closed)"}),
    ("vincular_212", patterns, "count_vincular_212_ternary",
     lambda f: lambda n: f(n) + (n == 4),
     verify.check_pattern, ("vincular_212", 3, 6),
     {"t_order": 4, "monomial": [0, 0, 0, 0], "expected": "24", "actual": "25"}),
    ("bijection_10_012", patterns, "bijection_012_to_10",
     lambda f: _swap_result(f, (0, 1), (0, 0)),
     verify.check_pattern, ("bijection_10_012", 2, 6),
     {"t_order": 2, "monomial": [0, 0, 0, 0], "expected": "(0, 1)", "actual": "round trip failed"}),
    ("bijection_10_012_images", patterns, "_avoiders_by_length", _drop_last_012_avoider,
     verify.check_pattern, ("bijection_10_012", 2, 6),
     {"t_order": 3, "monomial": [0, 0, 0, 0], "expected": "7 images", "actual": "8 images"}),
    ("bijection_10_012_closed", patterns, "closed_count", _corrupt_closed_count,
     verify.check_pattern, ("bijection_10_012", 2, 6),
     {"t_order": 3, "monomial": [0, 0, 0, 0], "expected": "9", "actual": "8"}),
    ("embed_roundtrip", patterns, "project",
     lambda f: _swap_result(f, (0, 1), (0, 0)),
     verify.check_pattern, ("embed_roundtrip", 2, 5),
     {"t_order": 2, "monomial": [0, 0, 0, 0], "expected": "(0, 1)", "actual": "round trip failed"}),
    ("embed_roundtrip_image", patterns, "embed",
     lambda f: _swap_result(f, (0, 1, 0, 1), (0, 1, 0, 0)),
     verify.check_pattern, ("embed_roundtrip", 2, 5),
     {"t_order": 2, "monomial": [0, 0, 0, 0], "expected": "(0, 1)", "actual": "round trip failed"}),
    ("embed_roundtrip_count", verify, "count_by_length", _corrupt_count_by_length,
     verify.check_pattern, ("embed_roundtrip", 2, 5),
     {"t_order": 3, "monomial": [0, 0, 0, 0], "expected": "12", "actual": "11"}),
]


@pytest.mark.parametrize(
    "module, name, corrupt, check, args, expected",
    [case[1:] for case in FAILURE_RECORDS],
    ids=[case[0] for case in FAILURE_RECORDS],
)
def test_failure_records(monkeypatch, module, name, corrupt, check, args, expected):
    """Each corrupted function makes its suite fail with exactly this record."""
    monkeypatch.setattr(module, name, corrupt(getattr(module, name)))
    report = check(*args)
    assert report.status == "fail"
    # the same keys, in the same order, with the same values
    assert list(report.first_discrepancy.items()) == list(expected.items())


@pytest.mark.parametrize("module, name, fault, expected", [
    (TSeries, "subst_u_to_uv", lambda self: self,
     {"t_order": 1, "monomial": [1, 0, 0, 0], "expected": "0", "actual": "1", "k": 1}),
    (gf, "gamma_bar", gf.gamma,
     {"t_order": 1, "monomial": [1, 0, 1, 0], "expected": "0", "actual": "1", "k": 1}),
], ids=["subst_u_to_uv", "gamma_bar"])
def test_bar_families_checked_against_their_formulas(monkeypatch, module, name, fault, expected):
    """delta_bar and gamma_bar are compared with uv - (1-t)^k (uv - 1) and
    uv - (1-zt)(1-t)^(k-1) (uv - 1), not with the substitution that defines them."""
    monkeypatch.setattr(module, name, fault)
    report = verify.check_identity("delta_gamma_calculus", None, 8)
    assert list(report.first_discrepancy.items()) == list(expected.items())


def test_psi_deep():
    """The psi suite at the order that --budget 8 gives it."""
    assert verify.SUITES["psi"].order(8) == 20
    report = verify.check_identity("psi", None, 20)
    assert report.passed, report.to_json()


def test_failed_cancellation_fails_only_its_suites(monkeypatch):
    """An ArithmeticError inside a suite fails that suite; run_all goes on."""
    monkeypatch.setattr(gf, "eval_G1_u", _bump(gf.eval_G1_u, MultiPoly.variable("z"), 3))
    reports = verify.run_all(4)
    assert len(reports) == len(verify._task_matrix(4))
    failed = {r.suite for r in reports if not r.passed}
    assert failed == {"oracle_G", "oracle_G1_full", "oracle_G1_u", "rel16"}
    errors = {r.suite: r.first_discrepancy for r in reports
              if not r.passed and "error" in r.first_discrepancy}
    assert set(errors) == {"oracle_G", "oracle_G1_full", "rel16"}
    for record in errors.values():
        assert list(record) == ["error"]
        assert record["error"].startswith("ArithmeticError: kernel cancellation failed at t^")


def test_other_errors_still_raise(monkeypatch):
    def broken(p, order):
        raise ValueError("not an arithmetic failure")

    monkeypatch.setattr(gf, "eval_A", broken)
    with pytest.raises(ValueError, match="not an arithmetic failure"):
        verify.check_oracle_vs("A", 2, 4)
