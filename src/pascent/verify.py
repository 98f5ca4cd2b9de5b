"""Machine verification suites: oracle comparisons and identity residuals.

Every closed-form evaluator is compared coefficientwise against the
level-by-level count of core.oracle_table and core.count_by_length (itself
tested against exhaustive enumeration), and every algebraic identity is
checked as a zero residual of exact series arithmetic.  Comparisons are exact
equality of canonical forms; there are no tolerances anywhere.  Suites are
pure functions of their parameters, so reports are deterministic.

The oracle and the avoider counts are level DPs, so the oracle and kernel
suites run at any order; the pattern-family suites' four short patterns keep
under 4,000 states per level up to order 16, far below the state budget of
patterns.avoider_counts.  Three suites walk words, and each
prices its walk first and raises BudgetExceededError above _MAX_NODES words:
embed_roundtrip (the 1-ascent words behind the prefix (01)^(p-1) 0, walked
once and priced by the oracle's count of p-ascent words), bijection_10_012
(the 10- and 012-avoiders, priced by their counts) and vincular_212 (every
ternary word).

A failing suite reports its first discrepancy as one record, built by
_mismatch: t_order, monomial (the u, v, z, x exponents), expected and actual,
then the suite's tag when it compares a family: r for kernel_G and rel16, m
for psi, k for delta_gamma_calculus.  A suite that compares a family of
series yields (tags, expected, actual) triples, and _first builds them one at
a time until one differs.  A suite whose exact arithmetic raises an
ArithmeticError (a failed kernel cancellation) fails with the record
{"error": "<exception name>: <message>"} instead of stopping the run.
"""

from __future__ import annotations

import json
from collections.abc import Callable, Iterator
from dataclasses import asdict, dataclass, field
from itertools import groupby

from . import gf, patterns
from .core import (
    BudgetExceededError,
    PAscentSequence,
    _grow,
    count_by_length,
    oracle_table,
)
from .patterns import Pattern
from .series import MultiPoly, TSeries, _check_at_least, _from_scalars, scalar_coefficients


# hard ceiling on the number of words a suite may walk
_MAX_NODES = 60_000_000

# depth of the psi check (m = 0..6) and of the kernel calculus (s, k = 1..6)
_DEPTH = 6

_U, _V, _Z = (MultiPoly.variable(name) for name in "uvz")

Comparisons = Iterator[tuple[dict, TSeries, TSeries]]


@dataclass
class CheckReport:
    """Outcome of one verification suite run."""

    suite: str
    parameters: dict
    status: str
    first_discrepancy: dict | None = field(default=None)

    @property
    def passed(self) -> bool:
        return self.status == "pass"

    def to_json(self) -> str:
        return json.dumps(asdict(self))


def _mismatch(n: int, expected, actual, monomial=(0, 0, 0, 0), **tags) -> dict:
    """The first_discrepancy record of a failing suite."""
    return {"t_order": n, "monomial": list(monomial), "expected": str(expected),
            "actual": str(actual), **tags}


def _series_discrepancy(expected: TSeries, actual: TSeries) -> dict | None:
    for n, (pe, pa) in enumerate(zip(expected.coeffs, actual.coeffs)):
        if pe == pa:
            continue
        te, ta = pe.terms(), pa.terms()
        for exp in sorted(te.keys() | ta.keys()):
            if te.get(exp, 0) != ta.get(exp, 0):
                return _mismatch(n, te.get(exp, 0), ta.get(exp, 0), exp)
    return None


def _count_discrepancy(expected: list[int], actual: list[int], offset: int = 0) -> dict | None:
    pairs = enumerate(zip(expected, actual), offset)
    return next((_mismatch(n, e, a) for n, (e, a) in pairs if e != a), None)


def _first(comparisons: Comparisons) -> dict | None:
    """First discrepancy among (tags, expected, actual) comparisons, tags added."""
    for tags, expected, actual in comparisons:
        disc = _series_discrepancy(expected, actual)
        if disc is not None:
            return {**disc, **tags}
    return None


def _guard_budget(nodes: int, walk: str) -> None:
    if nodes > _MAX_NODES:
        raise BudgetExceededError(
            f"{walk} would walk {nodes} nodes, over the node budget of {_MAX_NODES}"
        )


def _counts(p: int, n_max: int, **options) -> TSeries:
    """Oracle counts by length (see count_by_length) as a scalar series."""
    return _from_scalars(count_by_length(p, n_max, **options))


def _kernel_sides(p: int, f: TSeries, constant: TSeries) -> tuple[TSeries, TSeries]:
    """Both sides of the kernel equation for F = f, the right one from
    gf._kernel_rhs, the equation that eval_G1_full solves."""
    n_max = f.order
    lhs = (TSeries.from_poly(n_max, _V - 1) + TSeries.from_poly(n_max, _V * (_U - 1), 1)) * f
    return lhs, gf._kernel_rhs(p, f.specialize({"v": 1}), constant)


def _check_kernel_G(p: int, n_max: int) -> Comparisons:
    table = oracle_table(p, n_max)
    for r in range(1, min(3, n_max) + 1):
        constant = TSeries.from_poly(n_max, _U * _V * (_V**p - 1) * _Z**r, r + 1)
        yield {"r": r}, *_kernel_sides(p, table.coefficient_of_var("x", r), constant)


def _check_kernel_H(p: int, n_max: int) -> dict | None:
    h = oracle_table(p, n_max).specialize({"x": 1}) - 1
    return _series_discrepancy(*_kernel_sides(p, h, TSeries.from_poly(n_max, (_V - 1) * _Z, 1)))


def _check_rel16(p: int, n_max: int) -> Comparisons:
    table = oracle_table(p, n_max)
    slice_1 = table.coefficient_of_var("x", 1)
    for r in range(2, min(3, n_max) + 1):
        actual = table.coefficient_of_var("x", r)
        yield {"r": r}, slice_1.shift(r - 1) * _Z ** (r - 1), actual
        yield {"r": r}, gf.eval_Gr(p, r, n_max), actual


def _check_psi(n_max: int) -> Comparisons:
    for m in range(_DEPTH + 1):
        lhs, rhs = gf.psi(m, n_max)
        yield {"m": m}, rhs, lhs


def _check_delta_gamma(n_max: int) -> Comparisons:
    uv = _U * _V
    u_series = TSeries.from_poly(n_max, _U)
    uv_series = TSeries.from_poly(n_max, uv)
    u_minus_1 = TSeries.from_poly(n_max, _U - 1)
    # each family member is built once, for every index s + k reaches
    deltas = [gf.delta(j, n_max) for j in range(2 * _DEPTH + 1)]
    gammas = [gf.gamma(j, n_max) for j in range(2 * _DEPTH + 1)]
    u_over = [u_series / d for d in deltas]
    for k in range(1, _DEPTH + 1):
        tag = {"k": k}
        d_k, repl = deltas[k], u_over[k]
        onemt_k = gf.one_minus_t(n_max) ** k
        yield tag, onemt_k * u_minus_1, u_minus_1.subst_u(repl) * d_k
        for s in range(1, _DEPTH + 1):
            yield tag, deltas[s + k], deltas[s].subst_u(repl) * d_k
            yield tag, gammas[s + k], gammas[s].subst_u(repl) * d_k
            yield tag, u_over[s + k], u_over[s].subst_u(repl)
        # delta_bar and gamma_bar against their formulas, written with uv
        yield tag, uv_series - onemt_k * (uv - 1), gf.delta_bar(k, n_max)
        onemzt_onemt = gf.one_minus_zt(n_max) * gf.one_minus_t(n_max) ** (k - 1)
        yield tag, uv_series - onemzt_onemt * (uv - 1), gf.gamma_bar(k, n_max)


def _check_cancellation(p: int, n_max: int) -> dict | None:
    for name, series in (("G1_u", gf.eval_G1_u(p, n_max)), ("H", gf.eval_H(p, n_max))):
        for (n, *exp), c in sorted(series.terms().items()):
            if exp[0] >= n and c:
                return _mismatch(n, 0, f"{c} (in {name})", exp)
    return None


def _check_primitive_substitution(p: int, n_max: int) -> dict | None:
    t_over_1mt = TSeries.from_poly(n_max, MultiPoly.const(1), 1) * gf.one_minus_t(n_max).invert()
    return _series_discrepancy(
        gf.eval_A(p, n_max, MultiPoly.const(1)),
        gf.eval_R(p, n_max).compose_t(t_over_1mt),
    )


def _check_maxk_boundary(p: int, n_max: int) -> Comparisons:
    yield {}, gf.eval_R(p, n_max), gf.eval_maxk(p, 1, n_max)
    if n_max >= 1:
        yield {}, gf.eval_A(p, n_max, MultiPoly.const(1)), gf.eval_maxk(p, n_max, n_max)


def _check_pattern_family(p: int, pattern_text: str, n_max: int) -> dict | None:
    """Compare the brute avoider counts with the closed form's coefficients,
    plain and primitive."""
    pat = Pattern.parse(pattern_text)
    try:
        columns = [scalar_coefficients(patterns.gf_avoiders(p, pat, n_max, prim))
                   for prim in (False, True)]
    except patterns.NoClosedFormError as exc:
        raise patterns.NoClosedFormError(
            f"pattern {pattern_text} at p={p} has no closed form, so the suite would compare nothing"
        ) from exc
    for primitive_only, closed in zip((False, True), columns):
        disc = _count_discrepancy(patterns.avoider_counts(p, pat, n_max, primitive_only), closed)
        if disc is not None:
            disc["expected"] += " (brute)"
            disc["actual"] += " (closed)"
            return disc
    return None


def _check_vincular(n_max: int) -> dict | None:
    _guard_budget((3**n_max - 1) // 2, f"the ternary 21-2 count up to length {n_max}")
    expected = patterns.avoider_counts(3, Pattern.parse("00"), n_max)[1:]
    actual = [patterns.count_vincular_212_ternary(n) for n in range(1, n_max + 1)]
    return _count_discrepancy(expected, actual, offset=1)


def _check_bijection(p: int, n_max: int) -> dict | None:
    pats = Pattern.parse("10"), Pattern.parse("012")
    nodes = sum(sum(patterns.avoider_counts(p, pat, n_max)) for pat in pats)
    _guard_budget(nodes, f"listing the 10- and 012-avoiders up to length {n_max}")
    sources, targets = (patterns._avoiders_by_length(p, pat, n_max) for pat in pats)
    for n, (source, target) in enumerate(zip(sources, targets)):
        images = set()
        for letters in source:
            image = patterns.bijection_10_to_012(PAscentSequence._trusted(p, letters))
            if patterns.bijection_012_to_10(image).letters != letters:
                return _mismatch(n, letters, "round trip failed")
            images.add(image.letters)
        if images != set(target):
            return _mismatch(n, f"{len(target)} images", f"{len(images)} images")
        closed = patterns.closed_count(p, pats[1], n)
        if len(source) != closed:
            return _mismatch(n, closed, len(source))
    return None


def _check_embed(p: int, n_max: int) -> dict | None:
    counts = count_by_length(p, n_max)
    _guard_budget(sum(counts), f"enumerating p={p} sequences up to length {n_max}")
    if patterns.project(patterns.embed(PAscentSequence(p, ())), p).letters:
        return _mismatch(0, (), "round trip failed")
    # One walk of the 1-ascent words behind the prefix (01)^(p-1) 0: each
    # projects to a p-ascent word w that embeds back to it, so project is
    # injective there, and equal counts by length make embed and project
    # inverse bijections.  The walk is in pre-order, so the first failure of
    # each length is kept and the shortest one reported.
    # The maps are read from patterns once per call, not at import, so that a
    # wrapper set on the module attribute still sees every call.
    project, embed, trusted = patterns.project, patterns.embed, PAscentSequence._trusted
    cut = 2 * p - 2
    walked = [1] + [0] * n_max
    failed: dict[int, tuple[int, ...]] = {}
    for letters in _grow(1, n_max + cut, (0, 1) * (p - 1) + (0,)):
        n = len(letters) - cut
        if embed(project(trusted(1, letters), p)).letters != letters:
            failed.setdefault(n, letters[cut:])
        walked[n] += 1
    if failed:
        n = min(failed)
        return _mismatch(n, failed[n], "round trip failed")
    return _count_discrepancy(counts, walked)


@dataclass(frozen=True)
class Suite:
    """How one named suite checks, reports its parameters, and is run.

    check(p, N, k) returns the first discrepancy, or None when the suite
    passes.  ps is the rule for p: a suite with one value in ps runs only at
    that value (None for a suite that takes no p), and a caller may pass None
    or that value; every other suite needs a positive p.  The report's
    parameters are p, N and then the keys in extra.  run_all runs the suite at
    each p in ps with N = order(budget); the CLI runs it at its only p, or 2,
    and at default_order unless --p or --order is given.
    """

    kind: str  # "oracle", "identity" or "pattern"
    check: Callable[[int | None, int, int], dict | None]
    ps: tuple[int | None, ...] = (1, 2, 3, 4)
    order: Callable[[int], int] = lambda budget: budget
    extra: tuple[str, ...] = ()
    default_order: int = 10


# In report order.  Adjacent suites with the same ps interleave in run_all,
# p outermost (all oracle suites at p = 1, then all at p = 2, ...).
SUITES: dict[str, Suite] = {
    "oracle_G": Suite(
        "oracle", lambda p, n, k: _series_discrepancy(gf.eval_G(p, n), oracle_table(p, n)),
        default_order=6,
    ),
    "oracle_G1_full": Suite(
        "oracle",
        lambda p, n, k: _series_discrepancy(
            gf.eval_G1_full(p, n), oracle_table(p, n).coefficient_of_var("x", 1)
        ),
        default_order=6,
    ),
    "oracle_G1_u": Suite(
        "oracle",
        lambda p, n, k: _series_discrepancy(
            gf.eval_G1_u(p, n), oracle_table(p, n).coefficient_of_var("x", 1).specialize({"v": 1})
        ),
        extra=("D",), default_order=6,
    ),
    "oracle_A": Suite(
        "oracle",
        lambda p, n, k: _series_discrepancy(
            gf.eval_A(p, n), oracle_table(p, n).specialize({"u": 1, "v": 1, "x": 1})
        ),
        default_order=6,
    ),
    "oracle_R": Suite(
        "oracle",
        lambda p, n, k: _series_discrepancy(gf.eval_R(p, n), _counts(p, n, primitive_only=True)),
        default_order=6,
    ),
    "oracle_H": Suite(
        "oracle",
        lambda p, n, k: _series_discrepancy(
            gf.eval_H(p, n), oracle_table(p, n).specialize({"v": 1, "x": 1}) - 1
        ),
        extra=("D",), default_order=6,
    ),
    "oracle_maxk": Suite(
        "oracle",
        lambda p, n, k: _series_discrepancy(gf.eval_maxk(p, k, n), _counts(p, n, max_repeat=k)),
        extra=("k",), default_order=6,
    ),
    "kernel_G": Suite("identity", lambda p, n, k: _first(_check_kernel_G(p, n)), ps=(1, 2, 3)),
    "kernel_H": Suite("identity", lambda p, n, k: _check_kernel_H(p, n), ps=(1, 2, 3)),
    "rel16": Suite("identity", lambda p, n, k: _first(_check_rel16(p, n))),
    "psi": Suite(
        "identity", lambda p, n, k: _first(_check_psi(n)), ps=(None,),
        order=lambda budget: min(20, 2 * budget + 4), extra=("D", "m_max"),
        default_order=20,
    ),
    "jelinek": Suite(
        "identity",
        lambda p, n, k: _series_discrepancy(gf.eval_A1_product_form(n), gf.eval_A(p, n)),
        ps=(1,), order=lambda budget: min(30, 3 * budget + 6), default_order=30,
    ),
    "H_gives_A": Suite(
        "identity",
        lambda p, n, k: _series_discrepancy(
            gf.eval_A(p, n), 1 + gf.eval_H(p, n).specialize({"u": 1})
        ),
        order=lambda budget: budget + 4,
    ),
    "primitive_substitution": Suite(
        "identity", lambda p, n, k: _check_primitive_substitution(p, n),
        order=lambda budget: budget + 4,
    ),
    "delta_gamma_calculus": Suite(
        "identity", lambda p, n, k: _first(_check_delta_gamma(n)), ps=(None,),
        order=lambda budget: budget + 4, extra=("s_max", "k_max"),
        default_order=12,
    ),
    "cancellation": Suite(
        "identity", lambda p, n, k: _check_cancellation(p, n),
        order=lambda budget: budget + 4, extra=("D",),
    ),
    "maxk_boundary": Suite(
        "identity", lambda p, n, k: _first(_check_maxk_boundary(p, n)), ps=(1, 2, 3),
        order=lambda budget: budget + 2,
    ),
    "fishburn_p1": Suite(
        "identity",
        lambda p, n, k: _series_discrepancy(
            gf.eval_A(p, n, MultiPoly.const(1)), gf.eval_P(n)
        ),
        ps=(1,), order=lambda budget: budget + 4,
    ),
    "patterns_01": Suite(
        "pattern", lambda p, n, k: _check_pattern_family(p, "01", n), default_order=8,
    ),
    "patterns_10": Suite(
        "pattern", lambda p, n, k: _check_pattern_family(p, "10", n), default_order=8,
    ),
    "patterns_00": Suite(
        "pattern", lambda p, n, k: _check_pattern_family(p, "00", n), ps=(2, 3),
        default_order=8,
    ),
    "patterns_012": Suite(
        "pattern", lambda p, n, k: _check_pattern_family(p, "012", n), ps=(2, 3, 4, 5),
        default_order=8,
    ),
    "vincular_212": Suite(
        "pattern", lambda p, n, k: _check_vincular(n), ps=(3,),
        order=lambda budget: min(budget + 2, 10), default_order=8,
    ),
    "bijection_10_012": Suite(
        "pattern", lambda p, n, k: _check_bijection(p, n), ps=(2,),
        order=lambda budget: min(budget + 4, 12), default_order=8,
    ),
    "embed_roundtrip": Suite(
        "pattern", lambda p, n, k: _check_embed(p, n),
        order=lambda budget: min(budget, 8), default_order=8,
    ),
}

ORACLE_GF_NAMES = tuple(
    name[len("oracle_"):] for name, suite in SUITES.items() if suite.kind == "oracle"
)
IDENTITY_NAMES = tuple(name for name, suite in SUITES.items() if suite.kind == "identity")
PATTERN_SUITE_NAMES = tuple(name for name, suite in SUITES.items() if suite.kind == "pattern")


def _run(kind: str, name: str, p: int | None, n_max: int, k: int | None = None) -> CheckReport:
    suite = SUITES.get(name)
    if suite is None or suite.kind != kind:
        raise ValueError(f"unknown {kind} suite {name!r}")
    if len(suite.ps) == 1:
        (only,) = suite.ps
        if p not in (None, only):
            raise ValueError(f"suite {name!r} takes no p" if only is None
                             else f"suite {name!r} is only available for p = {only}")
        p = only
    elif p is None or p < 1:
        raise ValueError(f"suite {name!r} needs a positive p")
    values = {"p": p, "N": n_max, "k": k, "D": n_max,
              "m_max": _DEPTH, "s_max": _DEPTH, "k_max": _DEPTH}
    params = {key: values[key] for key in ("p", "N", *suite.extra)}
    try:
        disc = suite.check(p, n_max, k)
    except ArithmeticError as exc:
        # a failed exact division or kernel cancellation fails this suite only
        disc = {"error": f"{type(exc).__name__}: {exc}"}
    except BudgetExceededError as exc:
        at = f"order {n_max}" if p is None else f"p = {p}, order {n_max}"
        raise BudgetExceededError(f"{name} at {at}: {exc}") from exc
    return CheckReport(name, params, "pass" if disc is None else "fail", disc)


def check_oracle_vs(gf_name: str, p: int, n_max: int, k: int = 2) -> CheckReport:
    """Compare one closed-form evaluator against the level-by-level oracle."""
    return _run("oracle", f"oracle_{gf_name}", p, n_max, k)


def check_identity(name: str, p: int | None, n_max: int) -> CheckReport:
    """Verify one algebraic identity as a zero residual through t^n_max."""
    return _run("identity", name, p, n_max)


def check_pattern(name: str, p: int | None, n_max: int) -> CheckReport:
    """Run one pattern-module suite (closed forms, bijections, cross-checks)."""
    return _run("pattern", name, p, n_max)


def run_suite(name: str, p: int | None, n_max: int, k: int = 2) -> CheckReport:
    """Run the suite of this report name through its kind's public check function."""
    suite = SUITES.get(name)
    if suite is None:
        raise ValueError(f"unknown suite {name!r}")
    if suite.kind == "oracle":
        return check_oracle_vs(name[len("oracle_"):], p, n_max, k)
    if suite.kind == "identity":
        return check_identity(name, p, n_max)
    return check_pattern(name, p, n_max)


def _task_matrix(budget: int) -> list[tuple]:
    tasks: list[tuple] = []
    for ps, group in groupby(SUITES.items(), key=lambda item: item[1].ps):
        group = list(group)
        for p in ps:
            tasks.extend((name, p, suite.order(budget)) for name, suite in group)
    return tasks


def run_all(
    budget: int, emit: Callable[[CheckReport], object] | None = None
) -> list[CheckReport]:
    """Run every suite at each p in its ps, in the order SUITES gives.

    Each suite runs at its order(budget): the oracle-backed suites at the
    budget, the pure series identities at budget + 2 or + 4 (psi 2 budget + 4
    and jelinek 3 budget + 6, capped at 20 and 30), and the word walks capped.
    emit, if given, receives each report as its suite finishes, so an error
    in a later suite does not withhold the reports before it.
    """
    _check_at_least("budget", budget, 4)
    reports = []
    for task in _task_matrix(budget):
        reports.append(run_suite(*task))
        if emit is not None:
            emit(reports[-1])
    return reports
