"""Generating-function evaluators against frozen printed data and each other."""

import itertools
import math

import pytest

import golden_data as gold
from pascent import gf
from pascent.core import oracle_table
from pascent.series import MultiPoly, TSeries, scalar_coefficients

U = MultiPoly.variable("u")
Z = MultiPoly.variable("z")


def test_delta_gamma_basics():
    n = 6
    assert gf.delta(0, n) == TSeries.one(n)
    assert gf.gamma(0, n) == TSeries.one(n)
    assert gf.delta(1, n) == TSeries.one(n) + TSeries.from_poly(n, U - 1, 1)
    assert gf.gamma(1, n) == TSeries.one(n) + TSeries.from_poly(n, Z * (U - 1), 1)
    for k in range(5):
        assert gf.delta(k, n).coefficient(0) == MultiPoly.const(1)
        assert gf.gamma(k, n).coefficient(0) == MultiPoly.const(1)
        assert gf.delta_bar(k, n) == gf.delta(k, n).subst_u_to_uv()
        assert gf.gamma_bar(k, n) == gf.gamma(k, n).subst_u_to_uv()


@pytest.mark.parametrize(
    "p,table", [(2, gold.G2_1_U), (3, gold.G3_1_U), (4, gold.G4_1_U)]
)
def test_G1_u_printed(p, table):
    series = gf.eval_G1_u(p, 5)
    assert gold.series_terms_through(series, 5) == gold.as_terms(table, "uz")


@pytest.mark.parametrize(
    "p,table", [(2, gold.G2_1_FULL), (3, gold.G3_1_FULL)]
)
def test_G1_full_printed(p, table):
    series = gf.eval_G1_full(p, 5)
    assert gold.series_terms_through(series, 5) == gold.as_terms(table, "uvz")


def test_G1_full_specializes_to_G1_u():
    for p in (1, 2, 3, 4):
        assert gf.eval_G1_full(p, 6).specialize({"v": 1}) == gf.eval_G1_u(p, 6)


def test_G1_full_contains_quoted_monomial():
    assert gf.eval_G1_full(3, 4).monomial_coefficient((4, 1, 2, 1, 0)) == 3


def test_Gr_shift_law():
    for p in (1, 2, 3):
        g1 = gf.eval_Gr(p, 1, 6)
        g2 = gf.eval_Gr(p, 2, 6)
        assert g1 == gf.eval_G1_full(p, 6)
        assert g2 == g1.shift(1) * Z


def test_G_at_x_zero_counts_all_zero_words():
    for p in (1, 3):
        got = gf.eval_G(p, 6).specialize({"x": 0})
        assert got == TSeries([Z**k for k in range(7)])


def test_A2_printed():
    series = gf.eval_A(2, 6)
    assert gold.series_terms_through(series, 6) == gold.as_terms(gold.A2, "z")


@pytest.mark.parametrize(
    "p,table,flagged,true_value",
    [(3, gold.A3, gold.A3_FLAGGED_EXPONENT, 1440),
     (4, gold.A4, gold.A4_FLAGGED_EXPONENT, 120)],
)
def test_A_printed_except_flagged(p, table, flagged, true_value):
    series = gf.eval_A(p, 6)
    terms = gold.series_terms_through(series, 6)
    n_flag, ez_flag = flagged
    flagged_key = (n_flag, 0, 0, ez_flag, 0)
    assert flagged_key in terms
    unflagged = {k: v for k, v in terms.items() if k != flagged_key}
    assert unflagged == gold.as_terms(table, "z")
    # oracle agreement for the misprinted coefficients is asserted in the
    # acceptance suite; here we pin the evaluator's exact value
    assert terms[flagged_key] == true_value


def test_A_monomial_example():
    assert gf.eval_A(4, 6).monomial_coefficient((6, 0, 0, 3, 0)) == 1140


@pytest.mark.parametrize(
    "p,row", [(2, gold.R2), (3, gold.R3), (4, gold.R4)]
)
def test_R_printed(p, row):
    assert scalar_coefficients(gf.eval_R(p, 9)) == row


@pytest.mark.parametrize("p", [1, 2, 3])
@pytest.mark.parametrize("c", [-2, 0, 1, 3])
def test_A_built_at_a_constant_z_is_A_specialized(p, c):
    for order in (0, 1, 10, 30):
        expected = gf.eval_A(p, order).specialize({"z": c})
        assert gf.eval_A(p, order, z=MultiPoly.const(c)) == expected, order


def test_P_matches_A1():
    assert gf.eval_P(10) == gf.eval_A(1, 10).specialize({"z": 1})
    coeffs = scalar_coefficients(gf.eval_P(6))
    assert coeffs[0] == 1 and coeffs[1] == 1


def test_H_printed_row():
    series = 1 + gf.eval_H(2, 6).specialize({"u": 1})
    assert series.coefficient(4) == 21 * Z + 18 * Z**2 + 6 * Z**3 + Z**4


def test_H_first_summand_p1():
    # the leading term of the H sum is z t (1-u) / gamma_1
    n = 5
    lead = TSeries.from_poly(n, Z * (MultiPoly.const(1) - U), 1)
    expected = lead * gf.gamma(1, n).invert()
    got = gf.eval_H(1, n, u_bound=0)
    assert got == expected.u_truncate(0)


def test_H_gives_A_all_p():
    for p in (1, 2, 3, 4):
        assert 1 + gf.eval_H(p, 8).specialize({"u": 1}) == gf.eval_A(p, 8)


def test_cancellation_bound():
    for p in (1, 2, 3, 4):
        for series in (gf.eval_G1_u(p, 8), gf.eval_H(p, 8)):
            for (n, eu, _ev, _ez, _ex), c in series.terms().items():
                assert not (eu >= n and c)


def test_maxk_boundaries():
    assert gf.eval_maxk(2, 1, 8) == gf.eval_R(2, 8)
    assert gf.eval_maxk(2, 8, 8) == gf.eval_A(2, 8).specialize({"z": 1})
    assert gf.eval_maxk(2, 12, 8) == gf.eval_A(2, 8).specialize({"z": 1})


def test_maxk_small_value():
    assert scalar_coefficients(gf.eval_maxk(1, 2, 3))[3] == 4


def test_psi_m0_rhs_is_minus_one():
    lhs, rhs = gf.psi(0, 10)
    assert rhs == TSeries.const(10, -1)
    assert lhs == rhs


def test_psi_m1_rhs():
    n = 8
    _lhs, rhs = gf.psi(1, n)
    t = TSeries.from_poly(n, MultiPoly.const(1), 1)
    u = TSeries.from_poly(n, U)
    onemzt = TSeries.one(n) - TSeries.from_poly(n, Z, 1)
    expected = -(u * t + TSeries.from_poly(n, U - 1) * onemzt)
    assert rhs == expected


def test_psi_identity_medium():
    for m in range(5):
        lhs, rhs = gf.psi(m, 14)
        assert lhs == rhs


def test_jelinek_product_form():
    assert gf.eval_A1_product_form(16) == gf.eval_A(1, 16)


def test_primitive_substitution():
    n = 10
    t_over = TSeries.from_poly(n, MultiPoly.const(1), 1) * gf.one_minus_t(n).invert()
    for p in (1, 2, 3):
        assert gf.eval_R(p, n).compose_t(t_over) == gf.eval_A(p, n).specialize({"z": 1})


def test_A_z1_matches_enumeration():
    for p in (1, 2, 3, 4):
        table = oracle_table(p, 8, stat_selector=())
        assert gf.eval_A(p, 8).specialize({"z": 1}) == table


def test_parameter_validation():
    with pytest.raises(ValueError):
        gf.eval_A(0, 4)
    with pytest.raises(ValueError):
        gf.eval_Gr(2, 0, 4)
    with pytest.raises(ValueError):
        gf.eval_maxk(2, 0, 4)
    with pytest.raises(ValueError):
        gf.delta(-1, 4)


@pytest.mark.parametrize("evaluate", [
    lambda bound: gf.eval_G1_u(2, 6, u_bound=bound),
    lambda bound: gf.eval_H(2, 6, u_bound=bound),
    lambda bound: gf.psi(2, 6, u_bound=bound),
], ids=["eval_G1_u", "eval_H", "psi"])
def test_negative_u_bound_rejected(evaluate):
    # a negative cut would drop every monomial, and psi's two sides would
    # then agree vacuously as zero series
    with pytest.raises(ValueError, match="u_bound"):
        evaluate(-1)


@pytest.mark.parametrize("evaluate", [
    lambda: gf.one_minus_t(-1),
    lambda: gf.delta(2, -1),
    lambda: gf.gamma(2, -1),
    lambda: gf.eval_G(2, -1),
    lambda: gf.eval_G1_full(2, -1),
    lambda: gf.eval_G1_u(2, -1),
    lambda: gf.eval_H(2, -1),
    lambda: gf.eval_A(2, -1),
    lambda: gf.eval_P(-1),
    lambda: gf.eval_R(2, -1),
    lambda: gf.eval_maxk(2, 2, -1),
    lambda: gf.eval_A1_product_form(-1),
    lambda: gf.psi(1, -1),
], ids=["one_minus_t", "delta", "gamma", "eval_G", "eval_G1_full", "eval_G1_u",
        "eval_H", "eval_A", "eval_P", "eval_R", "eval_maxk", "eval_A1_product_form",
        "psi"])
def test_negative_order_rejected(evaluate):
    with pytest.raises(ValueError, match="order must be nonnegative"):
        evaluate()


def test_u_bound_cut_is_exact():
    """A cut at u_bound b equals the full series with u_truncate(b) applied."""
    n = 7
    for p in (1, 2, 3):
        for evaluate in (gf.eval_G1_u, gf.eval_H):
            full = evaluate(p, n)
            for b in range(n + 1):
                assert evaluate(p, n, b) == full.u_truncate(b)
    for m in range(4):
        full = gf.psi(m, n)
        for b in range(n + 1):
            assert gf.psi(m, n, b) == tuple(side.u_truncate(b) for side in full)


def test_chains_at_orders_0_and_1():
    one, u, t, zt, ut, uzt = ((0, 0, 0, 0, 0), (0, 1, 0, 0, 0), (1, 0, 0, 0, 0),
                              (1, 0, 0, 1, 0), (1, 1, 0, 0, 0), (1, 1, 0, 1, 0))
    for p in (1, 2, 3):
        assert gf.eval_A(p, 0).terms() == gf.eval_R(p, 0).terms() == {one: 1}
        assert gf.eval_A(p, 1).terms() == {one: 1, zt: 1}
        assert gf.eval_R(p, 1).terms() == {one: 1, t: 1}
        for z in (1, -2):
            assert gf.eval_A(p, 0, MultiPoly.const(z)).terms() == {one: 1}
            assert gf.eval_A(p, 1, MultiPoly.const(z)).terms() == {one: 1, t: z}
        for order in (0, 1):
            assert gf.eval_maxk(p, 2, order) == gf.eval_R(p, order)
            assert gf.eval_G1_u(p, order).is_zero()
        assert gf.eval_H(p, 0).is_zero()
        assert gf.eval_H(p, 1).terms() == gf.eval_H(p, 1, 0).terms() == {zt: 1}
    assert gf.eval_P(0).terms() == gf.eval_A1_product_form(0).terms() == {one: 1}
    assert gf.eval_P(1).terms() == {one: 1, t: 1}
    assert gf.eval_A1_product_form(1).terms() == {one: 1, zt: 1}
    for m in range(4):
        # both sides of psi(m, 1): (-1)^(m+1) ((1 - m u) + (m^2 uz - m z - m u) t)
        s = (-1) ** (m + 1)
        full = {one: s, u: -s * m, zt: -s * m, ut: -s * m, uzt: s * m * m}
        expected = {k: c for k, c in full.items() if c}
        assert [side.terms() for side in gf.psi(m, 0)] == [{one: s}] * 2
        assert [side.terms() for side in gf.psi(m, 1)] == [expected] * 2
        u_free = {k: c for k, c in expected.items() if k[1] == 0}
        assert [side.terms() for side in gf.psi(m, 1, 0)] == [u_free] * 2


def _kernel_numerator(order):
    """A series with u, v and z terms at every t-order, and a u^2 term at t^0."""
    terms = {(0, 0, 0, 0): 1, (2, 0, 1, 0): 3, (1, 1, 0, 0): -2}
    coeffs = [MultiPoly.from_terms(terms)]
    for n in range(1, order + 1):
        coeffs.append(MultiPoly.from_terms({(n % 3, 1, 0, 0): n, (0, 0, n % 2, 0): -1, (3, 0, 2, 1): 5}))
    return TSeries(coeffs)


def test_kernel_div_matches_the_generic_division():
    """The shaped division by gamma_k and delta_k, cut as it goes, equals the
    generic quotient cut afterwards, at every bound."""
    for order in range(10):
        numer = _kernel_numerator(order)
        for k in range(1, 7):
            by_gamma, by_delta = numer / gf.gamma(k, order), numer / gf.delta(k, order)
            for bound in range(order + 2):
                assert gf._kernel_div(numer, k - 1, True, bound) == by_gamma.u_truncate(bound)
                assert gf._kernel_div(numer, k, False, bound) == by_delta.u_truncate(bound)


def test_over_deltas_match_generic_quotients():
    """Each term divided by delta_k^p through the shape equals the generic
    quotient, for numerators without u and with u, v and z terms."""
    for p in range(1, 5):
        for order in range(8):
            for numer in (TSeries.one(order), _kernel_numerator(order)):
                numers = itertools.repeat(numer)
                quotients = list(itertools.islice(gf._over_deltas(p, numers, order), 7))
                expected = [(numer / gf.delta(k, order) ** p).u_truncate(order) for k in range(7)]
                assert quotients == expected, (p, order)


def test_kernel_div_refuses_exponent_overflow():
    """z^100 over gamma_1 reaches z^128 at t^28, which both divisions refuse."""
    numer = TSeries.from_poly(30, MultiPoly.monomial((0, 0, 100, 0)))
    with pytest.raises(ValueError, match="exponent overflow"):
        numer / gf.gamma(1, 30)
    with pytest.raises(ValueError, match="exponent overflow"):
        gf._kernel_div(numer, 0, True, 30)


def test_psi_agrees_above_the_order():
    """psi keeps a bound above the order; its right side divides by no gamma,
    so it checks the Horner left side independently."""
    for order, bound in ((0, 0), (1, 3), (6, 2), (8, 8), (9, 12)):
        for m in range(7):
            lhs, rhs = gf.psi(m, order, bound)
            assert lhs == rhs, (order, bound, m)


def test_gamma_sum_matches_the_generic_chain():
    """Horner's sum equals the sum of each term times u^(first+j) and the
    uncut product of generic gamma inverses, cut at the bound afterwards."""
    for order in range(10):
        deltas = [(gf.delta(k, order) ** 2).invert() for k in range(order + 3)]
        onemt = gf.one_minus_t(order)
        terms = {
            1: [cur - prev for prev, cur in itertools.pairwise(deltas)],
            0: [onemt**n * d for n, d in enumerate(deltas)],
        }
        chain, prod = [], TSeries.one(order)
        for k in range(1, order + 4):
            prod = prod * gf.gamma(k, order).invert()
            chain.append(prod)
        for first, first_terms in terms.items():
            for bound in range(order + 3):
                expected = sum(
                    (term * g * MultiPoly.monomial((first + j, 0, 0, 0))
                     for j, (term, g) in enumerate(zip(first_terms, chain))),
                    TSeries.zero(order),
                ).u_truncate(bound)
                actual = gf._gamma_sum(first_terms, first, bound, order)
                assert actual == expected, (order, first, bound)


def test_psi_right_side_is_the_closed_polynomial():
    """The right side is -sum_{j=0..m} (u-1)^j (1-zt)^j u^(m-j)
    prod_{i=j+1..m}(1-(1-t)^i), written term by term and cut at the bound."""
    for order in range(10):
        one, onemt = TSeries.one(order), gf.one_minus_t(order)
        uz = TSeries.from_poly(order, U - 1) * gf.one_minus_zt(order)
        for m in range(7):
            closed = TSeries.zero(order)
            for j in range(m + 1):
                term = uz**j * MultiPoly.monomial((m - j, 0, 0, 0))
                for i in range(j + 1, m + 1):
                    term = term * (one - onemt**i)
                closed = closed - term
            for bound in (0, 1, order, order + 2):
                _lhs, rhs = gf.psi(m, order, bound)
                assert rhs == closed.u_truncate(bound), (order, m, bound)


def _forward_sum(order, weight, ratio, factor):
    """sum over n <= order of weight(n) ratio^n prod_{i=1..n} factor(i), each
    term built forward from full-order products."""
    total, power, prod = TSeries.zero(order), TSeries.one(order), TSeries.one(order)
    for n in range(order + 1):
        if n:
            power, prod = power * ratio, prod * factor(n)
        total = total + weight(n) * power * prod
    return total


def test_t_graded_sums_match_the_forward_products():
    """Horner's t-graded sums, each factor built at the order its term needs,
    equal the forward sums of full-order products and powers (a forward sum
    cut to a lower order is the sum at that order)."""
    for order in range(15):
        one, onemt = TSeries.one(order), gf.one_minus_t(order)
        vanishing = lambda i: one - onemt**i  # noqa: E731
        product_form = _forward_sum(
            order, lambda n: 1, one, lambda i: one - onemt ** (i - 1) * gf.one_minus_zt(order)
        )
        assert gf.eval_A1_product_form(order) == product_form, order
        for p in range(1, 5):
            weight = lambda n, p=p: math.comb(p - 1 + n, n)  # noqa: E731
            inv = gf.one_minus_zt(order).invert()
            zeros = _forward_sum(order, weight, inv, vanishing)
            expected = 1 + TSeries.from_poly(order, Z, 1) * inv * zeros
            assert gf.eval_A(p, order) == expected, (order, p)
    # eval_P, eval_A at an integer z and eval_R run on lists of ints; they are
    # checked at every order up to 40, as cuts of one forward sum
    top = 40
    one, onemt = TSeries.one(top), gf.one_minus_t(top)
    vanishing = [None, *(one - onemt**i for i in range(1, top + 1))]
    one_plus_t = one + TSeries.from_poly(top, MultiPoly.const(1), 1)
    inv_one_plus_t = one_plus_t.invert()
    primitive_factors = [None, *(one - inv_one_plus_t**i for i in range(1, top + 1))]
    fishburn = _forward_sum(top, lambda n: 1, one, vanishing.__getitem__)
    for order in range(top + 1):
        assert gf.eval_P(order) == fishburn.truncate(order), order
    for p in range(1, 5):
        weight = lambda n, p=p: math.comb(p - 1 + n, n)  # noqa: E731
        for c in (0, 1, -2, 3):
            z = MultiPoly.const(c)
            inv = gf.one_minus_zt(top, z).invert()
            zeros = _forward_sum(top, weight, inv, vanishing.__getitem__)
            expected = 1 + TSeries.from_poly(top, z, 1) * inv * zeros
            for order in range(top + 1):
                assert gf.eval_A(p, order, z) == expected.truncate(order), (order, p, c)
        primitive = _forward_sum(top, weight, one_plus_t, primitive_factors.__getitem__)
        expected = 1 + primitive.shift(1)
        for order in range(top + 1):
            assert gf.eval_R(p, order) == expected.truncate(order), (order, p)
