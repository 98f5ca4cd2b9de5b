"""Ring arithmetic of MultiPoly and TSeries, including the algebraic laws."""

import json

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from pascent.series import MultiPoly, TSeries, scalar_coefficients

U = MultiPoly.variable("u")
V = MultiPoly.variable("v")
Z = MultiPoly.variable("z")
X = MultiPoly.variable("x")


def poly(**monos):
    """poly(u=3) -> 3*u, poly(c=2) -> 2; keys are var names or 'c'."""
    out = MultiPoly()
    for name, c in monos.items():
        out = out + (MultiPoly.const(c) if name == "c" else MultiPoly.variable(name) * c)
    return out


def test_const_and_monomial_canonical():
    assert MultiPoly.const(0).is_zero()
    assert MultiPoly.monomial((1, 0, 2, 0), 0).is_zero()
    assert MultiPoly.const(5).const_value() == 5
    assert (U - U).is_zero()


def test_poly_str():
    assert str(MultiPoly()) == "0"
    assert str(3 * U**2 * Z - 2) == "-2 + 3*u^2*z"


def test_geometric_identity():
    # (1 - t) * sum t^n == 1 up to the truncation order
    n = 8
    one = TSeries.one(n)
    t = TSeries.from_poly(n, MultiPoly.const(1), 1)
    geom = TSeries([MultiPoly.const(1)] * (n + 1))
    assert (one - t) * geom == one


def test_mul_by_zero_series():
    a = TSeries.from_poly(5, U, 2) + TSeries.one(5)
    assert (a * TSeries.zero(5)).is_zero()


def test_product_linear_coefficient():
    # (1 + t(u-1)) (1 + zt(u-1)) has t^1 coefficient (u-1)(1+z)
    n = 4
    a = TSeries.one(n) + TSeries.from_poly(n, U - 1, 1)
    b = TSeries.one(n) + TSeries.from_poly(n, Z * (U - 1), 1)
    assert (a * b).coefficient(1) == (U - 1) * (1 + Z)


def test_invert_geometric():
    n = 7
    s = TSeries.one(n) - TSeries.from_poly(n, Z, 1)
    inv = s.invert()
    assert inv == TSeries([Z**k for k in range(n + 1)])


def test_invert_gamma1_first_coefficient():
    n = 5
    gamma1 = TSeries.one(n) + TSeries.from_poly(n, Z * (U - 1), 1)
    assert gamma1.invert().coefficient(1) == -(Z * (U - 1))


def test_invert_one_plus_t():
    n = 6
    s = TSeries.one(n) + TSeries.from_poly(n, MultiPoly.const(1), 1)
    assert scalar_coefficients(s.invert()) == [(-1) ** k for k in range(n + 1)]


def test_invert_requires_unit():
    with pytest.raises(ValueError):
        TSeries.from_poly(4, MultiPoly.const(2)).invert()
    with pytest.raises(ValueError):
        TSeries.from_poly(4, U).invert()


def test_compose_basic():
    n = 6
    one = TSeries.one(n)
    t = TSeries.from_poly(n, MultiPoly.const(1), 1)
    inv_1mt = (one - t).invert()
    s = t * (one + t).invert()          # t / (1 + t)
    assert inv_1mt.compose_t(s) == one + t
    assert inv_1mt.compose_t(t) == inv_1mt


def test_compose_rejects_constant_term():
    n = 4
    with pytest.raises(ValueError):
        TSeries.one(n).compose_t(TSeries.one(n))


def test_subst_u_to_uv():
    n = 3
    s = TSeries.from_poly(n, U, 1)
    assert s.subst_u_to_uv() == TSeries.from_poly(n, U * V, 1)
    c = TSeries.const(n, 7)
    assert c.subst_u_to_uv() == c
    mixed = TSeries.from_poly(n, U**2 + U * V, 3)
    assert mixed.subst_u_to_uv() == TSeries.from_poly(n, U**2 * V**2 + U * V**2, 3)


def test_specialize():
    n = 3
    s = TSeries.from_poly(n, 6 * Z + 4 * Z**2 + Z**3, 3)
    assert s.specialize({"z": 1}).coefficient(3) == MultiPoly.const(11)
    assert s.specialize({}) == s
    with pytest.raises(ValueError):
        s.specialize({"w": 1})


def test_specialize_x_zero_keeps_zero_run_part():
    n = 4
    s = (TSeries.one(n) - TSeries.from_poly(n, Z, 1)).invert() + TSeries.from_poly(n, X * U, 2)
    got = s.specialize({"x": 0})
    assert got == TSeries([Z**k for k in range(n + 1)])


def test_coefficient_bounds():
    s = TSeries.one(3)
    with pytest.raises(ValueError):
        s.coefficient(4)
    assert s.monomial_coefficient((0, 0, 0, 0, 0)) == 1
    assert s.monomial_coefficient((2, 1, 0, 0, 0)) == 0


def test_mixed_orders_truncate_to_minimum():
    a = TSeries.one(8)
    b = TSeries.one(3)
    assert (a + b).order == 3
    assert (a * b).order == 3


def test_shift():
    n = 4
    t2 = TSeries.from_poly(n, MultiPoly.const(1), 2)
    assert TSeries.one(n).shift(2) == t2
    assert TSeries.one(n).shift(5).is_zero()


def test_exact_div_v_minus_1():
    # (v - 1)(v^2 + 3uv + 2) / (v - 1) round trip
    q = V**2 + 3 * U * V + 2
    assert ((V - 1) * q).exact_div_v_minus_1() == q
    with pytest.raises(ArithmeticError):
        (V + 1).exact_div_v_minus_1()


def test_u_truncate_and_coefficient_of_var():
    n = 3
    s = TSeries.from_poly(n, U**2 * X + U * X**2 + Z, 1)
    assert s.u_truncate(1) == TSeries.from_poly(n, U * X**2 + Z, 1)
    assert s.coefficient_of_var("x", 1) == TSeries.from_poly(n, U**2, 1)
    assert s.coefficient_of_var("x", 0) == TSeries.from_poly(n, Z, 1)


def test_json_round_trip_and_sorting():
    n = 3
    s = TSeries.from_poly(n, 2 * U * Z - 3 * X, 2) + TSeries.one(n)
    obj = s.to_json_obj()
    assert obj["order"] == n
    assert obj["vars"] == ["t", "u", "v", "z", "x"]
    exps = [tuple(e["exp"]) for e in obj["terms"]]
    assert exps == sorted(exps)
    assert all(isinstance(e["coeff"], str) for e in obj["terms"])
    assert TSeries.from_json(s.to_json()) == s


@pytest.mark.parametrize("exp", [
    [1, 0, 0, 0, -1],          # packed as u = v = z = 255 and x = 255
    [1, 0, 0, 0, 256],         # carried into z
    [1, 0, 0, 0],
    [1, 0, 0, 0, 0, 0],
    [3, 0, 0, 0, 0],           # t beyond the order
])
def test_from_json_rejects_bad_exponents(exp):
    obj = {"order": 2, "vars": ["t", "u", "v", "z", "x"],
           "terms": [{"exp": exp, "coeff": "1"}]}
    with pytest.raises(ValueError, match="exponent"):
        TSeries.from_json_obj(obj)


@pytest.mark.parametrize("exp", [
    [True, 0, 0, 0, 0],        # read as t^1
    [1, 0, 0, False, 0],
    [1.0, 0, 0, 0, 0],         # a float t-exponent indexed the coefficient list
    [1, 0, 0, 0, 1.0],         # a float u..x exponent reached the packing's |
    [1, 0, "1", 0, 0],
    [1, 0, 0, 0, None],
    "10000",                   # five characters, not five exponents
])
def test_from_json_refuses_a_non_integer_exponent(exp):
    obj = {"order": 2, "vars": ["t", "u", "v", "z", "x"],
           "terms": [{"exp": exp, "coeff": "1"}]}
    with pytest.raises(ValueError, match="exponent"):
        TSeries.from_json_obj(obj)


def test_from_json_rejects_a_wrong_variable_list():
    obj = {"order": 2, "vars": ["t", "u", "v", "z"], "terms": []}
    with pytest.raises(ValueError, match="unexpected variable list in series JSON"):
        TSeries.from_json_obj(obj)


@pytest.mark.parametrize("coeffs", [("5", "7"), ("0", "7"), ("5", "0")], ids="-".join)
def test_from_json_rejects_repeated_exponents(coeffs):
    # a repeated (t, u, v, z, x) vector must not keep one of its coefficients
    obj = {"order": 2, "vars": ["t", "u", "v", "z", "x"],
           "terms": [{"exp": [1, 0, 0, 0, 0], "coeff": c} for c in coeffs]}
    with pytest.raises(ValueError, match="repeated exponent vector"):
        TSeries.from_json_obj(obj)


@pytest.mark.parametrize("order, coeff", [
    (1.9, "1"), ("1", "1"), (True, "1"),
    (1, 1.9), (1, "1.9"), (1, "1e3"), (1, " 1"), (1, True), (1, None),
], ids=["order_float", "order_text", "order_bool", "coeff_float", "coeff_float_text",
        "coeff_exponent_text", "coeff_space", "coeff_bool", "coeff_null"])
def test_from_json_refuses_a_non_integer_order_or_coefficient(order, coeff):
    # the order and the coefficient were truncated by int(): 1.9 read as 1
    obj = {"order": order, "vars": ["t", "u", "v", "z", "x"],
           "terms": [{"exp": [1, 0, 0, 0, 0], "coeff": coeff}]}
    with pytest.raises(ValueError, match="must be an integer"):
        TSeries.from_json_obj(obj)


_VARS = ["t", "u", "v", "z", "x"]


@pytest.mark.parametrize("obj, message", [
    ({"vars": _VARS, "terms": []}, "series order must be an integer: None"),
    ({"order": -1, "vars": _VARS, "terms": []}, "series order must be nonnegative"),
    ({"order": 1, "vars": _VARS}, "series terms must be a list of objects"),
    ({"order": 1, "vars": _VARS, "terms": {"exp": [0, 0, 0, 0, 0]}}, "terms must be a list"),
    ({"order": 1, "vars": _VARS, "terms": [[0, 0, 0, 0, 0]]}, "terms must be a list of objects"),
    ({"order": 1, "vars": _VARS, "terms": [{"exp": 1, "coeff": "1"}]},
     "exponent vector must be a list of 5 entries"),
    ({"order": 1, "vars": _VARS, "terms": [{"exp": [0, 0, 0, 0, 0]}]},
     "series coefficient must be an integer or decimal text: None"),
    ([1], "series JSON must be an object, not list"),
    ("{}", "series JSON must be an object, not str"),
], ids=["no_order", "negative_order", "no_terms", "dict_terms", "list_term", "int_exp",
        "no_coeff", "list", "text"])
def test_from_json_refuses_malformed_input_with_a_value_error(obj, message):
    # these raised KeyError, TypeError or AttributeError, and a negative order
    # was refused as "a series needs at least the t^0 coefficient"
    with pytest.raises(ValueError, match=message):
        TSeries.from_json(json.dumps(obj))


def test_from_json_reads_an_int_or_a_decimal_string_coefficient():
    obj = {"order": 1, "vars": ["t", "u", "v", "z", "x"],
           "terms": [{"exp": [0, 0, 0, 0, 0], "coeff": 7},
                     {"exp": [1, 1, 0, 0, 0], "coeff": "-12"}]}
    assert TSeries.from_json_obj(obj) == TSeries.const(1, 7) + TSeries.from_poly(1, -12 * U, 1)


@pytest.mark.parametrize("make", [
    lambda: MultiPoly.const(2.5),
    lambda: MultiPoly.monomial((1, 0, 0, 0), 2.5),
    lambda: MultiPoly.from_terms({(0, 0, 0, 0): 1.5}),
    lambda: TSeries.const(2, 2.5),
], ids=["const", "monomial", "from_terms", "series_const"])
def test_constructors_refuse_a_non_integer_coefficient(make):
    # int() truncated these: const(2.5) was 2
    with pytest.raises(TypeError):
        make()


def test_from_poly_refuses_a_negative_t_power():
    # it returned the zero series
    with pytest.raises(ValueError, match="t_power must be nonnegative"):
        TSeries.from_poly(3, MultiPoly.const(1), -1)
    assert TSeries.from_poly(3, MultiPoly.const(1), 4) == TSeries.zero(3)


@pytest.mark.parametrize("exps", [(0, 0, 0, 300), (0, -1, 0, 0), (1, 2, 3), (1, 0, 0, 0, 0)])
def test_from_terms_rejects_bad_exponents(exps):
    with pytest.raises(ValueError, match="exponent"):
        MultiPoly.from_terms({exps: 1})


def test_monomial_coefficient_rejects_bad_exponents():
    s = TSeries.from_poly(2, V, 1)
    with pytest.raises(ValueError, match="exponent"):
        s.monomial_coefficient((1, 256, 0, 0, 0))    # would read v^1


@pytest.mark.parametrize("product", [
    lambda: MultiPoly.monomial((100, 0, 0, 0)) ** 3,    # stored u^300, read back as u^44
    lambda: X ** 256,                                    # carried into z
    lambda: TSeries.from_poly(1, X ** 100) * TSeries.from_poly(1, X ** 28),
    lambda: (TSeries.one(130) - TSeries.from_poly(130, Z, 1)).invert(),
    lambda: TSeries.from_poly(1, U * Z ** 100).subst_u(TSeries.from_poly(1, Z ** 100)),
    lambda: TSeries.from_poly(2, X ** 100, 2).compose_t(TSeries.from_poly(2, X ** 28, 1)),
], ids=["poly_pow", "poly_carry", "series_mul", "invert", "subst_u", "compose_t"])
def test_products_refuse_exponent_overflow(product):
    with pytest.raises(ValueError, match="exponent overflow"):
        product()


def test_compose_t_refuses_no_overflow_that_lies_above_the_result():
    # X^100 (t + X^30 t^2)^2 = X^100 t^2 + O(t^3): X^130 t^3 is past the order
    inner = TSeries([MultiPoly(), MultiPoly.const(1), X ** 30])
    assert TSeries.from_poly(2, X ** 100, 2).compose_t(inner) == TSeries.from_poly(2, X ** 100, 2)


def test_subst_u_to_uv_refuses_v_overflow():
    # u^60 v^50 would become u^60 v^110, past the bound of 100 on exponents
    with pytest.raises(ValueError, match="v-exponent overflow in u -> uv substitution"):
        TSeries.from_poly(1, MultiPoly.monomial((60, 50, 0, 0))).subst_u_to_uv()


@pytest.mark.parametrize("n", [-1, 2.0])
def test_power_refuses_an_exponent_other_than_a_nonnegative_int(n):
    with pytest.raises(ValueError, match="exponent must be a nonnegative integer"):
        TSeries.one(2) ** n


def test_variable_refuses_an_unknown_name():
    with pytest.raises(ValueError, match=r"unknown variable 'w'; use one of \('u', 'v', 'z', 'x'\)"):
        MultiPoly.variable("w")


def test_products_keep_exponent_127():
    assert (X ** 127).terms() == {(0, 0, 0, 127): 1}
    assert str(U ** 127) == "u^127"


@pytest.mark.parametrize("make", [
    lambda: TSeries.zero(-1),
    lambda: TSeries.one(-3),
    lambda: TSeries.const(-2, 7),
    lambda: TSeries.from_poly(-1, Z),
], ids=["zero", "one", "const", "from_poly"])
def test_constructors_reject_negative_order(make):
    with pytest.raises(ValueError, match="order must be nonnegative"):
        make()


# -- algebraic laws on random small operands --------------------------------

exponents = st.tuples(*[st.integers(0, 2)] * 4)
polys = st.dictionaries(exponents, st.integers(-3, 3), max_size=3).map(
    MultiPoly.from_terms
)


def series(order=4):
    return st.lists(polys, min_size=order + 1, max_size=order + 1).map(TSeries)


@settings(max_examples=60, deadline=None)
@given(series(), series(), series())
def test_ring_axioms(a, b, c):
    assert (a + b) + c == a + (b + c)
    assert a + b == b + a
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c
    assert a * b == b * a


@settings(max_examples=40, deadline=None)
@given(series())
def test_invert_is_two_sided(a):
    unit = TSeries.one(a.order) + a.shift(1)
    inv = unit.invert()
    assert unit * inv == TSeries.one(a.order)
    assert inv * unit == TSeries.one(a.order)


@settings(max_examples=30, deadline=None)
@given(series())
def test_compose_round_trip(a):
    n = a.order
    one = TSeries.one(n)
    t = TSeries.from_poly(n, MultiPoly.const(1), 1)
    s1 = t * (one - t).invert()   # t/(1-t)
    s2 = t * (one + t).invert()   # t/(1+t)
    assert a.compose_t(s1).compose_t(s2) == a


@settings(max_examples=40, deadline=None)
@given(series())
def test_subst_then_v_one_commutes(a):
    v_free = a.specialize({"v": 1})
    assert v_free.subst_u_to_uv().specialize({"v": 1}) == v_free


@settings(max_examples=40, deadline=None)
@given(series())
def test_json_round_trip_random(a):
    assert TSeries.from_json(a.to_json()) == a


# -- products against a naive reference over terms() tuples -------------------

def naive_mul(a, b, order=None):
    """Product of two exponent-tuple maps; with an order, the first entry is
    the t-exponent and is cut above it."""
    out = {}
    for e1, c1 in a.items():
        for e2, c2 in b.items():
            e = tuple(x + y for x, y in zip(e1, e2))
            if order is None or e[0] <= order:
                out[e] = out.get(e, 0) + c1 * c2
    return {e: c for e, c in out.items() if c}


def naive_add(a, b):
    out = dict(a)
    for e, c in b.items():
        out[e] = out.get(e, 0) + c
    return {e: c for e, c in out.items() if c}


def naive_invert(terms, order):
    # 1/(a0 + r) = a0 * sum_k (-a0 r)^k for a0 = +-1, finite since r = O(t)
    a0 = terms[(0, 0, 0, 0, 0)]
    step = {e: -a0 * c for e, c in terms.items() if e[0] > 0}
    power = total = {(0, 0, 0, 0, 0): a0}
    for _ in range(order):
        power = naive_mul(power, step, order)
        total = naive_add(total, power)
    return total


def naive_subst_u(terms, repl, order):
    out = {}
    for (n, eu, ev, ez, ex), c in terms.items():
        if n <= order:
            term = {(n, 0, ev, ez, ex): c}
            for _ in range(eu):
                term = naive_mul(term, repl, order)
            out = naive_add(out, term)
    return out


def naive_compose_t(terms, inner, order):
    out = {}
    for (n, *exps), c in terms.items():
        if n <= order:
            term = {(0, *exps): c}
            for _ in range(n):
                term = naive_mul(term, inner, order)
            out = naive_add(out, term)
    return out


# multi-term coefficients whose small integer coefficients often cancel in a
# product, and up to two leading zero coefficients
wide_polys = st.dictionaries(exponents, st.integers(-2, 2), max_size=4).map(
    MultiPoly.from_terms
)


def sparse_series(order, coefficients=wide_polys):
    return st.tuples(
        st.integers(0, 2), st.lists(coefficients, min_size=order + 1, max_size=order + 1)
    ).map(lambda lead: TSeries([MultiPoly()] * lead[0] + lead[1][lead[0]:]))


any_series = st.integers(0, 4).flatmap(sparse_series)
# constant coefficients only, zero about every other time: products and
# quotients of scalar series with gapped supports
constants = st.one_of(st.just(0), st.integers(-3, 3)).map(MultiPoly.const)
scalar_series = st.integers(0, 8).flatmap(lambda n: sparse_series(n, constants))
some_series = any_series | scalar_series
one_plus_u = MultiPoly.from_terms({(0, 0, 0, 0): 1, (1, 0, 0, 0): 1})
one_minus_u = MultiPoly.from_terms({(0, 0, 0, 0): 1, (1, 0, 0, 0): -1})


@settings(max_examples=60, deadline=None)
@given(wide_polys, wide_polys)
@example(one_plus_u, one_minus_u)                      # the u terms cancel
def test_poly_product_matches_naive(a, b):
    assert (a * b).terms() == naive_mul(a.terms(), b.terms())


@settings(max_examples=100, deadline=None)
@given(some_series, some_series)
@example(TSeries([MultiPoly.const(1), U]), TSeries([MultiPoly.const(1), -U]))
@example(TSeries([MultiPoly.const(c) for c in (0, 2, 0, -1)]),
         TSeries([MultiPoly.const(c) for c in (1, 0, 3)]))        # scalar x scalar
@example(TSeries([MultiPoly.const(c) for c in (1, 1, 0, 2)]),
         TSeries([U, MultiPoly(), Z]))                                  # scalar x multivariate
def test_series_product_matches_naive(a, b):
    order = min(a.order, b.order)
    assert (a * b).terms() == naive_mul(a.terms(), b.terms(), order)


@settings(max_examples=100, deadline=None)
@given(some_series, st.sampled_from([1, -1]))
@example(TSeries([MultiPoly.const(1), U, U**2]), 1)     # t^2 cancels in the inverse
@example(TSeries([MultiPoly.const(c) for c in (1, 0, 0, -2, 0, 0, 1)]), -1)
def test_invert_matches_naive(a, unit):
    a = TSeries([MultiPoly.const(unit)] + a.coeffs[1:])
    assert a.invert().terms() == naive_invert(a.terms(), a.order)


@settings(max_examples=60, deadline=None)
@given(any_series, any_series)
@example(TSeries([U - V, MultiPoly()]), TSeries([V, MultiPoly()]))   # u -> v gives 0
def test_subst_u_matches_naive(a, repl):
    order = min(a.order, repl.order)
    assert a.subst_u(repl).terms() == naive_subst_u(a.terms(), repl.terms(), order)


@settings(max_examples=60, deadline=None)
@given(some_series, some_series)
@example(TSeries([U, V, U * Z, X, MultiPoly.const(3)]),
         TSeries([MultiPoly(), U + 1, Z]))                         # outer order above inner
@example(TSeries([U + 1, Z]), TSeries([MultiPoly(), V, U, X]))  # inner order above outer
@example(TSeries([U, MultiPoly.const(2), Z, V, U * X, MultiPoly.const(-1)]),
         TSeries([MultiPoly(), MultiPoly(), U - Z, V, X, U]))     # inner t-valuation 2
@example(TSeries([U, V, Z]), TSeries.zero(3))                    # zero inner series
def test_compose_t_matches_naive(a, inner):
    inner = TSeries([MultiPoly()] + inner.coeffs[1:])
    order = min(a.order, inner.order)
    assert a.compose_t(inner).terms() == naive_compose_t(a.terms(), inner.terms(), order)


@settings(max_examples=100, deadline=None)
@given(some_series, some_series, st.sampled_from([1, -1]))
@example(TSeries([U + 2, MultiPoly(), Z * Z, U, MultiPoly.const(5), U * Z]),
         TSeries([MultiPoly(), U - Z, MultiPoly(), U * Z * 3, Z]), -1)
@example(TSeries([MultiPoly.const(c) for c in (3, 0, -1, 0, 2)]),
         TSeries([MultiPoly(), MultiPoly.const(2), MultiPoly(), MultiPoly.const(-1)]), 1)
def test_division_is_multiplication_by_the_inverse(numerator, divisor, unit):
    divisor = TSeries([MultiPoly.const(unit)] + divisor.coeffs[1:])
    quotient = numerator / divisor
    order = min(numerator.order, divisor.order)
    assert quotient.order == order
    assert quotient == numerator.truncate(order) * divisor.invert()
    assert quotient * divisor == numerator.truncate(order)


@pytest.mark.parametrize("divisor", [
    TSeries([U + 2, MultiPoly.const(1)]),
    TSeries([MultiPoly(), MultiPoly.const(1)]),
    TSeries([MultiPoly.const(2), MultiPoly.const(1)]),
], ids=["polynomial", "scalar_0", "scalar_2"])
@pytest.mark.parametrize("numerator", [
    TSeries([U, MultiPoly.const(5)]), TSeries([MultiPoly.const(3), MultiPoly.const(5)]),
], ids=["polynomial", "scalar"])
def test_division_refuses_a_constant_term_other_than_a_unit(numerator, divisor):
    with pytest.raises(ValueError, match=r"not invertible: constant term must be \+1 or -1"):
        numerator / divisor
