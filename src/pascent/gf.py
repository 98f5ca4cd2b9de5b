"""Closed-form evaluators for the p-ascent generating functions.

Everything is computed as an exact TSeries.  The infinite sums fall into
two families:

* t-graded sums (eval_A, eval_P, eval_R, eval_maxk, the product form of the
  p=1 zeros identity): the n-th summand has t-valuation at least n, so the
  sum is cut at n = order and every retained coefficient is exact.

* u-graded sums (eval_G1_u, eval_H, the psi kernel sum): the k-th summand
  carries a factor u^k, so cutting at k = u_bound makes all monomials with
  u-exponent <= u_bound exact.  Those evaluators drop the (inexact)
  monomials above the bound; with the default bound u_bound = order the
  result is the exact truncated series, because a sequence of length n has
  at most n - 1 ascents.  For the same reason eval_G1_u and eval_H lower a
  larger bound to order; psi does not, as its sides have higher u-degrees.

Every sum is built from lazy chains, each written once: _powers, _vanishing
(prod (1 - f_i), stopping at n = order or at a zero product), _gamma_inverses
and _delta_inverses.  _binomial_sum is the t-graded sum of eval_A and eval_R;
_u_sum multiplies term k by u^k, stops at k = u_bound and makes the u-cut.
A factor with u-powers applied after it (the (1-u) of eval_H, psi's
prefactor) is cut again.  _gamma_inverses takes the bound as well: its
element j meets u^j (u^(j+1) in eval_G1_u, which passes bound - 1), so it is
cut at u <= bound - j as the chain grows, and each step divides by the next
gamma rather than multiplying by its inverse.  _psi_sides builds that chain
once and shares it across every m; psi is its one-m case.  All these cuts
are exact: u_truncate is reduction modulo u^(c+1), and every factor here is
a polynomial in u.
"""

from __future__ import annotations

from itertools import accumulate, chain, count, islice, pairwise, repeat, takewhile
from math import comb
from operator import mul
from typing import Iterable, Iterator

from .core import _check_p
from .series import MultiPoly, TSeries, _check_at_least

_U = MultiPoly.variable("u")
_V = MultiPoly.variable("v")
_Z = MultiPoly.variable("z")
_X = MultiPoly.variable("x")


def _u_bound(order: int, u_bound: int | None) -> int:
    _check_at_least("order", order)
    bound = order if u_bound is None else u_bound
    _check_at_least("u_bound", bound)
    return bound


def one_minus_t(order: int) -> TSeries:
    return TSeries.one(order) - TSeries.from_poly(order, MultiPoly.const(1), 1)


def one_minus_zt(order: int, z: MultiPoly = _Z) -> TSeries:
    return TSeries.one(order) - TSeries.from_poly(order, z, 1)


def delta(k: int, order: int) -> TSeries:
    """Kernel factor u - (1-t)^k (u-1); delta(0) = 1 by convention."""
    _check_at_least("k", k)
    if k == 0:
        return TSeries.one(order)
    u = TSeries.from_poly(order, _U)
    return u - one_minus_t(order) ** k * (_U - 1)


def gamma(k: int, order: int) -> TSeries:
    """Kernel factor u - (1-zt)(1-t)^(k-1) (u-1); gamma(0) = 1 by convention."""
    _check_at_least("k", k)
    if k == 0:
        return TSeries.one(order)
    u = TSeries.from_poly(order, _U)
    return u - one_minus_zt(order) * one_minus_t(order) ** (k - 1) * (_U - 1)


def delta_bar(k: int, order: int) -> TSeries:
    """delta(k) with u replaced by uv."""
    return delta(k, order).subst_u_to_uv()


def gamma_bar(k: int, order: int) -> TSeries:
    """gamma(k) with u replaced by uv."""
    return gamma(k, order).subst_u_to_uv()


def _powers(base: TSeries, first: TSeries) -> Iterator[TSeries]:
    """first, first*base, first*base^2, ... (each product made when asked for)."""
    return accumulate(repeat(base), mul, initial=first)


def _vanishing(factors: Iterable[TSeries], order: int) -> Iterator[TSeries]:
    """prod_{i=1..n}(1 - f_i) for n = 0, 1, ..., up to n = order.

    Every 1 - f_i passed here has t-valuation at least 1, so the products
    past n = order are zero, and so is everything after a zero product."""
    one = TSeries.one(order)
    prods = accumulate((one - f for f in factors), mul, initial=one)
    return takewhile(lambda s: not s.is_zero(), islice(prods, order + 1))


def _gamma_inverses(order: int, bound: int) -> Iterator[TSeries]:
    """1/(gamma_1..gamma_{j+1}) cut at u <= bound - j, for j = 0..bound.

    Every caller multiplies element j by u^j or a higher power and then cuts
    at u <= bound, so the monomials above bound - j never count.  Element j
    is element j - 1, cut at u <= bound - j, divided by gamma_{j+1} and cut
    again; dividing by the few monomials of gamma_{j+1} costs far less than
    multiplying by its inverse."""
    prod = TSeries.one(order)
    for j in range(bound + 1):
        cut = bound - j
        prod = (prod.u_truncate(cut) / gamma(j + 1, order)).u_truncate(cut)
        yield prod


def _delta_inverses(p: int, order: int) -> Iterator[TSeries]:
    """delta_k^-p for k = 0, 1, 2, ... (delta_0 = 1)."""
    later = ((delta(k, order) ** p).invert() for k in count(1))
    return chain([TSeries.one(order)], later)


def _u_sum(bound: int, terms: Iterable[TSeries]) -> TSeries:
    """Sum of u^k terms[k] over k <= bound, monomials above u^bound dropped.

    Each term is a polynomial in u, so terms past k = bound only add
    monomials above the cut."""
    powers = (MultiPoly.monomial((k, 0, 0, 0)) for k in range(bound + 1))
    return sum(term * u_k for u_k, term in zip(powers, terms)).u_truncate(bound)


def _binomial_sum(p: int, ratio: TSeries, base: TSeries) -> TSeries:
    """Sum over n of C(p-1+n, n) ratio^n prod_{i=1..n}(1 - base^i), to n = order."""
    one = TSeries.one(ratio.order)
    prods = _vanishing(_powers(base, base), ratio.order)
    return sum(
        comb(p - 1 + n, n) * r * prod
        for n, (prod, r) in enumerate(zip(prods, _powers(ratio, one)))
    )


def eval_G1_u(p: int, order: int, u_bound: int | None = None) -> TSeries:
    """Series over sequences starting 0-then-nonzero, by length/ascents/zeros.

    This is the kernel-method fixed point: the sum over k >= 1 of
    t z u^k (delta_{k-1}^p - delta_k^p) / (gamma_1..gamma_k delta_{k-1}^p delta_k^p),
    that is t z u^k (delta_k^-p - delta_{k-1}^-p) / (gamma_1..gamma_k),
    cut at k = u_bound (default and cap: order).  Monomials with u-exponent
    above the bound are dropped; the retained ones are exact.
    """
    _check_p(p)
    bound = min(_u_bound(order, u_bound), order)
    steps = (cur - prev for prev, cur in pairwise(_delta_inverses(p, order)))
    # term k >= 1 carries u^k and chain element k - 1, which may be cut at
    # bound - k: the chain of bound - 1.  The k = 0 term is zero.
    terms = (step * g for step, g in zip(steps, _gamma_inverses(order, bound - 1)))
    return _u_sum(bound, chain([TSeries.zero(order)], terms)).shift(1) * _Z


def eval_G1_full(p: int, order: int) -> TSeries:
    """Series over sequences starting 0-then-nonzero, by length/ascents/last/zeros.

    Combines the three right-hand-side terms of the defining functional
    equation over the common denominator (v*delta_1 - 1) and divides out that
    denominator exactly; the division has zero remainder (checked at every
    t-order), which is the algebraic cancellation that makes the quotient a
    genuine power series.
    """
    _check_p(p)
    _check_at_least("order", order)
    s1 = eval_G1_u(p, order)
    s2 = s1.subst_u_to_uv()
    numer = (
        TSeries.from_poly(order, _U * _V * _Z * (_V**p - 1), 2)
        + TSeries.from_poly(order, _Z * (_V - 1) - _V, 1) * s1
        + TSeries.from_poly(order, _U * _V ** (p + 1), 1) * s2
    )
    # v*delta_1 - 1 = (v - 1) + t*v*(u - 1); solve Q * that = numer order by order
    b1 = _V * (_U - 1)
    quot: list[MultiPoly] = []
    prev = MultiPoly()
    for n in range(order + 1):
        rem = numer.coeffs[n] - prev * b1
        try:
            prev = rem.exact_div_v_minus_1()
        except ArithmeticError as exc:
            raise ArithmeticError(
                f"kernel cancellation failed at t^{n}: {exc}"
            ) from exc
        quot.append(prev)
    return TSeries(quot)


def eval_Gr(p: int, r: int, order: int) -> TSeries:
    """Series over sequences starting with exactly r zeros then a nonzero letter."""
    _check_p(p)
    _check_at_least("r", r, 1)
    return eval_G1_full(p, order).shift(r - 1) * MultiPoly.monomial((0, 0, r - 1, 0))


def eval_G(p: int, order: int) -> TSeries:
    """Five-variable series over all p-ascent sequences (x marks the initial run)."""
    _check_p(p)
    _check_at_least("order", order)
    all_zero = one_minus_zt(order).invert()
    zx_part = (TSeries.one(order) - TSeries.from_poly(order, _Z * _X, 1)).invert()
    return all_zero + zx_part * TSeries.from_poly(order, _X) * eval_G1_full(p, order)


def eval_H(p: int, order: int, u_bound: int | None = None) -> TSeries:
    """Series over nonempty sequences by length/ascents/zeros (last letter dropped).

    Sum over n >= 0 of z t (1-u) u^n (1-t)^n / (delta_n^p gamma_1..gamma_{n+1}),
    cut at n = u_bound (default and cap: order); exact for u-exponents <= u_bound.
    """
    _check_p(p)
    bound = min(_u_bound(order, u_bound), order)
    factors = zip(
        _powers(one_minus_t(order), TSeries.one(order)),
        _delta_inverses(p, order),
        _gamma_inverses(order, bound),
    )
    total = _u_sum(bound, (w * d * g for w, d, g in factors))
    return (total.shift(1) * (_Z - _Z * _U)).u_truncate(bound)


def eval_A(p: int, order: int, z: MultiPoly = _Z) -> TSeries:
    """Series over all p-ascent sequences by length (t) and zeros (z).

    1 + sum over n >= 0 of C(p-1+n, n) zt/(1-zt)^(n+1) prod_{i=1..n}(1-(1-t)^i);
    the n-th product has t-valuation n, so the cutoff at n = order is exact.
    A constant z gives the series specialized at that z (specializing is a
    ring homomorphism), with integer coefficients and no z-exponent to bound.
    """
    _check_p(p)
    _check_at_least("order", order)
    inv_1mzt = one_minus_zt(order, z).invert()
    total = _binomial_sum(p, inv_1mzt, one_minus_t(order))
    return 1 + TSeries.from_poly(order, z, 1) * inv_1mzt * total


def eval_P(order: int) -> TSeries:
    """Series counting 1-ascent sequences by length: sum of prod_{i=1..n}(1-(1-t)^i)."""
    _check_at_least("order", order)
    onemt = one_minus_t(order)
    return sum(_vanishing(_powers(onemt, onemt), order))


def eval_R(p: int, order: int) -> TSeries:
    """Series counting primitive p-ascent sequences (no equal adjacent letters).

    1 + t sum over n >= 0 of C(p-1+n, n) (1+t)^n prod_{i=1..n}(1 - (1+t)^-i);
    the n-th summand has t-valuation n+1, so the cutoff at n = order is exact.
    """
    _check_p(p)
    _check_at_least("order", order)
    one_plus_t = TSeries.one(order) + TSeries.from_poly(order, MultiPoly.const(1), 1)
    return 1 + _binomial_sum(p, one_plus_t, one_plus_t.invert()).shift(1)


def eval_maxk(p: int, k: int, order: int) -> TSeries:
    """Series counting sequences whose blocks of equal letters have length <= k.

    Obtained by substituting t + t^2 + ... + t^k for t in the primitive
    series; k = 1 returns the primitive series itself, and k >= order
    coincides with the all-sequences series because t + ... + t^k is then
    t/(1-t) modulo t^(order+1).
    """
    _check_p(p)
    _check_at_least("k", k, 1)
    _check_at_least("order", order)
    coeffs = [MultiPoly()] + [
        MultiPoly.const(1) if 1 <= n <= k else MultiPoly() for n in range(1, order + 1)
    ]
    return eval_R(p, order).compose_t(TSeries(coeffs))


def eval_A1_product_form(order: int) -> TSeries:
    """Product form of the p=1 length/zeros series.

    1 + sum over m >= 1 of prod_{i=1..m}(1 - (1-t)^(i-1)(1-zt)); the m-th
    product has t-valuation m, so the cutoff at m = order is exact.
    """
    _check_at_least("order", order)
    return sum(_vanishing(_powers(one_minus_t(order), one_minus_zt(order)), order))


def _psi_sides(ms: Iterable[int], order: int, bound: int) -> Iterator[tuple[TSeries, TSeries]]:
    """psi(m, order, bound) for each m in ms, from one gamma chain.

    The chain is built at the first step and dropped with the generator."""
    one = TSeries.one(order)
    onemt = one_minus_t(order)
    uz = TSeries.from_poly(order, _U - 1) * one_minus_zt(order)
    gammas = list(_gamma_inverses(order, bound))
    for m in ms:
        uz_pows = list(islice(_powers(uz, one), m + 2))  # ((u-1)(1-zt))^j, j = 0..m+1
        onemt_pows = list(islice(_powers(onemt, onemt), m + 1))  # (1-t)^i, i = 1..m+1

        steps = _powers(onemt_pows[m], one)
        inner = _u_sum(bound, (w * g for w, g in zip(steps, gammas)))
        lhs = (uz_pows[m + 1] * inner).u_truncate(bound)

        # j runs down from m, so prod_{i=j+1..m} gains one factor, 1-(1-t)^(j+1),
        # per step; the term of index j carries u^(m-j).
        prods = _vanishing(reversed(onemt_pows[:m]), order)
        rhs = _u_sum(bound, (uz_pows[j] * prod for j, prod in zip(range(m, -1, -1), prods)))
        yield lhs, -rhs


def psi(m: int, order: int, u_bound: int | None = None) -> tuple[TSeries, TSeries]:
    """Both sides of the kernel summation identity for the gamma family.

    Left side: sum over k >= 0 of
      (u-1)^(m+1) (1-zt)^(m+1) u^k (1-t)^(k(m+1)) / prod_{i=1..k+1} gamma_i,
    cut at k = u_bound (default: order).  Right side: the closed polynomial
      -sum_{j=0..m} (u-1)^j (1-zt)^j u^(m-j) prod_{i=j+1..m}(1-(1-t)^i).
    Both are returned with u-exponents above the bound dropped; on that
    region they agree identically.  The k-th element of the gamma chain is
    kept only to u-degree u_bound - k, and _psi_sides shares one chain
    across several m.
    """
    _check_at_least("m", m)
    return next(_psi_sides((m,), order, _u_bound(order, u_bound)))
