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
  at most n - 1 ascents.
"""

from __future__ import annotations

from math import comb

from .series import MultiPoly, TSeries

_U = MultiPoly.variable("u")
_V = MultiPoly.variable("v")
_Z = MultiPoly.variable("z")
_X = MultiPoly.variable("x")


def _check_p(p: int) -> None:
    if p < 1:
        raise ValueError("p must be a positive integer")


def one_minus_t(order: int) -> TSeries:
    return TSeries.one(order) - TSeries.from_poly(order, MultiPoly.const(1), 1)


def one_minus_zt(order: int) -> TSeries:
    return TSeries.one(order) - TSeries.from_poly(order, _Z, 1)


def delta(k: int, order: int) -> TSeries:
    """Kernel factor u - (1-t)^k (u-1); delta(0) = 1 by convention."""
    if k < 0:
        raise ValueError("k must be nonnegative")
    if k == 0:
        return TSeries.one(order)
    u = TSeries.from_poly(order, _U)
    return u - one_minus_t(order) ** k * (_U - 1)


def gamma(k: int, order: int) -> TSeries:
    """Kernel factor u - (1-zt)(1-t)^(k-1) (u-1); gamma(0) = 1 by convention."""
    if k < 0:
        raise ValueError("k must be nonnegative")
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


def eval_G1_u(p: int, order: int, u_bound: int | None = None) -> TSeries:
    """Series over sequences starting 0-then-nonzero, by length/ascents/zeros.

    This is the kernel-method fixed point: the sum over k >= 1 of
    t z u^k (delta_{k-1}^p - delta_k^p) / (gamma_1..gamma_k delta_{k-1}^p delta_k^p),
    cut at k = u_bound (default: order).  Monomials with u-exponent above
    the bound are dropped; the retained ones are exact.
    """
    _check_p(p)
    if order < 0:
        raise ValueError("order must be nonnegative")
    bound = order if u_bound is None else u_bound
    if bound < 0:
        raise ValueError("u_bound must be nonnegative")
    result = TSeries.zero(order)
    gamma_inv = TSeries.one(order)
    prev_pow = TSeries.one(order)       # delta_{k-1}^p
    prev_inv = TSeries.one(order)
    for k in range(1, bound + 1):
        gamma_inv = gamma_inv * gamma(k, order).invert()
        cur_pow = delta(k, order) ** p
        cur_inv = cur_pow.invert()
        term = (prev_pow - cur_pow) * gamma_inv * prev_inv * cur_inv
        result = result + term.shift(1) * MultiPoly.monomial((k, 0, 1, 0))
        prev_pow, prev_inv = cur_pow, cur_inv
    return result.u_truncate(bound)


def eval_G1_full(p: int, order: int) -> TSeries:
    """Series over sequences starting 0-then-nonzero, by length/ascents/last/zeros.

    Combines the three right-hand-side terms of the defining functional
    equation over the common denominator (v*delta_1 - 1) and divides out that
    denominator exactly; the division has zero remainder (checked at every
    t-order), which is the algebraic cancellation that makes the quotient a
    genuine power series.
    """
    _check_p(p)
    if order < 0:
        raise ValueError("order must be nonnegative")
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
    if r < 1:
        raise ValueError("r must be at least 1")
    return eval_G1_full(p, order).shift(r - 1) * MultiPoly.monomial((0, 0, r - 1, 0))


def eval_G(p: int, order: int) -> TSeries:
    """Five-variable series over all p-ascent sequences (x marks the initial run)."""
    _check_p(p)
    all_zero = one_minus_zt(order).invert()
    zx_part = (TSeries.one(order) - TSeries.from_poly(order, _Z * _X, 1)).invert()
    return all_zero + zx_part * TSeries.from_poly(order, _X) * eval_G1_full(p, order)


def eval_H(p: int, order: int, u_bound: int | None = None) -> TSeries:
    """Series over nonempty sequences by length/ascents/zeros (last letter dropped).

    Sum over n >= 0 of z t (1-u) u^n (1-t)^n / (delta_n^p gamma_1..gamma_{n+1}),
    cut at n = u_bound (default: order); exact for u-exponents <= u_bound.
    """
    _check_p(p)
    if order < 0:
        raise ValueError("order must be nonnegative")
    bound = order if u_bound is None else u_bound
    if bound < 0:
        raise ValueError("u_bound must be nonnegative")
    result = TSeries.zero(order)
    lead = TSeries.from_poly(order, _Z * (MultiPoly.const(1) - _U), 1)
    onemt = one_minus_t(order)
    onemt_pow = TSeries.one(order)
    gamma_inv = gamma(1, order).invert()
    for n in range(bound + 1):
        if n > 0:
            onemt_pow = onemt_pow * onemt
            gamma_inv = gamma_inv * gamma(n + 1, order).invert()
        term = lead * onemt_pow * gamma_inv * (delta(n, order) ** p).invert()
        result = result + term * MultiPoly.monomial((n, 0, 0, 0))
    return result.u_truncate(bound)


def eval_A(p: int, order: int) -> TSeries:
    """Series over all p-ascent sequences by length (t) and zeros (z).

    1 + sum over n >= 0 of C(p-1+n, n) zt/(1-zt)^(n+1) prod_{i=1..n}(1-(1-t)^i);
    the n-th product has t-valuation n, so the cutoff at n = order is exact.
    """
    _check_p(p)
    if order < 0:
        raise ValueError("order must be nonnegative")
    result = TSeries.one(order)
    zt = TSeries.from_poly(order, _Z, 1)
    inv_1mzt = one_minus_zt(order).invert()
    inv_pow = inv_1mzt
    onemt = one_minus_t(order)
    onemt_pow = TSeries.one(order)
    prod = TSeries.one(order)
    for n in range(order + 1):
        if n > 0:
            onemt_pow = onemt_pow * onemt
            prod = prod * (TSeries.one(order) - onemt_pow)
            if prod.is_zero():
                break
            inv_pow = inv_pow * inv_1mzt
        result = result + comb(p - 1 + n, n) * zt * inv_pow * prod
    return result


def eval_P(order: int) -> TSeries:
    """Series counting 1-ascent sequences by length: sum of prod_{i=1..n}(1-(1-t)^i)."""
    if order < 0:
        raise ValueError("order must be nonnegative")
    result = TSeries.zero(order)
    onemt = one_minus_t(order)
    onemt_pow = TSeries.one(order)
    prod = TSeries.one(order)
    for n in range(order + 1):
        if n > 0:
            onemt_pow = onemt_pow * onemt
            prod = prod * (TSeries.one(order) - onemt_pow)
            if prod.is_zero():
                break
        result = result + prod
    return result


def eval_R(p: int, order: int) -> TSeries:
    """Series counting primitive p-ascent sequences (no equal adjacent letters).

    1 + t sum over n >= 0 of C(p-1+n, n) (1+t)^n prod_{i=1..n}(1 - (1+t)^-i);
    the n-th summand has t-valuation n+1, so the cutoff at n = order is exact.
    """
    _check_p(p)
    if order < 0:
        raise ValueError("order must be nonnegative")
    result = TSeries.one(order)
    one_plus_t = TSeries.one(order) + TSeries.from_poly(order, MultiPoly.const(1), 1)
    inv_1pt = one_plus_t.invert()
    opt_pow = TSeries.one(order)
    inv_pow = TSeries.one(order)
    prod = TSeries.one(order)
    for n in range(order + 1):
        if n > 0:
            opt_pow = opt_pow * one_plus_t
            inv_pow = inv_pow * inv_1pt
            prod = prod * (TSeries.one(order) - inv_pow)
            if prod.is_zero():
                break
        result = result + (comb(p - 1 + n, n) * opt_pow * prod).shift(1)
    return result


def eval_maxk(p: int, k: int, order: int) -> TSeries:
    """Series counting sequences whose blocks of equal letters have length <= k.

    Obtained by substituting t + t^2 + ... + t^k for t in the primitive
    series; k = 1 returns the primitive series itself, and k >= order
    coincides with the all-sequences series because t + ... + t^k is then
    t/(1-t) modulo t^(order+1).
    """
    _check_p(p)
    if k < 1:
        raise ValueError("k must be at least 1")
    if order < 0:
        raise ValueError("order must be nonnegative")
    coeffs = [MultiPoly()] + [
        MultiPoly.const(1) if 1 <= n <= k else MultiPoly() for n in range(1, order + 1)
    ]
    return eval_R(p, order).compose_t(TSeries(coeffs))


def eval_A1_product_form(order: int) -> TSeries:
    """Product form of the p=1 length/zeros series.

    1 + sum over m >= 1 of prod_{i=1..m}(1 - (1-t)^(i-1)(1-zt)); the m-th
    product has t-valuation m, so the cutoff at m = order is exact.
    """
    if order < 0:
        raise ValueError("order must be nonnegative")
    result = TSeries.one(order)
    onemt = one_minus_t(order)
    onemzt = one_minus_zt(order)
    onemt_pow = TSeries.one(order)   # (1-t)^(i-1) for the next factor
    prod = TSeries.one(order)
    for _m in range(1, order + 1):
        prod = prod * (TSeries.one(order) - onemt_pow * onemzt)
        if prod.is_zero():
            break
        onemt_pow = onemt_pow * onemt
        result = result + prod
    return result


def psi(m: int, order: int, u_bound: int | None = None) -> tuple[TSeries, TSeries]:
    """Both sides of the kernel summation identity for the gamma family.

    Left side: sum over k >= 0 of
      (u-1)^(m+1) (1-zt)^(m+1) u^k (1-t)^(k(m+1)) / prod_{i=1..k+1} gamma_i,
    cut at k = u_bound (default: order).  Right side: the closed polynomial
      -sum_{j=0..m} (u-1)^j (1-zt)^j u^(m-j) prod_{i=j+1..m}(1-(1-t)^i).
    Both are returned with u-exponents above the bound dropped; on that
    region they agree identically.
    """
    if m < 0:
        raise ValueError("m must be nonnegative")
    if order < 0:
        raise ValueError("order must be nonnegative")
    bound = order if u_bound is None else u_bound
    if bound < 0:
        raise ValueError("u_bound must be nonnegative")

    onemt = one_minus_t(order)
    onemzt = one_minus_zt(order)

    prefactor = (TSeries.from_poly(order, _U - 1) * onemzt) ** (m + 1)
    step = onemt ** (m + 1)
    gamma_inv = gamma(1, order).invert()
    pw = TSeries.one(order)
    inner = TSeries.zero(order)
    for k in range(bound + 1):
        if k > 0:
            pw = pw * step
            gamma_inv = gamma_inv * gamma(k + 1, order).invert()
        inner = inner + pw * gamma_inv * MultiPoly.monomial((k, 0, 0, 0))
    lhs = (prefactor * inner).u_truncate(bound)

    rhs = TSeries.zero(order)
    onemzt_j = TSeries.one(order)    # ((u-1)(1-zt))^j
    uj_factor = TSeries.from_poly(order, _U - 1) * onemzt
    for j in range(m + 1):
        prod = TSeries.one(order)
        onemt_pow = onemt**j
        for i in range(j + 1, m + 1):
            onemt_pow = onemt_pow * onemt
            prod = prod * (TSeries.one(order) - onemt_pow)
        term = onemzt_j * prod * MultiPoly.monomial((m - j, 0, 0, 0))
        rhs = rhs + term
        onemzt_j = onemzt_j * uj_factor
    return lhs, (-rhs).u_truncate(bound)
