"""Closed-form evaluators for the p-ascent generating functions.

Everything is computed as an exact TSeries.  The infinite sums fall into
two families:

* t-graded sums (eval_A, eval_P, eval_R, eval_maxk, the product form of the
  p=1 zeros identity): the n-th summand has t-valuation at least n, so the
  sum is cut at n = order and every retained coefficient is exact.  Each is
  sum_n w_n prod_{i<=n} t q_i / d, summed by Horner's rule from the last
  term down, with the partial sum from term n on held at order order - n.
  _t_graded_sum builds each valuation-0 factor q_i (such as (1 - base^i)/t)
  at that order from its binomial coefficients, so no power chain is kept,
  and divides by d (1 - zt for eval_A) through the series quotient.  Over
  the integers (eval_P, eval_A at an integer z, and eval_R) _int_graded_sum
  runs the same steps on a list of ints: t q_n is 1 - (1-t)^n (for eval_R,
  summed at t -> -t, (1-t) - (1-t)^(1-n)), (1-t)^e T is e passes of
  differences or -e running sums, and 1/(1 - zt) one running sum, so no
  step multiplies.

* u-graded sums (eval_G1_u, eval_H, the psi kernel sum): the k-th summand
  carries a factor u^k, so cutting at k = u_bound makes all monomials with
  u-exponent <= u_bound exact.  Those evaluators drop the (inexact)
  monomials above the bound; with the default bound u_bound = order the
  result is the exact truncated series, because a sequence of length n has
  at most n - 1 ascents.  For the same reason eval_G1_u and eval_H lower a
  larger bound to order; psi does not, as its sides have higher u-degrees.

The u-graded sums take their powers from one lazy chain, _powers.  Each
kernel factor is divided through its shape 1 + (u-1)(A + zB), A and B
integer series, by _kernel_div:
order by order, from integer multiples of earlier quotient orders, storing no
monomial above its u-cut.  _over_deltas divides the k-th term by delta_k^p
with p such divisions.  eval_G1_u, eval_H and psi's left side sum u^k a_k
over growing products of gammas by Horner's rule in _gamma_sum: from the
last term down, add u^k a_k and divide by one gamma.  A factor with u-powers
applied after a sum (the (1-u) of eval_H, psi's prefactor) is cut again,
and psi's right side, a polynomial, is cut once.  Every cut is exact: it
is reduction modulo a power of u, every factor is a polynomial in u and each
kernel factor has constant term 1.
"""

from __future__ import annotations

from itertools import accumulate, islice, pairwise, repeat
from math import comb
from operator import mul, sub
from typing import Callable, Iterable, Iterator

from .core import _check_p
from .series import (
    _P_ZERO, _SHIFT, MultiPoly, TSeries, _check_at_least, _check_carry, _from_scalars,
)

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


def _kernel_div(numer: TSeries, m: int, z: bool, bound: int) -> TSeries:
    """numer / gamma_(m+1) if z else numer / delta_m, cut at u <= bound.

    Both are 1 + (u-1)(A + zB), A = 1 - (1-t)^m, B = t(1-t)^m for gamma and
    0 for delta.  So q_n = numer_n - (u-1)(S_n + z T_n), S_n = sum_j A_j
    q_(n-j), T_n = q_(n-1) - S_(n-1): integer multiples of earlier quotients,
    with z and u as key shifts.  A key at or above u^(bound+1) is never stored."""
    a = [(-1) ** (j + 1) * comb(m, j) for j in range(1, m + 1)]
    u1, z1 = 1 << _SHIFT["u"], 1 << _SHIFT["z"]  # the packed keys of u and z
    limit = (bound + 1) * u1  # u is the top field, so key < limit is u <= bound
    out: list[dict[int, int]] = []
    t_n: dict[int, int] = {}
    for poly in numer.coeffs:
        s: dict[int, int] = {}
        for c, prev in zip(a, reversed(out)):
            for k, d in prev.items():
                s[k] = s.get(k, 0) + c * d
        w = dict(s)
        for k, d in t_n.items():
            w[k + z1] = w.get(k + z1, 0) + d
        q = {k: c for k, c in poly._t.items() if k < limit}
        for k, c in w.items():
            q[k] = q.get(k, 0) + c
            if (ku := k + u1) < limit:
                q[ku] = q.get(ku, 0) - c
        q = {k: c for k, c in q.items() if c}
        _check_carry((q,))
        out.append(q)
        if z:
            t_n = dict(q)
            for k, c in s.items():
                t_n[k] = t_n.get(k, 0) - c
    return TSeries([MultiPoly(q) for q in out])


def _over_deltas(p: int, numers: Iterable[TSeries], order: int) -> Iterator[TSeries]:
    """numers[k] / delta_k^p for k = 0, 1, 2, ... (delta_0 = 1), by p divisions
    through delta_k's shape, cut at u <= order.  At t^n the u-degree of
    1/delta_k is at most n, so the cut is exact when no numerator has u."""
    for k, quot in enumerate(numers):
        for _ in range(p):
            quot = _kernel_div(quot, k, False, order)
        yield quot


def _gamma_sum(terms: Iterable[TSeries], first: int, bound: int, order: int) -> TSeries:
    """Sum of u^(first+j) terms[j] / (gamma_1..gamma_{j+1}) over j, cut at u <= bound.

    Horner's rule from the last term down, T <- (u^(first+j) terms[j] + T) /
    gamma_{j+1}, so each step divides once by a gamma, through its shape, and
    no step multiplies by a chain element.  Terms past j = bound - first only
    add monomials above the cut and are not taken."""
    total = TSeries.zero(order)
    for j, term in reversed(list(enumerate(islice(terms, bound - first + 1)))):
        numer = term * MultiPoly.monomial((first + j, 0, 0, 0)) + total
        total = _kernel_div(numer, j, True, bound)
    return total


def _t_graded_sum(
    order: int, factor: Callable[[int, int], TSeries], p: int = 1, divisor: TSeries | None = None
) -> TSeries:
    """Sum over n <= order of C(p-1+n, n) prod_{i=1..n} t factor(i) / divisor, to t^order.

    Horner's rule from the last term down, T <- C(p-2+n, n-1) + t (factor(n) T)
    / divisor: term n carries t^n, so T is held at order - n, factor(n, order - n)
    is built at that order and divisor (if any, at least order) is cut to it by
    the quotient.  The t-graded twin of _gamma_sum."""
    total = TSeries.const(0, comb(p - 1 + order, order))
    for n in range(order, 0, -1):
        total = _plus_t_times(comb(p - 2 + n, n - 1), factor(n, order - n) * total, divisor)
    return total


def _plus_t_times(const: int, series: TSeries, divisor: TSeries | None = None) -> TSeries:
    """const + t * series / divisor, one order above series (divisor at least that order)."""
    lifted = TSeries([_P_ZERO, *series.coeffs])
    if divisor is not None:
        lifted = lifted / divisor
    # the quotient of t * series has no constant term, so const is its t^0 coefficient
    return TSeries([MultiPoly.const(const), *lifted.coeffs[1:]])


def _int_graded_sum(order: int, p: int, step: Callable) -> list[int]:
    """_t_graded_sum over the integers, on a list of ints: T <- C(p-2+n, n-1) +
    step(n, T), where step(n, T) is t factor(n) T / divisor past its t^0
    coefficient.

    T is padded by a zero, as t factor(n) has no constant term: the
    t^(order-n+1) coefficient of the step does not read the pad."""
    total = [comb(p - 1 + order, order)]
    for n in range(order, 0, -1):
        total.append(0)
        total = [comb(p - 2 + n, n - 1), *islice(step(n, total), 1, None)]
    return total


def _times_one_minus_t(values: list[int], e: int) -> list[int]:
    """values (1-t)^e as ints, as long as values: e passes of differences of
    values and values shifted by one, or -e running sums for e < 0."""
    for _ in range(e):
        values = list(map(sub, values, [0, *values]))
    for _ in range(-e):
        values = list(accumulate(values))
    return values


def _over_one_minus_zt(values: Iterable[int], z: int) -> Iterable[int]:
    """values / (1 - zt) as ints: one running sum, none for z = 0."""
    if z == 1:
        return accumulate(values)
    return accumulate(values, lambda acc, c: acc * z + c) if z else values


def _zeros_step(z: int) -> Callable:
    """The step of eval_A at an integer z (eval_P: z = 0), (T - (1-t)^n T) / (1 - zt)."""
    return lambda n, total: _over_one_minus_zt(map(sub, total, _times_one_minus_t(total, n)), z)


def _primitive_step(n: int, total: list[int]) -> Iterable[int]:
    """The step of eval_R, (1+t)(1 - (1+t)^-n) T, for S(t) = T(-t): (1-t) S -
    (1-t)^(1-n) S, one difference pass and n - 1 running sums."""
    return map(sub, _times_one_minus_t(total, 1), _times_one_minus_t(total, 1 - n))


def _q_one_minus_t(n: int, order: int) -> TSeries:
    """(1 - (1-t)^n)/t: its t^k coefficient is (-1)^k C(n, k+1)."""
    return _from_scalars((-1) ** k * comb(n, k + 1) for k in range(order + 1))


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
    inverses = _over_deltas(p, repeat(TSeries.one(order)), order)
    steps = (cur - prev for prev, cur in pairwise(inverses))
    return _gamma_sum(steps, 1, bound, order).shift(1) * _Z


def _kernel_rhs(p: int, f_v1: TSeries, constant: TSeries) -> TSeries:
    """The right side of the kernel equation, given F|v=1 = f_v1:
    ((v-1) + tv(u-1)) F = constant + t((v-1)z - v) F|v=1 + tuv^(p+1) F|v=1,u->uv."""
    rest = f_v1 * ((_V - 1) * _Z - _V) + f_v1.subst_u_to_uv() * (_U * _V ** (p + 1))
    return constant + rest.shift(1)


def eval_G1_full(p: int, order: int) -> TSeries:
    """Series over sequences starting 0-then-nonzero, by length/ascents/last/zeros.

    Divides the right side of the kernel equation (_kernel_rhs, F|v=1 =
    eval_G1_u, constant t^2 uvz(v^p - 1)) exactly by v*delta_1 - 1; the
    division has zero remainder (checked at every t-order), which is the
    algebraic cancellation that makes the quotient a genuine power series.
    """
    _check_p(p)
    _check_at_least("order", order)
    constant = TSeries.from_poly(order, _U * _V * _Z * (_V**p - 1), 2)
    numer = _kernel_rhs(p, eval_G1_u(p, order), constant)
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
    terms = _over_deltas(p, _powers(one_minus_t(order), TSeries.one(order)), order)
    total = _gamma_sum(terms, 0, bound, order)
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
    if order == 0:
        return TSeries.one(0)
    if z.is_const():
        c = z.const_value()
        total = _int_graded_sum(order - 1, p, _zeros_step(c))
        return _from_scalars([1, *(c * v for v in _over_one_minus_zt(total, c))])
    one_mzt = one_minus_zt(order, z)
    total = _t_graded_sum(order - 1, _q_one_minus_t, p, one_mzt)
    return _plus_t_times(1, total * z, one_mzt)


def eval_P(order: int) -> TSeries:
    """Series counting 1-ascent sequences by length: sum of prod_{i=1..n}(1-(1-t)^i)."""
    _check_at_least("order", order)
    return _from_scalars(_int_graded_sum(order, 1, _zeros_step(0)))


def eval_R(p: int, order: int) -> TSeries:
    """Series counting primitive p-ascent sequences (no equal adjacent letters).

    1 + t sum over n >= 0 of C(p-1+n, n) (1+t)^n prod_{i=1..n}(1 - (1+t)^-i);
    the n-th summand has t-valuation n+1, so the cutoff at n = order is exact.
    """
    _check_p(p)
    _check_at_least("order", order)
    if order == 0:
        return TSeries.one(0)
    total = _int_graded_sum(order - 1, p, _primitive_step)  # the sum at t -> -t
    return _from_scalars([1, *(-v if k & 1 else v for k, v in enumerate(total))])


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

    def factor(i: int, prec: int) -> TSeries:
        # (1 - (1-t)^(i-1)(1-zt))/t = (1 - (1-t)^(i-1))/t + z (1-t)^(i-1)
        powers = _from_scalars((-1) ** k * comb(i - 1, k) for k in range(prec + 1))
        return _q_one_minus_t(i - 1, prec) + powers * _Z

    return _t_graded_sum(order, factor)


def psi(m: int, order: int, u_bound: int | None = None) -> tuple[TSeries, TSeries]:
    """Both sides of the kernel summation identity for the gamma family.

    Left side: sum over k >= 0 of
      (u-1)^(m+1) (1-zt)^(m+1) u^k (1-t)^(k(m+1)) / prod_{i=1..k+1} gamma_i,
    cut at k = u_bound (default: order).  Right side: the closed polynomial
      -sum_{j=0..m} (u-1)^j (1-zt)^j u^(m-j) prod_{i=j+1..m}(1-(1-t)^i).
    Both are returned with u-exponents above the bound dropped; on that
    region they agree identically.
    """
    _check_at_least("m", m)
    bound = _u_bound(order, u_bound)
    one = TSeries.one(order)
    uz = TSeries.from_poly(order, _U - 1) * one_minus_zt(order)
    onemt = one_minus_t(order)
    # R_0 = 1, R_j = u(1 - (1-t)^j) R_(j-1) + uz^j, and the right side is -R_m
    rhs, uz_j, onemt_j = one, one, one
    for _ in range(m):
        uz_j, onemt_j = uz_j * uz, onemt_j * onemt
        rhs = (one - onemt_j) * (rhs * _U) + uz_j
    inner = _gamma_sum(_powers(onemt_j * onemt, one), 0, bound, order)
    lhs = (uz_j * uz * inner).u_truncate(bound)
    return lhs, -rhs.u_truncate(bound)
