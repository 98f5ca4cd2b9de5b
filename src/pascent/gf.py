"""Closed-form evaluators for the p-ascent generating functions.

Everything is computed as an exact TSeries.  The infinite sums fall into
two families:

* t-graded sums (eval_A, eval_P, eval_R, eval_maxk, the product form of the
  p=1 zeros identity): the n-th summand has t-valuation at least n, so the
  sum is cut at n = order and every retained coefficient is exact.  Each is
  sum_n w_n prod_{i<=n} t q_i / d, summed by Horner's rule from the last
  term down, with the partial sum from term n on held at order order - n.
  _int_graded_sum runs the steps on a list of ints at an integer z, and no step
  multiplies a series: (1-t)^e T is e passes of differences or -e running sums,
  and 1/(1 - zt) one running sum.  eval_R is summed at t -> -t, where its step
  (1+t)(1 - (1+t)^-n) is (1-t) - (1-t)^(1-n): one difference pass and n - 1
  running sums.  eval_P and eval_A at an integer z are summed in u = -t/(1-t)
  (standing in for t, not the ascent variable), its own inverse, and mapped
  back by _from_u: 1 - t = 1/(1-u) and 1/(1 - zt) = (1-u)/(1 - (1-z)u), so
  their step (1 - (1-t)^n)/(1 - zt) is eval_R's over 1 - (1-z)u, running sums
  where the step in t took n passes of differences.  The product form's step
  keeps its n - 1 passes of differences.  A symbolic z (eval_A, the product
  form) is one run at z = 2^B and one digit decode: every z-coefficient counts
  words, so it is nonnegative and at most the run at z = 1, which sets B.

* u-graded sums (eval_G1_u, eval_H, the psi kernel sum): the k-th summand
  carries a factor u^k, so cutting at k = u_bound makes all monomials with
  u-exponent <= u_bound exact.  Those evaluators drop the (inexact)
  monomials above the bound; with the default bound u_bound = order the
  result is the exact truncated series, because a sequence of length n has
  at most n - 1 ascents.  For the same reason eval_G1_u and eval_H lower a
  larger bound to order; psi does not, as its sides have higher u-degrees.

The u-graded sums run on rows of ints, row k the t-list of the u^k
coefficient, and no step divides: _delta_rows writes (1-t)^(ek) / delta_k^p
in closed form, and _gamma_rows sums u^k a_k over growing products of gammas
by Horner's rule, solving each gamma along u at an integer z.  Each caller
applies its remaining factor to those rows (eval_G1_u zt, eval_H zt(1-u), psi
its prefactor) and series._decode reads them back from one run at z = 2^B.
Every cut is exact: it is reduction modulo a power of u, every factor is a
polynomial in u and each kernel factor has constant term 1.

Every integer run here is read back by that one checked decode, against its
rows at z = 1 and a bound on each cell's l1 norm, so it is exact or raises.
Every z-coefficient of eval_G1_u, eval_H and symbolic eval_A counts words, so
all three are read back through _by_evaluation: the run at z = 1 is both
bound and check, and no digit may be negative.  psi's two sides are signed:
the left side is bounded by a majorant pass, the right side by the l1 norm
of its closed polynomial, and each is checked against its rows at z = 1.
"""

from __future__ import annotations

from itertools import accumulate, chain, islice, pairwise
from math import comb
from operator import add, sub
from typing import Callable, Iterable

from .core import _check_p
from .series import (
    _MAX_EXP, _OVERFLOW, MultiPoly, TSeries, _check_at_least, _decode, _from_scalars, _z_digits,
)

_U = MultiPoly.variable("u")
_V = MultiPoly.variable("v")
_Z = MultiPoly.variable("z")
_X = MultiPoly.variable("x")


def _u_bound(order: int, u_bound: int | None) -> int:
    """The u-bound of a u-graded sum, order by default.  z^n comes with t^n, so an
    order past _MAX_EXP is refused here, before any row."""
    _check_at_least("order", order)
    if order > _MAX_EXP:
        raise ValueError(_OVERFLOW)
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
    return u - _from_scalars(_times_one_minus_t([1] + [0] * order, k)) * (_U - 1)


def gamma(k: int, order: int) -> TSeries:
    """Kernel factor u - (1-zt)(1-t)^(k-1) (u-1); gamma(0) = 1 by convention."""
    _check_at_least("k", k)
    if k == 0:
        return TSeries.one(order)
    u = TSeries.from_poly(order, _U)
    one_minus_t_power = _from_scalars(_times_one_minus_t([1] + [0] * order, k - 1))
    return u - one_minus_zt(order) * one_minus_t_power * (_U - 1)


def delta_bar(k: int, order: int) -> TSeries:
    """delta(k) with u replaced by uv."""
    return delta(k, order).subst_u_to_uv()


def gamma_bar(k: int, order: int) -> TSeries:
    """gamma(k) with u replaced by uv."""
    return gamma(k, order).subst_u_to_uv()


def _delta_rows(p: int, e: int, k: int, top: int, order: int) -> list[list[int]]:
    """Rows 0..top (top <= order) of (1-t)^(ek) / delta_k^p, row j the t-list of u^j.
    delta_k = w + u(1 - w), w = (1-t)^k, so row j is (-1)^j C(p-1+j, j) L_j,
    L_0 = w^(e-p), L_j = (1/w - 1) L_(j-1): k running sums less L_(j-1), of
    t-valuation j, so only the tail from t^j on is summed."""
    tail = _times_one_minus_t([1] + [0] * order, k * (e - p))
    rows = []
    for j in range(top + 1):
        rows.append([0] * j + [(-1) ** j * comb(p - 1 + j, j) * c for c in tail])
        tail = list(map(sub, _times_one_minus_t(tail, -k), tail))[1:]
    return rows


def _times_uz(rows: list[list[int]], z: int, e: int = 1) -> list[list[int]]:
    """rows times ((u-1)(1-zt))^e at an integer z, as many rows: row k of each product
    reads rows k-1 and k only, so the cut stays exact."""
    for _ in range(e):
        rows = [list(map(sub, row, [0, *map(z.__mul__, row[:-1])])) for row in rows]
        rows = [list(map(sub, low, row)) for low, row in zip([[0] * len(rows[0]), *rows], rows)]
    return rows


def _gamma_rows(terms: list, first: int, bound: int, order: int, z: int, op: Callable) -> list:
    """The sum of u^(first+j) terms[j] / (gamma_1..gamma_{j+1}) over j, cut at u <= bound,
    by Horner's rule on rows 0..bound at an integer z; a term is rows of ints, terms
    past j = bound - first are not taken, and op is sub, or add for psi's majorant.
    gamma_(j+1) = g + u(1 - g), g = (1-zt)(1-t)^j, so row k of N / gamma_(j+1) is
    q_k = g^-1 (N_k - q_(k-1)) + q_(k-1), read from N_0..N_k only (so the cut is
    exact), and rows below u^(first+j) stay zero."""
    total = [[0] * (order + 1) for _ in range(bound + 1)]
    for j in range(min(len(terms), bound - first + 1) - 1, -1, -1):
        low = first + j
        for k, row in enumerate(terms[j][: bound - low + 1], low):
            total[k] = list(map(add, total[k], row))
        prev = [0] * (order + 1)
        for k in range(low, bound + 1):
            quot = _over_one_minus_zt(_times_one_minus_t(list(map(op, total[k], prev)), -j), z)
            prev = total[k] = list(map(add, quot, prev))
    return total


def _zt_gamma_sum(terms: list, first: int, bound: int, order: int) -> TSeries:
    """zt times the sum of u^(first+j) terms[j] / (gamma_1..gamma_{j+1}) over j, cut at
    u <= bound (_gamma_rows), for eval_G1_u and eval_H: every z-coefficient counts
    words, so _by_evaluation reads it back.  zt is a shift by one t-order and a
    product by z on each row."""
    return _by_evaluation(lambda z: [[0, *(c * z for c in row[:-1])]
                                     for row in _gamma_rows(terms, first, bound, order, z, sub)], order)


def _int_graded_sum(order: int, p: int, step: Callable) -> list[int]:
    """The sum over n <= order of C(p-1+n, n) prod_{i=1..n} t factor(i) / divisor, to
    t^order, on a list of ints: by Horner's rule from the last term down, T <- C(p-2+n,
    n-1) + step(n, T), where step(n, T) is t factor(n) T / divisor past its t^0
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


def _primitive_step(n: int, total: list[int]) -> Iterable[int]:
    """The step of eval_R, (1+t)(1 - (1+t)^-n) T, for S(t) = T(-t): (1-t) S -
    (1-t)^(1-n) S, one difference pass and n - 1 running sums."""
    return map(sub, _times_one_minus_t(total, 1), _times_one_minus_t(total, 1 - n))


def _zeros_step(z: int) -> Callable:
    """The step of eval_A at an integer z (eval_P: z = 0), (T - (1-t)^n T) / (1 - zt),
    for S(u) = T(t) at u = -t/(1-t): 1 - t = 1/(1-u) and 1/(1 - zt) = (1-u)/(1 - (1-z)u),
    so it is eval_R's step over 1 - (1-z)u, which is no pass at z = 1."""
    return lambda n, total: _over_one_minus_zt(_primitive_step(n, total), 1 - z)


def _from_u(values: list[int]) -> list[int]:
    """The t-list of S(-t/(1-t)), S the series with coefficients values, which is also the
    u-list of a t-list, as the substitution is its own inverse: by Horner's rule from the
    top, R <- (-1)^k c_k + t R/(1-t), one running sum per coefficient."""
    total: list[int] = []
    for k in range(len(values) - 1, -1, -1):
        total = [-values[k] if k & 1 else values[k], *accumulate(total)]
    return total


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
    inverses = (_delta_rows(p, 0, k, bound - k, order) for k in range(bound + 1))
    steps = [[[*map(sub, a, b)] for a, b in zip(cur, prev)] for prev, cur in pairwise(inverses)]
    return _zt_gamma_sum(steps, 1, bound, order)


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
    _check_at_least("order", order)
    if r - 1 > order:  # every word counted starts with r zeros, so none is that short
        return TSeries.zero(order)
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
    # 1-u commutes with the sum, so it goes on each term: row k reads rows k-1 and k only
    terms = [[[*map(sub, row, low)] for low, row in zip([[0] * (order + 1), *rows], rows)]
             for rows in (_delta_rows(p, 1, k, bound - k, order) for k in range(bound + 1))]
    return _zt_gamma_sum(terms, 0, bound, order)


def eval_A(p: int, order: int, z: MultiPoly = _Z) -> TSeries:
    """Series over all p-ascent sequences by length (t) and zeros (z).

    1 + sum over n >= 0 of C(p-1+n, n) zt/(1-zt)^(n+1) prod_{i=1..n}(1-(1-t)^i);
    the n-th product has t-valuation n, so the cutoff at n = order is exact.
    A constant z gives the series specialized at that z (specializing is a
    ring homomorphism), with integer coefficients and no z-exponent to bound;
    z must be a constant or the variable z.
    """
    _check_p(p)
    _check_at_least("order", order)
    if z.is_const():
        return _from_scalars(_zeros_at(p, order, z.const_value()))
    if z != _Z:
        raise ValueError(f"z must be a constant or the variable z, not {z}")
    return _by_evaluation(lambda c: [_zeros_at(p, order, c)], order)


def _zeros_at(p: int, order: int, z: int) -> list[int]:
    """eval_A at an integer z, as ints, summed in u = -t/(1-t): zt/(1 - zt) is
    -zu/(1 - (1-z)u) there."""
    if order == 0:
        return [1]
    total = _int_graded_sum(order - 1, p, _zeros_step(z))
    return _from_u([1, *(-z * v for v in _over_one_minus_zt(total, 1 - z))])


def _by_evaluation(at: Callable[[int], list[list[int]]], order: int) -> TSeries:
    """The series whose u^k t^n coefficient is the z-polynomial that at(z)[k][n] is at
    each integer z, given that its coefficients are nonnegative (they count words).

    Each coefficient is then at most the value at z = 1, which is both the check sum
    and the l1 norm of its cell, so the run at z = 2^B read back by _decode holds
    every coefficient in its own balanced digit, and a negative digit, or digits that
    do not sum to that value, raise ArithmeticError.  z^n comes with t^n, and no
    caller has more rows than t-orders: an order past _MAX_EXP is refused before any
    run."""
    if order > _MAX_EXP:
        raise ValueError(_OVERFLOW)
    sizes = at(1)
    return _decode(lambda width: at(1 << width), sizes, sizes, _z_digits)


def eval_P(order: int) -> TSeries:
    """Series counting 1-ascent sequences by length: sum of prod_{i=1..n}(1-(1-t)^i)."""
    _check_at_least("order", order)
    return _from_scalars(_from_u(_int_graded_sum(order, 1, _zeros_step(0))))  # summed in u


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
    return eval_R(p, order).compose_t(_from_scalars(int(1 <= n <= k) for n in range(order + 1)))


def eval_A1_product_form(order: int) -> TSeries:
    """Product form of the p=1 length/zeros series.

    1 + sum over m >= 1 of prod_{i=1..m}(1 - (1-t)^(i-1)(1-zt)); the m-th
    product has t-valuation m, so the cutoff at m = order is exact.
    """
    _check_at_least("order", order)

    def step(z: int) -> Callable:
        # T - (1-t)^(n-1) (1-zt) T
        return lambda n, total: map(sub, total, _times_one_minus_t(
            [*map(sub, total, [0, *(z * c for c in total[:-1])])], n - 1))

    return _by_evaluation(lambda z: [_int_graded_sum(order, 1, step(z))], order)


def psi(m: int, order: int, u_bound: int | None = None) -> tuple[TSeries, TSeries]:
    """Both sides of the kernel summation identity for the gamma family.

    Left side: sum over k >= 0 of
      (u-1)^(m+1) (1-zt)^(m+1) u^k (1-t)^(k(m+1)) / prod_{i=1..k+1} gamma_i,
    cut at k = u_bound (default: order), its prefactor applied before the decode.
    Right side: the closed polynomial, built on rows and reading no gamma,
      -sum_{j=0..m} (u-1)^j (1-zt)^j u^(m-j) prod_{i=j+1..m}(1-(1-t)^i).
    Both drop u-exponents above the bound; there they agree identically.
    """
    _check_at_least("m", m)
    bound = _u_bound(order, u_bound)
    if bound > _MAX_EXP:  # u^bound, refused before any row as z^order is
        raise ValueError(_OVERFLOW)
    terms = [[[(-1) ** n * comb((m + 1) * k, n) for n in range(order + 1)]] for k in range(bound + 1)]

    def lhs(width):
        return _times_uz(_gamma_rows(terms, 0, bound, order, 1 << width, sub), 1 << width, m + 1)
    # the majorant: the pass at z = 1 on |terms| with subtraction made addition bounds
    # the sum of |coefficients| over z at each u^k t^n (1/g has nonnegative coefficients),
    # and the prefactor, of l1 norm 4^(m+1), raises the largest at most that many times
    magnitudes = [[[*map(abs, row)] for row in rows] for rows in terms]
    most = max(chain(*_gamma_rows(magnitudes, 0, bound, order, 1, add))) << 2 * (m + 1)
    # |c| <= the l1 norm of R_m, submultiplicative and never raised by a cut: N_0 = 1,
    # N_j = 2^j N_(j-1) + 4^j, so N_m = sum_j 4^j 2^(m(m+1)/2 - j(j+1)/2) < 2^(m(m+1)/2 + 3)
    top, rhs_most = min(m, bound), (1 << m * (m + 1) // 2 + 3) - 1
    return (_decode(lhs, lhs(0), [[most] * (order + 1)] * (bound + 1), _z_digits),
            _decode(lambda width: _psi_rhs_rows(m, top, order, 1 << width),
                    _psi_rhs_rows(m, top, order, 1), [[rhs_most] * (order + 1)] * (top + 1), _z_digits))


def _psi_rhs_rows(m: int, top: int, order: int, z: int) -> list[list[int]]:
    """Rows 0..top of psi's right side -R_m at an integer z: R_(-1) = 0, R_j = u(1 -
    (1-t)^j) R_(j-1) + ((u-1)(1-zt))^j, u a row shift, so row k reads rows k-1 and k
    and the cut is exact; R_j enters R_m times u^(m-j), so steps before j = m - top are cut."""
    zero = [0] * (order + 1)  # no step writes into a row, so rows may share it
    power = [[1, *zero[1:]], *[zero] * top]  # ((u-1)(1-zt))^j
    rows = [zero] * (top + 1)
    for j in range(m + 1):
        if j:
            power = _times_uz(power, z)
        if j >= m - top:
            rows = [list(map(sub, map(sub, r, _times_one_minus_t(r, j)), p))
                    for r, p in zip([zero, *rows], power)]
    return rows
