"""Exact truncated power series in t over the integer polynomial ring Z[u,v,z,x].

Coefficients are sparse multivariate polynomials with arbitrary-precision
integer coefficients, so every ring operation is exact.  A series is dense
in t (one coefficient polynomial per power t^0 .. t^order) and sparse in the
remaining variables.  Division only ever happens where it stays inside the
ring: division by a series whose constant term is +1 or -1 (inversion is
division of 1), and checked exact polynomial division by (v - 1).

Internally an exponent vector (e_u, e_v, e_z, e_x) is packed into a single
int (8 bits per variable) so that monomial products reduce to integer
addition, in the one loop that every product of two term maps runs through,
``_scatter``.  Composition in t and substitution for u are one Horner run,
``_run``, on t-lists of ints (``_substitute``): each term map is one int at
a single point, u^a v^b z^c x^e at one base-2^B digit.  Composition holds the
partial sum for coefficient j at order N - j, since it is multiplied by the
j-th power of a series without constant term.  A single Horner step, and a
result whose fields span more than _DENSE digits, run the same Horner rule
on the term maps, whose products go through ``_scatter``.

Every integer run, here and in ``gf``, is read back by one checked decode,
``_decode``.  B is ``_width`` of the largest bound N on a cell's l1 norm (a
cell: one result coefficient, or a z-polynomial of one), and a cell whose
sum S (the same run where every packed variable is 1) and bound leave no
coefficient below -L, L = floor((N - S)/2), is read in digits base 2^B from
-L - 2^(B-1) on.  Its digits must lie in its layout of packed keys, be at
least -L and sum to S: a carry between digits, which a B too narrow gives,
can only lower that sum, so every decode is exact or raises
ArithmeticError.  A series that counts words has N = S: no negative digit.

One bound holds for every exponent: 127, the largest a field holds.
Exponent vectors from outside are checked against it, and every product's
output (and u -> uv's) is checked once for an exponent that reached 128; a
product of two in-range exponents is at most 254, so that check sees every
overflow before it spills into the next field.  The integer run bounds its
result's exponents before it runs, and refuses one past 127 there.  The
public accessors speak plain tuples.
"""

from __future__ import annotations

import json
from functools import reduce
from itertools import chain, repeat
from math import prod
from operator import add, and_, index, lshift, mul, or_
from typing import Iterable, Mapping

VARS = ("u", "v", "z", "x")

_SHIFT = {"u": 24, "v": 16, "z": 8, "x": 0}
_MASK = 0xFF
_MAX_EXP = 127  # largest exponent a field holds, from outside or from a product
_CARRY = 0x80808080  # top bit of each field: products stop at 127, so no field carries
_OVERFLOW = "exponent overflow: a product has an exponent of 128 or more"
_DENSE = 1 << 12  # most base-2^B digits the integer run lays out; past it, series products
_NONE = -(1 << 62)  # the degree of zero in _run's run on degrees: below any sum of degrees


def _pack(exps: Iterable[int]) -> int:
    eu, ev, ez, ex = exps
    return (eu << 24) | (ev << 16) | (ez << 8) | ex


def _pack_checked(exps: Iterable[int]) -> int:
    exps = tuple(exps)
    if len(exps) != 4:
        raise ValueError(f"exponent vector must have 4 entries (u, v, z, x): {exps}")
    if any(e < 0 or e > _MAX_EXP for e in exps):
        raise ValueError(f"exponents must lie in [0, {_MAX_EXP}]: {exps}")
    return _pack(exps)


def _unpack(key: int) -> tuple[int, int, int, int]:
    return (key >> 24) & _MASK, (key >> 16) & _MASK, (key >> 8) & _MASK, key & _MASK


def _scatter(accs, a: dict[int, int], bs) -> None:
    """Add a * bs[j] into accs[j] for each j (up to the shorter sequence).

    An empty bs[j] is skipped and sums that reach zero are dropped.  The
    inner loop runs over bs[j], so callers pass the larger map there."""
    for acc, b in zip(accs, bs):
        if not b:
            continue
        for k1, c1 in a.items():
            for k2, c2 in b.items():
                k = k1 + k2
                s = acc.get(k, 0) + c1 * c2
                if s:
                    acc[k] = s
                elif k in acc:
                    del acc[k]


def _from_scalars(values) -> "TSeries":
    return TSeries([MultiPoly({0: c}) if c else _P_ZERO for c in values])


def _check_at_least(name: str, value: int, low: int = 0) -> None:
    """Refuse a value below low, the one range check of every module."""
    if value < low:
        bound = "nonnegative" if low == 0 else f"at least {low}"
        raise ValueError(f"{name} must be {bound}")


def _check_carry(maps) -> None:
    """Refuse product maps in which any exponent reached 128."""
    if reduce(or_, chain.from_iterable(maps), 0) & _CARRY:
        raise ValueError(_OVERFLOW)


def _power(base, n: int, one):
    if not isinstance(n, int) or n < 0:
        raise ValueError("exponent must be a nonnegative integer")
    result = one
    while n:
        if n & 1:
            result = result * base
        n >>= 1
        if n:
            base = base * base
    return result


class MultiPoly:
    """Integer polynomial in u, v, z, x held as a sparse exponent map.

    The map never stores a zero coefficient, so equal polynomials have equal
    maps and the representation is canonical.  Instances are immutable by
    convention; all operators return new objects.
    """

    __slots__ = ("_t",)

    def __init__(self, packed_terms: dict[int, int] | None = None):
        # Trusted constructor: keys are packed exponents, values nonzero ints.
        self._t = packed_terms if packed_terms is not None else {}

    @classmethod
    def const(cls, value: int) -> "MultiPoly":
        value = index(value)
        return cls({0: value} if value else {})

    @classmethod
    def monomial(cls, exps: Iterable[int], coeff: int = 1) -> "MultiPoly":
        key = _pack_checked(exps)
        coeff = index(coeff)
        return cls({key: coeff} if coeff else {})

    @classmethod
    def variable(cls, name: str) -> "MultiPoly":
        if name not in _SHIFT:
            raise ValueError(f"unknown variable {name!r}; use one of {VARS}")
        return cls({1 << _SHIFT[name]: 1})

    @classmethod
    def from_terms(cls, terms: Mapping[tuple[int, int, int, int], int]) -> "MultiPoly":
        # in-range exponents pack one-to-one, so distinct keys stay distinct
        out = {_pack_checked(exps): index(c) for exps, c in terms.items()}
        return cls({k: c for k, c in out.items() if c})

    # -- queries ----------------------------------------------------------

    def terms(self) -> dict[tuple[int, int, int, int], int]:
        """Exponent-vector view of the sparse map."""
        return {_unpack(k): c for k, c in self._t.items()}

    def is_zero(self) -> bool:
        return not self._t

    def __bool__(self) -> bool:
        return bool(self._t)

    def is_const(self) -> bool:
        return not self._t or (len(self._t) == 1 and 0 in self._t)

    def const_value(self) -> int:
        if not self._t:
            return 0
        if self.is_const():
            return self._t[0]
        raise ValueError(f"not a constant polynomial: {self}")

    def __eq__(self, other) -> bool:
        if isinstance(other, MultiPoly):
            return self._t == other._t
        if isinstance(other, int):
            return self._t == ({0: other} if other else {})
        return NotImplemented

    __hash__ = None

    # -- ring operations --------------------------------------------------

    def __add__(self, other):
        if isinstance(other, int):
            other = MultiPoly.const(other)
        elif not isinstance(other, MultiPoly):
            return NotImplemented
        out = dict(self._t)
        for k, c in other._t.items():
            s = out.get(k, 0) + c
            if s:
                out[k] = s
            elif k in out:
                del out[k]
        return MultiPoly(out)

    __radd__ = __add__

    def __neg__(self):
        return MultiPoly({k: -c for k, c in self._t.items()})

    def __sub__(self, other):
        if isinstance(other, int):
            other = MultiPoly.const(other)
        elif not isinstance(other, MultiPoly):
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, int):
            if other == 0:
                return MultiPoly()
            return MultiPoly({k: c * other for k, c in self._t.items()})
        if not isinstance(other, MultiPoly):
            return NotImplemented
        out: dict[int, int] = {}
        _scatter((out,), self._t, (other._t,))
        _check_carry((out,))
        return MultiPoly(out)

    __rmul__ = __mul__

    def __pow__(self, n: int):
        return _power(self, n, MultiPoly.const(1))

    # -- substitutions ----------------------------------------------------

    def specialize(self, assignments: Mapping[str, int]) -> "MultiPoly":
        """Substitute integers for some of the variables; a value that is not
        an integer (2.5, "2") raises TypeError rather than being truncated."""
        for name in assignments:
            if name not in _SHIFT:
                raise ValueError(f"unknown variable {name!r}")
        poly = self
        for name, value in assignments.items():
            shift = _SHIFT[name]
            clear = ~(_MASK << shift)
            value = index(value)
            out: dict[int, int] = {}
            for k, c in poly._t.items():
                e = (k >> shift) & _MASK
                c2 = c * value**e
                k2 = k & clear
                s = out.get(k2, 0) + c2
                if s:
                    out[k2] = s
                elif k2 in out:
                    del out[k2]
            poly = MultiPoly(out)
        return poly

    def subst_u_to_uv(self) -> "MultiPoly":
        """Replace u by uv: each monomial u^a v^b becomes u^a v^(a+b)."""
        out = {k + ((k >> 24) << 16): c for k, c in self._t.items()}
        _check_carry((out,))
        return MultiPoly(out)

    def coefficient_of(self, var: str, exp: int) -> "MultiPoly":
        """Polynomial coefficient of var^exp, with that variable removed."""
        shift = _SHIFT[var]
        clear = ~(_MASK << shift)
        return MultiPoly(
            {k & clear: c for k, c in self._t.items() if ((k >> shift) & _MASK) == exp}
        )

    def exact_div_v_minus_1(self) -> "MultiPoly":
        """Divide by (v - 1), raising ArithmeticError on a nonzero remainder."""
        groups: dict[int, dict[int, int]] = {}
        for k, c in self._t.items():
            ev = (k >> 16) & _MASK
            base = k & ~(_MASK << 16)
            groups.setdefault(base, {})[ev] = c
        out: dict[int, int] = {}
        for base, col in groups.items():
            top = max(col)
            carry = 0
            for j in range(top, 0, -1):
                carry += col.get(j, 0)
                if carry:
                    out[base | ((j - 1) << 16)] = carry
            if col.get(0, 0) + carry != 0:
                raise ArithmeticError("nonzero remainder in exact division by (v - 1)")
        return MultiPoly(out)

    # -- display ----------------------------------------------------------

    def __str__(self) -> str:
        if not self._t:
            return "0"
        parts = []
        for exps in sorted(_unpack(k) for k in self._t):
            c = self._t[_pack(exps)]
            mono = "*".join(
                name if e == 1 else f"{name}^{e}"
                for name, e in zip(VARS, exps)
                if e
            )
            if not mono:
                text = str(abs(c))
            elif abs(c) == 1:
                text = mono
            else:
                text = f"{abs(c)}*{mono}"
            parts.append(("- " if c < 0 else "+ ") + text)
        head = parts[0][2:] if parts[0].startswith("+ ") else "-" + parts[0][2:]
        return " ".join([head] + parts[1:])

    def __repr__(self) -> str:
        return f"MultiPoly({self})"


_P_ZERO = MultiPoly()
_P_ONE = MultiPoly.const(1)


class TSeries:
    """Power series in t, truncated at a fixed order, over MultiPoly coefficients.

    The truncation order is fixed at construction; binary operations on
    series of different orders truncate the result to the smaller order, so
    precision is never silently overstated.
    """

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: list[MultiPoly]):
        if not coeffs:
            raise ValueError("a series needs at least the t^0 coefficient")
        self.coeffs = coeffs

    @property
    def order(self) -> int:
        return len(self.coeffs) - 1

    @classmethod
    def zero(cls, order: int) -> "TSeries":
        return cls.from_poly(order, _P_ZERO)

    @classmethod
    def one(cls, order: int) -> "TSeries":
        return cls.from_poly(order, _P_ONE)

    @classmethod
    def const(cls, order: int, value: int) -> "TSeries":
        return cls.from_poly(order, MultiPoly.const(value))

    @classmethod
    def from_poly(cls, order: int, poly: MultiPoly, t_power: int = 0) -> "TSeries":
        _check_at_least("order", order)
        _check_at_least("t_power", t_power)
        coeffs = [_P_ZERO] * (order + 1)
        if t_power <= order:
            coeffs[t_power] = poly
        return cls(coeffs)

    # -- access -------------------------------------------------------

    def coefficient(self, n: int) -> MultiPoly:
        if not 0 <= n <= self.order:
            raise ValueError(f"t^{n} is beyond the truncation order {self.order}")
        return self.coeffs[n]

    def terms(self) -> dict[tuple[int, int, int, int, int], int]:
        out = {}
        for n, poly in enumerate(self.coeffs):
            for k, c in poly._t.items():
                out[(n, *_unpack(k))] = c
        return out

    def is_zero(self) -> bool:
        return all(p.is_zero() for p in self.coeffs)

    def __eq__(self, other) -> bool:
        if not isinstance(other, TSeries):
            return NotImplemented
        return self.order == other.order and all(
            a == b for a, b in zip(self.coeffs, other.coeffs)
        )

    __hash__ = None

    def truncate(self, order: int) -> "TSeries":
        _check_at_least("order", order)
        if order >= self.order:
            return self
        return TSeries(self.coeffs[: order + 1])

    # -- ring operations ------------------------------------------------

    @staticmethod
    def _coerce(value, order: int) -> "TSeries | None":
        if isinstance(value, TSeries):
            return value
        if isinstance(value, MultiPoly):
            return TSeries.from_poly(order, value)
        if isinstance(value, int):
            return TSeries.const(order, value)
        return None

    def __add__(self, other):
        other = self._coerce(other, self.order)
        if other is None:
            return NotImplemented
        n = min(self.order, other.order)
        return TSeries([a + b for a, b in zip(self.coeffs[: n + 1], other.coeffs[: n + 1])])

    __radd__ = __add__

    def __neg__(self):
        return TSeries([-p for p in self.coeffs])

    def __sub__(self, other):
        other = self._coerce(other, self.order)
        if other is None:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, (int, MultiPoly)):
            return TSeries([p * other for p in self.coeffs])
        if not isinstance(other, TSeries):
            return NotImplemented
        n = min(self.order, other.order)
        out: list[dict[int, int]] = [dict() for _ in range(n + 1)]
        b = [p._t for p in other.coeffs[: n + 1]]
        for i in range(n + 1):
            ai = self.coeffs[i]._t
            if ai:
                _scatter(out[i:], ai, b)
        _check_carry(out)
        return TSeries([MultiPoly(d) for d in out])

    __rmul__ = __mul__

    def __pow__(self, n: int):
        return _power(self, n, TSeries.one(self.order))

    def shift(self, k: int) -> "TSeries":
        """Multiply by t^k, keeping the truncation order."""
        _check_at_least("shift", k)
        if k == 0:
            return self
        n = self.order
        if k > n:
            return TSeries.zero(n)
        return TSeries([_P_ZERO] * k + self.coeffs[: n + 1 - k])

    def invert(self) -> "TSeries":
        """Multiplicative inverse; requires constant term +1 or -1."""
        return TSeries.one(self.order) / self

    def __truediv__(self, other):
        """Exact quotient; the divisor's constant term must be +1 or -1.

        Solves q * other = self one t-order at a time, so the work grows
        with the divisor's size, not with the size of its inverse."""
        if not isinstance(other, TSeries):
            return NotImplemented
        c0 = other.coeffs[0]
        if not c0.is_const() or c0.const_value() not in (1, -1):
            raise ValueError("series is not invertible: constant term must be +1 or -1")
        inv0 = c0.const_value()
        order = min(self.order, other.order)
        out: list[MultiPoly] = []
        for n in range(order + 1):
            acc = {k: -c for k, c in self.coeffs[n]._t.items()}
            for k in range(1, n + 1):
                bk = other.coeffs[k]._t
                if bk:
                    _scatter((acc,), bk, (out[n - k]._t,))
            _check_carry((acc,))
            out.append(MultiPoly({k: -inv0 * c for k, c in acc.items()}))
        return TSeries(out)

    def compose_t(self, inner: "TSeries") -> "TSeries":
        """Substitute inner(t) for t; inner must have zero constant term.

        Horner's rule from the top coefficient down (_substitute): the partial
        sum from coefficient j on is multiplied by inner^j, of t-valuation j, so
        it is held at order n - j; row j is coefficient j alone, and row 0 is
        padded to order n, the length the partial sums grow to."""
        if not inner.coeffs[0].is_zero():
            raise ValueError("composition requires an inner series with zero constant term")
        n = min(self.order, inner.order)
        rows = [[self.coeffs[0]._t, *[{}] * n], *([p._t] for p in self.coeffs[1 : n + 1])]
        return _substitute(rows, [p._t for p in inner.coeffs[: n + 1]])

    # -- substitutions ----------------------------------------------------

    def specialize(self, assignments: Mapping[str, int]) -> "TSeries":
        return TSeries([p.specialize(assignments) for p in self.coeffs])

    def subst_u_to_uv(self) -> "TSeries":
        return TSeries([p.subst_u_to_uv() for p in self.coeffs])

    def subst_u(self, repl: "TSeries") -> "TSeries":
        """Substitute a series for the variable u.

        Every coefficient must be polynomial in u (always true here), so the
        substitution is a polynomial in repl, evaluated by Horner's rule over
        its u-coefficients (_substitute), filed in one pass: rows[e][i] is that
        of u^e t^i.
        """
        n = min(self.order, repl.order)
        head = [p._t for p in self.coeffs[: n + 1]]
        # u is the top field, so the largest packed key has the largest u-exponent
        rows = [[{} for _ in head] for _ in range((max(chain.from_iterable(head), default=0) >> 24) + 1)]
        for i, terms in enumerate(head):
            for k, c in terms.items():
                rows[k >> 24][i][k & 0xFFFFFF] = c
        return _substitute(rows, [p._t for p in repl.coeffs[: n + 1]])

    def u_truncate(self, bound: int) -> "TSeries":
        """Drop every monomial whose u-exponent exceeds the bound."""
        return TSeries(
            [
                MultiPoly({k: c for k, c in p._t.items() if ((k >> 24) & _MASK) <= bound})
                for p in self.coeffs
            ]
        )

    def coefficient_of_var(self, var: str, exp: int) -> "TSeries":
        """Slice out the coefficient of var^exp at every t-order."""
        return TSeries([p.coefficient_of(var, exp) for p in self.coeffs])

    # -- serialization ----------------------------------------------------

    def to_json(self) -> str:
        """The series JSON, in the bytes json.dumps writes for {"order", "vars",
        "terms": [{"exp", "coeff"}, ...]}, formatted term by term from the
        packed keys with no dict per term.  Every field is below 128, so
        packed keys sort as exponent vectors."""
        terms = ", ".join(
            f'{{"exp": [{n}, {k >> 24}, {k >> 16 & _MASK}, {k >> 8 & _MASK}, {k & _MASK}], '
            f'"coeff": "{c}"}}'
            for n, poly in enumerate(self.coeffs) for k, c in sorted(poly._t.items()))
        return f'{{"order": {self.order}, "vars": ["t", "u", "v", "z", "x"], "terms": [{terms}]}}'

    @classmethod
    def from_json_obj(cls, obj: dict) -> "TSeries":
        if not isinstance(obj, dict):
            raise ValueError(f"series JSON must be an object, not {type(obj).__name__}")
        if obj.get("vars") != ["t", "u", "v", "z", "x"]:
            raise ValueError("unexpected variable list in series JSON")
        order, terms = obj.get("order"), obj.get("terms")
        if type(order) is not int:
            raise ValueError(f"series order must be an integer: {order!r}")
        _check_at_least("series order", order)
        if not isinstance(terms, list) or not all(isinstance(e, dict) for e in terms):
            raise ValueError("series terms must be a list of objects")
        coeffs = [dict() for _ in range(order + 1)]
        for entry in terms:
            exp = entry.get("exp")
            if not isinstance(exp, list) or len(exp) != 5:
                raise ValueError(
                    f"exponent vector must be a list of 5 entries (t, u, v, z, x): {exp!r}"
                )
            if not all(type(e) is int for e in exp):
                # bool is an int subclass: true would read as an exponent of 1
                raise ValueError(f"series exponents must be integers: {exp!r}")
            n = exp[0]
            if not 0 <= n <= order:
                raise ValueError(f"t-exponent {n} outside order {order}")
            key = _pack_checked(exp[1:])
            if key in coeffs[n]:
                raise ValueError(f"repeated exponent vector in series JSON: {exp}")
            c = entry.get("coeff")   # an int, or the decimal string that to_json writes
            if not (type(c) is int or isinstance(c, str) and c.isascii()
                    and c.removeprefix("-").isdecimal()):
                raise ValueError(f"series coefficient must be an integer or decimal text: {c!r}")
            coeffs[n][key] = int(c)
        return cls([MultiPoly({k: c for k, c in d.items() if c}) for d in coeffs])

    @classmethod
    def from_json(cls, text: str) -> "TSeries":
        return cls.from_json_obj(json.loads(text))

    # -- display ----------------------------------------------------------

    def __str__(self) -> str:
        parts = []
        for n, poly in enumerate(self.coeffs):
            if poly.is_zero():
                continue
            body = str(poly)
            if n == 0:
                parts.append(body)
            else:
                t = "t" if n == 1 else f"t^{n}"
                if poly.is_const() and poly.const_value() == 1:
                    parts.append(t)
                elif len(poly._t) == 1 and not body.startswith("-"):
                    parts.append(f"{body}*{t}")
                else:
                    parts.append(f"({body})*{t}")
        head = " + ".join(parts) if parts else "0"
        return f"{head} + O(t^{self.order + 1})"

    def __repr__(self) -> str:
        return f"TSeries({self})"


def _run(rows, x, value, fold=sum, times=mul, plus=add):
    """rows[0] + x (rows[1] + x (rows[2] + ...)) by Horner's rule, on t-lists of value
    at each packed map.  Each partial sum is one entry longer than the one above it,
    up to len(rows[0]), and a row shorter than its partial sum reads as zero past its
    end; each product reads x backwards from its last entry, so a zero tail of x
    costs time only.  With fold=max, times=add and plus=max it is the same run on
    degrees, _NONE that of zero."""
    size, back, acc = len(x), list(map(value, reversed(x))), list(map(value, rows[-1]))
    spans = [(max(0, i - size + 1), i + 1, max(0, size - 1 - i)) for i in range(len(rows[0]))]
    for row in reversed(rows[:-1]):
        acc = [plus(value(d), fold(map(times, acc[lo:hi], back[start:])))
               for d, (lo, hi, start) in zip(chain(row, repeat({})), spans[: len(acc) + 1])]
    return acc


def _by_products(rows, x) -> TSeries:
    """_substitute's Horner rule in series products, which refuse an exponent of 128
    as every product does; x must be as long as rows[0]."""
    acc, step = TSeries(list(map(MultiPoly, rows[-1]))), TSeries(list(map(MultiPoly, x)))
    for row in reversed(rows[:-1]):
        acc = TSeries([*acc.coeffs, _P_ZERO]) * step
        acc.coeffs[: len(row)] = map(add, map(MultiPoly, row), acc.coeffs)
    return acc


def _substitute(rows, x) -> TSeries:
    """rows[0] + x rows[1] + x^2 rows[2] + ..., rows t-lists of packed maps, zero past
    their ends (_run), and x a t-list of packed maps as long as rows[0].

    One integer run at one point: a map is one int, u^a v^b z^c x^e at base-2^B
    digit ((a Wv + b) Wz + c) Wx + e, with u on top and the fields of v, z and x as
    wide as their exponents in the result, read back by _decode against the run on
    sums and bounded by the run on l1 norms.  A field's exponent is at most its
    largest in rows plus len(rows) - 1 times its largest in x; only a sum past
    _MAX_EXP takes the exact exponent with no cancellation, from the run on degrees,
    and refuses one past it before any large int is built.  A result with no
    variable needs no B.  One Horner step (rows of u-degree 1, or order 1), and
    fields that would span more than _DENSE digits (a few terms with large exponents
    in several variables can ask for millions), take the same Horner rule in series
    products, _by_products."""
    if len(rows) < 3:  # one product: cheaper as a series product than the run's set-up
        return _by_products(rows, x)
    own, carried, tops = set().union(*chain.from_iterable(rows)), set().union(*x), []
    for shift in (24, 16, 8, 0):
        def most(keys, shift=shift):
            return max(map(and_, keys, repeat(_MASK << shift)), default=0) >> shift
        top = most(own) + (len(rows) - 1) * most(carried)
        if top > _MAX_EXP:
            top = max(_run(rows, x, lambda d: most(d) if d else _NONE, max, add, max))
            if top > _MAX_EXP:
                raise ValueError(_OVERFLOW)
        tops.append(max(top, 0))
    if prod(top + 1 for top in tops) > _DENSE:
        return _by_products(rows, x)
    while x and not x[-1]:
        x.pop()
    if not any(tops):
        return _from_scalars(_run(rows, x, lambda d: d.get(0, 0)))
    wv, wz, wx = (top + 1 for top in tops[1:])
    keys = [(a << 24) | (b << 16) | (c << 8) | e for a in range(tops[0] + 1)
            for b in range(wv) for c in range(wz) for e in range(wx)]

    def at(width):
        place = {k: width * ((((k >> 24) * wv + (k >> 16 & _MASK)) * wz + (k >> 8 & _MASK)) * wx
                             + (k & _MASK)) for k in own | carried}
        return [_run(rows, x, lambda d: sum(map(lshift, d.values(), map(place.__getitem__, d))))]
    return _decode(at, [_run(rows, x, lambda d: sum(d.values()))],
                   [_run(rows, x, lambda d: sum(map(abs, d.values())))], lambda k, n: keys)


def _width(bound: int) -> int:
    """The digit width B of every integer run whose result coefficients are at most
    bound in size: one bit above it, so each is one balanced digit."""
    return bound.bit_length() + 1


def _z_digits(k: int, n: int) -> range:
    """The packed keys u^k z^0 .. u^k z^n, the layout of the u^k t^n coefficient of a
    run at z = 2^B: z^n comes with t^n."""
    return range(k << 24, (k << 24) + ((n + 1) << 8), 1 << 8)


def _monomial(key: int, *rest: str) -> str:
    """A packed monomial as a decode names it, u^2 z^3 (1 if constant), rest after it."""
    return " ".join([*(f"{v}^{e}" for v, e in zip(VARS, _unpack(key)) if e), *rest]) or "1"


def _decode(at, sums, norms, keys) -> TSeries:
    """The series of an integer run, read back once in digits base 2^B and checked.

    at(B) is the run at one point 2^B, rows of ints: rows[k][n] goes into the t^n
    coefficient, its digit i, lowest first, the coefficient of the packed key
    keys(k, n)[i].  sums is the same run where every packed variable is 1, and norms
    bound each cell's l1 norm; B is _width of the largest norm.  A cell with sum S
    and norm N has no coefficient below -L, L = floor((N - S)/2), the most its
    negative ones can add up to, so its digits are read in [-L - 2^(B-1), 2^(B-1) - L)
    and each must be at least -L and all must sum to S.  Then a carry between digits,
    which a B too narrow for the cell gives, raises ArithmeticError: the true digits
    plus L are nonnegative, the read ones plus L are too and below 2^(B-1), so a
    carry can only lower the sum (by a multiple of 2^B - 1).  A window that does not
    hold 0 (L >= 2^(B-1)), and a digit past a cell's last key, raise too.  A series
    that counts words has N = S, L = 0: no negative digit."""
    width = _width(max(chain.from_iterable(norms)))
    half, mask, coeffs = 1 << (width - 1), (1 << width) - 1, [{} for _ in sums[0]]
    for k, cells in enumerate(zip(at(width), sums, norms)):
        for n, (poly, value, total, norm) in enumerate(zip(coeffs, *cells)):
            cell, place, digits, least = keys(k, n), 0, 0, -((norm - total) // 2)
            size, shift, fits = len(cell), half - least, least > -half  # the window holds 0
            while value:
                digit = ((value + shift) & mask) - shift
                if not digit:  # a run of zero digits is skipped in one shift
                    skip = ((value & -value).bit_length() - 1) // width
                    value, place = value >> skip * width, place + skip
                    continue
                if place >= size:
                    raise ArithmeticError(f"{_monomial(cell[0], f't^{n}')} has a digit past "
                                          f"{_monomial(cell[-1] - cell[0])} at width {width}")
                poly[cell[place]] = digit
                digits, fits = digits + digit, fits and digit >= least
                value, place = (value - digit) >> width, place + 1
            if not fits or digits != total:
                got = MultiPoly({key: poly[key] for key in cell[:place] if key in poly})
                raise ArithmeticError(f"{_monomial(cell[0], f't^{n}')} decodes to {got} at width "
                                      f"{width}, not to digits of at least {least} that sum to {total}")
    return TSeries(list(map(MultiPoly, coeffs)))


def scalar_coefficients(series: TSeries) -> list[int]:
    """Integer coefficient list of a series with constant coefficients.

    Raises ValueError if any coefficient still involves u, v, z, or x.
    """
    out = []
    for n, poly in enumerate(series.coeffs):
        if not poly.is_const():
            raise ValueError(f"coefficient of t^{n} is not a scalar: {poly}")
        out.append(poly.const_value())
    return out
