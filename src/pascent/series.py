"""Exact truncated power series in t over the integer polynomial ring Z[u,v,z,x].

Coefficients are sparse multivariate polynomials with arbitrary-precision
integer coefficients, so every ring operation is exact.  A series is dense
in t (one coefficient polynomial per power t^0 .. t^order) and sparse in the
remaining variables.  Division only ever happens where it stays inside the
ring: division by a series whose constant term is +1 or -1 (inversion is
division of 1), and checked exact polynomial division by (v - 1).

Internally an exponent vector (e_u, e_v, e_z, e_x) is packed into a single
int (8 bits per variable) so that monomial products reduce to integer
addition, in the one loop that every product runs through, ``_scatter``.
Composition in t and substitution for u are Horner evaluations over the one
series product, so the kernel is just product and division; composition
holds the partial sum for coefficient j at order N - j, since it is
multiplied by the j-th power of a series without constant term.
Exponent vectors from outside are checked against the field bound, and every
product's output is checked once for an exponent that reached 128; the
public accessors speak plain tuples.
"""

from __future__ import annotations

import json
from functools import reduce
from itertools import chain
from operator import index, or_
from typing import Iterable, Mapping

VARS = ("u", "v", "z", "x")

_SHIFT = {"u": 24, "v": 16, "z": 8, "x": 0}
_MASK = 0xFF
_MAX_EXP = 100  # bound on exponents that arrive from outside
_CARRY = 0x80808080  # top bit of each field: products stop at 127, so no field carries


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
        raise ValueError("exponent overflow: a product has an exponent of 128 or more")


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

    def max_degree(self, var: str) -> int:
        shift = _SHIFT[var]
        return max(((k >> shift) & _MASK for k in self._t), default=0)

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
        """Substitute integers for some of the variables."""
        for name in assignments:
            if name not in _SHIFT:
                raise ValueError(f"unknown variable {name!r}")
        poly = self
        for name, value in assignments.items():
            shift = _SHIFT[name]
            clear = ~(_MASK << shift)
            value = int(value)
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
        out: dict[int, int] = {}
        for k, c in self._t.items():
            eu = (k >> 24) & _MASK
            if ((k >> 16) & _MASK) + eu > _MAX_EXP:
                raise ValueError("v-exponent overflow in u -> uv substitution")
            out[k + (eu << 16)] = c
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

    def monomial_coefficient(self, exp: tuple[int, int, int, int, int]) -> int:
        n, *rest = exp
        return self.coefficient(n)._t.get(_pack_checked(rest), 0)

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

        Horner's rule from the top coefficient down: the partial sum from
        coefficient j on is multiplied by inner^j, of t-valuation j, so it is
        held at order n - j, and each step multiplies it by inner/t and sets
        coefficient j as its t^0 coefficient."""
        if not inner.coeffs[0].is_zero():
            raise ValueError("composition requires an inner series with zero constant term")
        n = min(self.order, inner.order)
        inner_over_t = TSeries(inner.coeffs[1 : n + 1] or [_P_ZERO])
        result = TSeries([self.coeffs[n]])
        for c in reversed(self.coeffs[:n]):
            result = TSeries([c, *(result * inner_over_t).coeffs])
        return result

    # -- substitutions ----------------------------------------------------

    def specialize(self, assignments: Mapping[str, int]) -> "TSeries":
        return TSeries([p.specialize(assignments) for p in self.coeffs])

    def subst_u_to_uv(self) -> "TSeries":
        return TSeries([p.subst_u_to_uv() for p in self.coeffs])

    def subst_u(self, repl: "TSeries") -> "TSeries":
        """Substitute a series for the variable u.

        Every coefficient must be polynomial in u (always true here), so the
        substitution is a polynomial in repl, evaluated by Horner's rule over
        its u-coefficients, filed in one pass: rows[e][i] is that of u^e t^i.
        """
        n = min(self.order, repl.order)
        head = self.coeffs[: n + 1]
        rows = [[{} for _ in head] for _ in range(max(p.max_degree("u") for p in head) + 1)]
        for i, p in enumerate(head):
            for k, c in p._t.items():
                rows[k >> 24][i][k & 0xFFFFFF] = c
        return _horner([TSeries(list(map(MultiPoly, row))) for row in rows], repl.truncate(n))

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

    def to_json_obj(self) -> dict:
        entries = sorted(self.terms().items())
        return {
            "order": self.order,
            "vars": ["t", "u", "v", "z", "x"],
            "terms": [{"exp": list(exp), "coeff": str(c)} for exp, c in entries],
        }

    def to_json(self) -> str:
        return json.dumps(self.to_json_obj())

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
            if not (type(c) is int or isinstance(c, str) and c.removeprefix("-").isdecimal()):
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


def _horner(coeffs, x: TSeries) -> TSeries:
    """coeffs[0] + coeffs[1]*x + coeffs[2]*x^2 + ... by Horner's rule, one series
    product and one sum per step; coeffs must not be empty."""
    *rest, top = coeffs
    result = TSeries.zero(x.order) + top
    for c in reversed(rest):
        result = result * x + c
    return result


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
