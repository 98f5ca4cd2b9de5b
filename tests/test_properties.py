"""Exact properties on drawn inputs: each compares two answers that different
code computes.  Every run draws the same examples (derandomize=True)."""

from itertools import chain

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from pascent import series
from pascent.core import PAscentSequence
from pascent.patterns import bijection_012_to_10, bijection_10_to_012, embed, project
from pascent.series import MultiPoly, TSeries

DRAWS = st.lists(st.integers(0, 1 << 16), max_size=10)


def _p_ascent(p, draws, rising=False):
    """The p-ascent word whose letter i (after the first 0) is draws[i] read
    modulo the number of letters allowed there; with rising, only the letters
    from the last one up are allowed, so the word is weakly increasing."""
    word, ascents = [], 0
    for x in draws:
        if not word:
            word.append(0)
            continue
        last = word[-1]
        low = last if rising else 0
        c = low + x % (p + ascents + 1 - low)
        ascents += c > last
        word.append(c)
    return tuple(word)


def _avoiding_012(p, draws):
    """The word that starts with 0 and takes each further letter from draws:
    0, or a nonzero letter no larger than the last one (p before any), read
    modulo their number.  These are the 012-avoiding p-ascent words."""
    word, cap = [], p
    for x in draws:
        c = x % (cap + 1) if word else 0
        cap = c or cap
        word.append(c)
    return tuple(word)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(p=st.integers(1, 5), draws=DRAWS)
def test_embed_and_project_invert_each_other(p, draws):
    seq = PAscentSequence(p, _p_ascent(p, draws))
    image = embed(seq)
    assert image == PAscentSequence(1, image.letters)
    assert project(image, p) == seq
    assert embed(project(image, p)) == image


@settings(max_examples=300, deadline=None, derandomize=True)
@given(p=st.integers(1, 8), draws=DRAWS, rising=st.booleans())
def test_bijections_invert_each_other_at_every_p(p, draws, rising):
    """From a drawn 10-avoider (weakly increasing) or 012-avoider, one map
    and then the other give the word back."""
    if rising:
        seq = PAscentSequence(p, _p_ascent(p, draws, rising=True))
        there, back = bijection_10_to_012, bijection_012_to_10
    else:
        seq = PAscentSequence(p, _avoiding_012(p, draws))
        there, back = bijection_012_to_10, bijection_10_to_012
    image = there(seq)
    assert image == PAscentSequence(p, image.letters)
    assert back(image) == seq


@st.composite
def _rows(draw, coeff):
    """Rows of a series: cells[k][n] lists the z-coefficients of u^k t^n, z^0 to
    z^n, drawn from coeff."""
    order, top = draw(st.integers(0, 4)), draw(st.integers(0, 2))
    return [[draw(st.lists(coeff, min_size=n + 1, max_size=n + 1)) for n in range(order + 1)]
            for _ in range(top + 1)]


def _decode_at_every_width(cells, norms):
    """(w, what the one decode makes of the rows at z = 2^w, checked against their
    sums at z = 1: a series or the ArithmeticError raised) for each w from 1 to two
    bits past the width that norms, bounds on each cell's l1 norm, set."""
    def at(z):
        return [[sum(c * z**i for i, c in enumerate(cell)) for cell in row] for row in cells]
    sums, out = at(1), []
    for width in range(1, series._width(max(chain(*norms))) + 3):
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(series, "_width", lambda bound: width)
            try:
                out.append((width, series._decode(lambda w: at(1 << w), sums, norms, series._z_digits)))
            except ArithmeticError as exc:
                out.append((width, exc))
    return out


def _series_of(cells):
    """The series whose u^k t^n coefficient has the z-coefficients cells[k][n]."""
    return TSeries([
        MultiPoly.from_terms({(k, 0, i, 0): c for k, row in enumerate(cells)
                              for i, c in enumerate(row[n])})
        for n in range(len(cells[0]))
    ])


@settings(max_examples=150, deadline=None, derandomize=True)
@given(cells=_rows(st.one_of(st.integers(0, 3), st.integers(0, 1 << 20))))
def test_checked_decode_is_exact_or_raises_at_every_width(cells):
    """Rows of a series that counts words (nonnegative z-coefficients), read back
    at z = 2^w against the counts at z = 1, decode to the series they encode or
    raise ArithmeticError, at every w from 1 to two bits past the count width, and
    never raise from the count width on."""
    sizes = [[sum(cell) for cell in row] for row in cells]
    count_width = max(chain(*sizes)).bit_length() + 1
    for width, decoded in _decode_at_every_width(cells, sizes):
        if isinstance(decoded, ArithmeticError):
            assert width < count_width, width
        else:
            assert decoded == _series_of(cells), width


@settings(max_examples=150, deadline=None, derandomize=True)
@given(cells=_rows(st.one_of(st.integers(-3, 3), st.integers(-(1 << 20), 1 << 20))),
       slack=st.integers(0, 1 << 8))
@example(cells=[[[0], [0, 0], [0, 0, 0], [2, 0, -3, 0]]], slack=0)  # at 2 bits: -2 + z + z^2 - z^3
def test_signed_decode_is_exact_or_raises_at_every_width(cells, slack):
    """Signed rows, whose norms bound each cell's l1 norm (up to slack above it),
    decode to the series they encode or raise ArithmeticError at every width, and
    never raise from the width the norms set on, although carries of opposite
    signs leave the sum of a cell's digits unchanged."""
    norms = [[sum(map(abs, cell)) + slack for cell in row] for row in cells]
    norm_width = series._width(max(chain(*norms)))
    for width, decoded in _decode_at_every_width(cells, norms):
        if isinstance(decoded, ArithmeticError):
            assert width < norm_width, width
        else:
            assert decoded == _series_of(cells), width
