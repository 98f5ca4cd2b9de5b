"""Exact properties on drawn inputs: each compares two answers that different
code computes.  Every run draws the same examples (derandomize=True)."""

from itertools import chain

from hypothesis import given, settings
from hypothesis import strategies as st

from pascent import gf
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
def _counting_rows(draw):
    """Rows of a series that counts words: cells[k][n] lists the nonnegative
    z-coefficients of u^k t^n, z^0 to z^n, small or many bits wide."""
    order, top = draw(st.integers(0, 4)), draw(st.integers(0, 2))
    coeff = st.one_of(st.integers(0, 3), st.integers(0, 1 << 20))
    return [[draw(st.lists(coeff, min_size=n + 1, max_size=n + 1)) for n in range(order + 1)]
            for _ in range(top + 1)]


@settings(max_examples=150, deadline=None, derandomize=True)
@given(cells=_counting_rows())
def test_checked_decode_is_exact_or_raises_at_every_width(cells):
    """Read back at z = 2^w against the counts at z = 1, the rows decode to
    the series they encode or raise ArithmeticError, at every w from 1 to two
    bits past the count width, and never raise from the count width on."""
    def at(z):
        return [[sum(c * z**i for i, c in enumerate(cell)) for cell in row] for row in cells]
    expected = TSeries([
        MultiPoly.from_terms({(k, 0, i, 0): c for k, row in enumerate(cells) for i, c in enumerate(row[n])})
        for n in range(len(cells[0]))
    ])
    sizes = at(1)
    count_width = max(chain(*sizes)).bit_length() + 1
    for width in range(1, count_width + 3):
        try:
            decoded = gf._decode(at(1 << width), width, sizes)
        except ArithmeticError:
            assert width < count_width, width
            continue
        assert decoded == expected, width
