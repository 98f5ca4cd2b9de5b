"""Sequence validation, statistics, enumeration, and the oracle table."""

from collections import Counter
from itertools import combinations, groupby

import pytest

from pascent.core import (
    STAT_NAMES,
    PAscentSequence,
    _bounded_runs,
    _grow,
    asc,
    count_by_length,
    enumerate_sequences,
    is_p_ascent,
    oracle_table,
    stats,
)
from pascent.patterns import Pattern, _avoiders_by_length, iter_avoiders
from pascent.series import _MAX_EXP, MultiPoly


def test_asc():
    assert asc((0, 1, 0, 2, 3, 1, 0, 0, 2)) == 4
    assert asc((0,)) == 0
    assert asc((0, 0, 0)) == 0
    assert asc(()) == 0


def test_is_p_ascent():
    assert is_p_ascent((0, 1, 3), 2)
    assert not is_p_ascent((0, 2), 1)
    assert is_p_ascent((), 3)
    assert not is_p_ascent((1,), 2)
    assert not is_p_ascent((0, -1), 2)
    with pytest.raises(ValueError):
        is_p_ascent((0,), 0)


def test_sequence_validation():
    seq = PAscentSequence(2, [0, 2, 0])
    assert seq.letters == (0, 2, 0)
    assert len(seq) == 3
    with pytest.raises(ValueError):
        PAscentSequence(1, (0, 2))
    with pytest.raises(ValueError):
        PAscentSequence(0, ())


def test_stats_examples():
    s = stats(PAscentSequence(1, (0, 0, 1, 0)))
    assert (s.run, s.zeros, s.ascents, s.descents, s.last) == (2, 3, 1, 1, 0)
    assert s.sum == 1 and s.max == 1 and not s.primitive and not s.up_down

    all_zero = stats(PAscentSequence(1, (0, 0, 0)))
    assert all_zero.run == 0 and all_zero.zeros == 3

    tiny = stats(PAscentSequence(1, (0, 1)))
    assert tiny.up_down and tiny.primitive

    empty = stats(PAscentSequence(3, ()))
    assert empty.length == 0
    assert empty.last is None and empty.max is None
    assert empty.run == 0 and empty.zeros == 0
    assert empty.up_down and empty.primitive


def test_stats_single_letter_up_down():
    assert stats(PAscentSequence(2, (0,))).up_down


@pytest.mark.parametrize("p", [1, 2, 3])
def test_stats_match_their_definitions(p):
    for n in range(8):
        for seq in enumerate_sequences(p, n):
            w = seq.letters
            pairs = list(zip(w, w[1:]))
            lead = next((i for i, c in enumerate(w) if c), 0)
            expected = (
                n, sum(a < b for a, b in pairs), sum(a > b for a, b in pairs), w.count(0),
                w[-1] if w else None, lead, max(w, default=None), sum(w),
                all(a != b for a, b in pairs),
                all((a < b) == (i % 2 == 0) and a != b for i, (a, b) in enumerate(pairs)),
            )
            s = stats(seq)
            assert (s.length, s.ascents, s.descents, s.zeros, s.last, s.run, s.max, s.sum,
                    s.primitive, s.up_down) == expected, w


def test_enumerate_basic():
    assert [s.letters for s in enumerate_sequences(1, 1)] == [(0,)]
    assert [s.letters for s in enumerate_sequences(1, 2)] == [(0, 0), (0, 1)]
    assert [s.letters for s in enumerate_sequences(2, 0)] == [()]


def test_enumerate_lexicographic():
    letters = [s.letters for s in enumerate_sequences(2, 3)]
    assert letters == sorted(letters)
    assert len(letters) == 11


def test_enumerate_run_one_prefix_filter():
    found = {
        s.letters
        for s in enumerate_sequences(2, 3, pred=lambda s: len(s) > 1 and s.letters[1] > 0)
    }
    assert found == {
        (0, 1, 0), (0, 1, 1), (0, 1, 2), (0, 1, 3),
        (0, 2, 0), (0, 2, 1), (0, 2, 2), (0, 2, 3),
    }


def test_enumerate_single_ascent_count():
    # one ascent and initial run of exactly one zero: the 19 witnesses of the
    # (10z + 6z^2 + 3z^3) u t^4 coefficient of the run-1 series for p = 3
    hits = list(
        enumerate_sequences(
            3, 4, pred=lambda s: stats(s).ascents == 1 and stats(s).run == 1
        )
    )
    assert len(hits) == 19
    listed = {
        (0, 1, 1, 1), (0, 1, 1, 0), (0, 1, 0, 0),
        (0, 2, 2, 2), (0, 2, 2, 1), (0, 2, 2, 0),
        (0, 2, 1, 1), (0, 2, 1, 0), (0, 2, 0, 0),
        (0, 3, 3, 3), (0, 3, 3, 2), (0, 3, 3, 1), (0, 3, 3, 0),
        (0, 3, 2, 2), (0, 3, 2, 1), (0, 3, 2, 0),
        (0, 3, 1, 1), (0, 3, 1, 0), (0, 3, 0, 0),
    }
    assert {s.letters for s in hits} == listed


def test_enumerate_prefix_walk():
    seqs = [s.letters for s in enumerate_sequences(1, 3, prefix=(0, 1))]
    assert seqs == [(0, 1, 0), (0, 1, 1), (0, 1, 2)]
    with pytest.raises(ValueError):
        list(enumerate_sequences(1, 3, prefix=(0, 5)))


def test_prefix_closure():
    for seq in enumerate_sequences(3, 5):
        for i in range(len(seq) + 1):
            assert is_p_ascent(seq.letters[:i], 3)


@pytest.mark.parametrize("p", [1, 2, 3])
def test_unvalidated_words_are_p_ascent(p):
    """enumerate_sequences, iter_avoiders and the bijection suite's buckets
    wrap the words that _grow builds without validating them again."""
    yielded = [s for n in range(7) for s in enumerate_sequences(p, n)]
    yielded += [s for n in range(7) for s in iter_avoiders(p, Pattern.parse("10-1"), n)]
    for seq in yielded:
        assert is_p_ascent(seq.letters, p)
        assert seq == PAscentSequence(p, seq.letters)
    for level in _avoiders_by_length(p, Pattern.parse("012"), 7):
        assert all(is_p_ascent(word, p) for word in level)


def test_monotone_in_p():
    for n in range(6):
        small = {s.letters for s in enumerate_sequences(2, n)}
        large = {s.letters for s in enumerate_sequences(3, n)}
        assert small <= large


def test_oracle_small_table():
    table = oracle_table(2, 2)
    assert table.terms() == {
        (0, 0, 0, 0, 0): 1,
        (1, 0, 0, 1, 0): 1,
        (2, 0, 0, 2, 0): 1,
        (2, 1, 1, 1, 1): 1,
        (2, 1, 2, 1, 1): 1,
    }


def test_oracle_specializations_match_printed_rows():
    table = oracle_table(2, 2).specialize({"u": 1, "v": 1, "x": 1})
    assert table.coefficient(2) == 2 * MultiPoly.variable("z") + MultiPoly.variable("z") ** 2

    table3 = oracle_table(3, 3, stat_selector=("zeros",))
    z = MultiPoly.variable("z")
    assert table3.coefficient(0) == MultiPoly.const(1)
    assert table3.coefficient(1) == z
    assert table3.coefficient(2) == 3 * z + z**2
    assert table3.coefficient(3) == 12 * z + 6 * z**2 + z**3


def test_oracle_nonnegative_and_ascent_bound():
    table = oracle_table(3, 6)
    for (n, eu, _ev, _ez, _ex), c in table.terms().items():
        assert c > 0
        assert n == 0 or eu <= n - 1


def test_oracle_p1_order_zero():
    assert oracle_table(1, 0).terms() == {(0, 0, 0, 0, 0): 1}


def test_oracle_counts_match_enumeration():
    for p in (1, 2, 3, 4):
        table = oracle_table(p, 6, stat_selector=())
        for n in range(7):
            count = sum(1 for _ in enumerate_sequences(p, n))
            assert table.coefficient(n) == MultiPoly.const(count)


def test_oracle_selector_validation():
    with pytest.raises(ValueError):
        oracle_table(2, 3, stat_selector=("ascents", "bogus"))


def test_count_by_length():
    assert count_by_length(1, 4) == [1, 1, 2, 5, 15]
    prim = count_by_length(2, 5, primitive_only=True)
    assert prim == [1, 1, 2, 6, 21, 87]
    capped = count_by_length(1, 3, max_repeat=2)
    assert capped[3] == 4  # every length-3 ascent sequence except 000


@pytest.mark.parametrize("p", [1, 2, 3, 4])
def test_oracle_table_equals_enumeration(p):
    # (length, ascents, last, zeros, run) of every sequence, from stats
    rows = [
        (n, s.ascents, s.last or 0, s.zeros, s.run)
        for n in range(7)
        for s in map(stats, enumerate_sequences(p, n))
    ]
    for size in range(len(STAT_NAMES) + 1):
        for selector in combinations(STAT_NAMES, size):
            brute = Counter(
                (n, *(v if name in selector else 0 for name, v in zip(STAT_NAMES, values)))
                for n, *values in rows
            )
            assert oracle_table(p, 6, selector).terms() == dict(brute), selector


@pytest.mark.parametrize("p", [1, 2, 3, 4])
def test_count_by_length_equals_enumeration(p):
    words = [[s.letters for s in enumerate_sequences(p, n)] for n in range(7)]
    assert count_by_length(p, 6) == [len(level) for level in words]
    assert count_by_length(p, 6, primitive_only=True) == [
        sum(1 for w in level if stats(PAscentSequence(p, w)).primitive) for level in words
    ]
    for k in (1, 2, 3):
        assert count_by_length(p, 6, max_repeat=k) == [
            sum(1 for w in level if all(len(list(block)) <= k for _, block in groupby(w)))
            for level in words
        ]
        if p <= 3:
            # the walk under the same bounded-run step lists what the DP counts
            walked = [0] * 9
            root, step = _bounded_runs(k)
            for word in _grow(p, 8, state=root, step=step):
                walked[len(word)] += 1
            assert walked == count_by_length(p, 8, max_repeat=k), k


def test_oracle_exponent_bound():
    # every selected statistic must fit the packed exponent fields
    with pytest.raises(ValueError, match="last"):
        oracle_table(300, 2, stat_selector=("last",))
    with pytest.raises(ValueError, match="last"):
        oracle_table(_MAX_EXP, 3, stat_selector=("last",))
    for name in ("ascents", "zeros", "run"):
        with pytest.raises(ValueError, match=name):
            oracle_table(2, _MAX_EXP + 2, stat_selector=(name,))
    # at the bound itself the table is exact: 0, c, 100 for c = 1..99 end in 100
    top = oracle_table(_MAX_EXP - 1, 3, stat_selector=("last",)).coefficient(3)
    assert top.terms()[(0, _MAX_EXP, 0, 0)] == _MAX_EXP - 1
    # a statistic left out of the selector is not bounded
    assert oracle_table(300, 2, stat_selector=("zeros",)).coefficient(2) == (
        300 * MultiPoly.variable("z") + MultiPoly.variable("z") ** 2
    )
