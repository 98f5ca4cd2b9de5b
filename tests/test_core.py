"""Sequence validation, statistics, enumeration, and the oracle table."""

import copy
import pickle
from collections import Counter
from dataclasses import FrozenInstanceError, asdict, fields, replace
from itertools import combinations, groupby
from operator import lt

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pascent.core import (
    STAT_NAMES,
    PAscentSequence,
    StatProfile,
    _bounded_runs,
    _count,
    _grow,
    _rule,
    _up_down,
    _words,
    asc,
    count_by_length,
    enumerate_sequences,
    is_p_ascent,
    oracle_table,
    stats,
)
from pascent.patterns import Pattern, _avoidance, _avoiders_by_length, iter_avoiders, occurs
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


def test_sequence_record():
    seq = PAscentSequence(2, [0, 2, 0])
    trusted = PAscentSequence._trusted(2, (0, 2, 0))
    assert seq == trusted and hash(seq) == hash(trusted)
    assert {seq: "found"}[trusted] == "found"
    assert seq != PAscentSequence(3, (0, 2, 0))
    assert seq != PAscentSequence(2, (0, 2))
    assert seq != (0, 2, 0)
    assert repr(trusted) == "PAscentSequence(p=2, letters=(0, 2, 0))"
    assert str(trusted) == "0,2,0" and list(trusted) == [0, 2, 0]
    assert not hasattr(seq, "__dict__")
    for name, value in (("p", 3), ("letters", (0,))):
        with pytest.raises(FrozenInstanceError):
            setattr(trusted, name, value)
    # a name that is no field is refused too, and so is every deletion
    with pytest.raises(FrozenInstanceError):
        trusted.other = 1
    for name in ("p", "letters", "other"):
        with pytest.raises(FrozenInstanceError):
            delattr(trusted, name)
    assert trusted == seq
    assert replace(trusted, p=3) == PAscentSequence(3, (0, 2, 0))
    with pytest.raises(ValueError):
        replace(trusted, p=1)
    with pytest.raises(ValueError):
        replace(trusted, letters=[1])
    for twin in (pickle.loads(pickle.dumps(trusted)), copy.deepcopy(trusted), copy.copy(trusted)):
        assert type(twin) is PAscentSequence and twin == seq
        assert (twin.p, twin.letters) == (2, (0, 2, 0))


@pytest.mark.parametrize("p", [1, 2, 3])
def test_trusted_equals_the_validating_constructor(p):
    for w in _grow(p, 5):
        trusted, built = PAscentSequence._trusted(p, w), PAscentSequence(p, w)
        assert trusted == built and hash(trusted) == hash(built)
        assert repr(trusted) == repr(built)


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
            s, built = stats(seq), StatProfile(*expected)
            assert s == built and hash(s) == hash(built), w
            assert repr(s) == repr(built)
            assert asdict(s) == dict(zip((f.name for f in fields(StatProfile)), expected))


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
        for s in filter(lambda s: len(s) > 1 and s.letters[1] > 0, enumerate_sequences(2, 3))
    }
    assert found == {
        (0, 1, 0), (0, 1, 1), (0, 1, 2), (0, 1, 3),
        (0, 2, 0), (0, 2, 1), (0, 2, 2), (0, 2, 3),
    }


def test_enumerate_single_ascent_count():
    # one ascent and initial run of exactly one zero: the 19 witnesses of the
    # (10z + 6z^2 + 3z^3) u t^4 coefficient of the run-1 series for p = 3
    hits = list(
        filter(lambda s: stats(s).ascents == 1 and stats(s).run == 1, enumerate_sequences(3, 4))
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


@settings(max_examples=300, deadline=None, derandomize=True)
@given(
    p=st.integers(1, 3),
    n=st.integers(0, 6),
    text=st.sampled_from([None, "00", "10", "012", "10-1", "[010]", "0102"]),
    max_run=st.sampled_from([None, 1, 2]),
    up_down=st.booleans(),
)
def test_one_rule_counts_what_it_lists(p, n, text, max_run, up_down):
    """Every mix of a pattern, a run bound and the up-down rule that _rule
    composes: _count counts the words _words lists, and they are the p-ascent
    words that avoid the pattern, have no block longer than max_run and are
    up-down where asked, in enumeration order."""
    pat = None if text is None else Pattern.parse(text)
    rule = _rule(*(() if pat is None else _avoidance(pat)), max_run=max_run, up_down=up_down)
    words = list(_words(p, n, (), *rule))
    assert _count(p, n, *rule)[n] == len(words)
    assert words == [
        s.letters for s in enumerate_sequences(p, n)
        if (pat is None or not occurs(pat, s.letters))
        and (max_run is None or all(len(list(b)) <= max_run for _, b in groupby(s.letters)))
        and (not up_down or stats(s).up_down)
    ]


def _pre_order(p, n_max, word, state, step):
    """The reference walk: word, then the subtree of each kept child in
    ascending letter, written recursively and apart from _grow."""
    if len(word) > n_max:
        return
    yield word
    if len(word) == n_max:
        return
    top = p + sum(map(lt, word, word[1:])) if word else 0
    for c in range(top + 1):
        child = step(state, c) if step else state
        if child is not None:
            yield from _pre_order(p, n_max, word + (c,), child, step)


GROW_RULES = {
    "none": ((), None),
    "primitive": _bounded_runs(1),
    "up_down": _up_down(),
    "10-1": _avoidance(Pattern.parse("10-1")),
}


@pytest.mark.parametrize("rule", GROW_RULES)
@pytest.mark.parametrize("p", [1, 2, 3, 4])
def test_grow_is_the_recursive_pre_order(p, rule):
    """_grow yields its leaves from their parent, not from its stack; the
    order stays the pre-order of the recursive walk, from the empty word, the
    embed prefix and a word longer than n_max (which yields nothing)."""
    state, step = GROW_RULES[rule]
    for n_max in range(8):
        for word in ((), (0, 1) * (p - 1) + (0,), (0,) * (n_max + 1)):
            expected = list(_pre_order(p, n_max, word, state, step))
            assert list(_grow(p, n_max, word, state, step)) == expected, (n_max, word)


@pytest.mark.parametrize("rule", GROW_RULES)
def test_grow_reaches_every_letter_at_a_large_p(rule):
    """At p = 600 the words of length 2 end in every letter 0..600 that the
    rule keeps: nothing of a fixed size bounds the leaves' letters."""
    state, step = GROW_RULES[rule]
    expected = list(_pre_order(600, 2, (), state, step))
    assert list(_grow(600, 2, (), state, step)) == expected
    assert len(expected) == 3 + (600 if rule in ("none", "10-1") else 599)


def test_oracle_exponent_bound():
    # every selected statistic must fit the packed exponent fields
    with pytest.raises(ValueError, match="last"):
        oracle_table(300, 2, stat_selector=("last",))
    with pytest.raises(ValueError, match="last"):
        oracle_table(_MAX_EXP, 3, stat_selector=("last",))
    for name in ("ascents", "zeros", "run"):
        with pytest.raises(ValueError, match=name):
            oracle_table(2, _MAX_EXP + 2, stat_selector=(name,))
    # at the bound itself the table is exact: 0, c, 127 for c = 1..126 end in 127
    top = oracle_table(_MAX_EXP - 1, 3, stat_selector=("last",)).coefficient(3)
    assert top.terms()[(0, _MAX_EXP, 0, 0)] == _MAX_EXP - 1
    # a statistic left out of the selector is not bounded
    assert oracle_table(300, 2, stat_selector=("zeros",)).coefficient(2) == (
        300 * MultiPoly.variable("z") + MultiPoly.variable("z") ** 2
    )
