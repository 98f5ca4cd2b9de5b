"""Reduction, occurrence, avoidance counts, closed forms, and bijections."""

from fractions import Fraction
from itertools import accumulate, combinations, groupby, product
from math import comb

import pytest

import golden_data as gold
from pascent import patterns, verify
from pascent.core import (
    BudgetExceededError,
    PAscentSequence,
    _grow,
    _rule,
    enumerate_sequences,
    is_p_ascent,
)
from pascent.patterns import (
    NoClosedFormError,
    Pattern,
    _avoidance,
    avoider_counts,
    bijection_012_to_10,
    bijection_10_to_012,
    closed_count,
    count_avoiders,
    count_vincular_212_ternary,
    embed,
    gf_avoiders,
    iter_avoiders,
    occurs,
    project,
    red,
)
from pascent.series import scalar_coefficients

P01 = Pattern.parse("01")
P10 = Pattern.parse("10")
P00 = Pattern.parse("00")
P012 = Pattern.parse("012")
P212 = Pattern.parse("21-2")


def test_red():
    assert red((2, 3, 8, 5, 4, 3, 6, 2, 3)) == (0, 1, 5, 3, 2, 1, 4, 0, 1)
    assert red((0, 0, 0)) == (0, 0, 0)
    assert red((7,)) == (0,)
    assert red(()) == ()


def test_pattern_parse():
    assert P012.letters == (0, 1, 2) and P012.is_classical
    assert P212.letters == (1, 0, 1)
    assert P212.groups == ((0, 1), (2,))
    assert str(P212) == "10-1"
    assert str(Pattern.parse("00")) == "00"
    for bad in ("", "1-", "-1", "2--1", "ab", "[]", "[0]", "[0-1]", "[01", "01]", "[[01]]"):
        with pytest.raises(ValueError):
            Pattern.parse(bad)


def test_pattern_invariants():
    with pytest.raises(ValueError):
        Pattern((1, 2), ((0,), (1,)))           # not reduced
    with pytest.raises(ValueError):
        Pattern((0, 1), ((1,), (0,)))           # groups out of order


def test_pattern_refuses_an_empty_block():
    """An empty block would print as 0--1, which parse refuses, and would
    make occurs index past the pattern."""
    with pytest.raises(ValueError, match="nonempty"):
        Pattern((0, 1), ((0,), (), (1,)))


def test_pattern_refuses_a_letter_above_9():
    # str writes one digit per letter, so 10 would print as the letters 1, 0
    with pytest.raises(ValueError, match="at most 9"):
        Pattern.classical(range(11))
    ten = Pattern.classical(range(10))
    assert Pattern.parse(str(ten)) == ten


def test_occurs_classical():
    assert occurs(P012, (0, 1, 0, 2))
    assert not occurs(P012, (0, 2, 0, 2))
    assert occurs(P00, (0, 1, 2, 0))
    assert not occurs(P00, (0, 1, 2))
    assert occurs(P10, (0, 1, 0))
    assert not occurs(P10, (0, 0, 1))


def test_occurs_vincular():
    # 21-2 needs an adjacent descent whose top value recurs strictly later
    assert occurs(P212, (2, 1, 2))
    assert occurs(P212, (2, 1, 0, 2))
    assert occurs(P212, (2, 0, 1, 2))
    assert occurs(P212, (3, 1, 3))
    assert occurs(P212, (0, 2, 1, 0, 2))
    assert not occurs(P212, (2, 1, 1))      # top value never recurs
    assert not occurs(P212, (2, 2, 1))
    assert not occurs(P212, (1, 2, 0, 1))   # the only descent (2,0) never returns to 2


def test_vincular_adjacency_is_enforced():
    # classical 101 occurs (positions 1, 3, 5) but no descent is adjacent
    host = (1, 2, 0, 3, 1)
    assert occurs(Pattern.classical((1, 0, 1)), host)
    assert not occurs(P212, host)


def _block_partitions(k):
    """Every way to cut positions 0..k-1 into runs of consecutive positions."""
    for cuts in product((False, True), repeat=k - 1):
        ends = [0, *(i for i, cut in enumerate(cuts, 1) if cut), k]
        yield tuple(tuple(range(a, b)) for a, b in zip(ends, ends[1:]))


def test_occurs_matches_the_definition():
    """occurs holds iff some positions, each block of them consecutive, have
    values that reduce to the pattern; every pattern of up to three letters
    with every block partition, against every ternary word up to length 5."""
    pats = [Pattern(letters, groups) for k in (1, 2, 3)
            for letters in sorted({red(w) for w in product(range(k), repeat=k)})
            for groups in _block_partitions(k)]
    words = [w for n in range(6) for w in product(range(3), repeat=n)]
    assert (len(pats), len(words)) == (59, 364)
    for pat in pats:
        for w in words:
            defined = any(
                red([w[i] for i in pos]) == pat.letters
                and all(pos[j + 1] == pos[j] + 1 for g in pat.groups for j in g[:-1])
                for pos in combinations(range(len(w)), len(pat.letters)))
            assert occurs(pat, w) == defined, (str(pat), w)


def test_avoid_00_means_all_distinct():
    for n in range(6):
        for seq in enumerate_sequences(3, n):
            w = seq.letters
            assert (not occurs(P00, w)) == (len(set(w)) == len(w))


@pytest.mark.parametrize(
    "p,pat,row",
    [
        (2, P012, gold.AVOID_2_012),
        (3, P012, gold.AVOID_3_012),
        (2, P10, gold.AVOID_2_10),
        (4, P00, gold.AVOID_4_00),
    ],
)
def test_printed_avoider_rows(p, pat, row):
    counts = avoider_counts(p, pat, len(row))
    assert counts[1:] == row


def test_printed_avoiders_3_00_bruteforce_range():
    assert avoider_counts(3, P00, 10)[1:] == gold.AVOID_3_00[:10]


# 021 and 201 bound their last letter from below and above (the two-sided
# stage of patterns._stage)
AUTOMATON_PATTERNS = (
    "01", "10", "00", "012", "021", "201", "10-1", "21-2",
    "0102", "101", "001", "0-10", "01-0", "12-0", "0-0", "0",
)


@pytest.mark.parametrize("p", [1, 2, 3, 4])
def test_pruned_avoiders_match_unpruned_occurs(p):
    # the automaton carries occurrences from word to word; the full
    # occurrence test over every word must select the same words, in order
    words = [[s.letters for s in enumerate_sequences(p, n)] for n in range(7)]
    for text in AUTOMATON_PATTERNS:
        pat = Pattern.parse(text)
        avoiders = [[w for w in level if not occurs(pat, w)] for level in words]
        for primitive_only in (False, True):
            expected = [
                [w for w in level
                 if not (primitive_only and any(a == b for a, b in zip(w, w[1:])))]
                for level in avoiders
            ]
            assert avoider_counts(p, pat, 6, primitive_only) == [len(e) for e in expected]
            for n, level in enumerate(expected):
                listed = [s.letters for s in iter_avoiders(p, pat, n, primitive_only)]
                assert listed == level, (text, primitive_only, n)


@pytest.mark.parametrize("p", [1, 2])
def test_avoider_dp_matches_state_carrying_walk(p):
    # the level DP merges words by state; the walk lists every word
    for text in AUTOMATON_PATTERNS:
        pat = Pattern.parse(text)
        for primitive_only in (False, True):
            walked = [0] * 10
            root, step = _rule(*_avoidance(pat), max_run=1 if primitive_only else None)
            for word in _grow(p, 9, state=root, step=step):
                walked[len(word)] += 1
            assert avoider_counts(p, pat, 9, primitive_only) == walked, (text, primitive_only)


def test_avoider_counts_over_state_budget(monkeypatch):
    # a four-letter pattern merges few words, so its levels grow fast; the
    # count raises once a level passes the state budget instead of growing on
    pat = Pattern.parse("0102")
    small = avoider_counts(3, pat, 7)
    deep_012 = avoider_counts(5, P012, 16)   # at most 466 states per level
    monkeypatch.setattr(patterns, "_MAX_STATES", 500)
    with pytest.raises(BudgetExceededError, match="length 6 .* state budget of 500"):
        avoider_counts(3, pat, 9)
    with pytest.raises(BudgetExceededError):
        count_avoiders(3, pat, 9, primitive_only=True)
    assert avoider_counts(3, pat, 5) == small[:6]
    assert avoider_counts(5, P012, 16) == deep_012
    # the walk's memory is bounded by its depth, so it has no state budget
    assert sum(1 for _ in iter_avoiders(3, pat, 7)) == small[7]


def test_avoid_01_is_all_zero_words():
    for p in (1, 2, 4):
        assert avoider_counts(p, P01, 6) == [1] * 7
        assert avoider_counts(p, P01, 6, primitive_only=True) == [1, 1, 0, 0, 0, 0, 0]


def test_count_avoiders_single_value():
    assert count_avoiders(4, P00, 8) == 3794
    assert count_avoiders(2, P10, 3) == 8
    assert count_avoiders(2, P012, 0) == 1


def test_closed_count_examples():
    assert closed_count(2, P00, 5) == 11
    assert closed_count(2, P00, 5) == count_avoiders(2, P00, 5)
    assert closed_count(3, P012, 4) == 38
    assert closed_count(2, P10, 3) == 8
    assert [closed_count(4, P012, n) for n in range(1, 11)] == gold.AVOID_4_012


def _ten_sum(p, n):
    return sum(comb(n - 1, s) * comb(p + s - 1, s) for s in range(n))


def _ten_primitive(p, n):
    return comb(p + n - 2, n - 1)


def _zero_zero(p, n):
    if p == 2:
        return 1 + comb(n, 2)
    return comb(n + 1, 2) + 2 * comb(n, 3) + comb(n - 1, 4) + comb(n + 2, 5)


def _paper_012(p, n):
    """(n+1) 2^(n-2), (n^2+5n+2) 2^(n-4) and (n^3+12n^2+29n+6) 2^(n-5) / 3."""
    if p == 2:
        return Fraction((n + 1) * 2**n, 2**2)
    if p == 3:
        return Fraction((n * n + 5 * n + 2) * 2**n, 2**4)
    return Fraction((n**3 + 12 * n**2 + 29 * n + 6) * 2**n, 2**5 * 3)


# The paper's counts at length n >= 1, as written there, with the ps they
# hold at: 10's binomial sums, the 012 polynomials at p = 2, 3, 4 and 00's
# binomials.  The 10- and 012-avoiders are equinumerous at every p, plain
# and primitive, so 012 takes 10's sums too.
PAPER_COUNTS = [
    pytest.param(P10, False, range(1, 9), _ten_sum, id="10"),
    pytest.param(P10, True, range(1, 9), _ten_primitive, id="10-primitive"),
    pytest.param(P012, False, range(1, 9), _ten_sum, id="012"),
    pytest.param(P012, True, range(1, 9), _ten_primitive, id="012-primitive"),
    pytest.param(P012, False, (2, 3, 4), _paper_012, id="012-polynomials"),
    pytest.param(P00, False, (2, 3), _zero_zero, id="00"),
    pytest.param(P00, True, (2, 3), _zero_zero, id="00-primitive"),
]


@pytest.mark.parametrize("pat, prim, ps, count", PAPER_COUNTS)
def test_closed_forms_match_the_paper(pat, prim, ps, count):
    """The table's coefficients are the paper's counts for n <= 60, and 1 at
    n = 0 for the empty sequence; closed_count reads the same column."""
    for p in ps:
        column = scalar_coefficients(gf_avoiders(p, pat, 60, primitive_only=prim))
        assert column == [1] + [count(p, n) for n in range(1, 61)], (p, prim)
        assert closed_count(p, pat, 60, primitive_only=prim) == column[60]


@pytest.mark.parametrize("text, prim", list(patterns._CLOSED_FORMS),
                         ids=[f"{text}-{prim}" for text, prim in patterns._CLOSED_FORMS])
def test_every_closed_form_matches_brute_force(text, prim):
    """Each table entry, at every p of its domain up to 6, against the
    avoidance automaton's counts up to length 10."""
    pat = Pattern.parse(text)
    ps, _ = patterns._CLOSED_FORMS[text, prim]
    for p in (p for p in range(1, 7) if ps is None or p in ps):
        assert patterns._closed_counts(p, pat, 10, prim) == avoider_counts(p, pat, 10, prim), p


def test_closed_count_unsupported():
    """00 past p = 2, 3, classical 001 and every vincular pattern stay refused;
    primitive 012 has 10's count at every p, from 1 + t/(1-t)^p."""
    for p, pat in ((4, P00), (2, Pattern.parse("001")), (2, Pattern.parse("0-12"))):
        with pytest.raises(NoClosedFormError, match=rf"^no closed form for pattern {pat} with p={p}$"):
            closed_count(p, pat, 5)
    assert [closed_count(2, P012, n, primitive_only=True) for n in range(6)] == [1, 1, 2, 3, 4, 5]


def test_gf_avoiders_10():
    got = scalar_coefficients(gf_avoiders(2, P10, 7))
    assert got == [1] + gold.AVOID_2_10
    prim = gf_avoiders(3, P10, 6, primitive_only=True)
    assert scalar_coefficients(prim)[4] == 10


def test_gf_avoiders_00_p3():
    got = scalar_coefficients(gf_avoiders(3, P00, 12))
    assert got[1:] == gold.AVOID_3_00


def test_gf_avoiders_01():
    assert scalar_coefficients(gf_avoiders(2, P01, 5)) == [1] * 6
    assert scalar_coefficients(gf_avoiders(2, P01, 5, primitive_only=True)) == [1, 1, 0, 0, 0, 0]


def test_gf_avoiders_unsupported():
    """00 past p = 2, 3, classical 001 and every vincular pattern stay refused;
    00 at p = 2 is (1 - 2t + 2t^2)/(1 - t)^3 and primitive 012 is 1 + t/(1-t)^p."""
    for p, pat in ((4, P00), (2, Pattern.parse("001")), (2, Pattern.parse("0-12"))):
        with pytest.raises(NoClosedFormError, match=rf"^no closed form for pattern {pat} with p={p}$"):
            gf_avoiders(p, pat, 5)
    for prim in (False, True):
        assert scalar_coefficients(gf_avoiders(2, P00, 5, prim)) == [1, 1, 2, 4, 7, 11]
    assert scalar_coefficients(gf_avoiders(3, P012, 5, primitive_only=True)) == [1, 1, 3, 6, 10, 15]


CONSECUTIVE_00 = Pattern((0, 0), ((0, 1),))


@pytest.mark.parametrize("pat", [
    CONSECUTIVE_00,
    Pattern((0, 1), ((0, 1),)),
    Pattern((1, 0), ((0, 1),)),
    Pattern((0, 1, 2), ((0, 1, 2),)),
    Pattern.parse("0-12"),
], ids=["consecutive-00", "consecutive-01", "consecutive-10", "consecutive-012", "0-12"])
def test_closed_forms_refuse_vincular_patterns(pat):
    with pytest.raises(NoClosedFormError):
        closed_count(3, pat, 3)
    with pytest.raises(NoClosedFormError):
        gf_avoiders(3, pat, 3)


def test_one_block_vincular_pattern_prints_in_brackets():
    assert str(CONSECUTIVE_00) == "[00]"
    assert str(Pattern((0, 1, 2), ((0, 1, 2),))) == "[012]"
    assert Pattern.parse("[21]") == Pattern((1, 0), ((0, 1),))    # reduced, like 21
    with pytest.raises(NoClosedFormError, match=r"pattern \[00\] with p=3"):
        closed_count(3, CONSECUTIVE_00, 3)
    # every classical or hyphenated text of up to four letters prints as typed,
    # except that a hyphen between every two letters is the classical pattern
    for n in range(1, 5):
        for letters in product(range(n), repeat=n):
            if red(letters) != letters:
                continue
            digits = "".join(map(str, letters))
            for cuts in product(("", "-"), repeat=n - 1):
                text = digits[0] + "".join(map("".join, zip(cuts, digits[1:])))
                assert str(Pattern.parse(text)) == (digits if all(cuts) else text)


@pytest.mark.parametrize("text", AUTOMATON_PATTERNS + ("[00]", "[010]"))
def test_parse_reads_what_str_prints(text):
    pat = Pattern.parse(text)
    assert Pattern.parse(str(pat)) == pat
    if text.startswith("["):
        assert len(pat.groups) == 1 and not pat.is_classical


def test_consecutive_00_is_not_classical_00():
    # they print differently, and their avoiders differ from length 3 on
    assert (str(CONSECUTIVE_00), str(P00)) == ("[00]", "00")
    assert avoider_counts(3, CONSECUTIVE_00, 6) == [1, 1, 3, 12, 54, 276, 1574]
    assert avoider_counts(3, P00, 6) == [1, 1, 3, 9, 24, 57, 122]


def test_repetition_refinement_identity():
    for p in (1, 2, 3, 4):
        brute = avoider_counts(p, P10, 10)
        for n in range(1, 11):
            total = sum(
                comb(n - 1, s - 1) * closed_count(p, P10, s, primitive_only=True)
                for s in range(1, n + 1)
            )
            assert total == brute[n]


def test_embed_project():
    assert embed(PAscentSequence(2, (0, 2, 0))).letters == (0, 1, 0, 2, 0)
    assert embed(PAscentSequence(1, (0, 1, 1))).letters == (0, 1, 1)
    assert embed(PAscentSequence(3, ())).letters == ()
    assert project(PAscentSequence(1, ()), 3).letters == ()
    seq = PAscentSequence(3, (0, 3, 1))
    assert project(embed(seq), 3) == seq
    with pytest.raises(ValueError):
        project(PAscentSequence(1, (0, 0, 1)), 2)   # prefix is 00, not 01
    with pytest.raises(ValueError):
        project(PAscentSequence(2, (0, 1, 0)), 2)   # input must have p = 1


@pytest.mark.parametrize("p", [1, 2, 3, 4])
def test_project_images_are_p_ascent(p):
    """project builds its image unvalidated; each one is p-ascent and equals
    the validated sequence of its letters (bodies of length up to 6)."""
    cut = 2 * p - 2
    words = [()] + list(_grow(1, cut + 6, (0, 1) * (p - 1) + (0,)))
    for letters in words:
        image = project(PAscentSequence._trusted(1, letters), p)
        assert is_p_ascent(image.letters, p)
        assert image == PAscentSequence(p, image.letters)


def test_embed_validity_equivalence_small():
    for p in (2, 3):
        for n in range(6):
            ours = {s.letters for s in enumerate_sequences(p, n)}
            for seq in ours:
                assert is_p_ascent((0, 1) * (p - 1) + seq, 1)
            prefix = (0, 1) * (p - 1) + (0,)
            if n >= 1:
                images = {
                    s.letters[2 * p - 2 :]
                    for s in enumerate_sequences(1, n + 2 * p - 2, prefix=prefix)
                }
                assert images == ours


def test_bijection_examples():
    assert bijection_10_to_012(PAscentSequence(2, (0, 1, 1, 2))).letters == (0, 2, 0, 2)
    assert bijection_10_to_012(PAscentSequence(2, (0,))).letters == (0,)
    assert bijection_10_to_012(PAscentSequence(2, ())).letters == ()
    assert bijection_10_to_012(PAscentSequence(2, (0, 2, 3))).letters == (0, 1, 1)
    assert bijection_012_to_10(PAscentSequence(2, (0, 1))).letters == (0, 2)


def test_bijection_rejects_bad_input():
    with pytest.raises(ValueError):
        bijection_10_to_012(PAscentSequence(2, (0, 1, 0)))   # contains 10
    with pytest.raises(ValueError):
        bijection_012_to_10(PAscentSequence(2, (0, 1, 2)))   # contains 012


def test_bijection_rejects_bad_input_at_p_3():
    with pytest.raises(ValueError, match="contains the pattern 10"):
        bijection_10_to_012(PAscentSequence(3, (0, 2, 1)))
    with pytest.raises(ValueError, match="has a letter above 3, so it contains 012"):
        bijection_012_to_10(PAscentSequence(3, (0, 1, 4)))
    with pytest.raises(ValueError, match="has a rise among its nonzero letters"):
        bijection_012_to_10(PAscentSequence(3, (0, 1, 2)))


def test_bijection_is_bijection_small():
    """The bijection suite's check at p = 1..5: the maps invert each other,
    the images of the 10-avoiders are exactly the 012-avoiders, and the
    counts equal closed_count's, up to length 9 (8 at p = 5)."""
    for p in range(1, 6):
        assert verify._check_bijection(p, 9 if p < 5 else 8) is None, p


def _blocks_10_to_012(letters, p):
    """The 10 -> 012 map block by block: block i of value v becomes the
    marker p - (v - i) (block 0: its first 0) and one 0 per further letter."""
    image = []
    for i, (value, run) in enumerate(groupby(letters)):
        image += [p - (value - i) if i else 0] + [0] * (len(list(run)) - 1)
    return tuple(image)


def _blocks_012_to_10(letters, p):
    """The 012 -> 10 map: a letter after the i-th marker becomes i + p - marker."""
    markers = [p] + [c for c in letters if c]
    return tuple(i + p - markers[i] for i in accumulate(map(bool, letters)))


@pytest.mark.parametrize("p", [1, 2, 3, 4, 5])
def test_bijections_match_the_block_walk(p):
    """Both maps give the block walk's image on every 10- and 012-avoider of
    length up to 8, the empty word among them."""
    for pat, bijection, reference in ((P10, bijection_10_to_012, _blocks_10_to_012),
                                      (P012, bijection_012_to_10, _blocks_012_to_10)):
        levels = patterns._avoiders_by_length(p, pat, 8)
        assert levels[0] == [()]
        for level in levels:
            for letters in level:
                image = bijection(PAscentSequence(p, letters))
                assert image.letters == reference(letters, p), (pat, letters)


@pytest.mark.parametrize("p", [1, 2, 3, 4, 5])
def test_bijection_images_are_p_ascent(p):
    """Both maps build their images unvalidated; each one is p-ascent and
    equals the validated sequence of its letters, up to length 9 (8 at p = 5)."""
    for n in range(10 if p < 5 else 9):
        for source, bijection in ((P10, bijection_10_to_012), (P012, bijection_012_to_10)):
            for seq in iter_avoiders(p, source, n):
                image = bijection(seq)
                assert is_p_ascent(image.letters, p)
                assert image == PAscentSequence(p, image.letters)


def test_vincular_counts():
    assert count_vincular_212_ternary(1) == 1
    assert count_vincular_212_ternary(2) == 3
    assert count_vincular_212_ternary(5) == 57
    for n in range(1, 8):
        assert count_vincular_212_ternary(n) == count_avoiders(3, P00, n)


def test_vincular_fast_check_matches_generic_occurs():
    from itertools import product

    for length in range(6):
        expected = sum(
            1 for w in product((1, 2, 3), repeat=length) if not occurs(P212, w)
        )
        assert count_vincular_212_ternary(length + 1) == expected
