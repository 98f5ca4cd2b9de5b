"""Pattern occurrence and avoidance in p-ascent sequences.

Covers word reduction, classical and vincular occurrence testing, avoider
counts and lists (the oracle), the known closed forms for the short
patterns, the embedding of p-ascent sequences into ordinary ascent
sequences, and the block-rewriting bijection between 10-avoiding and
012-avoiding p-ascent sequences, for every p.

Every closed form is rational in t, so all of them are one table,
_CLOSED_FORMS, of numerator and denominator lists of ints, and one reader,
_closed_counts, runs the denominator's recurrence: closed_count is one of its
coefficients, gf_avoiders all of them as a series, and the CLI and the
pattern-family suites read one column per call.  012 takes 10's forms,
plain and primitive, as the two families are equinumerous.

Avoiders come from one automaton over the generating tree (_avoidance).  For
a pattern of length k its state holds, for each j < k, the value tuples of
the word that reduce to the pattern's first j letters (for a vincular block,
only those ending at the last letter), so appending a letter updates the
state instead of searching the word again.  The primitive rule wraps it
through core._rule, the one word rule of core and the CLI.  core._count
merges words of equal (ascents, last letter, state) level by level and counts
them: avoider_counts, count_avoiders and every pattern suite's brute column;
a level of more than _MAX_STATES keys raises BudgetExceededError.
core._words carries the state from word to word and lists them:
iter_avoiders (the bijection suite lists every length at once, through
core._grow).  occurs places the pattern in a whole word letter by letter,
sharing no code with the automaton: the ground truth tests compare both with.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import accumulate, pairwise, product
from math import comb
from operator import gt, lt, mul
from typing import Iterator, Sequence

from .core import PAscentSequence, _check_p, _count, _grow, _rule, _words
from .series import TSeries, _check_at_least, _from_scalars


class NoClosedFormError(ValueError):
    """Raised when no closed form is implemented for a (p, pattern) pair."""


# ceiling on the (ascents, last letter, state) keys of one level of
# avoider_counts; a key of a four-letter pattern holds about 1-3 KB
_MAX_STATES = 50_000


def red(word: Sequence[int]) -> tuple[int, ...]:
    """Replace the i-th smallest distinct value by i-1, keeping order and multiplicity."""
    w = tuple(word)
    rank = {value: i for i, value in enumerate(sorted(set(w)))}
    return tuple(rank[c] for c in w)


@dataclass(frozen=True)
class Pattern:
    """A reduced word to search for, with optional adjacency blocks.

    groups partitions the pattern positions into maximal blocks that must
    occupy consecutive positions in the host word (vincular notation writes
    a hyphen between blocks).  A classical pattern has every block of size 1.
    """

    letters: tuple[int, ...]
    groups: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        if not self.letters:
            raise ValueError("pattern must be nonempty")
        if red(self.letters) != self.letters:
            raise ValueError(f"pattern letters must be reduced: {self.letters}")
        if max(self.letters) > 9:
            raise ValueError(f"pattern letters must be at most 9, one digit each: {self.letters}")
        flat = [i for g in self.groups for i in g]
        if flat != list(range(len(self.letters))):
            raise ValueError("groups must partition the pattern positions in order")
        if not all(self.groups):
            raise ValueError("each group must be nonempty")

    @classmethod
    def classical(cls, letters: Sequence[int]) -> "Pattern":
        letters = tuple(letters)
        return cls(letters, tuple((i,) for i in range(len(letters))))

    @classmethod
    def parse(cls, text: str) -> "Pattern":
        """Parse CLI pattern syntax: digits for letters, hyphen between adjacency
        blocks, and a bracketed run of two or more digits ([00]) for one block."""
        if len(text) > 3 and text[0] + text[-1] == "[]" and text[1:-1].isdigit():
            letters = red([int(ch) for ch in text[1:-1]])
            return cls(letters, (tuple(range(len(letters))),))
        if not text or text.startswith("-") or text.endswith("-") or "--" in text:
            raise ValueError(f"malformed pattern {text!r}")
        chunks = text.split("-")
        if any(not chunk.isdigit() for chunk in chunks):
            raise ValueError(f"pattern may contain only digits and hyphens: {text!r}")
        letters = red([int(ch) for chunk in chunks for ch in chunk])
        if len(chunks) == 1:
            # no hyphen means classical: no adjacency constraints at all
            return cls.classical(letters)
        ends = list(accumulate(map(len, chunks), initial=0))
        return cls(letters, tuple(tuple(range(a, b)) for a, b in pairwise(ends)))

    @property
    def is_classical(self) -> bool:
        return all(len(g) == 1 for g in self.groups)

    def __str__(self) -> str:
        """Pattern.parse syntax; one block of two or more letters prints in
        brackets ([00]), since without hyphens it would read as classical."""
        if self.is_classical:
            return "".join(map(str, self.letters))
        text = "-".join("".join(str(self.letters[i]) for i in g) for g in self.groups)
        return f"[{text}]" if len(self.groups) == 1 else text


def occurs(pat: Pattern, word: Sequence[int]) -> bool:
    """True iff some subsequence, respecting the adjacency blocks, reduces to the pattern.

    Places the pattern letter by letter, each only where it compares (<, =, >)
    with every letter already placed as it does in the pattern.  A block's first
    letter takes any later position that leaves room, its other letters the next."""
    w, letters, k = tuple(word), pat.letters, len(pat.letters)
    starts = {g[0] for g in pat.groups}

    def place(j: int, lo: int, picked: tuple[int, ...]) -> bool:
        if j == k:
            return True
        c = letters[j]
        for i in range(lo, len(w) - k + j + 1) if j in starts else (lo,):
            if all((w[i] < w[h]) == (c < letters[m]) and (w[i] == w[h]) == (c == letters[m])
                   for m, h in enumerate(picked)) and place(j + 1, i + 1, picked + (i,)):
                return True
        return False

    return place(0, 0, ())


_EMPTY: frozenset = frozenset()


def _stage(letters: tuple[int, ...], j: int) -> tuple[int | None, int | None, int | None]:
    """Where to compare a letter c that would take pattern position j.

    A tuple of values that reduces to letters[:j] is ordered like it, so c
    fits after it when c equals the value at the returned eq index, or else
    lies above the value at lo and below the value at hi (None: no bound).
    """
    y = letters[j]
    eq = next((i for i in range(j) if letters[i] == y), None)
    below = [i for i in range(j) if letters[i] < y]
    above = [i for i in range(j) if letters[i] > y]
    lo = max(below, key=letters.__getitem__) if below else None
    hi = min(above, key=letters.__getitem__) if above else None
    return eq, lo, hi


def _avoidance(pat: Pattern):
    """The empty word's state and the step of the avoidance automaton.

    The state holds, for each j = 1..k-1, the set of value tuples of the
    word that reduce to the pattern's first j letters; when pattern position
    j must sit next to position j-1, only the tuples ending at the word's
    last letter.  step(state, c) extends each set by c wherever c's order
    relation to every value of the tuple matches the pattern, and returns
    None when some tuple extends to a full occurrence.  Any further filter
    (the primitive rule, the up-down rule) wraps it through core._rule.
    """
    adjacent = {g[i] for g in pat.groups for i in range(1, len(g))}
    stages = [(j in adjacent, *_stage(pat.letters, j)) for j in range(1, len(pat.letters))]

    def step(state, c):
        grown = [(c,)]   # c alone, then the tuples of each set extended by c
        out = []
        for (replace, eq, lo, hi), old in zip(stages, state):
            if replace:
                out.append(frozenset(grown) if grown else _EMPTY)
            else:
                out.append(old.union(grown) if grown else old)
            if eq is not None:
                grown = [t + (c,) for t in old if t[eq] == c]
            elif hi is None:
                grown = [t + (c,) for t in old if t[lo] < c]
            elif lo is None:
                grown = [t + (c,) for t in old if c < t[hi]]
            else:
                grown = [t + (c,) for t in old if t[lo] < c < t[hi]]
        if grown:
            return None
        return tuple(out)

    return (_EMPTY,) * len(stages), step


def avoider_counts(
    p: int,
    pat: Pattern,
    n_max: int,
    primitive_only: bool = False,
) -> list[int]:
    """Counts of pattern-avoiding p-ascent sequences of each length 0..n_max.

    Avoidance is closed under prefixes, and the avoidance automaton's state
    (see _avoidance) decides every future occurrence, so words with equal
    ascents, last letter and state have equally many avoiding extensions.
    The count merges them level by level (core._count); its cost grows with
    the number of distinct states, not of avoiders.  The patterns with
    closed forms (01, 10, 00, 012) keep under 4,000 states per level up to
    length 16, but longer patterns merge few words, so above _MAX_STATES
    states in one level this raises BudgetExceededError; iter_avoiders lists
    such avoiders in memory linear in n.
    """
    _check_p(p)
    _check_at_least("n_max", n_max)
    rule = _rule(*_avoidance(pat), max_run=1 if primitive_only else None)
    return _count(p, n_max, *rule, max_states=_MAX_STATES)


def count_avoiders(p: int, pat: Pattern, n: int, primitive_only: bool = False) -> int:
    """Number of pattern-avoiding p-ascent sequences of length n (see avoider_counts)."""
    return avoider_counts(p, pat, n, primitive_only)[n]


def iter_avoiders(
    p: int,
    pat: Pattern,
    n: int,
    primitive_only: bool = False,
) -> Iterator[PAscentSequence]:
    """Yield the pattern-avoiding p-ascent sequences of length n, lexicographically.

    The walk (core._words) carries the avoidance automaton's state from each
    word to its children and never extends a word that contains the pattern.
    """
    _check_p(p)
    _check_at_least("n", n)
    rule = _rule(*_avoidance(pat), max_run=1 if primitive_only else None)
    for w in _words(p, n, (), *rule):
        yield PAscentSequence._trusted(p, w)


def _avoiders_by_length(p: int, pat: Pattern, n_max: int) -> list[list[tuple[int, ...]]]:
    """The words of iter_avoiders(p, pat, n), in its order, for n = 0..n_max,
    from one walk."""
    buckets: list[list[tuple[int, ...]]] = [[] for _ in range(n_max + 1)]
    for word in _grow(p, n_max, (), *_avoidance(pat)):
        buckets[len(word)].append(word)
    return buckets


def _binomial(k: int, c: int) -> list[int]:
    """The coefficients of (1 - c t)^k, lowest degree first."""
    return [comb(k, i) * pow(-c, i) for i in range(k + 1)]


_TEN = (None, lambda p: (_binomial(p - 1, 1), _binomial(p, 2)))
_TEN_PRIMITIVE = (None, lambda p: ([1], _binomial(p, 1)))
# every 00-avoider is primitive, so both variants are one entry
_ZERO_ZERO = ((2, 3), lambda p: ([1, -1, 1], _binomial(3, 1)) if p == 2
              else ([1, -3, 6, -5, 3, -1], _binomial(6, 1)))

# (pattern text, primitive) -> (the ps it holds at, None for every p;
# p -> (N, D)).  The avoiders' generating function is 1 + t N(t)/D(t), the 1
# counting the empty sequence, with N and D lists of ints lowest degree first
# and D(0) = 1 (Stanley, EC1 4.3: a rational function's coefficients follow
# D's recurrence).  The forms are the paper's closed forms for 01, 10, 00 and
# 012; its binomial sums and 012 polynomials stay in the tests as references.
# Every key is classical, and str brackets or hyphenates a vincular pattern,
# so none finds an entry.  012 takes 10's forms at every p.  Plain, the block
# maps make the two families equinumerous (bijection_10_to_012).  Primitive,
# where the maps do not keep primitivity: a primitive 012-avoider of length
# n >= 1 is 0 and then a word y whose nonzero letters weakly decrease from at
# most p, with no two equal letters adjacent; writing each maximal run c^L of
# a weakly decreasing word over 1..p of length n - 1 as c0c0... (L letters)
# gives every such y once, so there are C(p+n-2, n-1), as many as the
# strictly increasing primitive 10-avoiders.
_CLOSED_FORMS = {
    ("01", False): (None, lambda p: ([1], [1, -1])),
    ("01", True): (None, lambda p: ([1], [1])),
    ("10", False): _TEN,
    ("10", True): _TEN_PRIMITIVE,
    ("012", False): _TEN,
    ("012", True): _TEN_PRIMITIVE,
    ("00", False): _ZERO_ZERO,
    ("00", True): _ZERO_ZERO,
}


def _closed_counts(p: int, pat: Pattern, n_max: int, primitive_only: bool = False) -> list[int]:
    """The coefficients 0..n_max of pat's entry in _CLOSED_FORMS at p, by D's
    recurrence: the coefficient b_n of N/D is N_n - (D_1 b_(n-1) + ... +
    D_d b_(n-d)), for n_max >= 0.  Raises NoClosedFormError for a pattern or
    p the table does not hold."""
    _check_p(p)
    ps, form = _CLOSED_FORMS.get((str(pat), primitive_only), ((), None))
    if ps is not None and p not in ps:
        raise NoClosedFormError(f"no closed form for pattern {pat} with p={p}")
    numerator, denominator = form(p)
    taps = denominator[:0:-1]    # D_d, ..., D_1, against b_(n-d), ..., b_(n-1)
    d = len(taps)
    b = [0] * d
    for c in (numerator + [0] * n_max)[:n_max]:
        b.append(c - sum(map(mul, taps, b[len(b) - d:])))
    return [1, *b[d:]]


def closed_count(p: int, pat: Pattern, n: int, primitive_only: bool = False) -> int:
    """Closed-form avoider count of length n, read from _CLOSED_FORMS; raises
    NoClosedFormError when unsupported.

    Supported: the classical patterns 01, 10 and 012 at every p, plain and
    primitive, and 00 at p = 2, 3 (00-avoidance forces primitivity, so both
    variants coincide).  012 takes 10's forms (see _CLOSED_FORMS).
    """
    _check_at_least("n", n)
    return _closed_counts(p, pat, n, primitive_only)[n]


def gf_avoiders(p: int, pat: Pattern, order: int, primitive_only: bool = False) -> TSeries:
    """Closed-form avoider generating function as an exact truncated series,
    the same _CLOSED_FORMS entry as closed_count, supported for the same
    patterns and p.  The constant term counts the empty sequence.
    """
    _check_at_least("order", order)
    return _from_scalars(_closed_counts(p, pat, order, primitive_only))


def embed(seq: PAscentSequence) -> PAscentSequence:
    """Encode a p-ascent sequence as a 1-ascent sequence with a (01)^(p-1) 0 prefix.

    The empty sequence embeds to the empty sequence for every p.  The image is
    1-ascent without a check: (01)^(p-1) adds p-1 ascents and none at the junction
    with the body's first 0, so a body letter's bound stays 1 + (p-1) + a = p + a.
    """
    if not seq.letters:
        return PAscentSequence._trusted(1, ())
    return PAscentSequence._trusted(1, (0, 1) * (seq.p - 1) + seq.letters)


def project(seq: PAscentSequence, p: int) -> PAscentSequence:
    """Inverse of embed: strip the (01)^(p-1) prefix of a 1-ascent sequence.

    The image is p-ascent without a check, by embed's proof run backwards: the
    prefix has p-1 ascents and none at the junction, so a body letter's bound
    1 + (p-1) + a is p + a."""
    _check_p(p)
    if seq.p != 1:
        raise ValueError("project expects a 1-ascent sequence")
    body = seq.letters
    if body and body[: 2 * p - 1] != (0, 1) * (p - 1) + (0,):
        raise ValueError(
            f"{body} does not start with (01)^{p - 1} 0, so it is not in the image of embed"
        )
    return PAscentSequence._trusted(p, body[2 * p - 2 :])


def bijection_10_to_012(seq: PAscentSequence) -> PAscentSequence:
    """Block rewriting from 10-avoiding to 012-avoiding p-ascent sequences.

    A 10-avoider is weakly increasing, so its blocks (maximal runs of one
    value) rise: block i has value i + s_i with s_0 <= s_1 <= ..., and a
    p-ascent sequence has s_0 = 0 and s_i <= p - 1, as block i follows i-1
    ascents.  The image keeps block 0's zeros and writes each further block i
    as the marker p - s_i followed by one zero for each further letter of the
    block, so it is p-ascent without a check: its letters are at most p, the
    first 0.  Its markers do not rise, so it avoids 012.
    """
    w, p = seq.letters, seq.p
    if any(map(gt, w, w[1:])):
        raise ValueError(f"{w} contains the pattern 10")
    image: list[int] = []
    i = last = 0
    for c in w:
        if c == last:
            image.append(0)
        else:
            i += 1
            image.append(p + i - c)
            last = c
    return PAscentSequence._trusted(p, tuple(image))


def bijection_012_to_10(seq: PAscentSequence) -> PAscentSequence:
    """Inverse block rewriting, from 012-avoiding back to 10-avoiding sequences.

    Block i is the i-th nonzero letter, its marker, with the zeros after it
    (block 0: the leading zeros, marker p); each of its letters becomes
    i + (p - marker).  A 012-avoider starts with 0, so its nonzero letters
    never rise, and the first is at most p.  The image is p-ascent without a
    check: past both refusals the markers fall from p to at least 1, so block
    i, after i-1 ascents, has the value i + (p - marker) <= p + (i-1).
    """
    w, p = seq.letters, seq.p
    if max(w, default=0) > p:
        raise ValueError(f"{w} has a letter above {p}, so it contains 012")
    markers = [p, *filter(None, w)]
    if any(map(lt, markers, markers[1:])):
        raise ValueError(f"{w} has a rise among its nonzero letters, so it contains 012")
    letters: list[int] = []
    i = value = 0
    for c in w:
        if c:
            i += 1
            value = i + p - c
        letters.append(value)
    return PAscentSequence._trusted(p, tuple(letters))


def count_vincular_212_ternary(n: int) -> int:
    """Number of words of length n-1 over {1,2,3} avoiding the vincular pattern 21-2.

    Forbidden: positions i, i+1, j with i+1 < j, w[i] = w[j] > w[i+1].
    """
    _check_at_least("n", n, 1)
    length = n - 1
    total = 0
    for w in product((1, 2, 3), repeat=length):
        ok = True
        for i in range(length - 2):
            if w[i] > w[i + 1]:
                top = w[i]
                if any(w[j] == top for j in range(i + 2, length)):
                    ok = False
                    break
        if ok:
            total += 1
    return total
