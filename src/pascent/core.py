"""p-ascent sequences: validation, statistics, enumeration and counting.

A p-ascent sequence is a word of nonnegative integers whose first letter is
0 and in which every later letter is at most p plus the number of ascents
of the preceding prefix.  These words form a generating tree, walked word by
word by _grow (the exhaustive enumeration) and counted level by level by
_levels (the oracle that the closed-form evaluators in gf are checked
against; tests check it against the enumeration).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterator, Sequence

from .series import _MAX_EXP, MultiPoly, TSeries, _pack

STAT_NAMES = ("ascents", "last", "zeros", "run")


def asc(word: Sequence[int]) -> int:
    """Number of positions j with word[j] < word[j+1]."""
    w = tuple(word)
    return sum(1 for i in range(len(w) - 1) if w[i] < w[i + 1])


def is_p_ascent(word: Sequence[int], p: int) -> bool:
    """True iff word is empty, or starts with 0 and respects the ascent bound."""
    if p < 1:
        raise ValueError("p must be a positive integer")
    w = tuple(word)
    if w and w[0] != 0:
        return False
    ascents = last = 0
    for c in w[1:]:
        if not 0 <= c <= p + ascents:
            return False
        if c > last:
            ascents += 1
        last = c
    return True


@dataclass(frozen=True)
class PAscentSequence:
    """A validated p-ascent sequence together with its allowance p."""

    p: int
    letters: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "letters", tuple(self.letters))
        if not is_p_ascent(self.letters, self.p):
            raise ValueError(f"{self.letters} is not a {self.p}-ascent sequence")

    def __len__(self) -> int:
        return len(self.letters)

    def __iter__(self):
        return iter(self.letters)

    def __str__(self) -> str:
        return ",".join(map(str, self.letters))


@dataclass(frozen=True)
class StatProfile:
    """Statistic vector of one sequence.

    last and max are None for the empty sequence; run is 0 for all-zero
    words (including the empty one), otherwise the length of the initial
    block of 0s.
    """

    length: int
    ascents: int
    descents: int
    zeros: int
    last: int | None
    run: int
    max: int | None
    sum: int
    primitive: bool
    up_down: bool


def stats(seq: PAscentSequence) -> StatProfile:
    """Compute the full statistic profile of a sequence."""
    w = seq.letters
    n = len(w)
    ascents = sum(1 for i in range(n - 1) if w[i] < w[i + 1])
    descents = sum(1 for i in range(n - 1) if w[i] > w[i + 1])
    lead = 0
    while lead < n and w[lead] == 0:
        lead += 1
    run = 0 if lead == n else lead
    up_down = all(
        (w[i] < w[i + 1]) if i % 2 == 0 else (w[i] > w[i + 1]) for i in range(n - 1)
    )
    return StatProfile(
        length=n,
        ascents=ascents,
        descents=descents,
        zeros=w.count(0),
        last=w[-1] if n else None,
        run=run,
        max=max(w) if n else None,
        sum=sum(w),
        primitive=all(w[i] != w[i + 1] for i in range(n - 1)),
        up_down=up_down,
    )


def _grow(
    p: int,
    n_max: int,
    word: Sequence[int] = (),
    keep: Callable[[tuple[int, ...]], bool] | None = None,
) -> Iterator[tuple[int, ...]]:
    """Yield word and each extension of it up to length n_max, as tuples.

    The order is lexicographic pre-order.  The empty word's one child is (0,);
    a child of a nonempty word with a ascents appends a letter c <= p + a.  A
    word that keep rejects is skipped together with its extensions.
    """
    stack = [(tuple(word), asc(word))] if len(word) <= n_max else []
    while stack:
        w, a = stack.pop()
        if keep is not None and not keep(w):
            continue
        yield w
        if len(w) < n_max:
            last, top = (w[-1], p + a) if w else (0, 0)
            stack.extend((w + (c,), a + (c > last)) for c in range(top, -1, -1))


def _levels(
    p: int,
    n_max: int,
    zeros: bool = False,
    run: bool = False,
    max_repeat: int | None = None,
) -> list[dict[tuple[int, int, int, int, int], int]]:
    """Count the p-ascent words of each length 1..n_max by state, level by level.

    Entry m-1 maps (ascents, last, zeros, run, repeat) to the number of words
    of length m with those statistics; repeat is the length of the final block
    of equal letters, at most max_repeat.  Fields not asked for stay 0.  A
    word is all 0s exactly while it has no ascent, so run needs no flag.
    """
    zstep = 1 if zeros else 0
    rstep = 1 if max_repeat else 0
    levels = [{(0, 0, zstep, 0, rstep): 1}] if n_max >= 1 else []
    while len(levels) < n_max:
        m = len(levels)
        first_run = m if run else 0
        level: dict[tuple[int, int, int, int, int], int] = {}
        for (a, last, z, r, rep), count in levels[-1].items():
            for c in range(p + a + 1):
                if c > last:
                    key = (a + 1, c, z, r if a else first_run, rstep)
                elif c < last:
                    key = (a, c, z + zstep if c == 0 else z, r, rstep)
                elif rep == max_repeat:
                    continue
                else:
                    key = (a, c, z + zstep if c == 0 else z, r, rep + rstep)
                level[key] = level.get(key, 0) + count
        levels.append(level)
    return levels


def enumerate_sequences(
    p: int,
    n: int,
    pred: Callable[[PAscentSequence], bool] | None = None,
    prefix: Sequence[int] | None = None,
) -> Iterator[PAscentSequence]:
    """Yield every p-ascent sequence of length n, in lexicographic order.

    pred, when given, filters sequences before they are yielded.  prefix
    restricts the walk to extensions of a fixed valid prefix.  Sequences are
    produced one at a time; nothing is materialized.
    """
    if p < 1:
        raise ValueError("p must be a positive integer")
    if n < 0:
        raise ValueError("n must be nonnegative")
    start = tuple(prefix) if prefix is not None else ()
    if not is_p_ascent(start, p):
        raise ValueError(f"prefix {start} is not a {p}-ascent sequence")
    for word in _grow(p, n, start):
        if len(word) == n:
            seq = PAscentSequence(p, word)
            if pred is None or pred(seq):
                yield seq


def count_by_length(
    p: int,
    n_max: int,
    primitive_only: bool = False,
    max_repeat: int | None = None,
) -> list[int]:
    """Counts of p-ascent sequences of each length 0..n_max.

    primitive_only keeps only sequences with no equal adjacent letters;
    max_repeat bounds the length of any block of equal consecutive letters.
    """
    if p < 1:
        raise ValueError("p must be a positive integer")
    if n_max < 0:
        raise ValueError("n_max must be nonnegative")
    if max_repeat is not None and max_repeat < 1:
        raise ValueError("max_repeat must be at least 1")
    if primitive_only:
        max_repeat = 1
    return [1] + [sum(level.values()) for level in _levels(p, n_max, max_repeat=max_repeat)]


def oracle_table(
    p: int,
    n_max: int,
    stat_selector: Sequence[str] = STAT_NAMES,
) -> TSeries:
    """Generating-function table of the sequences of length <= n_max.

    Each sequence w contributes t^len * u^ascents * v^last * z^zeros * x^run;
    the empty sequence contributes 1.  Statistics absent from stat_selector
    are specialized to 1 (exponent dropped).  The table is counted level by
    level over the generating tree (see _levels), so its cost grows with the
    number of distinct states, not of sequences.
    """
    if p < 1:
        raise ValueError("p must be a positive integer")
    if n_max < 0:
        raise ValueError("n_max must be nonnegative")
    sel = set(stat_selector)
    unknown = sel.difference(STAT_NAMES)
    if unknown:
        raise ValueError(f"unknown statistics {sorted(unknown)}; choose from {STAT_NAMES}")
    largest = (n_max - 1, p + n_max - 2 if n_max > 1 else 0, n_max, n_max - 1)
    for name, exponent in zip(STAT_NAMES, largest):
        if name in sel and exponent > _MAX_EXP:
            raise ValueError(
                f"{name} reaches exponent {exponent} > {_MAX_EXP} at p={p}, n_max={n_max}"
            )
    keep_u = "ascents" in sel
    keep_v = "last" in sel
    acc: list[dict[int, int]] = [{0: 1}]
    for level in _levels(p, n_max, "zeros" in sel, "run" in sel):
        poly: dict[int, int] = {}
        for (a, last, z, r, _), count in level.items():
            key = _pack((a if keep_u else 0, last if keep_v else 0, z, r))
            poly[key] = poly.get(key, 0) + count
        acc.append(poly)
    return TSeries([MultiPoly(poly) for poly in acc])
