"""p-ascent sequences: validation, statistics, enumeration and counting.

A p-ascent sequence is a word of nonnegative integers whose first letter is
0 and in which every later letter is at most p plus the number of ascents
of the preceding prefix.  These words form a generating tree, walked word by
word by _grow (the exhaustive enumeration) and counted level by level by
_levels (the oracle that the closed-form evaluators in gf are checked
against; tests check it against the enumeration).  Both carry a state from
each word to its children and prune where a step says so: oracle_table's
step, or the one word rule _rule, which composes the avoidance automaton of
patterns with a bound on runs of equal letters and the up-down rule.
count_by_length, patterns' avoider counts and lists and the CLI's enumerate
and count all compose their filters through _rule, and every count among
them is _count, the levels of _levels summed.
"""

from __future__ import annotations

from dataclasses import FrozenInstanceError, dataclass
from operator import gt, lt
from typing import Callable, Iterator, Sequence

from .series import _MAX_EXP, MultiPoly, TSeries, _check_at_least, _pack

STAT_NAMES = ("ascents", "last", "zeros", "run")


class BudgetExceededError(RuntimeError):
    """Raised when a walk or a count would exceed its node or state budget."""


def asc(word: Sequence[int]) -> int:
    """Number of positions j with word[j] < word[j+1]."""
    w = tuple(word)
    return sum(1 for i in range(len(w) - 1) if w[i] < w[i + 1])


def _check_p(p: int) -> None:
    """Refuse a p below 1, the one p check of core, patterns and gf."""
    if p < 1:
        raise ValueError("p must be a positive integer")


def is_p_ascent(word: Sequence[int], p: int) -> bool:
    """True iff word is empty, or starts with 0 and respects the ascent bound."""
    _check_p(p)
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


@dataclass(frozen=True, slots=True)
class PAscentSequence:
    """A validated p-ascent sequence together with its allowance p."""

    p: int
    letters: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "letters", tuple(self.letters))
        if not is_p_ascent(self.letters, self.p):
            raise ValueError(f"{self.letters} is not a {self.p}-ascent sequence")

    @staticmethod
    def _trusted(p: int, letters: tuple[int, ...]) -> "PAscentSequence":
        """Wrap a tuple known to be p-ascent without validating it again: a word
        that _grow built by the p-ascent rule, or the image of embed, project or
        either 10<->012 map in patterns (each docstring has its proof).

        It skips the frozen __init__ and __post_init__ and fills the two slots
        through their descriptors; the result equals PAscentSequence(p, letters).
        It is static, as the word walks call it once per word: a classmethod
        would build a bound method on every call, and no subclass needs one.
        """
        seq = _new(PAscentSequence)
        _set_p(seq, p)
        _set_letters(seq, letters)
        return seq

    def __len__(self) -> int:
        return len(self.letters)

    def __iter__(self):
        return iter(self.letters)

    def __str__(self) -> str:
        return ",".join(map(str, self.letters))


_new = object.__new__
_set_p = PAscentSequence.p.__set__
_set_letters = PAscentSequence.letters.__set__


# CPython 3.11's slots=True rebuilds the class, and the generated frozen
# __setattr__/__delattr__ still name the old one, so a write to a name that
# is no field fails with a TypeError from super().  These refuse every name.
def _refuse_set(self, name, value):
    raise FrozenInstanceError(f"cannot assign to field {name!r}")


def _refuse_del(self, name):
    raise FrozenInstanceError(f"cannot delete field {name!r}")


PAscentSequence.__setattr__ = _refuse_set
PAscentSequence.__delattr__ = _refuse_del


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
    if not n:
        return StatProfile(0, 0, 0, 0, None, 0, None, 0, True, True)
    tail = w[1:]
    odd = w[1::2]
    ascents = sum(map(lt, w, tail))
    descents = sum(map(gt, w, tail))
    zeros = w.count(0)
    run = 0
    if zeros < n:
        while not w[run]:
            run += 1
    return StatProfile(
        n, ascents, descents, zeros, w[-1], run, max(w), sum(w),
        # primitive: no two adjacent letters are equal
        ascents + descents == n - 1,
        # up_down: rises at even positions i (w[i] < w[i+1]), falls at odd ones
        all(map(lt, w[::2], odd)) and all(map(gt, odd, w[2::2])),
    )


def _grow(
    p: int,
    n_max: int,
    word: Sequence[int] = (),
    state: object = (),
    step: Callable[[object, int], object | None] | None = None,
) -> Iterator[tuple[int, ...]]:
    """Yield word and each extension of it up to length n_max, as tuples.

    The order is lexicographic pre-order.  The empty word's one child is (0,);
    a child of a nonempty word with a ascents appends a letter c <= p + a.
    With step, state is word's state and step(s, c) is the state after
    appending c to a word in state s, or None to skip that child together
    with its extensions.  The words of length n_max, the leaves, are yielded
    straight from their parent, in ascending c right after it, and never
    stacked: the same pre-order, without a push and a pop for each leaf.
    """
    word = tuple(word)
    if len(word) > n_max:
        return
    stack = [(word, asc(word), state)]
    leaf = n_max - 1
    while stack:
        w, a, s = stack.pop()
        yield w
        depth = len(w)
        if depth >= n_max:
            continue
        last, top = (w[-1], p + a) if w else (0, 0)
        if depth < leaf:
            for c in range(top, -1, -1):
                child = step(s, c) if step else s
                if child is not None:
                    stack.append((w + (c,), a + (c > last), child))
        elif step is None:
            for c in range(top + 1):
                yield w + (c,)
        else:
            for c in range(top + 1):
                if step(s, c) is not None:
                    yield w + (c,)


def _levels(
    p: int,
    n_max: int,
    state: object = (),
    step: Callable[[object, int], object | None] | None = None,
    max_states: int | None = None,
) -> Iterator[dict[tuple, int]]:
    """Count the p-ascent words of each length 1..n_max by state, level by level.

    Yield, for m = 1..n_max, a map from (ascents, last, state) to the number
    of words of length m with those ascents, last letter and state.  state
    and step are those of _grow: state is the empty word's, and a child that
    step maps to None is not counted, nor are its extensions.  Every further
    statistic or filter is a step (see _rule and oracle_table).  Only the
    latest level is held, and BudgetExceededError is raised once a level
    holds more than max_states keys.
    """
    if n_max < 1:
        return
    first = step(state, 0) if step else state
    level: dict[tuple, int] = {} if first is None else {(0, 0, first): 1}
    yield level
    for m in range(1, n_max):
        previous, level = level, {}
        for (a, last, s), count in previous.items():
            for c in range(p + a + 1):
                child = step(s, c) if step else s
                if child is None:
                    continue
                key = (a + (c > last), c, child)
                level[key] = level.get(key, 0) + count
            if max_states is not None and len(level) > max_states:
                raise BudgetExceededError(
                    f"length {m + 1} holds more than the state budget of {max_states} states"
                )
        yield level


def _bounded_runs(k: int, state: object = (), step: Callable | None = None):
    """The empty word's state and the step that refuse a block of more than k
    equal letters, around an inner state and step.  The state is (last, run,
    inner): the last letter (None for the empty word), the length of the
    final block of equal letters, and the inner state; k = 1 keeps exactly
    the primitive words.
    """
    def bounded(s, c):
        last, run, inner = s
        run = run + 1 if c == last else 1
        if run > k:
            return None
        if step is not None:
            inner = step(inner, c)
        return None if inner is None else (c, run, inner)

    return (None, 0, state), bounded


def _up_down(state: object = (), step: Callable | None = None):
    """The empty word's state and the step that keep exactly the up-down words
    (a rise after each even position, a fall after each odd one) around an
    inner state and step.  The state is (last, rise, inner): the last letter
    (None for the empty word), whether the word ends in a rise, and the inner
    state."""
    def up_down(s, c):
        last, rise, inner = s
        if last is not None and (c >= last if rise else c <= last):
            return None
        if step is not None:
            inner = step(inner, c)
        return None if inner is None else (c, last is not None and not rise, inner)

    return (None, False, state), up_down


def _rule(state: object = (), step: Callable | None = None, max_run: int | None = None,
          up_down: bool = False):
    """The one word rule: the empty word's state and the step that keep the
    words the inner state and step keep, with no block of more than max_run
    equal letters (_bounded_runs, when max_run is given) and, when up_down is
    set, up-down (_up_down, around the run bound)."""
    if max_run is not None:
        state, step = _bounded_runs(max_run, state, step)
    return _up_down(state, step) if up_down else (state, step)


def _count(p: int, n_max: int, state: object = (), step: Callable | None = None,
           max_states: int | None = None) -> list[int]:
    """The number of words of each length 0..n_max that state and step keep:
    1 for the empty word, then each level of _levels summed."""
    return [1] + [sum(level.values()) for level in _levels(p, n_max, state, step, max_states)]


def _words(
    p: int,
    n: int,
    word: Sequence[int] = (),
    state: object = (),
    step: Callable[[object, int], object | None] | None = None,
) -> Iterator[tuple[int, ...]]:
    """The words of length n among those _grow(p, n, word, state, step) yields,
    in its order, as letter tuples: the one loop behind the CLI's enumerate,
    which formats the tuples as they come, and enumerate_sequences and
    patterns.iter_avoiders, which wrap each in PAscentSequence._trusted."""
    for w in _grow(p, n, word, state, step):
        if len(w) == n:
            yield w


def enumerate_sequences(
    p: int,
    n: int,
    prefix: Sequence[int] | None = None,
) -> Iterator[PAscentSequence]:
    """Yield every p-ascent sequence of length n, in lexicographic order.

    prefix restricts the walk to extensions of a fixed valid prefix.
    Sequences are produced one at a time; nothing is materialized.
    """
    _check_p(p)
    _check_at_least("n", n)
    start = tuple(prefix) if prefix is not None else ()
    if not is_p_ascent(start, p):
        raise ValueError(f"prefix {start} is not a {p}-ascent sequence")
    for w in _words(p, n, start):
        yield PAscentSequence._trusted(p, w)


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
    _check_p(p)
    _check_at_least("n_max", n_max)
    if max_repeat is not None:
        _check_at_least("max_repeat", max_repeat, 1)
    return _count(p, n_max, *_rule(max_run=1 if primitive_only else max_repeat))


def _zeros_and_run(s: tuple[int, int], c: int) -> tuple[int, int]:
    """oracle_table's step: a 0 adds a zero, a first nonzero letter fixes the run."""
    zeros, run = s
    if c == 0:
        return zeros + 1, run
    return s if run else (zeros, zeros)


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
    _check_p(p)
    _check_at_least("n_max", n_max)
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
    keep_u, keep_v, keep_z, keep_x = (name in sel for name in STAT_NAMES)
    step = _zeros_and_run if keep_z or keep_x else None
    acc: list[dict[int, int]] = [{0: 1}]
    for level in _levels(p, n_max, (0, 0), step):
        poly: dict[int, int] = {}
        for (a, last, (z, r)), count in level.items():
            key = _pack((a * keep_u, last * keep_v, z * keep_z, r * keep_x))
            poly[key] = poly.get(key, 0) + count
        acc.append(poly)
    return TSeries([MultiPoly(poly) for poly in acc])
