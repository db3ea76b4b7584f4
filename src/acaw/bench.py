"""Timing curves, growth-bound fitting, and machine-vs-predicate checks.

A curve is a list of rows (family, k, n, verdict, steps) obtained by running
a machine on a family's indexed member words; decider curves additionally
run single-symbol corruptions of each member, since a decider's interesting
cost is often on near-members.  Fitting a curve against a growth bound
reports the smallest constant c with steps <= c * bound(n) over every row,
which passes when c stays below the caller's ceiling.  The divergence figure
is the smallest ratio among the largest inputs; when even that exceeds the
ceiling, the data genuinely outgrows the bound and no small-n accident is
responsible.
"""

from __future__ import annotations

import csv
import itertools
import math
import pathlib
from dataclasses import dataclass, field
from typing import Callable, Collection, Iterable, Iterator, Optional

from .core import (
    ACCEPT,
    REJECT,
    TIMEOUT,
    Automaton,
    ModeError,
    ParameterError,
    run_acceptor,
    run_decider,
    verdict_masks,
)

CSV_HEADER = ("family", "k", "n", "verdict", "steps")

_BOUNDS: dict[str, Callable[[int], float]] = {
    "const": lambda n: 1.0,
    "log": lambda n: math.log2(max(n, 2)),
    "sqrt": lambda n: max(math.sqrt(n), 1.0),
    "linear": lambda n: float(n),
}


@dataclass(frozen=True)
class BenchRow:
    family: str
    k: int
    n: int
    verdict: str
    steps: Optional[int]  # None exactly for timeouts


def write_rows(path, rows: Iterable[BenchRow]) -> None:
    path = pathlib.Path(path)
    with path.open("w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(CSV_HEADER)
        for row in rows:
            writer.writerow(
                [
                    row.family,
                    row.k,
                    row.n,
                    row.verdict,
                    "" if row.steps is None else row.steps,
                ]
            )


def read_rows(path) -> list[BenchRow]:
    path = pathlib.Path(path)
    with path.open(newline="") as handle:
        reader = csv.reader(handle)
        try:
            header = next(reader)
        except StopIteration:
            raise ParameterError(f"{path}: empty file") from None
        if tuple(header) != CSV_HEADER:
            raise ParameterError(
                f"{path}: header must be exactly {','.join(CSV_HEADER)}"
            )
        rows = []
        for lineno, record in enumerate(reader, 2):
            if not record:
                continue
            if len(record) != 5:
                raise ParameterError(f"{path}:{lineno}: expected 5 fields")
            family, k, n, verdict, steps = record
            if verdict not in (ACCEPT, REJECT, TIMEOUT):
                raise ParameterError(f"{path}:{lineno}: bad verdict {verdict!r}")
            if (steps == "") != (verdict == TIMEOUT):
                raise ParameterError(f"{path}:{lineno}: steps must be empty exactly for a timeout")
            try:
                row = BenchRow(
                    family=family,
                    k=int(k),
                    n=int(n),
                    verdict=verdict,
                    steps=None if steps == "" else int(steps),
                )
            except ValueError:
                raise ParameterError(f"{path}:{lineno}: non-integer field") from None
            # A run needs a non-empty word and counts steps from 0; the fit
            # divides by each bound at n, which is 0 or undefined below n = 1.
            if row.n < 1:
                raise ParameterError(f"{path}:{lineno}: n must be at least 1, got {row.n}")
            if row.steps is not None and row.steps < 0:
                raise ParameterError(f"{path}:{lineno}: steps must be at least 0, got {row.steps}")
            rows.append(row)
    return rows


def _perturbations(word: str, alphabet: tuple) -> Iterable[str]:
    """Single-symbol corruptions at the ends and the middle."""
    n = len(word)
    for pos in sorted({0, n // 2, n - 1}):
        for sym in alphabet:
            if sym != word[pos]:
                yield word[:pos] + sym + word[pos + 1 :]


# The longest family member measure_time_curve builds by default, in
# symbols.  The longest member the tests, demos and benchmark curves use is
# a someone word of under 50,000 symbols; a bin member passes it at k = 13.
MAX_MEMBER_LENGTH = 100_000


def measure_time_curve(
    family,
    k_range: Iterable[int],
    mode: str = "acceptor",
    max_steps: Optional[int] = None,
    perturb: bool = True,
    max_length: int = MAX_MEMBER_LENGTH,
) -> list[BenchRow]:
    """Run one machine over a family's words and tabulate verdicts and steps.

    Acceptor mode runs the member words alone.  Decider mode adds, for each
    member, every single-symbol corruption at the first, middle, and last
    position that does not happen to land back inside the language, so the
    curve witnesses rejection times as well.

    Before any word is built or run, every member's length is read from
    ``family.length``; one longer than ``max_length`` symbols raises
    :class:`ParameterError`.
    """
    ks = k_range if isinstance(k_range, Collection) else list(k_range)
    for k in ks:
        length = family.length(k)
        if length > max_length:
            raise ParameterError(
                f"{family.name} k={k}: its member has {length} symbols,"
                f" over the budget of {max_length}"
            )
    if mode == "acceptor":
        if family.acceptor is None:
            raise ModeError(f"{family.name} has no acceptor")
        automaton = family.acceptor()
        runner = run_acceptor
    elif mode == "decider":
        if family.decider is None:
            raise ModeError(f"{family.name} has no decider")
        automaton = family.decider()
        runner = run_decider
    else:
        raise ParameterError(f"mode must be acceptor or decider, not {mode!r}")
    rows = []

    def measure(k: int, word: str) -> None:
        verdict = runner(automaton, word, max_steps=max_steps)
        rows.append(BenchRow(family.name, k, len(word), verdict.kind, verdict.steps))

    for k in ks:
        word = family.generate(k)
        measure(k, word)
        if mode == "decider" and perturb:
            for variant in _perturbations(word, family.alphabet):
                if not family.is_member(variant):
                    measure(k, variant)
    return rows


@dataclass(frozen=True)
class FitReport:
    bound: str
    ceiling: float
    constant: float  # smallest c with steps <= c * bound(n) on every row
    divergence: float  # min ratio over the largest-n quartile
    rows_used: int

    @property
    def passed(self) -> bool:
        return self.constant <= self.ceiling


def fit_bound(rows: Iterable[BenchRow], bound: str, ceiling: float) -> FitReport:
    """Fit steps <= c * bound(n) over the rows and compare c to the ceiling.

    Timed-out rows have no step count and make the fit meaningless, so they
    raise; filter them out first if timing out is expected behaviour.
    """
    if bound not in _BOUNDS:
        raise ParameterError(
            f"unknown bound {bound!r}; choose from {sorted(_BOUNDS)}"
        )
    rows = list(rows)
    if not rows:
        raise ParameterError("cannot fit an empty curve")
    for row in rows:
        if row.steps is None:
            raise ParameterError(
                f"{row.family} k={row.k}: timed out; no step count to fit"
            )
    fn = _BOUNDS[bound]
    ratios = sorted((row.n, row.steps / fn(row.n)) for row in rows)
    constant = max(r for _, r in ratios)
    quartile = max(1, len(ratios) // 4)
    divergence = min(r for _, r in ratios[-quartile:])
    return FitReport(
        bound=bound,
        ceiling=float(ceiling),
        constant=constant,
        divergence=divergence,
        rows_used=len(rows),
    )


@dataclass(frozen=True)
class VerifyReport:
    automaton: str
    oracle: str
    mode: str
    max_len: int
    words_checked: int
    mismatches: list = field(hash=False)  # (word, verdict kind, oracle bit)

    @property
    def ok(self) -> bool:
        return not self.mismatches


# The most words verify_equivalence runs as one batch, so a run keeps only
# a chunk's verdicts at a time.  A chunk may hold words of several
# consecutive lengths, so short words step in one run with longer ones.
VERIFY_CHUNK = 4096


# Bytes 0 and 1, an oracle's answers, to the digits "0" and "1".
_DIGITS = bytes.maketrans(b"\0\1", b"01")


# The most words a verify runs before it is refused.  It admits every ternary
# word to length 13 (2,391,483) and every binary word to length 21; the next
# ternary length, 14, has 7,174,452.
MAX_VERIFY_WORDS = 5_000_000


def _lex_chunks(alphabet: tuple, max_len: int) -> Iterator[list[str]]:
    """The words of lengths 1 to ``max_len``, shortest first and each length
    in lexicographic order, in chunks of :data:`VERIFY_CHUNK` words (the
    last may be shorter).

    Every length up to the last with at most VERIFY_CHUNK words is built
    whole and kept; the longest of them, b, gives the suffix block.  A longer
    length n is each word of length n - b, in order, followed by each word of
    the block, joined by C-level maps.  So what is held at once is a chunk,
    the kept lengths and the |Σ|^(n-b) prefixes, not a whole length.
    """
    symbols = sorted(alphabet)
    kept = [[""], symbols]  # kept[n]: every word of length n
    while len(kept) <= max_len and len(kept[-1]) * len(symbols) <= VERIFY_CHUNK:
        kept.append([w + s for w in kept[-1] for s in symbols])
    block = len(kept) - 1

    def lex(n: int) -> Iterator[str]:
        # The words of length n - q * b, from 1 to b, each followed by q
        # blocks.  Not recursive: a closure that calls itself is a reference
        # cycle, which would keep the kept lengths alive after the last chunk.
        q = (n - 1) // block
        words = kept[n - q * block]
        for _ in range(q):
            words = itertools.chain.from_iterable(
                map(prefix.__add__, kept[block]) for prefix in list(words))
        return iter(words)

    words = itertools.chain.from_iterable(map(lex, range(1, max_len + 1)))
    while chunk := list(itertools.islice(words, VERIFY_CHUNK)):
        yield chunk


def verify_equivalence(
    automaton: Automaton,
    oracle: Callable[[str], bool],
    max_len: int,
    mode: str = "acceptor",
    max_steps: Optional[int] = None,
    max_words: int = MAX_VERIFY_WORDS,
) -> VerifyReport:
    """Compare a machine against a membership predicate on all short words.

    Acceptor mode demands accept exactly on oracle-positive words, with a
    timeout counting as a plain non-accept.  Decider mode demands the
    matching verdict on every word and treats any timeout as a mismatch,
    since a decider must always answer.  Mismatches come in word order.
    More than ``max_words`` words, |Σ| + ... + |Σ|^max_len, are refused with
    a :class:`ParameterError` before any runs.

    The words run one chunk at a time (see :data:`VERIFY_CHUNK`) through
    :func:`~acaw.core.verdict_masks`, on the batch loop that
    :func:`~acaw.core.run_many` shares: one run per chunk on a machine with
    a kernel, word by word on others.  A chunk comes back as two ints, the
    bits of its accepted and of its rejected words, and the oracle's answers
    become a third, so a few big-int operations score the chunk.  Only the
    mismatches are read word by word, and only the oracle runs Python on
    every word.
    """
    if max_len < 1:
        raise ParameterError("max_len must be >= 1")
    if mode == "acceptor":
        if automaton.is_decider:
            raise ModeError(f"{automaton.name} is a decider")
    elif mode == "decider":
        if not automaton.is_decider:
            raise ModeError(f"{automaton.name} is an acceptor")
    else:
        raise ParameterError(f"mode must be acceptor or decider, not {mode!r}")
    size, count = len(automaton.input_alphabet), 0
    for length in range(1, max_len + 1):  # stops soon after passing the budget
        count += size**length
        if count > max_words:
            so_far = "" if length == max_len else f" already, of max_len {max_len}"
            raise ParameterError(
                f"{automaton.name}: {count:,} words to length {length}{so_far}, over the"
                f" budget of {max_words:,} words; raise max_words")
    mismatches: list = []
    checked = 0
    for words in _lex_chunks(automaton.input_alphabet, max_len):
        accepted, rejected = verdict_masks(automaton, words, max_steps)
        # The oracle's answers, bit i the i-th word, as accepted and rejected are.
        wants = int(bytes(map(bool, map(oracle, words)))[::-1].translate(_DIGITS), 2)
        bad = accepted ^ wants  # a member not accepted, or a non-member accepted
        if mode == "decider":  # also a non-member not rejected, a timeout included
            bad |= rejected ^ wants ^ ((1 << len(words)) - 1)
        if bad:
            mismatches += _mismatches(words, bad, accepted, rejected, wants)
        checked += len(words)
    return VerifyReport(
        automaton=automaton.name,
        oracle=getattr(oracle, "__name__", "oracle"),
        mode=mode,
        max_len=max_len,
        words_checked=checked,
        mismatches=mismatches,
    )


def _mismatches(
    words: list, bad: int, accepted: int, rejected: int, wants: int
) -> Iterator[tuple[str, str, bool]]:
    """``(word, verdict kind, oracle bit)`` for each word whose bit is set in
    ``bad``, in word order; the other ints give the verdict and the oracle's
    answer, bit i the i-th word."""
    digits = f"0{len(words)}b"
    bad, accepted, rejected, wants = (
        format(bits, digits)[::-1] for bits in (bad, accepted, rejected, wants))
    at = bad.find("1")
    while at >= 0:
        kind = ACCEPT if accepted[at] == "1" else REJECT if rejected[at] == "1" else TIMEOUT
        yield words[at], kind, wants[at] == "1"
        at = bad.find("1", at + 1)
