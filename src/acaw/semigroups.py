"""Deciding local testability of a regular language from a DFA.

The route is algebraic.  Minimizing the DFA makes its transition semigroup
the syntactic semigroup of the language: one element per distinct action of
a non-empty word on the states, multiplication being concatenation.  The
language is locally testable exactly when, around every idempotent e, the
local semigroup {e s e} is a semilattice, i.e. all its elements are
idempotent and commute with each other.  Failures come with a witness
triple (e, x, y) whose representative words make the obstruction concrete.
"""

from __future__ import annotations

import pathlib
from dataclasses import dataclass, field
from typing import Optional

from .core import ParameterError
from .rulefile import RuleFileError, read_directives, read_text


@dataclass(frozen=True)
class Dfa:
    """A complete deterministic automaton over single-character letters."""

    name: str
    alphabet: tuple
    states: tuple
    start: str
    accept: frozenset
    transitions: dict = field(hash=False)  # (state, letter) -> state

    def __post_init__(self):
        state_set = set(self.states)
        if len(state_set) != len(self.states):
            raise ParameterError(f"{self.name}: duplicate state names")
        if self.start not in state_set:
            raise ParameterError(f"{self.name}: start state {self.start!r} unknown")
        if not set(self.accept) <= state_set:
            raise ParameterError(f"{self.name}: accept set leaves the state set")
        for s in self.states:
            for a in self.alphabet:
                target = self.transitions.get((s, a))
                if target is None:
                    raise ParameterError(
                        f"{self.name}: missing transition from {s!r} on {a!r}"
                    )
                if target not in state_set:
                    raise ParameterError(
                        f"{self.name}: transition from {s!r} on {a!r} leaves the state set"
                    )


def dfa_accepts(dfa: Dfa, word: str) -> bool:
    state = dfa.start
    for letter in word:
        if letter not in dfa.alphabet:
            raise ParameterError(f"{dfa.name}: letter {letter!r} not in the alphabet")
        state = dfa.transitions[(state, letter)]
    return state in dfa.accept


def parse_dfa(text: str, name: str = "dfa") -> Dfa:
    """Parse the DFA file format.

    Directives ``alphabet:``, ``states:``, ``start:``, ``accept:`` and one
    ``trans: STATE LETTER -> STATE`` line per transition; ``#`` starts a
    comment line.  The transition function must be total.
    """
    fields, trans_rows = read_directives(
        text, name, ("alphabet", "states", "start", "accept"), row="trans"
    )
    transitions: dict = {}
    for at, tokens in trans_rows:
        if len(tokens) != 4 or tokens[2] != "->":
            raise RuleFileError(f"{name}:{at}: expected 'trans: STATE LETTER -> STATE'")
        source, letter, _, target = tokens
        if (source, letter) in transitions:
            raise RuleFileError(
                f"{name}:{at}: second transition from {source!r} on {letter!r}"
            )
        transitions[(source, letter)] = target
    at, alphabet = fields["alphabet"]
    if not alphabet or any(len(a) != 1 for a in alphabet):
        raise RuleFileError(f"{name}:{at}: alphabet must list single-character letters")
    if len(set(alphabet)) != len(alphabet):
        raise RuleFileError(f"{name}:{at}: duplicate letters")
    at, starts = fields["start"]
    if len(starts) != 1:
        raise RuleFileError(f"{name}:{at}: exactly one start state required")
    try:
        return Dfa(
            name=name,
            alphabet=alphabet,
            states=fields["states"][1],
            start=starts[0],
            accept=frozenset(fields["accept"][1]),
            transitions=transitions,
        )
    except ParameterError as exc:
        raise RuleFileError(str(exc)) from None


def load_dfa(path) -> Dfa:
    return parse_dfa(read_text(path), name=pathlib.Path(path).stem)


def minimize(dfa: Dfa) -> Dfa:
    """Reachable part followed by Moore partition refinement.

    The result is the unique minimal complete DFA of the language, with
    states renamed m0, m1, ... in breadth-first order from the start.
    """
    reachable = [dfa.start]
    seen = {dfa.start}
    for state in reachable:
        for letter in dfa.alphabet:
            nxt = dfa.transitions[(state, letter)]
            if nxt not in seen:
                seen.add(nxt)
                reachable.append(nxt)

    block: dict = {s: (s in dfa.accept) for s in reachable}
    while True:
        signature = {
            s: (block[s],)
            + tuple(block[dfa.transitions[(s, a)]] for a in dfa.alphabet)
            for s in reachable
        }
        relabel: dict = {}
        for s in reachable:
            relabel.setdefault(signature[s], len(relabel))
        new_block = {s: relabel[signature[s]] for s in reachable}
        if len(set(new_block.values())) == len(set(block.values())):
            block = new_block
            break
        block = new_block

    names: dict = {}
    order = [block[dfa.start]]
    names[block[dfa.start]] = "m0"
    rep = {block[s]: s for s in reversed(reachable)}  # any representative
    for b in order:
        for letter in dfa.alphabet:
            nb = block[dfa.transitions[(rep[b], letter)]]
            if nb not in names:
                names[nb] = f"m{len(names)}"
                order.append(nb)
    transitions = {
        (names[b], letter): names[block[dfa.transitions[(rep[b], letter)]]]
        for b in order
        for letter in dfa.alphabet
    }
    accept = frozenset(names[block[s]] for s in reachable if s in dfa.accept)
    return Dfa(
        name=f"{dfa.name}-min",
        alphabet=dfa.alphabet,
        states=tuple(names[b] for b in order),
        start="m0",
        accept=accept,
        transitions=transitions,
    )


@dataclass(frozen=True)
class Semigroup:
    """A transformation semigroup with one representative word per element.

    Elements are tuples t with t[i] the state index reached from state i by
    the representative word; multiplication is concatenation of words, so
    (t * u)[i] = u[t[i]].
    """

    elements: tuple
    words: dict = field(hash=False)  # element -> shortest representative

    def mult(self, t: tuple, u: tuple) -> tuple:
        return tuple(u[i] for i in t)

    def __len__(self) -> int:
        return len(self.elements)


def _algebra(n: int):
    """``(encode, then)`` for transformations of ``n`` states.

    ``then(t, u)`` is t followed by u: ``then(t, u)[i] == u[t[i]]``.  Up to
    256 states a transformation is encoded as bytes and composed by one
    ``bytes.translate``; beyond that, as a tuple.
    """
    if n > 256:
        return tuple, lambda t, u: tuple(map(u.__getitem__, t))
    pad = bytes(256 - n)
    return bytes, lambda t, u: t.translate(u + pad)


# The most elements a closure builds before it is refused.  The 7-state,
# 3-letter DFA whose letters generate every transformation has 823,543, which
# take about 170 MB as bytes; at 8 states there would be 16,777,216.
MAX_ELEMENTS = 1_000_000


def _closure(dfa: Dfa, max_elements: int = MAX_ELEMENTS):
    """:func:`syntactic_semigroup`, encoded: ``({element: least word}, then)``.

    Raises :class:`ParameterError` once more than ``max_elements`` elements
    are found, checked as each element is taken from the queue."""
    m = minimize(dfa)
    index = {s: i for i, s in enumerate(m.states)}
    encode, then = _algebra(len(m.states))
    letters = [
        (a, encode(index[m.transitions[(s, a)]] for s in m.states)) for a in m.alphabet
    ]
    words: dict = {}
    for a, t in letters:
        words.setdefault(t, a)
    queue = list(words)
    for t in queue:
        if len(words) > max_elements:
            raise ParameterError(
                f"{dfa.name}: the syntactic semigroup passed the budget of"
                f" {max_elements:,} elements ({len(words):,} found); raise max_elements")
        word = words[t]
        for a, letter in letters:
            u = then(t, letter)
            if u not in words:
                words[u] = word + a
                queue.append(u)
    return words, then


def _semilattice_failure(elements: list, then) -> Optional[tuple]:
    """The first (e, x, y) of :func:`is_locally_semilattice`'s scan, or None."""
    for e in elements:
        if then(e, e) != e:
            continue
        local: dict = {}
        for x in elements:
            local.setdefault(then(then(e, x), e), x)
        # By the time a is reached, every earlier b was checked against it, so
        # only later ones are: the first failure found is the full scan's.
        items = list(local.items())
        for i, (a, x) in enumerate(items):
            if then(a, a) != a:
                return e, x, x
            for b, y in items[i + 1:]:
                if then(a, b) != then(b, a):
                    return e, x, y
    return None


def syntactic_semigroup(dfa: Dfa, max_elements: int = MAX_ELEMENTS) -> Semigroup:
    """The action semigroup of all non-empty words on the minimal DFA.

    Closure by breadth-first search from the single letters, so the stored
    representative of each element is length-lexicographically least.  A
    semigroup of more than ``max_elements`` elements is refused with a
    :class:`ParameterError` naming the count reached.
    """
    words, _ = _closure(dfa, max_elements)
    return Semigroup(
        elements=tuple(map(tuple, words)), words={tuple(t): w for t, w in words.items()}
    )


def idempotents(semigroup: Semigroup) -> list:
    return [e for e in semigroup.elements if semigroup.mult(e, e) == e]


def is_locally_semilattice(semigroup: Semigroup):
    """Check every local semigroup e S e for the semilattice laws.

    Returns ``(True, None)`` or ``(False, (e, x, y))`` where e is an
    idempotent and x, y expose the failure: either exe is not idempotent
    (then x == y) or exe and eye do not commute.
    """
    elements = semigroup.elements
    encode, then = _algebra(len(elements[0]) if elements else 0)
    decode = {encode(t): t for t in elements}
    triple = _semilattice_failure(list(decode), then)
    if triple is None:
        return True, None
    return False, tuple(decode[t] for t in triple)


def is_locally_testable(dfa: Dfa, max_elements: int = MAX_ELEMENTS):
    """Whether the DFA's language is locally testable, with a witness on failure.

    The pair returned is ``(verdict, witness)``; the witness is ``None`` on
    success and otherwise a triple of representative words (e, x, y) from
    :func:`is_locally_semilattice` on the syntactic semigroup.  The semigroup
    is closed under the ``max_elements`` budget of :func:`syntactic_semigroup`.
    """
    words, then = _closure(dfa, max_elements)
    triple = _semilattice_failure(list(words), then)
    if triple is None:
        return True, None
    return False, tuple(words[t] for t in triple)
