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


def syntactic_semigroup(dfa: Dfa) -> Semigroup:
    """The action semigroup of all non-empty words on the minimal DFA.

    Closure by breadth-first search from the single letters, so the stored
    representative of each element is length-lexicographically least.
    """
    m = minimize(dfa)
    index = {s: i for i, s in enumerate(m.states)}
    letters = {
        a: tuple(index[m.transitions[(s, a)]] for s in m.states) for a in m.alphabet
    }
    words: dict = {}
    queue = []
    for a in m.alphabet:
        t = letters[a]
        if t not in words:
            words[t] = a
            queue.append(t)
    for t in queue:
        for a in m.alphabet:
            u = tuple(letters[a][i] for i in t)
            if u not in words:
                words[u] = words[t] + a
                queue.append(u)
    return Semigroup(elements=tuple(words), words=words)


def idempotents(semigroup: Semigroup) -> list:
    return [e for e in semigroup.elements if semigroup.mult(e, e) == e]


def is_locally_semilattice(semigroup: Semigroup):
    """Check every local semigroup e S e for the semilattice laws.

    Returns ``(True, None)`` or ``(False, (e, x, y))`` where e is an
    idempotent and x, y expose the failure: either exe is not idempotent
    (then x == y) or exe and eye do not commute.
    """
    mult = semigroup.mult
    for e in idempotents(semigroup):
        local = {}
        for x in semigroup.elements:
            a = mult(mult(e, x), e)
            if a not in local:
                local[a] = x
        for a, x in local.items():
            if mult(a, a) != a:
                return False, (e, x, x)
            for b, y in local.items():
                if mult(a, b) != mult(b, a):
                    return False, (e, x, y)
    return True, None


def is_locally_testable(dfa: Dfa):
    """Whether the DFA's language is locally testable, with a witness on failure.

    The pair returned is ``(verdict, witness)``; the witness is ``None`` on
    success and otherwise a triple of representative words (e, x, y) from
    :func:`is_locally_semilattice` on the syntactic semigroup.
    """
    semigroup = syntactic_semigroup(dfa)
    ok, triple = is_locally_semilattice(semigroup)
    if ok:
        return True, None
    return False, tuple(semigroup.words[t] for t in triple)
