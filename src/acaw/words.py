"""Word profiles and profile-preserving contraction procedures.

The profile of a word at window length k is the triple (prefix, infix set,
suffix).  Windows longer than the word degrade to the word itself: the
prefix and suffix become the whole word and the infix set becomes the
singleton {word}.  Locality arguments for unanimous-acceptance machines
reduce to statements about these triples, and the two contraction
procedures here shorten words while preserving exactly the parts of the
triple such arguments consume.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass

from .core import (
    TIMEOUT,
    Automaton,
    BudgetError,
    ModeError,
    ParameterError,
    global_step,  # unused here; benchmarks/tracing.py wraps this module attribute
    leftmost_open,
    run_decider,
)


def prefix_of(word: str, k: int) -> str:
    if k < 0:
        raise ParameterError("window length must be non-negative")
    return word[:k]


def suffix_of(word: str, k: int) -> str:
    if k < 0:
        raise ParameterError("window length must be non-negative")
    return word[-k:] if k > 0 else ""


def infix_set(word: str, k: int) -> frozenset[str]:
    if k < 0:
        raise ParameterError("window length must be non-negative")
    if len(word) < k:
        return frozenset({word})
    return frozenset(word[i : i + k] for i in range(len(word) - k + 1))


@dataclass(frozen=True)
class Profile:
    k: int
    prefix: str
    suffix: str
    infixes: frozenset[str]

    def extend(self, letter: str) -> Profile:
        """The profile of every word with this profile followed by ``letter``."""
        k = self.k
        suffix = suffix_of(self.suffix + letter, k)
        if len(self.prefix) < k:  # a short word: the profile holds all of it
            word = self.prefix + letter
            return Profile(k, word, suffix, frozenset((word,)))
        return Profile(k, self.prefix, suffix, self.infixes | {suffix})


def profile(word: str, k: int) -> Profile:
    return Profile(k, prefix_of(word, k), suffix_of(word, k), infix_set(word, k))


def lemma1_hypothesis(w: str, w_prime: str, tau: int) -> bool:
    """Transfer condition for acceptors with time budget tau.

    Holds iff the two words share prefixes and suffixes of length 2*tau and
    every (2*tau+1)-infix of ``w_prime`` already occurs in ``w``.  When it
    holds and some machine accepts ``w`` within tau steps, it accepts
    ``w_prime`` at least as fast (tested, not assumed, by this package).
    """
    if tau < 0:
        raise ParameterError("step budget must be non-negative")
    k = 2 * tau
    return (
        prefix_of(w, k) == prefix_of(w_prime, k)
        and infix_set(w_prime, k + 1) <= infix_set(w, k + 1)
        and suffix_of(w, k) == suffix_of(w_prime, k)
    )


def lemma7_hypothesis(w: str, w_prime: str, tau: int) -> bool:
    """Transfer condition for deciders: as above but with infix-set equality.

    Equality rather than inclusion is what lets reject verdicts transfer
    alongside accept verdicts.
    """
    if tau < 0:
        raise ParameterError("step budget must be non-negative")
    k = 2 * tau
    return (
        prefix_of(w, k) == prefix_of(w_prime, k)
        and infix_set(w_prime, k + 1) == infix_set(w, k + 1)
        and suffix_of(w, k) == suffix_of(w_prime, k)
    )


@dataclass(frozen=True)
class ContractionReport:
    original: str
    contracted: str
    kappa: int
    node_count: int
    bound: int  # (kappa - 1) + node_count**2; the contracted length never exceeds it


def debruijn_contract(word: str, kappa: int) -> ContractionReport:
    """Shorten a word, preserving its (kappa-1)-prefix/suffix and kappa-infix set.

    Views the word as a walk over its kappa-infixes, numbers the distinct
    infixes by first visit, and splices together shortest paths visiting
    them all in that order, ending at the walk's final node.  Shortest paths
    are found breadth-first with successors explored in lexicographic order,
    so the result is deterministic.  The output is never longer than the
    input, and its length is at most (kappa-1) + m*m for m distinct infixes.
    """
    if kappa < 1:
        raise ParameterError("window length must be at least 1")
    if len(word) <= kappa:
        m = len(infix_set(word, kappa))
        return ContractionReport(word, word, kappa, m, (kappa - 1) + m * m)

    walk = [word[i : i + kappa] for i in range(len(word) - kappa + 1)]
    order: list[str] = []
    seen: set[str] = set()
    for node in walk:
        if node not in seen:
            seen.add(node)
            order.append(node)
    m = len(order)
    letters = sorted(set(word))

    def shortest_path(src: str, dst: str) -> list[str]:
        if src == dst:
            return [src]
        parents = {src: None}
        queue = deque([src])
        while queue:
            u = queue.popleft()
            stem = u[1:]
            for a in letters:
                v = stem + a
                if v in seen and v not in parents:
                    parents[v] = u
                    if v == dst:
                        path = [v]
                        while parents[path[-1]] is not None:
                            path.append(parents[path[-1]])
                        path.reverse()
                        return path
                    queue.append(v)
        raise AssertionError("targets are always reachable along the original walk")

    new_walk = [order[0]]
    for target in order[1:] + [walk[-1]]:
        segment = shortest_path(new_walk[-1], target)
        new_walk.extend(segment[1:])
    contracted = new_walk[0] + "".join(node[-1] for node in new_walk[1:])

    bound = (kappa - 1) + m * m
    if len(contracted) > bound or len(contracted) > len(word):
        raise AssertionError("contraction exceeded its guaranteed bound")
    return ContractionReport(word, contracted, kappa, m, bound)


def critical_contract(decider: Automaton, word: str, i: int) -> str:
    """Extract a short witness that a decision takes more than ``i`` steps.

    For each step j up to ``i``, picks the leftmost cell not yet accepting
    and the leftmost not yet rejecting, keeps the radius-j neighborhoods of
    both (clipped to the window), and restricts the word to the kept
    positions.  Each neighborhood survives as a contiguous run with the same
    border alignment, so those cells evolve identically for j steps and the
    decision on the result again takes more than ``i`` steps; that property
    and the length bound 2*(i+1)**2 are asserted on every call.
    """
    if not decider.is_decider:
        raise ModeError(f"{decider.name} is an acceptor; contraction needs a decider")
    if i < 0:
        raise ParameterError("step budget must be non-negative")

    opens = leftmost_open(decider, word, i)
    if None in opens[-1]:
        raise BudgetError(
            f"{decider.name} decides {word!r} in {len(opens) - 1} steps; need more than {i}"
        )

    n = len(word)
    keep: set[int] = set()
    for j, centres in enumerate(opens):
        for centre in centres:
            keep.update(range(max(0, centre - j), min(n, centre + j + 1)))

    contracted = "".join(word[z] for z in sorted(keep))
    if len(contracted) > 2 * (i + 1) * (i + 1):
        raise AssertionError("kept more positions than the guaranteed bound")

    if run_decider(decider, contracted, max_steps=i).kind != TIMEOUT:
        raise AssertionError("contraction failed to preserve the step budget")
    return contracted
