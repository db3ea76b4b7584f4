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
    EmptyInputError,
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
    infixes by first visit, and splices together shortest paths (over the
    word's own infixes) visiting them all in that order, ending at the
    walk's final node.  Most of the splice needs no search:

    * first visits at consecutive positions p, p+1 are joined by the walk's
      own edge, the only shortest path, so a run of them is a slice of the
      word;
    * between two nodes, a walk of d <= kappa steps is unique: it spells
      ``src + dst[kappa-d:]`` and exists iff ``src[d:] == dst[:kappa-d]``,
      so the shortest path is the least such d whose windows all occur;
    * only a jump whose shortest path is longer than kappa is searched,
      breadth-first with successors in lexicographic order.

    The result is deterministic and the same as a breadth-first search for
    every jump.  It is never longer than the input, and its length is at
    most (kappa-1) + m*m for m distinct infixes.  The empty word has no walk
    and is refused with :class:`EmptyInputError`.
    """
    if kappa < 1:
        raise ParameterError("window length must be at least 1")
    if not word:
        raise EmptyInputError("contraction takes a non-empty word")
    if len(word) <= kappa:
        m = len(infix_set(word, kappa))
        return ContractionReport(word, word, kappa, m, (kappa - 1) + m * m)

    n = len(word) - kappa + 1
    walk = [word[i : i + kappa] for i in range(n)]
    first = dict(zip(reversed(walk), range(n - 1, -1, -1)))  # node -> first visit
    starts = sorted(first.values())
    m = len(starts)

    def bridge(src: str, dst: str, span: int) -> str:
        """The letters that a shortest path from ``src`` to ``dst`` appends,
        where the walk itself goes from one to the other in ``span`` steps."""
        for d in range(1, min(span, kappa) + 1):
            if dst.startswith(src[d:]):  # the only d-step walk: src + dst[kappa-d:]
                path = src + dst[kappa - d :]
                if all(path[j : j + kappa] in first for j in range(1, d)):
                    return path[kappa:]
        # Longer than kappa steps: search breadth-first, successors in order.
        letters = sorted(set(word))
        parents = {src: None}
        queue = deque([src])
        while queue:
            u = queue.popleft()
            stem = u[1:]
            for a in letters:
                v = stem + a
                if v in first and v not in parents:
                    parents[v] = u
                    if v == dst:
                        tail = ""
                        while v != src:
                            tail, v = v[-1] + tail, parents[v]
                        return tail
                    queue.append(v)
        raise AssertionError("targets are always reachable along the original walk")

    jumps = [(p, q) for p, q in zip(starts, starts[1:]) if q != p + 1]
    last = starts[-1]
    if walk[-1] != walk[last]:
        jumps.append((last, n - 1))
    pieces = []
    cut = 0  # word[cut:p + kappa] spells the run of first visits up to p
    for p, q in jumps:
        pieces.append(word[cut : p + kappa])
        pieces.append(bridge(walk[p], walk[q], q - p))
        cut = q + kappa
    pieces.append(word[cut : last + kappa])
    contracted = "".join(pieces)

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
