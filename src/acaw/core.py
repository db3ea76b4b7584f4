"""Bounded one-dimensional cellular automata with unanimous acceptance.

A machine runs on a fixed window of cells, one per input symbol, flanked on
both sides by a permanently inactive border.  All active cells update
synchronously under a radius-1 local rule; border positions never change and
no active cell may turn inactive.  An acceptor stops at the first step whose
configuration is uniformly accepting.  A decider additionally carries a
disjoint set of rejecting states and the chronologically first uniformly
accepting or uniformly rejecting configuration fixes the verdict.
"""

from __future__ import annotations

import bisect
import functools
import itertools
import operator
from collections import deque
from dataclasses import dataclass
from typing import Any, Callable, Iterable, Iterator, Optional

ACCEPT = "accept"
REJECT = "reject"
TIMEOUT = "timeout"

# Step budget used by harnesses when the caller gives none: generous enough
# for every construction in this package (all run in at most ~8.5*sqrt(n)
# steps on any input) yet linear, so runaway rules are cut off quickly.
def default_max_steps(n: int) -> int:
    return 4 * n + 16


class AcawError(Exception):
    """Base class for errors raised by this package."""


class AlphabetError(AcawError):
    """A symbol or state fell outside the machine's declared sets."""


class EmptyInputError(AcawError):
    """Runs are defined on non-empty words only."""


class ModeError(AcawError):
    """An acceptor was used as a decider or the other way around."""


class BudgetError(AcawError):
    """A step or size precondition was violated."""


class ParameterError(AcawError):
    """A construction was asked for a parameter outside its domain."""


class _Inactive:
    """The reserved border state.  A singleton; rendered as ``q``."""

    __slots__ = ()

    def __repr__(self) -> str:
        return "q"

    def __str__(self) -> str:
        return "q"


INACTIVE = _Inactive()


@dataclass(frozen=True, eq=False)
class Automaton:
    """A radius-1 machine with unanimous-acceptance semantics.

    ``rule`` maps (left, centre, right) states to the centre's next state.
    The flanking arguments may be :data:`INACTIVE`; the centre never is, and
    the rule must never output :data:`INACTIVE` (the engine enforces this at
    runtime).  Input symbols double as initial cell states, so ``accepting``
    and ``rejecting`` must be total over every reachable state including the
    raw symbols.  ``rejecting`` is ``None`` exactly for plain acceptors.
    ``states`` enumerates the full active state set when it is small enough
    to write down; machines whose states are generated on the fly leave it
    ``None`` (they cannot be validated exhaustively or saved to rule files).
    Machines compare and hash by identity, so looking one up costs the same
    whatever the size of ``states``.

    ``doomed``, an optional face, may hold only for a state that does not
    accept and that the rule maps to doomed states whatever its neighbours.
    Untraced runs use it.  An acceptor's run stops as a timeout once a cell
    is doomed.  A decider's run on a kernel ends with the reject step its
    kernel run's ``census`` gives, or as a timeout past its budget; on the
    memo it ignores doom.  Traced runs ignore it.

    ``kernel``, optional, runs the machine without calling its rule or faces:
    ``kernel(words)`` takes a list of checked inputs (strings or tuples of
    one-character symbols) and returns one run of them side by side, each
    word evolving as it would alone.  The run lays the words out in the
    given order, each word's cells followed by one spacer bit that is the
    word's verdict bit, and has ``start``, its step-0 configuration,
    ``step(config)`` and ``spacers``, the spacer bits as one int.
    ``finality(config)`` gives two ints, the bits of the words that accept
    and of those that reject (as :func:`classify` judges each word's cells;
    none reject on an acceptor), and, on a machine with a doomed face,
    ``doomed(config)`` the bits of the words with a doomed cell.  A decider
    with a doomed face also gives ``census``: ``(step, bits)`` pairs in step
    order, the bits of the words that ``finality`` first rejects at that
    step, found without stepping the run and listing every word.  The block
    machines' kernel is ``_blockca._BlockPlanes`` and the zoo's rule tables' comes from
    :func:`acaw.rulefile.table_kernel`; both lay their words out as
    :mod:`acaw._planes` does.  A one-word run also gives ``states(config)``,
    the cells' states as the rule would build them, and
    ``leftmost_open(config)``, its leftmost cell that does not accept and
    leftmost that does not reject (None where every cell does).
    Configurations are any values that are equal exactly when their cells'
    states are.  Untraced runs and :func:`run_many` only compare them with
    ``==`` and keep one; traced runs, :func:`configurations` and
    :func:`leftmost_open` hash each once and keep them all until the run
    ends, so they must be hashable.
    A single run is the one-word case;
    :func:`run_many` steps many words as one run.  The run helpers and
    :func:`configurations` step on the kernel; :func:`global_step`,
    :func:`classify`, :func:`face_bits`, :func:`validate` and :func:`observe`
    always use the rule and faces.  A ``dataclasses.replace`` that changes
    ``rule`` or a face must also set ``kernel=None``.
    """

    name: str
    input_alphabet: tuple[str, ...]
    rule: Callable[[Any, Any, Any], Any]
    accepting: Callable[[Any], bool]
    rejecting: Optional[Callable[[Any], bool]] = None
    states: Optional[tuple] = None
    # Machines that settle within a fixed number of steps independent of the
    # input length record that constant here; the run helpers widen the
    # default step budget to cover it.  None means no such promise.
    time_bound: Optional[int] = None
    doomed: Optional[Callable[[Any], bool]] = None
    kernel: Optional[Callable[[list], Any]] = None

    @property
    def is_decider(self) -> bool:
        return self.rejecting is not None

    @functools.cached_property
    def alphabet_set(self) -> frozenset:
        """The input symbols as a set, built once per machine for the runs'
        alphabet checks."""
        return frozenset(self.input_alphabet)

    @functools.cached_property
    def alphabet_deletions(self) -> dict:
        """A ``str.translate`` table that deletes every one-character input
        symbol, so a string word is in the alphabet exactly when it
        translates to ``''``."""
        return dict.fromkeys(ord(s) for s in self.input_alphabet if len(s) == 1)

    @functools.cached_property
    def _runner(self) -> "_Runner":
        """The machine's rule memo and interner, built on first use."""
        return _Runner(self)


def set_automaton(
    name: str,
    input_alphabet: Iterable[str],
    rule: Callable[[Any, Any, Any], Any],
    accept_states: Iterable[Any],
    reject_states: Optional[Iterable[Any]] = None,
    states: Optional[Iterable[Any]] = None,
    time_bound: Optional[int] = None,
) -> Automaton:
    """Build an :class:`Automaton` from explicit accept/reject state sets."""
    accept = frozenset(accept_states)
    if not accept:
        raise AlphabetError(f"{name}: accept set must be non-empty")
    reject = frozenset(reject_states) if reject_states is not None else None
    if reject is not None and accept & reject:
        raise AlphabetError(f"{name}: accept and reject sets overlap")
    return Automaton(
        name=name,
        input_alphabet=tuple(input_alphabet),
        rule=rule,
        accepting=accept.__contains__,
        rejecting=reject.__contains__ if reject is not None else None,
        states=tuple(states) if states is not None else None,
        time_bound=time_bound,
    )


@dataclass(frozen=True)
class Trace:
    """The configuration sequence of one run, step 0 first."""

    automaton: Automaton
    configurations: tuple[tuple, ...]

    def rows(self) -> list[str]:
        return [render_configuration(c) for c in self.configurations]


@dataclass(frozen=True)
class Verdict:
    kind: str  # ACCEPT, REJECT or TIMEOUT
    steps: Optional[int]  # None for timeouts
    trace: Optional[Trace] = None

    @property
    def accepted(self) -> bool:
        return self.kind == ACCEPT


def render_configuration(config: Iterable[Any]) -> str:
    """One trace row: cells space-separated, a single border q on each side."""
    return "q " + " ".join(str(s) for s in config) + " q"


def initial_configuration(automaton: Automaton, word: Iterable[str]) -> tuple:
    return tuple(_symbols(automaton, word))


def _symbols(automaton: Automaton, word: Iterable[str]) -> Any:
    """The word's symbols, checked against the alphabet: a string stays a
    string, whose characters are its symbols, and any other word becomes a
    tuple."""
    if isinstance(word, str):
        symbols, clean = word, not word.translate(automaton.alphabet_deletions)
    else:
        symbols = tuple(word)
        clean = automaton.alphabet_set.issuperset(symbols)
    if not clean:
        bad = next(s for s in symbols if s not in automaton.alphabet_set)
        raise AlphabetError(f"{automaton.name}: input symbol {bad!r} is not in the alphabet")
    return symbols


def global_step(automaton: Automaton, config: tuple) -> tuple:
    """Apply the local rule once to every active cell."""
    runner = automaton._runner
    return runner.states(runner.step(tuple(map(runner.intern, config))))


def classify(automaton: Automaton, config: Iterable[Any]) -> Optional[str]:
    """ACCEPT / REJECT / None for one configuration.

    The uniform-accept test runs first; on an empty window it holds
    vacuously, which never arises in a run because empty inputs are barred.
    Disjointness of the accept and reject sets makes the order immaterial
    for non-empty windows.
    """
    runner = automaton._runner
    accepted, rejected = runner.finality(tuple(map(runner.intern, config)))
    return ACCEPT if accepted else REJECT if rejected else None


def face_bits(automaton: Automaton, states: Iterable[Any]) -> tuple[list, list]:
    """The states' accept bits and reject bits (all False for an acceptor), as
    two lists read from the interner, so each state's faces run only once."""
    runner = automaton._runner
    ids = list(map(runner.intern, states))
    return list(map(runner.acc.__getitem__, ids)), list(map(runner.rej.__getitem__, ids))


def configurations(
    automaton: Automaton, word: Iterable[str], max_steps: Optional[int] = None
) -> Iterator[tuple]:
    """Yield the raw evolution: step-0 configuration, then one per step.

    Does not stop at final configurations (callers classify); stops after
    ``max_steps`` steps or as soon as the evolution provably cycles, since a
    deterministic repeat can never reach a configuration not already seen.
    """
    stepper, config, max_steps = _start(automaton, word, max_steps)
    for config in _evolve(stepper, config, max_steps, {}):
        yield stepper.states(config)


def leftmost_open(
    automaton: Automaton, word: Iterable[str], steps: int
) -> list[tuple[Optional[int], Optional[int]]]:
    """Per step 0, 1, ..., ``steps`` of the run on ``word``: its leftmost cell
    that does not accept and its leftmost that does not reject.

    Each is None when every cell does, and the list ends at the first step
    with a None.  A run that repeats goes on along its cycle, so only a final
    configuration ends the list early.  Reads the faces' bits, from the
    kernel's planes or the rule memo's interner, and decodes no state.
    """
    stepper, config, steps = _start(automaton, word, steps)
    history, opens = {}, []
    for config in _evolve(stepper, config, steps, history):
        opens.append(stepper.leftmost_open(config))
        if None in opens[-1]:
            return opens
    if len(opens) <= steps:  # the run cycled: the orbit goes on from the repeat
        cycle = opens[history[stepper.step(config)] :]
        opens += cycle * ((steps + 1 - len(opens)) // len(cycle) + 1)
    return opens[: steps + 1]


def validate(automaton: Automaton) -> Iterator[tuple[tuple, Any]]:
    """Exhaustively check an enumerated machine and return its rule's outputs.

    Requires ``states``.  Checks that the alphabet lies in the state set,
    that some listed state accepts, that a decider has a listed state that
    rejects and none that does both, and that the rule maps every triple to
    a listed state, never deactivating a live cell.  Returns an iterator of
    ``((left, centre, right), output)`` in walk order: left, centre, right
    nested, the flanks over the states and then :data:`INACTIVE`.  The walk
    calls the rule once per triple and memoizes none of it.
    """
    if automaton.states is None:
        raise ParameterError(f"{automaton.name}: state set is not enumerable")
    states = tuple(automaton.states)
    state_set = set(states)
    if any(isinstance(s, _Inactive) for s in state_set):
        raise AlphabetError(f"{automaton.name}: the border state is not listable")
    for a in automaton.input_alphabet:
        if a not in state_set:
            raise AlphabetError(f"{automaton.name}: input symbol {a!r} not a state")
    accepts, rejects = face_bits(automaton, states)
    for s, accept, reject in zip(states, accepts, rejects):
        if accept and reject:
            raise AlphabetError(f"{automaton.name}: state {s!r} both accepts and rejects")
    if not any(accepts):
        raise AlphabetError(f"{automaton.name}: no listed state accepts")
    if automaton.is_decider and not any(rejects):
        raise AlphabetError(f"{automaton.name}: no listed state rejects")
    flanks = states + (INACTIVE,)
    outputs = automaton._runner.outputs(itertools.product(flanks, states, flanks))
    pairs = zip(itertools.product(flanks, states, flanks), outputs)
    if not state_set.issuperset(outputs):
        (z1, z2, z3), out = next(pair for pair in pairs if pair[1] not in state_set)
        raise AlphabetError(
            f"{automaton.name}: rule output {out!r} on ({z1!r}, {z2!r}, {z3!r})"
            " is not a state"
        )
    return pairs


def observe(
    automaton: Automaton, words: Iterable[Iterable[str]], max_steps: int
) -> tuple[list, list[tuple]]:
    """Run every word to its fixed point and report the triples it used.

    Returns the states in first-seen order (the alphabet first, then word by
    word and step by step, cells left to right) and the rows ``(left,
    centre, right, output)`` as positions into that list, with ``None`` for
    the border.  The words are taken length by length, the lengths in the
    order their first words come, and each length's words in the given
    order: for words sorted by length that is the given order.  Each (left,
    centre, right) seen while any word evolves gives one row, in no
    particular order.

    The words of one length step together, as one configuration with a
    border cell between neighbours.  The border never changes, so each word
    evolves as it would alone.  Raises :class:`ParameterError` when some word
    does not reach a fixed point within ``max_steps`` steps, naming the
    cycle when the words of one length repeat a configuration.
    """
    # A fresh memo on the machine's interner: its keys are then exactly the
    # triples these words use, and each state's faces still run only once.
    runner = _Runner(automaton, automaton._runner.table.states)
    groups: dict[int, list] = {}  # length -> the words' cells, borders between
    for word in words:
        ids = tuple(map(runner.intern, initial_configuration(automaton, word)))
        if not ids:
            raise EmptyInputError(f"{automaton.name}: no run on the empty word")
        groups.setdefault(len(ids), []).extend(ids + (0,))
    order = dict.fromkeys(map(runner.intern, automaton.input_alphabet))
    flat = itertools.chain.from_iterable
    for length, cells in groups.items():
        history: dict = {}  # configuration -> its step
        for config in _evolve(runner, tuple(cells[:-1]), max_steps, history):
            # Before the next step, memoize each border cell between words
            # as staying the border, so the rule never sees a border centre.
            ends, starts = config[length - 1 :: length + 1], config[length + 1 :: length + 1]
            runner.table.update(dict.fromkeys(zip(ends, itertools.repeat(0), starts), 0))
        # Within the budget, the run stopped before repeating step ``repeat``.
        repeat = history[runner.step(config)] if len(history) <= max_steps else None
        if repeat != len(history) - 1:  # the last configuration is no fixed point
            cycle = "" if repeat is None else (
                f": length-{length} probes repeat with period {len(history) - repeat}"
                f" from step {repeat}")
            raise ParameterError(f"{automaton.name}: no fixed point within {max_steps}"
                                 f" steps; not tabulatable{cycle}")
        # Each step's configuration cut into its words, each with its border
        # cell after it; zipped over the steps, word by word, step by step.
        per_step = [zip(*[iter(config + (0,))] * (length + 1)) for config in history]
        order.update(dict.fromkeys(flat(flat(zip(*per_step)))))
        del history, per_step  # the stored configurations are the largest thing held
    order.pop(0, None)  # the border cells between words
    position = {sid: i for i, sid in enumerate(order)}  # get() gives the border None
    keys = list(filter(operator.itemgetter(1), runner.table))  # drop border centres
    outputs = map(runner.table.__getitem__, keys)
    rows = list(zip(*[map(position.get, column) for column in (*zip(*keys), outputs)]))
    return list(map(runner.objs.__getitem__, order)), rows


class _States(dict):
    """State -> id, the border first as 0.  A new state gets the next id and
    has its faces evaluated, once, into ``acc``, ``rej`` and ``doom`` (by id);
    a face the machine lacks reads False."""

    def __init__(self, automaton: Automaton):
        super().__init__({INACTIVE: 0})
        self.faces = automaton.accepting, automaton.rejecting, automaton.doomed
        self.objs: list = [INACTIVE]
        self.acc, self.rej, self.doom = self.columns = [False], [False], [False]

    def __missing__(self, state: Any) -> int:
        row = [face is not None and bool(face(state)) for face in self.faces]
        sid = self[state] = len(self.objs)
        self.objs.append(state)
        for column, value in zip(self.columns, row):
            column.append(value)
        return sid


class _Memo(dict):
    """(left, centre, right) state ids -> the rule's output id.  A missing
    triple calls the rule, interns and checks the output, and stores it."""

    def __init__(self, name: str, rule: Callable, states: _States):
        super().__init__()
        self.name, self.rule, self.states = name, rule, states

    def __missing__(self, key: tuple) -> int:
        z1, z2, z3 = key
        objs = self.states.objs
        rid = self.states[self.rule(objs[z1], objs[z2], objs[z3])]
        if not rid:  # INACTIVE, the border's id
            raise AlphabetError(f"{self.name}: rule drove an active cell inactive")
        self[key] = rid
        return rid


# Digits "0" and "1" to bytes 0 and 1, which ``itertools.compress`` reads as
# false and true.
_BITS = bytes.maketrans(b"01", b"\0\1")

# A runner's finality answers, built once: a run asks after every step.
_ACCEPTED, _REJECTED, _OPEN = (True, False), (False, True), (False, False)


class _Runner:
    """Per-machine cache: states interned to ints, the rule memoized on triples.

    The stepper of every machine without a kernel, with the members a
    kernel's one-word runs have (``step``, ``finality``, ``doomed``,
    ``states``, ``leftmost_open``; its one word's bit is 1), and
    the one behind the object-level helpers for every machine.  The reject
    test ``finality`` makes is bound here, from the machine's mode: an
    acceptor's runner never reports a reject.
    Configurations are tuples of state ids.  A step is one C-level ``map`` of
    the memo's ``__getitem__`` over the cells' (left, centre, right) triples;
    a new triple reaches ``_Memo.__missing__``, which calls the rule.  The
    memo and ``outputs`` are the only callers of a machine's rule, and the
    interner (``intern``) of its faces.  They keep those callables, not the
    machine, so a machine and its cached runner form no cycle and are freed
    together.  Given a machine's interner (``states``), a runner shares it
    and keeps a memo of its own, as :func:`observe` does.
    """

    def __init__(self, automaton: Automaton, states: Optional[_States] = None):
        self.rule = automaton.rule
        states = _States(automaton) if states is None else states
        self.table = _Memo(automaton.name, automaton.rule, states)
        self.intern = states.__getitem__
        self.objs, self.acc, self.rej = states.objs, states.acc, states.rej
        self.doom = states.doom if automaton.doomed else None
        # bound once: a run calls these on every step; an acceptor never rejects
        self.lookup, self.accepts = self.table.__getitem__, self.acc.__getitem__
        self.rejects = self.rej.__getitem__ if automaton.is_decider else None

    def step(self, config: tuple) -> tuple:
        return tuple(map(self.lookup, zip((0,) + config, config, config[1:] + (0,))))

    def outputs(self, triples: Iterable[tuple]) -> list:
        """The rule on each triple of states, memoizing none (``validate``'s walk)."""
        return list(itertools.starmap(self.rule, triples))

    def finality(self, config: tuple) -> tuple[bool, bool]:
        if all(map(self.accepts, config)):
            return _ACCEPTED
        if self.rejects and all(map(self.rejects, config)):
            return _REJECTED
        return _OPEN

    def doomed(self, config: tuple) -> bool:
        return any(map(self.doom.__getitem__, config))

    def leftmost_open(self, config: tuple) -> tuple[Optional[int], Optional[int]]:
        bits = ([*map(face.__getitem__, config)] for face in (self.acc, self.rej))
        return tuple(None if all(face) else face.index(False) for face in bits)

    def states(self, config: tuple) -> tuple:
        return tuple(map(self.objs.__getitem__, config))


def _budget(automaton: Automaton, n: int, max_steps: Optional[int]) -> int:
    """The step budget of a run on a word of ``n`` symbols: ``max_steps``, or
    the length's default widened to the machine's time bound."""
    if max_steps is None:
        max_steps = default_max_steps(n)
        if automaton.time_bound is not None:
            max_steps = max(max_steps, automaton.time_bound + 1)
    elif max_steps < 0:
        raise ParameterError(f"max_steps must be >= 0, not {max_steps}")
    return max_steps


def _checked(
    automaton: Automaton, word: Iterable[str], max_steps: Optional[int]
) -> tuple[Any, int]:
    """The word's symbols, checked, and the step budget of a run on it."""
    symbols = _symbols(automaton, word)
    if not symbols:
        raise EmptyInputError(f"{automaton.name}: no run on the empty word")
    return symbols, _budget(automaton, len(symbols), max_steps)


def _start(
    automaton: Automaton, word: Iterable[str], max_steps: Optional[int]
) -> tuple[Any, Any, int]:
    """The run's stepper (the kernel's one-word run, else the machine's
    runner), its step-0 configuration and the budget."""
    symbols, max_steps = _checked(automaton, word, max_steps)
    if automaton.kernel is not None:
        run = automaton.kernel([symbols])
        return run, run.start, max_steps
    runner = automaton._runner
    return runner, tuple(map(runner.intern, symbols)), max_steps


def _evolve(
    stepper: Any, config: Any, max_steps: int, history: Optional[dict] = None
) -> Iterator[Any]:
    """Yield ``config``, then one configuration per step for ``max_steps`` steps.

    The engine's only stepping loop and its cycle check, for a runner or a
    kernel's run.  Each configuration is its own cycle key, and the loop
    stops early, before a configuration that repeats an earlier one: the
    evolution is deterministic, so a repeat can never lead anywhere new.
    Whether the caller keeps ``history`` picks the rule that finds repeats.

    * With a dict, the loop stores each configuration under its step before
      it yields it, hashing each once, and stops before the first repeat: on
      an evolution with a tail of length mu and a period of lambda, before
      step mu + lambda, whatever the period.  So the dict, in order, is every
      configuration yielded so far, even when the caller stops at step 0; a
      traced run reads its trace from it.  Traced runs,
      :func:`configurations`, :func:`leftmost_open` and :func:`observe` use it.
    * Without, the anchor rule (after Brent 1980) compares each
      configuration with one saved anchor, re-saved at steps 1, 2, 4, 8, ...
      It hashes nothing and keeps nothing.  The same evolution stops by step
      2 * max(mu, lambda) + lambda, or at the budget: the first anchor saved
      at step 2^k >= max(mu, lambda) lies on the cycle and is met again
      lambda steps later, before the next re-save.
    """
    if history is not None:
        history[config] = 0
    yield config
    anchor, due = config, 1
    for steps in range(1, max_steps + 1):
        config = stepper.step(config)
        if history is not None:
            if history.setdefault(config, steps) != steps:
                return
        elif config == anchor:
            return
        elif steps == due:
            anchor, due = config, 2 * due
        yield config


def _run(
    automaton: Automaton,
    word: Iterable[str],
    max_steps: Optional[int],
    collect_trace: bool,
) -> Verdict:
    """One run, stopped at its first final configuration, a repeat or the
    budget, and on an untraced run also at a doomed cell.

    A traced run finds repeats by :func:`_evolve`'s exact history and reads
    its trace from it, so the trace ends just before the first repeat; an
    untraced run by the anchor rule, which hashes and keeps nothing.  Both
    catch any period.  They stop a cycling run at different
    steps, but never give a different verdict or step count: either stops
    only at a configuration equal to an earlier one, from where the run goes
    round configurations already found not final.

    A doomed acceptor run is a timeout.  A doomed decider run can only
    reject, so on a kernel it ends with the reject step its run's ``census``
    gives, or as a timeout when that step is past the budget: a run that
    rejects at all cannot repeat before it does.  A decider on the memo
    has no census and ignores doom.
    """
    stepper, config, max_steps = _start(automaton, word, max_steps)
    # Doom is successor-closed, so looking only at steps 0, 1, 2, 4, ... stops
    # a hopeless run at most twice as late, with no scan at every step.  A
    # decider on the memo has no census, so it ignores doom.
    doom = automaton.doomed is not None and not collect_trace and (
        automaton.kernel is not None or not automaton.is_decider)
    outcome, at = TIMEOUT, None
    history = {} if collect_trace else None  # the trace, once the run ends
    for steps, config in enumerate(_evolve(stepper, config, max_steps, history)):
        accepted, rejected = stepper.finality(config)
        if accepted or rejected:
            outcome, at = (ACCEPT if accepted else REJECT), steps
            break
        if doom and not steps & (steps - 1) and stepper.doomed(config):
            if automaton.is_decider:
                ((reject, _),) = stepper.census
                if reject <= max_steps:
                    outcome, at = REJECT, reject
            break
    # Otherwise a timeout: the budget ran out, a repeat pinned the future orbit
    # to non-final configurations already classified, or a doomed cell bars
    # acceptance.
    trace = Trace(automaton, tuple(map(stepper.states, history))) if collect_trace else None
    return Verdict(outcome, at, trace)


def run_many(
    automaton: Automaton, words: Iterable[Iterable[str]], max_steps: Optional[int] = None
) -> list[tuple[str, Optional[int]]]:
    """Each word's ``(kind, steps)``, as :func:`run_acceptor` or
    :func:`run_decider` (by the machine's mode) gives them untraced.

    Every word is checked before anything steps.  A machine with a kernel
    runs all the words as one run through :func:`_evolve`; each word keeps its
    own budget (``max_steps``, or its length's default) and stops at its own
    verdict.  On a machine with a doomed face, a word also stops once one of
    its cells is doomed (looked for at steps 0, 1, 2, 4, ...): an acceptor's
    as a timeout, a decider's with a reject at the step the run's ``census``
    gives it, or as a timeout where that step is past its budget.  The run
    finds repeats by :func:`_evolve`'s anchor rule, as a single untraced run
    does.  A repeat of the whole run's configuration repeats each open
    word's, which pins the word to a cycle of configurations already found
    not final, so each is a timeout, as its single run would be.  Other
    machines run word by word.

    The run lays the words out by length, shortest first and in the given
    order within a length, so each length's words are one span of bits:
    word j of a span of n-symbol words has its spacer at the span's first
    spacer plus j * (n + 1).  A budget depends only on the length and
    grows with it, so a span's words expire together, and an event's words
    are one strided slice of its bits per span.
    """
    inputs = list(words)
    try:
        joined = "".join(inputs)
    except TypeError:  # some words are sequences of symbols
        inputs = [word if isinstance(word, str) else tuple(word) for word in inputs]
        clean = automaton.alphabet_set.issuperset(itertools.chain.from_iterable(inputs))
    else:  # plain strings, the usual case: deleting every symbol leaves nothing
        clean = not joined.translate(automaton.alphabet_deletions)
    lengths = list(map(len, inputs))
    ordered = sorted(lengths)
    if not clean or (ordered and not ordered[0]):
        for word in inputs:
            _checked(automaton, word, max_steps)  # raises at the first bad word
    if automaton.kernel is None or not inputs:
        verdicts = (_run(automaton, word, max_steps, False) for word in inputs)
        return [(v.kind, v.steps) for v in verdicts]
    if ordered == lengths:
        order, batch = list(range(len(inputs))), inputs
    else:
        order = sorted(range(len(inputs)), key=lengths.__getitem__)
        batch = list(map(inputs.__getitem__, order))
    # A span's bits, ``low`` to ``high``, leave the run when its budget runs
    # out.  In an event's bits as one digit string (bit 0 last), its spacers
    # are one strided slice, in word order.
    width = sum(ordered) + len(ordered)
    reads, expiring = [], {}
    first = low = 0
    while first < len(ordered):
        n = ordered[first]
        count = bisect.bisect_right(ordered, n, first) - first
        high = low + count * (n + 1)
        budget = _budget(automaton, n, max_steps)
        expiring[budget] = expiring.get(budget, 0) | (1 << high) - (1 << low)
        spacers = slice(width - 1 - low - n, width - 1 - high if high < width else None, -n - 1)
        reads.append((order[first : first + count], spacers))
        first, low = first + count, high
    digits = f"0{width}b"
    results: list = [(TIMEOUT, None)] * len(inputs)

    def record(kind: str, steps: int, bits: int) -> None:
        text, outcome = format(bits, digits), itertools.repeat((kind, steps))
        for indices, spacers in reads:
            flags = text[spacers]
            if "1" in flags:
                hits = itertools.compress(indices, flags.encode().translate(_BITS))
                deque(map(results.__setitem__, hits, outcome), 0)

    run = automaton.kernel(batch)
    open_ = run.spacers
    decider, doom = automaton.is_decider, automaton.doomed is not None
    for steps, config in enumerate(_evolve(run, run.start, max(expiring))):
        accepted, rejected = run.finality(config)
        for kind, bits in ((ACCEPT, accepted & open_), (REJECT, rejected & open_)):
            if bits:
                open_ ^= bits
                record(kind, steps, bits)
        if doom and not steps & (steps - 1):
            doomed = open_ & run.doomed(config)
            open_ ^= doomed
            if decider and doomed:  # each can only reject, at its census step
                for at, bits in run.census:
                    bits &= doomed
                    if bits:  # less the words whose budget ends first: they time out
                        late = sum(m for budget, m in expiring.items() if budget < at)
                        record(REJECT, at, bits ^ (bits & late))  # spans are disjoint
        open_ ^= open_ & expiring.get(steps, 0)
        if not open_:
            break
    return results


def run_acceptor(
    automaton: Automaton,
    word: Iterable[str],
    max_steps: Optional[int] = None,
    collect_trace: bool = False,
) -> Verdict:
    """Run until the first uniformly accepting configuration or the budget.

    The verdict step count is the minimal step index of an accepting
    configuration; step 0 (the untouched input) counts.
    """
    if automaton.is_decider:
        raise ModeError(f"{automaton.name} is a decider; use run_decider")
    return _run(automaton, word, max_steps, collect_trace)


def run_decider(
    automaton: Automaton,
    word: Iterable[str],
    max_steps: Optional[int] = None,
    collect_trace: bool = False,
) -> Verdict:
    """Run until the chronologically first accepting or rejecting configuration.

    A timeout is possible only for broken deciders and is reported as a
    diagnostic rather than an error.
    """
    if not automaton.is_decider:
        raise ModeError(f"{automaton.name} is an acceptor; use run_acceptor")
    return _run(automaton, word, max_steps, collect_trace)
