"""Sliding-window language tests and their constant-time compilations.

A scanner checks a word with one window predicate: the length-k prefix must
lie in ``pi``, every length-k infix in ``mu``, and the length-k suffix in
``sigma``.  Boolean combinations of scanners form the locally testable
languages; membership then depends only on which leaf scanners accept the
word, and so only on the word's profile (:class:`acaw.words.Profile`:
prefix, infix set, suffix) at the expression's window size.

Both compilers below share one machine skeleton: every cell notes at step 0
whether its left neighbour is the border, then copies one more symbol from
its right neighbour per step until it holds the G symbols ahead of it, with
the border padded by ``q``.  The next step keeps only one bit per leaf, its
window certificate, and a counter that walks a fixed schedule of (mask, bit)
checkpoints and stays at the last.  A cell where every leaf in the mask
holds shows the face of the bit (accept, or reject for deciders), the others
stay neutral, and the all-cells condition turns the conjunction of the
per-cell certificates into exactly the scanner or leaf-set predicate.  The
schedule length depends only on the expression, hence constant time.  An
expression's schedule is a decision list of leaf sets: the full list of all
2^m sets of its m leaves, larger first, with every checkpoint dropped whose
verdict a later one already gives.
"""

from __future__ import annotations

import itertools
import pathlib
from dataclasses import dataclass, field
from functools import partial
from typing import Iterator, NamedTuple, Optional

_TABULATE_STEP_CEILING = 10_000
# The most probe words a tabulation runs, |Σ| + ... + |Σ|^probe_len; more are
# refused before any runs.  The largest probe set of the tests and demos is
# 1,022 words, and of the lt benchmark 363.  A binary scanner of width 11,
# the widest admitted, has 65,534; each width more doubles the probes and
# about doubles the tabulation's memory.
_PROBE_BUDGET = 1 << 16
# The schedule search reads the expression on every verdict vector, 2^m of
# them for m distinct leaves; more are refused before anything is built.
_SEARCH_BUDGET = 1 << 12

from .core import (
    AlphabetError,
    Automaton,
    EmptyInputError,
    ModeError,
    ParameterError,
    global_step,  # unused here; benchmarks/tracing.py wraps this module attribute
    observe,
)
from .rulefile import (
    RuleFileError, face_lists, file_lines, read_directives, read_text, serialize_rules,
)
from .words import profile


@dataclass(frozen=True)
class Scanner:
    """One window test: prefix set, infix set, suffix set at width k."""

    k: int
    alphabet: tuple
    pi: frozenset
    sigma: frozenset
    mu: frozenset
    name: str = field(default="scanner", compare=False)  # equal tests are equal scanners

    def __post_init__(self):
        if self.k < 1:
            raise ParameterError(f"{self.name}: window width must be >= 1")
        symbols = set(self.alphabet)
        if "q" in symbols:
            raise ParameterError(f"{self.name}: the symbol q is reserved")
        for label, words in (("pi", self.pi), ("sigma", self.sigma), ("mu", self.mu)):
            for w in words:
                if len(w) != self.k:
                    raise ParameterError(
                        f"{self.name}: {label} word {w!r} has a bad length for k={self.k}"
                    )
                if not set(w) <= symbols:
                    raise ParameterError(
                        f"{self.name}: {label} word {w!r} leaves the alphabet"
                    )


def scanner_accepts(scanner: Scanner, word: str) -> bool:
    """Reference semantics of one scanner.

    Words shorter than k are never accepted: their infix set is the word
    itself, which cannot lie inside a set of length-k windows.
    """
    if not word:
        raise EmptyInputError("scanners take non-empty words")
    alphabet = set(scanner.alphabet)
    if not alphabet.issuperset(word):
        extra = sorted(set(word) - alphabet)
        raise AlphabetError(f"{scanner.name}: symbols {extra} outside the alphabet")
    k = scanner.k
    if len(word) < k:
        return False
    if word[:k] not in scanner.pi or word[-k:] not in scanner.sigma:
        return False
    return scanner.mu.issuperset([word[i : i + k] for i in range(len(word) - k + 1)])


@dataclass(frozen=True)
class LTExpression:
    """Boolean tree over scanners; complement is relative to the non-empty words."""

    op: str  # 'scanner', 'or', 'and', 'not'
    children: tuple = ()
    scanner: Optional[Scanner] = None

    def __post_init__(self):
        if self.op == "scanner":
            if self.scanner is None or self.children:
                raise ParameterError("scanner node needs a scanner and no children")
        elif self.op == "not":
            if len(self.children) != 1:
                raise ParameterError("negation takes exactly one operand")
        elif self.op in ("or", "and"):
            if not self.children:
                raise ParameterError(f"{self.op} needs at least one operand")
        else:
            raise ParameterError(f"unknown operator {self.op!r}")

    def nodes(self) -> Iterator["LTExpression"]:
        """Every node of the tree, parents before children, left to right."""
        yield self
        for child in self.children:
            yield from child.nodes()

    def leaves(self) -> list[Scanner]:
        return [node.scanner for node in self.nodes() if node.op == "scanner"]

    @property
    def alphabet(self) -> tuple:
        alphabets = {leaf.alphabet for leaf in self.leaves()}
        if len(alphabets) != 1:
            raise AlphabetError("expression mixes scanner alphabets")
        return next(iter(alphabets))

    @property
    def window(self) -> int:
        return max(leaf.k for leaf in self.leaves())


def lt_scanner(scanner: Scanner) -> LTExpression:
    return LTExpression("scanner", scanner=scanner)


def lt_or(*children: LTExpression) -> LTExpression:
    return LTExpression("or", children=tuple(children))


def lt_and(*children: LTExpression) -> LTExpression:
    return LTExpression("and", children=tuple(children))


def lt_not(child: LTExpression) -> LTExpression:
    return LTExpression("not", children=(child,))


def _evaluate(expr: LTExpression, holds, arg) -> bool:
    """The expression's value when each leaf scanner s is ``holds(s, arg)``."""
    op = expr.op
    if op == "scanner":
        return holds(expr.scanner, arg)
    if op == "not":
        return not _evaluate(expr.children[0], holds, arg)
    stop = op == "or"  # the value that ends the loop: true for or, false for and
    for child in expr.children:
        if _evaluate(child, holds, arg) == stop:
            return stop
    return not stop


def lt_eval(expr: LTExpression, word: str) -> bool:
    """Reference evaluator; ground truth for every compiler in this module."""
    if not word:
        raise EmptyInputError("locally testable languages live inside the non-empty words")
    return _evaluate(expr, scanner_accepts, word)


@dataclass(frozen=True)
class ProfileTable:
    """Membership bit for every profile any word can realize."""

    k: int
    alphabet: tuple
    bits: dict = field(hash=False)  # words.Profile -> bit
    realizers: dict = field(hash=False)  # one witness word per profile


def lt_profile_table(expr: LTExpression) -> ProfileTable:
    """Every realizable profile with its verdict, by a walk on profile space.

    Appending a letter changes a profile in a way that depends on the profile
    alone, so breadth-first search from the one-letter words visits each
    realizable profile exactly once and carries a short realizing word along.
    """
    k = expr.window
    alphabet = tuple(sorted(expr.alphabet))
    realizers = {profile(letter, k): letter for letter in alphabet}  # each its own profile
    queue = list(realizers)
    for key in queue:
        word = realizers[key]
        for letter in alphabet:
            nxt = key.extend(letter)
            if nxt not in realizers:
                realizers[nxt] = word + letter
                queue.append(nxt)
    bits = {key: lt_eval(expr, word) for key, word in realizers.items()}
    return ProfileTable(k=k, alphabet=alphabet, bits=bits, realizers=realizers)


# ---------------------------------------------------------------------------
# The shared window-gathering skeleton.


class WState(NamedTuple):  # a cell while it gathers
    at_left: bool  # the left neighbour is the border
    ahead: tuple  # symbols at offsets 0, 1, ..., 'q' beyond the border


class Checked(NamedTuple):  # a cell after gathering: all that its faces read
    checkpoint: int  # index into the schedule; stays at the last one
    holds: int  # bit i is set when leaf i's certificate holds at this cell


_new = tuple.__new__  # a WState or Checked from its fields, skipping their Python __new__


class _WindowRule:
    # Tabulation calls this once per new triple, so it dispatches on exact
    # types (the cells are str, WState or Checked; the border is neither) and
    # builds its cells with ``_new``, about half the cost of the constructors.
    def __init__(self, gather: int, certificates: list, last: int):
        self.gather, self.certificates, self.last = gather, certificates, last

    def __call__(self, left, center, right):
        kind = type(center)
        if kind is Checked:
            return _new(Checked, (min(center[0] + 1, self.last), center[1]))
        if kind is str:
            rsym = right if type(right) is str else "q"
            return _new(WState, (type(left) is not str, (center, rsym)))
        at_left, ahead = center
        if len(ahead) <= self.gather:
            rsym = right[1][-1] if type(right) is WState else "q"
            return _new(WState, (at_left, ahead + (rsym,)))
        holds, bit = 0, 1
        for leaf in self.certificates:
            if leaf(center):
                holds |= bit
            bit <<= 1
        return _new(Checked, (0, holds))


def _certificate(k: int, pi, mu, sigma, state: WState) -> bool:
    """This cell's share of a window test, from the symbols ahead of it.

    A cell whose k-window ahead is full checks it against ``mu``, and also
    against ``sigma`` when the border follows it.  A cell at the left border
    checks the symbols up to k ahead against ``pi``, and against ``sigma``
    too if the word ends within them.  So the conjunction over all cells
    holds exactly when the word's k-prefix lies in pi, its k-infixes in mu
    and its k-suffix in sigma, where a word shorter than k is its own
    prefix, only infix and suffix.
    """
    ahead = state.ahead  # offsets 0..G with G >= k
    window = "".join(ahead[:k])
    if ahead[k - 1] != "q":
        if window not in mu or (ahead[k] == "q" and window not in sigma):
            return False
    if state.at_left:
        start = window.partition("q")[0]
        if start not in pi or (len(start) < k and start not in sigma):
            return False
    return True


def _face(checks: list, want: bool, state) -> bool:
    """Whether the cell's checkpoint (mask, bit) has bit ``want`` and all of mask holds."""
    if not isinstance(state, Checked):
        return False
    mask, bit = checks[state.checkpoint]
    return bit == want and state.holds & mask == mask


def _window_machine(name: str, alphabet, leaves: list, checks: list, decider: bool) -> Automaton:
    """Both compilers' machine: the ``checks`` are (mask, bit) checkpoints
    over the leaves' bits, one per step after gathering the widest leaf."""
    gather = max((leaf.k for leaf in leaves), default=1)
    schedule = checks or [(0, False)]  # no checkpoints: one that never accepts
    certificates = [partial(_certificate, s.k, s.pi, s.mu, s.sigma) for s in leaves]
    return Automaton(
        name=name,
        input_alphabet=tuple(alphabet),
        rule=_WindowRule(gather, certificates, len(schedule) - 1),
        accepting=partial(_face, schedule, True),
        rejecting=partial(_face, schedule, False) if decider else None,
        time_bound=gather + len(checks) + 1,
    )


def compile_slt_union_to_aca(scanners: list) -> Automaton:
    """Acceptor for the union of the scanner languages, constant accept time.

    Cells gather the K symbols ahead in K steps (K the largest scanner width),
    then checkpoint K+i certifies scanner i; the word is accepted at the
    first checkpoint whose scanner accepts it.  An empty list compiles to a
    machine that accepts nothing.
    """
    scanners = list(scanners)
    alphabets = {s.alphabet for s in scanners}
    if len(alphabets) > 1:
        raise AlphabetError("scanners disagree on the alphabet")
    alphabet = next(iter(alphabets)) if alphabets else ("0", "1")
    checks = [(1 << i, True) for i in range(len(scanners))]
    return _window_machine("slt-union", alphabet, scanners, checks, decider=False)


def _decision_list(value: list, m: int) -> list:
    """The schedule: (mask, bit) checkpoints over m leaves such that, on every
    verdict vector V (the mask of the leaves that accept), the first
    checkpoint whose mask lies in V has bit ``value[V]``.

    The full list of all masks, larger first, is one such schedule: the first
    match of V is V itself.  Walking it from the back, the checkpoint of each
    mask T is dropped when the first kept checkpoint after it that lies in T
    has T's bit.  Only T's own vector falls through, since every larger one
    still meets its own checkpoint first.  ``first[T]`` is where T's first
    match now is: T's own position when kept, else the least of its proper
    subsets' ``first``, all decided before T.
    """
    order = [
        sum(1 << i for i in subset)
        for size in range(m, -1, -1)
        for subset in itertools.combinations(range(m), size)
    ]
    first = [0] * len(order)
    kept = []
    for at in reversed(range(len(order))):
        mask = order[at]
        below = min((first[mask & ~(1 << i)] for i in range(m) if mask >> i & 1), default=None)
        if below is not None and value[order[below]] == value[mask]:
            first[mask] = below
        else:
            first[mask] = at
            kept.append(mask)
    return [(mask, value[mask]) for mask in reversed(kept)]


def compile_lt_to_daca(expr: LTExpression) -> Automaton:
    """Decider for the expression language, constant decision time.

    Every cell certifies its own window, so checkpoint (T, bit) fires exactly
    when every leaf in T accepts the word, that is when T lies in the set V
    of leaves that accept it.  The schedule is a decision list over the m
    distinct leaves (:func:`_decision_list`): its first checkpoint inside
    each V has the bit of the expression with exactly V's leaves true.  The
    time bound is the gather, one step per checkpoint, and one more.  The
    search reads the expression on all 2^m vectors, realizable or not, so
    more than ``_SEARCH_BUDGET`` of them raise ParameterError.
    """
    leaves = list(dict.fromkeys(expr.leaves()))
    vectors = 1 << len(leaves)
    if vectors > _SEARCH_BUDGET:
        raise ParameterError(f"{len(leaves)} distinct scanner leaves give {vectors} verdict"
                             f" vectors to search; the budget is {_SEARCH_BUDGET}")
    index = {leaf: 1 << i for i, leaf in enumerate(leaves)}
    value = [
        _evaluate(expr, lambda leaf, vector: vector & index[leaf] != 0, vector)
        for vector in range(vectors)
    ]
    checks = _decision_list(value, len(leaves))
    return _window_machine("lt-decider", sorted(expr.alphabet), leaves, checks, decider=True)


# ---------------------------------------------------------------------------
# Combinators.


def daca_complement(decider: Automaton) -> Automaton:
    """Swap the two verdict faces; decides the complement within Sigma^+."""
    if not decider.is_decider:
        raise ModeError(f"{decider.name} is an acceptor and has no reject face to swap")
    return Automaton(
        name=f"not-{decider.name}",
        input_alphabet=decider.input_alphabet,
        rule=decider.rule,
        accepting=decider.rejecting,
        rejecting=decider.accepting,
        states=decider.states,
        time_bound=decider.time_bound,
    )


class _UnionState(NamedTuple):
    turn: int  # 0: the first machine just moved, 1: the second did, 2: step 1
    first: object
    second: object


class _UnionRule:
    def __init__(self, rule_a, rule_b):
        self.rule_a = rule_a
        self.rule_b = rule_b

    def __call__(self, left, center, right):
        def part(neighbor, idx):
            return neighbor[idx] if isinstance(neighbor, _UnionState) else neighbor

        if not isinstance(center, _UnionState):
            return _UnionState(2, center, center)
        if center.turn == 2:
            return _UnionState(1, center.first, center.second)
        if center.turn == 0:
            return _UnionState(
                1,
                center.first,
                self.rule_b(part(left, 2), center.second, part(right, 2)),
            )
        return _UnionState(
            0,
            self.rule_a(part(left, 1), center.first, part(right, 1)),
            center.second,
        )


class _UnionFace:
    def __init__(self, accept_a, accept_b):
        self.accept_a = accept_a
        self.accept_b = accept_b

    def __call__(self, state) -> bool:
        if not isinstance(state, _UnionState):
            return False
        if state.turn == 1:
            return self.accept_b(state.second)
        return self.accept_a(state.first)


def aca_union(a1: Automaton, a2: Automaton) -> Automaton:
    """Round-robin product acceptor for L(a1) | L(a2).

    Step 1 shows the first machine's step-0 faces and step 2 the second's.
    From then on odd steps advance the first machine and show its faces,
    even steps the second, so a step-t acceptance of the first machine
    shows at step 2t+1 and one of the second at 2t+2.
    """
    if a1.is_decider or a2.is_decider:
        raise ModeError("the union combinator takes acceptors")
    if set(a1.input_alphabet) != set(a2.input_alphabet):
        raise AlphabetError(
            f"{a1.name} and {a2.name} read different alphabets"
        )
    bound = None
    if a1.time_bound is not None and a2.time_bound is not None:
        bound = 2 * max(a1.time_bound, a2.time_bound) + 2
    return Automaton(
        name=f"union-{a1.name}-{a2.name}",
        input_alphabet=a1.input_alphabet,
        rule=_UnionRule(a1.rule, a2.rule),
        accepting=_UnionFace(a1.accepting, a2.accepting),
        time_bound=bound,
    )


class _TimeoutState(NamedTuple):
    counter: int
    inner: object


class _TimeoutRule:
    def __init__(self, rule, limit):
        self.rule = rule
        self.limit = limit

    def __call__(self, left, center, right):
        def part(neighbor):
            return neighbor.inner if isinstance(neighbor, _TimeoutState) else neighbor

        if not isinstance(center, _TimeoutState):
            return _TimeoutState(1, self.rule(left, center, right))
        return _TimeoutState(
            min(center.counter + 1, self.limit),
            self.rule(part(left), center.inner, part(right)),
        )


def aca_to_daca(acceptor: Automaton, t_const: int) -> Automaton:
    """Wrap a constant-time acceptor into a decider by a timeout of t_const.

    Cells count steps in lockstep and all enter reject states at step
    t_const + 1.  If the acceptor actually needs more than t_const steps on
    some member, the wrapper misclassifies it; verify_equivalence exposes
    such misuse.
    """
    if acceptor.is_decider:
        raise ModeError(f"{acceptor.name} already is a decider")
    if t_const < 0:
        raise ParameterError("the time bound must be >= 0")
    limit = t_const + 1
    inner_accept = acceptor.accepting

    def accepting(state) -> bool:
        if isinstance(state, _TimeoutState):
            return state.counter <= t_const and inner_accept(state.inner)
        return inner_accept(state)

    def rejecting(state) -> bool:
        return isinstance(state, _TimeoutState) and state.counter == limit

    return Automaton(
        name=f"{acceptor.name}-within-{t_const}",
        input_alphabet=acceptor.input_alphabet,
        rule=_TimeoutRule(acceptor.rule, limit),
        accepting=accepting,
        rejecting=rejecting,
        time_bound=limit,
    )


# ---------------------------------------------------------------------------
# File formats.

# An expression nests at most this deep; the parser, ``lt_eval`` and the
# compilers all recurse once per level.
_MAX_NESTING = 100

SCANNER_KEYS = ("k", "alphabet", "pi", "sigma", "mu")


def parse_scanner(text: str, name: str = "scanner") -> Scanner:
    """Parse the scanner file format: k, alphabet, pi, sigma, mu directives."""
    fields, _ = read_directives(text, name, SCANNER_KEYS)
    at, k = fields["k"]
    try:
        (k,) = map(int, k)
    except ValueError:
        raise RuleFileError(f"{name}:{at}: k must be an integer") from None
    at, alphabet = fields["alphabet"]
    if not alphabet or any(len(sym) != 1 for sym in alphabet):
        raise RuleFileError(f"{name}:{at}: alphabet must list single-character symbols")
    if len(set(alphabet)) != len(alphabet):
        raise RuleFileError(f"{name}:{at}: duplicate alphabet symbols")
    try:
        return Scanner(
            k=k,
            alphabet=alphabet,
            pi=frozenset(fields["pi"][1]),
            sigma=frozenset(fields["sigma"][1]),
            mu=frozenset(fields["mu"][1]),
            name=name,
        )
    except ParameterError as exc:
        raise RuleFileError(str(exc)) from None


def load_scanner(path) -> Scanner:
    return parse_scanner(read_text(path), name=pathlib.Path(path).stem)


def _tokenize_expression(text: str) -> list[str]:
    return text.replace("(", " ( ").replace(")", " ) ").split()


def _parse_expression(tokens: list[str], scanners: dict, where: str) -> LTExpression:
    if not tokens:
        raise RuleFileError(f"{where}: empty expression")

    def parse(pos: int, depth: int):
        if tokens[pos] == "(":
            if depth == _MAX_NESTING:
                raise RuleFileError(
                    f"{where}: expression nests deeper than {_MAX_NESTING} levels"
                )
            if pos + 1 >= len(tokens):
                raise RuleFileError(f"{where}: unclosed parenthesis")
            op = tokens[pos + 1]
            if op not in ("or", "and", "not"):
                raise RuleFileError(f"{where}: unknown operator {op!r}")
            pos += 2
            children = []
            while pos < len(tokens) and tokens[pos] != ")":
                child, pos = parse(pos, depth + 1)
                children.append(child)
            if pos >= len(tokens):
                raise RuleFileError(f"{where}: unclosed parenthesis")
            pos += 1
            try:
                node = LTExpression(op, children=tuple(children))
            except ParameterError as exc:
                raise RuleFileError(f"{where}: {exc}") from None
            return node, pos
        name = tokens[pos]
        if name == ")":
            raise RuleFileError(f"{where}: unexpected ')'")
        if name not in scanners:
            raise RuleFileError(f"{where}: unknown scanner name {name!r}")
        return lt_scanner(scanners[name]), pos + 1

    node, pos = parse(0, 0)
    if pos != len(tokens):
        raise RuleFileError(f"{where}: trailing tokens after the expression")
    return node


def parse_lt_expression(text: str, where: str = "lt-file", base_dir=None) -> LTExpression:
    """Parse `let NAME = FILE` bindings followed by one prefix expression."""
    base = pathlib.Path(base_dir) if base_dir is not None else pathlib.Path(".")
    scanners: dict[str, Scanner] = {}
    expression_lines = []
    for lineno, line in file_lines(text):
        if not line.startswith("let "):
            expression_lines.append(line)
            continue
        name, _, filename = (part.strip() for part in line[4:].partition("="))
        if not name or not filename:
            raise RuleFileError(f"{where}:{lineno}: expected 'let NAME = FILE'")
        if name in scanners:
            raise RuleFileError(f"{where}:{lineno}: duplicate binding {name!r}")
        path = base / filename
        scanners[name] = parse_scanner(read_text(path, f"{where}:{lineno}"), name=path.stem)
    if not expression_lines:
        raise RuleFileError(f"{where}: no expression line")
    tokens = _tokenize_expression(" ".join(expression_lines))
    expr = _parse_expression(tokens, scanners, where)
    expr.alphabet  # raises AlphabetError on mixed leaf alphabets
    return expr


def load_lt_expression(path) -> LTExpression:
    path = pathlib.Path(path)
    return parse_lt_expression(read_text(path), where=path.stem, base_dir=path.parent)


def tabulate_by_observation(automaton: Automaton, probe_len: int, name: str = None) -> str:
    """Flatten a structured-state machine to the rule-table format.

    Every cell state of the compiled machines is a function of the step,
    the cell's left-border flag and the symbols at offsets 0..G ahead of it,
    so a triple depends only on offsets -2..G+1 around its centre, and each
    triple the machine can ever invoke already occurs while simulating all
    words up to length G+4.  The probe length is the caller's promise of
    that bound; the emitted table replays the machine exactly, with
    unreachable triples defaulting to the centre.

    :func:`acaw.core.observe` runs the probes; this names its states by
    position (input symbols by themselves, the rest ``s0, s1, ...`` in
    first-seen order) and writes its rows sorted by name.  Like
    :func:`~acaw.rulefile.save_rule_table`, it refuses through
    :func:`~acaw.rulefile.face_lists` a table that would not load: colliding
    names (an input symbol named ``s0``), a reserved name (an input symbol
    ``*``), a state that both accepts and rejects, an empty accept set, or a
    decider's empty reject set.  More than ``_PROBE_BUDGET`` probe words,
    |Σ| + ... + |Σ|^probe_len, are refused with a :class:`ParameterError`
    before any runs.
    """
    if probe_len < 1:
        raise ParameterError("probe length must be >= 1")
    if automaton.time_bound is not None and automaton.time_bound > _TABULATE_STEP_CEILING:
        raise ParameterError(
            f"{automaton.name}: time bound {automaton.time_bound} exceeds the "
            f"{_TABULATE_STEP_CEILING}-step tabulation ceiling; not tabulatable"
        )
    alphabet = tuple(automaton.input_alphabet)
    count = 0
    for length in range(1, probe_len + 1):  # stops soon after passing the budget
        count += len(alphabet) ** length
        if count > _PROBE_BUDGET:
            so_far = "" if length == probe_len else f" already, of probe length {probe_len}"
            raise ParameterError(
                f"{automaton.name}: {count:,} probe words to length {length}{so_far},"
                f" over the budget of {_PROBE_BUDGET:,} words; not tabulatable")
    lengths = range(1, probe_len + 1)
    probes = (word for n in lengths for word in itertools.product(alphabet, repeat=n))
    states, rows = observe(automaton, probes, _TABULATE_STEP_CEILING)
    structured = itertools.count()
    names = [
        state if isinstance(state, str) and state in alphabet else f"s{next(structured)}"
        for state in states
    ]
    label = dict(enumerate(names))
    label[None] = "q"
    rows = sorted(zip(*[map(label.__getitem__, column) for column in zip(*rows)]))
    accept, reject = face_lists(automaton, states, names)
    return serialize_rules(
        name or automaton.name, alphabet, names, accept, reject, rows, automaton.time_bound
    )
