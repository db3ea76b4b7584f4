"""Text format for table-defined machines.

One declaration per line; lines whose first non-blank character is ``#`` are
comments (``#`` is a legal symbol elsewhere, so only whole-line comments are
supported).  Declarations::

    alphabet: 0 1
    states: 0 1 a r
    accept: a
    # optional; presence makes the machine a decider
    reject: r
    # or: none
    default: center
    # optional: a step count the machine settles within
    time_bound: 12
    rule: X Y Z -> W

``states`` must contain the alphabet and excludes the reserved border token
``q``.  In a rule pattern the flanks X and Z range over states plus ``q``
and ``*`` (``*`` matches anything, including the border); the centre Y
ranges over states plus ``*`` (the centre of an active cell is never the
border, and writing ``q`` there is an error, as is writing it as output W).
The first matching rule wins.  Unmatched triples fall back to ``default``:
``center`` keeps the centre state, ``none`` demands the rules be exhaustive
and makes any gap a load-time error.  ``time_bound``, one non-negative
integer, becomes the machine's :attr:`~acaw.core.Automaton.time_bound`, so
runs without an explicit budget get at least that many steps.

The reader here, :func:`read_text`, :func:`file_lines` and
:func:`read_directives`, also reads DFA, scanner and LT-expression files.

:func:`table_kernel` compiles a loaded table into a bit-plane kernel, one
plane per state and one straight-line step function over the rows.  The
zoo's tables carry it; :func:`parse_rule_table` leaves it off, because the
tables ``acaw compile lt`` writes have hundreds of rows and run short words
one at a time, where a memo hit costs less than a step over every row.
"""

from __future__ import annotations

import functools
import operator
import pathlib
from typing import Callable, Iterable, Iterator, NamedTuple, Optional

from ._planes import SpacedWords, lowest, spaced_text
from .core import (
    INACTIVE,
    AcawError,
    Automaton,
    ParameterError,
    face_bits,
    set_automaton,
    validate,
)

_RESERVED = {"q", "*", "->"}


class RuleFileError(AcawError):
    """A rule-table file failed to parse or validate."""


class _TableRule:
    """First-match-wins rule rows; the engine's runner memoizes calls.

    :func:`parse_rule_table` indexes the rows as it checks them: an exact
    row (no ``*``) is keyed by its triple unless an earlier row matches
    that triple; wildcard rows keep file order.  A call tries the key, then
    the first matching wildcard row, then the default.  Rows hold
    :data:`INACTIVE` where the file says ``q``, so a call matches the
    engine's flanks as they come.
    """

    __slots__ = ("name", "exact", "wild", "default_center")

    def __init__(self, name: str, default_center: bool):
        self.name, self.default_center = name, default_center
        self.exact: dict[tuple, str] = {}  # filled by parse_rule_table
        self.wild: list[tuple[tuple, str]] = []

    def _wild_match(self, z1, z2, z3) -> Optional[str]:
        for (x, y, z), w in self.wild:
            if (x == "*" or x == z1) and (y == "*" or y == z2) and (z == "*" or z == z3):
                return w
        return None

    def __call__(self, z1, z2, z3):
        out = self.exact.get((z1, z2, z3))
        if out is None and self.wild:
            out = self._wild_match(z1, z2, z3)
        if out is None and not self.default_center:
            raise RuleFileError(f"{self.name}: no rule covers {(z1, z2, z3)} and default is none")
        return z2 if out is None else out


class _Rows(NamedTuple):
    """A table machine compiled for bit-planes by :func:`table_kernel`, once
    per machine.  Plane k holds ``states[k]``."""

    states: tuple
    spacer: str  # a character that is no input symbol
    inputs: tuple  # per input symbol: (its plane, a translation marking it "1")
    step: Callable  # step(config, cells, firsts, lasts) -> the next config
    faces: Callable  # faces(config) -> (accepting plane, rejecting plane)


class _TablePlanes(SpacedWords):
    """A run of a table machine on bit-planes, stepping as its ``_TableRule``
    does, over one or more words in the spacer layout of :mod:`acaw._planes`.

    A configuration is one plane per state, in ``states`` order: bit i is
    set in the plane of the state cell i holds.  Every cell is in exactly
    one plane, so equal states give equal configurations, and a face's
    planes add up to its plane.
    """

    def __init__(self, rows: _Rows, words: list):
        text = spaced_text(words, rows.spacer)
        planes = [0] * len(rows.states)
        for k, marks in rows.inputs:
            planes[k] = int(text.translate(marks), 2)
        super().__init__(words, sum(planes))
        self.rows = rows
        self.start = tuple(planes)

    def step(self, config: tuple) -> tuple:
        return self.rows.step(config, self.cells, self.firsts, self.lasts)

    def finality(self, config: tuple) -> tuple[int, int]:
        """The verdict bits of the words that accept and of those that reject
        (none on an acceptor's table, whose rejecting plane is 0)."""
        accepting, rejecting = self.rows.faces(config)
        return self.every(accepting), self.every(rejecting)

    def leftmost_open(self, config: tuple) -> tuple[Optional[int], Optional[int]]:
        """A one-word run's leftmost cell that does not accept and leftmost
        that does not reject, each None when every cell does."""
        return tuple(lowest(self.cells ^ face) for face in self.rows.faces(config))

    def states(self, config: tuple) -> tuple:
        """A one-word run's cells, as the rule builds them."""
        digits = f"0{len(self.words[0])}b"
        columns = zip(*[format(x, digits)[::-1] for x in config])
        return tuple(map(self.rows.states.__getitem__,
                         map(operator.methodcaller("index", "1"), columns)))


def _compile(
    states: int, exact: tuple, wild: tuple, default_center: bool, accept: tuple, reject: tuple
) -> tuple[Callable, Callable]:
    """A table's ``step`` and ``faces`` on planes (see :class:`_Rows`), each
    one straight-line function.  Compiling costs some twenty times parsing
    a small table, so the zoo compiles each of its tables once per process.

    Each row is (left, centre, right, output) as plane indices, with
    ``states`` for the border and ``states + 1`` for any.  The rows keep
    the rule's first-match order: the exact rows, which are disjoint, then
    the wildcard rows in file order, each masked to the cells no earlier
    row matched; ``default: center`` keeps each cell still unmatched in its
    state.  A row is two or three ands on shifted planes (a left read is
    masked to the cells by the centre it meets), so a step costs
    O(rows + states) big-int operations whatever the words' lengths.  A
    face's plane is the sum of its states' planes, which are disjoint.  The
    source holds only plane numbers, never a state's name.
    """
    border, anything = states, states + 1

    def hit(row: tuple, *masks: str) -> str:
        x, y, z, _ = row
        left = "firsts" if x == border else None if x == anything else f"l{x}"
        right = "lasts" if z == border else None if z == anything else f"r{z}"
        centre = None if y == anything else f"p{y}"  # only wildcard rows, masked to cells
        return " & ".join(term for term in (left, centre, right, *masks) if term)

    rows = exact + wild
    unpack = "    " + "".join(f"p{k}, " for k in range(states)) + "= config"
    lines = [
        "def faces(config):",
        unpack,
        "    return " + ", ".join(" + ".join(f"p{k}" for k in face) or "0"
                                  for face in (accept, reject)),
        "def step(config, cells, firsts, lasts):",
        unpack,
        *(f"    l{x} = p{x} << 1" for x in sorted({r[0] for r in rows if r[0] < border})),
        *(f"    r{z} = p{z} >> 1" for z in sorted({r[2] for r in rows if r[2] < border})),
        "    unmatched = cells",
        *(f"    n{k} = 0" for k in range(states)),
    ]
    for row in exact:
        lines += [f"    hit = {hit(row)}", f"    n{row[3]} |= hit", "    unmatched ^= hit"]
    for row in wild:
        lines += [f"    hit = {hit(row, 'unmatched')}", f"    n{row[3]} |= hit",
                  "    unmatched ^= hit"]
    kept = " | p{0} & unmatched" if default_center else ""
    lines.append("    return (" + "".join(f"n{k}{kept.format(k)}, " for k in range(states)) + ")")
    namespace: dict = {}
    exec("\n".join(lines), namespace)
    return namespace["step"], namespace["faces"]


def table_kernel(automaton: Automaton) -> Callable[[list], _TablePlanes]:
    """A bit-plane :attr:`~acaw.core.Automaton.kernel` for a machine that
    :func:`parse_rule_table` built and whose input symbols are characters.

    The translations, the rows as plane indices and the faces are built
    here, once per machine, and the step and faces compiled from them by
    :func:`_compile`.  A step costs O(rows + states) big-int operations,
    which pays on long words and batches, but not on a table of hundreds of
    rows run on short words one at a time.
    """
    rule, states, symbols = automaton.rule, automaton.states, automaton.input_alphabet
    if not isinstance(rule, _TableRule):
        raise ParameterError(f"{automaton.name}: not a rule-table machine")
    if any(len(symbol) != 1 for symbol in symbols):
        raise ParameterError(f"{automaton.name}: input symbols must be single characters")
    index = {state: k for k, state in enumerate(states)}
    index[INACTIVE], index["*"] = len(states), len(states) + 1
    spacer = chr(max(map(ord, symbols)) + 1)
    inputs = tuple(
        (index[symbol], str.maketrans({c: "01"[c == symbol] for c in (*symbols, spacer)}))
        for symbol in symbols
    )
    exact, wild = (tuple(tuple(map(index.__getitem__, (*pattern, out))) for pattern, out in rows)
                   for rows in (rule.exact.items(), rule.wild))
    faces = automaton.accepting, automaton.rejecting or (lambda state: False)
    accept, reject = (tuple(k for k, state in enumerate(states) if face(state)) for face in faces)
    compiled = _compile(len(states), exact, wild, rule.default_center, accept, reject)
    return functools.partial(_TablePlanes, _Rows(states, spacer, inputs, *compiled))


def read_text(path, where: Optional[str] = None) -> str:
    """The text of ``path``.

    An :class:`OSError` becomes a :class:`RuleFileError` that names the
    path, after ``where`` (``name:lineno`` of the line that named the file)
    when given.
    """
    try:
        return pathlib.Path(path).read_text()
    except OSError as exc:
        prefix = f"{where}: " if where else ""
        raise RuleFileError(f"{prefix}cannot read {path}: {exc.strerror or exc}") from exc


def file_lines(text: str) -> Iterator[tuple[int, str]]:
    """The stripped lines of ``text`` as (lineno, line), skipping blank lines
    and lines whose first non-blank character is ``#``.  Every error about
    a line starts ``name:lineno:``."""
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.strip()
        if line and not line.startswith("#"):
            yield lineno, line


def read_directives(
    text: str, name: str, required: Iterable[str], optional: Iterable[str] = (),
    row: Optional[str] = None,
) -> tuple[dict[str, tuple[int, tuple[str, ...]]], list[tuple[int, tuple[str, ...]]]]:
    """The ``key: values`` lines of ``text``, checked against a format's keys.

    Returns (fields, rows): ``fields`` maps each single-valued key present
    to (lineno, tokens), and ``rows`` lists the lines of the repeatable key
    ``row`` as (lineno, tokens) in file order.  A line without ``:``, an
    unknown key, a second line for a single-valued key and a missing
    ``required`` key raise :class:`RuleFileError`; what the values may be
    is left to the caller.
    """
    known = {*required, *optional}
    fields: dict[str, tuple[int, tuple[str, ...]]] = {}
    rows: list[tuple[int, tuple[str, ...]]] = []
    for lineno, line in file_lines(text):
        key, sep, rest = line.partition(":")
        if not sep:
            raise RuleFileError(f"{name}:{lineno}: expected 'key: values'")
        key = key.strip()
        if key == row:
            rows.append((lineno, tuple(rest.split())))
        elif key in fields:
            raise RuleFileError(f"{name}:{lineno}: duplicate '{key}:' line")
        elif key in known:
            fields[key] = lineno, tuple(rest.split())
        else:
            raise RuleFileError(f"{name}:{lineno}: unknown directive {key!r}")
    for key in required:
        if key not in fields:
            raise RuleFileError(f"{name}: missing '{key}:' line")
    return fields, rows


def parse_rule_table(text: str, name: str = "rule-table") -> Automaton:
    fields, rule_rows = read_directives(
        text, name, ("alphabet", "states", "accept", "default"), ("reject", "time_bound"),
        row="rule",
    )
    for key in ("alphabet", "states", "accept"):
        if not fields[key][1]:
            raise RuleFileError(f"{name}:{fields[key][0]}: empty '{key}:' line")
    (at_alphabet, alphabet), (at_states, states) = fields["alphabet"], fields["states"]
    at_accept, accept = fields["accept"]
    at_reject, reject = fields.get("reject", (None, None))
    if reject is not None and not reject:
        raise RuleFileError(
            f"{name}:{at_reject}: 'reject:' needs at least one state;"
            " drop the line for an acceptor"
        )
    at_default, default = fields["default"]
    if default != ("center",) and default != ("none",):
        raise RuleFileError(f"{name}:{at_default}: default must be 'center' or 'none'")
    at_bound, bound = fields.get("time_bound", (None, None))
    if bound is not None:
        if len(bound) != 1 or not (bound[0].isascii() and bound[0].isdigit()):
            raise RuleFileError(
                f"{name}:{at_bound}: time_bound must be one non-negative integer"
            )
        bound = int(bound[0])

    state_set = set(states)
    if len(state_set) != len(states):
        raise RuleFileError(f"{name}:{at_states}: duplicate state names")
    if len(set(alphabet)) != len(alphabet):
        raise RuleFileError(f"{name}:{at_alphabet}: duplicate alphabet symbols")
    for tok in states:
        if tok in _RESERVED:
            raise RuleFileError(f"{name}:{at_states}: state name {tok!r} is reserved")
    for group, label, at in (
        (alphabet, "alphabet", at_alphabet), (accept, "accept", at_accept),
        (reject or (), "reject", at_reject),
    ):
        for tok in group:
            if tok not in state_set:
                raise RuleFileError(f"{name}:{at}: {label} entry {tok!r} is not a state")
    if reject is not None and set(accept) & set(reject):
        raise RuleFileError(f"{name}:{at_reject}: accept and reject sets overlap")

    rule = _TableRule(name, default == ("center",))
    exact, wild = rule.exact, rule.wild
    flank_ok = state_set | {"q", "*"}
    centre_ok = state_set | {"*"}
    for at, tokens in rule_rows:
        if len(tokens) != 5 or tokens[3] != "->":
            raise RuleFileError(f"{name}:{at}: malformed rule line")
        x, y, z, _, w = tokens
        if x not in flank_ok or z not in flank_ok:
            raise RuleFileError(f"{name}:{at}: bad flank in rule {x, y, z, w}")
        if y == "q":
            raise RuleFileError(f"{name}:{at}: centre pattern may not be the border 'q'")
        if y not in centre_ok:
            raise RuleFileError(f"{name}:{at}: bad centre in rule {x, y, z, w}")
        if w not in state_set:
            raise RuleFileError(f"{name}:{at}: rule output {w!r} is not a state")
        pattern = (INACTIVE if x == "q" else x, y, INACTIVE if z == "q" else z)
        if "*" in pattern:
            wild.append((pattern, w))
        elif not wild or rule._wild_match(*pattern) is None:
            exact.setdefault(pattern, w)

    automaton = set_automaton(name, alphabet, rule, accept, reject, states, bound)
    if default == ("none",) and _has_gap(states, (tokens for _, tokens in rule_rows)):
        validate(automaton)  # the rule raises on the first triple no row covers
    return automaton


def _has_gap(states: tuple[str, ...], rows: Iterable[tuple[str, ...]]) -> bool:
    """Whether some (left, centre, right) over ``states`` matches no row.

    Per centre, the flank pairs the rows cover are counted, not walked: an
    ``x *`` row covers every pair with left flank x, a ``* z`` row every
    pair with right flank z, ``* *`` all of them, and an exact row one pair.
    The cost is the number of rows plus states, plus the ``*``-centre rows
    once more for each centre that has rows of its own.
    """
    flanks = len(states) + 1  # the states and the border

    def gap(lefts: set, rights: set, pairs: set) -> bool:
        if "*" in lefts:  # a ``* *`` row
            return False
        covered = (len(lefts) + len(rights)) * flanks - len(lefts) * len(rights)
        covered += sum(1 for x, z in pairs if x not in lefts and z not in rights)
        return covered < flanks * flanks

    by_centre: dict[str, tuple[set, set, set]] = {}
    for x, y, z, _, _ in rows:
        lefts, rights, pairs = by_centre.setdefault(y, (set(), set(), set()))
        if z == "*":
            lefts.add(x)
        elif x == "*":
            rights.add(z)
        else:
            pairs.add((x, z))
    shared = by_centre.pop("*", (set(), set(), set()))
    if len(by_centre) < len(states) and gap(*shared):
        return True  # a centre that only the ``*`` rows reach
    return any(gap(*map(set.union, shared, own)) for own in by_centre.values())


def load_rule_table(path) -> Automaton:
    return parse_rule_table(read_text(path), name=pathlib.Path(path).stem)


def serialize_rules(
    name: str,
    alphabet: Iterable[str],
    states: Iterable[str],
    accept: Iterable[str],
    reject: Optional[Iterable[str]],
    triples: Iterable[tuple[str, str, str, str]],
    time_bound: Optional[int] = None,
) -> str:
    """Format a machine given explicit rule triples.

    Triples whose output equals the centre are dropped and recovered through
    ``default: center``, which keeps files small and is always exact.  A
    ``time_bound:`` line is written when ``time_bound`` is given.
    """
    lines = [f"# {name}"]
    lines.append("alphabet: " + " ".join(alphabet))
    lines.append("states: " + " ".join(states))
    lines.append("accept: " + " ".join(accept))
    if reject is not None:
        lines.append("reject: " + " ".join(reject))
    if time_bound is not None:
        lines.append(f"time_bound: {time_bound}")
    for z1, z2, z3, w in triples:
        if w != z2:
            lines.append(f"rule: {z1} {z2} {z3} -> {w}")
    lines.append("default: center")
    return "\n".join(lines) + "\n"


def face_lists(
    automaton: Automaton, states: Iterable, names: list[str]
) -> tuple[list[str], Optional[list[str]]]:
    """The ``accept:`` and ``reject:`` lists for ``states`` written as ``names``.

    The reject list is None for an acceptor.  The bits come from
    :func:`~acaw.core.face_bits`, so no face runs again.  Raises
    :class:`RuleFileError` on what would not load: colliding or reserved
    names, a state that both accepts and rejects, an empty accept set, and
    a decider's empty reject set.
    """
    if len(set(names)) != len(names):
        raise RuleFileError(f"{automaton.name}: state names collide when rendered")
    reserved = sorted(_RESERVED.intersection(names))
    if reserved:
        raise RuleFileError(f"{automaton.name}: state name {reserved[0]!r} is reserved")
    accepts, rejects = face_bits(automaton, states)
    both = [n for n, acc, rej in zip(names, accepts, rejects) if acc and rej]
    if both:
        raise RuleFileError(f"{automaton.name}: state {both[0]!r} both accepts and rejects")
    accept = [n for n, bit in zip(names, accepts) if bit]
    reject = [n for n, bit in zip(names, rejects) if bit] if automaton.is_decider else None
    for label, listed in (("accept", accept), ("reject", reject)):
        if listed is not None and not listed:
            raise RuleFileError(
                f"{automaton.name}: none of the {len(names)} states to write is in the"
                f" {label} set; the table format cannot express an empty {label} set"
            )
    return accept, reject


def save_rule_table(automaton: Automaton) -> str:
    """Render an enumerated machine to the file format.

    The rows are the outputs that :func:`~acaw.core.validate` walks, and the
    ``accept:`` and ``reject:`` lines come from :func:`face_lists`, which
    refuses colliding or reserved names and an empty accept or reject set,
    so a table this writes always loads.
    """
    if automaton.states is None:
        raise RuleFileError(
            f"{automaton.name}: machine generates states on the fly and has no"
            " flat table form"
        )
    outputs = validate(automaton)
    names = [str(s) for s in automaton.states]
    accept, reject = face_lists(automaton, automaton.states, names)
    triples = [(str(z1), str(z2), str(z3), str(out)) for (z1, z2, z3), out in outputs]
    return serialize_rules(
        automaton.name, automaton.input_alphabet, names, accept, reject, triples,
        automaton.time_bound,
    )
