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
"""

from __future__ import annotations

import pathlib
from typing import Iterable, Iterator, Optional

from .core import INACTIVE, AcawError, Automaton, face_bits, set_automaton, validate

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
