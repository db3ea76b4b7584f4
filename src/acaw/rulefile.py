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
    rule: X Y Z -> W

``states`` must contain the alphabet and excludes the reserved border token
``q``.  In a rule pattern the flanks X and Z range over states plus ``q``
and ``*`` (``*`` matches anything, including the border); the centre Y
ranges over states plus ``*`` (the centre of an active cell is never the
border, and writing ``q`` there is an error, as is writing it as output W).
The first matching rule wins.  Unmatched triples fall back to ``default``:
``center`` keeps the centre state, ``none`` demands the rules be exhaustive
and makes any gap a load-time error.
"""

from __future__ import annotations

from typing import Container, Iterable, Iterator, Optional

from .core import INACTIVE, AcawError, Automaton, _Inactive, validate

_RESERVED = {"q", "*", "->"}


class RuleFileError(AcawError):
    """A rule-table file failed to parse or validate."""


class _TableRule:
    """First-match-wins pattern list; the engine's runner memoizes its calls."""

    __slots__ = ("patterns", "default_center", "name")

    def __init__(self, name: str, patterns: list, default_center: bool):
        self.name = name
        self.patterns = patterns
        self.default_center = default_center

    def lookup(self, z1: str, z2: str, z3: str) -> Optional[str]:
        """Match a triple (flanks given as tokens, 'q' for the border)."""
        for x, y, z, w in self.patterns:
            if (x == "*" or x == z1) and (y == "*" or y == z2) and (z == "*" or z == z3):
                return w
        return z2 if self.default_center else None

    def __call__(self, z1, z2, z3):
        key = (
            "q" if isinstance(z1, _Inactive) else z1,
            z2,
            "q" if isinstance(z3, _Inactive) else z3,
        )
        out = self.lookup(*key)
        if out is None:
            raise RuleFileError(f"{self.name}: no rule matches {key} and default is none")
        return out


def directive_lines(
    text: str, name: str, repeatable: Container[str] = ()
) -> Iterator[tuple[str, str, list[str]]]:
    """The ``key: values`` lines of ``text`` as (where, key, tokens).

    Blank lines and lines whose first non-blank character is ``#`` are
    skipped.  ``where`` is ``name:lineno``, the prefix of every error about
    that line.  A line without ``:``, or a second line for a key not in
    ``repeatable``, raises :class:`RuleFileError`; which keys are known is
    left to the caller.
    """
    seen = set()
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        where = f"{name}:{lineno}"
        key, sep, rest = line.partition(":")
        if not sep:
            raise RuleFileError(f"{where}: expected 'key: values'")
        key = key.strip()
        if key in seen and key not in repeatable:
            raise RuleFileError(f"{where}: duplicate '{key}:' line")
        seen.add(key)
        yield where, key, rest.split()


def parse_rule_table(text: str, name: str = "rule-table") -> Automaton:
    sections: dict[str, list[str]] = {}
    default: Optional[str] = None
    patterns: list[tuple[str, str, str, str]] = []

    for where, key, tokens in directive_lines(text, name, repeatable=("rule",)):
        if key == "rule":
            if len(tokens) != 5 or tokens[3] != "->":
                raise RuleFileError(f"{where}: malformed rule line")
            x, y, z, _, w = tokens
            patterns.append((x, y, z, w))
        elif key in ("alphabet", "states", "accept", "reject"):
            sections[key] = tokens
        elif key == "default":
            if tokens != ["center"] and tokens != ["none"]:
                raise RuleFileError(f"{where}: default must be 'center' or 'none'")
            default = tokens[0]
        else:
            raise RuleFileError(f"{where}: unknown directive {key!r}")

    alphabet = sections.get("alphabet")
    states = sections.get("states")
    accept = sections.get("accept")
    reject = sections.get("reject")
    if alphabet is None or not alphabet:
        raise RuleFileError(f"{name}: missing or empty 'alphabet:' line")
    if states is None or not states:
        raise RuleFileError(f"{name}: missing or empty 'states:' line")
    if accept is None or not accept:
        raise RuleFileError(f"{name}: missing or empty 'accept:' line")
    if reject is not None and not reject:
        raise RuleFileError(
            f"{name}: 'reject:' needs at least one state; drop the line for an acceptor"
        )
    if default is None:
        raise RuleFileError(f"{name}: missing 'default:' line")

    state_set = set(states)
    if len(state_set) != len(states):
        raise RuleFileError(f"{name}: duplicate state names")
    if len(set(alphabet)) != len(alphabet):
        raise RuleFileError(f"{name}: duplicate alphabet symbols")
    for tok in states:
        if tok in _RESERVED:
            raise RuleFileError(f"{name}: state name {tok!r} is reserved")
    for group, label in ((alphabet, "alphabet"), (accept, "accept"), (reject or [], "reject")):
        for tok in group:
            if tok not in state_set:
                raise RuleFileError(f"{name}: {label} entry {tok!r} is not a state")
    if reject is not None and set(accept) & set(reject):
        raise RuleFileError(f"{name}: accept and reject sets overlap")

    def rule_error(index: int, problem: str) -> RuleFileError:
        # The rule lines' places are found again only for an error: keeping
        # them beside the patterns spreads the patterns out in memory, and
        # the first-match scan over a large table then ran 1.8x slower.
        wheres = [where for where, key, _ in directive_lines(text, name, ("rule",))
                  if key == "rule"]
        return RuleFileError(f"{wheres[index]}: {problem}")

    flank_ok = state_set | {"q", "*"}
    centre_ok = state_set | {"*"}
    for index, (x, y, z, w) in enumerate(patterns):
        if x not in flank_ok or z not in flank_ok:
            raise rule_error(index, f"bad flank in rule {x, y, z, w}")
        if y == "q":
            raise rule_error(index, "centre pattern may not be the border 'q'")
        if y not in centre_ok:
            raise rule_error(index, f"bad centre in rule {x, y, z, w}")
        if w not in state_set:
            raise rule_error(index, f"rule output {w!r} is not a state")

    rule = _TableRule(name, patterns, default_center=(default == "center"))
    if default == "none":
        flanks = states + ["q"]
        for z1 in flanks:
            for z2 in states:
                for z3 in flanks:
                    if rule.lookup(z1, z2, z3) is None:
                        raise RuleFileError(
                            f"{name}: no rule covers ({z1} {z2} {z3}) and default is none"
                        )

    accept_set = frozenset(accept)
    reject_set = frozenset(reject) if reject is not None else None
    return Automaton(
        name=name,
        input_alphabet=tuple(alphabet),
        rule=rule,
        accepting=accept_set.__contains__,
        rejecting=reject_set.__contains__ if reject_set is not None else None,
        states=tuple(states),
    )


def load_rule_table(path) -> Automaton:
    from pathlib import Path

    p = Path(path)
    try:
        text = p.read_text()
    except OSError as exc:
        raise RuleFileError(f"cannot read {p}: {exc}") from exc
    return parse_rule_table(text, name=p.stem)


def serialize_rules(
    name: str,
    alphabet: Iterable[str],
    states: Iterable[str],
    accept: Iterable[str],
    reject: Optional[Iterable[str]],
    triples: Iterable[tuple[str, str, str, str]],
) -> str:
    """Format a machine given explicit rule triples.

    Triples whose output equals the centre are dropped and recovered through
    ``default: center``, which keeps files small and is always exact.
    """
    lines = [f"# {name}"]
    lines.append("alphabet: " + " ".join(alphabet))
    lines.append("states: " + " ".join(states))
    lines.append("accept: " + " ".join(accept))
    if reject is not None:
        lines.append("reject: " + " ".join(reject))
    for z1, z2, z3, w in triples:
        if w != z2:
            lines.append(f"rule: {z1} {z2} {z3} -> {w}")
    lines.append("default: center")
    return "\n".join(lines) + "\n"


def save_rule_table(automaton: Automaton) -> str:
    """Render an enumerated machine to the file format (full-domain walk).

    The machine is validated first, so a table this writes always loads.
    """
    if automaton.states is None:
        raise RuleFileError(
            f"{automaton.name}: machine generates states on the fly and has no"
            " flat table form"
        )
    validate(automaton)
    states = [str(s) for s in automaton.states]
    if len(set(states)) != len(states):
        raise RuleFileError(f"{automaton.name}: state names collide when rendered")
    by_name = dict(zip(states, automaton.states))
    flanks = states + ["q"]
    triples = []
    for z1 in flanks:
        for z2 in states:
            for z3 in flanks:
                out = automaton.rule(
                    INACTIVE if z1 == "q" else by_name[z1],
                    by_name[z2],
                    INACTIVE if z3 == "q" else by_name[z3],
                )
                triples.append((z1, z2, z3, str(out)))
    accept = [s for s in states if automaton.accepting(by_name[s])]
    reject = None
    if automaton.rejecting is not None:
        reject = [s for s in states if automaton.rejecting(by_name[s])]
    return serialize_rules(
        automaton.name, automaton.input_alphabet, states, accept, reject, triples
    )
