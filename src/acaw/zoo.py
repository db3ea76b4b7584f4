"""Ready-made automata and the word families the benchmarks exercise.

The simple machines are defined by rule tables in the text format of
:mod:`acaw.rulefile`, so ``acaw zoo build`` can write them back out verbatim,
and step on the bit-plane kernel that :func:`acaw.rulefile.table_kernel`
compiles from their rows; the rows on the rule memo stay the reference.
The block-structured ones (``bin``, ``idmat``) come from
:mod:`acaw._blockca`; their cells have finitely many states, but those are
built on the fly and never listed (``states`` is None), so they have no
flat table form.  Every machine here has a kernel, so ``acaw verify`` steps
all its words as one run.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from functools import lru_cache, partial
from typing import Callable, Optional

from ._blockca import INCREMENT, SHIFT, block_automaton
from .core import Automaton, ParameterError
from .rulefile import parse_rule_table, table_kernel

# Machines with a textual rule table, for `zoo build`.
TABLE_SOURCES = {
    # Accepts (01) repeated one or more times.  The four listed neighborhoods
    # are the only ones that create the accept state; everything else keeps
    # its symbol, so any flaw freezes into a non-accepting fixed point.
    "pair01": """\
alphabet: 0 1
states: 0 1 a
accept: a
rule: 0 1 0 -> a
rule: 1 0 1 -> a
rule: q 0 1 -> a
rule: 0 1 q -> a
default: center
""",
    # Accepts the all-zero words: the identity rule with accepting state 0,
    # so members are accepted before the first step and anything containing
    # a 1 sits in a non-accepting fixed point forever.
    "zeros": """\
alphabet: 0 1
states: 0 1
accept: 0
default: center
""",
    # Decides whether some cell holds a 1.  Zeros flip to the reject state,
    # everything else to accept; after one step a second step turns any mix
    # into all-accepting.  Worst case two steps, independent of length.
    "someone": """\
alphabet: 0 1
states: 0 1 a r
accept: a
reject: r
rule: * 0 * -> r
rule: * * * -> a
default: none
""",
}


@lru_cache(maxsize=3)  # one per zoo table
def _template(text: str, name: str, parse: Callable) -> Automaton:
    machine = parse(text, name=name)
    return dataclasses.replace(machine, kernel=table_kernel(machine))


def _table_machine(name: str) -> Automaton:
    """A fresh machine from the named table's template, parsed and compiled once.

    The copy shares the template's rule, faces and kernel but gets its own
    cold rule memo, so every build runs as the first one did.  The template
    is keyed by the parser in use too, so a parser swapped in at run time
    (a tracer's, say) reads each table once before its copies are served.
    """
    return dataclasses.replace(_template(TABLE_SOURCES[name], name, parse_rule_table))


# name -> (acceptor builder, decider builder); None marks a missing mode.
# The only place that names a zoo machine's builders: FAMILIES reads them here.
ZOO: dict[str, tuple[Optional[Callable[[], Automaton]], Optional[Callable[[], Automaton]]]] = {
    "pair01": (partial(_table_machine, "pair01"), None),
    "zeros": (partial(_table_machine, "zeros"), None),
    "someone": (None, partial(_table_machine, "someone")),
    "bin": (partial(block_automaton, "bin", INCREMENT, decider=False), None),
    "idmat": (
        partial(block_automaton, "idmat", SHIFT, decider=False),
        partial(block_automaton, "idmat-decider", SHIFT, decider=True),
    ),
}


def zoo_automaton(name: str, decider: bool = False) -> Automaton:
    """Build a zoo machine by name, in acceptor or decider mode."""
    if name not in ZOO:
        raise ParameterError(f"unknown zoo machine {name!r}")
    builder = ZOO[name][1 if decider else 0]
    if builder is None:
        mode = "decider" if decider else "acceptor"
        raise ParameterError(f"zoo machine {name!r} has no {mode} mode")
    return builder()


def _require_k(k: int) -> None:
    if not isinstance(k, int) or k < 1:
        raise ParameterError(f"family index must be a positive integer, got {k!r}")


def _counter_blocks(k: int) -> list[str]:
    return [format(i, f"0{k}b") for i in range(2**k)]


def _unit_row_blocks(k: int) -> list[str]:
    return ["0" * i + "1" + "0" * (k - 1 - i) for i in range(k)]


def generate_bin(k: int) -> str:
    """All k-bit values in counting order, separator-joined; length (k+1)2^k - 1."""
    _require_k(k)
    return "#".join(_counter_blocks(k))


def is_member_bin(word: str) -> bool:
    blocks = word.split("#")
    k = len(blocks[0])
    # The block count is checked first: building the 2^k blocks of a long
    # first block would take exponential time and memory.
    if k < 1 or len(blocks) != 2**k:
        return False
    return blocks == _counter_blocks(k)


def generate_idmat(k: int) -> str:
    """The k unit rows of the k-by-k identity matrix; length k^2 + k - 1."""
    _require_k(k)
    return "#".join(_unit_row_blocks(k))


def is_member_idmat(word: str) -> bool:
    k = word.count("#") + 1
    # The length is checked first, before any split: the only member with k
    # blocks has k^2 + k - 1 symbols, so building it costs no more than the
    # word, even one of many short blocks.
    if len(word) != k * k + k - 1:
        return False
    return word.split("#") == _unit_row_blocks(k)


def generate_zeros(k: int) -> str:
    _require_k(k)
    return "0" * k


def is_member_pair01(word: str) -> bool:
    return len(word) >= 2 and word == "01" * (len(word) // 2)


def is_member_zeros(word: str) -> bool:
    return bool(word) and not word.strip("0")


def generate_someone(k: int) -> str:
    """The length-k member with its single 1 at the far end."""
    _require_k(k)
    return "0" * (k - 1) + "1"


def is_member_someone(word: str) -> bool:
    return "1" in word


# Witness words for the time hierarchy: g copies of a k-bit counter value
# padded with separators to a fixed period f(k), so the length is exactly
# f(k) * g(k) with g(k) = 2^(k - floor(log2 f(k))).
_WITNESS_PERIODS: dict[str, Callable[[int], int]] = {
    "square": lambda k: k * k,
    "halfexp": lambda k: 2 ** ((k + 1) // 2),
}


def _witness_shape(f_choice: str, k: int) -> tuple[int, int]:
    """The period and the number of copies of the witness word for ``k``."""
    if f_choice not in _WITNESS_PERIODS:
        raise ParameterError(f"unknown period choice {f_choice!r}")
    _require_k(k)
    period = _WITNESS_PERIODS[f_choice](k)
    if period <= k:
        raise ParameterError(f"period {period} must exceed the block width {k}")
    exponent = k - (period.bit_length() - 1)
    if exponent < 0:
        raise ParameterError(f"period {period} too long for block width {k}")
    return period, 1 << exponent


def witness_length(f_choice: str, k: int) -> int:
    period, copies = _witness_shape(f_choice, k)
    return period * copies


def witness_word(f_choice: str, k: int) -> str:
    period, copies = _witness_shape(f_choice, k)
    pad = "#" * (period - k)
    return "".join(format(m, f"0{k}b") + pad for m in range(copies))


def is_witness_member(f_choice: str, word: str) -> bool:
    if f_choice not in _WITNESS_PERIODS:
        raise ParameterError(f"unknown period choice {f_choice!r}")
    for k in range(1, len(word).bit_length() + 2):
        try:
            length = witness_length(f_choice, k)
        except ParameterError:
            continue
        if length > len(word):
            break
        if length == len(word) and witness_word(f_choice, k) == word:
            return True
    return False


def is_member_witness_square(word: str) -> bool:
    return is_witness_member("square", word)


def is_member_witness_halfexp(word: str) -> bool:
    return is_witness_member("halfexp", word)


@dataclass(frozen=True)
class WordFamily:
    """A benchmark family: indexed members plus a ground-truth predicate."""

    name: str
    alphabet: tuple
    generate: Callable[[int], str]
    length: Callable[[int], int]  # len(generate(k)), without building the word
    is_member: Callable[[str], bool]
    expected_bound: Optional[str]  # const, log, sqrt or linear; None = not timed
    acceptor: Optional[Callable[[], Automaton]] = None
    decider: Optional[Callable[[], Automaton]] = None


def _family(name, alphabet, generate, length, is_member, expected_bound) -> WordFamily:
    """A family whose builders, if it is a zoo machine, are its ``ZOO`` entry."""
    return WordFamily(name, alphabet, generate, length, is_member, expected_bound,
                      *ZOO.get(name, ()))


FAMILIES: dict[str, WordFamily] = {family.name: family for family in (
    _family("bin", ("0", "1", "#"), generate_bin, lambda k: (k + 1) * 2**k - 1,
            is_member_bin, "log"),
    _family("idmat", ("0", "1", "#"), generate_idmat, lambda k: k * k + k - 1,
            is_member_idmat, "sqrt"),
    _family("zeros", ("0", "1"), generate_zeros, lambda k: k, is_member_zeros, "const"),
    _family("someone", ("0", "1"), generate_someone, lambda k: k, is_member_someone, "const"),
    _family("witness-square", ("0", "1", "#"), partial(witness_word, "square"),
            partial(witness_length, "square"), is_member_witness_square, None),
    _family("witness-halfexp", ("0", "1", "#"), partial(witness_word, "halfexp"),
            partial(witness_length, "halfexp"), is_member_witness_halfexp, None),
)}

# Ground-truth membership predicates for `verify`, by oracle name.
ORACLES: dict[str, Callable[[str], bool]] = {
    "pair01": is_member_pair01,
    **{name: family.is_member for name, family in FAMILIES.items()},
}
