"""Command-line front end.

Exit codes are uniform across subcommands: 0 for accept/pass, 1 for
reject/fail, 2 for usage or file-format problems, 3 for a timeout verdict.
"""

from __future__ import annotations

import argparse
import functools
import pathlib
import sys

from .bench import (
    MAX_MEMBER_LENGTH,
    MAX_VERIFY_WORDS,
    fit_bound,
    measure_time_curve,
    read_rows,
    verify_equivalence,
    write_rows,
)
from .core import (
    ACCEPT,
    REJECT,
    TIMEOUT,
    AcawError,
    ModeError,
    ParameterError,
    run_acceptor,
    run_decider,
)
from .localtests import (
    SCANNER_KEYS,
    compile_lt_to_daca,
    compile_slt_union_to_aca,
    load_lt_expression,
    load_scanner,
    tabulate_by_observation,
)
from .rulefile import RuleFileError, file_lines, load_rule_table, read_text
from .semigroups import (
    MAX_ELEMENTS,
    idempotents,
    is_locally_semilattice,
    load_dfa,
    syntactic_semigroup,
)
from .words import debruijn_contract
from .zoo import FAMILIES, ORACLES, TABLE_SOURCES, ZOO, zoo_automaton

EXIT_OK = 0
EXIT_FAIL = 1
EXIT_USAGE = 2
EXIT_TIMEOUT = 3


def _resolve_automaton(spec: str, decider: bool):
    """A machine from either ``zoo:NAME`` or a rule-table file path."""
    if spec.startswith("zoo:"):
        return zoo_automaton(spec[4:], decider=decider)
    automaton = load_rule_table(spec)
    if decider and not automaton.is_decider:
        raise ModeError(f"{automaton.name} declares no reject states")
    if not decider and automaton.is_decider:
        raise ModeError(
            f"{automaton.name} declares reject states; pass --decider to run it"
        )
    return automaton


def _verdict_line(verdict) -> str:
    if verdict.kind == TIMEOUT:
        return TIMEOUT
    return f"{verdict.kind} {verdict.steps}"


def _cmd_run(args) -> int:
    spec = args.automaton_pos or args.automaton
    if spec is None or (args.automaton_pos and args.automaton):
        raise ParameterError("give the automaton once, positionally or via --automaton")
    automaton = _resolve_automaton(spec, args.decider)
    runner = run_decider if args.decider else run_acceptor
    verdict = runner(
        automaton, args.input, max_steps=args.max_steps, collect_trace=args.trace
    )
    if args.trace:
        for row in verdict.trace.rows():
            print(row)
    print(_verdict_line(verdict))
    if verdict.kind == ACCEPT:
        return EXIT_OK
    if verdict.kind == REJECT:
        return EXIT_FAIL
    return EXIT_TIMEOUT


def _cmd_verify(args) -> int:
    decider = args.mode == "decider"
    automaton = _resolve_automaton(args.automaton, decider)
    if args.oracle not in ORACLES:
        raise ParameterError(
            f"unknown oracle {args.oracle!r}; choose from {sorted(ORACLES)}"
        )
    report = verify_equivalence(
        automaton,
        ORACLES[args.oracle],
        args.max_len,
        mode=args.mode,
        max_steps=args.max_steps,
        max_words=args.max_words,
    )
    if report.ok:
        print(f"ok: {report.words_checked} words to length {args.max_len} agree")
        return EXIT_OK
    print(f"FAIL: {len(report.mismatches)} of {report.words_checked} words disagree")
    for word, kind, want in report.mismatches[:10]:
        print(f"  {word!r}: machine says {kind}, oracle says {'member' if want else 'non-member'}")
    return EXIT_FAIL


def _parse_k_range(text: str) -> range:
    lo, sep, hi = text.partition("..")
    if not sep:
        lo = hi = text
    try:
        start, stop = int(lo), int(hi)
    except ValueError:
        raise ParameterError(f"bad k range {text!r}; expected MIN..MAX") from None
    if start < 1 or stop < start:
        raise ParameterError(f"bad k range {text!r}")
    return range(start, stop + 1)


def _cmd_bench(args) -> int:
    family = FAMILIES.get(args.family)
    if family is None:
        raise ParameterError(
            f"unknown family {args.family!r}; choose from {sorted(FAMILIES)}"
        )
    rows = measure_time_curve(
        family, _parse_k_range(args.k), mode=args.mode, max_steps=args.max_steps,
        max_length=args.max_length,
    )
    write_rows(args.out, rows)
    print(f"wrote {len(rows)} rows to {args.out}")
    return EXIT_OK


def _cmd_fit(args) -> int:
    rows = read_rows(args.csv)
    report = fit_bound(rows, args.bound, args.ceiling)
    print(
        f"bound {report.bound}: constant {report.constant:.3f} over"
        f" {report.rows_used} rows (ceiling {report.ceiling:g},"
        f" divergence {report.divergence:.3f})"
    )
    if report.passed:
        print("pass")
        return EXIT_OK
    print("fail")
    return EXIT_FAIL


def _names_scanner_keys(path) -> bool:
    """Whether some line of ``path`` is a ``key:`` line with a scanner key."""
    lines = (line.partition(":") for _, line in file_lines(read_text(path)))
    return any(sep and key.strip() in SCANNER_KEYS for key, sep, _ in lines)


def _load_expression(path: pathlib.Path, scanner_error: RuleFileError):
    """``path`` read as an LT expression.  A file that fails to parse as one
    but has scanner keys raises ``scanner_error`` instead."""
    try:
        return load_lt_expression(path)
    except RuleFileError:
        if _names_scanner_keys(path):
            raise scanner_error from None
        raise


def _cmd_compile(args) -> int:
    path = pathlib.Path(args.spec)
    schedule = ""
    if args.kind == "slt":
        try:
            scanners = [load_scanner(path)]
        except RuleFileError as scanner_error:
            # Not a scanner, so read it as a union expression; a broken
            # scanner file gets the scanner's error, which names its fault.
            expr = _load_expression(path, scanner_error)
            if any(node.op not in ("or", "scanner") for node in expr.nodes()):
                raise ParameterError(
                    f"{path}: slt compilation needs a scanner file or a pure union"
                ) from None
            scanners = expr.leaves()
        machine = compile_slt_union_to_aca(scanners)
        gather = max(s.k for s in scanners)
    else:
        expr = _load_expression(path, RuleFileError(
            f"{path.stem}: {path.name} is a scanner, not an LT expression; compile it"
            f" with 'acaw compile slt', or bind it in an expression: 'let NAME = {path.name}'"
        ))
        machine = compile_lt_to_daca(expr)
        gather, m = expr.window, len(set(expr.leaves()))
        checkpoints = machine.time_bound - gather - 1  # one step each after gathering
        schedule = f", {m} distinct {'leaf' if m == 1 else 'leaves'}, {checkpoints} checkpoints"
    text = tabulate_by_observation(machine, probe_len=gather + 4, name=path.stem)
    pathlib.Path(args.out).write_text(text)
    n_states = len(text.splitlines()[2].split()) - 1  # the states: line
    print(
        f"wrote {args.out}: {n_states} states,"
        f" settles within {machine.time_bound} steps{schedule}"
    )
    return EXIT_OK


def _cmd_semigroup(args) -> int:
    dfa = load_dfa(args.dfa)
    semigroup = syntactic_semigroup(dfa, max_elements=args.max_elements)
    idem = idempotents(semigroup)
    print(f"{dfa.name}: {len(semigroup)} elements, {len(idem)} idempotents")
    if not args.check_lt:
        return EXIT_OK
    ok, triple = is_locally_semilattice(semigroup)
    if ok:
        print("locally testable: yes")
        return EXIT_OK
    e, x, y = map(semigroup.words.__getitem__, triple)
    print("locally testable: no")
    print(f"witness e={e!r} x={x!r} y={y!r}")
    return EXIT_FAIL


def _cmd_contract(args) -> int:
    report = debruijn_contract(args.word, args.kappa)
    print(f"original length {len(args.word)}, contracted length {len(report.contracted)}")
    print(report.contracted)
    return EXIT_OK


def _cmd_zoo(args) -> int:
    source = TABLE_SOURCES.get(args.name)
    if source is None:
        hint = (
            "its states are generated on the fly and have no flat table"
            if args.name in ZOO
            else f"choose from {sorted(TABLE_SOURCES)}"
        )
        raise ParameterError(f"no rule table for {args.name!r}: {hint}")
    pathlib.Path(args.out).write_text(source)
    print(f"wrote {args.out}")
    return EXIT_OK


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The argument parser, built on the first call to :func:`main` in a
    process and reused by every later one."""
    parser = argparse.ArgumentParser(
        prog="acaw",
        description="Simulate, compile, and certify unanimous-acceptance cellular automata.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("run", help="run one word on one machine")
    p.add_argument("automaton_pos", nargs="?", metavar="AUTOMATON",
                   help="rule-table file or zoo:NAME")
    p.add_argument("--automaton", help="rule-table file or zoo:NAME")
    p.add_argument("--input", required=True, help="the input word")
    p.add_argument("--decider", action="store_true", help="run in decider mode")
    p.add_argument("--max-steps", type=int, default=None)
    p.add_argument("--trace", action="store_true", help="print every configuration")
    p.set_defaults(handler=_cmd_run)

    p = sub.add_parser("verify", help="compare a machine with a membership oracle")
    p.add_argument("--automaton", required=True, help="rule-table file or zoo:NAME")
    p.add_argument("--oracle", required=True, help=f"one of {sorted(ORACLES)}")
    p.add_argument("--max-len", type=int, required=True)
    p.add_argument("--mode", choices=["acceptor", "decider"], default="acceptor")
    p.add_argument("--max-steps", type=int, default=None)
    p.add_argument("--max-words", type=int, default=MAX_VERIFY_WORDS,
                   help="refuse to check more than this many words (default %(default)s)")
    p.set_defaults(handler=_cmd_verify)

    p = sub.add_parser("bench", help="measure a timing curve to CSV")
    p.add_argument("--family", required=True, help=f"one of {sorted(FAMILIES)}")
    p.add_argument("--k", required=True, help="index range MIN..MAX")
    p.add_argument("--mode", choices=["acceptor", "decider"], default="acceptor")
    p.add_argument("--max-steps", type=int, default=None)
    p.add_argument("--max-length", type=int, default=MAX_MEMBER_LENGTH,
                   help="refuse a member longer than this many symbols (default %(default)s)")
    p.add_argument("--out", required=True, help="CSV file to write")
    p.set_defaults(handler=_cmd_bench)

    p = sub.add_parser("fit", help="fit a growth bound to a CSV curve")
    p.add_argument("--csv", required=True)
    p.add_argument("--bound", choices=["const", "log", "sqrt", "linear"], required=True)
    p.add_argument("--ceiling", type=float, required=True)
    p.set_defaults(handler=_cmd_fit)

    p = sub.add_parser("compile", help="compile window tests to a rule table")
    p.add_argument("kind", choices=["slt", "lt"])
    p.add_argument("--spec", required=True, help="scanner or expression file")
    p.add_argument("--out", required=True, help="rule-table file to write")
    p.set_defaults(handler=_cmd_compile)

    p = sub.add_parser("semigroup", help="syntactic semigroup of a DFA")
    p.add_argument("--dfa", required=True, help="DFA file")
    p.add_argument("--check-lt", action="store_true",
                   help="also decide local testability")
    p.add_argument("--max-elements", type=int, default=MAX_ELEMENTS,
                   help="refuse a semigroup of more than this many elements"
                        " (default %(default)s)")
    p.set_defaults(handler=_cmd_semigroup)

    p = sub.add_parser("contract", help="profile-preserving word contraction")
    p.add_argument("--word", required=True)
    p.add_argument("--kappa", type=int, required=True)
    p.set_defaults(handler=_cmd_contract)

    p = sub.add_parser("zoo", help="materialize built-in machines")
    p.add_argument("action", choices=["build"])
    p.add_argument("name")
    p.add_argument("--out", required=True)
    p.set_defaults(handler=_cmd_zoo)

    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else EXIT_OK
    try:
        return args.handler(args)
    except (AcawError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
