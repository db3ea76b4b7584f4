"""The acaw command line: every subcommand, every exit code."""

import dataclasses
import itertools
import os
import random
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

from acaw import (
    ACCEPT, TIMEOUT, load_lt_expression, load_rule_table, lt_eval, parse_scanner, run_acceptor,
    run_decider, scanner_accepts,
)
from acaw import cli, semigroups
from acaw.semigroups import (
    idempotents, is_locally_testable, minimize, parse_dfa, syntactic_semigroup,
)
from acaw.cli import main
from acaw.zoo import FAMILIES, TABLE_SOURCES, ZOO, zoo_automaton

DFA_PARITY = """\
alphabet: 0 1
states: e o
start: e
accept: e
trans: e 0 -> e
trans: e 1 -> o
trans: o 0 -> o
trans: o 1 -> e
"""

DFA_SOMEONE = """\
alphabet: 0 1
states: a b
start: a
accept: b
trans: a 0 -> a
trans: a 1 -> b
trans: b 0 -> b
trans: b 1 -> b
"""



def full_transformation_dfa(n):
    """A minimal n-state DFA whose letters, a cycle, a swap and a merge,
    generate all n^n transformations of its states."""
    moves = {"a": lambda i: (i + 1) % n, "b": lambda i: {0: 1, 1: 0}.get(i, i),
             "c": lambda i: 0 if i == 1 else i}
    return f"alphabet: a b c\nstates: {' '.join(f's{i}' for i in range(n))}\nstart: s0\n" \
        "accept: s0\n" + "".join(f"trans: s{i} {a} -> s{move(i)}\n"
                                 for i in range(n) for a, move in moves.items())


SCANNER_PAIR = "k: 2\nalphabet: 0 1\npi: 01\nsigma: 01\nmu: 01 10\n"
SCANNER_ALL0 = "k: 1\nalphabet: 0 1\npi: 0\nsigma: 0\nmu: 0\n"


def test_run_accept_with_trace(capsys):
    code = main(["run", "zoo:pair01", "--input", "010101", "--trace"])
    assert code == 0
    assert capsys.readouterr().out.splitlines() == [
        "q 0 1 0 1 0 1 q",
        "q a a a a a a q",
        "accept 1",
    ]


def test_run_timeout_with_trace(capsys):
    code = main(["run", "zoo:pair01", "--input", "001010", "--trace"])
    assert code == 3
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "q 0 0 1 0 1 0 q"
    assert lines[1] == "q 0 0 a a a 0 q"
    assert lines[-1] == "timeout"


def test_run_hopeless_acceptor_word_prints_the_full_trace(capsys):
    # An untraced run stops at a doomed cell; a traced one still runs to the cycle.
    assert main(["run", "zoo:idmat", "--input", "##0##"]) == 3
    assert capsys.readouterr().out == "timeout\n"
    assert main(["run", "zoo:idmat", "--input", "##0##", "--trace"]) == 3
    assert capsys.readouterr().out.splitlines() == [
        "q # # 0 # # q",
        "q X X 0 X X q",
        "q X X 0 X X q",
        "q X X 00 X X q",
        *["q X X 0* X X q"] * 4,
        "timeout",
    ]


def test_run_decider_verdicts(capsys):
    assert main(["run", "zoo:someone", "--decider", "--input", "000000"]) == 1
    assert capsys.readouterr().out.strip() == "reject 1"
    assert main(["run", "zoo:someone", "--decider", "--input", "001010"]) == 0
    assert capsys.readouterr().out.strip() == "accept 2"


def test_run_automaton_flag_and_positional(capsys):
    assert main(["run", "--automaton", "zoo:pair01", "--input", "01"]) == 0
    capsys.readouterr()
    assert main(["run", "zoo:pair01", "--automaton", "zoo:pair01", "--input", "01"]) == 2
    assert main(["run", "--input", "01"]) == 2


def test_main_runs_repeatedly_on_one_parser(capsys):
    for _ in range(2):
        assert main(["run", "zoo:idmat", "--input", "1#", "--trace"]) == 3
        assert capsys.readouterr().out.splitlines()[-1] == "timeout"
        assert main(["run", "zoo:idmat", "--decider", "--input", "10#01"]) == 0
        assert capsys.readouterr().out == "accept 8\n"
        assert main(["run", "zoo:pair01"]) == 2
        assert "the following arguments are required: --input" in capsys.readouterr().err
    assert cli._build_parser() is cli._build_parser()


def test_run_max_steps_override(capsys):
    assert main(["run", "zoo:pair01", "--input", "01", "--max-steps", "0"]) == 3
    assert capsys.readouterr().out.strip() == "timeout"


@pytest.mark.parametrize(
    "argv",
    [
        ["run", "zoo:pair01", "--input", "0101", "--max-steps", "-5"],
        ["verify", "--automaton", "zoo:pair01", "--oracle", "pair01", "--max-len", "4",
         "--max-steps", "-1"],
        ["bench", "--family", "zeros", "--k", "1..3", "--max-steps", "-2", "--out", "rows.csv"],
    ],
    ids=["run", "verify", "bench"],
)
def test_negative_step_budgets_exit_2_with_one_error_line(tmp_path, capsys, argv, monkeypatch):
    monkeypatch.chdir(tmp_path)
    budget = argv[argv.index("--max-steps") + 1]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: max_steps must be >= 0, not {budget}\n"
    assert not (tmp_path / "rows.csv").exists()


def test_run_mode_mismatches(tmp_path, capsys):
    assert main(["run", "zoo:pair01", "--decider", "--input", "01"]) == 2
    table = tmp_path / "someone.tbl"
    assert main(["zoo", "build", "someone", "--out", str(table)]) == 0
    capsys.readouterr()
    assert main(["run", str(table), "--input", "01"]) == 2  # needs --decider
    assert main(["run", str(table), "--decider", "--input", "01"]) == 0
    assert capsys.readouterr().out.strip() == "accept 2"


def test_run_missing_file():
    assert main(["run", "no/such/file.tbl", "--input", "0"]) == 2


def test_verify_ok(capsys):
    code = main(
        ["verify", "--automaton", "zoo:pair01", "--oracle", "pair01", "--max-len", "6"]
    )
    assert code == 0
    assert capsys.readouterr().out.startswith("ok: 126 words")


def test_verify_mismatch(capsys):
    code = main(
        ["verify", "--automaton", "zoo:zeros", "--oracle", "pair01", "--max-len", "4"]
    )
    assert code == 1
    out = capsys.readouterr().out
    assert out.startswith("FAIL:")
    assert "machine says" in out


def test_verify_refuses_more_words_than_max_words(capsys):
    argv = ["verify", "--automaton", "zoo:pair01", "--oracle", "pair01", "--max-len", "3"]
    assert main(argv + ["--max-words", "13"]) == 2
    assert "14 words to length 3, over the budget of 13 words" in capsys.readouterr().err
    assert main(argv + ["--max-words", "14"]) == 0


def test_verify_unknown_oracle():
    code = main(
        ["verify", "--automaton", "zoo:zeros", "--oracle", "primes", "--max-len", "3"]
    )
    assert code == 2


def test_bench_fit_pipeline(tmp_path, capsys):
    csv = tmp_path / "someone.csv"
    code = main(
        ["bench", "--family", "someone", "--k", "1..30", "--mode", "decider",
         "--out", str(csv)]
    )
    assert code == 0
    assert "rows" in capsys.readouterr().out
    assert main(["fit", "--csv", str(csv), "--bound", "const", "--ceiling", "2"]) == 0
    out = capsys.readouterr().out
    assert out.splitlines()[-1] == "pass"
    assert main(["fit", "--csv", str(csv), "--bound", "const", "--ceiling", "0.5"]) == 1
    assert capsys.readouterr().out.splitlines()[-1] == "fail"


def test_bench_bad_arguments(tmp_path):
    out = str(tmp_path / "x.csv")
    assert main(["bench", "--family", "primes", "--k", "1..3", "--out", out]) == 2
    assert main(["bench", "--family", "zeros", "--k", "5..1", "--out", out]) == 2
    assert main(["bench", "--family", "zeros", "--k", "x", "--out", out]) == 2
    assert main(["fit", "--csv", str(tmp_path / "gone.csv"), "--bound", "const",
                 "--ceiling", "1"]) == 2


def test_bench_refuses_an_over_long_member(tmp_path, capsys, monkeypatch):
    """``--k 30`` on bin exits 2 at once: its member is never built."""
    # a build would raise TypeError, which main does not catch
    monkeypatch.setitem(FAMILIES, "bin", dataclasses.replace(FAMILIES["bin"], generate=None))
    out = tmp_path / "rows.csv"
    assert main(["bench", "--family", "bin", "--k", "30", "--out", str(out)]) == 2
    assert capsys.readouterr().err == (
        "error: bin k=30: its member has 33285996543 symbols, over the budget of 100000\n")
    assert main(["bench", "--family", "idmat", "--k", "1..3", "--max-length", "10",
                 "--out", str(out)]) == 2
    assert "11 symbols, over the budget of 10\n" in capsys.readouterr().err
    assert not out.exists()
    assert main(["bench", "--family", "idmat", "--k", "1..3", "--max-length", "11",
                 "--out", str(out)]) == 0


@pytest.mark.parametrize("n, steps, bound", [(0, 3, "linear"), (-4, 3, "sqrt"), (4, -3, "const")])
def test_fit_refuses_impossible_rows(tmp_path, capsys, n, steps, bound):
    csv = tmp_path / "curve.csv"
    csv.write_text(f"family,k,n,verdict,steps\nidmat,1,{n},accept,{steps}\n")
    assert main(["fit", "--csv", str(csv), "--bound", bound, "--ceiling", "5"]) == 2
    assert "curve.csv:2: " in capsys.readouterr().err


def test_compile_slt_from_scanner(tmp_path, capsys):
    spec = tmp_path / "pair.scan"
    spec.write_text(SCANNER_PAIR)
    out = tmp_path / "pair.tbl"
    assert main(["compile", "slt", "--spec", str(spec), "--out", str(out)]) == 0
    message = capsys.readouterr().out
    assert "states, settles within" in message
    assert main(["run", str(out), "--input", "0101"]) == 0
    assert capsys.readouterr().out.strip() == "accept 3"
    assert main(["run", str(out), "--input", "0110"]) == 3


def test_compile_slt_from_union_expression(tmp_path, capsys):
    (tmp_path / "pair.scan").write_text(SCANNER_PAIR)
    (tmp_path / "all0.scan").write_text(SCANNER_ALL0)
    spec = tmp_path / "either.lt"
    spec.write_text("let p = pair.scan\nlet z = all0.scan\n(or p z)\n")
    out = tmp_path / "either.tbl"
    assert main(["compile", "slt", "--spec", str(spec), "--out", str(out)]) == 0
    capsys.readouterr()
    assert main(["run", str(out), "--input", "0000"]) == 0
    assert main(["run", str(out), "--input", "0101"]) == 0
    assert main(["run", str(out), "--input", "0100"]) == 3


def test_compile_slt_rejects_non_union(tmp_path):
    (tmp_path / "all0.scan").write_text(SCANNER_ALL0)
    spec = tmp_path / "neg.lt"
    spec.write_text("let z = all0.scan\n(not z)\n")
    assert main(["compile", "slt", "--spec", str(spec),
                 "--out", str(tmp_path / "x.tbl")]) == 2


def test_compile_slt_reports_the_scanner_error(tmp_path, capsys):
    # A broken scanner file is not an expression either; report the scanner's fault.
    spec = tmp_path / "s.scan"
    spec.write_text("k: 2\nalphabet: 0 1\nsigma: 01\n")
    assert main(["compile", "slt", "--spec", str(spec),
                 "--out", str(tmp_path / "x.tbl")]) == 2
    assert capsys.readouterr().err == "error: s: missing 'pi:' line\n"


def test_compile_lt_names_a_scanner_file(tmp_path, capsys):
    spec = tmp_path / "pair.scan"
    spec.write_text(SCANNER_PAIR)
    assert main(["compile", "lt", "--spec", str(spec),
                 "--out", str(tmp_path / "x.tbl")]) == 2
    assert capsys.readouterr().err == (
        "error: pair: pair.scan is a scanner, not an LT expression; compile it"
        " with 'acaw compile slt', or bind it in an expression: 'let NAME = pair.scan'\n"
    )


def test_compile_lt_decider(tmp_path, capsys):
    (tmp_path / "all0.scan").write_text(SCANNER_ALL0)
    spec = tmp_path / "someone.lt"
    spec.write_text("# words with at least one 1\nlet z = all0.scan\n(not z)\n")
    out = tmp_path / "someone.tbl"
    assert main(["compile", "lt", "--spec", str(spec), "--out", str(out)]) == 0
    capsys.readouterr()
    assert main(["run", str(out), "--decider", "--input", "00100"]) == 0
    assert main(["run", str(out), "--decider", "--input", "00000"]) == 1


def test_compile_slt_window3_table_matches_scanner(tmp_path, capsys):
    text = (
        "k: 3\nalphabet: 0 1\npi: 000 001 010 011\n"
        "sigma: 000 001 010 011 100 101 110 111\nmu: 000 001 010 011 100 101 110\n"
    )
    scanner = parse_scanner(text, name="no111")
    spec = tmp_path / "no111.scan"
    spec.write_text(text)
    out = tmp_path / "no111.tbl"
    assert main(["compile", "slt", "--spec", str(spec), "--out", str(out)]) == 0
    capsys.readouterr()
    table = load_rule_table(out)
    for n in range(1, 9):
        for tup in itertools.product("01", repeat=n):
            word = "".join(tup)
            verdict = run_acceptor(table, word)
            assert (verdict.kind == ACCEPT) == scanner_accepts(scanner, word), word


def test_compile_lt_window2_state_count(tmp_path, capsys):
    # The union of two distinct leaves keeps three checkpoints, one per leaf
    # and the empty set, after two gathering steps; the time bound is one
    # step past the last of them: 2 + 3 + 1 = 6.
    (tmp_path / "pair.scan").write_text(SCANNER_PAIR)
    (tmp_path / "all0.scan").write_text(SCANNER_ALL0)
    spec = tmp_path / "either.lt"
    spec.write_text("let p = pair.scan\nlet z = all0.scan\n(or p z)\n")
    out = tmp_path / "either.tbl"
    assert main(["compile", "lt", "--spec", str(spec), "--out", str(out)]) == 0
    assert capsys.readouterr().out == (
        f"wrote {out}: 54 states, settles within 6 steps, 2 distinct leaves, 3 checkpoints\n"
    )
    table = load_rule_table(out)
    assert len(table.states) == 54
    expr = load_lt_expression(spec)
    for word in words("01", 10):
        verdict = run_decider(table, word)
        assert verdict.steps <= 6 and (verdict.kind == ACCEPT) == lt_eval(expr, word), word


# The criterion-4 scanners and expressions, as files.
C4_SCANNERS = {
    "pair01": (2, "01", "01", "01", "01 10"),
    "all0": (1, "01", "0", "0", "0"),
    "all1": (1, "01", "1", "1", "1"),
    "no11": (2, "01", "00 01 10 11", "00 01 10 11", "00 01 10"),
}
C4_EXPRESSIONS = [
    "(not all0)", "(not (not pair01))", "(or pair01 all0)", "(and no11 (not all0))",
    "(not (or all0 all1))",
]


def words(alphabet, max_len):
    for n in range(1, max_len + 1):
        yield from map("".join, itertools.product(alphabet, repeat=n))


def scanner_file(k, alphabet, pi, sigma, mu):
    return f"k: {k}\nalphabet: {' '.join(alphabet)}\npi: {pi}\nsigma: {sigma}\nmu: {mu}\n"


def random_lt_file(directory, seed, alphabet, widths):
    """Seeded scanners and an expression over them whose verdicts differ on
    the words up to length 5, drawn as the lt benchmark workload draws them."""
    rng = random.Random(seed)

    def subset(windows):
        return " ".join(w for w in windows if rng.random() < 0.6) or rng.choice(windows)

    def node(names):
        if len(names) == 1:
            return f"(not {names[0]})" if rng.random() < 0.3 else names[0]
        cut = rng.randint(1, len(names) - 1)
        text = f"({rng.choice(('or', 'and'))} {node(names[:cut])} {node(names[cut:])})"
        return f"(not {text})" if rng.random() < 0.2 else text

    while True:
        lets = ""
        for i, k in enumerate(widths):
            windows = ["".join(t) for t in itertools.product(alphabet, repeat=k)]
            fields = (subset(windows), subset(windows), subset(windows))
            (directory / f"leaf{i}.scan").write_text(scanner_file(k, alphabet, *fields))
            lets += f"let leaf{i} = leaf{i}.scan\n"
        spec = directory / f"random{seed}.lt"
        spec.write_text(lets + node([f"leaf{i}" for i in range(len(widths))]) + "\n")
        expr = load_lt_expression(spec)
        if len({lt_eval(expr, word) for word in words(alphabet, 5)}) == 2:
            return spec


def c4_lt_file(directory, expression):
    for name, fields in C4_SCANNERS.items():
        (directory / f"{name}.scan").write_text(scanner_file(*fields))
    spec = directory / "c4.lt"
    spec.write_text("".join(f"let {name} = {name}.scan\n" for name in C4_SCANNERS) + expression)
    return spec


# (alphabet, leaf widths) of the seeded expressions; the seed is the index.
RANDOM_LT = [
    ("01", [1, 1]), ("01", [1, 1, 1]), ("01", [2, 1]), ("01", [2, 2, 1]), ("01", [2, 2]),
    ("012", [1, 1]), ("012", [1, 1, 1]),
]


@pytest.mark.parametrize(
    "case", [*C4_EXPRESSIONS, *range(len(RANDOM_LT))],
    ids=[*C4_EXPRESSIONS, *(f"seed{i}-{a}-{w}" for i, (a, w) in enumerate(RANDOM_LT))],
)
def test_compiled_lt_tables_match_lt_eval(tmp_path, capsys, case):
    if isinstance(case, str):
        spec, alphabet = c4_lt_file(tmp_path, case), "01"
    else:
        alphabet, widths = RANDOM_LT[case]
        spec = random_lt_file(tmp_path, case, alphabet, widths)
    out = tmp_path / "compiled.tbl"
    assert main(["compile", "lt", "--spec", str(spec), "--out", str(out)]) == 0
    capsys.readouterr()
    table = load_rule_table(out)
    expr = load_lt_expression(spec)
    for word in words(alphabet, 12 if alphabet == "01" else 7):
        verdict = run_decider(table, word)  # the default budget, as `acaw run` has it
        assert verdict.kind != TIMEOUT, word
        assert (verdict.kind == ACCEPT) == lt_eval(expr, word), word


def test_loaded_table_runs_within_its_machines_time_bound(tmp_path, capsys):
    # The parity of five window-1 leaves keeps all 2^5 checkpoints, so the
    # machine settles within 1 + 32 + 1 = 34 steps, past the default budget
    # 4n + 16 of a short word.
    leaves = [("1", "0 1", "0 1"), ("0 1", "1", "0 1"), ("0 1", "0 1", "1"),
              ("1", "1", "0 1"), ("0 1", "0 1", "0 1")]
    for i, fields in enumerate(leaves):
        (tmp_path / f"s{i}.scan").write_text(scanner_file(1, "01", *fields))
    spec = tmp_path / "five.lt"
    parity = "s0"
    for i in range(1, 5):
        parity = f"(or (and {parity} (not s{i})) (and (not {parity}) s{i}))"
    spec.write_text("".join(f"let s{i} = s{i}.scan\n" for i in range(5)) + parity + "\n")
    out = tmp_path / "five.tbl"
    assert main(["compile", "lt", "--spec", str(spec), "--out", str(out)]) == 0
    assert "settles within 34 steps, 5 distinct leaves, 32 checkpoints\n" in capsys.readouterr().out
    assert "time_bound: 34\n" in out.read_text()
    expr = load_lt_expression(spec)
    for word in ("0", "00", "000", "0000", "1", "11"):
        code = main(["run", str(out), "--decider", "--input", word])
        kind, steps = capsys.readouterr().out.split()
        assert (kind, code) == (("accept", 0) if lt_eval(expr, word) else ("reject", 1)), word
        assert int(steps) <= 34, word


def test_compile_lt_window4_negation_is_fast(tmp_path, capsys):
    # The profile compiler needed 144,401 steps here, over the tabulation ceiling.
    (tmp_path / "a4.scan").write_text(scanner_file(4, "01", "0000", "0000", "0000"))
    spec = tmp_path / "not-a4.lt"
    spec.write_text("let a4 = a4.scan\n(not a4)\n")
    out = tmp_path / "not-a4.tbl"
    start = time.perf_counter()
    assert main(["compile", "lt", "--spec", str(spec), "--out", str(out)]) == 0
    assert time.perf_counter() - start < 1
    assert "settles within 7 steps, 1 distinct leaf, 2 checkpoints\n" in capsys.readouterr().out
    table = load_rule_table(out)
    for word in words("01", 9):
        assert (run_decider(table, word).kind == ACCEPT) == (len(word) < 4 or "1" in word), word


def test_compile_lt_refuses_13_distinct_leaves(tmp_path, capsys):
    windows = ["00", "01", "10", "11"]
    mus = [c for size in (1, 2, 3) for c in itertools.combinations(windows, size)][:13]
    lets = ""
    for i, mu in enumerate(mus):
        (tmp_path / f"s{i}.scan").write_text(scanner_file(2, "01", "00", "00", " ".join(mu)))
        lets += f"let s{i} = s{i}.scan\n"
    spec = tmp_path / "wide.lt"
    spec.write_text(lets + "(or " + " ".join(f"s{i}" for i in range(13)) + ")\n")
    assert main(["compile", "lt", "--spec", str(spec), "--out", str(tmp_path / "x.tbl")]) == 2
    assert capsys.readouterr().err == (
        "error: 13 distinct scanner leaves give 8192 verdict vectors to search;"
        " the budget is 4096\n"
    )
    assert not (tmp_path / "x.tbl").exists()


@pytest.mark.parametrize(
    "argv",
    [
        ["semigroup", "--dfa", "{dir}"],
        ["compile", "lt", "--spec", "{dir}", "--out", "{tmp}/x.tbl"],
        ["compile", "slt", "--spec", "{dir}", "--out", "{tmp}/x.tbl"],
        ["fit", "--csv", "{dir}", "--bound", "const", "--ceiling", "1"],
        ["run", "{dir}", "--input", "0"],
        ["compile", "lt", "--spec", "{tmp}/lets-dir.lt", "--out", "{tmp}/x.tbl"],
    ],
    ids=["semigroup", "compile-lt", "compile-slt", "fit", "run", "let-names-dir"],
)
def test_unreadable_paths_exit_2_with_one_error_line(tmp_path, capsys, argv):
    (tmp_path / "dir").mkdir()
    (tmp_path / "lets-dir.lt").write_text("# a directory, not a scanner\nlet z = dir\nz\n")
    code = main([arg.format(dir=tmp_path / "dir", tmp=tmp_path) for arg in argv])
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith("error: ") and err.count("\n") == 1, err
    if "let-names-dir" in str(argv):
        assert err.startswith("error: lets-dir:2: cannot read "), err


@pytest.mark.parametrize(
    "expression, code",
    [
        ("(not " * 2000 + "z" + ")" * 2000, 2),  # too deep to parse
        ("(and z " * 600 + "z" + ")" * 600, 2),  # parses, but too deep to evaluate
        ("(not " * 101 + "z" + ")" * 101, 2),
        ("(not " * 100 + "z" + ")" * 100, 0),  # at the bound
    ],
    ids=["not-2000", "and-600", "not-101", "not-100"],
)
def test_compile_lt_refuses_deep_nesting(tmp_path, capsys, expression, code):
    (tmp_path / "all0.scan").write_text(SCANNER_ALL0)
    spec = tmp_path / "deep.lt"
    spec.write_text("let z = all0.scan\n" + expression + "\n")
    out = tmp_path / "deep.tbl"
    assert main(["compile", "lt", "--spec", str(spec), "--out", str(out)]) == code
    if code:
        assert capsys.readouterr().err == (
            "error: deep: expression nests deeper than 100 levels\n"
        )
    else:
        capsys.readouterr()
        # an even number of negations: the words that are all zeros
        assert main(["run", str(out), "--decider", "--input", "000"]) == 0
        assert main(["run", str(out), "--decider", "--input", "010"]) == 1


def test_semigroup_command(tmp_path, capsys):
    parity = tmp_path / "parity.dfa"
    parity.write_text(DFA_PARITY)
    assert main(["semigroup", "--dfa", str(parity)]) == 0
    assert "2 elements" in capsys.readouterr().out
    assert main(["semigroup", "--dfa", str(parity), "--check-lt"]) == 1
    out = capsys.readouterr().out
    assert "locally testable: no" in out
    assert "witness e='0' x='1' y='1'" in out
    someone = tmp_path / "someone.dfa"
    someone.write_text(DFA_SOMEONE)
    assert main(["semigroup", "--dfa", str(someone), "--check-lt"]) == 0
    assert "locally testable: yes" in capsys.readouterr().out


def test_semigroup_check_lt_closes_the_semigroup_once(tmp_path, capsys, monkeypatch):
    """``--check-lt`` decides on the semigroup it printed, so the DFA is
    minimized once; its output is what the DFA-level decision gives, on
    locally testable DFAs and on others, with witnesses of both kinds."""
    minimized = []
    monkeypatch.setattr(semigroups, "minimize", lambda dfa: minimized.append(dfa) or minimize(dfa))
    rng = random.Random(7)
    texts = {"parity": DFA_PARITY, "someone": DFA_SOMEONE}
    for index in range(30):
        states = [f"s{i}" for i in range(rng.randint(2, 4))]
        accept = " ".join(s for s in states if rng.random() < 0.5)
        texts[f"random-{index}"] = f"alphabet: 0 1\nstates: {' '.join(states)}\nstart: s0\n" \
            f"accept: {accept}\n" + "".join(
                f"trans: {s} {a} -> {rng.choice(states)}\n" for s in states for a in "01")
    kinds = set()
    for name, text in texts.items():
        dfa = parse_dfa(text, name)
        semigroup = syntactic_semigroup(dfa)
        ok, witness = is_locally_testable(dfa)
        want = f"{name}: {len(semigroup)} elements, {len(idempotents(semigroup))} idempotents\n"
        if ok:
            want += "locally testable: yes\n"
        else:
            want += "locally testable: no\nwitness e={!r} x={!r} y={!r}\n".format(*witness)
        kinds.add("yes" if ok else "x == y" if witness[1] == witness[2] else "x != y")
        path = tmp_path / f"{name}.dfa"
        path.write_text(text)
        minimized.clear()
        assert main(["semigroup", "--dfa", str(path), "--check-lt"]) == (0 if ok else 1)
        assert capsys.readouterr().out == want, name
        assert len(minimized) == 1, name
    assert kinds == {"yes", "x == y", "x != y"}


def test_semigroup_refuses_more_elements_than_max_elements(tmp_path, capsys):
    path = tmp_path / "full4.dfa"
    path.write_text(full_transformation_dfa(4))
    assert main(["semigroup", "--dfa", str(path), "--max-elements", "255"]) == 2
    assert "passed the budget of 255 elements (256 found)" in capsys.readouterr().err
    assert main(["semigroup", "--dfa", str(path), "--max-elements", "256"]) == 0
    assert capsys.readouterr().out.startswith("full4: 256 elements")


def test_contract_command(capsys):
    assert main(["contract", "--word", "01" * 30, "--kappa", "2"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0].startswith("original length 60, contracted length")
    assert len(lines[1]) < 60
    assert main(["contract", "--word", "01", "--kappa", "0"]) == 2


def test_contract_refuses_the_empty_word(capsys):
    assert main(["contract", "--word", "", "--kappa", "1"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "contraction takes a non-empty word" in captured.err


def test_zoo_build(tmp_path, capsys):
    out = tmp_path / "pair01.tbl"
    assert main(["zoo", "build", "pair01", "--out", str(out)]) == 0
    capsys.readouterr()
    assert main(["run", str(out), "--input", "01"]) == 0
    assert main(["zoo", "build", "bin", "--out", str(tmp_path / "bin.tbl")]) == 2
    assert main(["zoo", "build", "nope", "--out", str(tmp_path / "x.tbl")]) == 2


def test_zoo_build_writes_each_table_verbatim(tmp_path):
    """Building the machines first, which parses their tables once, leaves
    the text that `zoo build` writes as it is."""
    for name, source in TABLE_SOURCES.items():
        machine = zoo_automaton(name, decider=ZOO[name][0] is None)
        out = tmp_path / f"{name}.tbl"
        assert main(["zoo", "build", name, "--out", str(out)]) == 0
        assert out.read_text() == source
        run = run_decider if machine.is_decider else run_acceptor
        for word in ("0", "01", "0101", "0110"):
            assert run(load_rule_table(out), word) == run(machine, word)


def test_usage_exits():
    assert main(["--help"]) == 0
    assert main([]) == 2
    assert main(["frobnicate"]) == 2


@pytest.mark.skipif(shutil.which("acaw") is None, reason="entry point not installed")
def test_installed_entry_point():
    proc = subprocess.run(
        ["acaw", "run", "zoo:pair01", "--input", "01"],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0
    assert proc.stdout.strip() == "accept 1"


@pytest.mark.parametrize("word, code, out", [("01", 0, "accept 1"), ("00", 3, "timeout")])
def test_module_entry_point_exits_with_the_verdict_code(word, code, out):
    """``python -m acaw.cli`` from a source checkout, no install needed."""
    src = Path(__file__).resolve().parents[1] / "src"
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, (str(src), os.environ.get("PYTHONPATH")))
    ))
    proc = subprocess.run(
        [sys.executable, "-m", "acaw.cli", "run", "zoo:pair01", "--input", word],
        capture_output=True, text=True, env=env,
    )
    assert (proc.returncode, proc.stdout.strip()) == (code, out)
