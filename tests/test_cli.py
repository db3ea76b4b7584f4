"""The acaw command line: every subcommand, every exit code."""

import itertools
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from acaw import ACCEPT, load_rule_table, parse_scanner, run_acceptor, scanner_accepts
from acaw.cli import main

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


def test_run_max_steps_override(capsys):
    assert main(["run", "zoo:pair01", "--input", "01", "--max-steps", "0"]) == 3
    assert capsys.readouterr().out.strip() == "timeout"


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
    # Every binary window-2 expression walks the same profile schedule, so
    # its table has the same states whatever the verdicts.
    (tmp_path / "pair.scan").write_text(SCANNER_PAIR)
    (tmp_path / "all0.scan").write_text(SCANNER_ALL0)
    spec = tmp_path / "either.lt"
    spec.write_text("let p = pair.scan\nlet z = all0.scan\n(or p z)\n")
    out = tmp_path / "either.tbl"
    assert main(["compile", "lt", "--spec", str(spec), "--out", str(out)]) == 0
    assert "1498 states" in capsys.readouterr().out
    assert len(load_rule_table(out).states) == 1498


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


def test_contract_command(capsys):
    assert main(["contract", "--word", "01" * 30, "--kappa", "2"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0].startswith("original length 60, contracted length")
    assert len(lines[1]) < 60
    assert main(["contract", "--word", "01", "--kappa", "0"]) == 2


def test_zoo_build(tmp_path, capsys):
    out = tmp_path / "pair01.tbl"
    assert main(["zoo", "build", "pair01", "--out", str(out)]) == 0
    capsys.readouterr()
    assert main(["run", str(out), "--input", "01"]) == 0
    assert main(["zoo", "build", "bin", "--out", str(tmp_path / "bin.tbl")]) == 2
    assert main(["zoo", "build", "nope", "--out", str(tmp_path / "x.tbl")]) == 2


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
