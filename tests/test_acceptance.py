"""The six acceptance checks, printing one pass/fail line per criterion.

Run with `pytest -s tests/test_acceptance.py` to see the lines as they go;
without -s they still appear in the captured output of any failing test.
"""

import contextlib
import functools
import io
import itertools
import random
import time

from acaw import (
    ACCEPT,
    REJECT,
    TIMEOUT,
    BudgetError,
    Dfa,
    FAMILIES,
    Scanner,
    aca_union,
    compile_lt_to_daca,
    compile_slt_union_to_aca,
    critical_contract,
    daca_complement,
    debruijn_contract,
    fit_bound,
    infix_set,
    is_locally_testable,
    lemma1_hypothesis,
    lemma7_hypothesis,
    lt_and,
    lt_eval,
    lt_not,
    lt_or,
    lt_scanner,
    measure_time_curve,
    prefix_of,
    run_acceptor,
    run_decider,
    run_many,
    scanner_accepts,
    suffix_of,
    verify_equivalence,
    zoo_automaton,
)
from acaw.cli import main as cli_main
from acaw.zoo import is_member_bin, is_member_idmat, is_member_zeros


def criterion(n):
    def decorate(fn):
        @functools.wraps(fn)
        def wrapper():
            try:
                fn()
            except BaseException:
                print(f"criterion {n}: fail")
                raise
            print(f"criterion {n}: pass")

        return wrapper

    return decorate


def run_cli(argv):
    buffer = io.StringIO()
    with contextlib.redirect_stdout(buffer):
        code = cli_main(argv)
    return buffer.getvalue().splitlines(), code


def words(alphabet, max_len):
    for n in range(1, max_len + 1):
        for tup in itertools.product(alphabet, repeat=n):
            yield "".join(tup)


def is_pair01(w):
    return len(w) >= 2 and w == "01" * (len(w) // 2)


@criterion(1)
def test_criterion_1_reference_traces_bit_exact():
    start = time.monotonic()
    out, code = run_cli(["run", "zoo:pair01", "--input", "010101", "--trace"])
    assert code == 0
    assert out == ["q 0 1 0 1 0 1 q", "q a a a a a a q", "accept 1"]
    out, code = run_cli(["run", "zoo:pair01", "--input", "001010", "--trace"])
    assert code == 3
    assert out[0] == "q 0 0 1 0 1 0 q"
    assert out[1] == "q 0 0 a a a 0 q"
    assert out[-1] == "timeout"
    out, code = run_cli(["run", "zoo:someone", "--decider", "--input", "000000",
                         "--trace"])
    assert code == 1
    assert out == ["q 0 0 0 0 0 0 q", "q r r r r r r q", "reject 1"]
    out, code = run_cli(["run", "zoo:someone", "--decider", "--input", "001010",
                         "--trace"])
    assert code == 0
    assert out == [
        "q 0 0 1 0 1 0 q",
        "q r r a r a r q",
        "q a a a a a a q",
        "accept 2",
    ]
    assert time.monotonic() - start < 1.0


@criterion(2)
def test_criterion_2_exhaustive_zoo_soundness():
    """Every zoo machine on every short word, each machine's words as one
    batch (``run_many``); ``tests/test_core.py`` ties batches to single runs."""
    start = time.monotonic()
    pair = zoo_automaton("pair01")
    zeros = zoo_automaton("zeros")
    someone = zoo_automaton("someone", decider=True)
    binary = list(words("01", 12))
    kinds = [[kind for kind, _ in run_many(m, binary)] for m in (pair, zeros, someone)]
    for w, pair_kind, zeros_kind, someone_kind in zip(binary, *kinds):
        assert (pair_kind == ACCEPT) == is_pair01(w), w
        assert (zeros_kind == ACCEPT) == (set(w) == {"0"}), w
        assert someone_kind != TIMEOUT, w
        assert (someone_kind == ACCEPT) == ("1" in w), w
    idmat_acc = zoo_automaton("idmat")
    idmat_dec = zoo_automaton("idmat", decider=True)
    bin_acc = zoo_automaton("bin")
    ternary = list(words("01#", 11))
    kinds = [[kind for kind, _ in run_many(m, ternary)] for m in (idmat_acc, idmat_dec, bin_acc)]
    for w, acc_kind, dec_kind, bin_kind in zip(ternary, *kinds):
        member = is_member_idmat(w)
        assert (acc_kind == ACCEPT) == member, w
        assert dec_kind != TIMEOUT, w
        assert (dec_kind == ACCEPT) == member, w
        assert (bin_kind == ACCEPT) == is_member_bin(w), w
    assert len(binary) == 8_190 and len(ternary) == 265_719
    assert time.monotonic() - start < 300


@criterion(3)
def test_criterion_3_time_bound_certification():
    start = time.monotonic()
    ks = range(1, 31)
    idmat = FAMILIES["idmat"]

    acc_rows = measure_time_curve(idmat, ks)
    assert fit_bound(acc_rows, "sqrt", ceiling=6).passed
    acc_log = fit_bound(acc_rows, "log", ceiling=6)
    assert not acc_log.passed
    assert acc_log.divergence > 6  # outgrows log even on the largest inputs

    dec_rows = measure_time_curve(idmat, ks, mode="decider")
    assert fit_bound(dec_rows, "sqrt", ceiling=6).passed
    dec_member_rows = measure_time_curve(idmat, ks, mode="decider", perturb=False)
    dec_log = fit_bound(dec_member_rows, "log", ceiling=6)
    assert not dec_log.passed
    assert dec_log.divergence > 6

    bin_rows = measure_time_curve(FAMILIES["bin"], range(1, 9))
    assert fit_bound(bin_rows, "log", ceiling=30).passed
    # under const the divergence indicator keeps climbing with scale
    const_half = fit_bound([r for r in bin_rows if r.k <= 4], "const", ceiling=1)
    const_full = fit_bound(bin_rows, "const", ceiling=1)
    assert const_full.divergence > const_half.divergence
    assert const_full.divergence > 20

    someone_ks = list(range(1, 101)) + [200, 500, 1000, 2000, 5000, 10000]
    someone_rows = measure_time_curve(
        FAMILIES["someone"], someone_ks, mode="decider"
    )
    assert max(row.n for row in someone_rows) == 10000
    report = fit_bound(someone_rows, "const", ceiling=2)
    assert report.passed

    assert time.monotonic() - start < 120


BITS = ("0", "1")
SCANNERS = {
    "pair01": Scanner(k=2, alphabet=BITS, pi=frozenset({"01"}),
                      sigma=frozenset({"01"}), mu=frozenset({"01", "10"}),
                      name="pair01"),
    "all0": Scanner(k=1, alphabet=BITS, pi=frozenset({"0"}),
                    sigma=frozenset({"0"}), mu=frozenset({"0"}), name="all0"),
    "all1": Scanner(k=1, alphabet=BITS, pi=frozenset({"1"}),
                    sigma=frozenset({"1"}), mu=frozenset({"1"}), name="all1"),
    "ends01": Scanner(k=1, alphabet=BITS, pi=frozenset({"0"}),
                      sigma=frozenset({"1"}), mu=frozenset({"0", "1"}),
                      name="ends01"),
    "no11": Scanner(k=2, alphabet=BITS,
                    pi=frozenset({"00", "01", "10", "11"}),
                    sigma=frozenset({"00", "01", "10", "11"}),
                    mu=frozenset({"00", "01", "10"}), name="no11"),
}
EXPRESSIONS = {
    "someone": lt_not(lt_scanner(SCANNERS["all0"])),
    "pair01-twice-negated": lt_not(lt_not(lt_scanner(SCANNERS["pair01"]))),
    "pair01-or-zeros": lt_or(lt_scanner(SCANNERS["pair01"]),
                             lt_scanner(SCANNERS["all0"])),
    "no11-and-someone": lt_and(lt_scanner(SCANNERS["no11"]),
                               lt_not(lt_scanner(SCANNERS["all0"]))),
    "never-uniform": lt_not(lt_or(lt_scanner(SCANNERS["all0"]),
                                  lt_scanner(SCANNERS["all1"]))),
}
# one accepted probe family per acceptor machine, for the constancy check
ACCEPTED_PROBES = {
    "pair01": lambda n: "01" * (n // 2),
    "all0": lambda n: "0" * n,
    "all1": lambda n: "1" * n,
    "ends01": lambda n: "0" * (n - 1) + "1",
    "no11": lambda n: "0" * n,
}


@criterion(4)
def test_criterion_4_window_compilers_match_references():
    assert len(SCANNERS) >= 5 and len(EXPRESSIONS) >= 5
    # acceptors, one per scanner plus one true union
    machines = {name: compile_slt_union_to_aca([s]) for name, s in SCANNERS.items()}
    union = compile_slt_union_to_aca([SCANNERS["pair01"], SCANNERS["all0"]])
    deciders = {name: compile_lt_to_daca(e) for name, e in EXPRESSIONS.items()}
    for w in words("01", 10):
        for name, s in SCANNERS.items():
            got = run_acceptor(machines[name], w).kind == ACCEPT
            assert got == scanner_accepts(s, w), (name, w)
        union_want = scanner_accepts(SCANNERS["pair01"], w) or scanner_accepts(
            SCANNERS["all0"], w
        )
        assert (run_acceptor(union, w).kind == ACCEPT) == union_want, w
        for name, expr in EXPRESSIONS.items():
            verdict = run_decider(deciders[name], w)
            assert verdict.kind != TIMEOUT, (name, w)
            assert (verdict.kind == ACCEPT) == lt_eval(expr, w), (name, w)

    # verdict steps constant across lengths 3..10, machine by machine,
    # over probes whose window profile does not change with the length
    for name, machine in machines.items():
        probe = ACCEPTED_PROBES[name]
        lengths = [n for n in range(3, 11) if probe(n) and len(probe(n)) == n]
        if name == "pair01":
            lengths = [n for n in lengths if n % 2 == 0]
        steps = {run_acceptor(machine, probe(n)).steps for n in lengths}
        assert len(steps) == 1, name
    for name, machine in deciders.items():
        for make in (lambda n: "0" * n, lambda n: "1" * n,
                     lambda n: ("01" * n)[:n]):
            for parity in (0, 1):
                lengths = [n for n in range(3, 11) if n % 2 == parity]
                steps = {run_decider(machine, make(n)).steps for n in lengths}
                assert len(steps) == 1, name


@criterion(5)
def test_criterion_5_locality_property_suites():
    rng = random.Random(0xACA0)

    # (a) acceptor transfer: matching short-range structure carries an
    # accept-within-tau verdict from w to w'
    pair = zoo_automaton("pair01")
    zeros = zoo_automaton("zeros")
    acceptor_triples = 0
    for _ in range(150):
        w = "01" * rng.randint(2, 150)
        wp = "01" * rng.randint(2, 150)
        assert lemma1_hypothesis(w, wp, 1)
        assert run_acceptor(pair, w).steps <= 1
        assert run_acceptor(pair, wp).steps <= 1
        acceptor_triples += 1
    for _ in range(100):
        w = "01" * rng.randint(2, 200)
        report = debruijn_contract(w, 3)
        assert lemma1_hypothesis(w, report.contracted, 1)
        assert run_acceptor(pair, report.contracted).steps <= 1
        acceptor_triples += 1
    for _ in range(250):
        w = "0" * rng.randint(1, 200)
        wp = "0" * rng.randint(1, 200)
        assert lemma1_hypothesis(w, wp, 0)
        assert run_acceptor(zeros, w).steps == 0
        assert run_acceptor(zeros, wp).steps == 0
        acceptor_triples += 1
    assert acceptor_triples == 500

    # (b) decider transfer: profile equality at radius tau forces the same
    # verdict within tau on both words
    someone = zoo_automaton("someone", decider=True)
    idmat_dec = zoo_automaton("idmat", decider=True)
    decider_triples = 0
    for _ in range(250):
        n = rng.randint(1, 200)
        w = "".join(rng.choice("01") for _ in range(n))
        wp = debruijn_contract(w, 5).contracted
        assert lemma7_hypothesis(w, wp, 2)
        want = run_decider(someone, w)
        got = run_decider(someone, wp)
        assert want.steps <= 2
        assert got.kind == want.kind and got.steps <= 2
        decider_triples += 1
    for _ in range(250):
        n = rng.randint(1, 120)
        w = "".join(rng.choice("01#") for _ in range(n))
        want = run_decider(idmat_dec, w)
        assert want.kind != TIMEOUT
        tau = want.steps
        wp = debruijn_contract(w, 2 * tau + 1).contracted
        assert lemma7_hypothesis(w, wp, tau)
        got = run_decider(idmat_dec, wp)
        assert got.kind == want.kind and got.steps <= tau, (w, wp)
        decider_triples += 1
    assert decider_triples == 500

    # (c) contraction contract on 1000 random words
    for _ in range(1000):
        alphabet = rng.choice(("01", "01#"))
        n = rng.randint(1, 200)
        w = "".join(rng.choice(alphabet) for _ in range(n))
        kappa = rng.randint(1, 4)
        report = debruijn_contract(w, kappa)
        wp = report.contracted
        assert len(wp) <= len(w)
        assert prefix_of(wp, kappa - 1) == prefix_of(w, kappa - 1)
        assert suffix_of(wp, kappa - 1) == suffix_of(w, kappa - 1)
        assert infix_set(wp, kappa) == infix_set(w, kappa)
        m = report.node_count
        assert len(wp) <= (kappa - 1) + m * m + m

    # (d) critical contraction on the square-root-time decider
    invocations = 0
    for k in range(2, 7):
        member = FAMILIES["idmat"].generate(k)
        variants = [member] + [
            member[:pos] + sym + member[pos + 1 :]
            for pos in (0, len(member) // 2, len(member) - 1)
            for sym in "01#"
            if sym != member[pos]
        ]
        for word in variants:
            for i in range(5):
                try:
                    wp = critical_contract(idmat_dec, word, i)
                except BudgetError:
                    continue  # this word is already decided within i steps
                assert len(wp) <= 2 * (i + 1) ** 2, (word, i)
                verdict = run_decider(idmat_dec, wp)
                assert verdict.kind == TIMEOUT or verdict.steps > i, (word, i)
                invocations += 1
    assert invocations >= 25


DFA_TEXTS = {
    "someone": (
        ("0", "1"), ("s", "t"), "s", {"t"},
        {("s", "0"): "s", ("s", "1"): "t", ("t", "0"): "t", ("t", "1"): "t"},
    ),
    "pair01": (
        ("0", "1"), ("s", "h", "f", "d"), "s", {"f"},
        {("s", "0"): "h", ("s", "1"): "d", ("h", "0"): "d", ("h", "1"): "f",
         ("f", "0"): "h", ("f", "1"): "d", ("d", "0"): "d", ("d", "1"): "d"},
    ),
    "zeros": (
        ("0", "1"), ("s", "z", "d"), "s", {"z"},
        {("s", "0"): "z", ("s", "1"): "d", ("z", "0"): "z", ("z", "1"): "d",
         ("d", "0"): "d", ("d", "1"): "d"},
    ),
    "parity": (
        ("0", "1"), ("e", "o"), "e", {"o"},
        {("e", "0"): "e", ("e", "1"): "o", ("o", "0"): "o", ("o", "1"): "e"},
    ),
}


@criterion(6)
def test_criterion_6_local_testability_classifier():
    dfas = {
        name: Dfa(name, alphabet, states, start, frozenset(accept), trans)
        for name, (alphabet, states, start, accept, trans) in DFA_TEXTS.items()
    }
    assert is_locally_testable(dfas["someone"]) == (True, None)
    assert is_locally_testable(dfas["pair01"]) == (True, None)
    assert is_locally_testable(dfas["zeros"]) == (True, None)
    verdict, witness = is_locally_testable(dfas["parity"])
    assert not verdict
    assert isinstance(witness, tuple) and len(witness) == 3
    assert all(isinstance(word, str) and word for word in witness)
    assert witness == ("0", "1", "1")

    flipped = daca_complement(zoo_automaton("someone", decider=True))
    report = verify_equivalence(flipped, is_member_zeros, 12, mode="decider")
    assert report.ok
    assert report.words_checked == sum(2**i for i in range(1, 13))
