"""Scanners, boolean combinations, compilers, combinators, and the parsers."""

import itertools
import pathlib

import pytest
from hypothesis import given, settings, strategies as st

from acaw import (
    ACCEPT,
    INACTIVE,
    REJECT,
    TIMEOUT,
    AlphabetError,
    Automaton,
    EmptyInputError,
    LTExpression,
    ModeError,
    ParameterError,
    Profile,
    RuleFileError,
    Scanner,
    aca_to_daca,
    aca_union,
    compile_lt_to_daca,
    compile_slt_union_to_aca,
    daca_complement,
    global_step,
    load_lt_expression,
    lt_and,
    lt_eval,
    lt_not,
    lt_or,
    lt_profile_table,
    lt_scanner,
    parse_lt_expression,
    parse_rule_table,
    parse_scanner,
    profile,
    run_acceptor,
    run_decider,
    scanner_accepts,
    serialize_rules,
    tabulate_by_observation,
    zoo_automaton,
)
from acaw import core, localtests
from acaw.core import set_automaton
from acaw.localtests import _TABULATE_STEP_CEILING

BITS = ("0", "1")
# A signal that bounces between the borders: from r0...0, period 2(n - 1).
BOUNCE_TABLE = pathlib.Path(__file__).resolve().parent / "data" / "bounce.tbl"
PAIR01 = Scanner(
    k=2, alphabet=BITS,
    pi=frozenset({"01"}), sigma=frozenset({"01"}), mu=frozenset({"01", "10"}),
    name="pair01",
)
ALL0 = Scanner(
    k=1, alphabet=BITS,
    pi=frozenset({"0"}), sigma=frozenset({"0"}), mu=frozenset({"0"}),
    name="all0",
)
NO11 = Scanner(
    k=2, alphabet=BITS,
    pi=frozenset({"00", "01", "10", "11"}),
    sigma=frozenset({"00", "01", "10", "11"}),
    mu=frozenset({"00", "01", "10"}),
    name="no11",
)
SOMEONE_EXPR = lt_not(lt_scanner(ALL0))

# Window 3 and up is where a short word (shorter than the window) has cells
# that see neither border; at window 2 every cell of a short word is a
# border cell.
NO111_FROM0 = Scanner(
    k=3, alphabet=BITS,
    pi=frozenset({"000", "001", "010", "011"}),
    sigma=frozenset({"".join(t) for t in itertools.product(BITS, repeat=3)}),
    mu=frozenset({"".join(t) for t in itertools.product(BITS, repeat=3)}) - {"111"},
    name="no111-from0",
)
SPARSE4 = Scanner(
    k=4, alphabet=BITS,
    pi=frozenset({"".join(t) for t in itertools.product(BITS, repeat=4)}),
    sigma=frozenset({"".join(t) for t in itertools.product(BITS, repeat=4) if t[-1] == "0"}),
    mu=frozenset({"".join(t) for t in itertools.product(BITS, repeat=4) if t.count("1") <= 1}),
    name="sparse4",
)
# Unions at windows 3 and 4, checked by both compilers.
WIDE_UNIONS = ([NO111_FROM0, ALL0], [SPARSE4, PAIR01])


def words(alphabet, max_len):
    for n in range(1, max_len + 1):
        for tup in itertools.product(alphabet, repeat=n):
            yield "".join(tup)


def test_scanner_validation():
    with pytest.raises(ParameterError):
        Scanner(k=0, alphabet=BITS, pi=frozenset(), sigma=frozenset(), mu=frozenset())
    with pytest.raises(ParameterError):
        Scanner(k=1, alphabet=("q",), pi=frozenset(), sigma=frozenset(), mu=frozenset())
    with pytest.raises(ParameterError):
        Scanner(k=1, alphabet=BITS, pi=frozenset({"00"}), sigma=frozenset(), mu=frozenset())
    with pytest.raises(ParameterError):
        Scanner(k=2, alphabet=BITS, pi=frozenset(), sigma=frozenset(), mu=frozenset({"0"}))
    with pytest.raises(ParameterError):
        Scanner(k=1, alphabet=BITS, pi=frozenset({"2"}), sigma=frozenset(), mu=frozenset())
    # A scanner accepts no word shorter than k, so shorter pi and sigma words
    # are refused like any other bad length.
    with pytest.raises(ParameterError):
        Scanner(k=2, alphabet=BITS, pi=frozenset({"0"}), sigma=frozenset(), mu=frozenset())
    with pytest.raises(ParameterError):
        Scanner(k=3, alphabet=BITS, pi=frozenset(), sigma=frozenset({"01"}), mu=frozenset())
    with pytest.raises(ParameterError):
        Scanner(k=1, alphabet=BITS, pi=frozenset({""}), sigma=frozenset(), mu=frozenset())


def reference_scan(scanner, word):
    k = scanner.k
    if len(word) < k:
        return False
    infixes = {word[i : i + k] for i in range(len(word) - k + 1)}
    return (
        word[:k] in scanner.pi
        and word[-k:] in scanner.sigma
        and infixes <= scanner.mu
    )


def reference_eval(expr, word):
    """The definitional value of an expression: every child evaluated, with
    no short cut, and each leaf by ``reference_scan``."""
    if expr.op == "scanner":
        return reference_scan(expr.scanner, word)
    values = [reference_eval(child, word) for child in expr.children]
    if expr.op == "not":
        return not values[0]
    return any(values) if expr.op == "or" else all(values)


@st.composite
def random_scanners(draw, alphabet, name):
    """A scanner of width 1 to 3; each of its sets is every window but a
    drawn third at most, so that it accepts some longer words."""
    k = draw(st.integers(min_value=1, max_value=3))
    windows = ["".join(t) for t in itertools.product(alphabet, repeat=k)]
    some = st.sets(st.sampled_from(windows), max_size=len(windows) // 3 + 1).map(frozenset)
    return Scanner(k=k, alphabet=alphabet, pi=frozenset(windows) - draw(some),
                   sigma=frozenset(windows) - draw(some), mu=frozenset(windows) - draw(some),
                   name=name)


def scan_words(alphabet):
    """Words of length 1 to 8, half of them with a symbol outside the alphabet."""
    inside = st.text(alphabet=alphabet, min_size=1, max_size=8)
    outside = st.text(alphabet=alphabet + ("x", "3"), min_size=1, max_size=8)
    return st.one_of(inside, outside)


def assert_same_answer(call, word, alphabet, name, reference):
    """``call()`` answers as ``reference()`` does on a word in the alphabet,
    and raises the AlphabetError that names scanner ``name`` on any other."""
    extra = sorted(set(word) - set(alphabet))
    if not extra:
        assert call() == reference()
        return
    with pytest.raises(AlphabetError) as info:
        call()
    assert str(info.value) == f"{name}: symbols {extra} outside the alphabet"


@given(st.sampled_from([BITS, ("0", "1", "2")]).flatmap(
    lambda alphabet: st.tuples(random_scanners(alphabet, "drawn"), scan_words(alphabet))))
@settings(max_examples=300)
def test_scanner_accepts_matches_the_definition(case):
    scanner, word = case
    assert_same_answer(lambda: scanner_accepts(scanner, word), word, scanner.alphabet,
                       "drawn", lambda: reference_scan(scanner, word))


@st.composite
def random_expressions(draw):
    """An expression over one to three drawn scanners of one alphabet, and
    a word for it."""
    alphabet = draw(st.sampled_from([BITS, ("0", "1", "2")]))
    count = draw(st.integers(min_value=1, max_value=3))
    leaves = [lt_scanner(draw(random_scanners(alphabet, f"leaf{i}"))) for i in range(count)]
    subtrees = st.recursive(
        st.sampled_from(leaves),
        lambda children: st.one_of(
            children.map(lt_not),
            st.lists(children, min_size=1, max_size=3).map(lambda kids: lt_or(*kids)),
            st.lists(children, min_size=1, max_size=3).map(lambda kids: lt_and(*kids)),
        ),
        max_leaves=4,
    )
    join = draw(st.sampled_from([lt_or, lt_and]))
    expr = join(*draw(st.lists(subtrees, min_size=1, max_size=3)))
    return lt_not(expr) if draw(st.booleans()) else expr, draw(scan_words(alphabet))


@given(random_expressions())
@settings(max_examples=300)
def test_lt_eval_matches_the_definition(case):
    """Short cuts in ``or`` and ``and`` change no value; a word outside the
    alphabet is refused by the first leaf, which is always evaluated."""
    expr, word = case
    first = expr.leaves()[0]
    assert_same_answer(lambda: lt_eval(expr, word), word, first.alphabet, first.name,
                       lambda: reference_eval(expr, word))


def test_scanner_semantics_brute_force():
    for scanner in (PAIR01, ALL0, NO11):
        for w in words("01", 6):
            assert scanner_accepts(scanner, w) == reference_scan(scanner, w), (
                scanner.name, w,
            )
    assert not scanner_accepts(PAIR01, "0")  # shorter than the window


def test_scanner_input_errors():
    with pytest.raises(EmptyInputError):
        scanner_accepts(ALL0, "")
    with pytest.raises(AlphabetError):
        scanner_accepts(ALL0, "02")


def test_expression_construction_errors():
    with pytest.raises(ParameterError):
        LTExpression("scanner")
    with pytest.raises(ParameterError):
        LTExpression("not", children=(lt_scanner(ALL0), lt_scanner(ALL0)))
    with pytest.raises(ParameterError):
        LTExpression("or")
    with pytest.raises(ParameterError):
        LTExpression("xor", children=(lt_scanner(ALL0),))


def test_expression_alphabet_and_window():
    other = Scanner(
        k=1, alphabet=("a", "b"),
        pi=frozenset({"a"}), sigma=frozenset({"a"}), mu=frozenset({"a"}),
    )
    mixed = lt_or(lt_scanner(ALL0), lt_scanner(other))
    with pytest.raises(AlphabetError):
        mixed.alphabet
    expr = lt_and(lt_scanner(ALL0), lt_scanner(PAIR01))
    assert expr.window == 2
    assert expr.alphabet == BITS
    assert len(expr.leaves()) == 2


def test_lt_eval():
    assert not lt_eval(SOMEONE_EXPR, "000")
    assert lt_eval(SOMEONE_EXPR, "010")
    both = lt_and(lt_scanner(NO11), SOMEONE_EXPR)
    assert lt_eval(both, "0100")
    assert not lt_eval(both, "0110")
    assert not lt_eval(both, "0000")
    with pytest.raises(EmptyInputError):
        lt_eval(SOMEONE_EXPR, "")


def test_profile_key():
    assert profile("0", 2) == Profile(2, "0", "0", frozenset({"0"}))
    assert profile("0101", 2) == Profile(2, "01", "01", frozenset({"01", "10"}))
    assert profile("01", 2) == Profile(2, "01", "01", frozenset({"01"}))


TABLE_EXPR = lt_and(lt_scanner(NO11), SOMEONE_EXPR)
TABLE = lt_profile_table(TABLE_EXPR)


def test_profile_table_covers_all_words_correctly():
    seen = set()
    for w in words("01", 8):
        key = profile(w, TABLE.k)
        seen.add(key)
        assert key in TABLE.bits, w
        assert TABLE.bits[key] == lt_eval(TABLE_EXPR, w), w
    # every key reachable by length 8 was realized, none with a wrong witness
    for key, word in TABLE.realizers.items():
        assert profile(word, TABLE.k) == key
    assert seen <= set(TABLE.bits)


@given(st.text(alphabet="01", min_size=1, max_size=48))
def test_profile_table_lookup_is_membership(word):
    key = profile(word, TABLE.k)
    assert TABLE.bits[key] == lt_eval(TABLE_EXPR, word)


def test_slt_union_compiler_matches_reference():
    for scanners in ([PAIR01, ALL0], *WIDE_UNIONS):
        machine = compile_slt_union_to_aca(scanners)
        expr = lt_or(*map(lt_scanner, scanners))
        assert machine.time_bound == max(s.k for s in scanners) + len(scanners) + 1
        for w in words("01", 8):
            verdict = run_acceptor(machine, w)
            assert (verdict.kind == ACCEPT) == lt_eval(expr, w), w
            if verdict.kind == ACCEPT:
                assert verdict.steps <= machine.time_bound


def test_slt_union_accept_time_is_constant_per_scanner():
    machine = compile_slt_union_to_aca([PAIR01, ALL0])
    # first checkpoint after the 2-step gather tests pair01, the next all0
    for length in range(2, 11, 2):
        assert run_acceptor(machine, "01" * (length // 2)).steps == 3
    for length in range(1, 11):
        assert run_acceptor(machine, "0" * length).steps == 4


def test_slt_union_empty_list_accepts_nothing():
    machine = compile_slt_union_to_aca([])
    for w in words("01", 4):
        assert run_acceptor(machine, w).kind == TIMEOUT


def test_slt_union_alphabet_mismatch():
    other = Scanner(
        k=1, alphabet=("a", "b"),
        pi=frozenset({"a"}), sigma=frozenset({"a"}), mu=frozenset({"a"}),
    )
    with pytest.raises(AlphabetError):
        compile_slt_union_to_aca([ALL0, other])


def test_lt_decider_is_total_and_correct():
    wide = [lt_or(*map(lt_scanner, scanners)) for scanners in WIDE_UNIONS]
    for expr in (SOMEONE_EXPR, lt_scanner(PAIR01), TABLE_EXPR, *wide):
        dec = compile_lt_to_daca(expr)
        for w in words("01", 7):
            verdict = run_decider(dec, w)
            assert verdict.kind != TIMEOUT, w
            assert (verdict.kind == ACCEPT) == lt_eval(expr, w), w
            assert verdict.steps <= dec.time_bound + 1


def test_lt_decider_matches_the_profile_table_on_every_realizer():
    ternary = lt_or(lt_not(lt_scanner(NO2)), lt_scanner(ENDS0))
    mixed = lt_and(lt_not(lt_scanner(NO111_FROM0)), lt_or(lt_scanner(PAIR01), lt_scanner(ALL0)))
    window3 = lt_or(*map(lt_scanner, WIDE_UNIONS[0]))
    for expr in (SOMEONE_EXPR, TABLE_EXPR, window3, ternary, mixed):
        table = lt_profile_table(expr)
        dec = compile_lt_to_daca(expr)
        for key, word in table.realizers.items():
            verdict = run_decider(dec, word)
            assert (verdict.kind == ACCEPT) == table.bits[key], word


def test_lt_decider_counts_a_scanner_bound_twice_as_one_leaf(tmp_path):
    # One window test in two files, so under two scanner names, is one leaf.
    (tmp_path / "zeros.scan").write_text("k: 1\nalphabet: 0 1\npi: 0\nsigma: 0\nmu: 0\n")
    (tmp_path / "nothing-but-0.scan").write_text((tmp_path / "zeros.scan").read_text())
    expr = parse_lt_expression(
        "let a = zeros.scan\nlet b = nothing-but-0.scan\n(and a (not (and b (not a))))\n",
        base_dir=tmp_path,
    )
    assert {leaf.name for leaf in expr.leaves()} == {"zeros", "nothing-but-0"}
    assert set(expr.leaves()) == {ALL0}
    dec = compile_lt_to_daca(expr)
    assert dec.time_bound == 1 + 2 + 1  # checkpoints ({a}, 1) and ({}, 0)
    for w in words("01", 6):
        assert (run_decider(dec, w).kind == ACCEPT) == ("1" not in w), w
    # Each leaf of a union gets one checkpoint, and the empty set one more.
    two = compile_lt_to_daca(lt_or(lt_scanner(PAIR01), lt_scanner(ALL0), lt_scanner(PAIR01)))
    assert two.time_bound == 2 + 3 + 1


# Twelve distinct window-3 leaves, and a thirteenth.
WINDOWS3 = ["".join(t) for t in itertools.product(BITS, repeat=3)]
WIDE_LEAVES = [
    Scanner(k=3, alphabet=BITS, pi=frozenset(WINDOWS3), sigma=frozenset(WINDOWS3),
            mu=frozenset(WINDOWS3) - {WINDOWS3[i]}, name=f"all-but-{i}")
    for i in range(8)
] + [
    Scanner(k=3, alphabet=BITS, pi=frozenset(WINDOWS3) - {WINDOWS3[i]},
            sigma=frozenset(WINDOWS3), mu=frozenset(WINDOWS3), name=f"starts-not-{i}")
    for i in range(5)
]


def test_lt_decider_refuses_more_than_12_distinct_leaves(monkeypatch):
    # A union keeps one checkpoint per leaf and one for the empty set.
    assert compile_lt_to_daca(lt_or(*map(lt_scanner, WIDE_LEAVES[:12]))).time_bound == 3 + 13 + 1
    built = []
    monkeypatch.setattr(localtests, "_evaluate", lambda *args: built.append(args) or True)
    with pytest.raises(ParameterError, match="^13 distinct scanner leaves give 8192 verdict"
                                             " vectors to search; the budget is 4096$"):
        compile_lt_to_daca(lt_or(*map(lt_scanner, WIDE_LEAVES)))
    assert built == []


def test_lt_decider_or_of_negated_leaves_needs_two_checkpoints():
    expr = lt_or(*(lt_not(lt_scanner(s)) for s in WIDE_LEAVES[:12]))
    dec = compile_lt_to_daca(expr)
    assert dec.time_bound <= 3 + 2 + 1
    for w in words("01", 7):
        assert (run_decider(dec, w).kind == ACCEPT) == lt_eval(expr, w), w


def lt_xor(*children):
    """Parity of the children, in and/or/not."""
    first, *rest = children
    for child in rest:
        first = lt_or(lt_and(first, lt_not(child)), lt_and(lt_not(first), child))
    return first


def test_lt_decider_keeps_every_checkpoint_of_a_parity():
    expr = lt_xor(*map(lt_scanner, FIVE_W1))
    dec = compile_lt_to_daca(expr)
    assert dec.time_bound == 1 + 2**5 + 1
    for w in words("01", 6):
        assert (run_decider(dec, w).kind == ACCEPT) == lt_eval(expr, w), w


# Eight distinct window-1 leaves, and and/or/not trees over them.
EIGHT_W1 = [
    Scanner(k=1, alphabet=BITS, pi=frozenset(pi), sigma=frozenset(BITS), mu=frozenset(mu),
            name=f"eight-{pi}-{mu}")
    for pi, mu in itertools.product(["0", "1", "01", ""], ["1", "01"])
]
lt_trees = st.recursive(
    st.sampled_from(EIGHT_W1).map(lt_scanner),
    lambda kids: st.one_of(
        kids.map(lt_not),
        st.lists(kids, min_size=1, max_size=3).map(lambda c: lt_or(*c)),
        st.lists(kids, min_size=1, max_size=3).map(lambda c: lt_and(*c)),
    ),
    max_leaves=16,
)


@given(lt_trees)
def test_lt_schedule_is_a_decision_list_for_the_expression(expr):
    """On every vector V of leaf verdicts, realizable or not, the first
    checkpoint whose mask lies in V has the expression's bit on V."""
    leaves = list(dict.fromkeys(expr.leaves()))  # bit i is leaf i, by first use
    m = len(leaves)
    dec = compile_lt_to_daca(expr)
    schedule = dec.accepting.args[0]  # the accept face's (mask, bit) list
    assert len(schedule) <= 2**m
    assert dec.time_bound == 1 + len(schedule) + 1
    for vector in range(2**m):
        held = {leaf for i, leaf in enumerate(leaves) if vector >> i & 1}
        first = next(bit for mask, bit in schedule if vector & mask == mask)
        assert first == localtests._evaluate(expr, lambda leaf, true: leaf in true, held), vector


def test_lt_decider_verdict_time_depends_only_on_profile():
    dec = compile_lt_to_daca(lt_scanner(PAIR01))
    probes = {
        "zeros": lambda n: "0" * n,
        "ones": lambda n: "1" * n,
        "alternating": lambda n: ("01" * n)[:n],
    }
    for make in probes.values():
        for parity in (0, 1):
            lengths = [n for n in range(3, 11) if n % 2 == parity]
            steps = {run_decider(dec, make(n)).steps for n in lengths}
            assert len(steps) == 1, (make(5), parity)


def test_daca_complement():
    not_someone = daca_complement(compile_lt_to_daca(SOMEONE_EXPR))
    assert not_someone.name.startswith("not-")
    for w in words("01", 8):
        verdict = run_decider(not_someone, w)
        assert verdict.kind != TIMEOUT
        assert (verdict.kind == ACCEPT) == (set(w) == {"0"}), w
    with pytest.raises(ModeError):
        daca_complement(zoo_automaton("pair01"))


def test_aca_union_of_zoo_machines():
    union = aca_union(zoo_automaton("pair01"), zoo_automaton("zeros"))
    for w in words("01", 7):
        member = w == "01" * (len(w) // 2) or set(w) == {"0"}
        assert (run_acceptor(union, w).kind == ACCEPT) == member, w
    # a step-t acceptance shows at 2t+1 for the first component and at
    # 2t+2 for the second: pair01 accepts 0101 at step 1, zeros 0000 at 0
    assert run_acceptor(union, "0101").steps == 3
    assert run_acceptor(union, "0000").steps == 2


@pytest.mark.parametrize("flip", [False, True], ids=["table-first", "pair01-first"])
def test_aca_union_keeps_step0_acceptance(flip):
    """A component that accepts only at step 0 still wins the union."""
    only_step0 = parse_rule_table(
        "alphabet: 0 1\nstates: 0 1\naccept: 0\nrule: * * * -> 1\ndefault: center\n",
        name="only-step0",
    )
    assert run_acceptor(only_step0, "000").steps == 0
    parts = [only_step0, zoo_automaton("pair01")]
    union = aca_union(*(parts[::-1] if flip else parts))
    assert run_acceptor(union, "000").steps == (2 if flip else 1)
    assert run_acceptor(union, "010").kind == TIMEOUT


def test_aca_union_interleaves_component_steps():
    """A step-t acceptance shows at 2t+1 (first) or 2t+2 (second), within the bound."""
    first, second = compile_slt_union_to_aca([PAIR01]), compile_slt_union_to_aca([ALL0])
    union = aca_union(first, second)
    assert union.time_bound == 2 * max(first.time_bound, second.time_bound) + 2
    for w in words("01", 7):
        shown = [2 * v.steps + 1 + i for i, v in enumerate(
            (run_acceptor(first, w), run_acceptor(second, w))) if v.kind == ACCEPT]
        verdict = run_acceptor(union, w)
        assert verdict.steps == (min(shown) if shown else None), w
        assert not shown or verdict.steps <= union.time_bound


def test_aca_union_mode_and_alphabet_errors():
    with pytest.raises(ModeError):
        aca_union(zoo_automaton("someone", decider=True), zoo_automaton("pair01"))
    with pytest.raises(AlphabetError):
        aca_union(zoo_automaton("pair01"), zoo_automaton("idmat"))


def test_aca_to_daca_wraps_constant_time_acceptor():
    dec = aca_to_daca(zoo_automaton("pair01"), 1)
    for w in words("01", 8):
        verdict = run_decider(dec, w)
        member = w == "01" * (len(w) // 2)
        assert verdict.kind != TIMEOUT
        assert (verdict.kind == ACCEPT) == member, w
        assert verdict.steps == (1 if member else 2)
    zeros = aca_to_daca(zoo_automaton("zeros"), 0)
    assert run_decider(zeros, "000").steps == 0
    assert run_decider(zeros, "010").kind == REJECT


def test_aca_to_daca_misuse_and_errors():
    # a too-small budget silently turns members into rejects; the wrapper
    # cannot know the acceptor's true settling time
    bad = aca_to_daca(zoo_automaton("pair01"), 0)
    assert run_decider(bad, "01").kind == REJECT
    with pytest.raises(ModeError):
        aca_to_daca(zoo_automaton("someone", decider=True), 1)
    with pytest.raises(ParameterError):
        aca_to_daca(zoo_automaton("pair01"), -1)


SCANNER_TEXT = """\
# matches words of zeros only
k: 1
alphabet: 0 1
pi: 0
sigma: 0
mu: 0
"""


def test_parse_scanner_round_trip():
    scanner = parse_scanner(SCANNER_TEXT, name="all0")
    assert scanner == ALL0
    for w in words("01", 6):
        assert scanner_accepts(scanner, w) == scanner_accepts(ALL0, w)


@pytest.mark.parametrize(
    "mutation",
    [
        lambda t: t.replace("mu: 0\n", ""),  # missing directive
        lambda t: t + "nu: 0\n",  # unknown directive
        lambda t: t + "pi: 1\n",  # duplicate directive
        lambda t: t.replace("k: 1", "k: one"),  # non-integer width
        lambda t: t.replace("alphabet: 0 1", "alphabet: 01"),  # multi-char symbol
        lambda t: t.replace("alphabet: 0 1", "alphabet: 0 0"),  # duplicate symbol
        lambda t: t.replace("pi: 0", "pi: 2"),  # word outside the alphabet
        lambda t: t.replace("k: 1", "k: 0"),  # bad width
        lambda t: t.replace("pi: 0", "pi 0"),  # no colon
    ],
)
def test_parse_scanner_rejects_malformed(mutation):
    with pytest.raises(RuleFileError):
        parse_scanner(mutation(SCANNER_TEXT), name="bad")


def write_scanner_files(tmp_path):
    (tmp_path / "all0.scan").write_text(SCANNER_TEXT)
    (tmp_path / "pair.scan").write_text(
        "k: 2\nalphabet: 0 1\npi: 01\nsigma: 01\nmu: 01 10\n"
    )


def test_parse_lt_expression_with_bindings(tmp_path):
    write_scanner_files(tmp_path)
    (tmp_path / "lang.lt").write_text(
        "# union of the two, minus the all-zero words\n"
        "let z = all0.scan\n"
        "let p = pair.scan\n"
        "(and (or p z) (not z))\n"
    )
    expr = load_lt_expression(tmp_path / "lang.lt")
    for w in words("01", 7):
        want = (w == "01" * (len(w) // 2) or set(w) == {"0"}) and set(w) != {"0"}
        assert lt_eval(expr, w) == want, w


def test_parse_lt_expression_plain_scanner_name(tmp_path):
    write_scanner_files(tmp_path)
    (tmp_path / "only.lt").write_text("let z = all0.scan\nz\n")
    expr = load_lt_expression(tmp_path / "only.lt")
    assert expr.op == "scanner"


@pytest.mark.parametrize(
    "body",
    [
        "(or z",  # unclosed
        "z z",  # trailing tokens
        "(maybe z)",  # unknown operator
        "(not z) extra",
        "q",  # unknown scanner name
        "",  # no expression line
        "(not)",  # negation without an operand
    ],
)
def test_parse_lt_expression_rejects_malformed(tmp_path, body):
    write_scanner_files(tmp_path)
    text = "let z = all0.scan\n" + body + "\n"
    with pytest.raises(RuleFileError):
        parse_lt_expression(text, where="bad", base_dir=tmp_path)


def test_parse_lt_expression_binding_errors(tmp_path):
    write_scanner_files(tmp_path)
    with pytest.raises(RuleFileError):
        parse_lt_expression(
            "let z = all0.scan\nlet z = pair.scan\nz\n", base_dir=tmp_path
        )
    with pytest.raises(RuleFileError):
        parse_lt_expression("let z = missing.scan\nz\n", base_dir=tmp_path)
    with pytest.raises(RuleFileError):
        parse_lt_expression("let z all0.scan\nz\n", base_dir=tmp_path)


def test_tabulate_round_trips_an_acceptor():
    machine = compile_slt_union_to_aca([PAIR01])
    text = tabulate_by_observation(machine, probe_len=2 * 2 + 3)
    flat = parse_rule_table(text, name="flat")
    assert "s0" in text
    for w in words("01", 8):
        assert (
            run_acceptor(flat, w, max_steps=machine.time_bound + 1).kind
            == run_acceptor(machine, w).kind
        ), w


# Five distinct window-1 leaves; their or of negations keeps 2 of the 2^5
# checkpoints (all five, and none).
FIVE_W1 = [
    Scanner(k=1, alphabet=BITS, pi=frozenset(pi), sigma=frozenset(sigma), mu=frozenset(mu),
            name=f"five-{i}")
    for i, (pi, sigma, mu) in enumerate([
        ("1", "01", "01"), ("01", "1", "01"), ("01", "01", "1"), ("1", "1", "01"), ("01", "01", "01"),
    ])
]
FIVE_EXPR = lt_or(*(lt_not(lt_scanner(s)) for s in FIVE_W1))


@pytest.mark.parametrize(
    "expr", [SOMEONE_EXPR, TABLE_EXPR, FIVE_EXPR], ids=["window1", "window2", "five-leaves"]
)
def test_tabulate_round_trips_a_decider(expr):
    machine = compile_lt_to_daca(expr)
    text = tabulate_by_observation(machine, probe_len=2 * expr.window + 3)
    flat = parse_rule_table(text, name="flat")
    assert flat.time_bound == machine.time_bound
    for w in words("01", 8):
        want = run_decider(machine, w)
        got = run_decider(flat, w, max_steps=machine.time_bound + 1)
        assert (got.kind, got.steps) == (want.kind, want.steps), w


@pytest.mark.parametrize(
    "machine, gather",
    [
        (compile_lt_to_daca(SOMEONE_EXPR), 1),
        (compile_lt_to_daca(TABLE_EXPR), 2),
        (compile_slt_union_to_aca(WIDE_UNIONS[0]), 3),
    ],
    ids=["lt-window1", "lt-window2", "slt-window3"],
)
def test_tabulate_probe_of_window_plus_four_is_complete(machine, gather):
    # A triple reads offsets -2..G+1 around its centre, so words of length
    # G+4 already show every triple that longer probes find.
    assert tabulate_by_observation(machine, gather + 4) == tabulate_by_observation(
        machine, 2 * gather + 3
    )


@pytest.mark.parametrize(
    "expr", [SOMEONE_EXPR, TABLE_EXPR, FIVE_EXPR], ids=["window1", "window2", "five-leaves"]
)
def test_compiled_cells_keep_a_checkpoint_and_leaf_bits_after_gathering(expr):
    # With m leaves, a schedule of at most 2^m checkpoints (one step each
    # between gathering and the time bound) times 2^m leaf bit sets.
    m = len(set(expr.leaves()))
    machine = compile_lt_to_daca(expr)
    checkpoints = machine.time_bound - expr.window - 1
    assert checkpoints <= 2**m
    states, _ = core.observe(machine, words("01", expr.window + 4), _TABULATE_STEP_CEILING)
    checked = [s for s in states if not isinstance(s, (str, localtests.WState))]
    assert checked
    for state in checked:
        checkpoint, holds = state
        assert 0 <= checkpoint < checkpoints and 0 <= holds < 2**m, state


def test_tabulate_reads_only_its_own_probes_triples():
    """Runs made on a machine before it is tabulated leave no rows in its
    table: the probes of length 2 do not reach every triple that a word of
    length 10 uses, and the table is the fresh machine's all the same."""
    used, fresh = compile_lt_to_daca(TABLE_EXPR), compile_lt_to_daca(TABLE_EXPR)
    assert run_decider(used, "0110101101").kind == REJECT
    short = tabulate_by_observation(used, 2)
    assert short == tabulate_by_observation(fresh, 2)
    assert short != tabulate_by_observation(fresh, 6)


def test_tabulate_errors():
    machine = compile_slt_union_to_aca([ALL0])
    with pytest.raises(ParameterError):
        tabulate_by_observation(machine, probe_len=0)
    with pytest.raises(RuleFileError):
        # accepts nothing: the table format cannot express that
        tabulate_by_observation(compile_slt_union_to_aca([]), probe_len=3)


def test_tabulate_refuses_an_empty_reject_set():
    """A decider whose reachable states never reject would be written with an
    empty ``reject:`` line, which does not load."""
    machine = set_automaton(
        "never-rejects", ("0", "1"), lambda left, center, right: center,
        {"0", "1"}, {"r"}, states=("0", "1", "r"),
    )
    with pytest.raises(RuleFileError, match="^never-rejects: .* empty reject set$"):
        tabulate_by_observation(machine, probe_len=3)


def test_tabulate_refuses_names_that_collide():
    """An input symbol spelled like a structured state's name would be written
    twice on the ``states:`` line (``s0 x s0 s1``), which does not load."""
    machine = Automaton(
        name="clash", input_alphabet=("s0", "x"),
        rule=lambda left, center, right: center if isinstance(center, tuple) else (center,),
        accepting=lambda state: isinstance(state, tuple),
    )
    with pytest.raises(RuleFileError, match="^clash: state names collide when rendered$"):
        tabulate_by_observation(machine, probe_len=3)


def test_tabulate_refuses_a_state_that_accepts_and_rejects():
    """Every state accepts and ``1`` also rejects: loading the table would
    fail with ``accept and reject sets overlap``."""
    machine = Automaton(
        name="both", input_alphabet=BITS, rule=lambda left, center, right: center,
        accepting=lambda state: True, rejecting="1".__eq__,
    )
    with pytest.raises(RuleFileError, match="^both: state '1' both accepts and rejects$"):
        tabulate_by_observation(machine, probe_len=3)


def test_tabulate_refuses_reserved_names():
    """An input symbol ``*`` would be written as a state named ``*``."""
    machine = Automaton(
        name="starry", input_alphabet=("*", "1"), rule=lambda left, center, right: center,
        accepting="1".__eq__,
    )
    with pytest.raises(RuleFileError, match="^starry: state name '\\*' is reserved$"):
        tabulate_by_observation(machine, probe_len=3)


def test_tabulate_runs_the_accept_face_once_per_state():
    calls = {}

    def accepting(state):
        calls[state] = calls.get(state, 0) + 1
        return state == "a"

    machine = Automaton(
        name="counted", input_alphabet=BITS, rule=lambda left, center, right: "a",
        accepting=accepting,
    )
    assert "accept: s0\n" in tabulate_by_observation(machine, probe_len=3)  # s0 is "a"
    assert calls == {"0": 1, "1": 1, "a": 1}


def test_tabulate_refuses_a_cycle_when_the_cycle_check_sees_it(monkeypatch):
    calls, steps = [], []

    def flip(left, center, right):
        calls.append(center)
        return "1" if center == "0" else "0"

    step = core._Runner.step
    monkeypatch.setattr(
        core._Runner, "step", lambda runner, config: steps.append(1) or step(runner, config)
    )
    blinker = set_automaton(
        name="blinker", input_alphabet=BITS, rule=flip, accept_states=["1"]
    )
    with pytest.raises(
        ParameterError,
        match=f"blinker: no fixed point within {_TABULATE_STEP_CEILING} steps; not tabulatable",
    ):
        tabulate_by_observation(blinker, probe_len=3)
    assert len(calls) < 100 and len(steps) < 100
    # A period over 16 is refused at its first repeat too, and named.
    steps.clear()
    bounce = parse_rule_table(BOUNCE_TABLE.read_text(), name="bounce")
    with pytest.raises(
        ParameterError,
        match=f"bounce: no fixed point within {_TABULATE_STEP_CEILING} steps; not tabulatable"
        ": length-10 probes repeat with period 18 from step 0",
    ):
        core.observe(bounce, ["r000000000"], _TABULATE_STEP_CEILING)
    assert len(steps) < 20


def test_tabulate_keeps_the_rule_off_the_border_between_probe_words():
    def rule(left, center, right):
        if center is INACTIVE:
            raise AssertionError("the rule saw a border centre")
        return "a"

    machine = set_automaton(
        name="settle", input_alphabet=BITS, rule=rule, accept_states=["a"]
    )
    text = tabulate_by_observation(machine, probe_len=3)
    flat = parse_rule_table(text, name="flat")
    for w in words("01", 5):
        assert run_acceptor(flat, w).steps == run_acceptor(machine, w).steps == 1, w


def reference_tabulate(automaton, probe_len):
    """Tabulation one probe word at a time through ``global_step``, with
    states and triples keyed by the state objects themselves."""
    alphabet = tuple(automaton.input_alphabet)
    order, triples = {}, {}
    for sym in alphabet:
        order.setdefault(sym, len(order))
    for length in range(1, probe_len + 1):
        for config in itertools.product(alphabet, repeat=length):
            while True:
                nxt = global_step(automaton, config)
                padded = (None,) + config + (None,)
                for i, out in enumerate(nxt):
                    order.setdefault(out, len(order))
                    triples[padded[i], config[i], padded[i + 2]] = out
                if nxt == config:
                    break
                config = nxt
    names, structured = {}, 0
    for state in order:
        if isinstance(state, str) and state in alphabet:
            names[state] = state
        else:
            names[state] = f"s{structured}"
            structured += 1
    names[None] = "q"
    rows = sorted(
        (names[left], names[center], names[right], names[out])
        for (left, center, right), out in triples.items()
    )
    del names[None]
    accept = [names[s] for s in order if automaton.accepting(s)]
    reject = None
    if automaton.is_decider:
        reject = [names[s] for s in order if automaton.rejecting(s)]
    return serialize_rules(
        automaton.name, alphabet, list(names.values()), accept, reject, rows,
        automaton.time_bound,
    )


TRITS = ("0", "1", "2")
NO2 = Scanner(
    k=1, alphabet=TRITS,
    pi=frozenset({"0", "1"}), sigma=frozenset({"0", "1"}), mu=frozenset({"0", "1"}),
    name="no2",
)
ENDS0 = Scanner(
    k=1, alphabet=TRITS,
    pi=frozenset(TRITS), sigma=frozenset({"0"}), mu=frozenset(TRITS),
    name="ends0",
)


# Shaped like the benchmark's seeded lt expressions: a window-2 expression
# over three leaves with a negation, and a ternary window-1 one over two.
SEEDED_W2 = [
    Scanner(k=2, alphabet=BITS, pi=frozenset({"00", "01", "11"}),
            sigma=frozenset({"01", "10", "11"}), mu=frozenset({"00", "01", "10"}), name="w2a"),
    Scanner(k=1, alphabet=BITS, pi=frozenset({"0", "1"}), sigma=frozenset({"1"}),
            mu=frozenset({"0", "1"}), name="w1b"),
    Scanner(k=2, alphabet=BITS, pi=frozenset({"10", "11"}), sigma=frozenset({"00", "10"}),
            mu=frozenset({"00", "10", "11"}), name="w2c"),
]
SEEDED_T1 = [
    Scanner(k=1, alphabet=TRITS, pi=frozenset({"0", "1"}), sigma=frozenset({"1", "2"}),
            mu=frozenset(TRITS), name="t1a"),
    Scanner(k=1, alphabet=TRITS, pi=frozenset({"0", "2"}), sigma=frozenset(TRITS),
            mu=frozenset({"0", "1"}), name="t1b"),
]
SEEDED_W2_EXPR = lt_or(
    lt_and(lt_scanner(SEEDED_W2[0]), lt_not(lt_scanner(SEEDED_W2[1]))), lt_scanner(SEEDED_W2[2])
)
SEEDED_T1_EXPR = lt_not(lt_and(lt_scanner(SEEDED_T1[0]), lt_scanner(SEEDED_T1[1])))


@pytest.mark.parametrize(
    "machine, gather",
    [
        (compile_lt_to_daca(SOMEONE_EXPR), 1),
        (compile_lt_to_daca(TABLE_EXPR), 2),
        (compile_slt_union_to_aca(WIDE_UNIONS[0]), 3),
        (compile_lt_to_daca(lt_or(lt_not(lt_scanner(NO2)), lt_scanner(ENDS0))), 1),
        (compile_lt_to_daca(SEEDED_W2_EXPR), 2),
        (compile_lt_to_daca(SEEDED_T1_EXPR), 1),
    ],
    ids=["lt-window1", "lt-window2", "slt-window3", "lt-ternary", "lt-window2-seeded",
         "lt-ternary-seeded"],
)
def test_tabulate_matches_the_per_word_reference(machine, gather):
    # Line lists: pytest points at the first differing line without diffing
    # thousands of lines.
    got = tabulate_by_observation(machine, gather + 4)
    assert got.splitlines() == reference_tabulate(machine, gather + 4).splitlines()
    assert got.endswith("\n")


def test_tabulate_refuses_time_bound_over_ceiling_before_simulating():
    calls = []

    def rule(left, center, right):
        calls.append(center)
        return center

    ceiling = _TABULATE_STEP_CEILING
    machine = Automaton(
        name="slow",
        input_alphabet=BITS,
        rule=rule,
        accepting="1".__eq__,
        time_bound=ceiling + 1,
    )
    with pytest.raises(ParameterError, match=f"{ceiling + 1}.*{ceiling}"):
        tabulate_by_observation(machine, probe_len=3)
    assert calls == []
