"""Rule-table file format: parsing, matching order, serialization."""

import dataclasses
import itertools
import random
import tracemalloc
from pathlib import Path

import pytest

from acaw import rulefile
from acaw import (
    ACCEPT,
    INACTIVE,
    REJECT,
    AlphabetError,
    Automaton,
    RuleFileError,
    Scanner,
    TABLE_SOURCES,
    ParameterError,
    compile_lt_to_daca,
    configurations,
    global_step,
    load_rule_table,
    lt_scanner,
    parse_dfa,
    parse_lt_expression,
    parse_rule_table,
    parse_scanner,
    run_acceptor,
    run_decider,
    run_many,
    save_rule_table,
    serialize_rules,
    validate,
    zoo_automaton,
)

MINIMAL = """\
alphabet: 0 1
states: 0 1 a
accept: a
rule: 0 1 0 -> a
default: center
"""


def test_parse_minimal_table():
    a = parse_rule_table(MINIMAL, name="minimal")
    assert a.input_alphabet == ("0", "1")
    assert not a.is_decider
    v = run_acceptor(a, "1")
    assert v.kind == "timeout"


def test_first_match_wins():
    cases = [
        # an earlier wildcard row shadows a later exact one
        (["* 1 * -> a", "0 1 0 -> b"], "a"),
        # of two exact rows for one triple, the earlier wins
        (["0 1 0 -> b", "0 1 0 -> a"], "b"),
        # an exact row wins over a later wildcard row that matches it
        (["0 1 0 -> b", "* 1 * -> a"], "b"),
        # an exact row after a matching wildcard row loses to it, even
        # when a later wildcard row agrees with the exact one
        (["0 * 0 -> a", "0 1 0 -> b", "* 1 * -> b"], "a"),
    ]
    for rows, out in cases:
        text = "alphabet: 0 1\nstates: 0 1 a b\naccept: a\n"
        text += "".join(f"rule: {row}\n" for row in rows) + "default: center\n"
        assert global_step(parse_rule_table(text), ("0", "1", "0"))[1] == out, rows


def test_rows_are_indexed_without_a_wildcard_scan_until_a_wildcard_row(monkeypatch):
    """An exact row looks for an earlier matching wildcard row only once the
    file has had one; the first-match outcome stays as before."""
    scans = []
    wild_match = rulefile._TableRule._wild_match
    monkeypatch.setattr(
        rulefile._TableRule, "_wild_match",
        lambda rule, *triple: scans.append(triple) or wild_match(rule, *triple),
    )
    head = "alphabet: 0 1\nstates: 0 1 a b\naccept: a\n"
    exact = ["0 1 0 -> b", "1 1 0 -> a", "0 1 0 -> a"]
    text = head + "".join(f"rule: {row}\n" for row in exact) + "default: center\n"
    machine = parse_rule_table(text)
    assert scans == []
    assert global_step(machine, ("0", "1", "0", "1", "1", "0")) == ("0", "b", "0", "1", "a", "0")
    rows = ["0 1 0 -> b", "* 1 0 -> a", "0 1 0 -> a", "1 1 1 -> b"]
    text = head + "".join(f"rule: {row}\n" for row in rows) + "default: center\n"
    scans.clear()  # the step's rule calls scanned too
    machine = parse_rule_table(text)
    assert scans == [("0", "1", "0"), ("1", "1", "1")]  # the rows after the wildcard
    assert global_step(machine, ("0", "1", "0", "1", "1", "0"))[1::3] == ("b", "a")


def test_a_table_without_wildcard_rows_never_scans_for_one(monkeypatch):
    scans = []
    wild_match = rulefile._TableRule._wild_match
    monkeypatch.setattr(
        rulefile._TableRule, "_wild_match",
        lambda rule, *triple: scans.append(triple) or wild_match(rule, *triple),
    )
    machine = parse_rule_table(
        "alphabet: 0 1\nstates: 0 1 a\naccept: a\nrule: 0 1 0 -> a\ndefault: center\n"
    )
    run_acceptor(machine, "0000")  # three triples, none of them the row's
    assert scans == []


def test_star_flank_matches_border_and_states():
    text = """\
alphabet: 0
states: 0 a
accept: a
rule: * 0 * -> a
default: center
"""
    a = parse_rule_table(text)
    assert run_acceptor(a, "0").steps == 1
    assert run_acceptor(a, "000").steps == 1


def test_q_flank_matches_border_only():
    text = """\
alphabet: 0
states: 0 a
accept: a
rule: q 0 q -> a
default: center
"""
    a = parse_rule_table(text)
    assert run_acceptor(a, "0").kind == ACCEPT
    assert run_acceptor(a, "00").kind == "timeout"


def test_default_none_requires_total_rules():
    text = """\
alphabet: 0
states: 0 a
accept: a
rule: q 0 q -> a
default: none
"""
    with pytest.raises(RuleFileError):
        parse_rule_table(text)


def test_default_none_coverage_check_memoizes_nothing():
    """60 states make 223,260 triples; memoizing them all, with a dict of
    their outputs, once peaked near 50 MB."""
    states = [f"s{i}" for i in range(60)]
    text = (
        "alphabet: s0\nstates: " + " ".join(states)
        + "\naccept: s0\nrule: * * * -> s0\ndefault: none\n"
    )
    tracemalloc.start()
    try:
        machine = parse_rule_table(text)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 4_000_000
    assert run_acceptor(machine, ["s0"] * 3).steps == 0


def test_default_none_coverage_is_counted_from_the_rows(monkeypatch):
    """A covered table never reaches the walk over all (S+1)*S*(S+1) triples,
    which at 200 states would call the rule about 8 M times."""
    monkeypatch.setattr(rulefile, "validate", lambda automaton: pytest.fail("walked"))
    states = [f"s{i}" for i in range(200)]
    rows = []
    for i, centre in enumerate(states):
        if i % 2:
            rows += [f"{left} {centre} * -> s1" for left in states]
        else:
            rows.append(f"* {centre} * -> s1")
    rows.append("q * * -> s0")  # every centre: the left border
    text = (
        "alphabet: s0\nstates: " + " ".join(states) + "\naccept: s1\n"
        + "".join(f"rule: {row}\n" for row in rows) + "default: none\n"
    )
    machine = parse_rule_table(text)
    assert run_acceptor(machine, ["s0"] * 3).steps == 1


def brute_gap(states, rows):
    """The first (left, centre, right) in ``validate``'s walk order that no
    row matches, with the border as INACTIVE; None if every one is matched."""
    flanks = states + [INACTIVE]
    for triple in itertools.product(flanks, states, flanks):
        names = ["q" if s is INACTIVE else s for s in triple]
        if not any(all(p in ("*", n) for p, n in zip(row, names)) for row in rows):
            return triple
    return None


def test_default_none_coverage_agrees_with_the_walk():
    rng = random.Random(7)
    gaps = 0
    for _ in range(400):
        states = ["a", "b", "c"][: rng.randint(1, 3)]
        flank = states + ["q", "*", "*"]
        rows = [
            (rng.choice(flank), rng.choice(states + ["*"]), rng.choice(flank))
            for _ in range(rng.randint(0, 12))
        ]
        text = (
            f"alphabet: a\nstates: {' '.join(states)}\naccept: a\n"
            + "".join(f"rule: {x} {y} {z} -> a\n" for x, y, z in rows)
            + "default: none\n"
        )
        gap = brute_gap(states, rows)
        if gap is None:
            parse_rule_table(text, name="t")
        else:
            gaps += 1
            with pytest.raises(RuleFileError) as info:
                parse_rule_table(text, name="t")
            assert str(info.value) == f"t: no rule covers {gap} and default is none"
    assert 50 < gaps < 350  # both outcomes are exercised


def test_comment_and_blank_lines_ignored():
    a = parse_rule_table("# heading\n\n" + MINIMAL)
    assert a.input_alphabet == ("0", "1")


@pytest.mark.parametrize(
    "mutation",
    [
        ("alphabet: 0 1", "alphabet: 0 0"),  # duplicate handled as states dup? no: alphabet dup
        ("accept: a", "accept: z"),
        ("states: 0 1 a", "states: 0 1 a a"),
        ("rule: 0 1 0 -> a", "rule: 0 q 0 -> a"),
        ("rule: 0 1 0 -> a", "rule: 0 1 0 -> *"),
        ("rule: 0 1 0 -> a", "rule: 0 1 -> a"),
        ("default: center", "default: sideways"),
        ("default: center", ""),
    ],
)
def test_malformed_tables_rejected(mutation):
    old, new = mutation
    text = MINIMAL.replace(old, new)
    if text == MINIMAL:
        pytest.skip("mutation did not apply")
    with pytest.raises(RuleFileError):
        parse_rule_table(text)


@pytest.mark.parametrize(
    "parse, text, lineno",
    [
        (parse_rule_table, MINIMAL + "accept: a\n", 6),
        (parse_rule_table, MINIMAL.replace("-> a", "-> *"), 4),
        (parse_rule_table, "# heading\n\n" + MINIMAL.replace("center", "sideways"), 7),
        (parse_scanner, "k: 1\nnu: 0\n", 2),
        (parse_dfa, "alphabet: 0\nstates: a\n\nstates a\n", 4),
        (parse_dfa, "alphabet: 0\n# a comment\nflavor: sour\n", 3),
        (parse_scanner, "k: 1\nalphabet: 0\n\nk: 2\n", 4),
        (lambda text, name: parse_lt_expression(text, where=name),
         "# bindings\nlet z all0.scan\nz\n", 2),
    ],
)
def test_line_errors_carry_name_and_line(parse, text, lineno):
    """All four formats, the three ``key: values`` ones and LT expressions,
    report a bad line as name:lineno."""
    with pytest.raises(RuleFileError, match=rf"^bad:{lineno}: "):
        parse(text, name="bad")


def test_time_bound_directive_round_trips():
    assert parse_rule_table(MINIMAL).time_bound is None
    machine = parse_rule_table(MINIMAL + "time_bound: 12\n", name="bounded")
    assert machine.time_bound == 12
    saved = save_rule_table(machine)
    assert "time_bound: 12\n" in saved
    assert parse_rule_table(saved).time_bound == 12
    assert "time_bound" not in serialize_rules("demo", ["0"], ["0", "a"], ["a"], None, [])


@pytest.mark.parametrize("value", ["-1", "1 2", "x", "", "1.5", "+3", "\u0663"])
def test_time_bound_must_be_one_non_negative_integer(value):
    with pytest.raises(
        RuleFileError, match="^bad:6: time_bound must be one non-negative integer$"
    ):
        parse_rule_table(MINIMAL + f"time_bound: {value}\n", name="bad")


def test_readme_example_parses():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    section = readme.split("## Rule table format", 1)[1]
    block = section.split("```\n")[1]
    a = parse_rule_table(block, name="readme")
    assert a.is_decider and a.states == ("0", "1", "a", "r")


def test_reserved_state_names_rejected():
    text = MINIMAL.replace("states: 0 1 a", "states: 0 1 a q")
    with pytest.raises(RuleFileError):
        parse_rule_table(text)


def test_duplicate_directive_rejected():
    with pytest.raises(RuleFileError):
        parse_rule_table(MINIMAL + "accept: a\n")


def test_serialize_drops_identity_rules():
    text = serialize_rules(
        "demo", ["0"], ["0", "a"], ["a"], None, [("q", "0", "q", "a"), ("0", "0", "0", "0")]
    )
    assert "rule: q 0 q -> a" in text
    assert "0 0 0" not in text
    assert text.endswith("default: center\n")


def test_save_round_trips_zoo_tables():
    """Parsing, saving, and re-parsing a table preserves behaviour."""
    for name, source in TABLE_SOURCES.items():
        first = parse_rule_table(source, name=name)
        second = parse_rule_table(save_rule_table(first), name=name)
        runner = run_decider if first.is_decider else run_acceptor
        import itertools

        for n in range(1, 7):
            for tup in itertools.product(first.input_alphabet, repeat=n):
                a = runner(first, tup)
                b = runner(second, tup)
                assert (a.kind, a.steps) == (b.kind, b.steps), (name, tup)


@pytest.mark.parametrize("name", sorted(TABLE_SOURCES))
def test_save_output_is_pinned(name):
    """``save_rule_table`` writes each zoo table byte for byte as pinned."""
    saved = Path(__file__).resolve().parent / "data" / "saved" / f"{name}.tbl"
    machine = parse_rule_table(TABLE_SOURCES[name], name=name)
    assert save_rule_table(machine) == saved.read_text()


def test_save_refuses_machines_without_state_list():
    machine = zoo_automaton("bin")
    assert machine.states is None
    with pytest.raises(RuleFileError):
        save_rule_table(machine)


# INACTIVE would be written as '-> q'; "b" is not among the listed states;
# a table whose accept: or reject: line would come out empty does not load.
@pytest.mark.parametrize(
    "output, accept, reject",
    [(INACTIVE, ["a"], None), ("b", ["a"], None), ("a", [], None), ("a", ["a"], [])],
    ids=["inactive", "unlisted", "never-accepts", "never-rejects"],
)
def test_save_refuses_tables_that_would_not_load(output, accept, reject):
    machine = Automaton(
        name="leaky",
        input_alphabet=("0",),
        rule=lambda left, center, right: output if center == "0" else center,
        accepting=set(accept).__contains__,
        rejecting=None if reject is None else set(reject).__contains__,
        states=("0", "a"),
    )
    with pytest.raises(AlphabetError):
        save_rule_table(machine)


def test_save_runs_each_face_once_per_state():
    calls = {"accept": {}, "reject": {}}

    def face(label, states):
        def call(state):
            calls[label][state] = calls[label].get(state, 0) + 1
            return state in states
        return call

    machine = Automaton(
        name="counted", input_alphabet=("0",), rule=lambda left, center, right: "a",
        accepting=face("accept", {"a"}), rejecting=face("reject", {"r"}),
        states=("0", "a", "r"),
    )
    assert "accept: a\nreject: r\n" in save_rule_table(machine)
    assert calls == {"accept": {"0": 1, "a": 1, "r": 1}, "reject": {"0": 1, "a": 1, "r": 1}}


def test_save_refuses_colliding_names():
    class Named:
        def __str__(self):
            return "a"

    machine = Automaton(
        name="twins", input_alphabet=("a",), rule=lambda left, center, right: center,
        accepting=lambda state: True, states=("a", Named()),
    )
    with pytest.raises(RuleFileError, match="^twins: state names collide when rendered$"):
        save_rule_table(machine)


def test_save_refuses_reserved_names():
    machine = Automaton(
        name="starry", input_alphabet=("*", "1"), rule=lambda left, center, right: center,
        accepting="1".__eq__, states=("*", "1"),
    )
    with pytest.raises(RuleFileError, match="^starry: state name '\\*' is reserved$"):
        save_rule_table(machine)


def test_validate_zoo_tables():
    for name, source in TABLE_SOURCES.items():
        validate(parse_rule_table(source, name=name))


def test_load_rule_table(tmp_path):
    path = tmp_path / "m.tbl"
    path.write_text(MINIMAL)
    a = load_rule_table(path)
    assert a.name == "m"


def random_table(rng: random.Random, features: set) -> str:
    """A small table text: exact rows, wildcard rows, rows that repeat an
    earlier row's pattern (so an earlier row shadows them), ``q`` flanks,
    and either default."""
    symbols = ["0", "1", "2"][: rng.randint(2, 3)]
    states = symbols + ["a", "b", "c"][: rng.randint(1, 3)]
    rows = []
    for _ in range(rng.randint(0, 9)):
        if rows and rng.random() < 0.3:
            pattern = rng.choice(rows)[:3]
            features.add("repeated " + ("wildcard" if "*" in pattern else "exact"))
        else:
            pattern = (rng.choice(states + ["q", "*"]), rng.choice(states + ["*"]),
                       rng.choice(states + ["q", "*"]))
        features.update(f"{flank} flank" for flank in (pattern[0], pattern[2]) if flank == "q")
        rows.append((*pattern, rng.choice(states)))
    accept = rng.sample(states, rng.randint(1, len(states) - 1))
    rest = [s for s in states if s not in accept]
    reject = rng.sample(rest, rng.randint(1, len(rest))) if rng.random() < 0.5 else None
    default = rng.choice(["center", "none"])
    features.add(f"default {default}")
    text = f"alphabet: {' '.join(symbols)}\nstates: {' '.join(states)}\n"
    text += f"accept: {' '.join(accept)}\n" + (f"reject: {' '.join(reject)}\n" if reject else "")
    text += "".join(f"rule: {x} {y} {z} -> {w}\n" for x, y, z, w in rows)
    try:
        parse_rule_table(text + f"default: {default}\n")
    except RuleFileError:  # a gap under default: none; close it with a last row
        text += f"rule: * * * -> {rng.choice(states)}\n"
    return text + f"default: {default}\n"


def test_table_kernel_keeps_first_match_order_on_random_tables():
    """The compiled rows step as the rule does: every configuration of every
    word of length <= 7, and every verdict of one batch of them."""
    rng = random.Random(1717)
    features: set = set()
    for index in range(24):
        memo = parse_rule_table(random_table(rng, features), name=f"random{index}")
        machine = dataclasses.replace(memo, kernel=rulefile.table_kernel(memo))
        run = run_decider if memo.is_decider else run_acceptor
        words = ["".join(w) for n in range(1, 8)
                 for w in itertools.product(memo.input_alphabet, repeat=n)]
        for word in words:
            assert list(configurations(machine, word)) == list(configurations(memo, word)), word
        verdicts = [run(memo, word) for word in words]
        assert run_many(machine, words) == [(v.kind, v.steps) for v in verdicts]
    assert features == {"repeated exact", "repeated wildcard", "q flank",
                        "default center", "default none"}


def test_only_the_zoo_tables_step_on_planes(tmp_path):
    for name, source in TABLE_SOURCES.items():
        assert zoo_automaton(name, decider=name == "someone").kernel is not None
        (tmp_path / f"{name}.tbl").write_text(source)
        assert load_rule_table(tmp_path / f"{name}.tbl").kernel is None
    zeros = Scanner(k=1, alphabet=("0", "1"), pi=frozenset({"0"}), sigma=frozenset({"0"}),
                    mu=frozenset({"0"}))
    assert compile_lt_to_daca(lt_scanner(zeros)).kernel is None


def test_table_kernel_refuses_what_it_cannot_lay_out():
    with pytest.raises(ParameterError, match="^zoo-rule: not a rule-table machine$"):
        rulefile.table_kernel(Automaton("zoo-rule", ("0",), lambda x, y, z: y, "0".__eq__))
    wide = "alphabet: 00 1\nstates: 00 1\naccept: 1\ndefault: center\n"
    with pytest.raises(ParameterError, match="^wide: input symbols must be single characters$"):
        rulefile.table_kernel(parse_rule_table(wide, name="wide"))
