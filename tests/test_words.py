"""Profiles, transfer hypotheses, and the two contraction procedures."""

import itertools
import random
from collections import deque

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from acaw import (
    BudgetError,
    ContractionReport,
    EmptyInputError,
    ModeError,
    ParameterError,
    debruijn_contract,
    critical_contract,
    infix_set,
    lemma1_hypothesis,
    lemma7_hypothesis,
    parse_rule_table,
    prefix_of,
    profile,
    run_acceptor,
    run_decider,
    suffix_of,
    zoo_automaton,
)


def test_prefix_suffix_basics():
    assert prefix_of("abcde", 2) == "ab"
    assert suffix_of("abcde", 2) == "de"
    assert prefix_of("abc", 0) == ""
    assert suffix_of("abc", 0) == ""
    assert prefix_of("abc", 9) == "abc"
    assert suffix_of("abc", 9) == "abc"
    assert suffix_of("abc", 4) == "abc"


def test_infix_set_degrades_to_singleton():
    assert infix_set("ab", 3) == frozenset({"ab"})
    assert infix_set("abab", 2) == frozenset({"ab", "ba"})


@given(
    st.text(alphabet="ab", max_size=10),
    st.sampled_from("ab"),
    st.integers(min_value=0, max_value=5),
)
@example("ab", "a", 3)  # short to long: the word reaches the window width
@example("a", "b", 3)  # short to short
def test_profile_extend_is_profile_of_extended_word(word, letter, k):
    assert profile(word, k).extend(letter) == profile(word + letter, k)


def test_negative_window_rejected():
    for fn in (prefix_of, suffix_of, infix_set):
        with pytest.raises(ParameterError):
            fn("abc", -1)


def test_profile_triple():
    p = profile("abab", 2)
    assert (p.prefix, p.suffix) == ("ab", "ab")
    assert p.infixes == frozenset({"ab", "ba"})


def test_lemma1_hypothesis_inclusion_direction():
    # the shorter word's windows must already occur in the longer one
    assert lemma1_hypothesis("010101", "0101", 1)
    assert not lemma1_hypothesis("0101", "011101", 1)
    with pytest.raises(ParameterError):
        lemma1_hypothesis("0", "0", -1)


def test_lemma7_needs_equality():
    assert lemma7_hypothesis("010101", "0101", 1)
    # w has the window 111 that w' lacks: inclusion holds, equality fails
    assert lemma1_hypothesis("0111010", "01110", 1)
    assert not lemma7_hypothesis("0111010", "01110", 1)


def test_lemma1_transfer_on_pair01():
    """Same 2-tau surroundings, so quick acceptance carries over."""
    a = zoo_automaton("pair01")
    w, shorter = "010101", "0101"
    assert lemma1_hypothesis(w, shorter, 1)
    assert run_acceptor(a, w).steps == 1
    assert run_acceptor(a, shorter).steps <= 1


def test_lemma1_transfer_at_tau_zero():
    a = zoo_automaton("zeros")
    assert lemma1_hypothesis("000", "0", 0)
    assert run_acceptor(a, "000").steps == 0
    assert run_acceptor(a, "0").steps == 0


words_01 = st.text(alphabet="01", min_size=1, max_size=120)
words_013 = st.text(alphabet="01#", min_size=1, max_size=120)


@given(words_013, st.integers(min_value=1, max_value=16))
@settings(max_examples=150)
def test_debruijn_contract_preserves_profile(word, kappa):
    """The contraction keeps the exact (kappa-1)-ends and kappa-infix set."""
    report = debruijn_contract(word, kappa)
    c = report.contracted
    assert prefix_of(c, kappa - 1) == prefix_of(word, kappa - 1)
    assert suffix_of(c, kappa - 1) == suffix_of(word, kappa - 1)
    assert infix_set(c, kappa) == infix_set(word, kappa)
    assert len(c) <= len(word)
    assert len(c) <= report.bound == (kappa - 1) + report.node_count**2


def spliced_searches(word, kappa):
    """The contraction as one breadth-first search per target: the reference
    for ``debruijn_contract``.  Also returns, per target, how many steps the
    walk takes to it from the previous target's first visit, and how long
    the spliced path is."""
    if len(word) <= kappa:
        return word, []
    walk = [word[i : i + kappa] for i in range(len(word) - kappa + 1)]
    order = list(dict.fromkeys(walk))
    seen = set(order)
    letters = sorted(set(word))

    def shortest_path(src, dst):
        if src == dst:
            return [src]
        parents = {src: None}
        queue = deque([src])
        while queue:
            u = queue.popleft()
            stem = u[1:]
            for a in letters:
                v = stem + a
                if v in seen and v not in parents:
                    parents[v] = u
                    if v == dst:
                        path = [v]
                        while parents[path[-1]] is not None:
                            path.append(parents[path[-1]])
                        path.reverse()
                        return path
                    queue.append(v)
        raise AssertionError("targets are always reachable along the original walk")

    new_walk, cases = [order[0]], []
    ends = [walk.index(node) for node in order] + [len(walk) - 1]
    for target, start, end in zip(order[1:] + [walk[-1]], ends, ends[1:]):
        segment = shortest_path(new_walk[-1], target)
        cases.append((end - start, len(segment) - 1))
        new_walk.extend(segment[1:])
    return new_walk[0] + "".join(node[-1] for node in new_walk[1:]), cases


def repetitive_words(seed, count):
    """Seeded words with long repeats and a few flipped letters, and a kappa
    of up to 80 each: long jumps between first visits."""
    rng = random.Random(seed)
    for _ in range(count):
        unit = "".join(rng.choices("01#", k=rng.randint(1, 12)))
        word = list(unit * rng.randint(1, 30))
        for _ in range(rng.randint(0, 3)):
            word[rng.randrange(len(word))] = rng.choice("01#")
        yield "".join(word), rng.randint(1, 80)


def test_debruijn_contract_equals_one_search_per_target():
    """The run, overlap and search splice gives the report that one
    breadth-first search per target gives, and the corpus reaches each of
    its cases: a run of first visits, a jump of at most kappa steps, a jump
    searched for, and a final node that needs no path."""
    corpus = [("".join(w), k) for n in range(1, 12) for w in itertools.product("01", repeat=n)
              for k in range(1, 5)]
    corpus += [("".join(w), k) for n in range(1, 8) for w in itertools.product("012", repeat=n)
               for k in range(1, 4)]
    corpus += repetitive_words(18, 1500)
    seen = set()
    for word, kappa in corpus:
        contracted, cases = spliced_searches(word, kappa)
        m = len(infix_set(word, kappa))
        assert debruijn_contract(word, kappa) == ContractionReport(
            word, contracted, kappa, m, (kappa - 1) + m * m), (word, kappa)
        seen.update("run" if gap == 1 else "overlap" if length <= kappa else "search"
                    for gap, length in cases[:-1])
        if cases and cases[-1][1] == 0:
            seen.add("final")
    assert seen == {"run", "overlap", "search", "final"}


def test_debruijn_contract_short_words_unchanged():
    report = debruijn_contract("01", 3)
    assert report.contracted == "01"


def test_debruijn_contract_shrinks_repetition():
    report = debruijn_contract("01" * 50, 2)
    assert len(report.contracted) < 10
    assert infix_set(report.contracted, 2) == infix_set("01" * 50, 2)


def test_debruijn_contract_rejects_bad_kappa():
    with pytest.raises(ParameterError):
        debruijn_contract("0101", 0)


@pytest.mark.parametrize("kappa", [1, 2, 5])
def test_debruijn_contract_refuses_the_empty_word(kappa):
    """The empty word has no walk to contract, as it has no run."""
    with pytest.raises(EmptyInputError, match="^contraction takes a non-empty word$"):
        debruijn_contract("", kappa)


def test_critical_contract_keeps_decision_slow():
    dec = zoo_automaton("idmat", decider=True)
    for k, i in [(2, 2), (3, 3), (4, 4)]:
        blocks = ["0" * j + "1" + "0" * (k - j - 1) for j in range(k)]
        word = "#".join(blocks)
        assert run_decider(dec, word).steps > i
        short = critical_contract(dec, word, i)
        assert len(short) <= 2 * (i + 1) ** 2
        v = run_decider(dec, short)
        assert v.steps is None or v.steps > i


# Every cell flips each step: the run repeats at step 2 and never decides.
BLINKER = """\
alphabet: 0 1
states: 0 1 a r
accept: a
reject: r
default: center
rule: * 0 * -> 1
rule: * 1 * -> 0
"""
# Every cell counts 0 -> 1 -> 2 -> 0 after leaving s: the run repeats step 1
# at step 4, and the leftmost cells that do not accept (1) or reject (2)
# move as it cycles.
COUNTER = """\
alphabet: s 0 1 2
states: s 0 1 2
accept: 1
reject: 2
default: center
rule: * s * -> 0
rule: * 0 * -> 1
rule: * 1 * -> 2
rule: * 2 * -> 0
"""


@pytest.mark.parametrize(
    "table, word, i, short",
    [(BLINKER, "0110", 5, "0110"), (BLINKER, "011010", 3, "0110"),
     (BLINKER, "0110100110", 6, "0110100"), (BLINKER, "0110100110", 1, "01"),
     (COUNTER, "1111111111112s0s21", 5, "11111111112s0s2"),
     (COUNTER, "0000000000000000s1", 8, "0000000000000000s1")],
)
def test_critical_contract_on_a_decider_that_cycles(table, word, i, short):
    """The engine stops a run at its first repeat; the witness still reads
    the configurations up to step ``i``, continuing the orbit."""
    assert critical_contract(parse_rule_table(table, name="cycles"), word, i) == short


def test_critical_contract_budget_error_on_fast_decisions():
    dec = zoo_automaton("idmat", decider=True)
    # "0" is rejected at step 1 already
    with pytest.raises(BudgetError):
        critical_contract(dec, "0", 1)


def test_critical_contract_needs_decider():
    with pytest.raises(ModeError):
        critical_contract(zoo_automaton("pair01"), "01", 1)
