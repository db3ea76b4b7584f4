"""Profiles, transfer hypotheses, and the two contraction procedures."""

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from acaw import (
    BudgetError,
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


@given(words_013, st.integers(min_value=1, max_value=4))
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
