"""DFA plumbing, minimization, and the local-testability decision."""

import itertools

import pytest
from hypothesis import given, strategies as st

from acaw import (
    Dfa,
    ParameterError,
    RuleFileError,
    dfa_accepts,
    idempotents,
    is_locally_semilattice,
    is_locally_testable,
    load_dfa,
    minimize,
    parse_dfa,
    syntactic_semigroup,
)


def words(alphabet, max_len):
    for n in range(max_len + 1):
        for tup in itertools.product(alphabet, repeat=n):
            yield "".join(tup)


def make_dfa(name, n_states, accept, trans, alphabet=("0", "1")):
    states = tuple(f"t{i}" for i in range(n_states))
    transitions = {
        (states[i], a): states[j] for (i, a), j in trans.items()
    }
    return Dfa(name, alphabet, states, states[0], frozenset(states[i] for i in accept), transitions)


# contains a 1
SOMEONE = make_dfa("someone", 2, {1}, {(0, "0"): 0, (0, "1"): 1, (1, "0"): 1, (1, "1"): 1})
# (01) repeated, one or more times
PAIR01 = make_dfa(
    "pair01", 4, {2},
    {
        (0, "0"): 1, (0, "1"): 3,
        (1, "0"): 3, (1, "1"): 2,
        (2, "0"): 1, (2, "1"): 3,
        (3, "0"): 3, (3, "1"): 3,
    },
)
# non-empty and all zeros
ZEROS = make_dfa(
    "zeros", 3, {1},
    {(0, "0"): 1, (0, "1"): 2, (1, "0"): 1, (1, "1"): 2, (2, "0"): 2, (2, "1"): 2},
)
# an even number of 1s
PARITY = make_dfa("parity", 2, {0}, {(0, "0"): 0, (0, "1"): 1, (1, "0"): 1, (1, "1"): 0})


def test_dfa_validation():
    with pytest.raises(ParameterError):
        make_dfa("partial", 2, {0}, {(0, "0"): 0, (0, "1"): 1, (1, "0"): 0})
    with pytest.raises(ParameterError):
        Dfa("bad", ("0",), ("s",), "missing", frozenset(), {("s", "0"): "s"})
    with pytest.raises(ParameterError):
        Dfa("bad", ("0",), ("s",), "s", frozenset({"other"}), {("s", "0"): "s"})
    with pytest.raises(ParameterError):
        Dfa("bad", ("0",), ("s", "s"), "s", frozenset(), {("s", "0"): "s"})


@pytest.mark.parametrize(
    "alphabet, message",
    [
        ((), r"^bad: empty alphabet$"),
        (("ab", "b"), r"^bad: letter 'ab' is not one character$"),
        (("0", ""), r"^bad: letter '' is not one character$"),
        (("0", "0"), r"^bad: duplicate letters$"),
    ],
    ids=["empty", "two-characters", "no-character", "duplicate"],
)
def test_dfa_refuses_letters_that_are_not_single_characters(alphabet, message):
    transitions = {("s", a): "s" for a in alphabet}
    with pytest.raises(ParameterError, match=message):
        Dfa("bad", alphabet, ("s",), "s", frozenset(), transitions)


def test_dfa_accepts():
    assert dfa_accepts(SOMEONE, "0010")
    assert not dfa_accepts(SOMEONE, "0000")
    assert not dfa_accepts(SOMEONE, "")
    assert dfa_accepts(PAIR01, "0101")
    assert not dfa_accepts(PAIR01, "010")
    with pytest.raises(ParameterError):
        dfa_accepts(SOMEONE, "2")


DFA_TEXT = """\
# contains a 1
alphabet: 0 1
states: a b
start: a
accept: b
trans: a 0 -> a
trans: a 1 -> b
trans: b 0 -> b
trans: b 1 -> b
"""


def test_parse_dfa_and_load(tmp_path):
    dfa = parse_dfa(DFA_TEXT, name="someone")
    for w in words("01", 7):
        assert dfa_accepts(dfa, w) == dfa_accepts(SOMEONE, w)
    path = tmp_path / "someone.dfa"
    path.write_text(DFA_TEXT)
    assert load_dfa(path).name == "someone"


@pytest.mark.parametrize(
    "mutation",
    [
        lambda t: t.replace("start: a\n", ""),  # missing directive
        lambda t: t + "start: b\n",  # duplicate directive
        lambda t: t + "flavor: sour\n",  # unknown directive
        lambda t: t.replace("trans: a 0 -> a", "trans: a 0 a"),  # missing arrow
        lambda t: t + "trans: a 0 -> b\n",  # second transition on one letter
        lambda t: t.replace("alphabet: 0 1", "alphabet: 01"),  # multi-char letter
        lambda t: t.replace("alphabet: 0 1", "alphabet: 0 0"),  # duplicate letter
        lambda t: t.replace("start: a", "start: a b"),  # two start states
        lambda t: t.replace("trans: b 1 -> b\n", ""),  # partial function
        lambda t: t.replace("accept: b", "accept: z"),  # unknown accept state
        lambda t: t.replace("trans: a 1 -> b", "trans a 1 -> b"),  # no colon
    ],
)
def test_parse_dfa_rejects_malformed(mutation):
    with pytest.raises(RuleFileError):
        parse_dfa(mutation(DFA_TEXT), name="bad")


def test_minimize_collapses_duplicates_and_drops_unreachable():
    # two copies of the accept sink plus an unreachable island
    bloated = make_dfa(
        "bloated", 5, {1, 2},
        {
            (0, "0"): 0, (0, "1"): 1,
            (1, "0"): 2, (1, "1"): 1,
            (2, "0"): 1, (2, "1"): 2,
            (3, "0"): 3, (3, "1"): 3,
            (4, "0"): 0, (4, "1"): 3,
        },
    )
    small = minimize(bloated)
    assert len(small.states) == 2
    assert small.start == "m0"
    assert set(small.states) == {"m0", "m1"}
    for w in words("01", 8):
        assert dfa_accepts(small, w) == dfa_accepts(bloated, w), w


def test_minimize_known_sizes():
    assert len(minimize(PAIR01).states) == 4
    assert len(minimize(SOMEONE).states) == 2
    assert len(minimize(ZEROS).states) == 3
    assert len(minimize(PARITY).states) == 2


@st.composite
def dfas(draw):
    n = draw(st.integers(1, 4))
    trans = {
        (i, a): draw(st.integers(0, n - 1))
        for i in range(n)
        for a in "01"
    }
    accept = {i for i in range(n) if draw(st.booleans())}
    return make_dfa("random", n, accept, trans)


@given(dfas())
def test_minimize_preserves_language_and_is_idempotent(dfa):
    small = minimize(dfa)
    assert len(small.states) <= len(dfa.states)
    for w in words("01", 6):
        assert dfa_accepts(small, w) == dfa_accepts(dfa, w), w
    again = minimize(small)
    assert len(again.states) == len(small.states)


def dfa_action(dfa, word):
    index = {s: i for i, s in enumerate(dfa.states)}
    out = []
    for s in dfa.states:
        for letter in word:
            s = dfa.transitions[(s, letter)]
        out.append(index[s])
    return tuple(out)


@given(dfas())
def test_syntactic_semigroup_is_closed_and_faithful(dfa):
    m = minimize(dfa)
    sg = syntactic_semigroup(dfa)
    actions = {tuple(t) for t in sg.elements}
    assert len(actions) == len(sg)
    for t in sg.elements:
        assert dfa_action(m, sg.words[t]) == tuple(t)
        for u in sg.elements:
            assert sg.mult(t, u) in set(sg.elements)
            assert tuple(sg.mult(t, u)) == tuple(tuple(u)[i] for i in tuple(t))
    # every action of a short word is in the semigroup
    for w in words("01", 4):
        if w:
            assert dfa_action(m, w) in actions


def test_semigroup_sizes_on_knowns():
    assert len(syntactic_semigroup(SOMEONE)) == 2
    # all words containing a 1 act identically on the minimal zeros DFA
    assert len(syntactic_semigroup(ZEROS)) == 2
    assert len(syntactic_semigroup(PARITY)) == 2
    pair = syntactic_semigroup(PAIR01)
    assert len(pair) == 5
    assert len(idempotents(pair)) == 3
    # representatives are length-lex least, so single letters come first
    lengths = sorted(len(w) for w in pair.words.values())
    assert lengths[:2] == [1, 1]


def test_locally_semilattice_witness_shapes():
    ok, witness = is_locally_semilattice(syntactic_semigroup(PARITY))
    assert not ok
    e, x, y = witness
    sg = syntactic_semigroup(PARITY)
    assert sg.mult(e, e) == e
    exe = sg.mult(sg.mult(e, x), e)
    eye = sg.mult(sg.mult(e, y), e)
    assert sg.mult(exe, exe) != exe or sg.mult(exe, eye) != sg.mult(eye, exe)
    assert is_locally_semilattice(syntactic_semigroup(SOMEONE)) == (True, None)


def test_is_locally_testable_on_knowns():
    assert is_locally_testable(SOMEONE) == (True, None)
    assert is_locally_testable(PAIR01) == (True, None)
    assert is_locally_testable(ZEROS) == (True, None)
    verdict, witness = is_locally_testable(PARITY)
    assert not verdict
    assert witness == ("0", "1", "1")


def test_closure_refuses_more_elements_than_its_budget():
    """The full transformation semigroup on 4 states has 256 elements: a
    budget of 256 closes it, and one below is refused with the count reached,
    by both routes that close a semigroup."""
    cycle = {(i, "a"): (i + 1) % 4 for i in range(4)}
    swap = {(i, "b"): {0: 1, 1: 0}.get(i, i) for i in range(4)}
    merge = {(i, "c"): 0 if i == 1 else i for i in range(4)}
    full = make_dfa("full4", 4, {0}, {**cycle, **swap, **merge}, alphabet=("a", "b", "c"))
    assert len(syntactic_semigroup(full, max_elements=256)) == 256
    for close in (syntactic_semigroup, is_locally_testable):
        with pytest.raises(ParameterError, match=r"full4: the syntactic semigroup passed"
                                                 r" the budget of 255 elements \(256 found\)"):
            close(full, max_elements=255)
        with pytest.raises(ParameterError, match="budget of 10 elements"):
            close(full, max_elements=10)


def full_scan(sg):
    """The semilattice check written plainly: every pair, in element order."""
    for e in idempotents(sg):
        local = {}
        for x in sg.elements:
            local.setdefault(sg.mult(sg.mult(e, x), e), x)
        for a, x in local.items():
            if sg.mult(a, a) != a:
                return False, (e, x, x)
            for b, y in local.items():
                if sg.mult(a, b) != sg.mult(b, a):
                    return False, (e, x, y)
    return True, None


@given(dfas())
def test_semilattice_check_finds_the_full_scans_first_failure(dfa):
    sg = syntactic_semigroup(dfa)
    assert is_locally_semilattice(sg) == full_scan(sg)
    ok, triple = full_scan(sg)
    assert is_locally_testable(dfa) == (ok, triple and tuple(sg.words[t] for t in triple))


@pytest.mark.parametrize("n", [3, 256, 257, 300])
def test_counter_semigroup_past_256_states(n):
    # '1' counts mod n and '0' stays: the cyclic group of order n, which is
    # not locally testable.  Elements are bytes up to 256 states; past 256
    # they cannot be, and are tuples.
    counter = make_dfa(
        f"mod{n}", n, {0}, {(i, a): (i + int(a)) % n for i in range(n) for a in "01"}
    )
    sg = syntactic_semigroup(counter)
    encoded = bytes if n <= 256 else tuple
    assert len(sg) == n
    assert all(type(t) is encoded and len(t) == n for t in sg.elements)
    assert sg.words[encoded(range(n))] == "0"
    assert is_locally_testable(counter) == (False, ("0", "1", "1"))
    assert is_locally_semilattice(sg) == full_scan(sg)
