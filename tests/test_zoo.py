"""Built-in machines: frozen traces, exact step counts, soundness, witnesses."""

import dataclasses
import hashlib
import itertools
import random
import tracemalloc

import pytest

from acaw import (
    ACCEPT,
    REJECT,
    TIMEOUT,
    FAMILIES,
    ORACLES,
    ParameterError,
    TABLE_SOURCES,
    ZOO,
    lemma1_hypothesis,
    run_acceptor,
    run_decider,
    run_many,
    witness_word,
    zoo_automaton,
)
from acaw import _blockca, core
from acaw.zoo import (
    generate_bin,
    generate_idmat,
    generate_someone,
    is_member_bin,
    is_member_idmat,
    is_member_pair01,
    is_witness_member,
)


def test_pair01_trace_frozen():
    v = run_acceptor(zoo_automaton("pair01"), "010101", collect_trace=True)
    assert v.kind == ACCEPT and v.steps == 1
    assert v.trace.rows() == [
        "q 0 1 0 1 0 1 q",
        "q a a a a a a q",
    ]


def test_pair01_non_member_trace_frozen():
    v = run_acceptor(zoo_automaton("pair01"), "001010", collect_trace=True)
    assert v.kind == TIMEOUT
    assert v.trace.rows()[1] == "q 0 0 a a a 0 q"


def test_someone_traces_frozen():
    dec = zoo_automaton("someone", decider=True)
    v = run_decider(dec, "000000", collect_trace=True)
    assert v.kind == REJECT and v.steps == 1
    assert v.trace.rows() == [
        "q 0 0 0 0 0 0 q",
        "q r r r r r r q",
    ]
    v = run_decider(dec, "001010", collect_trace=True)
    assert v.kind == ACCEPT and v.steps == 2
    assert v.trace.rows() == [
        "q 0 0 1 0 1 0 q",
        "q r r a r a r q",
        "q a a a a a a q",
    ]


def test_zeros_accepts_at_step_zero():
    a = zoo_automaton("zeros")
    for k in (1, 2, 5, 40):
        v = run_acceptor(a, "0" * k)
        assert v.kind == ACCEPT and v.steps == 0
    assert run_acceptor(a, "010").kind == TIMEOUT


def test_someone_step_counts():
    dec = zoo_automaton("someone", decider=True)
    assert run_decider(dec, "1" * 9).steps == 1
    assert run_decider(dec, "0001000").steps == 2
    assert run_decider(dec, "0" * 9).steps == 1


BIN_STEPS = {1: 5, 2: 9, 3: 12, 4: 15, 5: 18}
IDMAT_ACC_STEPS = {1: 2, 2: 7, 3: 12, 4: 15, 5: 18}
IDMAT_DEC_STEPS = {1: 2, 2: 8, 3: 12, 4: 15, 5: 18}


def test_bin_member_step_counts():
    a = zoo_automaton("bin")
    for k, want in BIN_STEPS.items():
        v = run_acceptor(a, generate_bin(k))
        assert (v.kind, v.steps) == (ACCEPT, want), k


def test_idmat_member_step_counts():
    acc = zoo_automaton("idmat")
    dec = zoo_automaton("idmat", decider=True)
    for k, want in IDMAT_ACC_STEPS.items():
        v = run_acceptor(acc, generate_idmat(k))
        assert (v.kind, v.steps) == (ACCEPT, want), k
    for k, want in IDMAT_DEC_STEPS.items():
        v = run_decider(dec, generate_idmat(k))
        assert (v.kind, v.steps) == (ACCEPT, want), k


def test_block_machines_full_state_digest():
    """Pins every register of every cell of the idmat acceptor and decider and
    the bin acceptor on every ternary word of length <= 6.  The reference
    stepper test compares the bit-plane kernel with ``_BlockRule``, so only a
    pin like this catches a change that both make alike, or one to BCell's
    field order."""
    digest = hashlib.sha256()
    for family, role in (("idmat", "acceptor"), ("idmat", "decider"), ("bin", "acceptor")):
        machine = getattr(FAMILIES[family], role)()
        run = run_decider if machine.is_decider else run_acceptor
        for n in range(1, 7):
            for word in itertools.product("01#", repeat=n):
                v = run(machine, word, collect_trace=True)
                digest.update(repr((v.kind, v.steps, v.trace.configurations)).encode())
    assert digest.hexdigest() == (
        "602aaa1e4e3547f4c5716e2db2bb72102e2bd50e9d30e251667a8e86a1e3fd7a"
    )


def ternary_words(max_len):
    return [w for n in range(1, max_len + 1) for w in itertools.product("01#", repeat=n)]


@pytest.mark.parametrize("role", ["acceptor", "decider"])
def test_shift_visits_keep_fsm_e_and_ones_set(role):
    """Every verifier visit of the idmat machines' rule is ``(mode, par, 'e',
    True)``: only the counter comparison changes a visit's fsm or ones flag.
    The kernel relies on it, keeping a shift run's fsm-p plane clear and its
    ones plane equal to the presence plane."""
    machine = dataclasses.replace(getattr(FAMILIES["idmat"], role)(), kernel=None)
    run = run_decider if machine.is_decider else run_acceptor
    rng = random.Random(2301)
    words = ternary_words(6) + ["".join(rng.choices("01#", k=rng.randint(10, 60)))
                                for _ in range(300)]
    members = [generate_idmat(k) for k in range(2, 8)]
    words += members + [corrupt(w, rng.randrange(len(w)), rng.choice("01#"))
                        for w in members for _ in range(10)]
    visits = 0
    for word in words:
        for config in run(machine, word, collect_trace=True).trace.configurations[1:]:
            for cell in config:
                if cell.v is not None:
                    visits += 1
                    assert cell.v[2:] == ("e", True), (word, cell)
    assert visits > 5000


DOOMED_MACHINES = pytest.mark.parametrize(
    "family, role", [("idmat", "acceptor"), ("bin", "acceptor"), ("idmat", "decider")],
    ids=["idmat", "bin", "idmat-decider"])


@DOOMED_MACHINES
def test_doomed_face_is_successor_closed_on_reached_triples(family, role):
    """No doomed state accepts, and every triple the runs stepped whose centre
    is doomed has a doomed output, whatever its flanks.  Runs step on the
    kernel and fill no memo, so the rule is stepped on every configuration of
    the traced runs, which cover the untraced runs' triples and more."""
    machine = getattr(FAMILIES[family], role)()
    run = run_decider if machine.is_decider else run_acceptor
    for word in ternary_words(7):
        for config in run(machine, word, collect_trace=True).trace.configurations:
            core.global_step(machine, config)
    runner = machine._runner
    doom, acc = runner.doom, runner.acc
    assert not any(d and a for d, a in zip(doom, acc))
    doomed_centres = [(key, out) for key, out in runner.table.items() if doom[key[1]]]
    assert len(doomed_centres) > 100
    assert all(doom[out] for _, out in doomed_centres)


@DOOMED_MACHINES
def test_doomed_stop_keeps_every_verdict_and_step(family, role):
    """A run that stops at a doomed cell gives the verdict and step of the run
    that does not look for one; the decider's also under budgets that cut
    some census rejections short."""
    machine = getattr(FAMILIES[family], role)()
    blind = dataclasses.replace(machine, doomed=None)
    run = run_decider if machine.is_decider else run_acceptor
    rng = random.Random(2024)
    words = ternary_words(7) + [FAMILIES[family].generate(k) for k in range(1, 6)]
    words += ["".join(rng.choices("01#", k=rng.randint(10, 40))) for _ in range(300)]
    for budget in (None, 7, 12) if machine.is_decider else (None,):
        for word in words:
            seen, want = run(machine, word, budget), run(blind, word, budget)
            assert (seen.kind, seen.steps) == (want.kind, want.steps), (word, budget)


def corrupt(word, pos, sym):
    return word[:pos] + sym + word[pos + 1 :]


@pytest.mark.parametrize("family, role, word", [
    ("idmat", "acceptor", "##" * 20),
    ("idmat", "acceptor", corrupt(generate_idmat(5), 28, "0")),
    ("idmat", "acceptor", corrupt(generate_idmat(6), 20, "0")),
    ("idmat", "acceptor", corrupt(generate_idmat(7), 54, "0")),
    ("bin", "acceptor", corrupt(generate_bin(5), 95, "0")),
    ("bin", "acceptor", corrupt(generate_bin(5), 190, "0")),  # the last block is not all ones
    ("idmat", "decider", corrupt(generate_idmat(6), 20, "0")),
    ("idmat", "decider", corrupt(generate_idmat(8), 30, "#")),
    ("idmat", "decider", corrupt(generate_idmat(9), 5, "1")),
], ids=["separators", "idmat5", "idmat6", "idmat7", "bin5", "bin5-last",
        "idmat6-decider", "idmat8-decider", "idmat9-decider"])
def test_untraced_run_stops_within_twice_the_first_doomed_step(family, role, word, monkeypatch):
    """An untraced run stops at most twice as late as its first doomed cell,
    with the traced run's verdict: a timeout for an acceptor, the census
    reject for a decider, which the traced run reaches only later."""
    machine = getattr(FAMILIES[family], role)()
    run = run_decider if machine.is_decider else run_acceptor
    traced = run(machine, word, collect_trace=True)
    configs = traced.trace.configurations
    first = next(t for t, config in enumerate(configs) if any(map(machine.doomed, config)))
    steps = []
    step = _blockca._BlockPlanes.step
    monkeypatch.setattr(_blockca._BlockPlanes, "step", lambda self, config: steps.append(config)
                        or step(self, config))
    untraced = run(machine, word)
    want = (REJECT, len(configs) - 1) if machine.is_decider else (TIMEOUT, None)
    assert (untraced.kind, untraced.steps) == (traced.kind, traced.steps) == want
    assert first <= len(steps) <= 2 * first < len(configs) - 1


def first_rejects(run):
    """``(step, bits)`` for each step at which some words of a kernel run
    first reject, found by stepping the whole run with no stop but the last
    word's reject."""
    config, steps, open_, found = run.start, 0, run.spacers, []
    while open_:
        rejected = run.finality(config)[1] & open_
        if rejected:
            found.append((steps, rejected))
            open_ ^= rejected
        config, steps = run.step(config), steps + 1
    return found


def test_census_gives_each_words_first_reject_step():
    """The idmat decider's census schedule, read from the markers alone, is
    the first ``finality`` reject of each word when the whole kernel steps,
    one word to a run and all words in one run.  A rejected word's run, doomed
    or not, single or batched, rejects at that step, and times out under a
    budget one step short, as the run that ignores doom does."""
    machine = FAMILIES["idmat"].decider()
    blind = dataclasses.replace(machine, doomed=None)
    rng = random.Random(2626)
    words = ["".join(w) for w in ternary_words(7)]
    words += ["".join(rng.choices("01#", k=rng.randint(10, 120))) for _ in range(300)]
    for k in range(1, 10):
        member = generate_idmat(k)
        words += [member] + [corrupt(member, rng.randrange(len(member)), sym)
                             for _ in range(10) for sym in "01#"]
    rejects = {}
    for word in words:
        run = machine.kernel([word])
        assert run.census == first_rejects(run), word
        rejects[word] = run.census[0][0]
    batch = sorted(words, key=len)
    assert machine.kernel(batch).census == first_rejects(machine.kernel(batch))

    rejected = [w for w in words if run_decider(machine, w).kind == REJECT][::5]
    for word in rejected:
        for budget in (rejects[word] - 1, rejects[word]):
            seen, want = run_decider(machine, word, budget), run_decider(blind, word, budget)
            assert (seen.kind, seen.steps) == (want.kind, want.steps), (word, budget)
        assert seen.steps == rejects[word]
        assert run_decider(machine, word, rejects[word] - 1).kind == TIMEOUT
    for budget in (7, 13, 19):
        assert run_many(machine, rejected, budget) == run_many(blind, rejected, budget)


def test_idmat_decider_is_total_and_fast_on_corruptions():
    """Every corrupted member is rejected, within the square-root regime."""
    dec = zoo_automaton("idmat", decider=True)
    for k in range(2, 9):
        word = generate_idmat(k)
        n = len(word)
        for pos in (0, n // 2, n - 1):
            for sym in "01#":
                variant = word[:pos] + sym + word[pos + 1 :]
                if is_member_idmat(variant):
                    continue
                v = run_decider(dec, variant)
                assert v.kind == REJECT, (k, pos, sym)
                assert v.steps <= 6 * int((2 * n) ** 0.5) + 7


def test_generators_and_membership_agree():
    for name in ("bin", "idmat", "zeros", "someone"):
        family = FAMILIES[name]
        for k in range(1, 8):
            word = family.generate(k)
            assert family.is_member(word), (name, k)
    assert generate_bin(2) == "00#01#10#11"
    assert generate_idmat(3) == "100#010#001"
    assert generate_someone(4) == "0001"


def test_bin_membership_rejects_long_first_block():
    """A 40-symbol first block would need 2^40 counter blocks to compare."""
    assert not is_member_bin("0" * 40 + "#1")
    assert not is_member_bin("0" * 40)
    assert not is_member_bin("00#01#10")


def test_idmat_membership_is_linear_on_many_short_blocks():
    """8000 blocks would need 8000 unit rows of length 8000 (64 MB) to compare."""
    tracemalloc.start()
    try:
        assert not is_member_idmat("0#" * 8000)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 4_000_000
    assert not is_member_idmat("")
    assert not is_member_idmat("10#01#")


def test_idmat_membership_matches_its_block_definition():
    """The length pre-check changes no answer: on every ternary word of
    length <= 9 the oracle agrees with the definition by blocks."""
    def by_blocks(word):
        blocks = word.split("#")
        k = len(blocks)
        return all(len(block) == k for block in blocks) and blocks == [
            "0" * i + "1" + "0" * (k - 1 - i) for i in range(k)]

    words = ["".join(w) for n in range(10) for w in itertools.product("01#", repeat=n)]
    assert [w for w in words if is_member_idmat(w)] == [w for w in words if by_blocks(w)]
    assert sum(map(is_member_idmat, words)) == 2  # k = 1 and k = 2; k = 3 has 11 symbols


def test_generated_lengths():
    """Each family's ``length(k)`` is its member's length, or raises as
    ``generate`` does."""
    for k in range(1, 10):
        assert len(generate_bin(k)) == (k + 1) * 2**k - 1
        assert len(generate_idmat(k)) == k * k + k - 1
    for family in FAMILIES.values():
        for k in range(1, 13):
            try:
                word = family.generate(k)
            except ParameterError:
                with pytest.raises(ParameterError):
                    family.length(k)
                continue
            assert family.length(k) == len(word), (family.name, k)


def exhaustive_words(alphabet, max_len):
    for n in range(1, max_len + 1):
        for tup in itertools.product(alphabet, repeat=n):
            yield "".join(tup)


def test_exhaustive_small_soundness():
    """Machine verdicts match the string predicates on every short word."""
    acc_b = zoo_automaton("bin")
    acc_i = zoo_automaton("idmat")
    dec_i = zoo_automaton("idmat", decider=True)
    for w in exhaustive_words("01#", 7):
        assert (run_acceptor(acc_b, w).kind == ACCEPT) == is_member_bin(w), w
        assert (run_acceptor(acc_i, w).kind == ACCEPT) == is_member_idmat(w), w
        v = run_decider(dec_i, w)
        assert v.kind != TIMEOUT, w
        assert (v.kind == ACCEPT) == is_member_idmat(w), w
    pair = zoo_automaton("pair01")
    someone = zoo_automaton("someone", decider=True)
    zeros = zoo_automaton("zeros")
    for w in exhaustive_words("01", 9):
        assert (run_acceptor(pair, w).kind == ACCEPT) == ORACLES["pair01"](w), w
        assert (run_acceptor(zeros, w).kind == ACCEPT) == ORACLES["zeros"](w), w
        v = run_decider(someone, w)
        assert v.kind != TIMEOUT and (v.kind == ACCEPT) == ("1" in w), w


@pytest.mark.parametrize("name, decider", [("pair01", False), ("zeros", False),
                                           ("someone", True)])
def test_zoo_tables_share_their_parse_but_not_their_runner(name, decider):
    """A table is parsed and compiled once per process; each build is a new
    machine whose rule memo starts cold."""
    first, second = (zoo_automaton(name, decider=decider) for _ in range(2))
    assert first is not second
    assert (first.rule, first.kernel) == (second.rule, second.kernel)
    assert first._runner is not second._runner
    core.global_step(first, ("0", "1", "1"))
    assert first._runner.table
    assert not second._runner.table


def test_zoo_lookup_errors():
    with pytest.raises(ParameterError):
        zoo_automaton("nope")
    with pytest.raises(ParameterError):
        zoo_automaton("pair01", decider=True)
    with pytest.raises(ParameterError):
        zoo_automaton("someone", decider=False)


def test_witness_length_identity():
    """|word| = period * copies for every defined index up to 12."""
    periods = {"square": lambda k: k * k, "halfexp": lambda k: 2 ** ((k + 1) // 2)}
    defined = 0
    for choice, f in periods.items():
        for k in range(1, 13):
            try:
                word = witness_word(choice, k)
            except ParameterError:
                assert f(k) <= k or k - (f(k).bit_length() - 1) < 0
                continue
            defined += 1
            copies = 2 ** (k - (f(k).bit_length() - 1))
            assert len(word) == f(k) * copies, (choice, k)
            blocks = [word[i : i + f(k)] for i in range(0, len(word), f(k))]
            for m, block in enumerate(blocks):
                assert block == format(m, f"0{k}b") + "#" * (f(k) - k)
    assert defined >= 12


def test_witness_membership_predicate():
    for choice in ("square", "halfexp"):
        for k in range(2, 9):
            try:
                word = witness_word(choice, k)
            except ParameterError:
                continue
            assert is_witness_member(choice, word)
            assert not is_witness_member(choice, word + "#")
            assert not is_witness_member(choice, "1" + word[1:])


def test_witness_bad_parameters():
    with pytest.raises(ParameterError):
        witness_word("cubic", 3)
    with pytest.raises(ParameterError):
        witness_word("square", 0)
    with pytest.raises(ParameterError):
        witness_word("square", 1)  # period 1 does not exceed the block width


def test_idmat_exchange_pair_blocks_fast_acceptance():
    """Swapping in a duplicate row preserves all short-range structure.

    The corrupted word is a non-member yet matches the member's windows at
    radius 2*tau+1, so no correct machine can accept the member within tau
    steps; the library acceptor indeed takes far longer.
    """
    acc = zoo_automaton("idmat")
    for k in (8, 10, 12):
        tau = (k + 1) // 8
        rows = ["0" * j + "1" + "0" * (k - j - 1) for j in range(k)]
        member = "#".join(rows)
        swapped = list(rows)
        swapped[k // 2 - 1] = rows[k // 2]  # row k/2 now appears twice
        corrupted = "#".join(swapped)
        assert not is_member_idmat(corrupted)
        assert lemma1_hypothesis(member, corrupted, tau)
        assert run_acceptor(acc, member).steps > tau
        assert run_acceptor(acc, corrupted).kind == TIMEOUT


def test_someone_needs_linear_time_as_acceptor():
    """A lone 1 in the middle is invisible to any sublinear acceptor.

    The all-zero word shares every window of radius k-1 with the member, so
    acceptance within (k-1)//2 steps would transfer to a non-member.  That
    is why the zoo offers SOMEONE only as a decider.
    """
    for k in range(2, 41):
        member = "0" * k + "1" + "0" * k
        allzero = "0" * (2 * k + 1)
        tau = (k - 1) // 2
        assert lemma1_hypothesis(member, allzero, tau)
    assert ZOO["someone"][0] is None


def test_family_registry_consistency():
    for name, family in FAMILIES.items():
        assert family.name == name
        assert (family.acceptor is not None) or (family.decider is not None) or (
            family.expected_bound is None
        )


def test_each_zoo_machine_is_declared_once():
    """A family that is a zoo machine builds through its ``ZOO`` entry, each
    family's predicate is its oracle, and every table builds on a kernel."""
    for name, family in FAMILIES.items():
        if name in ZOO:
            acceptor, decider = ZOO[name]
            assert family.acceptor is acceptor and family.decider is decider, name
        assert ORACLES[name] is family.is_member, name
    assert set(ORACLES) == {"pair01", *FAMILIES}
    assert ORACLES["pair01"] is is_member_pair01
    for name in TABLE_SOURCES:
        builders = [build for build in ZOO[name] if build is not None]
        assert builders, name
        for build in builders:
            machine = build()
            assert machine.name == name and machine.kernel is not None, name
