"""Engine semantics: stepping, verdicts, budgets, validation."""

import dataclasses
import functools
import itertools
import pathlib
import random
import weakref

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from acaw import (
    ACCEPT,
    FAMILIES,
    INACTIVE,
    REJECT,
    TIMEOUT,
    AlphabetError,
    Automaton,
    EmptyInputError,
    ModeError,
    ParameterError,
    classify,
    configurations,
    default_max_steps,
    global_step,
    initial_configuration,
    leftmost_open,
    parse_rule_table,
    render_configuration,
    run_acceptor,
    run_decider,
    run_many,
    set_automaton,
    validate,
)
from acaw import _blockca, core, rulefile, zoo_automaton
from acaw.core import _evolve


def shift_right_rule(left, center, right):
    # every cell copies its left neighbour; the border feeds in '0'
    return "0" if left is INACTIVE else left


def make_shift(accept=("1",), reject=None):
    return set_automaton(
        "shift", ("0", "1"), shift_right_rule, accept, reject, states=("0", "1")
    )


def test_initial_configuration_checks_alphabet():
    a = make_shift()
    assert initial_configuration(a, "0110") == ("0", "1", "1", "0")
    with pytest.raises(AlphabetError):
        initial_configuration(a, "01x")
    message = r"^shift: input symbol 'x' is not in the alphabet$"
    with pytest.raises(AlphabetError, match=message):
        initial_configuration(a, "01" * 25_000 + "x" + "1")
    word = "01" * 25_000 + "x"
    for check in (initial_configuration, run_acceptor, lambda a, w: run_many(a, ["01", w])):
        with pytest.raises(AlphabetError, match=message):
            check(a, word)


def test_alphabet_check_reads_a_string_by_its_characters():
    """A string word's symbols are its characters, so a multi-character
    symbol never matches inside one; a tuple word's items are its symbols."""
    a = set_automaton("multi", ("ab", "c"), lambda l, c, r: c, ("c",), states=("ab", "c"))
    message = r"^multi: input symbol 'a' is not in the alphabet$"
    for word in ("ab", "cab"):
        with pytest.raises(AlphabetError, match=message):
            initial_configuration(a, word)
        with pytest.raises(AlphabetError, match=message):
            run_many(a, ["c", word])
    assert initial_configuration(a, "cc") == ("c", "c")
    assert initial_configuration(a, ("ab", "c")) == ("ab", "c")
    assert initial_configuration(a, ["c", "ab"]) == ("c", "ab")
    assert run_acceptor(a, ("c", "c")).kind == ACCEPT
    assert run_many(a, [("c", "c"), ["c"], "c"]) == [(ACCEPT, 0)] * 3
    with pytest.raises(AlphabetError, match=message):
        initial_configuration(a, ("ab", "a"))
    with pytest.raises(AlphabetError, match=r"^multi: input symbol 'abc' is not in the alphabet$"):
        run_many(a, [("c",), ("abc", "c")])


def test_global_step_shifts():
    a = make_shift()
    assert global_step(a, ("1", "0", "0")) == ("0", "1", "0")


def test_render_configuration():
    assert render_configuration(("0", "1")) == "q 0 1 q"


def test_classify_uniformity():
    a = make_shift(accept=("1",), reject=("0",))
    assert classify(a, ("1", "1")) == ACCEPT
    assert classify(a, ("0", "0")) == REJECT
    assert classify(a, ("0", "1")) is None


def test_run_acceptor_counts_step_zero():
    """A word that is already uniformly accepting needs zero steps."""
    a = make_shift()
    v = run_acceptor(a, "11")
    assert v.kind == ACCEPT and v.steps == 0


def test_run_acceptor_timeout_on_cycle():
    # all-ones never happens: the border keeps feeding zeros in
    a = make_shift()
    v = run_acceptor(a, "01")
    assert v.kind == TIMEOUT and v.steps is None


def test_trace_collection():
    a = make_shift()
    v = run_acceptor(a, "10", collect_trace=True)
    assert v.trace.rows()[0] == "q 1 0 q"
    assert v.trace.rows()[1] == "q 0 1 q"


def test_empty_input_rejected():
    a = make_shift()
    with pytest.raises(EmptyInputError):
        run_acceptor(a, "")


def test_mode_errors():
    acc = make_shift()
    dec = make_shift(accept=("1",), reject=("0",))
    with pytest.raises(ModeError):
        run_decider(acc, "01")
    with pytest.raises(ModeError):
        run_acceptor(dec, "01")


def test_decider_first_final_wins():
    """The chronologically first uniform face fixes the verdict."""
    dec = make_shift(accept=("1",), reject=("0",))
    assert run_decider(dec, "00").kind == REJECT
    assert run_decider(dec, "00").steps == 0
    assert run_decider(dec, "11").kind == ACCEPT


def test_rule_output_inactive_is_refused_after_misses_and_hits():
    """A rule that returns INACTIVE only at step 2, once step 1 has missed and
    hit the memo, is refused every time and never memoized."""
    calls = []

    def dies_at_step_two(left, center, right):
        calls.append((left, center, right))
        return "1" if center == "0" else INACTIVE

    machine = set_automaton(
        "dies", ("0",), dies_at_step_two, accept_states=("2",), states=("0", "1", "2")
    )
    message = r"^dies: rule drove an active cell inactive$"
    with pytest.raises(AlphabetError, match=message):
        run_acceptor(machine, "00000")
    # step 1 missed on three triples, the middle cells sharing one
    q = INACTIVE
    assert calls == [(q, "0", "0"), ("0", "0", "0"), ("0", "0", q), (q, "1", "1")]
    assert global_step(machine, ("0", "0", "0", "0", "0")) == ("1",) * 5
    assert len(calls) == 4  # all memo hits
    for _ in range(2):
        with pytest.raises(AlphabetError, match=message):
            global_step(machine, ("1", "1", "1", "1", "1"))
    assert calls[4:] == [(q, "1", "1")] * 2


def test_rule_error_inside_a_step_propagates_and_is_not_memoized():
    """A rule that raises on one triple in the middle of a configuration: the
    error leaves run_acceptor as raised, and the triple is never memoized."""
    calls, raised = [], []

    def fails_on_101(left, center, right):
        calls.append((left, center, right))
        if (left, center, right) == ("1", "0", "1"):
            raised.append(ValueError("no rule for 1 0 1"))
            raise raised[-1]
        return center

    machine = set_automaton("fails", ("0", "1"), fails_on_101, accept_states=("1",))
    with pytest.raises(ValueError) as excinfo:
        run_acceptor(machine, "00101")
    assert excinfo.value is raised[0]
    q = INACTIVE
    assert calls == [(q, "0", "0"), ("0", "0", "1"), ("0", "1", "0"), ("1", "0", "1")]
    with pytest.raises(ValueError):
        global_step(machine, ("0", "0", "1", "0", "1"))
    assert calls[4:] == [("1", "0", "1")]  # the cells before it hit the memo


def test_faces_are_evaluated_once_per_state():
    """Runs and classify call each face once per distinct state, however
    often the state recurs."""
    faces = []

    def count(face, holds):
        def test(state):
            faces.append((face, state))
            return holds(state)

        return test

    machine = Automaton(
        "ladder", ("0", "1"), lambda left, center, right: {"0": "1"}.get(center, "2"),
        accepting=count("acc", "2".__eq__), rejecting=count("rej", "x".__eq__),
    )
    assert run_decider(machine, "0110").steps == 2
    assert run_decider(machine, "1001").steps == 2
    assert classify(machine, ("3", "2", "3")) is None
    assert sorted(faces) == sorted((face, s) for face in ("acc", "rej") for s in "0123")


def test_configurations_yields_step_zero_and_stops_on_cycle():
    a = make_shift()
    configs = list(configurations(a, "10"))
    assert configs[0] == ("1", "0")
    # the evolution reaches all-zeros and stays there; the repeat is cut off
    assert configs[-1] == ("0", "0")
    assert len(set(configs)) == len(configs)


class Colliding:
    """A configuration whose hash is that of every other; counts its hashes."""

    hashes = 0

    def __init__(self, value):
        self.value = value

    def __hash__(self):
        Colliding.hashes += 1
        return 0

    def __eq__(self, other):
        return self.value == other.value


def colliding_orbit(tail, cycle):
    """A stepper over ``Colliding`` values 0, 1, ..., tail + cycle - 1, then
    back to ``tail``, and its step function."""

    def step(config):
        return Colliding(config.value + 1 if config.value + 1 < tail + cycle else tail)

    return type("Stepper", (), {"step": staticmethod(step)}), step


@pytest.mark.parametrize("tail, cycle", [(0, 1), (3, 5), (2, 16), (4, 17), (1, 40)])
def test_evolve_cuts_colliding_configurations_by_the_window_rule(tail, cycle):
    """Equal hashes must not stop a run early: with a history, ``_evolve``
    stops just before the first repeat, whatever the period, having hashed
    each configuration once and kept each under its step."""
    stepper, step = colliding_orbit(tail, cycle)
    want = [c.value for c in reference_orbit(step, Colliding(0), 100)]
    Colliding.hashes = 0
    history: dict = {}
    got = [c.value for c in _evolve(stepper, Colliding(0), 100, history)]
    assert got == want == list(range(tail + cycle))
    assert [(c.value, steps) for c, steps in history.items()] == list(zip(got, range(100)))
    # Every configuration stepped to is hashed once, the one cut off too.
    assert Colliding.hashes == len(got) + 1


def anchor_stop_bound(tail, cycle):
    return 2 * max(tail, cycle) + cycle


def test_evolve_anchor_rule_stops_on_any_period():
    """On every orbit with a tail under 20 and a period under 45, the anchor
    rule (``_evolve`` given no history) yields only the orbit, hashes
    nothing, and stops at a true repeat by step 2 * max(tail, cycle) + cycle,
    or at the budget."""
    Colliding.hashes = 0
    for tail in range(20):
        for cycle in range(1, 45):
            stepper, _ = colliding_orbit(tail, cycle)
            orbit = [i if i < tail + cycle else tail + (i - tail) % cycle for i in range(200)]
            bound = anchor_stop_bound(tail, cycle)
            for budget in (0, bound - 1, bound, 150):
                got = [c.value for c in _evolve(stepper, Colliding(0), budget)]
                assert got == orbit[: len(got)], (tail, cycle, budget)
                if len(got) <= budget:  # stopped before the budget: the next one repeats
                    assert orbit[len(got)] in got
                    assert tail + cycle <= len(got) <= bound, (tail, cycle, budget)
                else:
                    assert len(got) == budget + 1 and budget < bound, (tail, cycle, budget)
    assert Colliding.hashes == 0


# One signal that bounces between the borders, with period 2(n - 1).
BOUNCE_TABLE = (pathlib.Path(__file__).resolve().parent / "data" / "bounce.tbl").read_text()


@pytest.mark.parametrize("kernel", [False, True], ids=["memo", "kernel"])
@pytest.mark.parametrize("n", range(2, 41))
def test_untraced_runs_catch_a_bouncing_signal_of_any_period(n, kernel, monkeypatch):
    """Every period stops at its first repeat where the run keeps its
    history: the traced run, :func:`configurations` and :func:`leftmost_open`
    follow the reference orbit, which is one period long.  The untraced run
    keeps one anchor and stops by the anchor rule's bound of three periods
    or at the budget, whichever comes first; for n up to 17 that is before
    the budget.  Both are timeouts."""
    machine = parse_rule_table(BOUNCE_TABLE, name="bounce")
    if kernel:
        machine = dataclasses.replace(machine, kernel=rulefile.table_kernel(machine))
    word = "r" + "0" * (n - 1)
    budget = default_max_steps(n)
    period = 2 * (n - 1)
    orbit = reference_orbit(functools.partial(reference_step, machine), tuple(word), budget)
    assert len(orbit) == period  # the cycle starts at step 0
    traced = run_acceptor(machine, word, collect_trace=True)
    assert (traced.kind, traced.steps, traced.trace.configurations) == (
        TIMEOUT, None, tuple(orbit))
    assert list(configurations(machine, word)) == orbit
    opens = [(next(i for i, s in enumerate(c) if s != "a"), 0) for c in orbit]
    assert leftmost_open(machine, word, budget) == (opens * budget)[: budget + 1]
    steps = []
    stepper = rulefile._TablePlanes if kernel else core._Runner
    step = stepper.step
    monkeypatch.setattr(stepper, "step", lambda self, config: steps.append(config)
                        or step(self, config))
    assert (run_acceptor(machine, word).kind, run_many(machine, [word])) == (
        TIMEOUT, [(TIMEOUT, None)])
    single = len(steps) // 2
    assert steps[:single] == steps[single:]  # run_many stepped the same run
    assert period <= single <= min(anchor_stop_bound(0, period), budget)
    assert single < budget or n > 17


def test_default_budget_formula():
    assert default_max_steps(1) == 20
    assert default_max_steps(10) == 56


def countdown_rule(left, center, right):
    return str(max(int(center) - 1, 0))


def test_time_bound_widens_default_budget():
    """A machine promising a settle time gets at least that many steps.

    On one cell the plain budget is 20 steps; a 50-step countdown only
    finishes because the declared bound stretches it.
    """
    slow = Automaton(
        name="countdown",
        input_alphabet=("50",),
        rule=countdown_rule,
        accepting=lambda s: s == "0",
        states=None,
        time_bound=60,
    )
    assert run_acceptor(slow, ["50"]).kind == ACCEPT
    hasty = Automaton(
        name="countdown",
        input_alphabet=("50",),
        rule=countdown_rule,
        accepting=lambda s: s == "0",
        states=None,
    )
    assert run_acceptor(hasty, ["50"]).kind == TIMEOUT


def test_max_steps_override():
    a = make_shift()
    v = run_acceptor(a, "10", max_steps=0)
    assert v.kind == TIMEOUT


def test_negative_max_steps_is_refused():
    a = make_shift()
    with pytest.raises(ParameterError, match="^max_steps must be >= 0, not -1$"):
        run_acceptor(a, "10", max_steps=-1)
    with pytest.raises(ParameterError, match="^max_steps must be >= 0, not -3$"):
        next(configurations(a, "10", max_steps=-3))


def test_set_automaton_rejects_empty_accept_set():
    with pytest.raises(AlphabetError):
        set_automaton("x", ("0",), shift_right_rule, ())


def test_set_automaton_rejects_overlap():
    with pytest.raises(AlphabetError):
        set_automaton("x", ("0",), shift_right_rule, ("0",), ("0",))


def test_validate_passes_enumerated_machine():
    validate(make_shift())


def test_validate_needs_state_list():
    a = Automaton(
        name="anon",
        input_alphabet=("0",),
        rule=shift_right_rule,
        accepting=lambda s: True,
    )
    with pytest.raises(ParameterError):
        validate(a)


@given(st.text(alphabet="01", min_size=1, max_size=40))
@settings(max_examples=60)
def test_runs_are_deterministic(word):
    a = make_shift()
    v1 = run_acceptor(a, word)
    v2 = run_acceptor(a, word)
    assert (v1.kind, v1.steps) == (v2.kind, v2.steps)


@given(st.text(alphabet="01", min_size=1, max_size=25))
@settings(max_examples=60)
def test_shift_machine_agrees_with_closed_form(word):
    """The shift machine accepts exactly ... never: a 0 always enters."""
    a = make_shift()
    v = run_acceptor(a, word)
    if set(word) == {"1"}:
        assert v.kind == ACCEPT and v.steps == 0
    else:
        assert v.kind == TIMEOUT


def test_runner_cache_frees_machines():
    machines = [
        make_shift(accept=("1",), reject=("0",)),
        parse_rule_table(
            "alphabet: 0 1\nstates: 0 1\naccept: 1\nrule: q * * -> 1\ndefault: center\n"
        ),
    ]
    refs = [weakref.ref(m) for m in machines]
    for machine in machines:
        run = run_decider if machine.is_decider else run_acceptor
        run(machine, "010", collect_trace=True)
        global_step(machine, ("1", "0"))
        classify(machine, ("1", "1"))
        validate(machine)
    del machines, machine
    assert [ref() for ref in refs] == [None, None]


def test_runner_lookup_does_not_hash_states():
    """Finding a machine's runner must not cost a pass over its state list."""

    class Unreached:
        calls = 0

        def __hash__(self):
            Unreached.calls += 1
            return 0

    machine = set_automaton(
        "counted", "01", lambda left, centre, right: centre,
        accept_states={"1"}, reject_states={"0"}, states=("0", "1", Unreached()),
    )
    run_decider(machine, "01")
    global_step(machine, ("1", "0"))
    classify(machine, ("1", "1"))
    assert Unreached.calls == 0


# The reference stepper: the rule called on every cell of every step, with
# no interning and no memo.  The engine must agree with it exactly.
def reference_step(automaton, config):
    n = len(config)
    return tuple(
        automaton.rule(
            config[i - 1] if i > 0 else INACTIVE,
            config[i],
            config[i + 1] if i + 1 < n else INACTIVE,
        )
        for i in range(n)
    )


def reference_classify(automaton, config):
    if all(automaton.accepting(s) for s in config):
        return ACCEPT
    if automaton.rejecting is not None and all(automaton.rejecting(s) for s in config):
        return REJECT
    return None


def reference_orbit(step, start, max_steps):
    """``start`` and one value of ``step`` per step, cut before the first
    value that repeats an earlier one."""
    history = [start]
    for _ in range(max_steps):
        config = step(history[-1])
        if config in history:
            break
        history.append(config)
    return history


def reference_evolution(automaton, word, max_steps):
    """Step 0 and one configuration per step, cut before the first repeat."""
    return reference_orbit(functools.partial(reference_step, automaton), tuple(word), max_steps)


def reference_run(automaton, word, max_steps):
    """(kind, steps, trace) of a run, from the reference evolution."""
    history = reference_evolution(automaton, word, max_steps)
    for t, config in enumerate(history):
        outcome = reference_classify(automaton, config)
        if outcome is not None:
            return outcome, t, tuple(history[: t + 1])
    return TIMEOUT, None, tuple(history)


@st.composite
def rule_tables(draw):
    """A random rule table with wildcards, as an acceptor or a decider."""
    alphabet = draw(st.sampled_from([["0"], ["0", "1"]]))
    states = alphabet + draw(st.lists(st.sampled_from("abc"), unique=True, max_size=3))
    accept = draw(st.lists(st.sampled_from(states), min_size=1, max_size=2, unique=True))
    others = [s for s in states if s not in accept]
    reject = None
    if others and draw(st.booleans()):
        reject = draw(st.lists(st.sampled_from(others), min_size=1, unique=True))
    flank = st.sampled_from(states + ["q", "*"])
    output = st.sampled_from(states)
    rows = draw(
        st.lists(
            st.tuples(flank, st.sampled_from(states + ["*"]), flank, output), max_size=12
        )
    )
    default = draw(st.sampled_from(["center", "none"]))
    if default == "none":
        rows.append(("*", "*", "*", draw(output)))
    lines = [
        "alphabet: " + " ".join(alphabet),
        "states: " + " ".join(states),
        "accept: " + " ".join(accept),
    ]
    if reject is not None:
        lines.append("reject: " + " ".join(reject))
    lines += [f"rule: {x} {y} {z} -> {w}" for x, y, z, w in rows]
    lines.append(f"default: {default}")
    machine = parse_rule_table("\n".join(lines) + "\n", name="random")
    return machine, states, rows, default


def reference_rule(rows, default, triple):
    """The first row matching ``triple`` (the border as 'q'), else the default."""
    for row in rows:
        if all(p in ("*", t) for p, t in zip(row, triple)):
            return row[3]
    return triple[1] if default == "center" else None


@given(st.data())
@settings(max_examples=200)
def test_engine_matches_reference_stepper(data):
    machine, states, rows, default = data.draw(rule_tables())
    flanks = [(s, s) for s in states] + [(INACTIVE, "q")]
    for left, x in flanks:
        for centre in states:
            for right, z in flanks:
                want = reference_rule(rows, default, (x, centre, z))
                assert machine.rule(left, centre, right) == want, (x, centre, z)
    word = data.draw(st.text(alphabet="".join(machine.input_alphabet), min_size=1, max_size=8))
    max_steps = data.draw(st.none() | st.integers(0, 30))
    budget = default_max_steps(len(word)) if max_steps is None else max_steps
    history = reference_evolution(machine, word, budget)

    assert list(configurations(machine, word, max_steps)) == history
    for config in history:
        assert classify(machine, config) == reference_classify(machine, config)
        assert global_step(machine, config) == reference_step(machine, config)

    run = run_decider if machine.is_decider else run_acceptor
    verdict = run(machine, word, max_steps, collect_trace=True)
    expected = reference_run(machine, word, budget)
    assert (verdict.kind, verdict.steps, verdict.trace.configurations) == expected
    # Untraced runs stop on cycles by the anchor rule, at other steps than the
    # history's, but every verdict and step count must be the reference's.
    on_planes = dataclasses.replace(machine, kernel=rulefile.table_kernel(machine))
    for each in (machine, on_planes):
        untraced = run(each, word, max_steps)
        assert (untraced.kind, untraced.steps) == expected[:2]
        assert run_many(each, [word], max_steps) == [expected[:2]]

    config = tuple(data.draw(st.lists(st.sampled_from(states), min_size=1, max_size=6)))
    assert global_step(machine, config) == reference_step(machine, config)
    assert classify(machine, config) == reference_classify(machine, config)


@pytest.mark.parametrize("family, role", [("idmat", "acceptor"), ("idmat", "decider"),
                                          ("bin", "acceptor")])
def test_engine_matches_reference_stepper_on_block_machines(family, role):
    """Long configurations of generated states mix memo hits and misses at
    every position of a step, unlike the small random tables above."""
    family = FAMILIES[family]
    machine = getattr(family, role)()
    run = run_decider if machine.is_decider else run_acceptor
    words = [w for n in range(1, 6) for w in itertools.product(family.alphabet, repeat=n)]
    words += [tuple(family.generate(k)) for k in range(1, 5)]
    for word in words:
        verdict = run(machine, word, collect_trace=True)
        expected = reference_run(machine, word, default_max_steps(len(word)))
        assert (verdict.kind, verdict.steps, verdict.trace.configurations) == expected, word
        untraced = run(machine, word)
        assert (untraced.kind, untraced.steps) == expected[:2], word
        assert run_many(machine, [word]) == [expected[:2]], word


BLOCK_MACHINES = [("idmat", "acceptor"), ("idmat", "decider"), ("bin", "acceptor")]


def members_and_corruptions(family, ks):
    words = []
    for k in ks:
        member = family.generate(k)
        words.append(member)
        words += [member[:i] + sym + member[i + 1 :]
                  for i in range(len(member)) for sym in "01#" if sym != member[i]]
    return words


@pytest.mark.parametrize("family, role", BLOCK_MACHINES)
def test_block_kernel_matches_the_rule_on_long_words(family, role):
    """The bit-plane kernel and the rule on the memo runner give equal verdicts
    and steps on random words, members and their one-symbol corruptions, and
    the kernel's configurations are the reference stepper's on long words."""
    family = FAMILIES[family]
    machine = getattr(family, role)()
    by_rule = dataclasses.replace(machine, kernel=None)
    run = run_decider if machine.is_decider else run_acceptor
    rng = random.Random(1515)
    words = ["".join(rng.choices("01#", k=rng.randint(10, 120))) for _ in range(1000)]
    words += members_and_corruptions(family, range(1, 13 if family.name == "idmat" else 7))
    for word in words:
        seen, want = run(machine, word), run(by_rule, word)
        assert (seen.kind, seen.steps) == (want.kind, want.steps), word
    for word in words[:3] + [family.generate(5)]:
        budget = default_max_steps(len(word))
        assert list(configurations(machine, word)) == reference_evolution(machine, word, budget)


@pytest.mark.parametrize("family, role", [
    ("idmat", "acceptor"), ("bin", "acceptor"), ("idmat", "decider")],
    ids=["idmat", "bin", "idmat-decider"])
def test_block_kernel_doomed_matches_the_doomed_face(family, role):
    machine = getattr(FAMILIES[family], role)()
    for word in (w for n in range(1, 7) for w in itertools.product("01#", repeat=n)):
        run = machine.kernel([word])
        for config in _evolve(run, run.start, default_max_steps(len(word))):
            assert bool(run.doomed(config)) == any(map(machine.doomed, run.states(config))), word


@pytest.mark.parametrize("name, role", BLOCK_MACHINES + [
    ("pair01", "acceptor"), ("zeros", "acceptor"), ("someone", "decider")])
def test_kernel_planes_stay_non_negative_inside_the_cells(name, role):
    """Every plane of every configuration a kernel run reaches, alone or in a
    batch, is an int >= 0 with no bit outside ``cells``.  The kernels take
    complements against a mask (``cells ^ x``, ``x ^ (x & y)``), never with
    ``~``, which is right only on such planes.  A block run's last two
    entries, age and phase, are counters, not planes."""
    machine = zoo_automaton(name, decider=role == "decider")
    rng = random.Random(2525)
    if (name, role) in BLOCK_MACHINES:
        words = ["".join(rng.choices("01#", k=rng.randint(1, 120))) for _ in range(150)]
        words += [FAMILIES[name].generate(k) for k in range(1, 10 if name == "idmat" else 6)]
    else:
        words = ["".join(w) for n in range(1, 8) for w in itertools.product("01", repeat=n)]
        words += ["".join(rng.choices("01", k=rng.randint(8, 120))) for _ in range(50)]
    batch = sorted(words, key=len)
    for run, budget in [(machine.kernel([w]), default_max_steps(len(w))) for w in words] + [
            (machine.kernel(batch), default_max_steps(len(batch[-1])))]:
        counters = 2 if isinstance(run, _blockca._BlockPlanes) else 0
        for config in _evolve(run, run.start, budget):
            for plane in config[: len(config) - counters]:
                assert type(plane) is int and plane >= 0 and plane | run.cells == run.cells, (
                    run.words[:3], config.index(plane))


def single_runs(machine, words, max_steps=None):
    run = run_decider if machine.is_decider else run_acceptor
    return [(v.kind, v.steps) for v in (run(machine, w, max_steps=max_steps) for w in words)]


@pytest.mark.parametrize("family, role", BLOCK_MACHINES)
def test_run_many_matches_single_runs_on_short_words(family, role):
    machine = getattr(FAMILIES[family], role)()
    words = [w for n in range(1, 9) for w in itertools.product("01#", repeat=n)]
    assert run_many(machine, words) == single_runs(machine, words)


@pytest.mark.parametrize("family, role", BLOCK_MACHINES)
def test_run_many_matches_single_runs_on_mixed_lengths(family, role):
    """Words of lengths 10-120 share one run, each with its own default
    budget, and with one explicit budget that cuts some of them short."""
    family = FAMILIES[family]
    machine = getattr(family, role)()
    rng = random.Random(16)
    words = ["".join(rng.choices("01#", k=rng.randint(10, 120))) for _ in range(300)]
    words += [family.generate(k) for k in range(1, 10 if family.name == "idmat" else 6)]
    rng.shuffle(words)
    assert run_many(machine, words) == single_runs(machine, words)
    assert run_many(machine, words, max_steps=20) == single_runs(machine, words, 20)


@pytest.mark.parametrize("family, role", BLOCK_MACHINES)
def test_run_many_keeps_each_words_own_budget(family, role, monkeypatch):
    """With a budget of n steps, short members run out while long words keep
    the run going; each must still time out where its single run does."""
    monkeypatch.setattr(core, "default_max_steps", lambda n: n)
    family = FAMILIES[family]
    machine = getattr(family, role)()
    words = [family.generate(k) for k in range(1, 10 if family.name == "idmat" else 6)]
    words += ["".join(random.Random(k).choices("01#", k=120)) for k in range(5)]
    want = single_runs(machine, words)
    assert (TIMEOUT, None) in want[:3]
    assert run_many(machine, words) == want


@pytest.mark.parametrize("name, decider", [("someone", True), ("pair01", False)])
def test_run_many_runs_word_by_word_without_a_kernel(name, decider):
    machine = dataclasses.replace(zoo_automaton(name, decider=decider), kernel=None)
    words = [w for n in range(1, 9) for w in itertools.product("01", repeat=n)]
    assert run_many(machine, words) == single_runs(machine, words)
    assert run_many(machine, words, max_steps=1) == single_runs(machine, words, 1)
    assert run_many(machine, []) == []


@pytest.mark.parametrize("name, decider", [("idmat", True), ("bin", False), ("someone", True)])
def test_run_many_checks_every_word_before_stepping(name, decider, monkeypatch):
    machine = zoo_automaton(name, decider=decider)
    steps = []
    for stepper in (_blockca._BlockPlanes, rulefile._TablePlanes, core._Runner):
        step = stepper.step
        monkeypatch.setattr(stepper, "step", lambda self, config, step=step:
                            steps.append(config) or step(self, config))
    with pytest.raises(EmptyInputError):
        run_many(machine, ["1", "01", ""])
    with pytest.raises(AlphabetError):
        run_many(machine, ["1", "1x", "01"])
    with pytest.raises(ParameterError):
        run_many(machine, ["1"], max_steps=-1)
    assert steps == []


SPAN_MACHINES = [("idmat", False), ("idmat", True), ("bin", False), ("pair01", False),
                 ("someone", True)]


@pytest.mark.parametrize("name, decider", SPAN_MACHINES)
@pytest.mark.parametrize("max_steps", [None, 0, 1, 20])
def test_run_many_span_layout_matches_single_runs(name, decider, max_steps):
    """Shuffled mixed lengths with tuple words among them, one length, and
    one word each give every word its single run's verdict and steps."""
    machine = zoo_automaton(name, decider=decider)
    alphabet = "".join(machine.input_alphabet)
    rng = random.Random(2201)
    mixed = ["".join(rng.choices(alphabet, k=rng.randint(1, 30))) for _ in range(200)]
    mixed += [tuple(word) for word in mixed[:20]] + [list(mixed[20])]
    rng.shuffle(mixed)
    one_length = ["".join(w) for w in itertools.product(alphabet, repeat=5)]
    for words in (mixed, one_length, one_length[::-1], [mixed[0]], [one_length[-1]]):
        assert run_many(machine, words, max_steps) == single_runs(machine, words, max_steps)


@pytest.mark.parametrize("name, decider", SPAN_MACHINES)
def test_run_many_checks_every_span_before_stepping(name, decider, monkeypatch):
    """A bad symbol or an empty word in any span, a later span than the
    first word's included, raises before any kernel or memo step."""
    machine = zoo_automaton(name, decider=decider)
    steps = []
    for stepper in (_blockca._BlockPlanes, rulefile._TablePlanes, core._Runner):
        step = stepper.step
        monkeypatch.setattr(stepper, "step", lambda self, config, step=step:
                            steps.append(config) or step(self, config))
    words = ["0" * n for n in (7, 3, 9, 1, 3, 12)]
    for at in range(len(words)):
        for bad, error in (("", EmptyInputError), (words[at][:-1] + "x", AlphabetError),
                           (tuple(words[at][:-1]) + ("x",), AlphabetError)):
            with pytest.raises(error):
                run_many(machine, words[:at] + [bad] + words[at + 1 :])
    assert steps == []


def test_run_many_stops_on_a_repeat_of_the_whole_run(monkeypatch):
    """These bin words never get a doomed cell and each settles into a fixed
    point, so the run stops when its whole configuration repeats, long
    before the words' budgets, and every word is a timeout."""
    machine = FAMILIES["bin"].acceptor()
    words = ["0", "00", "0#0", "0000", "00#01", "0#0#1"]
    steps = []
    step = _blockca._BlockPlanes.step
    monkeypatch.setattr(_blockca._BlockPlanes, "step", lambda self, config:
                        steps.append(config) or step(self, config))
    assert run_many(machine, words) == [(TIMEOUT, None)] * len(words)
    assert 0 < len(steps) < min(default_max_steps(len(w)) for w in words)
    assert single_runs(machine, words) == [(TIMEOUT, None)] * len(words)


@pytest.mark.parametrize("family, role", BLOCK_MACHINES)
def test_kernel_leftmost_open_matches_the_faces(family, role):
    machine = getattr(FAMILIES[family], role)()
    by_rule = dataclasses.replace(machine, kernel=None)
    for word in (w for n in range(1, 6) for w in itertools.product("01#", repeat=n)):
        budget = default_max_steps(len(word))
        assert leftmost_open(machine, word, budget) == leftmost_open(by_rule, word, budget), word


ZOO_TABLES = [("pair01", False), ("zeros", False), ("someone", True)]


def binary_words(max_len):
    return ["".join(w) for n in range(1, max_len + 1) for w in itertools.product("01", repeat=n)]


@pytest.mark.parametrize("name, decider", ZOO_TABLES)
def test_table_kernel_matches_the_memo_on_every_short_word(name, decider):
    """Single runs and one batch of all 8,190 binary words of length <= 12
    (also shuffled, so budgets come unsorted) give the memo's verdicts and
    steps, with the default budget and with budgets 0-3."""
    machine = zoo_automaton(name, decider=decider)
    memo = dataclasses.replace(machine, kernel=None)
    words = binary_words(12)
    for max_steps in (None, 0, 1, 2, 3):
        want = single_runs(memo, words, max_steps)
        assert single_runs(machine, words, max_steps) == want, max_steps
        assert run_many(machine, words, max_steps) == want, max_steps
    shuffled = random.Random(17).sample(words, len(words))
    assert run_many(machine, shuffled) == single_runs(memo, shuffled)


@pytest.mark.parametrize("name, decider", ZOO_TABLES)
def test_table_kernel_configurations_and_leftmost_open_match_the_memo(name, decider):
    machine = zoo_automaton(name, decider=decider)
    memo = dataclasses.replace(machine, kernel=None)
    for word in binary_words(8):
        budget = default_max_steps(len(word))
        assert list(configurations(machine, word)) == list(configurations(memo, word)), word
        assert leftmost_open(machine, word, budget) == leftmost_open(memo, word, budget), word
