"""The benchmark's four workloads: seeded inputs, one pass each, reference checks.

``setup(seed)`` makes a workload's inputs from the seed alone; the package
receives only those inputs.  ``run_pass(inputs, env, tally)`` builds fresh
machines, so the engine's per-machine rule memo and the rule-table memo
start cold as they do in every ``acaw`` process, makes the workload's
calls, and scores every answer in ``tally`` against a reference that does
not come from the engine under test.  A wrong answer or an exception counts
as failed and the pass goes on.

``env`` is ``tracing.Plain`` for the measured passes and a
``tracing.Tracer`` for the traced ones; with ``Plain`` every hook hands the
package's own callable back behind a host-speed probe tick.  Every interval
is timed with ``env.clock``, which leaves out the probe's slices.

``words_per_s`` counts, per second: on sweep every verdict, over the time in
the verify and sample calls; on curves every curve row, over the time in
``measure_time_curve``; on lt every loaded-table verdict, over the time in
those runs; on locality every contracted word, over the whole pass.
``cell_steps_per_s`` is n * (steps + 1) summed over runs that reached a
verdict, over the time in those runs (on curves, in ``measure_time_curve``).
"""

from __future__ import annotations

import collections
import contextlib
import functools
import gc
import io
import itertools
import random
import traceback
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable

from acaw import bench, cli, core, localtests, rulefile, semigroups, words, zoo
from acaw.core import ACCEPT, REJECT, TIMEOUT, BudgetError

OUT = Path(__file__).resolve().parent / "out"


@dataclass
class Tally:
    """What one pass did and how its answers scored."""

    attempted: int = 0
    wrong: int = 0  # an answer that contradicts the reference
    missing: int = 0  # no verdict where the reference expects one
    raised: int = 0  # the call raised
    words: int = 0  # the verdicts behind words_per_s
    words_s: float = 0.0
    cell_steps: int = 0  # n * (steps + 1) over runs that reached a verdict
    cell_s: float = 0.0  # time in those runs
    compile_s: list = field(default_factory=list)
    errors: list = field(default_factory=list)

    @property
    def failed(self) -> int:
        return self.wrong + self.missing + self.raised

    def verdict(self, kind: str, member: bool, decider: bool) -> None:
        """Score a run: deciders must answer; acceptors must accept exactly members."""
        self.attempted += 1
        if kind == TIMEOUT and (decider or member):
            self.missing += 1
        elif (kind == ACCEPT) != member:
            self.wrong += 1

    def check(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.wrong += 1
            self.note(f"wrong: {what}")

    def fail(self, exc: Exception, what: str, answers: int = 1) -> None:
        """A call raised; every answer it owed counts as raised."""
        self.attempted += answers
        self.raised += answers
        self.note(f"{what}: " + "".join(traceback.format_exception_only(exc)).strip())

    def note(self, message: str) -> None:
        if len(self.errors) < 20:
            self.errors.append(message)


def timed_run(env, tally: Tally, run, automaton, word: str):
    """One engine run; a run that reached a verdict adds to the cell-step rate."""
    t0 = env.clock()
    verdict = run(automaton, word)
    dt = env.clock() - t0
    if verdict.steps is not None:
        tally.cell_steps += len(word) * (verdict.steps + 1)
        tally.cell_s += dt
    return verdict, dt


def all_words(alphabet: str, max_len: int) -> list[str]:
    return [
        "".join(t)
        for n in range(1, max_len + 1)
        for t in itertools.product(alphabet, repeat=n)
    ]


def random_word(rng: random.Random, alphabet: str, lo: int, hi: int) -> str:
    return "".join(rng.choice(alphabet) for _ in range(rng.randint(lo, hi)))


def zoo_builder(name: str, decider: bool):
    return functools.partial(zoo.zoo_automaton, name, decider=decider)


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    setup: Callable[[int], Any]
    run_pass: Callable[[Any, Any, Tally], None]
    sizes: Callable[[Any], dict]
    probe: str = "step"  # the host-speed probe loop most like the pass's work


def timed_pass(workload: Workload, inputs, env) -> tuple[Tally, float]:
    """One pass with ``env``'s patches in place; returns its tally and wall time."""
    gc.collect()
    tally = Tally()
    t0 = env.clock()
    with env.patched():
        workload.run_pass(inputs, env, tally)
    return tally, env.clock() - t0


# ---------------------------------------------------------------------------
# sweep: the exhaustive zoo check that `acaw verify` runs.

SWEEP_VERIFY = (  # machine, decider mode, longest word
    ("pair01", False, 12),
    ("zeros", False, 12),
    ("someone", True, 12),
    ("idmat", False, 7),
    ("idmat", True, 7),
    ("bin", False, 7),
)
# Seeded random ternary words per block machine.  Only the decider answers
# every word, so it gets the most: its runs carry the cell-step rate.
SWEEP_SAMPLED = {("idmat", False): 150, ("idmat", True): 500, ("bin", False): 150}
SWEEP_SAMPLE_LEN = (10, 40)


def is_counter_word(word: str) -> bool:
    """Membership in bin's language in linear time.

    ``zoo.ORACLES["bin"]`` builds all 2**k counter blocks for a first block of
    length k, so on random words of length 40 it can need gigabytes; the
    exhaustive words keep k small enough for it.
    """
    blocks = word.split("#")
    k = len(blocks[0])
    return (
        k >= 1
        and len(blocks) == 2 ** k
        and all(block == format(i, f"0{k}b") for i, block in enumerate(blocks))
    )


SAMPLE_ORACLES = {"bin": is_counter_word}


@dataclass
class SweepInputs:
    alphabets: dict  # (machine, decider) -> input alphabet
    samples: dict  # (machine, decider) -> seeded ternary words


def sweep_setup(seed: int) -> SweepInputs:
    rng = random.Random(seed)
    alphabets = {
        (name, decider): zoo.zoo_automaton(name, decider=decider).input_alphabet
        for name, decider, _ in SWEEP_VERIFY
    }
    samples = {
        key: [random_word(rng, "01#", *SWEEP_SAMPLE_LEN) for _ in range(count)]
        for key, count in SWEEP_SAMPLED.items()
    }
    return SweepInputs(alphabets, samples)


def sweep_pass(inputs: SweepInputs, env, tally: Tally) -> None:
    verify = env.call("bench.verify", bench.verify_equivalence)
    for name, decider, max_len in SWEEP_VERIFY:
        expected = sum(len(inputs.alphabets[name, decider]) ** n for n in range(1, max_len + 1))
        oracle = env.call("zoo.oracle", zoo.ORACLES[name])
        t0 = env.clock()
        try:
            machine = env.builder(zoo_builder(name, decider))()
            report = verify(
                machine, oracle, max_len, mode="decider" if decider else "acceptor"
            )
        except Exception as exc:
            tally.fail(exc, f"verify {name}", expected)
            continue
        tally.words_s += env.clock() - t0
        tally.words += expected
        tally.attempted += expected
        timeouts = sum(1 for _, kind, _ in report.mismatches if kind == TIMEOUT)
        tally.missing += timeouts + max(0, expected - report.words_checked)
        tally.wrong += len(report.mismatches) - timeouts + max(0, report.words_checked - expected)
        for word, kind, want in report.mismatches[:3]:
            tally.note(f"wrong: {name} on {word!r} gave {kind}, member={want}")

    for (name, decider), sample in inputs.samples.items():
        machine = env.builder(zoo_builder(name, decider))()
        run = env.run(core.run_decider if decider else core.run_acceptor)
        oracle = SAMPLE_ORACLES.get(name) or env.call("zoo.oracle", zoo.ORACLES[name])
        for word in sample:
            try:
                verdict, dt = timed_run(env, tally, run, machine, word)
                member = oracle(word)
            except Exception as exc:
                tally.fail(exc, f"{name} on {word!r}")
                continue
            tally.words += 1
            tally.words_s += dt
            tally.verdict(verdict.kind, member, decider)


def sweep_sizes(inputs: SweepInputs) -> dict:
    sizes = {
        f"verify.{name}.{'decider' if decider else 'acceptor'}.max_len": max_len
        for name, decider, max_len in SWEEP_VERIFY
    }
    for (name, decider), count in SWEEP_SAMPLED.items():
        sizes[f"sample.{name}.{'decider' if decider else 'acceptor'}.words"] = count
    sizes["sample.length"] = list(SWEEP_SAMPLE_LEN)
    sizes["sample.chars"] = sum(len(w) for ws in inputs.samples.values() for w in ws)
    return sizes


# ---------------------------------------------------------------------------
# curves: timing curves and bound fits, what `acaw bench` and `acaw fit` run.

CURVES = (  # family, mode, largest k, bound, criterion-3 ceiling
    ("idmat", "acceptor", 45, "sqrt", 6),
    ("idmat", "decider", 26, "sqrt", 6),
    ("bin", "acceptor", 9, "log", 30),
)
SOMEONE_N = (10_000, 50_000)
SOMEONE_POINTS = 5


@dataclass(frozen=True)
class Curve:
    family: str
    mode: str
    ks: tuple
    bound: str
    ceiling: float
    expected: collections.Counter  # (k, n, verdict) rows the curve must produce


def corruptions(word: str, alphabet) -> list[str]:
    """Single-symbol changes at the first, middle and last position.

    The reference for the corrupted rows of a decider curve, written from
    ``measure_time_curve``'s documented rule rather than taken from it.
    """
    n = len(word)
    return [
        word[:pos] + sym + word[pos + 1:]
        for pos in sorted({0, n // 2, n - 1})
        for sym in alphabet
        if sym != word[pos]
    ]


def expected_rows(family, ks, mode) -> collections.Counter:
    rows = collections.Counter()
    for k in ks:
        member = family.generate(k)
        rows[k, len(member), ACCEPT] += 1
        if mode == "decider":
            for variant in corruptions(member, family.alphabet):
                if not family.is_member(variant):
                    rows[k, len(variant), REJECT] += 1
    return rows


def curves_setup(seed: int) -> list[Curve]:
    rng = random.Random(seed)
    lo, hi = SOMEONE_N
    width = (hi - lo) // SOMEONE_POINTS
    someone_ns = tuple(
        lo + i * width + rng.randrange(width) for i in range(SOMEONE_POINTS)
    )
    specs = [(f, m, tuple(range(1, k + 1)), b, c) for f, m, k, b, c in CURVES]
    specs.append(("someone", "decider", someone_ns, "const", 2))
    return [
        Curve(f, m, ks, b, c, expected_rows(zoo.FAMILIES[f], ks, m))
        for f, m, ks, b, c in specs
    ]


def curves_pass(curves: list[Curve], env, tally: Tally) -> None:
    measure = env.call("bench.curve", bench.measure_time_curve)
    fit = env.call("bench.fit", bench.fit_bound)
    for curve in curves:
        family = env.family(zoo.FAMILIES[curve.family])
        rows_due = sum(curve.expected.values())
        t0 = env.clock()
        try:
            rows = measure(family, curve.ks, mode=curve.mode)
        except Exception as exc:
            tally.fail(exc, f"curve {curve.family} {curve.mode}", rows_due + 1)
            continue
        dt = env.clock() - t0
        tally.words += len(rows)
        tally.words_s += dt
        tally.cell_steps += sum(r.n * (r.steps + 1) for r in rows if r.steps is not None)
        tally.cell_s += dt
        got = collections.Counter((r.k, r.n, r.verdict) for r in rows)
        unmatched = max(sum((curve.expected - got).values()), sum((got - curve.expected).values()))
        timeouts = min(unmatched, sum(1 for r in rows if r.verdict == TIMEOUT))
        tally.attempted += rows_due
        tally.missing += timeouts
        tally.wrong += unmatched - timeouts
        if unmatched:
            tally.note(f"wrong: curve {curve.family} {curve.mode}: {unmatched} rows differ")
        try:
            report = fit(rows, curve.bound, curve.ceiling)
        except Exception as exc:
            tally.fail(exc, f"fit {curve.family} {curve.mode}")
            continue
        tally.check(
            report.passed,
            f"{curve.family} {curve.mode} {curve.bound} constant {report.constant:.3f}"
            f" over ceiling {curve.ceiling}",
        )


def curves_sizes(curves: list[Curve]) -> dict:
    return {
        f"{c.family}.{c.mode}": {"k": list(c.ks), "rows": sum(c.expected.values())}
        for c in curves
    }


# ---------------------------------------------------------------------------
# lt: `acaw compile lt`, then the written table loaded and run.

BITS = "01"
TRITS = "012"
LT_BINARY_MAX = 8
LT_TERNARY_MAX = 5
LT_RANDOM_WINDOW2 = 2
LT_LONG_WORDS = 20
LT_LONG_LEN = {BITS: (9, 16), TRITS: (7, 12)}

# The criterion-4 scanners and expressions of the acceptance suite.
C4_SCANNERS = {
    "pair01": (2, BITS, "01", "01", "01 10"),
    "all0": (1, BITS, "0", "0", "0"),
    "all1": (1, BITS, "1", "1", "1"),
    "no11": (2, BITS, "00 01 10 11", "00 01 10 11", "00 01 10"),
}
C4_EXPRESSIONS = {  # name -> (expression, window)
    "someone": ("(not all0)", 1),
    "pair01-twice-negated": ("(not (not pair01))", 2),
    "pair01-or-zeros": ("(or pair01 all0)", 2),
    "no11-and-someone": ("(and no11 (not all0))", 2),
    "never-uniform": ("(not (or all0 all1))", 1),
}


@dataclass(frozen=True)
class LTSpec:
    name: str
    path: Path  # the .lt expression file
    table: Path  # where `acaw compile lt` writes the rule table
    window: int
    words: tuple  # every word the loaded table runs on; empty if it does not run
    long_words: tuple  # longer words for the in-memory machine


def scanner_text(k, alphabet, pi, sigma, mu) -> str:
    return (
        f"k: {k}\nalphabet: {' '.join(alphabet)}\n"
        f"pi: {pi}\nsigma: {sigma}\nmu: {mu}\n"
    )


def random_scanner(rng: random.Random, k: int, alphabet: str) -> tuple:
    windows = ["".join(t) for t in itertools.product(alphabet, repeat=k)]

    def subset() -> str:
        return " ".join(w for w in windows if rng.random() < 0.6) or rng.choice(windows)

    return (k, alphabet, subset(), subset(), subset())


def random_expression(rng: random.Random, leaves: list[str]) -> str:
    def node(names: list[str]) -> str:
        if len(names) == 1:
            return f"(not {names[0]})" if rng.random() < 0.3 else names[0]
        cut = rng.randint(1, len(names) - 1)
        op = rng.choice(("or", "and"))
        text = f"({op} {node(names[:cut])} {node(names[cut:])})"
        return f"(not {text})" if rng.random() < 0.2 else text

    return node(leaves)


def _mixed_verdicts(text: str, base: Path, alphabet: str, max_len: int) -> bool:
    expr = localtests.parse_lt_expression(text, base_dir=base)
    verdicts = {localtests.lt_eval(expr, w) for w in all_words(alphabet, max_len)}
    return verdicts == {True, False}


def _random_lt(rng, directory: Path, name: str, alphabet: str, widths: list[int]) -> str:
    """Write seeded scanners and an expression over them that is neither empty nor full."""
    while True:
        leaves = []
        for i, k in enumerate(widths):
            leaf = f"{name}-{i}"
            (directory / f"{leaf}.scan").write_text(
                scanner_text(*random_scanner(rng, k, alphabet))
            )
            leaves.append(leaf)
        text = "".join(f"let {leaf} = {leaf}.scan\n" for leaf in leaves)
        text += random_expression(rng, leaves) + "\n"
        if _mixed_verdicts(text, directory, alphabet, 5):
            return text


def lt_setup(seed: int) -> dict:
    rng = random.Random(seed)
    directory = OUT / f"lt-seed{seed}"
    directory.mkdir(parents=True, exist_ok=True)
    for name, fields in C4_SCANNERS.items():
        (directory / f"{name}.scan").write_text(scanner_text(*fields))
    texts = {}  # name -> (text, alphabet, window)
    for name, (expression, window) in C4_EXPRESSIONS.items():
        tokens = expression.replace("(", " ").replace(")", " ").split()
        used = [s for s in C4_SCANNERS if s in tokens]
        lets = "".join(f"let {s} = {s}.scan\n" for s in used)
        texts[f"c4-{name}"] = (lets + expression + "\n", BITS, window)
    for i in range(LT_RANDOM_WINDOW2):
        name = f"rand-w2-{i}"
        widths = [2] + [rng.choice((1, 2)) for _ in range(rng.randint(1, 2))]
        texts[name] = (_random_lt(rng, directory, name, BITS, widths), BITS, 2)
    texts["rand-ternary-w1"] = (_random_lt(rng, directory, "rand-ternary-w1", TRITS, [1, 1]), TRITS, 1)

    # A loaded window-2 table took about 11 s to run on the 510 binary words
    # when this benchmark was written (2 cores, Python 3.11), so one of them,
    # picked by the seed, runs per pass; the window-1 tables all run.
    window2 = sorted(name for name, (_, _, window) in texts.items() if window == 2)
    runs = {name for name, (_, _, window) in texts.items() if window == 1}
    runs.add(rng.choice(window2))
    exhaustive = {BITS: tuple(all_words(BITS, LT_BINARY_MAX)),
                  TRITS: tuple(all_words(TRITS, LT_TERNARY_MAX))}
    specs = []
    # The window-2 table that runs goes last whichever it is, so each seed
    # allocates in the same order.
    for name in sorted(texts, key=lambda name: texts[name][2] == 2 and name in runs):
        text, alphabet, window = texts[name]
        path = directory / f"{name}.lt"
        path.write_text(text)
        long_words = tuple(
            random_word(rng, alphabet, *LT_LONG_LEN[alphabet]) for _ in range(LT_LONG_WORDS)
        )
        specs.append(LTSpec(
            name, path, directory / f"{name}.tbl", window,
            exhaustive[alphabet] if name in runs else (), long_words,
        ))
    return {"specs": specs}


def lt_pass(inputs: dict, env, tally: Tally) -> None:
    compile_cli = env.call("cli.compile", cli.main)
    load_expression = env.call("localtests.parse", localtests.load_lt_expression)
    reference = env.call("localtests.lt_eval", localtests.lt_eval)
    compile_in_memory = env.compiler(localtests.compile_lt_to_daca)
    run = env.run(core.run_decider)
    for spec in inputs["specs"]:
        t0 = env.clock()
        try:
            with contextlib.redirect_stdout(io.StringIO()):
                code = compile_cli(
                    ["compile", "lt", "--spec", str(spec.path), "--out", str(spec.table)]
                )
            if code != 0:
                raise RuntimeError(f"acaw compile lt exited with {code}")
            table = rulefile.load_rule_table(spec.table)
        except Exception as exc:
            tally.fail(exc, f"compile {spec.name}",
                       1 + len(spec.words) + len(spec.long_words))
            continue
        tally.compile_s.append(env.clock() - t0)
        tally.attempted += 1
        env.count("localtests.table_states", len(table.states))
        env.count("localtests.table_rules", sum(
            1 for line in spec.table.read_text().splitlines() if line.startswith("rule:")
        ))
        try:
            expr = load_expression(spec.path)
            in_memory = compile_in_memory(expr)
        except Exception as exc:
            tally.fail(exc, f"load {spec.name}", len(spec.words) + len(spec.long_words))
            continue
        # Loaded tables run as `acaw run` runs them: default step budget.
        for machine, batch, loaded in (
            (env.machine(table), spec.words, True),
            (in_memory, spec.long_words, False),
        ):
            for word in batch:
                try:
                    verdict, dt = timed_run(env, tally, run, machine, word)
                    member = reference(expr, word)
                except Exception as exc:
                    tally.fail(exc, f"{spec.name} on {word!r}")
                    continue
                if loaded:
                    tally.words += 1
                    tally.words_s += dt
                tally.verdict(verdict.kind, member, decider=True)


def lt_sizes(inputs: dict) -> dict:
    return {
        spec.name: {
            "window": spec.window,
            "loaded_table_words": len(spec.words),
            "in_memory_words": len(spec.long_words),
        }
        for spec in inputs["specs"]
    }


# ---------------------------------------------------------------------------
# locality: the words and semigroups layers.

LOC_CONTRACTIONS = 600
LOC_PAIR_WORDS = 120
LOC_SOMEONE_WORDS = 200
LOC_IDMAT_WORDS = 200
LOC_CRITICAL_KS = range(2, 7)
LOC_CRITICAL_CORRUPTIONS = 8
LOC_CRITICAL_STEPS = range(5)
# Random DFAs per (state count, alphabet) class.  The classifier's cost grows
# steeply with the syntactic semigroup, so a fixed count per class keeps one
# seed's mix of sizes close to another's.
LOC_DFA_STATES = range(2, 7)
LOC_DFA_ALPHABETS = (("0", "1"), ("0", "1", "2"))
LOC_DFAS_PER_CLASS = 4

# The criterion-6 DFAs and their known classifier answers.
C6_DFAS = {
    "someone": (("0", "1"), ("s", "t"), "s", {"t"},
                {("s", "0"): "s", ("s", "1"): "t", ("t", "0"): "t", ("t", "1"): "t"},
                (True, None)),
    "pair01": (("0", "1"), ("s", "h", "f", "d"), "s", {"f"},
               {("s", "0"): "h", ("s", "1"): "d", ("h", "0"): "d", ("h", "1"): "f",
                ("f", "0"): "h", ("f", "1"): "d", ("d", "0"): "d", ("d", "1"): "d"},
               (True, None)),
    "zeros": (("0", "1"), ("s", "z", "d"), "s", {"z"},
              {("s", "0"): "z", ("s", "1"): "d", ("z", "0"): "z", ("z", "1"): "d",
               ("d", "0"): "d", ("d", "1"): "d"},
              (True, None)),
    "parity": (("0", "1"), ("e", "o"), "e", {"o"},
               {("e", "0"): "e", ("e", "1"): "o", ("o", "0"): "o", ("o", "1"): "e"},
               (False, ("0", "1", "1"))),
}


# The contraction references, kept apart from the words layer they check.
def prefix(word: str, k: int) -> str:
    return word[:k]


def suffix(word: str, k: int) -> str:
    return word[len(word) - k:] if k > 0 else ""


def infixes(word: str, k: int) -> set:
    if len(word) < k:
        return {word}
    return {word[i:i + k] for i in range(len(word) - k + 1)}


def random_dfa(rng: random.Random, index: int, size: int, alphabet: tuple) -> semigroups.Dfa:
    states = tuple(f"s{i}" for i in range(size))
    transitions = {(s, a): rng.choice(states) for s in states for a in alphabet}
    accept = frozenset(s for s in states if rng.random() < 0.5)
    return semigroups.Dfa(f"random-{index}", alphabet, states, states[0], accept, transitions)


def locality_setup(seed: int) -> dict:
    rng = random.Random(seed)
    contractions = []
    for _ in range(LOC_CONTRACTIONS):
        alphabet = rng.choice(("01", "01#"))
        contractions.append((random_word(rng, alphabet, 1, 200), rng.randint(1, 4)))
    critical = []
    for k in LOC_CRITICAL_KS:
        member = zoo.generate_idmat(k)
        critical.append(member)
        for _ in range(LOC_CRITICAL_CORRUPTIONS):
            pos = rng.randrange(len(member))
            sym = rng.choice([s for s in "01#" if s != member[pos]])
            critical.append(member[:pos] + sym + member[pos + 1:])
    dfas = [
        (semigroups.Dfa(name, a, s, start, frozenset(acc), trans), known)
        for name, (a, s, start, acc, trans, known) in C6_DFAS.items()
    ]
    classes = [(n, a) for n in LOC_DFA_STATES for a in LOC_DFA_ALPHABETS]
    dfas += [
        (random_dfa(rng, i, n, a), None)
        for i, (n, a) in enumerate(classes * LOC_DFAS_PER_CLASS)
    ]
    return {
        "contractions": contractions,
        "pair": ["01" * rng.randint(2, 150) for _ in range(LOC_PAIR_WORDS)],
        "someone": [random_word(rng, "01", 1, 200) for _ in range(LOC_SOMEONE_WORDS)],
        "idmat": [random_word(rng, "01#", 1, 120) for _ in range(LOC_IDMAT_WORDS)],
        "critical": critical,
        "dfas": dfas,
    }


def locality_pass(inputs: dict, env, tally: Tally) -> None:
    # words_per_s here is contracted words over the whole pass: the
    # contraction calls alone are too short a span to time steadily.
    start = env.clock()
    debruijn = env.call("words.debruijn", words.debruijn_contract)
    critical = env.call("words.critical", words.critical_contract)
    lemma1 = env.call("words.hypothesis", words.lemma1_hypothesis)
    lemma7 = env.call("words.hypothesis", words.lemma7_hypothesis)
    classify = env.call("semigroups.is_lt", semigroups.is_locally_testable)
    run_acceptor = env.run(core.run_acceptor)
    run_decider = env.run(core.run_decider)
    pair = env.builder(zoo_builder("pair01", False))()
    someone = env.builder(zoo_builder("someone", True))()
    idmat = env.builder(zoo_builder("idmat", True))()

    def contract(word: str, kappa: int):
        report = debruijn(word, kappa)
        tally.words += 1
        env.count("words.contracted_chars", len(report.contracted))
        return report.contracted

    for word, kappa in inputs["contractions"]:
        try:
            short = contract(word, kappa)
        except Exception as exc:
            tally.fail(exc, f"debruijn {word!r} kappa={kappa}")
            continue
        m = len(infixes(word, kappa))
        tally.check(
            len(short) <= min(len(word), (kappa - 1) + m * m)
            and prefix(short, kappa - 1) == prefix(word, kappa - 1)
            and suffix(short, kappa - 1) == suffix(word, kappa - 1)
            and infixes(short, kappa) == infixes(word, kappa),
            f"debruijn {word!r} kappa={kappa} gave {short!r}",
        )

    # Transfer: a contracted word that satisfies the lemma's hypothesis gets
    # the same verdict within the same number of steps.
    for word in inputs["pair"]:
        try:
            short = contract(word, 3)
            holds = lemma1(word, short, 1)
            verdict, _ = timed_run(env, tally, run_acceptor, pair, short)
        except Exception as exc:
            tally.fail(exc, f"pair01 transfer {word!r}")
            continue
        tally.check(holds and verdict.kind == ACCEPT and verdict.steps <= 1,
                    f"pair01 transfer {word!r}")
    # someone decides within 2 steps; idmat's radius is its own decision time.
    for machine, sample, member, fixed_tau in (
        (someone, inputs["someone"], zoo.is_member_someone, 2),
        (idmat, inputs["idmat"], zoo.is_member_idmat, None),
    ):
        for word in sample:
            try:
                want, _ = timed_run(env, tally, run_decider, machine, word)
                tally.verdict(want.kind, member(word), decider=True)
                if want.kind == TIMEOUT:
                    continue
                tau = fixed_tau if fixed_tau is not None else want.steps
                short = contract(word, 2 * tau + 1)
                holds = lemma7(word, short, tau)
                got, _ = timed_run(env, tally, run_decider, machine, short)
            except Exception as exc:
                tally.fail(exc, f"{machine.name} transfer {word!r}")
                continue
            tally.check(
                holds and want.steps <= tau and got.kind == want.kind
                and got.steps is not None and got.steps <= tau,
                f"{machine.name} transfer {word!r} -> {short!r}",
            )

    for word in inputs["critical"]:
        for i in LOC_CRITICAL_STEPS:
            try:
                try:
                    short = critical(idmat, word, i)
                except BudgetError:
                    short = None  # refused: the word is decided within i steps
                tally.words += 1
                verdict, _ = timed_run(env, tally, run_decider, idmat, short or word)
            except Exception as exc:
                tally.fail(exc, f"critical {word!r} i={i}")
                continue
            if short is None:
                tally.check(verdict.steps is not None and verdict.steps <= i,
                            f"critical refused {word!r} i={i}")
            else:
                tally.check(
                    len(short) <= 2 * (i + 1) ** 2
                    and (verdict.kind == TIMEOUT or verdict.steps > i),
                    f"critical {word!r} i={i} gave {short!r}",
                )

    for dfa, known in inputs["dfas"]:
        try:
            answer = classify(dfa)
        except Exception as exc:
            tally.fail(exc, f"classify {dfa.name}")
            continue
        verdict, witness = answer
        if verdict is True:
            env.count("semigroups.lt_yes", 1)
        if known is not None:
            tally.check(answer == known, f"classify {dfa.name} gave {answer}")
        else:
            tally.check(
                (verdict is True and witness is None)
                or (verdict is False and len(witness) == 3
                    and all(w and set(w) <= set(dfa.alphabet) for w in witness)),
                f"classify {dfa.name} gave {answer}",
            )
    tally.words_s = env.clock() - start


def locality_sizes(inputs: dict) -> dict:
    return {
        "debruijn_words": len(inputs["contractions"]),
        "debruijn_chars": sum(len(w) for w, _ in inputs["contractions"]),
        "transfer_words": len(inputs["pair"]) + len(inputs["someone"]) + len(inputs["idmat"]),
        "critical_words": len(inputs["critical"]),
        "critical_steps": list(LOC_CRITICAL_STEPS),
        "dfas": len(inputs["dfas"]),
        "dfa_states": sum(len(d.states) for d, _ in inputs["dfas"]),
    }


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "sweep",
            "thousands of tiny runs: per-run set-up in core, the finality test and"
            " cold rule misses into zoo's block rule dominate, not the step loop",
            sweep_setup, sweep_pass, sweep_sizes,
        ),
        Workload(
            "curves",
            "few runs of long configurations over hundreds of steps: the step loop"
            " and finality test dominate and per-run set-up is negligible",
            curves_setup, curves_pass, curves_sizes,
        ),
        Workload(
            "lt",
            "compile-then-run: the only workload for localtests and cli, and rulefile"
            " at scale, where a few huge tables are written, parsed and scanned",
            lt_setup, lt_pass, lt_sizes, probe="scan",
        ),
        Workload(
            "locality",
            "the words and semigroups layers, and the second stepper (global_step,"
            " classify) that critical_contract drives",
            locality_setup, locality_pass, locality_sizes,
        ),
    )
}
