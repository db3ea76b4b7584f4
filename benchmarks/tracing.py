"""Spans and per-layer metrics for the benchmark's traced passes.

Everything here wraps the package from outside: public calls, module
attributes that other modules look up at call time, and each machine's
``rule``/``accepting``/``rejecting`` callables (through
``dataclasses.replace``).  Nothing under ``src/`` is edited.

A span is (name, start, end, parent, operation).  The operation id is the
index of the span's root, so all spans caused by one top-level call share
it.  Spans are kept in flat arrays while a pass runs and written out once
the run ends.  A span's self time is its duration minus the time covered by
its direct children; a layer's self time is the sum over its spans.
"""

from __future__ import annotations

import collections
import contextlib
import dataclasses
import gzip
import time
from array import array

import acaw.bench
import acaw.cli
import acaw.localtests
import acaw.rulefile
import acaw.semigroups
import acaw.words
import acaw.zoo

_LAYER_OF_MODULE = {"_blockca": "zoo"}


def layer_of(fn) -> str:
    """The layer that owns a machine's rule: the module it was defined in."""
    module = getattr(fn, "__module__", None) or type(fn).__module__
    name = module.rpartition(".")[2]
    return _LAYER_OF_MODULE.get(name, name)


class Plain:
    """The untraced environment: every hook hands the callable back as it is,
    behind a tick of the host-speed probe (see ``hostspeed``)."""

    def __init__(self, probe):
        self.probe = probe
        self.clock = probe.clock

    def call(self, name, fn, after=None):
        return self.probe.ticking(fn)

    def machine(self, automaton):
        return automaton

    def builder(self, build):
        return build

    def run(self, runner):
        return self.probe.ticking(runner)

    def family(self, family):
        return family

    def compiler(self, compile_fn):
        return compile_fn

    def count(self, name, value):
        pass

    @contextlib.contextmanager
    def patched(self):
        """Tick between the runs that ``verify_equivalence`` and
        ``measure_time_curve`` make, so that long calls are probed too."""
        saved = acaw.bench.run_acceptor, acaw.bench.run_decider
        acaw.bench.run_acceptor, acaw.bench.run_decider = map(self.probe.ticking, saved)
        try:
            yield
        finally:
            acaw.bench.run_acceptor, acaw.bench.run_decider = saved


class Tracer:
    """Records spans around wrapped callables and exact counts beside them."""

    clock = staticmethod(time.perf_counter)

    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name = array("i")
        self.start = array("q")
        self.end = array("q")
        self.parent = array("i")
        self.op = array("i")
        self._stack: list[int] = []
        self.runs: dict[int, tuple[int, int | None]] = {}  # span -> (n, steps)
        self.counts: collections.Counter = collections.Counter()

    def _name_id(self, name: str) -> int:
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def call(self, name, fn, after=None):
        """``fn`` wrapped in a span; ``after(span, args, result)`` sees each result."""
        nid = self._name_id(name)
        stack, clock = self._stack, time.perf_counter_ns
        names, starts, ends, parents, ops = (
            self.name, self.start, self.end, self.parent, self.op,
        )

        def traced(*args, **kwargs):
            idx = len(names)
            parent = stack[-1] if stack else -1
            names.append(nid)
            parents.append(parent)
            ops.append(ops[parent] if parent >= 0 else idx)
            starts.append(0)
            ends.append(0)
            stack.append(idx)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                starts[idx] = t0
                ends[idx] = t1
            if after is not None:
                after(idx, args, result)
            return result

        return traced

    def machine(self, automaton):
        """A copy of the machine whose rule and faces record spans."""
        layer = layer_of(automaton.rule)
        rejecting = automaton.rejecting
        return dataclasses.replace(
            automaton,
            rule=self.call(f"{layer}.rule", automaton.rule),
            accepting=self.call(f"{layer}.accepting", automaton.accepting),
            rejecting=None if rejecting is None
            else self.call(f"{layer}.rejecting", rejecting),
        )

    def builder(self, build):
        """A zoo builder whose machines come back traced."""
        return self.call("zoo.build", lambda: self.machine(build()))

    def family(self, family):
        """A word family whose builders and membership test are traced."""
        return dataclasses.replace(
            family,
            acceptor=family.acceptor and self.builder(family.acceptor),
            decider=family.decider and self.builder(family.decider),
            is_member=self.call("zoo.oracle", family.is_member),
        )

    def count(self, name, value):
        self.counts[name] += value

    def _record_run(self, idx, args, verdict):
        self.runs[idx] = (len(args[1]), verdict.steps)

    def run(self, runner):
        return self.call("core.run", runner, after=self._record_run)

    def _record_parse(self, idx, args, automaton):
        text = args[0]
        self.counts["rulefile.patterns"] += sum(
            1 for line in text.splitlines() if line.strip().startswith("rule:")
        )

    def _record_profiles(self, idx, args, table):
        self.counts["localtests.profiles"] += len(table.bits)

    def _record_semigroup(self, idx, args, semigroup):
        self.counts["semigroups.elements"] += len(semigroup)

    def compiler(self, compile_fn):
        """``compile_fn`` traced; the machines it returns come back traced."""
        def compile_and_trace(expr):
            machine = compile_fn(expr)
            self.counts["localtests.schedule_len"] += machine.time_bound
            return self.machine(machine)

        return self.call("localtests.compile", compile_and_trace)

    @contextlib.contextmanager
    def patched(self):
        """Trace the module attributes that other layers look up at call time."""
        parse = self.call(
            "rulefile.parse", acaw.rulefile.parse_rule_table, self._record_parse
        )
        targets = [
            (acaw.bench, "run_acceptor", self.run(acaw.bench.run_acceptor)),
            (acaw.bench, "run_decider", self.run(acaw.bench.run_decider)),
            (acaw.words, "global_step",
             self.call("core.global_step", acaw.words.global_step)),
            (acaw.localtests, "global_step",
             self.call("core.global_step", acaw.localtests.global_step)),
            (acaw.localtests, "serialize_rules",
             self.call("rulefile.serialize", acaw.localtests.serialize_rules)),
            (acaw.localtests, "lt_profile_table",
             self.call("localtests.profile_table", acaw.localtests.lt_profile_table,
                       self._record_profiles)),
            (acaw.cli, "compile_lt_to_daca", self.compiler(acaw.cli.compile_lt_to_daca)),
            (acaw.cli, "tabulate_by_observation",
             self.call("localtests.tabulate", acaw.cli.tabulate_by_observation)),
            (acaw.cli, "load_lt_expression",
             self.call("localtests.parse", acaw.cli.load_lt_expression)),
            (acaw.rulefile, "parse_rule_table", parse),
            (acaw.zoo, "parse_rule_table", parse),
            (acaw.semigroups, "minimize",
             self.call("semigroups.minimize", acaw.semigroups.minimize)),
            (acaw.semigroups, "syntactic_semigroup",
             self.call("semigroups.semigroup", acaw.semigroups.syntactic_semigroup,
                       self._record_semigroup)),
            (acaw.semigroups, "is_locally_semilattice",
             self.call("semigroups.semilattice", acaw.semigroups.is_locally_semilattice)),
        ]
        saved = [(module, attr, getattr(module, attr)) for module, attr, _ in targets]
        try:
            for module, attr, replacement in targets:
                setattr(module, attr, replacement)
            yield
        finally:
            for module, attr, original in saved:
                setattr(module, attr, original)

    def self_times(self) -> tuple[dict, dict]:
        """Self nanoseconds and call counts by span name."""
        names, starts, ends, parents = self.name, self.start, self.end, self.parent
        covered = [0] * len(names)
        for i in range(len(names)):
            p = parents[i]
            if p >= 0:
                covered[p] += ends[i] - starts[i]
        self_ns: collections.Counter = collections.Counter()
        calls: collections.Counter = collections.Counter()
        for i in range(len(names)):
            label = self.names[names[i]]
            self_ns[label] += ends[i] - starts[i] - covered[i]
            calls[label] += 1
        return self_ns, calls

    def metrics(self) -> dict:
        """Every per-layer metric of this tracer's spans and counts."""
        self_ns, calls = self.self_times()
        names, parents = self.name, self.parent
        run_id = self._name_ids.get("core.run", -1)
        misses = collections.Counter()
        interned = 0
        for i in range(len(names)):
            p = parents[i]
            if p >= 0 and names[p] == run_id:
                label = self.names[names[i]]
                if label.endswith(".rule"):
                    misses[p] += 1
                elif label.endswith(".accepting"):
                    interned += 1
        cell_steps = lookups = decided_misses = timeouts = 0
        for idx, (n, steps) in self.runs.items():
            if steps is None:
                timeouts += 1
                continue
            cell_steps += n * (steps + 1)
            lookups += n * steps
            decided_misses += misses[idx]

        def secs(*labels):
            return sum(self_ns[label] for label in labels) / 1e9

        def n_calls(*labels):
            return sum(calls[label] for label in labels)

        return {
            "core.run_s": secs("core.run"),
            "core.runs": len(self.runs),
            "core.cell_steps": cell_steps,
            "core.timeouts": timeouts,
            "core.rule_misses": sum(misses.values()),
            "core.states_interned": interned,
            "core.memo_hit_ratio": 1.0 - decided_misses / lookups if lookups else 0.0,
            "core.global_step_s": secs("core.global_step"),
            "core.global_step.calls": n_calls("core.global_step"),
            "rulefile.rule_s": secs("rulefile.rule"),
            "rulefile.rule.calls": n_calls("rulefile.rule"),
            "rulefile.parse_s": secs("rulefile.parse"),
            "rulefile.patterns": self.counts["rulefile.patterns"],
            "rulefile.serialize_s": secs("rulefile.serialize"),
            "zoo.rule_s": secs("zoo.rule"),
            "zoo.rule.calls": n_calls("zoo.rule"),
            "zoo.face_s": secs("zoo.accepting", "zoo.rejecting"),
            "zoo.oracle_s": secs("zoo.oracle"),
            "zoo.build_s": secs("zoo.build"),
            "localtests.profile_table_s": secs("localtests.profile_table"),
            "localtests.profiles": self.counts["localtests.profiles"],
            "localtests.compile_s": secs("localtests.compile"),
            "localtests.schedule_len": self.counts["localtests.schedule_len"],
            "localtests.tabulate_s": secs("localtests.tabulate"),
            "localtests.table_states": self.counts["localtests.table_states"],
            "localtests.table_rules": self.counts["localtests.table_rules"],
            "localtests.rule_s": secs("localtests.rule"),
            "localtests.face_s": secs("localtests.accepting", "localtests.rejecting"),
            "localtests.lt_eval_s": secs("localtests.lt_eval"),
            "words.debruijn_s": secs("words.debruijn"),
            "words.debruijn.calls": n_calls("words.debruijn"),
            "words.contracted_chars": self.counts["words.contracted_chars"],
            "words.critical_s": secs("words.critical"),
            "words.critical.calls": n_calls("words.critical"),
            "words.hypothesis_s": secs("words.hypothesis"),
            "semigroups.minimize_s": secs("semigroups.minimize"),
            "semigroups.semigroup_s": secs("semigroups.semigroup"),
            "semigroups.elements": self.counts["semigroups.elements"],
            "semigroups.semilattice_s": secs("semigroups.semilattice"),
            "semigroups.lt_yes": self.counts["semigroups.lt_yes"],
            "bench.verify_self_s": secs("bench.verify"),
            "bench.curve_self_s": secs("bench.curve"),
            "bench.fit_s": secs("bench.fit"),
            "cli.compile_self_s": secs("cli.compile"),
            "trace.spans": len(names),
        }

    def write(self, path) -> None:
        """All spans as gzipped CSV: name, start_ns, end_ns, parent, op."""
        with gzip.open(path, "wt") as handle:
            handle.write("name,start_ns,end_ns,parent,op\n")
            for i in range(len(self.name)):
                handle.write(
                    f"{self.names[self.name[i]]},{self.start[i]},{self.end[i]},"
                    f"{self.parent[i]},{self.op[i]}\n"
                )
