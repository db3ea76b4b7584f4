"""The benchmark's tracer wraps package attributes by name, and its workloads
build the zoo's machines, families and oracles; keep them usable.

Tier-1 does not collect ``benchmarks/``, so without these tests a renamed or
removed attribute, or a broken zoo entry, would surface only when the
benchmark's own tests run.
"""

from pathlib import Path

import pytest

import acaw.bench
import acaw.localtests

BENCHMARKS = Path(__file__).resolve().parents[1] / "benchmarks"


def test_tracer_patches_and_restores_every_hook(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCHMARKS))
    import tracing

    before = (acaw.bench.run_decider, acaw.localtests.global_step)
    with tracing.Tracer().patched():  # AttributeError if a hook is gone
        assert acaw.bench.run_decider is not before[0]
        assert acaw.localtests.global_step is not before[1]
    assert (acaw.bench.run_decider, acaw.localtests.global_step) == before


@pytest.mark.parametrize("name", ["sweep", "curves", "lt", "locality"])
def test_traced_pass_answers_every_word(monkeypatch, tmp_path, name):
    """A zoo builder, family or oracle that the benchmark can no longer use
    fails here too.  lt's set-up writes its expression files and tables
    under ``workloads.OUT``, which points into ``tmp_path`` here."""
    monkeypatch.syspath_prepend(str(BENCHMARKS))
    import tracing
    import workloads

    monkeypatch.setattr(workloads, "OUT", tmp_path)
    workload = workloads.WORKLOADS[name]
    tally, _ = workloads.timed_pass(workload, workload.setup(7), tracing.Tracer())
    assert tally.attempted > 0 and tally.failed == 0, tally.errors
