"""The benchmark's tracer wraps package attributes by name; keep them there.

Tier-1 does not collect ``benchmarks/``, so without this test a renamed or
removed attribute would surface only when the benchmark's own tests run.
"""

from pathlib import Path

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
